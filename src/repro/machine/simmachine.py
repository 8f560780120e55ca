"""SimMachine: the facade bundling topology, ground truth and noise.

Everything in the repository that "runs on hardware" runs on a SimMachine:
benchmarks sample noisy durations from it, the event engine schedules
messages over it, and the BSPlib runtime charges virtual time against it.
All randomness flows through :meth:`SimMachine.rng` so that every experiment
is reproducible from one machine seed plus a stream label.

A machine is an immutable value: its placements and a profile cache's
key are built once and served from the machine, so campaigns that share
a machine (:func:`repro.cluster.presets.make_preset_machine`) share that
work too.  A placement's ground-truth matrices are built on each call.
"""

from __future__ import annotations

import threading
import zlib
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.cluster.noise import NoiseModel
from repro.cluster.params import ClusterParams
from repro.cluster.topology import Placement, Relation, Topology
from repro.kernels.base import Kernel
from repro.machine import compute
from repro.util.validation import require_int, require_nonnegative


@dataclass(frozen=True)
class CommTruth:
    """Ground-truth pairwise communication matrices for one placement.

    Indexed ``[source, destination]`` by rank.  The analytic model never sees
    these; it sees benchmark estimates of them (repro.bench.comm_bench).

    Every duration is checked once, here: the matrices must be finite and
    non-negative, and they are made read-only so the check stays true.
    The event engine relies on it to draw noise around these values
    without re-validating them per stage.
    """

    placement: Placement
    latency: np.ndarray  # one-way wire latency [s]
    start_overhead: np.ndarray  # marginal per-request start cost [s]
    inv_bandwidth: np.ndarray  # [s/byte]
    nic_gap: float
    recv_overhead: float
    invocation_overhead: float

    def __post_init__(self):
        p = self.placement.nprocs
        for name in ("latency", "start_overhead", "inv_bandwidth"):
            matrix = np.asarray(getattr(self, name), dtype=float)
            if matrix.shape != (p, p):
                raise ValueError(
                    f"{name} must be {p} x {p}, got {matrix.shape}"
                )
            if not (np.isfinite(matrix).all() and (matrix >= 0).all()):
                raise ValueError(f"{name} must be finite and non-negative")
            matrix.flags.writeable = False
            object.__setattr__(self, name, matrix)
        for name in ("nic_gap", "recv_overhead", "invocation_overhead"):
            value = require_nonnegative(getattr(self, name), name)
            object.__setattr__(self, name, value)

    @property
    def nprocs(self) -> int:
        return self.placement.nprocs


class _Memo:
    """A thread-safe memo.

    ``build`` runs outside the lock; when two threads race to build one
    key, the first result stored is the one both return."""

    def __init__(self):
        self._entries: dict[Hashable, Any] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        with self._lock:
            if key in self._entries:
                return self._entries[key]
        value = build()
        with self._lock:
            return self._entries.setdefault(key, value)


class SimMachine:
    """A simulated SMP cluster with a stable noise stream.

    Immutable: assigning or deleting an attribute raises
    ``AttributeError``, and the topology, parameters and noise model are
    frozen values, so one machine can be shared by every campaign,
    thread and test in a process.  :meth:`placement` is memoised on the
    machine, and :meth:`derived` memoises any other value computed from
    the machine alone; served objects are shared, with read-only arrays.
    """

    def __init__(
        self,
        topology: Topology,
        params: ClusterParams,
        noise: NoiseModel | None = None,
        seed: int = 2012,
    ):
        fields = {
            "topology": topology,
            "params": params,
            "noise": noise if noise is not None else NoiseModel(),
            "seed": require_int(seed, "seed"),
            "_derived": _Memo(),
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"SimMachine is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SimMachine is immutable: cannot delete {name!r}")

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, run once per ``key`` on this machine and then
        served.  For values that depend on the machine and ``key`` alone;
        ``key`` must name its owner, as the memo is shared."""
        return self._derived.get(key, build)

    # ------------------------------------------------------------------ rng

    def rng(self, *stream_key) -> np.random.Generator:
        """Deterministic generator for a named stream of this machine."""
        tokens = [self.seed & 0xFFFFFFFF]
        for part in stream_key:
            if isinstance(part, (int, np.integer)):
                tokens.append(int(part) & 0xFFFFFFFF)
            else:
                tokens.append(zlib.crc32(str(part).encode()) & 0xFFFFFFFF)
        return np.random.default_rng(np.random.SeedSequence(tokens))

    # ------------------------------------------------------------ placement

    def placement(self, nprocs: int, policy: str = "round_robin") -> Placement:
        """The ``policy`` placement of ``nprocs`` ranks, built once."""
        if policy == "round_robin":
            build = Placement.round_robin
        elif policy == "block":
            build = Placement.block
        else:
            raise ValueError(f"unknown placement policy {policy!r}")
        nprocs = require_int(nprocs, "nprocs")
        return self.derived(
            ("placement", nprocs, policy), lambda: build(self.topology, nprocs)
        )

    # -------------------------------------------------------- communication

    def comm_truth(self, placement: Placement) -> CommTruth:
        """The ground-truth pairwise matrices for a placement."""
        if placement.topology is not self.topology:
            # Accept structurally equal topologies (e.g. rebuilt presets).
            if placement.topology != self.topology:
                raise ValueError("placement belongs to a different topology")
        rel = placement.relation_matrix()
        p = placement.nprocs
        latency = np.zeros((p, p))
        start = np.zeros((p, p))
        inv_bw = np.zeros((p, p))
        for relation in Relation:
            mask = rel == int(relation)
            if not np.any(mask):
                continue
            link = self.params.link(relation)
            latency[mask] = link.latency
            start[mask] = link.start_overhead
            inv_bw[mask] = link.inv_bandwidth
        return CommTruth(
            placement=placement,
            latency=latency,
            start_overhead=start,
            inv_bandwidth=inv_bw,
            nic_gap=self.params.nic_gap,
            recv_overhead=self.params.recv_overhead,
            invocation_overhead=self.params.invocation_overhead,
        )

    # -------------------------------------------------------------- compute

    def rate_scale(self, core: int) -> float:
        """Per-core flop-rate multiplier from the heterogeneity map (§3.3)."""
        socket = self.topology.socket_of(core)
        return float(self.params.socket_rate_scale.get(socket, 1.0))

    def kernel_time_clean(
        self,
        core: int,
        kernel: Kernel,
        n: int,
        reps: int = 1,
        footprint_bytes: float | None = None,
    ) -> float:
        """Noise-free execution time of ``reps`` kernel applications."""
        return compute.application_time(
            kernel,
            self.params.core,
            n,
            reps=reps,
            rate_scale=self.rate_scale(core),
            footprint_bytes=footprint_bytes,
        )

    def kernel_time(
        self,
        core: int,
        kernel: Kernel,
        n: int,
        reps: int = 1,
        rng: np.random.Generator | None = None,
        footprint_bytes: float | None = None,
    ) -> float:
        """Sampled (noisy) execution time, as a timer would observe it:
        replication 0 of :meth:`kernel_time_runs` at ``runs=1``, whose
        shape-``(1,)`` draw consumes the generator exactly as a scalar
        draw does."""
        return float(
            self.kernel_time_runs(
                core, kernel, n, 1, reps=reps, rng=rng,
                footprint_bytes=footprint_bytes,
            )[0]
        )

    def kernel_time_runs(
        self,
        core: int,
        kernel: Kernel,
        n: int,
        runs: int,
        reps: int = 1,
        rng: np.random.Generator | None = None,
        footprint_bytes: float | None = None,
    ) -> np.ndarray:
        """``runs`` independent noisy timings of one kernel application.

        The replication axis of the batched BSP runtime: one
        :meth:`NoiseModel.sample_matrix` draw replaces ``runs`` scalar
        round trips, filling the replication axis in the engine's
        documented replication-major order.  ``rng=None`` broadcasts the
        clean time to every replication.
        """
        base = self.kernel_time_clean(core, kernel, n, reps, footprint_bytes)
        if rng is None:
            return np.full(runs, base)
        return self.noise.sample_matrix(rng, base, runs)

    def describe(self) -> str:
        return self.topology.describe()
