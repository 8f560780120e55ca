"""SimMachine: the facade bundling topology, ground truth and noise.

Everything in the repository that "runs on hardware" runs on a SimMachine:
benchmarks sample noisy durations from it, the event engine schedules
messages over it, and the BSPlib runtime charges virtual time against it.
All randomness flows through :meth:`SimMachine.rng` so that every experiment
is reproducible from one machine seed plus a stream label.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.cluster.noise import NoiseModel
from repro.cluster.params import ClusterParams
from repro.cluster.topology import Placement, Relation, Topology
from repro.kernels.base import Kernel
from repro.machine import compute
from repro.util.validation import require_int


@dataclass(frozen=True)
class CommTruth:
    """Ground-truth pairwise communication matrices for one placement.

    Indexed ``[source, destination]`` by rank.  The analytic model never sees
    these; it sees benchmark estimates of them (repro.bench.comm_bench).
    """

    placement: Placement
    latency: np.ndarray  # one-way wire latency [s]
    start_overhead: np.ndarray  # marginal per-request start cost [s]
    inv_bandwidth: np.ndarray  # [s/byte]
    nic_gap: float
    recv_overhead: float
    invocation_overhead: float

    @property
    def nprocs(self) -> int:
        return self.placement.nprocs


class SimMachine:
    """A simulated SMP cluster with a stable noise stream."""

    def __init__(
        self,
        topology: Topology,
        params: ClusterParams,
        noise: NoiseModel | None = None,
        seed: int = 2012,
    ):
        self.topology = topology
        self.params = params
        self.noise = noise if noise is not None else NoiseModel()
        self.seed = require_int(seed, "seed")

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
        if policy == "round_robin":
            return Placement.round_robin(self.topology, nprocs)
        if policy == "block":
            return Placement.block(self.topology, nprocs)
        raise ValueError(f"unknown placement policy {policy!r}")

    # -------------------------------------------------------- communication

    def comm_truth(self, placement: Placement) -> CommTruth:
        """Build the ground-truth pairwise matrices for a placement."""
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
        """Sampled (noisy) execution time, as a timer would observe it.

        Delegates to :meth:`kernel_time_batch` on a length-1 vector so the
        scalar and batch noise paths cannot drift apart: a shape-``(1,)``
        draw consumes the RNG stream exactly as the old per-scalar draw
        did, so existing noisy streams are bit-identical.
        """
        return float(
            self.kernel_time_batch(
                core, kernel, [n], reps=reps, rng=rng,
                footprint_bytes=footprint_bytes,
            )[0]
        )

    def kernel_time_batch(
        self,
        cores,
        kernel: Kernel,
        sizes,
        reps: int = 1,
        rng: np.random.Generator | None = None,
        footprint_bytes=None,
    ) -> np.ndarray:
        """Noisy kernel times for a vector of (core, size[, footprint]).

        The clean times are assembled per entry and the noise applied in
        one :meth:`NoiseModel.sample` call on the whole vector — one bulk
        draw instead of ``len(sizes)`` scalar draws, which both removes
        the per-rank Python/RNG overhead and defines a stable draw order
        for charge models that price many ranks per step.  ``cores`` may
        be a scalar (applied to every entry); ``footprint_bytes`` may be
        ``None``, a scalar, or a per-entry sequence.
        """
        sizes = np.asarray(sizes)
        count = sizes.shape[0]
        cores_arr = np.broadcast_to(np.asarray(cores), (count,))
        if footprint_bytes is None or np.isscalar(footprint_bytes):
            footprints = [footprint_bytes] * count
        else:
            footprints = list(footprint_bytes)
            if len(footprints) != count:
                raise ValueError("footprint_bytes length must match sizes")
        base = np.array([
            self.kernel_time_clean(
                int(cores_arr[k]), kernel, int(sizes[k]), reps=reps,
                footprint_bytes=footprints[k],
            )
            for k in range(count)
        ])
        if rng is None:
            return base
        return self.noise.sample(rng, base)

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
