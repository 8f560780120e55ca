"""Memoized §5.6.3 communication profiles for campaign-scale sweeps.

``profile_placement`` — the comm benchmark behind ``evaluate_barrier``,
the stencil predictor, and the adaptation pipeline — is deterministic:
its output is a pure function of the machine (topology, ground-truth
parameters, noise model, seed), the placement, and the benchmark
arguments.  Campaigns nonetheless used to re-run it for *every* design
point, even though a barrier sweep shares one placement across all its
pattern axes.  This module provides the keyed cache that amortises the
benchmark.

Profiles are benchmarked per **node block**, not per placement.  The
benchmark measures every process pair on its own, and a pair's truth
depends only on its two cores, so a placement's profile is a slice of
the profile of any superset of its cores.  A placement is served from
the block of every core on the nodes it touches (:func:`node_block`):
the block is benchmarked once with :func:`repro.bench.comm_bench.
benchmark_comm`, and each placement on those nodes is served as
``m[np.ix_(idx, idx)]`` of the block's matrices, ``idx`` being its
cores' positions in the block (the per-core ``O_ii`` diagonal comes
along).  A served profile is therefore bit-identical to a fresh
``benchmark_comm`` of the placement's node block, sliced to the
placement — not to a ``benchmark_comm`` of the placement itself, whose
noise stream is keyed by its own process count.

* an **in-process memo** of block profiles keyed by a content hash of
  everything the benchmark's output depends on (machine fingerprint +
  block cores + benchmark arguments + a protocol version), and of
  served slices keyed the same way by the placement's cores, so a
  repeat call returns the same object; always on;
* optional **JSONL persistence** of block profiles alongside a
  campaign's result store (``<store_dir>/.profile-cache/profiles.jsonl``),
  so sequential campaigns, suite regenerations, and adaptive runs share
  profiles across processes.

A record stores each block's P × P matrix as ``{"shape": [P, P],
"f64le": ...}``: base64 of its little-endian float64 bytes, exact by
construction and about a third of the size of a JSON float list.  Every
block profile — fresh, from disk, or from the memo — is the decode of
such a record, so a memory hit, a disk hit, and a fresh benchmark are
bit-identical and executor equivalence (serial ≡ process ≡ chunked) is
preserved.  The decode wraps the record's bytes without a copy, and
slices are frozen, so served matrices are read-only.  A record that
parses as JSON but does not decode is a miss: the block is benchmarked
again and its new record supersedes it.

``PROFILE_PROTOCOL`` must be bumped whenever the benchmark's draw order,
estimator, record format or keying changes; it is part of every key, so
stale persisted profiles from older code versions can never be served.

Worker processes of the ``process``/``chunked`` executors are forked,
so they inherit the configured cache; each worker appends fresh profiles
to the same crash-safe :mod:`repro.util.jsonl` log as the result cache,
so concurrent writers cannot interleave records.  Hit/miss counts and
benchmark time are recorded only as telemetry metrics
(``profile_cache.hits``/``.misses``, ``profile_cache.benchmark_seconds``),
which ``explore stats`` sums from the store's sink: a hit is a block
served from the memo or the disk, a miss a block benchmarked.
"""

from __future__ import annotations

import base64
import dataclasses
import enum
import hashlib
import json
import os
import time
from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.barriers.cost_model import CommParameters
from repro.bench.comm_bench import (
    DEFAULT_INTERCEPT_MAX_SIZE,
    DEFAULT_REQUEST_COUNTS,
    DEFAULT_STREAM,
    benchmark_comm,
)
from repro.cluster.topology import Placement
from repro.machine.simmachine import SimMachine
from repro.obs import current as _telemetry

#: Version token baked into every cache key.  Bump when the comm
#: benchmark's RNG draw order, estimators, or defaults change meaning,
#: or when the record format or what a record covers changes.
PROFILE_PROTOCOL = "comm-bench/v4-node-blocks"


def _describe(value: Any) -> Any:
    """Recursively normalise machine internals to JSON-stable data."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _describe(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {
            str(_describe(k)): _describe(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_describe(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    return value


def machine_fingerprint(machine: SimMachine) -> dict:
    """Everything a comm profile depends on, as plain JSON data."""
    return {
        "seed": machine.seed,
        "topology": _describe(machine.topology),
        "params": _describe(machine.params),
        "noise": _describe(machine.noise),
    }


def node_block(placement: Placement) -> Placement:
    """Every core on the nodes ``placement`` touches, in ascending order."""
    topology = placement.topology
    per_node = topology.cores_per_node
    nodes = np.unique(placement.nodes)
    return Placement(
        topology, (nodes[:, None] * per_node + np.arange(per_node)).ravel()
    )


def _key_prefix(machine: SimMachine, samples, sizes) -> str:
    """Everything in a key but the cores, shared by a placement's key and
    its block's.  The key names the benchmark arguments a profile is
    always benchmarked with (:mod:`repro.bench.comm_bench`'s defaults),
    so persisted keys stay valid.  A machine is immutable, so the prefix
    is encoded once per machine and arguments and served from it."""
    samples, sizes = int(samples), tuple(int(s) for s in sizes)
    return machine.derived(
        (PROFILE_PROTOCOL, samples, sizes),
        lambda: json.dumps(
            {
                "protocol": PROFILE_PROTOCOL,
                "machine": machine_fingerprint(machine),
                "samples": samples,
                "sizes": list(sizes),
                "request_counts": list(DEFAULT_REQUEST_COUNTS),
                "stream": DEFAULT_STREAM,
                "intercept_max_size": DEFAULT_INTERCEPT_MAX_SIZE,
            },
            sort_keys=True,
            separators=(",", ":"),
        ),
    )


def _key(prefix: str, placement: Placement) -> str:
    """Stable content hash of one (machine, cores, benchmark-args)."""
    cores = ",".join(str(int(c)) for c in placement.cores)
    return hashlib.sha256(f"{prefix}[{cores}]".encode()).hexdigest()[:24]


def _encode_matrix(matrix: np.ndarray) -> dict:
    data = np.ascontiguousarray(matrix, dtype="<f8")
    return {
        "shape": list(data.shape),
        "f64le": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode_matrix(field: dict) -> np.ndarray:
    shape = field["shape"]
    raw = base64.b64decode(field["f64le"], validate=True)
    if not (isinstance(shape, list) and len(shape) == 2
            and all(isinstance(n, int) and n > 0 for n in shape)
            and shape[0] == shape[1]):
        raise ValueError(f"profile matrix shape {shape!r} is not P x P")
    if len(raw) != shape[0] * shape[1] * 8:
        raise ValueError(
            f"profile matrix of shape {shape} carries {len(raw)} bytes"
        )
    return np.frombuffer(raw, "<f8").reshape(shape)


def _params_to_record(params: CommParameters) -> dict:
    return {
        "overhead": _encode_matrix(params.overhead),
        "latency": _encode_matrix(params.latency),
        "inv_bandwidth": (
            None if params.inv_bandwidth is None
            else _encode_matrix(params.inv_bandwidth)
        ),
    }


def _params_from_record(record: dict) -> CommParameters:
    """Decode a record into read-only matrices; ``ValueError`` when it
    does not decode (a missing key, bad base64, a wrong byte count or a
    matrix that is not P × P)."""
    try:
        inv = record["inv_bandwidth"]
        return CommParameters(
            overhead=_decode_matrix(record["overhead"]),
            latency=_decode_matrix(record["latency"]),
            inv_bandwidth=None if inv is None else _decode_matrix(inv),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed profile record: {exc!r}") from exc


def _sliced(params: CommParameters, idx: np.ndarray) -> CommParameters:
    """The ``idx`` rows and columns of every matrix, read-only."""
    rows_cols = np.ix_(idx, idx)

    def take(matrix):
        if matrix is None:
            return None
        part = matrix[rows_cols]
        part.flags.writeable = False
        return part

    return CommParameters(
        overhead=take(params.overhead),
        latency=take(params.latency),
        inv_bandwidth=take(params.inv_bandwidth),
    )


class ProfileCache:
    """In-process memo with optional shared JSONL persistence.

    Returned :class:`CommParameters` are shared objects whose matrices
    are read-only; a consumer that needs to modify one copies it first.
    """

    def __init__(self):
        self._blocks: dict[str, CommParameters] = {}
        # placement key -> (served slice, its block's key)
        self._served: dict[str, tuple[CommParameters, str]] = {}
        self._store = None  # lazily-built repro.explore.cache.ResultCache
        self._path: str | None = None
        # Blocks benchmarked by this process.  Not a statistic (those are
        # the telemetry counters): ``benchmarks/e2e/ledger.py`` reads it to
        # tell a ``get_or_benchmark`` call that benchmarked apart.
        self.misses = 0

    # ------------------------------------------------------- configuration

    def configure(self, path: str | os.PathLike | None) -> None:
        """Attach (or detach, with ``None``) the persistence file.

        Existing records are loaded eagerly; the in-process memo survives
        reconfiguration because keys are content-addressed.  Reconfiguring
        to the already-attached path is a no-op (campaigns rebind the
        singleton per evaluation batch).
        """
        from repro.explore.cache import ResultCache

        if path is None:
            self._store = self._path = None
        elif os.fspath(path) != self._path:
            self._path = os.fspath(path)
            self._store = ResultCache(self._path)

    @property
    def path(self) -> str | None:
        return self._path

    def clear_memory(self) -> None:
        self._blocks.clear()
        self._served.clear()
        self.misses = 0

    # ------------------------------------------------------------- serving

    def get_or_benchmark(
        self,
        machine: SimMachine,
        placement: Placement,
        samples: int,
        sizes,
    ) -> CommParameters:
        """Serve one placement's profile as a slice of its node block's:
        the block from memory, then disk, then a fresh benchmark with
        ``samples`` and ``sizes`` (every other argument at
        :func:`~repro.bench.comm_bench.benchmark_comm`'s default).
        """
        args = (samples, tuple(sizes))
        prefix = _key_prefix(machine, *args)
        key = _key(prefix, placement)
        served = self._served.get(key)
        if served is not None:
            params, block_key = served
            # The block is memoised with its slices, so this counts a hit
            # (and writes the block through to a newly-attached store).
            self._block_profile(machine, None, block_key, args)
            return params
        block = node_block(placement)
        block_key = _key(prefix, block)
        full = self._block_profile(machine, block, block_key, args)
        if block_key == key:
            params = full
        else:
            params = _sliced(full, np.searchsorted(block.cores, placement.cores))
        self._served[key] = (params, block_key)
        return params

    def _block_profile(
        self, machine: SimMachine, block: Placement | None, key: str,
        args: tuple,
    ) -> CommParameters:
        """One node block's profile: memory, then disk, then a fresh
        benchmark of ``block`` (``None`` only when it is memoised);
        counts one hit or one miss."""
        tele = _telemetry()
        params = self._blocks.get(key)
        if params is not None:
            if self._store is not None and self._store.get(key) is None:
                # Write a memory hit through to a newly-attached store, so
                # switching store directories mid-process still leaves each
                # one self-sufficient for later sessions.  (The in-memory
                # params ARE a decoded record, so this reproduces the
                # on-disk form exactly.)
                self._store.put(key, _params_to_record(params))
        elif self._store is not None:
            record = self._store.get(key)
            try:
                params = None if record is None else _params_from_record(record)
            except ValueError:
                params = None  # undecodable: benchmarked and put afresh below
            if params is not None:
                self._blocks[key] = params
        if params is not None:
            if tele is not None:
                tele.count("profile_cache.hits")
            return params
        self.misses += 1
        if tele is not None:
            tele.count("profile_cache.misses")
        samples, sizes = args
        bench_pc0 = time.perf_counter()
        report = benchmark_comm(machine, block, samples=samples, sizes=sizes)
        bench_s = time.perf_counter() - bench_pc0
        if tele is not None:
            tele.observe("profile_cache.benchmark_seconds", bench_s)
            tele.emit_span(
                "profile_cache.benchmark",
                time.time() - bench_s,
                bench_s,
                key=key,
                samples=int(samples),
            )
        # Serve the decode of the record being stored, as a disk hit
        # would: one decode path makes every hit bit-identical to this.
        record = _params_to_record(report.params)
        params = _params_from_record(record)
        self._blocks[key] = params
        if self._store is not None:
            self._store.put(key, record)
        return params


#: Process-wide singleton used by ``repro.barriers.evaluate`` and the
#: stencil predictor; campaigns attach persistence to it.
PROFILE_CACHE = ProfileCache()


def store_path_for(store_dir: str | os.PathLike) -> str:
    """Canonical persistence path alongside a campaign result store."""
    return os.path.join(os.fspath(store_dir), ".profile-cache", "profiles.jsonl")
