"""Memoized §5.6.3 communication profiles for campaign-scale sweeps.

``profile_placement`` — the comm benchmark behind ``evaluate_barrier``,
the stencil predictor, and the adaptation pipeline — is deterministic:
its output is a pure function of the machine (topology, ground-truth
parameters, noise model, seed), the placement, and the benchmark
arguments.  Campaigns nonetheless used to re-run it for *every* design
point, even though a barrier sweep shares one placement across all its
pattern axes.  This module provides the keyed cache that amortises the
benchmark:

* an **in-process memo** keyed by a content hash of everything the
  benchmark's output depends on (machine fingerprint + placement +
  benchmark arguments + a protocol version), always on;
* optional **JSONL persistence** alongside a campaign's result store
  (``<store_dir>/.profile-cache/profiles.jsonl``), so sequential
  campaigns, suite regenerations, and adaptive runs share profiles
  across processes.  Records round-trip through JSON on first compute,
  so a memory hit, a disk hit, and a fresh benchmark are bit-identical
  — executor equivalence (serial ≡ process ≡ chunked) is preserved.

``PROFILE_PROTOCOL`` must be bumped whenever the benchmark's draw order
or estimator changes; it is part of every key, so stale persisted
profiles from older code versions can never be served.

Worker processes of the ``process``/``chunked`` executors inherit the
configured cache through ``fork`` (and through the ``REPRO_PROFILE_CACHE``
environment variable under ``spawn``); each worker appends fresh profiles
to the same crash-safe :mod:`repro.util.jsonl` log as the result cache,
so concurrent writers cannot interleave records.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import time
from typing import Any

import numpy as np

from repro.barriers.cost_model import CommParameters
from repro.cluster.topology import Placement
from repro.machine.simmachine import SimMachine
from repro.obs import current as _telemetry
from repro.util import jsonl

#: Version token baked into every cache key.  Bump when the comm
#: benchmark's RNG draw order, estimators, or defaults change meaning.
PROFILE_PROTOCOL = "comm-bench/v2-batched-draws"

#: Environment variable carrying the persistence path into spawn-started
#: executor workers (fork workers inherit the configured singleton).
ENV_VAR = "REPRO_PROFILE_CACHE"


def _describe(value: Any) -> Any:
    """Recursively normalise machine internals to JSON-stable data."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _describe(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
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


def profile_key(
    machine: SimMachine,
    placement: Placement,
    samples: int,
    sizes,
    request_counts,
    stream: str,
    intercept_max_size: int,
) -> str:
    """Stable content hash for one (machine, placement, benchmark-args)."""
    payload = json.dumps(
        {
            "protocol": PROFILE_PROTOCOL,
            "machine": machine_fingerprint(machine),
            "placement": [int(c) for c in placement.cores],
            "samples": int(samples),
            "sizes": [int(s) for s in sizes],
            "request_counts": [int(c) for c in request_counts],
            "stream": stream,
            "intercept_max_size": int(intercept_max_size),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _params_to_record(params: CommParameters) -> dict:
    return {
        "overhead": params.overhead.tolist(),
        "latency": params.latency.tolist(),
        "inv_bandwidth": (
            None if params.inv_bandwidth is None
            else params.inv_bandwidth.tolist()
        ),
    }


def _params_from_record(record: dict) -> CommParameters:
    inv = record.get("inv_bandwidth")
    return CommParameters(
        overhead=np.array(record["overhead"], dtype=float),
        latency=np.array(record["latency"], dtype=float),
        inv_bandwidth=None if inv is None else np.array(inv, dtype=float),
    )


class ProfileCache:
    """In-process memo with optional shared JSONL persistence.

    Returned :class:`CommParameters` are shared objects — treat them as
    immutable (every consumer in the repository already does).
    """

    def __init__(self):
        self._memory: dict[str, CommParameters] = {}
        self._store = None  # lazily-built repro.explore.cache.ResultCache
        self._path: str | None = None
        self._env_checked = False
        self.hits = 0
        self.misses = 0
        # Per-run deltas since the last ``flush_run_stats`` — persisted as
        # one JSONL record per flushing process under the cache directory.
        self._run_hits = 0
        self._run_misses = 0
        self._run_benchmark_s = 0.0

    # ------------------------------------------------------- configuration

    def configure(
        self, path: str | os.PathLike | None, export_env: bool = False
    ) -> None:
        """Attach (or detach, with ``None``) the persistence file.

        Existing records are loaded eagerly; the in-process memo survives
        reconfiguration because keys are content-addressed.  Reconfiguring
        to the already-attached path is a no-op (campaigns rebind the
        singleton per evaluation batch).  With ``export_env`` the path is
        also published to :data:`ENV_VAR` so spawn-started executor
        workers pick the same file up; detaching (``path=None``) removes
        the variable again.
        """
        from repro.explore.cache import ResultCache

        self._env_checked = True
        if path is None:
            self.flush_run_stats()  # attribute pending deltas to the old store
            self._store = None
            self._path = None
            os.environ.pop(ENV_VAR, None)
            return
        if os.fspath(path) == self._path:
            if export_env:
                os.environ[ENV_VAR] = self._path
            return
        if self._path is not None:
            self.flush_run_stats()  # attribute pending deltas to the old store
        else:
            # Store-less deltas belong to no store; don't misattribute
            # them to the one being attached.
            self._run_hits = 0
            self._run_misses = 0
            self._run_benchmark_s = 0.0
        self._path = os.fspath(path)
        self._store = ResultCache(self._path)
        if export_env:
            os.environ[ENV_VAR] = self._path

    @property
    def path(self) -> str | None:
        return self._path

    def _ensure_configured(self) -> None:
        if self._env_checked:
            return
        self._env_checked = True
        env_path = os.environ.get(ENV_VAR)
        if env_path:
            self.configure(env_path)

    def clear_memory(self) -> None:
        self._memory.clear()
        self.hits = 0
        self.misses = 0
        self._run_hits = 0
        self._run_misses = 0
        self._run_benchmark_s = 0.0

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------- serving

    def get_or_benchmark(
        self,
        machine: SimMachine,
        placement: Placement,
        samples: int,
        sizes,
        request_counts=None,
        stream: str | None = None,
        intercept_max_size: int | None = None,
    ) -> CommParameters:
        """Serve one profile: memory, then disk, then a fresh benchmark.

        Unset arguments resolve to :mod:`repro.bench.comm_bench`'s own
        defaults, so a cached profile can never be benchmarked with
        different arguments than an uncached call would use.
        """
        from repro.bench.comm_bench import (
            DEFAULT_INTERCEPT_MAX_SIZE,
            DEFAULT_REQUEST_COUNTS,
            DEFAULT_STREAM,
            benchmark_comm,
        )

        self._ensure_configured()
        if request_counts is None:
            request_counts = DEFAULT_REQUEST_COUNTS
        if stream is None:
            stream = DEFAULT_STREAM
        if intercept_max_size is None:
            intercept_max_size = DEFAULT_INTERCEPT_MAX_SIZE
        key = profile_key(
            machine, placement, samples, sizes, request_counts, stream,
            intercept_max_size,
        )
        tele = _telemetry()
        params = self._memory.get(key)
        if params is not None:
            self.hits += 1
            self._run_hits += 1
            if tele is not None:
                tele.count("profile_cache.hits")
            if self._store is not None and self._store.get(key) is None:
                # Write a memory hit through to a newly-attached store, so
                # switching store directories mid-process still leaves each
                # one self-sufficient for later sessions.  (The in-memory
                # params ARE the round-tripped record, so this reproduces
                # the on-disk form exactly.)
                self._store.put(key, _params_to_record(params))
            return params
        if self._store is not None:
            record = self._store.get(key)
            if record is not None:
                params = _params_from_record(record)
                self._memory[key] = params
                self.hits += 1
                self._run_hits += 1
                if tele is not None:
                    tele.count("profile_cache.hits")
                return params
        self.misses += 1
        self._run_misses += 1
        if tele is not None:
            tele.count("profile_cache.misses")
        bench_pc0 = time.perf_counter()
        report = benchmark_comm(
            machine,
            placement,
            samples=samples,
            sizes=tuple(sizes),
            request_counts=tuple(request_counts),
            stream=stream,
            intercept_max_size=intercept_max_size,
        )
        bench_s = time.perf_counter() - bench_pc0
        self._run_benchmark_s += bench_s
        if tele is not None:
            tele.observe("profile_cache.benchmark_seconds", bench_s)
            tele.emit_span(
                "profile_cache.benchmark",
                time.time() - bench_s,
                bench_s,
                key=key,
                samples=int(samples),
            )
        # Round-trip through JSON so a fresh profile is bit-identical to
        # its later disk-served copy (floats survive repr round-trips
        # exactly; executor-equivalence tests rely on this).
        record = json.loads(json.dumps(_params_to_record(report.params)))
        params = _params_from_record(record)
        self._memory[key] = params
        if self._store is not None:
            self._store.put(key, record)
        return params

    # ----------------------------------------------------------- run stats

    def flush_run_stats(self) -> dict | None:
        """Persist the hit/miss/benchmark-time deltas accrued since the
        last flush as one JSONL record next to ``profiles.jsonl``.

        Appends through the same crash-safe log as the profiles themselves
        (:mod:`repro.util.jsonl`), so executor workers and the campaign
        parent can flush concurrently.  No-op (returns ``None``) when no
        persistence is attached or nothing happened since the last flush.
        """
        if self._path is None:
            return None
        if not (self._run_hits or self._run_misses or self._run_benchmark_s):
            return None
        record = {
            "pid": os.getpid(),
            "unix_time": time.time(),
            "hits": self._run_hits,
            "misses": self._run_misses,
            "benchmark_s": self._run_benchmark_s,
        }
        self._run_hits = 0
        self._run_misses = 0
        self._run_benchmark_s = 0.0
        path = os.path.join(os.path.dirname(self._path), "stats.jsonl")
        try:
            jsonl.append(path, [record], site="profile_cache.stats")
        except OSError:
            return None  # stats are best-effort; never fail the run
        return record


#: Process-wide singleton used by ``repro.barriers.evaluate`` and the
#: stencil predictor; campaigns attach persistence to it.
PROFILE_CACHE = ProfileCache()


def store_path_for(store_dir: str | os.PathLike) -> str:
    """Canonical persistence path alongside a campaign result store."""
    return os.path.join(os.fspath(store_dir), ".profile-cache", "profiles.jsonl")


def stats_path_for(store_dir: str | os.PathLike) -> str:
    """The per-run cache-stats JSONL next to a store's profile cache."""
    return os.path.join(os.fspath(store_dir), ".profile-cache", "stats.jsonl")


def read_run_stats(store_dir: str | os.PathLike) -> list[dict]:
    """Every persisted per-run stats record for a store, oldest first.

    Torn lines are quarantined and skipped (:func:`repro.util.jsonl.read`).
    """
    return jsonl.read(stats_path_for(store_dir))
