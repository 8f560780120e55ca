"""Campaign runner: design space × experiment → cached, ordered results.

A :class:`Campaign` materialises every point of a :class:`DesignSpace`,
evaluates the points not already present in its result cache through a
pluggable executor (in-process serial, or a pool of worker processes fed
contiguous chunks of points), and returns a :class:`ResultSet` in
deterministic expansion order together with run statistics.  Because
every record is keyed by content hash and persisted as it is produced,
campaigns are resumable: interrupting a run loses at most the in-flight
points, and re-running is a pure cache read.

Executor equivalence is a design invariant, not an accident: workers are
handed ``(experiment name, point dict)`` — plain picklable data — and the
runner reassembles records in point order, so the serial and parallel
executors produce bit-identical result sets.  Pool workers are forked:
they inherit the parent's experiments, profile cache, telemetry context
and fault plan, and no campaign state passes through the environment.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import os
import traceback
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.explore.cache import ResultCache, record_key
from repro.explore.experiments import run_point
from repro.explore.resilience import (
    RetryPolicy,
    append_quarantine,
    current_plan,
    pool_map,
    quarantine_path as _quarantine_path,
    serial_map_with_retry,
)
from repro.explore.results import ResultRecord, ResultSet
from repro.explore.space import DesignPoint, DesignSpace, jsonable
from repro.obs import current as _telemetry
from repro.obs import summarize_run, telemetry_dir_for
from repro.obs import wallclock as _wallclock
from repro.obs.summary import POINT_SPAN


def _jsonify_metrics(value: Any) -> dict:
    """Coerce experiment output to a plain JSON dict so fresh records are
    bit-identical to their cached round-trip."""
    if not isinstance(value, dict):
        raise TypeError(
            f"experiment must return a metrics dict, got {type(value).__name__}"
        )
    return json.loads(json.dumps(jsonable(value, "experiment metrics")))


def _evaluate_point(experiment: str, params: dict) -> tuple[bool, dict]:
    try:
        if current_plan() is not None:  # chaos harness; inert otherwise
            from repro.explore.resilience import maybe_inject

            maybe_inject("evaluate", experiment, record_key(experiment, params))
        return True, _jsonify_metrics(run_point(experiment, params))
    except Exception as exc:  # noqa: BLE001 — reported, never swallowed
        return False, {
            "error": f"{type(exc).__name__}: {exc}",
            "error_type": type(exc).__name__,
            "traceback": traceback.format_exc(),
        }


def _evaluate(task: tuple[str, dict]) -> tuple[bool, dict]:
    """Worker entry point: evaluate one (experiment, point) task.

    Returns ``(ok, metrics-or-error)`` rather than raising, so one failed
    point cannot poison a whole pool map.  Module-level by necessity: the
    parallel executor pickles it by reference.

    With telemetry on, each task records a ``campaign.point`` span keyed
    like the result cache and flushes its own event file — so pool
    workers stream their spans before the pool tears them down, and the
    parent merges afterwards.
    """
    experiment, params = task
    tele = _telemetry()
    if tele is None:
        return _evaluate_point(experiment, params)
    with tele.span(
        POINT_SPAN,
        experiment=experiment,
        key=record_key(experiment, params),
        point=params,
    ) as span:
        ok, metrics = _evaluate_point(experiment, params)
        span.set("ok", ok)
    tele.flush()
    return ok, metrics


def _evaluate_chunk(chunk: list[tuple[str, dict]]) -> list[tuple[bool, dict]]:
    """Worker entry point of the pool executor: one pool task per
    contiguous *chunk* of points rather than per point, amortising
    pickle/dispatch overhead over many cheap points."""
    return [_evaluate(task) for task in chunk]


def _pool_context():
    """The multiprocessing context of the pool executor: always ``fork``.
    Workers inherit everything the parent holds — experiments registered
    at runtime, the profile cache's store, the telemetry sink, the fault
    plan — so nothing is handed over through the environment."""
    return multiprocessing.get_context("fork")


def _task_keys(tasks: list[tuple[str, dict]]) -> list[str]:
    """Cache keys of the tasks — the retry drivers key jitter, fault
    ledgers, and quarantine records the same way the result store does."""
    return [record_key(experiment, params) for experiment, params in tasks]


@contextlib.contextmanager
def _observed_map(name: str, tasks: int, workers: int, **attrs: Any):
    """Telemetry around one executor map: the ``executor.workers`` gauge
    and the ``executor.map`` span.  Yields the pre-fork hook for the pool
    driver — ``tele.flush``, since forked workers reset their inherited
    buffers and anything unflushed would otherwise sit in the parent
    until the map returns — or ``None`` with telemetry off."""
    tele = _telemetry()
    if tele is None:
        yield None
        return
    tele.gauge("executor.workers", workers)
    with tele.span(
        "executor.map", executor=name, tasks=tasks, workers=workers, **attrs
    ):
        yield tele.flush


class SerialExecutor:
    """In-process, in-order evaluation.

    With a :class:`RetryPolicy`, failed points retry after deterministic
    backoff and quarantine on exhaustion.  ``point_timeout_s`` is *not*
    enforced here — a single process cannot preempt its own call; use a
    pool executor when hung points must be reclaimed.
    """

    name = "serial"

    def __init__(self, policy: RetryPolicy | None = None):
        self.policy = policy

    def map(self, tasks: list[tuple[str, dict]]) -> list[tuple[bool, dict]]:
        with _observed_map(self.name, len(tasks), 1):
            if self.policy is None or self.policy.is_noop:
                return [_evaluate(task) for task in tasks]
            return serial_map_with_retry(
                _evaluate, tasks, self.policy, keys=_task_keys(tasks)
            )


class PoolExecutor:
    """Order-preserving evaluation in a pool of worker processes.

    The task list is sliced into contiguous chunks — ``chunk_size``
    tasks each, or by default enough chunks to give every worker a few
    slices for load balancing — and each chunk is evaluated in one
    worker task, so sweeps of hundreds of sub-millisecond points do not
    pay a pickle/dispatch round trip per point.  ``chunk_size=1`` ships
    one point per task, right for few expensive points.  Outputs are
    flattened back into task order, bit-identical to the serial
    executor's.

    Every map runs in worker processes, whatever its size, under
    :func:`~repro.explore.resilience.pool_map`: per-point wall-clock
    deadlines, retries with deterministic backoff, quarantine on
    exhaustion, pool rebuilds after worker death, and — when ``degrade``
    is set — serial in-process fallback after repeated worker death.
    Without a policy each point gets one attempt and a failure comes
    back unquarantined.
    """

    #: Target chunks handed to each worker when no chunk size is forced;
    #: > 1 so one straggler chunk cannot serialise the tail of a sweep.
    SLICES_PER_WORKER = 4

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int | None = None,
        policy: RetryPolicy | None = None,
        degrade: bool = False,
    ):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.name = "process" if chunk_size == 1 else "chunked"
        self.workers = workers
        self.chunk_size = chunk_size
        self.policy = policy
        self.degrade = degrade

    def _chunks(self, tasks: list, workers: int) -> list[list]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(tasks) // (workers * self.SLICES_PER_WORKER)))
        return [tasks[i:i + size] for i in range(0, len(tasks), size)]

    def map(self, tasks: list[tuple[str, dict]]) -> list[tuple[bool, dict]]:
        if not tasks:
            return []
        workers = self.workers or min(len(tasks), os.cpu_count() or 1)
        chunks = self._chunks(tasks, workers)
        workers = min(workers, len(chunks))
        # Resolve a REPRO_FAULTS plan before the pool forks, so every
        # worker inherits the one plan and its shared firing ledger.
        current_plan()
        with _observed_map(
            self.name, len(tasks), workers, chunks=len(chunks)
        ) as pre_fork:
            return pool_map(
                _pool_context(),
                _evaluate_chunk,
                chunks,
                _task_keys(tasks),
                workers,
                self.policy or RetryPolicy(),
                degrade=self.degrade,
                pre_submit=pre_fork,
            )


#: Importable names of :class:`PoolExecutor` (bound to the class itself,
#: so ``module:qualname`` references such as ``ProcessPoolExecutor.map``
#: resolve to the one ``map``).
ProcessPoolExecutor = ChunkedProcessPoolExecutor = PoolExecutor

EXECUTORS = {
    "serial": SerialExecutor,
    "process": functools.partial(PoolExecutor, chunk_size=1),
    "chunked": PoolExecutor,
}


def make_executor(
    spec: str | None,
    workers: int | None = None,
    policy: RetryPolicy | None = None,
    degrade: bool = False,
):
    """Resolve an executor spec: an instance, a name, or None (serial).

    ``policy`` and ``degrade`` configure named executors; on a
    ready-made instance they are applied only when given, so an executor
    constructed with its own policy passes through untouched.
    """
    if spec is None:
        return SerialExecutor(policy=policy)
    if isinstance(spec, str):
        try:
            cls = EXECUTORS[spec]
        except KeyError:
            known = ", ".join(sorted(EXECUTORS))
            raise ValueError(
                f"unknown executor {spec!r} (known: {known})"
            ) from None
        if cls is SerialExecutor:
            return cls(policy=policy)
        return cls(workers, policy=policy, degrade=degrade)
    if policy is not None and hasattr(spec, "policy"):
        spec.policy = policy
    if degrade and hasattr(spec, "degrade"):
        spec.degrade = True
    return spec


@dataclass(frozen=True)
class CampaignStats:
    """How a campaign run was served.

    ``cached`` counts points *served from cache this run* (no work done);
    ``evaluated`` counts points *computed this run* (fresh executor work,
    failures included).  The two are disjoint and sum to ``total`` — the
    rates below keep that distinction instead of conflating "cache was
    useful" with "cache did everything".  ``quarantined`` is the subset
    of ``failed`` that exhausted a retry policy and was recorded to the
    quarantine sidecar.
    """

    total: int
    evaluated: int
    cached: int
    failed: int
    quarantined: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of this run's points served from cache."""
        return self.cached / self.total if self.total else 0.0


@dataclass(frozen=True)
class CampaignOutcome:
    """A completed run: ordered results plus serving statistics."""

    name: str
    results: ResultSet
    stats: CampaignStats


class Campaign:
    """A named (design space, experiment) pair bound to a result store."""

    def __init__(
        self,
        name: str,
        space: DesignSpace,
        experiment: str,
        store_dir: str | os.PathLike | None = None,
        executor: str | Any | None = None,
        workers: int | None = None,
        on_error: str = "raise",
        durable: bool = False,
        policy: RetryPolicy | None = None,
        degrade: bool = False,
    ):
        if on_error not in ("raise", "store"):
            raise ValueError("on_error must be 'raise' or 'store'")
        self.name = name
        self.space = space
        self.experiment = experiment
        self.store_dir = os.fspath(store_dir) if store_dir is not None else None
        self.executor = make_executor(executor, workers, policy, degrade)
        self.on_error = on_error
        self._cache: ResultCache | None = None
        self._last_failures: list[dict] = []
        if self.store_dir is not None:
            self._cache = ResultCache(
                self.results_path(self.store_dir, name), durable=durable
            )

    @staticmethod
    def results_path(store_dir: str | os.PathLike, name: str) -> str:
        return os.path.join(os.fspath(store_dir), f"{name}.jsonl")

    @staticmethod
    def quarantine_path(store_dir: str | os.PathLike, name: str) -> str:
        """The quarantine sidecar: structured records of points that
        exhausted their retry budget, next to ``<name>.jsonl``."""
        return _quarantine_path(Campaign.results_path(store_dir, name))

    @property
    def cache(self) -> ResultCache | None:
        return self._cache

    # ------------------------------------------------------------------ run

    def serve(
        self, points: Sequence[DesignPoint]
    ) -> tuple[list[ResultRecord], CampaignStats]:
        """Serve an explicit point list: cache reads for known points, one
        executor ``map`` for the rest, records back in point order.

        This is the evaluation core both entry points share —
        :meth:`run` serves the space's full expansion, the adaptive driver
        (:mod:`repro.explore.adaptive`) serves each batch of sampler
        proposals — so adaptive and exhaustive campaigns populate and
        re-use the *same* JSONL store entries.

        With telemetry on, the batch records a ``campaign.serve`` span,
        binds the context's sink next to this campaign's store (mirroring
        the profile-cache binding below), and counts served-from-cache vs
        computed vs failed points.  None of it touches evaluation —
        results are bit-identical either way.
        """
        tele = _telemetry()
        if tele is None:
            return self._serve(points)
        if self.store_dir is not None:
            tele.attach_sink(telemetry_dir_for(self.store_dir))
        try:
            with tele.span(
                "campaign.serve",
                campaign=self.name,
                experiment=self.experiment,
            ) as span:
                records, stats = self._serve(points)
                span.set("total", stats.total)
                span.set("cached", stats.cached)
                span.set("computed", stats.evaluated)
                span.set("failed", stats.failed)
                span.set("quarantined", stats.quarantined)
        except BaseException:
            tele.flush()  # keep the error-stamped span on disk
            raise
        if stats.cached:
            tele.count("campaign.points.served_from_cache", stats.cached)
        if stats.evaluated:
            tele.count("campaign.points.computed", stats.evaluated)
        if stats.failed:
            tele.count("campaign.points.failed", stats.failed)
        if stats.quarantined:
            tele.count("campaign.points.quarantined", stats.quarantined)
        tele.flush()
        return records, stats

    def _serve(
        self, points: Sequence[DesignPoint]
    ) -> tuple[list[ResultRecord], CampaignStats]:
        # Persist memoized comm profiles alongside the result store so
        # every campaign (and its forked executor workers) sharing this
        # store also shares benchmark profiles.  Rebinding per batch keeps
        # the singleton pointed at the *active* campaign's store when
        # several stores are used in one process, and a store-less
        # campaign detaches it so profiles never land in a stale
        # (possibly deleted) directory.
        # Values are bit-identical with and without the cache, so executor
        # equivalence is unaffected.
        from repro.bench.profile_cache import PROFILE_CACHE, store_path_for

        PROFILE_CACHE.configure(
            None if self.store_dir is None else store_path_for(self.store_dir)
        )
        points = list(points)
        keys = [record_key(self.experiment, p) for p in points]

        pending: list[tuple[int, DesignPoint]] = []
        cached = 0
        for idx, key in enumerate(keys):
            if self._cache is not None and key in self._cache:
                cached += 1
            else:
                pending.append((idx, points[idx]))

        tele = _telemetry()
        if tele is not None:
            tele.gauge("executor.queued", len(pending))

        outputs = self.executor.map(
            [(self.experiment, p.as_dict()) for _, p in pending]
        )

        fresh: dict[int, dict] = {}
        failed = 0
        quarantined = 0
        self._last_failures = []
        # strict: a custom executor returning a short/long mapping is a
        # bug that must surface, not silently drop points.
        for (idx, point), (ok, metrics) in zip(pending, outputs, strict=True):
            if not ok:
                failed += 1
                if metrics.get("quarantined"):
                    quarantined += 1
                    self._persist_quarantine(keys[idx], point, metrics)
                self._last_failures.append({
                    "key": keys[idx],
                    "error": metrics.get("error", "unknown error"),
                    "error_type": metrics.get("error_type"),
                    "attempts": metrics.get("attempts", 1),
                    "reason": metrics.get("reason", "exception"),
                    "quarantined": bool(metrics.get("quarantined")),
                })
                if self.on_error == "raise":
                    # Chain the worker-side failure so the original error
                    # and its remote traceback survive the pool boundary.
                    raise CampaignPointError(
                        self.name, self.experiment, point, metrics
                    ) from PointFailure(metrics)
            fresh[idx] = metrics
            # Failures are never cached, so a fixed experiment re-runs them.
            if ok and self._cache is not None:
                # Self-describing store entries: point and experiment ride
                # along so `repro.explore ls/show` can render a store
                # without the spec that produced it.
                self._cache.put(keys[idx], {
                    "experiment": self.experiment,
                    "point": point.as_dict(),
                    "metrics": metrics,
                })

        records = []
        for idx, (point, key) in enumerate(zip(points, keys)):
            if idx in fresh:
                metrics = fresh[idx]
            else:
                entry = self._cache.get(key)  # type: ignore[union-attr]
                metrics = entry.get("metrics", entry)
            records.append(ResultRecord(
                key=key,
                experiment=self.experiment,
                point=point.as_dict(),
                metrics=metrics,
            ))
        stats = CampaignStats(
            total=len(points),
            evaluated=len(pending),
            cached=cached,
            failed=failed,
            quarantined=quarantined,
        )
        return records, stats

    def _persist_quarantine(
        self, key: str, point: DesignPoint, metrics: Mapping[str, Any]
    ) -> None:
        """Write one structured quarantine record to the sidecar (when a
        store is attached) so exhausted points survive the process."""
        if self.store_dir is None:
            return
        record = {
            "key": key,
            "campaign": self.name,
            "experiment": self.experiment,
            "point": point.as_dict(),
            "error": metrics.get("error"),
            "error_type": metrics.get("error_type"),
            "traceback": metrics.get("traceback"),
            "attempts": metrics.get("attempts"),
            "elapsed_s": metrics.get("elapsed_s"),
            "reason": metrics.get("reason"),
            "time": round(_wallclock(), 3),
        }
        append_quarantine(
            self.quarantine_path(self.store_dir, self.name), record
        )

    def run(self) -> CampaignOutcome:
        """Evaluate all uncached points and return the full result set.

        With telemetry on and a store attached, a
        :class:`repro.obs.TelemetrySummary` is persisted under the
        store's ``.telemetry`` directory — embedding the prior run's
        digest so re-runs can report what changed.
        """
        tele = _telemetry()
        started = _wallclock()
        records, stats = self.serve(self.space.expand())
        outcome = CampaignOutcome(
            name=self.name,
            results=ResultSet(tuple(records)),
            stats=stats,
        )
        if tele is not None and self.store_dir is not None:
            tele.flush()
            summarize_run(
                self.store_dir,
                campaign=self.name,
                experiment=self.experiment,
                stats={
                    "total": stats.total,
                    "evaluated": stats.evaluated,
                    "cached": stats.cached,
                    "failed": stats.failed,
                    "quarantined": stats.quarantined,
                },
                wall_seconds=_wallclock() - started,
                keys=[record.key for record in records],
                started=started,
                failures=self._last_failures,
            )
        return outcome


class PointFailure(RuntimeError):
    """The worker-side failure of one point, reconstructed in the parent.

    Experiment exceptions die with their worker process; this carries
    their identity and formatted remote traceback across the pool
    boundary so :class:`CampaignPointError` can chain from the original
    cause (``raise ... from``) instead of dropping it.
    """

    def __init__(self, details: Mapping[str, Any]):
        self.error = details.get("error", "unknown error")
        self.error_type = details.get("error_type")
        self.remote_traceback = details.get("traceback")
        message = self.error
        if self.remote_traceback:
            message = f"{self.error}\n\nworker traceback:\n" \
                      f"{self.remote_traceback}"
        super().__init__(message)


class CampaignPointError(RuntimeError):
    """One design point failed and the campaign is set to fail fast."""

    def __init__(
        self,
        campaign: str,
        experiment: str,
        point: Mapping[str, Any],
        details: Mapping[str, Any],
    ):
        self.point = dict(point)
        self.details = dict(details)
        message = details.get("error", "unknown error")
        super().__init__(
            f"campaign {campaign!r}: experiment {experiment!r} failed on "
            f"point {dict(point)!r}: {message}"
        )


def run_campaign(
    name: str,
    space: DesignSpace | Mapping[str, Any],
    experiment: str,
    store_dir: str | os.PathLike | None = None,
    executor: str | Any | None = None,
    workers: int | None = None,
    on_error: str = "raise",
    durable: bool = False,
    policy: RetryPolicy | None = None,
    degrade: bool = False,
) -> CampaignOutcome:
    """One-call convenience wrapper: accepts a spec dict or a DesignSpace."""
    if not isinstance(space, DesignSpace):
        space = DesignSpace.from_dict(space)
    return Campaign(
        name,
        space,
        experiment,
        store_dir=store_dir,
        executor=executor,
        workers=workers,
        on_error=on_error,
        durable=durable,
        policy=policy,
        degrade=degrade,
    ).run()
