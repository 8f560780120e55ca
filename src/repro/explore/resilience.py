"""Resilient campaign execution: retries, timeouts, quarantine, chaos.

Campaigns promise resumability — interrupting a run loses at most the
in-flight points — but until this module the *execution* layer had no
answer to a misbehaving point: one stuck evaluation wedged a whole pool
``map``, and one dying worker killed the campaign.  This module adds the
robustness substrate:

* :class:`RetryPolicy` — per-point retry/timeout/backoff policy threaded
  through every executor and :meth:`Campaign.serve`.  Backoff jitter is
  *seeded-deterministic*: the delay for (point, attempt) is a pure
  function of ``jitter_seed``, so two runs of the same campaign schedule
  identical waits.
* **Poison-point quarantine** — a point that exhausts its attempts is
  recorded as a structured failure (error, traceback, attempts, elapsed)
  and the campaign finishes; :meth:`Campaign.serve` persists the record
  to a ``<store>.quarantine.jsonl`` sidecar next to the result store.
* **Graceful degradation** — :func:`pool_map`, the one pool driver,
  ships contiguous chunks of points to worker processes.  It detects
  worker death (``BrokenProcessPool``) and blown point deadlines, splits
  the in-flight chunks into single points, rebuilds the pool, and — when
  ``degrade`` is enabled — falls back to in-process serial evaluation
  once rebuilt pools stop making progress, instead of aborting.
* :class:`FaultPlan` — a deterministic fault-injection harness.  Faults
  (exceptions, hangs, worker kills, torn log appends) are described as
  data, activated by :func:`activate` or by a user-set :data:`ENV_VAR`
  (read once per process, never written, like ``REPRO_TELEMETRY``), and
  fire a *bounded, seeded* number of times per targeted point via an
  on-disk firing ledger that forked pool workers inherit.  Because
  experiments are pure functions of their point, a campaign under
  transient injected faults converges to a ResultSet bit-identical to
  the fault-free run — which is what the chaos tests assert.

Determinism contract: retries never re-draw randomness — an experiment
evaluation is a pure function of its point, so attempt N returns exactly
what attempt 1 would have.  The resilience layer therefore changes *when*
a value is computed, never *what* is computed.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import hashlib
import heapq
import json
import multiprocessing
import os
import shutil
import tempfile
import time
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from fnmatch import fnmatchcase
from typing import Any

from repro.obs import current as _telemetry
from repro.util import jsonl

#: Environment variable a user sets to a JSON fault plan to run a
#: campaign under chaos without code changes, mirroring ``REPRO_TELEMETRY``.
ENV_VAR = "REPRO_FAULTS"

#: Exit status used by injected worker kills, distinguishable from
#: ordinary interpreter deaths in pool diagnostics.
KILL_EXIT_CODE = 23

#: Histogram bucket edges for recorded backoff delays [seconds].
BACKOFF_EDGES = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class FaultInjected(RuntimeError):
    """An injected fault fired (exception kind, expired hang, or a kill
    downgraded to an exception outside a disposable worker process)."""


class PoolBrokenError(RuntimeError):
    """The worker pool died repeatedly and degradation is disabled."""

    def __init__(self, remaining: int, message: str):
        self.remaining = remaining
        super().__init__(message)


def _unit_interval(*parts: Any) -> float:
    """Deterministic hash of ``parts`` onto [0, 1) — the seeded source
    for jitter and fault targeting (never the experiment's own RNG)."""
    payload = ":".join(str(p) for p in parts).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


# --------------------------------------------------------------- retry policy

@dataclass(frozen=True)
class RetryPolicy:
    """Per-point retry/timeout/backoff policy.

    ``max_attempts`` counts evaluations, so ``1`` (the default) means no
    retries; ``point_timeout_s`` is enforced as a wall-clock deadline by
    the pool executor (the serial executor cannot preempt an in-process
    call and documents that timeouts there are advisory); the delay
    before attempt ``n+1`` is ``backoff_base_s * 2**(n-1)`` scaled by a
    seeded-deterministic jitter factor in [0.5, 1.5), capped at
    ``backoff_max_s``.
    """

    max_attempts: int = 1
    point_timeout_s: float | None = None
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    jitter_seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise ValueError("point_timeout_s must be positive")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_max_s < 0:
            raise ValueError("backoff_max_s must be >= 0")

    @property
    def is_noop(self) -> bool:
        """True when the policy asks for no retry and no deadline: each
        point gets one attempt and a failure is not quarantined."""
        return self.max_attempts == 1 and self.point_timeout_s is None

    def backoff_s(self, key: str, attempt: int) -> float:
        """Deterministic delay before retrying ``key`` after ``attempt``
        failed attempts — exponential in ``attempt``, jittered by a pure
        hash of (seed, key, attempt) so schedules are reproducible."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        base = self.backoff_base_s * (2.0 ** (attempt - 1))
        jitter = 0.5 + _unit_interval(self.jitter_seed, key, attempt)
        return min(base * jitter, self.backoff_max_s)


# ------------------------------------------------------------ fault injection

#: Recognised fault kinds.
FAULT_KINDS = ("exception", "hang", "kill", "torn-append")

#: Recognised injection sites: point evaluation, then one append site
#: per persistent log (result store, quarantine sidecar, telemetry event
#: stream).
FAULT_SITES = ("evaluate", "cache.put", "quarantine.append",
               "telemetry.flush")


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault, described as data.

    ``rate`` selects targeted points by a seeded hash of the point key —
    the same points are targeted in every run of the plan; ``times``
    bounds how often the fault fires per targeted point (``<= 0`` means
    unlimited), counted in the plan's shared on-disk ledger so retries
    and pool rebuilds observe a consistent firing history.  Kinds:

    * ``exception``   — raise :class:`FaultInjected`;
    * ``hang``        — sleep ``hang_s`` then raise :class:`FaultInjected`
      (a pool deadline shorter than ``hang_s`` kills the worker first —
      the hang-past-timeout scenario);
    * ``kill``        — ``os._exit`` inside a disposable pool worker; in
      a non-worker process (serial executor, degraded fallback) it
      downgrades to :class:`FaultInjected` so the campaign process
      survives;
    * ``torn-append`` — truncate one log append mid-line, simulating a
      crash between partial write and completion.  Its site names the
      log: ``cache.put`` (result store, keyed by point),
      ``quarantine.append`` (keyed by point) and ``telemetry.flush``
      (keyed by the log's file name).
    """

    kind: str
    site: str = "evaluate"
    experiment: str = "*"
    rate: float = 1.0
    times: int = 1
    hang_s: float = 0.25

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(known: {known})")
        if self.site not in FAULT_SITES:
            known = ", ".join(FAULT_SITES)
            raise ValueError(f"unknown fault site {self.site!r} "
                             f"(known: {known})")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.hang_s < 0:
            raise ValueError("hang_s must be >= 0")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "site": self.site,
            "experiment": self.experiment, "rate": self.rate,
            "times": self.times, "hang_s": self.hang_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        return cls(
            kind=data["kind"],
            site=data.get("site", "evaluate"),
            experiment=data.get("experiment", "*"),
            rate=float(data.get("rate", 1.0)),
            times=int(data.get("times", 1)),
            hang_s=float(data.get("hang_s", 0.25)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultSpec` plus the shared firing ledger.

    ``state_dir`` holds one append-only file per (fault, point) pair;
    its size is the firing count.  :func:`activate` fills it in (a fresh
    temporary directory) when absent; forked workers inherit the
    activated plan, so they share one ledger — firing budgets are global
    to the campaign, not per process.
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0
    state_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "faults",
            tuple(
                f if isinstance(f, FaultSpec) else FaultSpec.from_dict(f)
                for f in self.faults
            ),
        )

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "state_dir": self.state_dir,
            "faults": [f.to_dict() for f in self.faults],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{ENV_VAR} does not hold a valid JSON fault plan: {exc}"
            ) from None
        if not isinstance(data, dict):
            raise ValueError(f"{ENV_VAR} must hold a JSON object")
        return cls(
            faults=tuple(
                FaultSpec.from_dict(f) for f in data.get("faults", ())
            ),
            seed=int(data.get("seed", 0)),
            state_dir=data.get("state_dir"),
        )

    # ---------------------------------------------------------- targeting

    def _targets(self, index: int, spec: FaultSpec, key: str,
                 experiment: str) -> bool:
        if not fnmatchcase(experiment, spec.experiment):
            return False
        if spec.rate >= 1.0:
            return True
        return _unit_interval(self.seed, index, key) < spec.rate

    def _ledger_path(self, index: int, key: str) -> str:
        return os.path.join(self.state_dir, f"f{index}-{key}")

    def _fired(self, index: int, key: str) -> int:
        try:
            return os.path.getsize(self._ledger_path(index, key))
        except OSError:
            return 0

    def _record_firing(self, index: int, key: str) -> None:
        jsonl.write(self._ledger_path(index, key), b"x")

    def _next_fault(self, site: str, experiment: str, key: str,
                    kind: str | None = None) -> tuple[int, FaultSpec] | None:
        for index, spec in enumerate(self.faults):
            if spec.site != site or kind not in (None, spec.kind):
                continue
            if not self._targets(index, spec, key, experiment):
                continue
            if spec.times > 0 and self._fired(index, key) >= spec.times:
                continue
            return index, spec
        return None

    # ------------------------------------------------------------- firing

    def inject(self, site: str, experiment: str, key: str) -> None:
        """Fire the first matching unexhausted fault for this site/point.

        The firing is recorded in the ledger *before* the fault acts, so
        a kill or a timed-out hang still consumes its budget — which is
        what lets a retried point eventually succeed deterministically.
        """
        found = self._next_fault(site, experiment, key)
        if found is None:
            return
        index, spec = found
        self._record_firing(index, key)
        if spec.kind == "exception":
            raise FaultInjected(
                f"injected exception (fault {index}, point {key})"
            )
        if spec.kind == "hang":
            time.sleep(spec.hang_s)
            raise FaultInjected(
                f"injected hang expired after {spec.hang_s}s "
                f"(fault {index}, point {key})"
            )
        if spec.kind == "kill":
            if multiprocessing.parent_process() is not None:
                os._exit(KILL_EXIT_CODE)
            raise FaultInjected(
                f"injected kill downgraded to exception outside a pool "
                f"worker (fault {index}, point {key})"
            )

    def tear(self, site: str, experiment: str, key: str,
             payload: bytes) -> bytes | None:
        """Return a truncated payload when a torn-append fault fires for
        this write, else ``None`` (write normally)."""
        found = self._next_fault(site, experiment, key, kind="torn-append")
        if found is None:
            return None
        self._record_firing(found[0], key)
        return payload[: max(1, len(payload) // 2)]


# Module activation state, mirroring repro.obs.telemetry: one optional
# process-wide plan, lazily picked up from a user-set ENV_VAR.  Forked
# executor workers inherit it, and with it the parent's ledger.
class _State:
    plan: FaultPlan | None = None
    env_checked = False
    # The ledger directory activate() made, and the pid that made it:
    # only that process removes it, so forked workers never delete the
    # ledger they share.
    owned_dir: str | None = None
    owner_pid: int | None = None


_STATE = _State()


def _release_owned_dir() -> None:
    if _STATE.owned_dir is not None and _STATE.owner_pid == os.getpid():
        shutil.rmtree(_STATE.owned_dir, ignore_errors=True)
    _STATE.owned_dir = _STATE.owner_pid = None


atexit.register(_release_owned_dir)


def activate(plan: FaultPlan) -> FaultPlan:
    """Activate a fault plan process-wide; returns the completed plan.

    Creates the firing-ledger directory when the plan has none; that
    directory is removed by :func:`deactivate`, by the next activation
    of another plan, or at exit, whichever comes first.
    """
    if plan.state_dir != _STATE.owned_dir:
        _release_owned_dir()
    if plan.state_dir is None:
        plan = replace(
            plan, state_dir=tempfile.mkdtemp(prefix="repro-faults-")
        )
        _STATE.owned_dir, _STATE.owner_pid = plan.state_dir, os.getpid()
    else:
        os.makedirs(plan.state_dir, exist_ok=True)
    _STATE.plan = plan
    _STATE.env_checked = True
    return plan


def deactivate() -> None:
    """Drop the active plan (idempotent), removing the ledger directory
    :func:`activate` created for it; a caller's ``state_dir`` stays."""
    _release_owned_dir()
    _STATE.plan = None
    _STATE.env_checked = True


def current_plan() -> FaultPlan | None:
    """The active fault plan, or ``None`` — one attribute read when no
    chaos is configured.  The first call honours :data:`ENV_VAR`; an
    env-built plan without a ledger directory gets a fresh one, which
    workers forked after this call share."""
    plan = _STATE.plan
    if plan is None and not _STATE.env_checked:
        _STATE.env_checked = True
        value = os.environ.get(ENV_VAR)
        if value:
            return activate(FaultPlan.from_json(value))
    return plan


def maybe_inject(site: str, experiment: str, key: str) -> None:
    """Fire any active matching fault — the hook instrumented call sites
    use; a no-op (one read, one ``if``) when no plan is active."""
    plan = current_plan()
    if plan is not None:
        plan.inject(site, experiment, key)


def maybe_tear(site: str, experiment: str, key: str,
               payload: bytes) -> bytes | None:
    """Torn-append hook for :func:`repro.util.jsonl.append`; ``None``
    when inactive."""
    plan = current_plan()
    if plan is None:
        return None
    return plan.tear(site, experiment, key, payload)


# ----------------------------------------------------------- failure records

def _exhausted(metrics: Mapping[str, Any], policy: RetryPolicy,
               attempts: int, elapsed_s: float,
               reason: str) -> tuple[bool, dict]:
    """The final outcome of a point out of attempts.  Under a real policy
    it is quarantined: the worker's error fields plus how execution spent
    the point's budget.  Under a no-op policy it is the worker's report
    as-is."""
    out = dict(metrics)
    if not policy.is_noop:
        out["attempts"] = attempts
        out["elapsed_s"] = round(float(elapsed_s), 6)
        out["reason"] = reason
        out["quarantined"] = True
    return False, out


def timeout_details(timeout_s: float) -> dict:
    """The synthesized error payload for a blown point deadline (the
    worker was killed; there is no traceback to collect)."""
    return {
        "error": f"TimeoutError: point exceeded {timeout_s}s wall-clock "
                 f"deadline",
        "error_type": "TimeoutError",
        "traceback": None,
    }


def quarantine_path(store_path: str | os.PathLike) -> str:
    """The quarantine sidecar next to a campaign's ``<name>.jsonl``."""
    path = os.fspath(store_path)
    if path.endswith(".jsonl"):
        path = path[: -len(".jsonl")]
    return f"{path}.quarantine.jsonl"


def append_quarantine(path: str | os.PathLike, record: Mapping[str, Any]
                      ) -> None:
    """Append one quarantine record to the sidecar log
    (:func:`repro.util.jsonl.append`: crash-safe, concurrency-safe)."""
    jsonl.append(
        path, [dict(record)], site="quarantine.append",
        experiment=str(record.get("experiment", "")), key=record.get("key"),
    )


def read_quarantine(path: str | os.PathLike) -> list[dict]:
    """Every readable quarantine record at ``path`` (append order)."""
    return jsonl.read(path)


# ------------------------------------------------------------ pool driver

#: Floor on consecutive worker-death rebuilds tolerated before the
#: driver gives up on the pool.  :func:`_barren_limit` scales this with
#: the remaining workload: a worker death consumes no attempt by design,
#: so a *converging* fault plan — every point's firing budget below
#: ``max_attempts``, the documented contract — can legitimately kill the
#: pool up to ``incomplete * (max_attempts - 1)`` times in a row before
#: any task completes.  Only past that bound is the pool provably broken
#: rather than unlucky.
MAX_BARREN_REBUILDS = 1


def _barren_limit(incomplete: int, policy: "RetryPolicy") -> int:
    """Consecutive no-progress pool deaths tolerated before degrading."""
    return max(MAX_BARREN_REBUILDS, incomplete * max(policy.max_attempts - 1, 0))

#: Floor for pool wait timeouts so the dispatch loop never busy-spins.
_MIN_WAIT_S = 0.005


class _Unit:
    """A contiguous slice of tasks, starting at task ``index``, on its way
    through :func:`pool_map`.  Only single-task units are charged
    attempts; a multi-task unit is never retried whole."""

    __slots__ = ("index", "tasks", "attempt", "eligible_at", "elapsed_s")

    def __init__(self, index: int, tasks: list):
        self.index = index
        self.tasks = tasks
        self.attempt = 1
        self.eligible_at = 0.0
        self.elapsed_s = 0.0

    def __lt__(self, other: "_Unit") -> bool:
        return (self.eligible_at, self.index) < (
            other.eligible_at, other.index
        )


def _observe_backoff(delay: float) -> None:
    tele = _telemetry()
    if tele is not None:
        tele.count("resilience.retries")
        tele.observe("resilience.backoff_s", delay, edges=BACKOFF_EDGES)


def _count(name: str, value: float = 1.0) -> None:
    tele = _telemetry()
    if tele is not None:
        tele.count(name, value)


def serial_map_with_retry(
    eval_fn: Callable[[Any], tuple[bool, dict]],
    tasks: Sequence[Any],
    policy: RetryPolicy,
    keys: Sequence[str] | None = None,
    start_attempts: Sequence[int] | None = None,
) -> list[tuple[bool, dict]]:
    """In-process evaluation with the policy's retry/backoff schedule.

    No preemptive timeout: a single process cannot interrupt its own
    call, so ``point_timeout_s`` is not enforced here (the pool driver
    enforces it).  ``start_attempts`` lets the degraded fallback resume
    attempt counting where the pool left off.
    """
    keys = list(keys) if keys is not None else [repr(t) for t in tasks]
    out: list[tuple[bool, dict]] = []
    for position, task in enumerate(tasks):
        attempt = (
            start_attempts[position] if start_attempts is not None else 1
        )
        started = time.monotonic()
        while True:
            ok, metrics = eval_fn(task)
            if ok:
                out.append((True, metrics))
                break
            if attempt >= policy.max_attempts:
                out.append(_exhausted(
                    metrics, policy, attempt, time.monotonic() - started,
                    "exception",
                ))
                break
            delay = policy.backoff_s(keys[position], attempt)
            _observe_backoff(delay)
            if delay > 0:
                time.sleep(delay)
            attempt += 1
    return out


def _kill_pool(executor) -> None:
    """Tear a process pool down hard: a hung worker cannot be reclaimed
    any other way."""
    processes = list(getattr(executor, "_processes", {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        try:
            proc.kill()
        except (OSError, ValueError):
            pass
    for proc in processes:
        try:
            proc.join(timeout=2.0)
        except (OSError, ValueError, AssertionError):
            pass


def pool_map(
    context,
    chunk_fn: Callable[[list], list[tuple[bool, dict]]],
    chunks: Sequence[list],
    keys: Sequence[str],
    workers: int,
    policy: RetryPolicy,
    degrade: bool = False,
    pre_submit: Callable[[], None] | None = None,
) -> list[tuple[bool, dict]]:
    """Order-preserving pool map over contiguous chunks of tasks, with
    per-point deadlines, retries, and worker-death recovery.

    ``chunks`` slice the flat task list in order; ``keys`` holds one
    cache key per task.  Each chunk is a *unit* shipped whole to
    ``chunk_fn`` in a worker, which evaluates it once per point.  Units
    are dispatched through a ``concurrent.futures`` process pool in a
    sliding window of at most ``workers`` in flight, so a submitted unit
    is actually *running* and its deadline (``point_timeout_s`` per
    task) is meaningful.  Failure paths:

    * a point returning ``ok=False`` consumes one attempt and is retried
      alone, as a single-task unit, after its deterministic backoff
      (quarantined once attempts are exhausted — unless the policy is a
      no-op, which returns the failure as reported);
    * a blown deadline kills the whole pool (a hung worker cannot be
      interrupted any other way) and rebuilds it.  A timed-out
      single-task unit consumes one attempt; every other in-flight unit
      is requeued uncharged;
    * worker death (``BrokenProcessPool``) requeues every in-flight unit
      uncharged and rebuilds.  Consecutive deaths with no completed unit
      in between are bounded by :func:`_barren_limit`; past it, with
      ``degrade`` the remaining points run serially in this process,
      otherwise :class:`PoolBrokenError` is raised.

    On a death or a blown deadline every in-flight multi-task unit is
    split into single-task units — the failure cannot be attributed
    within it — so with one task per chunk this is a plain per-point
    driver.  ``pre_submit`` runs before each pool (re)build; the
    campaign layer uses it to flush telemetry ahead of the fork.
    """
    results: list[tuple[bool, dict] | None] = [None] * len(keys)
    queue: list[_Unit] = []  # in task order, hence already a heap
    start = 0
    for chunk in chunks:
        queue.append(_Unit(start, chunk))
        start += len(chunk)

    def make_pool():
        if pre_submit is not None:
            pre_submit()
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        )

    def requeue(unit: _Unit) -> None:
        """Back in line, uncharged; a multi-task unit as single tasks."""
        if len(unit.tasks) == 1:
            unit.eligible_at = 0.0
            heapq.heappush(queue, unit)
            return
        for offset, task in enumerate(unit.tasks):
            heapq.heappush(queue, _Unit(unit.index + offset, [task]))

    def settle(unit: _Unit, metrics: Mapping[str, Any],
               reason: str) -> None:
        """One failed attempt of a single-task unit: retry or give up."""
        if unit.attempt >= policy.max_attempts:
            results[unit.index] = _exhausted(
                metrics, policy, unit.attempt, unit.elapsed_s, reason
            )
            return
        delay = policy.backoff_s(keys[unit.index], unit.attempt)
        _observe_backoff(delay)
        unit.attempt += 1
        unit.eligible_at = time.monotonic() + delay
        heapq.heappush(queue, unit)

    def abort_inflight(now: float) -> None:
        for unit, _, started_at in inflight.values():
            unit.elapsed_s += now - started_at
            requeue(unit)
        inflight.clear()

    executor = make_pool()
    inflight: dict = {}  # future -> (unit, deadline | None, started_at)
    barren_rebuilds = 0
    try:
        while queue or inflight:
            now = time.monotonic()
            while (queue and len(inflight) < workers
                   and queue[0].eligible_at <= now):
                unit = heapq.heappop(queue)
                future = executor.submit(chunk_fn, unit.tasks)
                deadline = None
                if policy.point_timeout_s is not None:
                    deadline = now + policy.point_timeout_s * len(unit.tasks)
                inflight[future] = (unit, deadline, now)
            if not inflight:
                # Everything pending is backing off; sleep to eligibility.
                time.sleep(max(queue[0].eligible_at - now, _MIN_WAIT_S))
                continue

            deadlines = [d for _, d, _ in inflight.values()
                         if d is not None]
            wait_s = None
            if deadlines:
                wait_s = max(min(deadlines) - now, _MIN_WAIT_S)
            if queue:  # wake up for the next backoff expiry too
                until = max(queue[0].eligible_at - now, _MIN_WAIT_S)
                wait_s = until if wait_s is None else min(wait_s, until)
            done, _ = concurrent.futures.wait(
                set(inflight), timeout=wait_s,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )

            crashed = False
            for future in done:
                unit, _, started_at = inflight.pop(future)
                unit.elapsed_s += time.monotonic() - started_at
                try:
                    outputs = future.result()
                except BrokenProcessPool:
                    # Worker death: no attempt consumed — the fault (or
                    # crash) cannot be attributed to this unit.
                    crashed = True
                    requeue(unit)
                    continue
                except Exception as exc:  # noqa: BLE001 — dispatch-side
                    if len(unit.tasks) > 1:
                        requeue(unit)
                        continue
                    outputs = [(False, {
                        "error": f"{type(exc).__name__}: {exc}",
                        "error_type": type(exc).__name__,
                        "traceback": None,
                    })]
                barren_rebuilds = 0  # the pool made progress
                for offset, (ok, metrics) in enumerate(outputs):
                    if ok:
                        results[unit.index + offset] = (True, metrics)
                    else:  # retried alone, as a single-task unit
                        settle(unit if len(unit.tasks) == 1 else _Unit(
                            unit.index + offset, [unit.tasks[offset]]
                        ), metrics, "exception")

            if crashed:
                abort_inflight(time.monotonic())
                _kill_pool(executor)
                barren_rebuilds += 1
                incomplete = sum(1 for r in results if r is None)
                if barren_rebuilds > _barren_limit(incomplete, policy):
                    _count("resilience.degraded")
                    break
                _count("resilience.pool_rebuilds")
                executor = make_pool()
                continue

            # Deadline sweep: anything past its deadline is hung; the
            # only way to reclaim the worker is to kill the pool.
            now = time.monotonic()
            expired = [
                future for future, (_, deadline, _) in inflight.items()
                if deadline is not None and now >= deadline
            ]
            if expired:
                for future in expired:
                    unit, _, started_at = inflight.pop(future)
                    unit.elapsed_s += now - started_at
                    _count("resilience.timeouts")
                    if len(unit.tasks) > 1:
                        requeue(unit)
                    else:
                        settle(unit, timeout_details(policy.point_timeout_s),
                               "timeout")
                abort_inflight(now)
                _kill_pool(executor)
                _count("resilience.pool_rebuilds")
                executor = make_pool()
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    if queue:  # the pool was given up on
        remaining = [
            (unit.index + offset, task, unit.attempt)
            for unit in sorted(queue, key=lambda u: u.index)
            for offset, task in enumerate(unit.tasks)
        ]
        if not degrade:
            raise PoolBrokenError(
                len(remaining),
                f"worker pool died {barren_rebuilds} times without "
                f"completing a task; {len(remaining)} point(s) remain "
                f"(enable degrade=True to finish them serially)",
            )

        def evaluate_one(task: Any) -> tuple[bool, dict]:
            return chunk_fn([task])[0]

        serial = serial_map_with_retry(
            evaluate_one,
            [task for _, task, _ in remaining],
            policy,
            keys=[keys[index] for index, _, _ in remaining],
            start_attempts=[attempt for _, _, attempt in remaining],
        )
        for (index, _, _), outcome in zip(remaining, serial):
            results[index] = outcome

    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
