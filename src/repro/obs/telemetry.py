"""The telemetry context: hierarchical spans, metrics, JSONL event sink.

One :class:`Telemetry` instance is the process-wide instrumentation
context.  It is **off by default**: every instrumented hot path asks
:func:`current` for the active context and pays exactly one ``if`` when
telemetry is disabled.  Enabling costs a span-record append (a dict under
a lock) per instrumented operation — never an RNG draw, never a change to
any computed value, so telemetry can never perturb results.

Spans are hierarchical per thread: :meth:`Telemetry.span` pushes onto a
thread-local stack, so a span opened while another is open records it as
its parent.  Two timebases coexist, clearly distinguished by the
``time`` field of every span event:

* ``host``  — wall-clock time: ``ts`` anchors ``time.perf_counter`` to
  the epoch at context creation, ``dur`` is measured host seconds;
* ``sim``   — *simulated* seconds from the event engines (stage and
  superstep summaries).  Same record shape, different meaning; the
  Chrome exporter renders them on a dedicated lane.

Event persistence uses the result store's log (:mod:`repro.util.jsonl`):
each process appends to its **own** ``events-<pid>.jsonl`` file under
the sink directory, one crash-safe write per flush, so multiprocessing
executor workers can stream spans concurrently and the parent merges
the files afterwards (sorted by name).  A forked child never re-writes
events it inherited from its parent's buffer: flushing drops foreign-pid
events.

Executor workers are forked and inherit the module singleton.  A user
can also switch telemetry on from outside by setting the :data:`ENV_VAR`
environment variable, read once per process on the first
:func:`current` call; this module reads it and never writes it.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

from repro.util import jsonl

#: Environment variable a user sets to the sink directory (or "1" for a
#: memory-only context) to switch telemetry on without code changes.
ENV_VAR = "REPRO_TELEMETRY"

#: Flush the in-memory event buffer to the sink once it holds this many
#: events, bounding memory on long runs.
FLUSH_THRESHOLD = 1024


class Span:
    """One open (or closed) span; returned by :meth:`Telemetry.span`."""

    __slots__ = ("name", "attrs", "id", "parent", "tid", "ts", "_pc0", "dur")

    def __init__(self, name: str, attrs: dict, id: int,
                 parent: int | None, tid: int, ts: float, pc0: float):
        self.name = name
        self.attrs = attrs
        self.id = id
        self.parent = parent
        self.tid = tid
        self.ts = ts
        self._pc0 = pc0
        self.dur: float | None = None

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (recorded when the span closes)."""
        self.attrs[key] = value


class _SpanContext:
    """Context manager pairing ``Telemetry._open`` with ``_close``."""

    __slots__ = ("_telemetry", "_span")

    def __init__(self, telemetry: "Telemetry", span: Span):
        self._telemetry = telemetry
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.attrs["error"] = exc_type.__name__
        self._telemetry._close(self._span)


class Telemetry:
    """Process-wide span/metric recorder with an optional JSONL sink."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._events: list[dict] = []
        self._tids: dict[int, int] = {}
        self._next_id = 0
        self._pid = os.getpid()
        # Host-time anchor: epoch seconds at a known perf_counter value,
        # so span timestamps are monotonic within the process yet live on
        # the (cross-process comparable) epoch axis.
        self._anchor_epoch = time.time()
        self._anchor_pc = time.perf_counter()
        self.sink_dir: str | None = None

    # ----------------------------------------------------------- plumbing

    def _now(self) -> tuple[float, float]:
        pc = time.perf_counter()
        return self._anchor_epoch + (pc - self._anchor_pc), pc

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    def _append(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)
            full = len(self._events) >= FLUSH_THRESHOLD
        if full and self.sink_dir is not None:
            self.flush()

    # -------------------------------------------------------------- spans

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open one host-time span as a context manager."""
        ts, pc0 = self._now()
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            name=name,
            attrs=attrs,
            id=span_id,
            parent=stack[-1].id if stack else None,
            tid=self._tid(),
            ts=ts,
            pc0=pc0,
        )
        stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        span.dur = time.perf_counter() - span._pc0
        stack = self._stack()
        # Tolerate out-of-order closes (a bug in instrumented code must
        # not take the run down): pop through to this span if present.
        if span in stack:
            while stack and stack.pop() is not span:
                pass
        self._append({
            "type": "span",
            "time": "host",
            "name": span.name,
            "ts": span.ts,
            "dur": span.dur,
            "pid": self._pid,
            "tid": span.tid,
            "id": span.id,
            "parent": span.parent,
            "attrs": span.attrs,
        })

    def emit_span(
        self, name: str, ts: float, dur: float,
        time_base: str = "host", **attrs: Any,
    ) -> None:
        """Record one pre-measured span.

        ``time_base="host"`` wants epoch seconds (as produced by host
        spans); ``"sim"`` wants *simulated* seconds — the engines' stage
        and superstep summaries, rendered on their own exporter lane.
        """
        if time_base not in ("host", "sim"):
            raise ValueError("time_base must be 'host' or 'sim'")
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        self._append({
            "type": "span",
            "time": time_base,
            "name": name,
            "ts": float(ts),
            "dur": float(dur),
            "pid": self._pid,
            "tid": self._tid(),
            "id": span_id,
            "parent": stack[-1].id if stack else None,
            "attrs": attrs,
        })

    def emit_event(self, type: str, **fields: Any) -> None:
        """Record one arbitrary typed event (JSON-serialisable fields).

        Analysis layers use this for records that are neither spans nor
        metrics — e.g. ``repro.obs.attribution`` persists critical-path
        reports as ``type="critpath"`` events so ``explain`` can read
        them back from a store's sink.
        """
        if type in ("span", "metric"):
            raise ValueError(
                f"event type {type!r} is reserved; use the dedicated APIs"
            )
        event = {"type": str(type), "pid": self._pid}
        event.update(fields)
        self._append(event)

    # ------------------------------------------------------------ metrics

    def count(self, name: str, value: float = 1.0) -> None:
        self._append({
            "type": "metric", "kind": "counter",
            "name": name, "value": float(value), "pid": self._pid,
        })

    def gauge(self, name: str, value: float) -> None:
        self._append({
            "type": "metric", "kind": "gauge",
            "name": name, "value": float(value), "pid": self._pid,
        })

    def observe(self, name: str, value: float, edges=None) -> None:
        event = {
            "type": "metric", "kind": "hist",
            "name": name, "value": float(value), "pid": self._pid,
        }
        if edges is not None:
            event["edges"] = [float(e) for e in edges]
        self._append(event)

    # --------------------------------------------------------------- sink

    def attach_sink(self, sink_dir: str | os.PathLike) -> None:
        """Stream events to ``<sink_dir>/events-<pid>.jsonl``, one file
        per process.  Attaching is idempotent per directory.
        """
        sink_dir = os.fspath(sink_dir)
        if self.sink_dir != sink_dir:
            os.makedirs(sink_dir, exist_ok=True)
            self.sink_dir = sink_dir

    def _sink_path(self) -> str:
        # Keyed by *current* pid: after a fork the child streams into its
        # own file, never its parent's.
        return os.path.join(
            self.sink_dir, f"events-{os.getpid():08d}.jsonl"
        )

    def _after_fork(self) -> None:
        """Reset process-local state in a forked child.

        The child drops events it inherited in the parent's buffer (the
        parent still owns them), forgets the parent's open-span stacks
        and thread ids, and replaces the lock — which another parent
        thread could have held at fork time.  Registered for the module
        singleton via ``os.register_at_fork``.
        """
        self._lock = threading.Lock()
        self._local = threading.local()
        self._events = []
        self._tids = {}
        self._pid = os.getpid()

    def flush(self) -> int:
        """Write buffered events to the sink; returns events written.

        I/O errors are swallowed: telemetry must never take down the
        measured run.
        """
        if self.sink_dir is None:
            return 0
        with self._lock:
            events, self._events = self._events, []
        if not events:
            return 0
        try:
            jsonl.append(self._sink_path(), events, site="telemetry.flush")
        except OSError:
            return 0
        return len(events)

    def events(self) -> list[dict]:
        """A copy of the buffered (unflushed) events, for inspection."""
        with self._lock:
            return list(self._events)


# ----------------------------------------------------------- module state

class _State:
    active: Telemetry | None = None
    env_checked = False


_STATE = _State()
_STATE_LOCK = threading.Lock()


def _on_fork_in_child() -> None:
    # Fix up the active context in forked executor workers; registered
    # once for the module singleton (directly-constructed Telemetry
    # instances are in-process tools and do not cross forks).
    active = _STATE.active
    if active is not None:
        active._after_fork()


if hasattr(os, "register_at_fork"):  # POSIX only; absent on Windows
    os.register_at_fork(after_in_child=_on_fork_in_child)


def enable(sink_dir: str | os.PathLike | None = None) -> Telemetry:
    """Turn telemetry on (idempotent); returns the active context.

    A second call re-uses the existing context, attaching ``sink_dir``
    to it if given — so a campaign can bind an already-enabled context
    to its store directory without losing recorded events.
    """
    with _STATE_LOCK:
        _STATE.env_checked = True
        if _STATE.active is None:
            _STATE.active = Telemetry()
    if sink_dir is not None:
        _STATE.active.attach_sink(sink_dir)
    return _STATE.active


def disable() -> None:
    """Flush and deactivate the current context (idempotent)."""
    with _STATE_LOCK:
        active, _STATE.active = _STATE.active, None
        _STATE.env_checked = True
    if active is not None:
        active.flush()


def current() -> Telemetry | None:
    """The active telemetry context, or ``None`` when disabled.

    This is the one call every instrumented hot path makes; when
    telemetry is off it is a module attribute read plus one ``if``.
    The first call in a process honours :data:`ENV_VAR`, which a user
    sets to switch telemetry on from outside.
    """
    active = _STATE.active
    if active is None and not _STATE.env_checked:
        with _STATE_LOCK:
            _STATE.env_checked = True
        value = os.environ.get(ENV_VAR)
        if value:
            return enable(None if value == "1" else value)
    return active


def wallclock() -> float:
    """Epoch seconds — the sanctioned wall-clock read for non-obs code.

    The determinism contracts (DET003, ``docs/analysis.md``) reserve
    direct host-clock reads for :mod:`repro.obs`, :mod:`repro.bench`
    and the resilience layer; everything else — campaign wall-time
    stats, run timestamps — routes through this accessor so host time
    stays greppable, single-sourced, and fakeable in tests.  It must
    never feed a simulated quantity.
    """
    return time.time()
