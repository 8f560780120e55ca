"""Outside-in per-layer ledger: timing spans around repro's public calls.

The benchmark measures repro's layers without changing ``src/``.  After
every ``repro`` module is imported, :func:`install` wraps each layer's
public entry calls (:data:`LAYERS`) in spans recorded by a
:class:`Tracer`.  A function is rebound at every ``repro.*`` module
attribute (and module-level dict value) that refers to it, so
``from x import f`` call sites are covered; methods are patched on the
class that defines them.  A target that no longer resolves is an error,
never a silent zero.

Span rules:

* each thread keeps its own stack of open spans;
* a span opened on another thread with an empty stack (a BSP worker
  thread) takes the main thread's innermost open span as its parent;
* forked pool workers inherit the forking thread's stack, so their spans
  hang under the parent's ``executor`` span.  A worker appends its
  finished spans to ``spans-<pid>.jsonl`` in the trace directory each time
  its outermost span closes; :func:`read_worker_spans` merges them.

:func:`attribute` gives every instant of a window to the innermost open
spans, those with no open child.  A span's self time is therefore its
duration minus the union of its children's intervals.  Where innermost
spans overlap (BSP threads, pool workers) they split the overlap equally,
so the per-layer self times plus the time under no span add up to the
window.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pkgutil
import sys
import threading
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, NamedTuple

#: Layer name -> the public calls wrapped for it, as ``module:qualname``.
LAYERS: dict[str, tuple[str, ...]] = {
    "campaign": ("repro.explore.campaign:Campaign.serve",),
    "executor": (
        "repro.explore.campaign:SerialExecutor.map",
        "repro.explore.campaign:ChunkedProcessPoolExecutor.map",
        "repro.explore.campaign:ProcessPoolExecutor.map",
    ),
    "store": (
        "repro.explore.cache:ResultCache.__init__",
        "repro.explore.cache:ResultCache.put",
        "repro.explore.cache:ResultCache.get",
        "repro.explore.cache:ResultCache.__contains__",
    ),
    "adapter": ("repro.explore.experiments:run_point",),
    "machine": ("repro.cluster.presets:make_preset_machine",),
    "profile_cache": (
        "repro.bench.profile_cache:ProfileCache.get_or_benchmark",
    ),
    "comm_bench": ("repro.bench.comm_bench:benchmark_comm_ensemble",),
    "bspbench": ("repro.bench.bspbench:run_bspbench",),
    "barrier": ("repro.barriers.simulate:measure_barrier",),
    "cost_model": ("repro.barriers.cost_model:predict_barrier_cost",),
    "bsp": ("repro.bsplib.runtime:bsp_run",),
    "stencil": (
        "repro.stencil.impls:run_bsp_stencil",
        "repro.stencil.impls:run_mpi_stencil",
        "repro.stencil.impls:run_mpi_r_stencil",
        "repro.stencil.impls:run_hybrid_stencil",
        "repro.stencil.optimizer:measure_halo_iteration",
        "repro.stencil.optimizer:optimize_halo_depth",
    ),
    "engine": ("repro.simmpi.engine:simulate_stages_batch",),
    "noise": (
        "repro.cluster.noise:NoiseModel.sample_matrix",
        "repro.cluster.noise:NoiseModel.sample",
    ),
    "adaptive": (
        "repro.explore.adaptive.samplers:Sampler.propose",
        "repro.explore.adaptive.samplers:Sampler.observe",
    ),
    "golden": ("repro.explore.golden:check_golden",),
}


def _profile_misses(args: tuple) -> int:
    return args[0].misses


#: Calls whose outcome is recorded on the span as a hit or a miss:
#: target -> (probe read before the call or None, judge of the outcome).
#: The profile cache's own ``misses`` counter tells its hits apart, in
#: pool workers as well as in the parent.
HIT_JUDGES: dict[str, tuple[Callable | None, Callable]] = {
    "repro.explore.cache:ResultCache.__contains__": (
        None, lambda args, before, result: bool(result),
    ),
    "repro.bench.profile_cache:ProfileCache.get_or_benchmark": (
        _profile_misses, lambda args, before, result: args[0].misses == before,
    ),
}


class TargetError(LookupError):
    """A wrapped target no longer resolves (renamed, moved or removed)."""


class Span(NamedTuple):
    """One finished call into a layer, timed on the shared monotonic clock
    (``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so spans from pool
    workers line up with the parent's)."""

    sid: int
    parent: int | None
    layer: str
    start: float
    end: float
    pid: int
    hit: bool | None = None


class Tracer:
    """In-memory span recorder for one process and its forked workers."""

    def __init__(self, trace_dir: str | os.PathLike):
        self.trace_dir = os.fspath(trace_dir)
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        # Stack depth inherited at fork; set only in pool workers, where
        # closing back to it means the outermost own span closed.
        self._flush_depth: int | None = None

    def open(self) -> tuple[list[int], int, int | None]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(threading.main_thread().ident)
            parent = main[-1] if main else None
        # Pids bound the per-process counter's id space, so ids from the
        # parent and every worker never collide when merged.
        sid = (self._pid << 32) | next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def close(
        self, stack: list[int], sid: int, parent: int | None, layer: str,
        start: float, end: float, hit: bool | None = None,
    ) -> None:
        stack.pop()
        self.spans.append(Span(sid, parent, layer, start, end, self._pid, hit))
        if (
            self._flush_depth is not None
            and len(stack) == self._flush_depth
            and stack is self._stacks.get(threading.main_thread().ident)
        ):
            self.flush()

    def flush(self) -> None:
        """Append this process's finished spans to its ``spans-<pid>.jsonl``
        in one write, and forget them."""
        spans, self.spans = self.spans, []
        if not spans:
            return
        payload = "".join(json.dumps(list(s)) + "\n" for s in spans)
        path = os.path.join(self.trace_dir, f"spans-{self._pid}.jsonl")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, payload.encode())
        finally:
            os.close(fd)

    def after_fork_in_child(self) -> None:
        """Become a worker: keep only the forking thread's stack (the
        parent spans new ones hang under), drop the parent's finished
        spans, and flush at each outermost close from now on."""
        tid = threading.get_ident()
        stack = self._stacks.get(tid, [])
        self._stacks = {tid: stack}
        self.spans = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._flush_depth = len(stack)


_ACTIVE: Tracer | None = None
_FORK_HOOKED = False


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.after_fork_in_child()


def wrap(tracer: Tracer, layer: str, fn: Callable, path: str) -> Callable:
    """``fn`` timed as a ``layer`` span; ``path`` selects a hit judge."""
    probe, judge = HIT_JUDGES.get(path, (None, None))

    if judge is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = tracer.open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(stack, sid, parent, layer, start, perf_counter())

        return traced

    @functools.wraps(fn)
    def traced_hit(*args, **kwargs):
        stack, sid, parent = tracer.open()
        before = probe(args) if probe is not None else None
        start = perf_counter()
        hit = None
        try:
            result = fn(*args, **kwargs)
            hit = judge(args, before, result)
            return result
        finally:
            tracer.close(stack, sid, parent, layer, start, perf_counter(), hit)

    return traced_hit


def import_all_repro() -> None:
    """Import every ``repro`` module (not ``__main__`` entry points), so
    each ``from x import f`` binding exists before rebinding."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def repro_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def resolve(path: str) -> tuple[Any, str, Callable]:
    """``module:qualname`` -> (owner, attribute, target).  A method must be
    defined on the named class itself, not inherited."""
    module_name, _, qualname = path.partition(":")
    *outer, attr = qualname.split(".")
    try:
        owner = importlib.import_module(module_name)
        for name in outer:
            owner = getattr(owner, name)
        target = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
    except (ImportError, AttributeError, KeyError) as exc:
        message = f"wrapped target {path} does not resolve: {exc!r}"
        raise TargetError(message) from None
    if not callable(target):
        raise TargetError(f"wrapped target {path} is not callable")
    return owner, attr, target


@dataclass
class Installation:
    """Wrapped targets plus what :meth:`uninstall` puts back."""

    tracer: Tracer
    originals: dict[str, Callable] = field(default_factory=dict)
    _undo: list[tuple[Any, Any, Callable]] = field(default_factory=list)

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()
        if _ACTIVE is self.tracer:
            _ACTIVE = None


def install(tracer: Tracer, layers: dict[str, Iterable[str]] = LAYERS) -> Installation:
    """Import all of repro and wrap every target of ``layers``.  Call it
    before any pool forks, so that workers inherit the wrappers."""
    global _ACTIVE, _FORK_HOOKED
    import_all_repro()
    resolved = [
        (layer, path, *resolve(path))
        for layer, paths in layers.items() for path in paths
    ]
    installation = Installation(tracer)
    modules = repro_modules()
    for layer, path, owner, attr, target in resolved:
        wrapper = wrap(tracer, layer, target, path)
        installation.originals[path] = target
        if isinstance(owner, type):
            installation._undo.append((owner, attr, target))
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is target:
                    installation._undo.append((module, key, target))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is target:
                            installation._undo.append((value, dkey, target))
                            value[dkey] = wrapper
    if not _FORK_HOOKED:
        os.register_at_fork(after_in_child=_after_fork_in_child)
        _FORK_HOOKED = True
    _ACTIVE = tracer
    return installation


def read_worker_spans(trace_dir: str | os.PathLike) -> list[Span]:
    """Every span the pool workers appended under ``trace_dir``."""
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(Span(*json.loads(line)) for line in fh if line.strip())
    return spans


@dataclass(frozen=True)
class Ledger:
    """Where one window's wall time went, layer by layer."""

    wall_s: float
    self_s: dict[str, float]
    calls: dict[str, int]
    unattributed_s: float
    #: layer -> (hits, lookups) over the spans that record an outcome.
    hits: dict[str, tuple[int, int]]
    #: Sum of ``adapter`` span time under ``executor`` spans, divided by
    #: the sum over those executor spans of (workers seen x duration).
    worker_busy_frac: float


def attribute(spans: Iterable[Span], start: float, end: float) -> Ledger:
    """Split the window ``[start, end]`` across the spans that overlap it
    (see the module docstring for the rule)."""
    inside = [s for s in spans if s.end > start and s.start < end]
    by_id = {s.sid: s for s in inside}
    depth: dict[int, int] = {}
    for s in inside:
        chain = []
        sid = s.sid
        while sid in by_id and sid not in depth:
            chain.append(sid)
            sid = by_id[sid].parent
        base = depth.get(sid, -1)
        for i, cid in enumerate(reversed(chain), start=1):
            depth[cid] = base + i
    # Ties: closes before opens; opens parent-first; closes child-first.
    events = []
    for i, s in enumerate(inside):
        events.append((max(s.start, start), 1, depth[s.sid], i))
        events.append((min(s.end, end), 0, -depth[s.sid], i))
    events.sort()

    self_s: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    is_open: set[int] = set()
    leaves: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    prev = start
    for t, opening, _, i in events:
        if t > prev:
            if leaves:
                share = (t - prev) / len(leaves)
                for sid in leaves:
                    self_s[by_id[sid].layer] += share
            else:
                unattributed += t - prev
            prev = t
        s = inside[i]
        parent = s.parent if s.parent in is_open else None
        if opening:
            is_open.add(s.sid)
            leaves.add(s.sid)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(s.sid)
            leaves.discard(s.sid)
            if parent is not None:
                open_children[parent] -= 1
                if not open_children[parent]:
                    leaves.add(parent)
    if end > prev:
        unattributed += end - prev

    calls: dict[str, int] = defaultdict(int)
    hits: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for s in inside:
        calls[s.layer] += 1
        if s.hit is not None:
            hits[s.layer][0] += bool(s.hit)
            hits[s.layer][1] += 1

    executors = {s.sid: s for s in inside if s.layer == "executor"}
    busy = 0.0
    pids: dict[int, set[int]] = defaultdict(set)
    for s in inside:
        if s.layer == "adapter" and s.parent in executors:
            busy += s.end - s.start
            pids[s.parent].add(s.pid)
    capacity = sum(
        len(pids[sid]) * (executors[sid].end - executors[sid].start)
        for sid in pids
    )
    return Ledger(
        wall_s=end - start,
        self_s=dict(self_s),
        calls=dict(calls),
        unattributed_s=unattributed,
        hits={layer: (h, n) for layer, (h, n) in hits.items()},
        worker_busy_frac=busy / capacity if capacity else 0.0,
    )
