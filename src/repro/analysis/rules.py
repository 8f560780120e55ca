"""The DET rule pack: the engine's determinism contracts, machine-checked.

Every rule here encodes a contract that already exists in prose
(``docs/engine.md``, ``docs/observability.md``) or in a dynamic guard
(the ``error::DeprecationWarning:repro`` pytest filter).  The linter
makes them hold on *every* path of *every* file, not just the paths a
test happens to execute — which is the precondition for dropping in a
compiled backend or sharding campaigns across hosts without silently
losing bit-reproducibility.

Rules are heuristic where full static analysis is undecidable; each
docstring states the approximation, and ``# repro: allow[RULE]``
documents the deliberate exceptions in place.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import (
    Finding,
    Module,
    Rule,
    attr_chain,
    register,
)


def _in_loop(module: Module, node: ast.AST) -> bool:
    """True when ``node`` sits inside a ``for``/``while`` body (loops in
    enclosing *functions* do not count — a nested ``def`` runs once per
    call, not once per iteration of the outer loop it is defined in)."""
    current = node
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return False
        if isinstance(ancestor, (ast.For, ast.AsyncFor, ast.While)):
            # The loop's iterable/test evaluate once; only the body (or
            # orelse) re-executes per iteration.
            if current in getattr(ancestor, "body", ()) or current in getattr(
                ancestor, "orelse", ()
            ):
                return True
        current = ancestor
    return False


@register
class NoDeprecatedScalarDraws(Rule):
    """DET001 — no ``sample_scalar`` outside ``*/reference.py``.

    ``NoiseModel.sample_scalar`` boxes every duration through a 0-d
    array and three scalar RNG calls; the batched engines draw in bulk
    under the documented draw-order contract (docs/engine.md).  The
    runtime ``DeprecationWarning`` only fires on executed paths — this
    rule covers the rest.  Preserved scalar oracles live in
    ``reference.py`` modules, which are exempt; the deprecated method's
    own definition (and its internal ``self.sample`` delegation) does
    not call itself, so the noise model passes untouched.
    """

    id = "DET001"
    title = "deprecated scalar noise draw outside a reference oracle"

    def check(self, module: Module) -> Iterator[Finding]:
        if module.path.replace("\\", "/").endswith("/reference.py"):
            return
        if module.name.endswith(".reference"):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sample_scalar"
            ):
                yield self.finding(
                    module,
                    node,
                    "sample_scalar is deprecated on hot paths: draw in "
                    "bulk with NoiseModel.sample / sample_matrix "
                    "(docs/engine.md draw-order contract)",
                )


#: numpy.random constructors that are fine *when given a seed argument*.
_NP_SEEDED_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "RandomState",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


@register
class NoUnseededRng(Rule):
    """DET002 — every random draw must come from an explicitly seeded
    generator.

    Module-global RNG state (``np.random.<fn>``, stdlib ``random.<fn>``)
    is process-wide and call-order dependent: one stray draw desyncs
    every stream after it, and replays stop being bit-identical.  The
    repository's discipline is ``np.random.default_rng(seed)`` /
    ``random.Random(seed)`` instances threaded explicitly (SimMachine
    derives per-purpose streams from its seed).  Flagged: any call into
    the ``numpy.random`` or ``random`` module globals; generator/
    bit-generator constructors called with *no* seed argument.  Calls on
    generator objects (``rng.normal(...)``) are not module calls and
    pass.  Resolution follows the import table, so aliases are caught
    and same-named methods on unrelated objects are not.
    """

    id = "DET002"
    title = "unseeded or module-global RNG"

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.resolve_call_target(node.func)
            if target is None:
                continue
            if target.startswith("numpy.random."):
                name = target[len("numpy.random."):]
                if "." in name:
                    continue
                if name in _NP_SEEDED_CONSTRUCTORS:
                    if not node.args and not node.keywords:
                        yield self.finding(
                            module, node,
                            f"{name}() without a seed draws from OS "
                            "entropy: pass an explicit seed",
                        )
                else:
                    yield self.finding(
                        module, node,
                        f"np.random.{name} uses module-global RNG state: "
                        "draw from an explicitly seeded "
                        "np.random.default_rng(seed) instance",
                    )
            elif target == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module, node,
                        "random.Random() without a seed draws from OS "
                        "entropy: pass an explicit seed",
                    )
            elif target == "random.SystemRandom":
                yield self.finding(
                    module, node,
                    "random.SystemRandom is never reproducible: use a "
                    "seeded random.Random",
                )
            elif target.startswith("random.") and "." not in target[len("random."):]:
                yield self.finding(
                    module, node,
                    f"{target} uses module-global RNG state: draw from "
                    "an explicitly seeded random.Random instance",
                )


#: Wall-clock entry points (resolved through the import table).
_WALL_CLOCK_TARGETS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Module prefixes whose *job* is host time: telemetry/benchmarking, and
#: the resilience layer's timeout/backoff deadlines.
_WALL_CLOCK_ALLOWED_PREFIXES = ("repro.obs", "repro.bench")
_WALL_CLOCK_ALLOWED_MODULES = frozenset({"repro.explore.resilience"})


@register
class NoWallClock(Rule):
    """DET003 — no wall-clock reads outside the observability, bench,
    and resilience layers.

    Simulated time must be a pure function of (inputs, seed).  A host
    clock read on a compute path couples results to the machine's load,
    and a wall-clock timestamp written into a result store breaks
    byte-identical replay.  Host time is legitimate in exactly three
    places: ``repro.obs`` (telemetry measures the host by design),
    ``repro.bench`` (benchmarks measure the host by design), and
    ``repro.explore.resilience`` (timeout deadlines and backoff waits
    are about the host, not the simulation).  Everything else routes
    through :func:`repro.obs.wallclock` — one sanctioned, greppable,
    fakeable accessor — or carries an ``allow[DET003]`` justification.
    """

    id = "DET003"
    title = "wall-clock read outside obs/bench/resilience"

    def _allowed(self, module: Module) -> bool:
        name = module.name
        if name in _WALL_CLOCK_ALLOWED_MODULES:
            return True
        return any(
            name == prefix or name.startswith(prefix + ".")
            for prefix in _WALL_CLOCK_ALLOWED_PREFIXES
        )

    def check(self, module: Module) -> Iterator[Finding]:
        if self._allowed(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.resolve_call_target(node.func)
            if target in _WALL_CLOCK_TARGETS:
                yield self.finding(
                    module, node,
                    f"{target} read outside repro.obs/repro.bench/"
                    "repro.explore.resilience: use repro.obs.wallclock() "
                    "(telemetry owns host time) or justify with "
                    "allow[DET003]",
                )


#: Call / method names whose argument or receiver order is observable:
#: RNG draws, store/file writes, telemetry emission, ordered collection.
_ORDER_SENSITIVE_SINKS = frozenset({
    # draws
    "sample", "sample_matrix", "sample_scalar", "integers", "normal",
    "lognormal", "uniform", "choice", "shuffle", "permutation",
    "standard_normal", "random",
    # stores / files / serialisation
    "put", "write", "writelines", "dump", "dumps",
    # telemetry
    "emit_span", "emit_event", "count", "gauge", "observe",
    # ordered accumulation that leaks iteration order downstream
    "append", "print",
})


def _unordered_iterable(node: ast.AST) -> str | None:
    """Describe ``node`` if it is an unordered iteration source."""
    # Unwrap wrappers that preserve (non-)order.
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"list", "tuple", "enumerate", "iter"}
        and len(node.args) == 1
    ):
        node = node.args[0]
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in {"set", "frozenset"}:
            return f"{node.func.id}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return ".keys()"
    return None


@register
class SortedIterationForSinks(Rule):
    """DET004 — iteration over ``set``/dict-``.keys()`` feeding draws,
    stores, or emitted output must be ``sorted()``.

    Set iteration order depends on insertion history and hash
    randomization; dict order is insertion order, which drifts the
    moment two code paths (or two merged worker stores) populate it
    differently.  When such an iteration drives an RNG draw, a store
    append, or emitted output, the byte stream — and every stream draw
    after it — becomes history-dependent.  ``sorted(...)`` around the
    iterable restores a canonical order.  Heuristic: only loops and
    list/generator comprehensions whose body calls an order-sensitive
    sink (draw / put / write / emit / append / print) are flagged;
    membership tests and set-building passes are order-free and pass.
    """

    id = "DET004"
    title = "unordered iteration feeding an order-sensitive sink"

    def _body_has_sink(self, nodes) -> bool:
        for stmt in nodes:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    name = None
                    if isinstance(node.func, ast.Attribute):
                        name = node.func.attr
                    elif isinstance(node.func, ast.Name):
                        name = node.func.id
                    if name in _ORDER_SENSITIVE_SINKS:
                        return True
        return False

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                kind = _unordered_iterable(node.iter)
                if kind and self._body_has_sink(node.body):
                    yield self.finding(
                        module, node.iter,
                        f"iterating {kind} into a draw/store/output sink "
                        "is order-nondeterministic: wrap the iterable in "
                        "sorted(...)",
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for gen in node.generators:
                    kind = _unordered_iterable(gen.iter)
                    if kind and self._body_has_sink([node.elt]):
                        yield self.finding(
                            module, gen.iter,
                            f"comprehension over {kind} feeding a sink "
                            "is order-nondeterministic: wrap the "
                            "iterable in sorted(...)",
                        )


#: Methods that ship a callable to pool/executor workers.
_SUBMISSION_METHODS = frozenset({
    "map", "imap", "imap_unordered", "map_async", "starmap",
    "starmap_async", "apply", "apply_async", "submit",
})


@register
class PicklableExecutorCallables(Rule):
    """DET005 — no lambdas or locally-defined closures at executor
    submission sites.

    ``multiprocessing`` pickles the task callable; lambdas and functions
    defined inside another function fail at dispatch time — but only on
    the process-pool paths, so a campaign that was only ever exercised
    under the serial executor ships the bug.  The repository pattern is
    module-level workers (``_evaluate``, ``_evaluate_chunk``) plus
    ``functools.partial`` over module-level functions for bound
    arguments.
    Heuristic: flagged when the receiver's name contains ``pool`` /
    ``executor`` / ``exec`` and the submitted callable is a ``lambda``
    (directly or inside a ``partial(...)``) or a name bound by a ``def``
    nested in an enclosing function.
    """

    id = "DET005"
    title = "unpicklable callable at an executor submission site"

    def _local_defs(self, module: Module) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for ancestor in module.ancestors(node):
                    if isinstance(
                        ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        names.add(node.name)
                        break
        return names

    def _offending(self, arg: ast.AST, local_defs: set[str]) -> str | None:
        if isinstance(arg, ast.Lambda):
            return "a lambda"
        if isinstance(arg, ast.Name) and arg.id in local_defs:
            return f"locally-defined function {arg.id!r}"
        if isinstance(arg, ast.Call):
            func_name = attr_chain(arg.func) or ""
            if func_name.split(".")[-1] == "partial":
                for inner in [*arg.args, *(kw.value for kw in arg.keywords)]:
                    hit = self._offending(inner, local_defs)
                    if hit:
                        return f"{hit} inside partial(...)"
        return None

    def check(self, module: Module) -> Iterator[Finding]:
        local_defs = self._local_defs(module)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SUBMISSION_METHODS
                and node.args
            ):
                continue
            receiver = (attr_chain(node.func.value) or "").lower()
            if not any(tag in receiver for tag in ("pool", "executor", "exec")):
                continue
            hit = self._offending(node.args[0], local_defs)
            if hit:
                yield self.finding(
                    module, node.args[0],
                    f"{hit} submitted to {node.func.attr}() cannot be "
                    "pickled to pool workers: use a module-level "
                    "function (functools.partial over one is fine)",
                )


#: Dotted-name suffixes of the engine hot-path modules.
_HOT_MODULE_SUFFIXES = (
    "simmpi.engine", "simmpi.requests", "bsplib.runtime",
    "machine.simmachine", "machine.clock",
    "stencil.impls", "spinlocks.model",
)

#: Telemetry-context factories and emission methods.
_TELEMETRY_FACTORIES = frozenset({"current", "_telemetry"})
_EMIT_METHODS = frozenset({
    "span", "emit_span", "emit_event", "count", "gauge", "observe", "flush",
})


@register
class TelemetryFastPath(Rule):
    """DET006 — telemetry emission inside engine hot loops must route
    through the disabled-fast-path helpers.

    The observability guarantee (docs/observability.md) is that disabled
    telemetry costs one ``if`` per *call*, not one lookup per loop
    iteration — and that enabling it never changes a result.  Inside the
    engine hot-path modules (event engine, BSP runtime, clocks, stencil
    kernels, spinlock model) that means: resolve ``obs.current()`` once
    outside the loop, and guard every emission on the resolved context
    (``if tele is None: return ...`` early, or ``if tele is not None:``
    around the emission).  Flagged: (a) calling ``current()`` /
    ``_telemetry()`` inside a ``for``/``while`` body; (b) calling an
    emission method on a context variable inside a loop with no ``None``
    guard in scope.  Only variables assigned from the factories are
    checked, so unrelated ``.count()`` / ``.span`` methods pass.
    """

    id = "DET006"
    title = "unguarded telemetry emission in an engine hot loop"

    def _applies(self, module: Module) -> bool:
        return module.name.endswith(_HOT_MODULE_SUFFIXES)

    def _telemetry_vars(self, func: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                chain = attr_chain(node.value.func) or ""
                if chain.split(".")[-1] in _TELEMETRY_FACTORIES:
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            names.add(tgt.id)
        return names

    def _guarded(self, module: Module, node: ast.AST, var: str) -> bool:
        # (1) an enclosing `if var:` / `if var is not None:` branch.
        child = node
        func = None
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.If) and child in ancestor.body:
                test = ancestor.test
                if isinstance(test, ast.Name) and test.id == var:
                    return True
                if (
                    isinstance(test, ast.Compare)
                    and isinstance(test.left, ast.Name)
                    and test.left.id == var
                    and len(test.ops) == 1
                    and isinstance(test.ops[0], ast.IsNot)
                ):
                    return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = ancestor
                break
            child = ancestor
        # (2) an early `if var is None: return/raise` anywhere in the
        # enclosing function (the engine's canonical shape).
        if func is not None:
            for stmt in ast.walk(func):
                if not isinstance(stmt, ast.If):
                    continue
                test = stmt.test
                if (
                    isinstance(test, ast.Compare)
                    and isinstance(test.left, ast.Name)
                    and test.left.id == var
                    and len(test.ops) == 1
                    and isinstance(test.ops[0], ast.Is)
                    and any(
                        isinstance(s, (ast.Return, ast.Raise, ast.Continue))
                        for s in stmt.body
                    )
                ):
                    return True
        return False

    def check(self, module: Module) -> Iterator[Finding]:
        if not self._applies(module):
            return
        funcs = [
            node for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and (attr_chain(node.func) or "").split(".")[-1]
                in _TELEMETRY_FACTORIES
                and _in_loop(module, node)
            ):
                yield self.finding(
                    module, node,
                    "telemetry context resolved inside a hot loop: call "
                    "obs.current() once before the loop and reuse it",
                )
        for func in funcs:
            tele_vars = self._telemetry_vars(func)
            if not tele_vars:
                continue
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _EMIT_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in tele_vars
                ):
                    continue
                if not _in_loop(module, node):
                    continue
                var = node.func.value.id
                if not self._guarded(module, node, var):
                    yield self.finding(
                        module, node,
                        f"telemetry emission on {var!r} inside a hot loop "
                        "without a disabled-fast-path guard: early-return "
                        f"on `if {var} is None` or wrap the emission in "
                        f"`if {var} is not None:`",
                    )



def _is_append_open(node: ast.Call) -> bool:
    """``os.open`` with ``O_APPEND`` in its flags, or ``open``/``io.open``/
    ``<path>.open`` with a literal append mode (``"a"``, ``"ab"``, ...)."""
    chain = attr_chain(node.func)
    if chain == "os.open":
        return any(
            getattr(sub, "id", getattr(sub, "attr", None)) == "O_APPEND"
            for arg in node.args[1:] for sub in ast.walk(arg)
        )
    if chain in ("open", "io.open"):
        position = 1
    elif getattr(node.func, "attr", None) == "open":  # Path(...).open(mode)
        position = 0
    else:
        return False
    mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                node.args[position] if len(node.args) > position else None)
    text = mode.value if isinstance(mode, ast.Constant) else None
    return (isinstance(text, str) and "a" in text
            and set(text) <= set("rwxabt+"))


@register
class AppendThroughJsonl(Rule):
    """DET007 — no raw append-mode opens outside ``repro.util.jsonl``.

    The primitive's writer terminates a torn tail before appending; a
    hand-rolled ``O_APPEND`` writer does not, so one torn write splices
    the next good record onto its fragment and both are lost.  Flagged:
    ``os.open`` with ``O_APPEND`` spelled in its arguments, and
    ``open``/``io.open``/``<path>.open`` with a literal append mode, in
    every module but ``repro.util.jsonl``.
    """

    id = "DET007"
    title = "raw append-mode open outside repro.util.jsonl"

    def check(self, module: Module) -> Iterator[Finding]:
        if module.name == "repro.util.jsonl":
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and _is_append_open(node):
                yield self.finding(
                    module, node,
                    "raw append-mode open: append through repro.util.jsonl "
                    "(append for records, write for raw bytes)",
                )
