"""The public API is what something runs.

Every public module-level function, class and constant under
``src/repro`` must be reachable from a caller in ``src/repro``,
``benchmarks/`` or ``examples/``; tests alone do not keep a name alive.
Re-exports in package ``__init__`` files are not callers.  A name counts
as reached when another file references it (a name, an attribute or an
import, ``import X as _X`` included), or when a reached name of its own
module references it.  Module-level statements that run on import
(registration calls, non-``dataclass`` decorators) reach what they
reference.

Every name a package exports in ``__all__`` is defined at module level
somewhere under ``src/repro``, so the scan covers the exported surface.
The only exceptions are paper equations, test oracles and a few
deliberately kept APIs, each listed in ``KEPT`` with its reason.  An
entry goes stale, and fails the test, when its name no longer exists or
when something now reaches it.

A second test holds parameters to the same rule: every defaulted
parameter of a public function or method (``__init__`` is called by its
class's name) must be set by some call in those directories, by
keyword, by position, through ``*``/``**`` unpacking or through
``functools.partial``; calls are matched by name.  A default that
nothing sets is a constant, not an option.  Test oracles and
``KEPT_MODULES`` are skipped, and the few options kept without a caller
(BSPlib primitives, paper equations, CLI ``argv``, registry-built
classes, the ``durable`` fsync switch) are listed in ``KEPT_OPTIONS``
with their reason.  An entry goes stale, and fails the test, when its
parameter is gone or something now sets it.

A third test pins the import graph: importing any ``repro`` package
loads no ``*.reference`` module, so a test oracle never runs in
production.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: Whole modules kept without a production caller.
KEPT_MODULES = {
    "barriers/asymptotic.py": "paper equations: the §6 asymptotic barrier costs",
    "core/fundamental.py": "paper equations: the fundamental superstep equation",
    "core/bsp_classic.py": "paper equations: the classic BSP cost model",
    "bsplib/collectives.py": "its tests are the runtime's main coverage of "
                             "multi-superstep put/get/registration",
}

#: Single names kept without a production caller, keyed by (module, name).
KEPT = {
    ("barriers/correctness.py", "stages_to_completion"):
        "paper equation: stages until every process is informed",
    ("barriers/cost_model.py", "critical_path_recursive"):
        "paper equation: the analytic critical path, the model side of "
        "the simulator's critical-path attribution",
    ("analysis/core.py", "lint_source"):
        "detlint library API documented in docs/analysis.md",
    ("kernels/blas23.py", "dgemm_panel"):
        "the §4.2 extension kernel",
    ("stencil/regions.py", "compute_regions"):
        "the stencil's compute-region decomposition, pinned by its tests",
    ("stencil/regions.py", "ghost_regions"):
        "the stencil's ghost-region decomposition, pinned by its tests",
    ("machine/compute.py", "steady_rate_flops"):
        "paper equation: the §4.3 sustained rate at a footprint",
    ("machine/compute.py", "footprint_knees"):
        "paper equation: the §4.3 rate model's cache-capacity knees",
    ("machine/compute.py", "piecewise_linear_segments"):
        "paper equation: the §4.3 piecewise-linear compute-rate model",
    ("core/matrix_model.py", "SuperstepModel"):
        "paper equations: Eqs. 3.15-3.16, one superstep's combined model",
    ("explore/resilience.py", "deactivate"):
        "the teardown half of activate: the only public way to drop a "
        "process-wide fault plan",
}

_TABLE_6_1 = "optional argument of a BSPlib Table 6.1 primitive"
_EQUATION = "paper equation kept in KEPT; its parameters are the equation's"
_CLI = "command-line entry point: argv is None when run as a program"
_REGISTRY = ("constructed by name through a registry variable, so calls "
             "pass it as cls(...)")
_DURABLE = "fsync safety switch, kept off by default and never a target"

#: Defaulted parameters kept although no call in the caller directories
#: sets them, keyed by (module, function or Class.method, parameters).
KEPT_OPTIONS = {
    ("bsplib/api.py", "BSPContext.init", ("program",)): _TABLE_6_1,
    ("bsplib/api.py", "BSPContext.begin", ("maxprocs",)): _TABLE_6_1,
    ("bsplib/api.py", "BSPContext.abort", ("message",)): _TABLE_6_1,
    ("bsplib/api.py", "BSPContext.hpput", ("offset",)): _TABLE_6_1,
    ("bsplib/api.py", "BSPContext.get", ("nelems", "dst_offset")): _TABLE_6_1,
    ("bsplib/api.py", "BSPContext.hpget", ("nelems", "dst_offset")):
        _TABLE_6_1,
    ("bsplib/api.py", "BSPContext.move", ("max_bytes",)): _TABLE_6_1,
    ("barriers/cost_model.py", "critical_path_recursive", ("payload_bytes",)):
        _EQUATION,
    ("core/matrix_model.py", "SuperstepModel.predict_total",
     ("comm_maskable_fraction",)): _EQUATION,
    ("machine/compute.py", "steady_rate_flops", ("rate_scale",)): _EQUATION,
    ("machine/compute.py", "piecewise_linear_segments", ("rate_scale",)):
        _EQUATION,
    ("analysis/core.py", "lint_source", ("path", "module", "rules")):
        "detlint library API documented in docs/analysis.md",
    ("analysis/cli.py", "main", ("argv",)): _CLI,
    ("explore/cli.py", "main", ("argv",)): _CLI,
    ("explore/campaign.py", "PoolExecutor.__init__",
     ("workers", "policy", "degrade")): _REGISTRY + " in make_executor",
    ("explore/adaptive/samplers.py", "Sampler.__init__",
     ("objective", "objectives", "maximize", "seed")):
        "the samplers' shared constructor, reached through super().__init__",
    ("explore/adaptive/samplers.py", "RandomSampler.__init__", ("seed",)):
        _REGISTRY + " in make_sampler",
    ("explore/adaptive/samplers.py", "StratifiedSampler.__init__", ("seed",)):
        _REGISTRY + " in make_sampler",
    ("explore/adaptive/samplers.py", "SurrogateSampler.__init__",
     ("seed", "warmup", "k", "explore", "ridge")):
        _REGISTRY + " in make_sampler",
    ("explore/adaptive/samplers.py", "SuccessiveHalvingSampler.__init__",
     ("seed", "eta", "fidelity")): _REGISTRY + " in make_sampler",
    ("explore/campaign.py", "run_campaign", ("durable",)): _DURABLE,
    ("explore/adaptive/driver.py", "run_adaptive", ("durable",)): _DURABLE,
    ("obs/critpath.py", "engine_event_graph", ("r",)):
        "set through _graph_builder's returned builder in extract_paths",
    ("obs/critpath.py", "bsp_event_graph", ("r",)):
        "set through _graph_builder's returned builder in extract_paths",
    ("barriers/patterns.py", "linear_barrier", ("root",)):
        "the pattern's master rank; the pattern tests move it",
    ("barriers/patterns.py", "sequential_linear_barrier", ("root",)):
        "the pattern's master rank; the pattern tests move it",
    ("barriers/patterns.py", "kary_dissemination_barrier", ("radix",)):
        "the family's radix; the tests check radix 2 against plain "
        "dissemination and the stage count per radix",
    ("bsplib/runtime.py", "BSPRuntime.__init__", ("placement_policy",)):
        "the oracle tests run block placements, where processes share "
        "nodes and the transmit-NIC FIFOs contend",
    ("bench/bspbench.py", "measure_h_relations", ("h_values",)):
        "the h-relation sha256 pins and the g/l test sample a short h range",
    ("stencil/optimizer.py", "optimize_halo_depth", ("runs",)):
        "measure_halo_iteration's replication axis, which the batched-halo "
        "tests drive through the optimizer",
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(node: ast.AST) -> set[str]:
    """Every identifier ``node`` references: names, attributes, and the
    imported names and module path components of its imports."""
    out: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.ImportFrom) and n.module:
            out.update(n.module.split("."))
    return out


def _bound_names(stmt: ast.stmt) -> list[str]:
    """The names a module-level definition or simple assignment binds."""
    if isinstance(stmt, _DEFS):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return _uses(target) <= {"dataclass", "dataclasses"}


def _unreached(module: ast.Module, external: set[str]) -> set[str]:
    """Module-level names of ``module`` that nothing reaches."""
    units: dict[str, ast.stmt] = {}
    roots: set[str] = set()
    for stmt in module.body:
        names = _bound_names(stmt)
        for name in names:
            units[name] = stmt
        if not names:
            roots |= _uses(stmt)  # runs on import
        elif isinstance(stmt, _DEFS):
            for decorator in stmt.decorator_list:
                roots |= _uses(decorator)
                if not _is_dataclass(decorator):
                    roots.add(stmt.name)  # registered on import
    reached = {name for name in units if name in external or name in roots}
    frontier = list(reached)
    while frontier:
        for name in _uses(units[frontier.pop()]) & (units.keys() - reached):
            reached.add(name)
            frontier.append(name)
    return units.keys() - reached


def _trees() -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for directory in CALLER_DIRS
        for path in sorted(directory.rglob("*.py"))
    }


def _is_reexport(path: Path) -> bool:
    return path.name == "__init__.py" and path.is_relative_to(SRC)


def unreached_public_names() -> set[tuple[str, str]]:
    """``(module, name)`` for every public name nothing reaches, ``KEPT``
    entries included."""
    trees = _trees()
    uses = {path: _uses(tree) for path, tree in trees.items()
            if not _is_reexport(path)}
    found = set()
    for path, tree in trees.items():
        if not path.is_relative_to(SRC) or path.name == "__init__.py":
            continue
        module = path.relative_to(SRC).as_posix()
        if path.name == "reference.py" or module in KEPT_MODULES:
            continue  # test oracles; kept modules
        external = set().union(*(ids for p, ids in uses.items() if p != path))
        found |= {
            (module, name) for name in _unreached(tree, external)
            if not name.startswith("_")
        }
    return found


def test_every_public_name_has_a_caller():
    for module in KEPT_MODULES:
        assert (SRC / module).exists(), f"stale KEPT_MODULES entry: {module}"
    for module, name in KEPT:
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        assert any(name in _bound_names(s) for s in tree.body), (
            f"stale KEPT entry: {module}: {name}"
        )
    unreached = unreached_public_names()
    reached = sorted(f"{m}: {n}" for m, n in KEPT.keys() - unreached)
    assert not reached, (
        "KEPT entries that now have a caller (drop them from KEPT):\n  "
        + "\n  ".join(reached)
    )
    unused = sorted(f"{m}: {n}" for m, n in unreached - KEPT.keys())
    assert not unused, (
        "public names with no caller in src/repro, benchmarks/ or "
        "examples/ (delete them, or add them to KEPT with a reason):\n  "
        + "\n  ".join(unused)
    )


def test_importing_every_package_loads_no_oracle():
    packages = sorted(
        ".".join(("repro", *p.parent.relative_to(SRC).parts))
        for p in SRC.rglob("__init__.py")
    )
    code = (
        "import importlib, sys\n"
        f"for name in {packages!r}:\n"
        "    importlib.import_module(name)\n"
        "print('\\n'.join(sorted(m for m in sys.modules "
        "if m.startswith('repro.') and m.endswith('.reference'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout.split()
    assert out == [], f"importing repro packages loads test oracles: {out}"


def _callee(call: ast.Call) -> tuple[str | None, list, list]:
    """The name ``call`` invokes, with its positional and keyword
    arguments; ``functools.partial(f, ...)`` invokes ``f``."""
    func = call.func
    name = (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)
    if name == "partial" and call.args:
        return _callee(ast.Call(call.args[0], call.args[1:], call.keywords))
    return name, call.args, call.keywords


def _set_options(trees) -> dict[str, tuple[int, set[str]]]:
    """Per callee name, how many leading positional parameters some call
    sets (``*args`` sets them all) and which keywords it sets (``"**"``
    for a ``**kwargs`` unpacking)."""
    out: dict[str, tuple[int, set[str]]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, args, keywords = _callee(node)
            if name is None:
                continue
            npos, kws = out.get(name, (0, set()))
            starred = any(isinstance(a, ast.Starred) for a in args)
            npos = max(npos, sys.maxsize if starred else len(args))
            kws |= {k.arg or "**" for k in keywords}
            out[name] = (npos, kws)
    return out


def _options(tree: ast.Module):
    """``(qualname, callee name, parameter, positional index or None)``
    for every defaulted parameter of a public function or method; a
    method's index skips ``self``, and ``__init__`` is called by its
    class's name."""
    defs = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((stmt.name, stmt.name, stmt, 0))
        elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            for fn in stmt.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                static = any(_uses(d) == {"staticmethod"}
                             for d in fn.decorator_list)
                callee = stmt.name if fn.name == "__init__" else fn.name
                defs.append((f"{stmt.name}.{fn.name}", callee, fn,
                             0 if static else 1))
    for qualname, callee, fn, skip in defs:
        if callee.startswith("_"):
            continue
        a = fn.args
        positional = [*a.posonlyargs, *a.args]
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield qualname, callee, arg.arg, i - skip
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield qualname, callee, arg.arg, None


def unset_options() -> set[tuple[str, str, str]]:
    """``(module, qualname, parameter)`` for every defaulted parameter of
    a public function or method that no call in the caller directories
    sets, ``KEPT_OPTIONS`` entries included."""
    trees = _trees()
    calls = _set_options(trees.values())
    found = set()
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        module = path.relative_to(SRC).as_posix()
        if path.name == "reference.py" or module in KEPT_MODULES:
            continue  # test oracles; kept modules
        for qualname, callee, param, index in _options(tree):
            npos, kws = calls.get(callee, (0, set()))
            if param in kws or "**" in kws or (
                    index is not None and index < npos):
                continue
            found.add((module, qualname, param))
    return found


def test_every_option_is_set_somewhere():
    kept = {(m, q, p) for m, q, params in KEPT_OPTIONS for p in params}
    unset = unset_options()
    never = sorted(f"{m}: {q}({p})" for m, q, p in unset - kept)
    assert not never, (
        "defaulted parameters that no call in src/repro, benchmarks/ or "
        "examples/ sets (delete them and keep the default as a constant, "
        "or add them to KEPT_OPTIONS with a reason):\n  "
        + "\n  ".join(never)
    )
    stale = sorted(f"{m}: {q}({p})" for m, q, p in kept - unset)
    assert not stale, (
        "KEPT_OPTIONS parameters that are gone or now set by a caller "
        "(drop them from KEPT_OPTIONS):\n  " + "\n  ".join(stale)
    )
