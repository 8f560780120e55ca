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

A second test pins the import graph: importing any ``repro`` package
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
