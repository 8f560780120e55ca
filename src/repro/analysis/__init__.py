"""``repro.analysis`` — detlint, the determinism-contract linter.

The engine's reproducibility rests on contracts that used to live only
in prose (``docs/engine.md``) and in dynamic tests: bulk seeded draws
under a documented order, no wall-clock on compute paths, canonical
iteration orders, picklable executor payloads, telemetry that never
perturbs results.  This package is the executable form of those
contracts: an AST-based rule pack (DET002–DET007) whose only exemption
is an inline ``# repro: allow[RULE]`` comment, run as
``python -m repro.analysis [paths...]`` and gated in CI.

See ``docs/analysis.md`` for the rule catalogue and workflows.
"""

from repro.analysis.core import (
    Finding,
    LintResult,
    Module,
    Rule,
    RULES,
    all_rules,
    lint_paths,
    lint_source,
    register,
)
from repro.analysis import rules as _rules  # noqa: F401  (registers DET002-007)

__all__ = [
    "Finding",
    "LintResult",
    "Module",
    "RULES",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "register",
]
