"""Inline suppressions and baseline round-trips."""

import textwrap

import pytest

from repro.analysis import (
    BaselineError,
    lint_paths,
    lint_source,
    load_baseline,
    save_baseline,
)

VIOLATION = textwrap.dedent("""
    import random

    def draw():
        return random.random()
""")


def test_allow_on_finding_line_suppresses():
    src = VIOLATION.replace(
        "return random.random()",
        "return random.random()  # repro: allow[DET002]",
    )
    assert lint_source(src, module="pkg.mod") == []


def test_allow_on_preceding_line_suppresses():
    src = VIOLATION.replace(
        "    return random.random()",
        "    # repro: allow[DET002] -- intentionally nondeterministic demo\n"
        "    return random.random()",
    )
    assert lint_source(src, module="pkg.mod") == []


def test_allow_for_other_rule_does_not_suppress():
    src = VIOLATION.replace(
        "return random.random()",
        "return random.random()  # repro: allow[DET003]",
    )
    assert [f.rule for f in lint_source(src, module="pkg.mod")] == ["DET002"]


def test_allow_multiple_rules_in_one_marker():
    src = VIOLATION.replace(
        "return random.random()",
        "return random.random()  # repro: allow[DET003, DET002]",
    )
    assert lint_source(src, module="pkg.mod") == []


def test_allow_inside_string_literal_is_inert():
    src = textwrap.dedent("""
        import random

        MARKER = "# repro: allow[DET002]"

        def draw():
            return random.random()
    """)
    assert [f.rule for f in lint_source(src, module="pkg.mod")] == ["DET002"]


# ------------------------------------------------------------------ baseline


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(VIOLATION)
    return tmp_path


def test_baseline_round_trip_suppresses_and_tracks_unused(tree):
    result = lint_paths([str(tree)])
    assert [f.rule for f in result.findings] == ["DET002"]

    path = tree / "baseline.json"
    save_baseline(str(path), result.findings, "grandfathered in PR 10")
    baseline = load_baseline(str(path))

    new, old, unused = baseline.split(result.findings)
    assert new == [] and len(old) == 1 and unused == []

    # Fix the violation: the entry goes stale and is reported unused.
    (tree / "pkg" / "mod.py").write_text("def draw(rng):\n    return rng.random()\n")
    clean = lint_paths([str(tree)])
    new, old, unused = baseline.split(clean.findings)
    assert new == [] and old == [] and len(unused) == 1
    assert unused[0].rule == "DET002"


def test_baseline_fingerprint_survives_line_shifts(tree):
    before = lint_paths([str(tree)]).findings
    path = tree / "baseline.json"
    save_baseline(str(path), before, "justified")
    baseline = load_baseline(str(path))

    # Prepend unrelated code: line numbers shift, the entry still matches.
    mod = tree / "pkg" / "mod.py"
    mod.write_text("X = 1\nY = 2\n" + mod.read_text())
    after = lint_paths([str(tree)]).findings
    assert [f.rule for f in after] == ["DET002"]
    assert after[0].line != before[0].line
    new, old, unused = baseline.split(after)
    assert new == [] and len(old) == 1 and unused == []


def test_baseline_without_justification_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        '{"version": 1, "entries": [{"rule": "DET002", "path": "x.py",'
        ' "fingerprint": "abcd", "justification": "  "}]}'
    )
    with pytest.raises(BaselineError, match="justification"):
        load_baseline(str(path))


def test_save_baseline_without_justification_rejected(tmp_path):
    with pytest.raises(BaselineError, match="justification"):
        save_baseline(str(tmp_path / "b.json"), [], "")


def test_baseline_bad_schema_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"version": 99, "entries": []}')
    with pytest.raises(BaselineError, match="version"):
        load_baseline(str(path))
