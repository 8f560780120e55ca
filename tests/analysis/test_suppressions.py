"""Inline suppressions."""

import textwrap

from repro.analysis import lint_source

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
