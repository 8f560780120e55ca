"""CLI behaviour: formats, exit codes, baseline flags, self-cleanliness.

The CLI is exercised in-process through ``repro.analysis.cli.main`` —
same code path as ``python -m repro.analysis``, without per-test
interpreter startup.
"""

import json
import os
import textwrap

import pytest

from repro.analysis import load_baseline
from repro.analysis.cli import main

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


@pytest.fixture
def dirty_tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent("""
        import random

        def draw():
            return random.random()
    """))
    return tmp_path


def test_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("def f(rng):\n    return rng.normal()\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


def test_findings_exit_one_text_format(dirty_tree, capsys):
    assert main([str(dirty_tree)]) == 1
    out = capsys.readouterr().out
    assert "DET002" in out and "mod.py:5" in out
    assert "return random.random()" in out  # snippet line


def test_github_format(dirty_tree, capsys):
    assert main([str(dirty_tree), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "title=DET002" in out


def test_json_format(dirty_tree, capsys):
    assert main([str(dirty_tree), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"] == 2
    assert [f["rule"] for f in payload["findings"]] == ["DET002"]
    assert payload["findings"][0]["fingerprint"]


def test_write_then_check_baseline(dirty_tree, capsys):
    baseline = dirty_tree / "baseline.json"
    assert main([
        str(dirty_tree), "--write-baseline", str(baseline),
        "--justification", "grandfathered for the migration",
    ]) == 0
    entries = load_baseline(str(baseline)).entries
    assert len(entries) == 1
    assert entries[0].justification == "grandfathered for the migration"

    capsys.readouterr()
    assert main([str(dirty_tree), "--baseline", str(baseline)]) == 0
    assert capsys.readouterr().out == ""  # the finding is baselined


def test_unused_baseline_entry_fails_the_run(dirty_tree, capsys):
    baseline = dirty_tree / "baseline.json"
    main([
        str(dirty_tree), "--write-baseline", str(baseline),
        "--justification", "temporary",
    ])
    (dirty_tree / "pkg" / "mod.py").write_text("def f():\n    return 1\n")
    assert main([str(dirty_tree), "--baseline", str(baseline)]) == 1
    err = capsys.readouterr().err
    assert "unused baseline entry" in err


def test_write_baseline_requires_justification(dirty_tree, capsys):
    code = main([str(dirty_tree), "--write-baseline",
                 str(dirty_tree / "b.json")])
    assert code == 2
    assert "justification" in capsys.readouterr().err


def test_missing_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2


def test_unknown_rule_selection_exits_two(dirty_tree, capsys):
    assert main([str(dirty_tree), "--rules", "DET999"]) == 2


def test_rule_selection_filters(dirty_tree):
    assert main([str(dirty_tree), "--rules", "DET001"]) == 0
    assert main([str(dirty_tree), "--rules", "DET002"]) == 1


def test_list_rules_and_explain(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "DET003",
                    "DET004", "DET005", "DET006", "DET007"):
        assert rule_id in out
    assert main(["--explain", "det003"]) == 0
    assert "wall-clock" in capsys.readouterr().out.lower()
    assert main(["--explain", "DET999"]) == 2


def test_repository_tree_is_clean():
    """The acceptance criterion: ``python -m repro.analysis src/repro``
    exits 0 on the PR head with an empty baseline."""
    src = os.path.join(REPO_ROOT, "src", "repro")
    baseline = os.path.join(REPO_ROOT, "detlint-baseline.json")
    assert main([src]) == 0
    assert main([src, "--baseline", baseline]) == 0
    assert load_baseline(baseline).entries == []
