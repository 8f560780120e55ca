"""CLI behaviour: formats, exit codes, flags, self-cleanliness.

The CLI is exercised in-process through ``repro.analysis.cli.main`` —
same code path as ``python -m repro.analysis``, without per-test
interpreter startup.
"""

import json
import os
import textwrap

import pytest

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
    assert set(payload["findings"][0]) == {
        "rule", "path", "line", "col", "message", "snippet",
    }


@pytest.mark.parametrize(
    "flag", ["--baseline", "--write-baseline", "--justification"]
)
def test_baseline_flags_are_unrecognised(dirty_tree, flag, capsys):
    """An inline ``allow[...]`` comment is the only way to exempt a
    finding; the JSON baseline workflow is gone."""
    with pytest.raises(SystemExit) as exc:
        main([str(dirty_tree), flag, "x.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2


def test_unknown_rule_selection_exits_two(dirty_tree, capsys):
    assert main([str(dirty_tree), "--rules", "DET999"]) == 2


def test_rule_selection_filters(dirty_tree):
    assert main([str(dirty_tree), "--rules", "DET003"]) == 0
    assert main([str(dirty_tree), "--rules", "DET002"]) == 1


def test_list_rules_and_explain(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET002", "DET003", "DET004", "DET005", "DET006",
                    "DET007"):
        assert rule_id in out
    assert main(["--explain", "det003"]) == 0
    assert "wall-clock" in capsys.readouterr().out.lower()
    assert main(["--explain", "DET999"]) == 2


def test_repository_tree_is_clean():
    """The acceptance criterion: ``python -m repro.analysis src/repro``
    exits 0 on the checked-in tree."""
    src = os.path.join(REPO_ROOT, "src", "repro")
    assert main([src]) == 0
