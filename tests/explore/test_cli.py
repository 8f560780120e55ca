"""CLI surface: spec run, ls/results round trip, registry listings."""

import json

import pytest

from repro.explore.cli import main


@pytest.fixture
def spec_path(tmp_path):
    spec = {
        "name": "cli-demo",
        "experiment": "barrier-cost",
        "space": {
            "axes": {
                "preset": ["xeon-8x2x4"],
                "pattern": ["linear", "dissemination"],
                "nprocs": [8],
            },
            "constants": {"runs": 2, "comm_samples": 3},
        },
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_run_then_results_round_trip(spec_path, tmp_path, capsys):
    store = str(tmp_path / "campaigns")
    assert main(["run", spec_path, "--store-dir", store]) == 0
    out = capsys.readouterr().out
    assert "2 points (2 computed, 0 served from cache" in out
    assert "dissemination" in out

    assert main(["run", spec_path, "--store-dir", store]) == 0
    out = capsys.readouterr().out
    assert "(0 computed, 2 served from cache" in out
    assert "hit rate 100%" in out

    assert main(["ls", "--store-dir", store]) == 0
    out = capsys.readouterr().out
    assert "cli-demo" in out and "2" in out

    assert main(["results", "cli-demo", "--store-dir", store, "--table",
                 "--sort", "measured_s", "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert "measured_s" in out and "pattern" in out


def test_spec_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x"}))
    with pytest.raises(SystemExit, match="experiment"):
        main(["run", str(bad)])


def test_registry_listings(capsys):
    assert main(["presets"]) == 0
    assert "xeon-8x2x4" in capsys.readouterr().out
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "barrier-cost" in out and "stencil-predict" in out


def test_ls_empty_store(tmp_path, capsys):
    assert main(["ls", "--store-dir", str(tmp_path / "missing")]) == 0
    assert "no campaigns" in capsys.readouterr().out


def test_ls_counts_live_records(tmp_path, capsys):
    from repro.explore.cache import CorruptStoreWarning, ResultCache

    store = tmp_path / "campaigns"
    cache = ResultCache(store / "demo.jsonl")
    cache.put("a", {"v": 1})
    cache.put("b", {"v": 2})
    cache.put("a", {"v": 3})  # supersedes the first put
    with open(store / "demo.jsonl", "ab") as fh:
        fh.write(b'{"key": "c", "rec')  # torn tail
    with pytest.warns(CorruptStoreWarning):
        assert main(["ls", "--store-dir", str(store)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["demo", "2", str(store / "demo.jsonl")] in rows


def test_adapt_runs_within_budget_and_reports_best(spec_path, tmp_path,
                                                   capsys):
    store = str(tmp_path / "campaigns")
    assert main([
        "adapt", spec_path, "--budget", "1",
        "--objective", "measured_s", "--strategy", "random",
        "--store-dir", store,
    ]) == 0
    out = capsys.readouterr().out
    assert "1 of 2 points" in out
    assert "best measured_s" in out
    # The adaptive store serves a later exhaustive run of the same spec.
    assert main(["run", spec_path, "--store-dir", store]) == 0
    assert "1 computed, 1 served from cache" in capsys.readouterr().out


def test_adapt_requires_an_objective(spec_path):
    with pytest.raises(SystemExit, match="objective"):
        main(["adapt", spec_path, "--budget", "2"])


def test_adapt_rejects_unknown_strategy(spec_path):
    with pytest.raises(SystemExit, match="unknown sampling strategy"):
        main(["adapt", spec_path, "--budget", "2",
              "--objective", "measured_s", "--strategy", "genetic"])


def test_adapt_option_parsing(spec_path, tmp_path):
    # fidelity=nprocs parses as a string, eta=2 as a number.
    assert main([
        "adapt", spec_path, "--budget", "2",
        "--objective", "measured_s", "--strategy", "halving",
        "--option", "fidelity=nprocs", "--option", "eta=2",
        "--store-dir", str(tmp_path / "s"),
    ]) == 0
    with pytest.raises(SystemExit, match="KEY=VALUE"):
        main(["adapt", spec_path, "--budget", "2",
              "--objective", "measured_s", "--option", "broken"])


def test_results_summary_and_csv(spec_path, tmp_path, capsys):
    store = str(tmp_path / "campaigns")
    assert main(["run", spec_path, "--store-dir", store]) == 0
    capsys.readouterr()
    csv_path = str(tmp_path / "export.csv")
    # By campaign name under --store-dir...
    assert main(["results", "cli-demo", "--store-dir", store,
                 "--csv", csv_path, "--table"]) == 0
    out = capsys.readouterr().out
    assert "2 records (0 failed)" in out
    assert "measured_s" in out
    assert "wrote 2 records" in out
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("comm_samples,")
    # ...and by direct path to the store file.
    assert main(["results", f"{store}/cli-demo.jsonl"]) == 0
    assert "2 records" in capsys.readouterr().out


def test_results_unknown_store_exits(tmp_path):
    """An unknown campaign name under --store-dir is a clean exit."""
    with pytest.raises(SystemExit, match="no store file"):
        main(["results", "nope", "--store-dir", str(tmp_path)])


def test_show_unknown_campaign_exits(tmp_path, capsys):
    """``show`` is gone (``results NAME`` replaces it); asking for it is a
    clean usage error, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["show", "nope", "--store-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'show'" in capsys.readouterr().err


def test_adapt_misspelled_objective_is_a_clean_error(spec_path, tmp_path):
    with pytest.raises(SystemExit, match="no successful records carry"):
        main(["adapt", spec_path, "--budget", "1",
              "--objective", "mesured_s",  # typo
              "--store-dir", str(tmp_path / "s")])


def test_adapt_maximize_named_metric_ranks_best_first(spec_path, tmp_path,
                                                      capsys):
    assert main([
        "adapt", spec_path, "--budget", "2", "--strategy", "random",
        "--objective", "measured_s", "--maximize", "measured_s",
        "--store-dir", str(tmp_path / "s"),
    ]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    header = next(line for line in lines if "measured_s" in line.split())
    columns = header.split()
    rows = [line.split() for line in lines
            if line.split() and line.split()[0] == "3"]  # comm_samples col
    assert len(rows) == 2
    # The table's first row must carry the maximised best, not the worst.
    values = [float(row[columns.index("measured_s")]) for row in rows]
    assert values == sorted(values, reverse=True)
