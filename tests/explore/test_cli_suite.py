"""The ``suite`` CLI subcommand: listing, regeneration, claims, goldens."""

import json

import pytest

from repro.explore.cli import main
from repro.explore.experiments import EXPERIMENTS, register_experiment
from repro.explore.space import DesignSpace
from repro.explore.suites import (
    SUITES,
    Claim,
    SeriesSpec,
    SuiteSpec,
    register_suite,
)

EXPERIMENT = "cli-suite-test-cube"
SUITE = "cli-toy-suite"


def _monotone(result):
    values = result.series_values("all")
    assert values == sorted(values)


@pytest.fixture(autouse=True)
def _toy_suite():
    register_experiment(EXPERIMENT, "cubes (test only)", x=int)(
        lambda point: {"y": point["x"] ** 3}
    )
    register_suite(SuiteSpec(
        name=SUITE,
        title="Toy: cubes",
        experiment=EXPERIMENT,
        space=DesignSpace.from_dict({"axes": {"x": [1, 2, 3]}}),
        columns=("x", "y"),
        series=(SeriesSpec("all", y="y", x="x"),),
        claims=(Claim("monotone", _monotone),),
    ))
    yield
    SUITES.pop(SUITE, None)
    EXPERIMENTS.pop(EXPERIMENT, None)


def test_suite_without_name_lists_registry(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert SUITE in out
    assert "fig-5-6-to-5-9" in out


def test_suite_unknown_name_exits():
    with pytest.raises(SystemExit, match="unknown suite"):
        main(["suite", "no-such-suite"])


def test_suite_run_reports_claims_and_caches(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main([
        "suite", SUITE, "--store-dir", store, "--executor", "serial",
    ]) == 0
    out = capsys.readouterr().out
    assert "Toy: cubes" in out
    assert "claims ok: monotone" in out
    assert "3 evaluated" in out

    assert main([
        "suite", SUITE, "--store-dir", store, "--executor", "serial",
    ]) == 0
    assert "3 cached (100% hit)" in capsys.readouterr().out


def test_suite_update_then_check_then_perturb(tmp_path, capsys):
    store = str(tmp_path / "store")
    goldens = str(tmp_path / "goldens")
    args = ["--store-dir", store, "--goldens-dir", goldens,
            "--executor", "serial"]

    # --check before any golden exists: actionable failure.
    assert main(["suite", SUITE, "--check", *args]) == 1
    assert "--update-goldens" in capsys.readouterr().out

    assert main(["suite", SUITE, "--update-goldens", *args]) == 0
    assert "golden updated" in capsys.readouterr().out

    assert main(["suite", SUITE, "--check", *args]) == 0
    assert "matches golden" in capsys.readouterr().out

    # Perturb the stored golden: the check must fail and name the path.
    path = f"{goldens}/{SUITE}.json"
    golden = json.loads(open(path).read())
    golden["rows"][0][1] = 999
    with open(path, "w") as fh:
        json.dump(golden, fh)
    assert main(["suite", SUITE, "--check", *args]) == 1
    assert "difference(s)" in capsys.readouterr().out


def _impossible(result):
    raise AssertionError("nope")


def test_failing_claim_sets_exit_code(tmp_path, capsys):
    register_suite(SuiteSpec(
        name="cli-failing-suite",
        title="Toy: failing",
        experiment=EXPERIMENT,
        space=DesignSpace.from_dict({"axes": {"x": [1]}}),
        claims=(Claim("impossible", _impossible),),
    ))
    try:
        assert main([
            "suite", "cli-failing-suite",
            "--store-dir", str(tmp_path / "store"), "--executor", "serial",
        ]) == 1
        assert "CLAIM FAILED" in capsys.readouterr().out
    finally:
        SUITES.pop("cli-failing-suite", None)
