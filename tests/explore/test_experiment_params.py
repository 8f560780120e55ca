"""Declared point parameters: binding, unknown-key rejection, defaults
kept out of stores, and every shipped space checked against its table."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.explore import DesignSpace, run_adaptive, run_campaign
from repro.explore.cache import record_key
from repro.explore.campaign import Campaign, CampaignPointError
from repro.explore.cli import main
from repro.explore.experiments import (
    EXPERIMENTS,
    REQUIRED,
    get_experiment,
    register_experiment,
    run_point,
)
from repro.explore.suites import get_suite, suite_names

ROOT = Path(__file__).resolve().parents[2]

CALLS = []


@register_experiment(
    "test-declared", "doubles (test only)", n=int, scale=(float, 1.0),
)
def _declared(point):
    CALLS.append(dict(point))
    return {"double": 2 * point["n"] * point["scale"]}


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()
    yield


BARRIER = {
    "preset": "xeon-8x2x4", "pattern": "dissemination", "nprocs": 4,
    "runs": 2, "comm_samples": 3,
}


def test_run_point_rejects_a_misspelled_key():
    point = {**BARRIER, "comm_sample": 3}
    del point["comm_samples"]
    with pytest.raises(ValueError, match="'comm_sample'") as info:
        run_point("barrier-cost", point)
    # The message names the known parameters, and the near miss.
    assert "comm_samples" in str(info.value)
    assert "nprocs" in str(info.value)


def test_campaign_rejects_a_misspelled_key_before_running(tmp_path):
    space = {"axes": {"nprocs": [4, 8]},
             "constants": {**BARRIER, "rnus": 9}}
    del space["constants"]["nprocs"]
    with pytest.raises(ValueError, match="'rnus'"):
        run_campaign("typo", space, "barrier-cost", store_dir=tmp_path)
    assert not (tmp_path / "typo.jsonl").exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("space", [
    {"axes": {"n": [1, 2], "scael": [2.0]}},
    {"axes": {"n": [1, 2]}, "constants": {"scael": 2.0}},
    {"axes": {"n": [1, 2]}, "points": [{"n": 3, "scael": 2.0}]},
], ids=["axis", "constant", "explicit-point"])
def test_every_place_a_space_names_a_key_is_checked(space, tmp_path):
    with pytest.raises(ValueError, match="'scael'"):
        Campaign("typo", DesignSpace.from_dict(space), "test-declared",
                 store_dir=tmp_path, executor="chunked")
    assert CALLS == []
    assert list(tmp_path.iterdir()) == []


def test_adaptive_campaign_rejects_a_misspelled_key(tmp_path):
    space = DesignSpace.from_dict(
        {"axes": {"n": list(range(10))}, "constants": {"sacle": 2.0}}
    )
    with pytest.raises(ValueError, match="'sacle'"):
        run_adaptive("typo", space, "test-declared",
                     {"budget": 4, "strategy": "random", "objective": "double"},
                     store_dir=tmp_path)
    assert CALLS == []
    assert list(tmp_path.iterdir()) == []


def test_cli_run_rejects_a_misspelled_key(tmp_path):
    spec = {
        "name": "typo", "experiment": "barrier-cost",
        "space": {"axes": {"pattern": ["linear"]},
                  "constants": {**BARRIER, "rnus": 9}},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    store = tmp_path / "campaigns"
    with pytest.raises(SystemExit, match="'rnus'"):
        main(["run", str(path), "--store-dir", str(store)])
    assert not (store / "typo.jsonl").exists()


def test_missing_required_parameter_fails_per_point():
    space = DesignSpace.from_dict({"points": [{"n": 2}, {"scale": 3.0}]})
    outcome = run_campaign("missing", space, "test-declared",
                           on_error="store")
    assert outcome.stats.failed == 1
    assert "'n'" in outcome.results[1].metrics["error"]
    assert outcome.results[0].metrics == {"double": 4.0}
    with pytest.raises(CampaignPointError, match="'n'"):
        run_campaign("missing", space, "test-declared")


def test_bind_casts_fills_defaults_and_records_what_was_given():
    bound = get_experiment("test-declared").bind({"n": "3"})
    assert bound == {"n": 3, "scale": 1.0}
    assert bound.given == {"n"}
    assert run_point("test-declared", {"n": 2, "scale": 2}) == {"double": 8.0}
    assert CALLS[-1] == {"n": 2, "scale": 2.0}


def test_stored_point_is_the_raw_point(tmp_path):
    raw = {"n": 5}
    outcome = run_campaign("raw", DesignSpace.from_dict({"points": [raw]}),
                           "test-declared", store_dir=tmp_path)
    record = outcome.results[0]
    assert record.point == raw
    assert record.key == record_key("test-declared", raw)
    (line,) = (tmp_path / "raw.jsonl").read_text().splitlines()
    assert json.loads(line)["record"]["point"] == raw
    # The adapter saw the default; the store did not.
    assert CALLS == [{"n": 5, "scale": 1.0}]


@pytest.mark.parametrize("experiment", ["stencil-run", "stencil-accuracy"])
def test_stencil_runs_adds_ensemble_fields_only_when_given(experiment):
    point = {"preset": "xeon-8x2x4", "impl": "BSP", "n": 96, "nprocs": 4}
    if experiment == "stencil-accuracy":
        point["comm_samples"] = 3
    plain = run_point(experiment, point)
    assert not [k for k in plain if k.startswith("ensemble_")]
    # Giving the default value explicitly is still "given".
    given = run_point(experiment, {**point, "runs": 1})
    assert given["ensemble_runs"] == 1
    assert {k: given[k] for k in plain} == plain
    # The MPI family has no replication axis and no ensemble fields.
    mpi = run_point(experiment, {**point, "impl": "MPI"})
    assert not [k for k in mpi if k.startswith("ensemble_")]
    with pytest.raises(ValueError, match="runs is only supported"):
        run_point(experiment, {**point, "impl": "MPI", "runs": 1})


def _suite_spaces():
    for name in suite_names():
        spec = get_suite(name)
        yield pytest.param(spec.experiment, spec.space, id=name)
    for example in ("explore_barrier_space", "adaptive_barrier_space"):
        path = ROOT / "examples" / f"{example}.py"
        module_spec = importlib.util.spec_from_file_location(example, path)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        yield pytest.param("barrier-cost", module.SPACE, id=example)


@pytest.mark.parametrize("experiment, space", list(_suite_spaces()))
def test_shipped_spaces_name_only_declared_parameters(experiment, space):
    get_experiment(experiment).check(space.parameter_names())


BUILTINS = [
    name for name, exp in EXPERIMENTS.items()
    if exp.fn.__module__ == "repro.explore.experiments"
]


@pytest.mark.parametrize("name", BUILTINS)
def test_descriptions_name_no_parameter(name):
    experiment = EXPERIMENTS[name]
    for param in experiment.params:
        assert not re.search(
            rf"(?<![\w-]){re.escape(param)}(?![\w-])", experiment.description
        ), (name, param)


def test_experiments_listing_prints_every_parameter_and_default(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    blocks = {
        block.split(":", 1)[0]: block for block in out.strip().split("\n\n")
    }
    for name in BUILTINS:
        rows = {
            line.split()[0]: line.split()[-1]
            for line in blocks[name].splitlines()[3:]
        }
        expected = {
            key: "(required)" if default is REQUIRED else json.dumps(default)
            for key, (_, default) in EXPERIMENTS[name].params.items()
        }
        assert rows == expected, name
