"""Resilience layer units: policy, fault plans, drivers, quarantine."""

import json
import os

import pytest

from repro.explore.campaign import (
    Campaign,
    CampaignPointError,
    ChunkedProcessPoolExecutor,
    PointFailure,
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
    run_campaign,
)
from repro.explore.experiments import register_experiment
from repro.explore.resilience import (
    ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    activate,
    append_quarantine,
    current_plan,
    deactivate,
    maybe_inject,
    quarantine_path,
    read_quarantine,
    serial_map_with_retry,
)
from repro.explore.space import DesignSpace


@register_experiment("resil-square", "square the n parameter (test only)")
def _square(point):
    if point.get("explode"):
        raise RuntimeError("requested failure")
    return {"square": point["n"] ** 2, "label": f"n={point['n']}"}


@pytest.fixture(autouse=True)
def _no_active_plan():
    deactivate()
    yield
    deactivate()


def space_of(ns, **constants):
    return DesignSpace.from_dict(
        {"axes": {"n": list(ns)}, "constants": constants}
    )


# ----------------------------------------------------------------- RetryPolicy

def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(point_timeout_s=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base_s=-1.0)
    assert RetryPolicy().is_noop
    assert not RetryPolicy(max_attempts=2).is_noop
    assert not RetryPolicy(point_timeout_s=1.0).is_noop


def test_backoff_is_deterministic_and_exponential():
    policy = RetryPolicy(max_attempts=5, backoff_base_s=0.1, jitter_seed=3)
    first = policy.backoff_s("k1", 1)
    assert first == policy.backoff_s("k1", 1)  # pure function
    assert policy.backoff_s("k1", 2) != first  # varies with attempt
    assert policy.backoff_s("k2", 1) != first  # varies with point
    # Jitter scales the base by [0.5, 1.5); doubling holds in expectation
    # bounds per attempt.
    for attempt in (1, 2, 3):
        delay = policy.backoff_s("k1", attempt)
        base = 0.1 * 2 ** (attempt - 1)
        assert 0.5 * base <= delay < 1.5 * base


def test_backoff_respects_cap_and_seed():
    capped = RetryPolicy(
        max_attempts=9, backoff_base_s=1.0, backoff_max_s=0.25
    )
    assert capped.backoff_s("k", 8) == 0.25
    a = RetryPolicy(max_attempts=2, jitter_seed=0).backoff_s("k", 1)
    b = RetryPolicy(max_attempts=2, jitter_seed=1).backoff_s("k", 1)
    assert a != b


# ------------------------------------------------------------------ FaultPlan

def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind="nope")
    with pytest.raises(ValueError):
        FaultSpec(kind="exception", site="nope")
    with pytest.raises(ValueError):
        FaultSpec(kind="exception", rate=1.5)


def test_fault_plan_json_round_trip():
    plan = FaultPlan(
        faults=(
            FaultSpec(kind="exception", rate=0.5, times=2),
            FaultSpec(kind="torn-append", site="cache.put"),
        ),
        seed=11,
        state_dir="/tmp/x",
    )
    assert FaultPlan.from_json(plan.to_json()) == plan
    with pytest.raises(ValueError):
        FaultPlan.from_json("not json")
    with pytest.raises(ValueError):
        FaultPlan.from_json("[1, 2]")


def test_activation_exports_env_and_fills_state_dir(tmp_path):
    plan = activate(FaultPlan(faults=(FaultSpec(kind="exception"),)))
    assert plan.state_dir is not None and os.path.isdir(plan.state_dir)
    exported = FaultPlan.from_json(os.environ[ENV_VAR])
    assert exported == plan
    assert current_plan() == plan
    deactivate()
    assert ENV_VAR not in os.environ
    assert current_plan() is None


def test_env_var_is_honoured_lazily(tmp_path, monkeypatch):
    plan = FaultPlan(
        faults=(FaultSpec(kind="exception"),), state_dir=str(tmp_path)
    )
    deactivate()
    monkeypatch.setenv(ENV_VAR, plan.to_json())
    # deactivate() marked env as checked; force a re-check as a fresh
    # process (e.g. a spawned worker) would see it.
    from repro.explore import resilience

    resilience._STATE.env_checked = False
    assert current_plan() == plan


def test_firing_budget_is_shared_through_the_ledger(tmp_path):
    plan = activate(FaultPlan(
        faults=(FaultSpec(kind="exception", times=2),),
        state_dir=str(tmp_path),
    ))
    with pytest.raises(FaultInjected):
        plan.inject("evaluate", "exp", "point-a")
    with pytest.raises(FaultInjected):
        plan.inject("evaluate", "exp", "point-a")
    plan.inject("evaluate", "exp", "point-a")  # budget exhausted: no-op
    # A different point has its own budget.
    with pytest.raises(FaultInjected):
        plan.inject("evaluate", "exp", "point-b")


def test_targeting_is_seeded_and_experiment_scoped(tmp_path):
    plan = FaultPlan(
        faults=(FaultSpec(kind="exception", rate=0.5, experiment="only-*"),),
        seed=7,
        state_dir=str(tmp_path),
    )
    keys = [f"key-{i}" for i in range(64)]
    hit = [k for k in keys if plan._targets(0, plan.faults[0], k, "only-x")]
    assert 0 < len(hit) < len(keys)  # rate selects a strict subset
    again = [k for k in keys if plan._targets(0, plan.faults[0], k, "only-x")]
    assert hit == again  # same seed, same targets
    assert not plan._targets(0, plan.faults[0], keys[0], "other")


def test_maybe_inject_is_inert_without_a_plan():
    maybe_inject("evaluate", "exp", "key")  # no plan active: no-op


# ------------------------------------------------------------- serial driver

def test_serial_retry_converges_within_budget():
    attempts = {"n": 0}

    def flaky(task):
        attempts["n"] += 1
        if attempts["n"] < 3:
            return False, {"error": "boom", "error_type": "RuntimeError"}
        return True, {"v": task}

    policy = RetryPolicy(max_attempts=3, backoff_base_s=0.0)
    out = serial_map_with_retry(flaky, ["t"], policy, keys=["k"])
    assert out == [(True, {"v": "t"})]
    assert attempts["n"] == 3


def test_serial_retry_quarantines_on_exhaustion():
    def always_fails(task):
        return False, {"error": "boom", "error_type": "RuntimeError",
                       "traceback": "tb"}

    policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
    (ok, details), = serial_map_with_retry(
        always_fails, ["t"], policy, keys=["k"]
    )
    assert not ok
    assert details["quarantined"] is True
    assert details["attempts"] == 2
    assert details["reason"] == "exception"
    assert details["error"] == "boom"
    assert details["traceback"] == "tb"
    assert details["elapsed_s"] >= 0.0


# --------------------------------------------------------- quarantine records

def test_quarantine_path_and_round_trip(tmp_path):
    store = tmp_path / "camp.jsonl"
    sidecar = quarantine_path(store)
    assert sidecar.endswith("camp.quarantine.jsonl")
    append_quarantine(sidecar, {"key": "a", "attempts": 2})
    append_quarantine(sidecar, {"key": "b", "attempts": 3})
    records = read_quarantine(sidecar)
    assert [r["key"] for r in records] == ["a", "b"]
    assert read_quarantine(tmp_path / "missing.jsonl") == []


def test_campaign_writes_quarantine_sidecar(tmp_path):
    activate(FaultPlan(faults=(FaultSpec(kind="exception", times=0),)))
    outcome = run_campaign(
        "q", space_of([1, 2]), "resil-square", store_dir=tmp_path,
        on_error="store",
        policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
    )
    assert outcome.stats.failed == 2
    assert outcome.stats.quarantined == 2
    records = read_quarantine(Campaign.quarantine_path(tmp_path, "q"))
    assert len(records) == 2
    rec = records[0]
    assert rec["experiment"] == "resil-square"
    assert rec["attempts"] == 2
    assert rec["reason"] == "exception"
    assert rec["error_type"] == "FaultInjected"
    assert "FaultInjected" in rec["traceback"]
    assert rec["point"]["n"] in (1, 2)
    # failures are never written to the result store itself
    store_text = (tmp_path / "q.jsonl").read_text() \
        if (tmp_path / "q.jsonl").exists() else ""
    assert "FaultInjected" not in store_text


def test_exhausted_points_are_retried_next_run(tmp_path):
    policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
    activate(FaultPlan(faults=(FaultSpec(kind="exception", times=4),)))
    first = run_campaign(
        "q", space_of([5]), "resil-square", store_dir=tmp_path,
        on_error="store", policy=policy,
    )
    assert first.stats.quarantined == 1
    # Two firings remain; the re-run burns them and converges.
    second = run_campaign(
        "q", space_of([5]), "resil-square", store_dir=tmp_path,
        on_error="store", policy=policy,
    )
    assert second.stats.quarantined == 1
    third = run_campaign(
        "q", space_of([5]), "resil-square", store_dir=tmp_path,
        on_error="store", policy=policy,
    )
    assert third.stats.failed == 0
    assert third.results.values("square") == [25]


# ----------------------------------------------------------- error chaining

def test_campaign_point_error_chains_the_worker_failure():
    with pytest.raises(CampaignPointError) as excinfo:
        run_campaign(
            "boom", space_of([1], explode=True), "resil-square"
        )
    cause = excinfo.value.__cause__
    assert isinstance(cause, PointFailure)
    assert cause.error_type == "RuntimeError"
    assert "requested failure" in cause.error
    assert "requested failure" in (cause.remote_traceback or "")
    assert "worker traceback" in str(cause)


# ------------------------------------------------------------ executor wiring

def test_make_executor_threads_policy_and_degrade():
    policy = RetryPolicy(max_attempts=2)
    serial = make_executor("serial", policy=policy)
    assert isinstance(serial, SerialExecutor)
    assert serial.policy is policy
    pool = make_executor("process", 2, policy=policy, degrade=True)
    assert isinstance(pool, ProcessPoolExecutor)
    assert pool.policy is policy and pool.degrade
    assert pool.chunk_size == 1
    chunked = make_executor("chunked", 2, policy=policy, degrade=True)
    assert isinstance(chunked, ChunkedProcessPoolExecutor)
    assert chunked.policy is policy and chunked.degrade
    # a ready-made instance with its own policy passes through untouched
    own = SerialExecutor(policy=policy)
    assert make_executor(own) is own
    assert own.policy is policy


@pytest.mark.parametrize("executor", ["process", "chunked"])
def test_noop_policy_failures_are_not_quarantined(executor, tmp_path):
    space = DesignSpace.from_dict(
        {"axes": {"n": [1, 2], "explode": [False, True]}}
    )
    # Without a policy a failing point gets one attempt and comes back as
    # the worker reported it: failed, not quarantined, no sidecar.
    plain = run_campaign(
        "plain", space, "resil-square", store_dir=tmp_path,
        executor=executor, workers=2, on_error="store",
    )
    assert (plain.stats.failed, plain.stats.quarantined) == (2, 0)
    assert not os.path.exists(Campaign.quarantine_path(tmp_path, "plain"))
    # With one, exhausted points quarantine as they do under serial.
    retried = run_campaign(
        "retried", space, "resil-square", store_dir=tmp_path,
        executor=executor, workers=2, on_error="store",
        policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
    )
    assert (retried.stats.failed, retried.stats.quarantined) == (2, 2)
    records = read_quarantine(Campaign.quarantine_path(tmp_path, "retried"))
    assert [(r["attempts"], r["reason"]) for r in records] == [
        (2, "exception"), (2, "exception")
    ]


def test_cli_reports_quarantine_and_strict_fails(tmp_path, capsys):
    from repro.explore.cli import main

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "qcli",
        "experiment": "resil-square",
        "space": {"axes": {"n": [1, 2]}},
    }))
    store = str(tmp_path / "store")
    activate(FaultPlan(faults=(FaultSpec(kind="exception", times=0),)))
    code = main([
        "run", str(spec), "--store-dir", store, "--keep-going",
        "--max-retries", "1", "--executor", "serial",
    ])
    assert code == 0
    assert "2 quarantined" in capsys.readouterr().out
    deactivate()
    code = main(["results", "qcli", "--store-dir", store, "--strict"])
    out = capsys.readouterr().out
    assert code == 1
    assert "exhausted their retry budget" in out
    assert "FaultInjected" in out
