"""Chaos tests: injected faults must not change campaign results.

Every test runs a fault-free baseline, then the same campaign under a
seeded :class:`FaultPlan`, and asserts the ResultSets are bit-identical —
the resilience layer may change *when* points are computed (retries,
pool rebuilds, serial fallback) but never *what* they evaluate to.
Convergence is guaranteed whenever each point's fault budget (``times``)
is below the policy's ``max_attempts``: every failed attempt consumes
one firing, and worker kills consume firings without even consuming an
attempt.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.explore import resilience
from repro.explore.campaign import Campaign, PoolExecutor, run_campaign
from repro.explore.experiments import register_experiment
from repro.explore.resilience import (
    ENV_VAR,
    FaultPlan,
    FaultSpec,
    PoolBrokenError,
    RetryPolicy,
    activate,
    current_plan,
    deactivate,
    read_quarantine,
)
from repro.explore.space import DesignSpace


@register_experiment("chaos-square", "square the n parameter (chaos tests)")
def _square(point):
    return {"square": point["n"] ** 2, "label": f"n={point['n']}"}


@pytest.fixture(autouse=True)
def _no_active_plan():
    deactivate()
    yield
    deactivate()


def space_of(ns):
    return DesignSpace.from_dict({"axes": {"n": list(ns)}})


def run(ns, **kwargs):
    return run_campaign("chaos", space_of(ns), "chaos-square", **kwargs)


NS = [1, 2, 3, 4, 5, 6]
POLICY = RetryPolicy(max_attempts=3, backoff_base_s=0.0)


@pytest.fixture(scope="module")
def baseline():
    deactivate()
    return run(NS).results


@pytest.mark.parametrize("executor", ["serial", "process", "chunked"])
def test_exception_faults_converge_bit_identically(executor, baseline):
    activate(FaultPlan(
        faults=(FaultSpec(kind="exception", rate=0.6, times=2),), seed=3
    ))
    outcome = run(NS, executor=executor, workers=2, policy=POLICY)
    assert outcome.results == baseline
    assert outcome.stats.failed == 0


@pytest.mark.parametrize("executor", ["process", "chunked"])
def test_worker_kill_rebuilds_pool_and_converges(executor, baseline):
    activate(FaultPlan(
        faults=(FaultSpec(kind="kill", rate=0.4, times=1),), seed=5
    ))
    outcome = run(NS, executor=executor, workers=2, policy=POLICY)
    assert outcome.results == baseline
    assert outcome.stats.failed == 0


@pytest.mark.parametrize("chunk_size", [1, 3], ids=["process", "chunked"])
def test_hang_past_timeout_is_killed_and_retried(chunk_size, baseline):
    # The injected hang (5s) dwarfs the 0.75s point deadline, so the
    # only way these points can complete is the pool driver killing the
    # hung pool and retrying them — the firing budget makes the retry
    # succeed.  With 3-point chunks the hang blows a multi-point unit,
    # which must split into single points rather than retry whole.
    policy = RetryPolicy(
        max_attempts=2, backoff_base_s=0.0, point_timeout_s=0.75
    )
    # Seed 2 targets points 3 and 5: mid-chunk in each 3-point chunk.
    plan = activate(FaultPlan(
        faults=(FaultSpec(kind="hang", hang_s=5.0, rate=0.4, times=1),),
        seed=2,
    ))
    started = time.monotonic()
    outcome = run(
        NS, executor=PoolExecutor(workers=2, chunk_size=chunk_size),
        policy=policy,
    )
    assert outcome.results == baseline
    assert outcome.stats.failed == 0
    assert time.monotonic() - started < 5.0  # never waited out a hang
    assert len(os.listdir(plan.state_dir)) == 2  # both hangs fired


def test_torn_append_resumes_bit_identically(tmp_path, baseline):
    activate(FaultPlan(
        faults=(FaultSpec(
            kind="torn-append", site="cache.put", rate=0.4, times=1
        ),),
        seed=4,
    ))
    first = run(NS, store_dir=tmp_path)
    assert first.results == baseline  # in-memory results unaffected
    deactivate()
    # A fresh load sees the torn/corrupt lines, repairs, re-evaluates.
    with pytest.warns(Warning):
        second = run(NS, store_dir=tmp_path)
    assert second.results == baseline
    third = run(NS, store_dir=tmp_path)
    assert third.results == baseline
    assert third.stats.cached == len(NS)  # store fully healed


def test_repeated_worker_death_degrades_to_serial(baseline):
    # Every evaluation kills its worker twice: the pool dies, is rebuilt
    # once, dies again without progress — with degrade the campaign
    # finishes serially in-process, where the kill downgrades to an
    # exception and the retry budget absorbs it.
    activate(FaultPlan(
        faults=(FaultSpec(kind="kill", rate=1.0, times=2),), seed=0
    ))
    outcome = run(
        [1, 2, 3], executor="process", workers=1,
        policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        degrade=True,
    )
    assert outcome.results == run([1, 2, 3]).results
    assert outcome.stats.failed == 0


def test_repeated_worker_death_without_degrade_raises():
    activate(FaultPlan(
        faults=(FaultSpec(kind="kill", rate=1.0, times=10),), seed=0
    ))
    with pytest.raises(PoolBrokenError) as excinfo:
        run([1, 2, 3], executor="process", workers=1,
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0))
    assert excinfo.value.remaining == 3


def test_env_plan_budget_is_per_campaign_under_a_pool(monkeypatch):
    # A REPRO_FAULTS plan has no ledger until its first current_plan()
    # call makes one.  The pool resolves it before forking, so all four
    # workers share that ledger: each point's one firing is spent once,
    # and its retry succeeds in whichever worker runs it.
    monkeypatch.setenv(ENV_VAR, FaultPlan(
        faults=(FaultSpec(kind="exception", rate=1.0, times=1),)
    ).to_json())
    monkeypatch.setattr(resilience._STATE, "env_checked", False)
    ns = range(16)
    try:
        outcome = run(
            ns, executor="process", workers=4, on_error="store",
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        )
    finally:
        shutil.rmtree(current_plan().state_dir)
    assert outcome.stats.quarantined == 0
    deactivate()
    assert outcome.results == run(ns).results


def test_quarantine_is_deterministic_under_permanent_faults(tmp_path):
    # A fault with an unlimited budget can never be outlasted: the same
    # seeded points quarantine on every run, and the rest evaluate
    # normally.
    plan = FaultPlan(
        faults=(FaultSpec(kind="exception", rate=0.5, times=0),), seed=2
    )
    outcomes = []
    for attempt in ("a", "b"):
        activate(plan)
        store = tmp_path / attempt
        outcome = run(
            NS, store_dir=store, on_error="store",
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        )
        deactivate()
        quarantined = read_quarantine(
            Campaign.quarantine_path(store, "chaos")
        )
        outcomes.append((
            outcome.stats.quarantined,
            sorted(q["key"] for q in quarantined),
        ))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] > 0


SIGKILL_SCRIPT = """
import json, sys, time
from repro.explore import DesignSpace, register_experiment, run_campaign

@register_experiment("chaos-slow", "slow square (sigkill test)")
def _slow(point):
    time.sleep(0.15)
    return {"square": point["n"] ** 2}

space = DesignSpace.from_dict({"axes": {"n": list(range(8))}})
outcome = run_campaign(
    "slow", space, "chaos-slow", store_dir=sys.argv[1], durable=True
)
digest = [[r.key, r.point, r.metrics] for r in outcome.results.records]
print(json.dumps({"digest": digest, "cached": outcome.stats.cached}))
"""


def _spawn(script_path, store):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.Popen(
        [sys.executable, str(script_path), str(store)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )


def test_sigkill_mid_campaign_resumes_bit_identically(tmp_path):
    script = tmp_path / "campaign.py"
    script.write_text(SIGKILL_SCRIPT)
    resumed_store = tmp_path / "resumed"
    fresh_store = tmp_path / "fresh"

    victim = _spawn(script, resumed_store)
    store_file = resumed_store / "slow.jsonl"
    deadline = time.monotonic() + 30.0
    try:
        while time.monotonic() < deadline:
            if store_file.exists() and store_file.read_text().count("\n") >= 2:
                break
            time.sleep(0.02)
        else:
            pytest.fail("campaign wrote no records before the deadline")
    finally:
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)

    resumed = _spawn(script, resumed_store)
    out, err = resumed.communicate(timeout=120)
    assert resumed.returncode == 0, err
    resumed_report = json.loads(out)

    fresh = _spawn(script, fresh_store)
    out, err = fresh.communicate(timeout=120)
    assert fresh.returncode == 0, err
    fresh_report = json.loads(out)

    assert resumed_report["digest"] == fresh_report["digest"]
    assert resumed_report["cached"] >= 2  # it really resumed from disk
