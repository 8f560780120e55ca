"""AdaptiveCampaign: budgeting, store sharing and executor equivalence."""

import pytest

from repro.explore.adaptive import AdaptiveOutcome, AdaptivePlan, run_adaptive
from repro.explore.campaign import CampaignPointError, run_campaign
from repro.explore.experiments import register_experiment
from repro.explore.results import ResultRecord, ResultSet


def _plan(**overrides):
    base = dict(
        budget=30, strategy="surrogate", objective="cost", batch=10, seed=0
    )
    base.update(overrides)
    return AdaptivePlan(**base)


def test_budget_bounds_observed_points(small_space):
    outcome = run_adaptive("b", small_space, "test-bowl", _plan(budget=23))
    assert outcome.stats.proposed == 23
    assert len(outcome.results) == 23
    assert outcome.stats.coverage == pytest.approx(23 / len(small_space))
    assert outcome.stats.rounds == 3  # 10 + 10 + 3


def test_budget_beyond_the_space_stops_at_exhaustion(small_space):
    outcome = run_adaptive(
        "all", small_space, "test-bowl",
        _plan(budget=10_000, strategy="random", batch=64),
    )
    assert outcome.stats.proposed == len(small_space)
    assert outcome.stats.coverage == 1.0


def test_best_and_regret_against_exhaustive(small_space):
    adaptive = run_adaptive(
        "vs", small_space, "test-bowl", _plan(budget=45)
    )
    exhaustive = run_campaign("vs-full", small_space, "test-bowl")
    regret = adaptive.regret(exhaustive.results)
    assert regret >= 0.0
    best = adaptive.best()
    assert best.value("cost") == pytest.approx(
        exhaustive.results.best("cost").value("cost") + regret
    )


def test_adaptive_and_exhaustive_share_one_store(tmp_path, small_space):
    plan = _plan(budget=40)
    adaptive = run_adaptive(
        "shared", small_space, "test-bowl", plan, store_dir=tmp_path
    )
    assert adaptive.stats.evaluated == 40
    # The exhaustive run pays only for the points the search skipped...
    full = run_campaign(
        "shared", small_space, "test-bowl", store_dir=tmp_path
    )
    assert full.stats.cached == 40
    assert full.stats.evaluated == len(small_space) - 40
    # ...and a re-run of the adaptive campaign is a pure cache read that
    # proposes the identical sequence.
    again = run_adaptive(
        "shared", small_space, "test-bowl", plan, store_dir=tmp_path
    )
    assert again.stats.cached == 40
    assert again.stats.evaluated == 0
    assert [r.key for r in again.results] == [
        r.key for r in adaptive.results
    ]


def test_serial_process_chunked_bit_identity(tmp_path, small_space):
    plan = _plan(budget=25, batch=8)
    outcomes = [
        run_adaptive(
            f"x-{name}", small_space, "test-bowl", plan,
            executor=name, workers=2 if name != "serial" else None,
        )
        for name in ("serial", "process", "chunked")
    ]
    reference = [(r.key, r.metrics) for r in outcomes[0].results]
    for outcome in outcomes[1:]:
        assert [(r.key, r.metrics) for r in outcome.results] == reference


def test_failed_points_respect_on_error(small_space):
    @register_experiment("test-explosive", "fails on a==2 (test only)")
    def _explosive(point):
        if point["a"] == 2:
            raise RuntimeError("boom")
        return {"cost": float(point["a"])}

    with pytest.raises(CampaignPointError):
        run_adaptive(
            "boom", small_space, "test-explosive",
            _plan(budget=len(small_space), strategy="random", batch=32),
        )
    outcome = run_adaptive(
        "boom2", small_space, "test-explosive",
        _plan(budget=len(small_space), strategy="random", batch=32),
        on_error="store",
    )
    assert outcome.stats.failed == len(small_space) // 6  # a==2 slice
    assert outcome.stats.proposed == len(small_space)


def test_plan_validation():
    with pytest.raises(ValueError, match="budget"):
        AdaptivePlan(budget=0)
    with pytest.raises(ValueError, match="batch"):
        AdaptivePlan(budget=5, batch=0)
    plan = AdaptivePlan(
        budget=5, objectives=["a", "b"], maximize=["b"], options={"k": 3}
    )
    assert plan.objectives == ("a", "b")
    assert plan.maximize == ("b",)


@pytest.mark.parametrize("maximize, ascending", [
    (False, True), (True, False), (("cost",), False), (("other",), True),
    ((), True),
])
def test_plan_ascending_is_the_minimise_rule(maximize, ascending):
    assert _plan(maximize=maximize).ascending is ascending


@pytest.mark.parametrize("overrides, maximized", [
    (dict(maximize=False), ()),
    (dict(maximize=True), ("cost",)),
    (dict(objective=None, objectives=("a", "b"), maximize=True), ("a", "b")),
    (dict(objective=None, objectives=("a", "b"), maximize=("b",)), ("b",)),
])
def test_plan_maximized_names_the_maximised_objectives(overrides, maximized):
    assert _plan(**overrides).maximized == maximized


def test_multi_objective_maximize_true_maximises_every_objective(small_space):
    plan = _plan(objective=None, objectives=("a", "b"), maximize=True)
    sampler = plan.build_sampler(small_space)
    assert sampler._sign("a") == sampler._sign("b") == -1.0
    single = _plan(maximize=True).build_sampler(small_space)
    assert single._sign("cost") == -1.0
    assert _plan().build_sampler(small_space)._sign("cost") == 1.0
    records = ResultSet(tuple(
        ResultRecord(key=k, experiment="t", point={}, metrics=m)
        for k, m in (("lo", {"a": 1.0, "b": 1.0}), ("hi", {"a": 2.0, "b": 2.0}))
    ))
    outcome = AdaptiveOutcome("max", plan, records, stats=None)
    assert [r.key for r in outcome.front()] == ["hi"]


def test_outcome_best_requires_single_objective(small_space):
    outcome = run_adaptive(
        "pareto", small_space, "test-bowl",
        _plan(objective=None, objectives=("cost", "weight"), budget=20),
    )
    with pytest.raises(ValueError, match="single-objective"):
        outcome.best()
    front = outcome.front()
    assert len(front) >= 1
    # Front members are mutually non-dominated.
    vectors = [
        (r.value("cost"), r.value("weight")) for r in front
    ]
    for a in vectors:
        assert not any(
            b[0] <= a[0] and b[1] <= a[1] and b != a for b in vectors
        )
