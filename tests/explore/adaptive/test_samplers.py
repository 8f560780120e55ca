"""Per-strategy sampler behaviour (the cross-strategy contracts —
in-space, no repeats, seeded determinism — are property-tested in
``test_sampler_properties.py``)."""

import pytest

from repro.explore.adaptive.samplers import (
    Observation,
    RandomSampler,
    StratifiedSampler,
    SuccessiveHalvingSampler,
    SurrogateSampler,
    make_sampler,
)
from repro.explore.space import DesignPoint, DesignSpace

from tests.explore.adaptive.conftest import bowl_space


def _drain(sampler, evaluate, batch=8, budget=10**9):
    """Drive a sampler the way the driver does; returns proposals made."""
    seen = []
    while len(seen) < budget:
        picks = sampler.propose(min(batch, budget - len(seen)))
        if not picks:
            break
        sampler.observe([
            Observation(point=p, metrics=evaluate(p)) for p in picks
        ])
        seen.extend(picks)
    return seen


def _cost(point):
    return {"cost": (point["a"] - 13) ** 2 + 0.5 * (point["b"] - 4) ** 2}


def test_random_exhausts_the_space_without_repeats(small_space):
    sampler = RandomSampler(small_space, seed=3)
    seen = _drain(sampler, _cost, batch=7)
    assert len(seen) == len(small_space)
    assert len({p.key for p in seen}) == len(seen)
    assert sampler.exhausted


def test_stratified_first_batch_spreads_over_every_axis(small_space):
    sampler = StratifiedSampler(small_space, seed=0)
    picks = sampler.propose(6)
    # Six maximin picks over a 6x5x3 grid must touch well more than one
    # stratum per axis — a clustered sampler would not.
    for axis in ("a", "b", "mode"):
        assert len({p[axis] for p in picks}) >= 3, axis


def test_observed_points_are_never_proposed(small_space):
    points = small_space.expand()
    pre = points[:10]
    for cls in (RandomSampler, StratifiedSampler):
        sampler = cls(small_space, seed=1)
        sampler.observe([
            Observation(point=p, metrics=_cost(p)) for p in pre
        ])
        seen = _drain(sampler, _cost)
        assert {p.key for p in seen}.isdisjoint({p.key for p in pre})
        assert len(seen) == len(points) - len(pre)


def test_halving_needs_objective_and_fidelity(small_space):
    with pytest.raises(ValueError, match="objective"):
        SuccessiveHalvingSampler(small_space, fidelity="a")
    with pytest.raises(ValueError, match="fidelity"):
        SuccessiveHalvingSampler(small_space, objective="cost")
    with pytest.raises(ValueError, match="eta"):
        SuccessiveHalvingSampler(
            small_space, objective="cost", fidelity="a", eta=1.0
        )


def test_halving_screens_wide_then_narrows():
    space = DesignSpace.from_dict({
        "axes": {
            "config": list(range(12)),
            "fidelity": [1, 2, 4],
        },
    })

    def evaluate(point):
        # config 5 is best at every fidelity.
        return {"cost": abs(point["config"] - 5) + 1.0 / point["fidelity"]}

    sampler = SuccessiveHalvingSampler(
        space, seed=0, objective="cost", fidelity="fidelity", eta=3
    )
    seen = _drain(sampler, evaluate, batch=6)
    by_fidelity = {f: [] for f in (1, 2, 4)}
    for p in seen:
        by_fidelity[p["fidelity"]].append(p["config"])
    # Rung 0 screens every config at the cheapest fidelity; each
    # promotion keeps ceil(1/3).
    assert sorted(by_fidelity[1]) == list(range(12))
    assert len(by_fidelity[2]) == 4
    assert len(by_fidelity[4]) == 2
    # The true best config survives to the top rung.
    assert 5 in by_fidelity[4]
    # Budget concentrated: 18 evaluations instead of 36.
    assert len(seen) == 18


def test_surrogate_requires_an_objective(small_space):
    with pytest.raises(ValueError, match="objective"):
        SurrogateSampler(small_space)


@pytest.mark.parametrize("options", [{"k": 0}, {"ridge": -1.0}])
def test_surrogate_rejects_bad_model_options_when_built(small_space, options):
    # Before any budget is spent, not at the first post-warmup batch.
    with pytest.raises(ValueError, match="k must|ridge must"):
        make_sampler("surrogate", small_space, objective="cost", **options)


def test_surrogate_warms_up_space_filling_then_exploits():
    space = bowl_space(na=18, nb=20, modes=5)
    sampler = SurrogateSampler(
        space, seed=2, objective="cost", warmup=12, explore=0.25
    )
    seen = _drain(sampler, _cost, batch=12, budget=168)
    # After warmup the exploit half concentrates near the optimum: the
    # true best point must be among the proposals at <10% coverage
    # (168 of 1800).
    best = min(seen, key=lambda p: _cost(p)["cost"])
    assert _cost(best)["cost"] == 0.0, dict(best)


def test_surrogate_pareto_mode_spreads_over_the_front(small_space):
    sampler = SurrogateSampler(
        small_space,
        seed=4,
        objectives=("cost", "weight"),
        warmup=8,
    )

    def evaluate(point):
        return {**_cost(point), "weight": float(point["a"] + point["b"])}

    seen = _drain(sampler, evaluate, batch=10, budget=40)
    assert len(seen) == 40
    # Both extremes of the trade-off get sampled: some low-weight points
    # (a+b small) and some low-cost points (the bowl's grid minimum is
    # cost=64 at a=5, b=4 on this 6x5 grid).
    weights = [p["a"] + p["b"] for p in seen]
    costs = [_cost(p)["cost"] for p in seen]
    assert min(weights) <= 2
    assert min(costs) <= 66.0


def test_failed_observations_do_not_poison_the_surrogate(small_space):
    sampler = SurrogateSampler(
        small_space, seed=0, objective="cost", warmup=4
    )

    def evaluate(point):
        if point["a"] == 0:
            return {"error": "boom"}  # failed point: no objective
        return _cost(point)

    seen = _drain(sampler, evaluate, batch=8, budget=48)
    assert len(seen) == 48  # failures consume budget but never crash


def test_make_sampler_resolves_names_and_aliases(small_space):
    assert isinstance(
        make_sampler("random", small_space), RandomSampler
    )
    assert isinstance(
        make_sampler("lhs", small_space), StratifiedSampler
    )
    assert isinstance(
        make_sampler("active", small_space, objective="cost"),
        SurrogateSampler,
    )
    with pytest.raises(ValueError, match="unknown sampling strategy"):
        make_sampler("annealing", small_space)


def test_maximize_flips_the_search_direction():
    space = bowl_space(na=18, nb=20, modes=5)
    sampler = SurrogateSampler(
        space, seed=1, objective="cost", maximize=("cost",), warmup=12,
        explore=0.25,
    )
    seen = _drain(sampler, _cost, batch=12, budget=96)
    worst = max(_cost(p)["cost"] for p in seen)
    # The global maximum of the bowl on this grid is at the far corner
    # (mode does not enter _cost, so any mode there is a true maximum).
    true_worst = max(_cost(p)["cost"] for p in space.expand())
    assert worst == true_worst


def test_observations_with_unknown_points_are_tolerated(small_space):
    sampler = SurrogateSampler(small_space, seed=0, objective="cost")
    foreign = DesignPoint({"a": 999, "b": 999, "mode": "zzz", "runs": 1})
    sampler.observe([Observation(point=foreign, metrics={"cost": 1.0})])
    assert len(sampler.propose(4)) == 4
