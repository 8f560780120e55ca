"""Campaign runner: caching, resume, error paths, executor equivalence."""

import pytest

from repro.explore.campaign import (
    Campaign,
    CampaignPointError,
    make_executor,
    run_campaign,
)
from repro.explore.experiments import EXPERIMENTS, register_experiment
from repro.explore.space import DesignSpace

CALLS = []


@register_experiment(
    "test-square", "square (test only)",
    n=int, explode=(bool, False), scale=(float, 1.0),
)
def _square(point):
    CALLS.append(point["n"])
    if point.get("explode"):
        raise RuntimeError("requested failure")
    return {"square": point["n"] ** 2, "label": f"n={point['n']}"}


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()
    yield


def space_of(ns, **constants):
    return DesignSpace.from_dict(
        {"axes": {"n": list(ns)}, "constants": constants}
    )


def test_run_evaluates_every_point_in_order(tmp_path):
    outcome = run_campaign("sq", space_of([1, 2, 3]), "test-square",
                           store_dir=tmp_path)
    assert outcome.stats.total == 3
    assert outcome.stats.evaluated == 3
    assert outcome.stats.cached == 0
    assert outcome.results.values("square") == [1, 4, 9]
    assert CALLS == [1, 2, 3]


def test_second_run_is_fully_cached(tmp_path):
    run_campaign("sq", space_of([1, 2, 3]), "test-square", store_dir=tmp_path)
    CALLS.clear()
    outcome = run_campaign("sq", space_of([1, 2, 3]), "test-square",
                           store_dir=tmp_path)
    assert CALLS == []
    assert outcome.stats.cached == 3
    assert outcome.stats.cache_hit_rate == 1.0
    assert outcome.results.values("square") == [1, 4, 9]


def test_growing_the_space_only_runs_new_points(tmp_path):
    run_campaign("sq", space_of([1, 2]), "test-square", store_dir=tmp_path)
    CALLS.clear()
    outcome = run_campaign("sq", space_of([1, 2, 5]), "test-square",
                           store_dir=tmp_path)
    assert CALLS == [5]  # resume semantics: old points served from disk
    assert outcome.stats.cached == 2
    assert outcome.stats.evaluated == 1
    assert outcome.results.values("square") == [1, 4, 25]


def test_cache_is_shared_across_campaign_objects_not_processes(tmp_path):
    first = Campaign("sq", space_of([7]), "test-square", store_dir=tmp_path)
    first.run()
    second = Campaign("sq", space_of([7]), "test-square", store_dir=tmp_path)
    outcome = second.run()
    assert outcome.stats.cached == 1


def test_cached_and_fresh_records_are_identical(tmp_path):
    fresh = run_campaign("sq", space_of([3], scale=0.5), "test-square",
                         store_dir=tmp_path)
    cached = run_campaign("sq", space_of([3], scale=0.5), "test-square",
                          store_dir=tmp_path)
    assert fresh.results == cached.results


def test_uncached_campaign_reruns_everything():
    run_campaign("sq", space_of([1]), "test-square")
    outcome = run_campaign("sq", space_of([1]), "test-square")
    assert CALLS == [1, 1]
    assert outcome.stats.cached == 0


def test_point_failure_raises_by_default(tmp_path):
    space = DesignSpace.from_dict(
        {"points": [{"n": 2}, {"n": 3, "explode": True}]}
    )
    with pytest.raises(CampaignPointError) as err:
        run_campaign("sq", space, "test-square", store_dir=tmp_path)
    assert err.value.point["n"] == 3
    assert "requested failure" in str(err.value)


def test_point_failure_is_stored_with_keep_going(tmp_path):
    space = DesignSpace.from_dict(
        {"points": [{"n": 2}, {"n": 3, "explode": True}]}
    )
    outcome = run_campaign("sq", space, "test-square", store_dir=tmp_path,
                           on_error="store")
    assert outcome.stats.failed == 1
    assert outcome.results[1].failed
    assert outcome.results.ok().values("square") == [4]
    # Failures are not cached: a re-run retries the failed point.
    CALLS.clear()
    run_campaign("sq", space, "test-square", store_dir=tmp_path,
                 on_error="store")
    assert CALLS == [3]


def test_unknown_experiment_fails_cleanly():
    with pytest.raises(CampaignPointError, match="unknown experiment"):
        run_campaign("bad", space_of([1]), "no-such-experiment")


def test_experiment_returning_non_dict_is_a_point_failure():
    register_experiment("test-none", "returns None (test only)", n=int)(
        lambda point: None
    )
    # Must surface as a clean per-point failure even with no cache attached.
    with pytest.raises(CampaignPointError, match="metrics dict"):
        run_campaign("none", space_of([1]), "test-none")
    outcome = run_campaign("none", space_of([1]), "test-none",
                           on_error="store")
    assert outcome.stats.failed == 1
    assert outcome.results[0].failed


def test_make_executor_resolution():
    from repro.explore.campaign import ProcessPoolExecutor, SerialExecutor

    assert isinstance(make_executor(None), SerialExecutor)
    assert isinstance(make_executor("serial"), SerialExecutor)
    pool = make_executor("process", workers=3)
    assert isinstance(pool, ProcessPoolExecutor)
    assert pool.workers == 3
    with pytest.raises(ValueError, match="unknown executor"):
        make_executor("warp-drive")


def test_experiment_registry_lists_builtins():
    for name in ("barrier-cost", "barrier-adapt", "stencil-predict"):
        assert name in EXPERIMENTS


@pytest.mark.slow
def test_serial_and_parallel_executors_are_bit_identical(tmp_path):
    space = DesignSpace.from_dict({
        "axes": {
            "preset": ["xeon-8x2x4", "xeon-8x2x4-ib"],
            "pattern": ["linear", "dissemination"],
            "nprocs": [8],
        },
        "constants": {"runs": 4, "comm_samples": 3},
    })
    serial = run_campaign("eq-s", space, "barrier-cost", executor="serial")
    parallel = run_campaign("eq-p", space, "barrier-cost",
                            executor="process", workers=2)
    assert [r.metrics for r in serial.results] == [
        r.metrics for r in parallel.results
    ]
    assert [r.point for r in serial.results] == [
        r.point for r in parallel.results
    ]
