"""Grouped evaluation: a chunk's structurally equal ``barrier-cost``
points are measured in one engine pass ahead of their own evaluations,
and every record equals the one per-point evaluation gives."""

import pytest

from repro.barriers import simulate
from repro.explore.campaign import (
    Campaign,
    PoolExecutor,
    SerialExecutor,
    _evaluate,
    _evaluate_chunk,
)
from repro.explore.experiments import EXPERIMENTS
from repro.explore.resilience import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    activate,
    deactivate,
)
from repro.explore.space import DesignSpace

BASE = {"preset": "xeon-8x2x4", "comm_samples": 3}

#: Two structural groups (tree at P = 8, dissemination at P = 6) over
#: seeds and runs, a critpath point, and a point that does not bind.
POINTS = [
    *({**BASE, "pattern": "tree", "nprocs": 8, "seed": s, "runs": r}
      for s in (1, 2, 3) for r in (2, 3)),
    *({**BASE, "pattern": "dissemination", "nprocs": 6, "seed": s, "runs": 2}
      for s in (1, 2, 3)),
    {**BASE, "pattern": "tree", "nprocs": 8, "seed": 4, "runs": 2,
     "critpath": True},
    {**BASE, "pattern": "tree", "nprocs": "eight", "seed": 5},
]
#: Two points of an unknown pattern: a group of their own.
UNKNOWN = [{**BASE, "pattern": "quantum", "nprocs": 8, "seed": s}
           for s in (7, 8)]

#: Exception faults on a seeded share of the points, once each.
PLAN = FaultPlan(faults=(FaultSpec(kind="exception", rate=0.3),), seed=11)


@pytest.fixture(autouse=True)
def _isolated():
    deactivate()
    simulate._prefetched.clear()
    yield
    deactivate()
    simulate._prefetched.clear()


@pytest.fixture
def engine_calls(monkeypatch):
    calls = []
    real = simulate.simulate_stages_batch

    def counting(*args, **kwargs):
        calls.append(kwargs["runs"])
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "simulate_stages_batch", counting)
    return calls


def _per_point(tasks):
    activate(PLAN)  # a fresh firing ledger
    out = [_evaluate(task) for task in tasks]
    deactivate()
    return out


def _errors(outputs):
    return {m["error_type"] for ok, m in outputs if not ok}


@pytest.mark.parametrize("extra", [[], UNKNOWN], ids=["grouped", "unknown"])
def test_chunk_equals_per_point_evaluation(extra, engine_calls):
    tasks = [("barrier-cost", p) for p in POINTS + extra]
    want = _per_point(tasks)
    engine_calls.clear()
    activate(PLAN)
    got = _evaluate_chunk(tasks)
    assert got == want
    assert _errors(got) == {"FaultInjected", "ValueError"} | (
        {"KeyError"} if extra else set()
    )
    # Each group is one engine call of its summed runs; every point of it
    # is served its measurement.
    assert engine_calls == [15, 6, 2, 2]  # then critpath: measure, replay


def test_failing_prefetch_leaves_each_point_to_itself(monkeypatch):
    tasks = [("barrier-cost", p) for p in POINTS[:4]]
    want = _per_point(tasks)
    exp = EXPERIMENTS["barrier-cost"]

    def broken(points):
        raise RuntimeError("prefetch failed")

    monkeypatch.setitem(
        EXPERIMENTS, "barrier-cost",
        type(exp)(exp.name, exp.fn, exp.description, exp.params, broken),
    )
    activate(PLAN)
    assert _evaluate_chunk(tasks) == want


@pytest.mark.parametrize("executor", [
    SerialExecutor(), PoolExecutor(workers=2, chunk_size=5),
], ids=["serial", "chunked"])
def test_campaign_records_equal_per_point_evaluation(tmp_path, executor):
    points = POINTS[:-1] + UNKNOWN + POINTS[-1:]
    want = _per_point([("barrier-cost", p) for p in points])
    activate(PLAN)
    outcome = Campaign(
        "grouped", DesignSpace.from_dict({"points": points}), "barrier-cost",
        store_dir=tmp_path, executor=executor, on_error="store",
    ).run()
    assert [r.metrics for r in outcome.results.records] == [
        m for _, m in want
    ]
    assert outcome.stats.failed == sum(1 for ok, _ in want if not ok)


def test_serial_map_prefetches_under_any_policy(engine_calls):
    tasks = [("barrier-cost", {**BASE, "pattern": "tree", "nprocs": 8,
                               "seed": s}) for s in range(10)]
    want = [_evaluate(t) for t in tasks]
    for policy in (None, RetryPolicy(max_attempts=2)):
        engine_calls.clear()
        assert SerialExecutor(policy).map(tasks) == want
        assert engine_calls == [160]  # one grouped call: ten points × 16 runs
