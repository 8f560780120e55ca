"""Executor equivalence: serial, process, and chunked produce identical
ResultSets — same point hashes, same values, same order."""

import os

import pytest

from repro.explore.campaign import (
    EXECUTORS,
    ChunkedProcessPoolExecutor,
    PoolExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
    run_campaign,
)
from repro.explore.experiments import register_experiment
from repro.explore.suites import get_suite, run_suite


@register_experiment("executor-pid", "the evaluating process (test only)")
def _pid(point):
    return {"pid": os.getpid()}


def test_chunked_is_registered_and_resolvable():
    assert "chunked" in EXECUTORS
    executor = make_executor("chunked", workers=2)
    assert isinstance(executor, PoolExecutor)
    assert executor.workers == 2
    assert executor.chunk_size is None
    assert make_executor("process").chunk_size == 1
    # The old class names are aliases of the one pool executor.
    assert ProcessPoolExecutor is ChunkedProcessPoolExecutor is PoolExecutor


def test_chunk_splitting_covers_all_tasks_in_order():
    executor = PoolExecutor(chunk_size=3)
    chunks = executor._chunks(list(range(10)), workers=4)
    assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
    # Default sizing: a few slices per worker, never zero-size.
    auto = PoolExecutor()._chunks(list(range(100)), workers=4)
    assert [t for chunk in auto for t in chunk] == list(range(100))
    assert all(chunk for chunk in auto)
    assert len(auto) >= 4


def test_chunk_size_validation():
    with pytest.raises(ValueError, match="chunk_size"):
        PoolExecutor(chunk_size=0)


def test_chunked_map_empty_and_single_chunk():
    assert PoolExecutor().map([]) == []

    # A task list fitting one chunk still runs in a worker process (crash
    # isolation and deadlines hold at every sweep size), and its results
    # match the serial path.
    tasks = [
        ("barrier-cost", {
            "preset": "xeon-8x2x4", "pattern": "linear", "nprocs": 4,
            "runs": 2, "comm_samples": 3,
        }),
        ("barrier-cost", {
            "preset": "xeon-8x2x4", "pattern": "dissemination", "nprocs": 4,
            "runs": 2, "comm_samples": 3,
        }),
    ]
    out = PoolExecutor(chunk_size=8).map(tasks)
    assert out == SerialExecutor().map(tasks)
    assert all(ok for ok, _ in out)
    (ok, where), = PoolExecutor(chunk_size=8).map([("executor-pid", {})])
    assert ok and where["pid"] != os.getpid()


@pytest.mark.parametrize("executor", ["process", "chunked"])
def test_executor_equivalence_on_campaign(executor):
    space = {
        "axes": {
            "preset": ["xeon-8x2x4"],
            "pattern": ["linear", "dissemination"],
            "nprocs": [4, 8],
        },
        "constants": {"runs": 2, "comm_samples": 3},
    }
    serial = run_campaign("eq-serial", space, "barrier-cost")
    other = run_campaign(
        "eq-other", space, "barrier-cost", executor=executor, workers=2
    )
    assert [r.key for r in serial.results] == [r.key for r in other.results]
    assert [r.to_dict() for r in serial.results] == [
        r.to_dict() for r in other.results
    ]


def test_executor_equivalence_on_representative_suite():
    """The satellite invariant: a real suite spec (fig-4-2) produces a
    bit-identical artifact under all three executors."""
    spec = get_suite("fig-4-2")
    artifacts = [
        run_suite(spec, store_dir=None, executor=name, workers=2).artifact()
        for name in ("serial", "process", "chunked")
    ]
    assert artifacts[0] == artifacts[1] == artifacts[2]
