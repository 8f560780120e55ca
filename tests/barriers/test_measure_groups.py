"""Grouped barrier measurements: several (machine, runs) points of one
pattern in one engine pass, each bit-identical to its own measurement,
and prefetched timings that ``measure_barrier`` serves."""

import numpy as np
import pytest

from repro.barriers import simulate
from repro.barriers.patterns import all_to_all_barrier, tree_barrier
from repro.barriers.simulate import (
    measure_barrier,
    measure_barriers,
    prefetch_barriers,
)
from repro.cluster.noise import QUIET
from repro.cluster.presets import make_preset_machine

SEEDS_RUNS = [(2012, 3), (7, 1), (99, 5), (2013, 2)]


def _points(preset="xeon-8x2x4"):
    return [(make_preset_machine(preset, seed=s), r) for s, r in SEEDS_RUNS]


@pytest.fixture
def engine_calls(monkeypatch):
    calls = []
    real = simulate.simulate_stages_batch

    def counting(*args, **kwargs):
        calls.append(kwargs["runs"])
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "simulate_stages_batch", counting)
    return calls


@pytest.mark.parametrize("pattern", [tree_barrier(12), all_to_all_barrier(6)])
def test_grouped_timings_equal_separate_ones(pattern, engine_calls):
    points = _points()
    placement = points[0][0].placement(pattern.nprocs)
    grouped = measure_barriers(points, pattern, placement)
    assert engine_calls == [sum(r for _, r in SEEDS_RUNS)]
    for (machine, runs), timing in zip(points, grouped):
        alone = measure_barrier(
            machine, pattern, machine.placement(pattern.nprocs), runs=runs
        )
        assert timing.runs == runs
        assert timing.per_run_worst.tobytes() == alone.per_run_worst.tobytes()


def test_draw_budget_splits_a_group_without_changing_it(
    monkeypatch, engine_calls
):
    pattern = tree_barrier(8)
    points = _points()
    placement = points[0][0].placement(8)
    whole = measure_barriers(points, pattern, placement)
    widest = max(pattern.messages_per_stage())
    monkeypatch.setattr(simulate, "GROUP_DRAW_CELLS", 4 * widest)
    engine_calls.clear()
    split = measure_barriers(points, pattern, placement)
    # Rows 3 + 1 | 5 (alone, past the budget) | 2: a batch never exceeds
    # four rows unless one point does.
    assert engine_calls == [4, 5, 2]
    for a, b in zip(whole, split):
        assert a.per_run_worst.tobytes() == b.per_run_worst.tobytes()


@pytest.fixture
def no_prefetch():
    simulate._prefetched.clear()
    yield
    simulate._prefetched.clear()


def test_prefetched_timings_are_served_once(engine_calls, no_prefetch):
    pattern = tree_barrier(10)
    points = _points()
    placement = points[0][0].placement(10)
    alone = [measure_barrier(m, pattern, placement, runs=r) for m, r in points]
    engine_calls.clear()
    prefetch_barriers([(points, pattern, placement)])
    assert engine_calls == [11]
    # Each point's own call, on its own placement object, is served.
    served = [
        measure_barrier(m, pattern, m.placement(10), runs=r)
        for m, r in points
    ]
    assert engine_calls == [11]
    for a, b in zip(alone, served):
        assert a.per_run_worst.tobytes() == b.per_run_worst.tobytes()
    # Served once: asking again simulates again.
    again = measure_barrier(points[0][0], pattern, placement, runs=3)
    assert engine_calls == [11, 3]
    assert again.per_run_worst.tobytes() == alone[0].per_run_worst.tobytes()


def test_prefetch_serves_only_the_same_arguments(engine_calls, no_prefetch):
    from repro.obs import EngineProvenance

    pattern = tree_barrier(6)
    points = _points()
    placement = points[0][0].placement(6)
    prefetch_barriers([(points, pattern, placement)])
    machine, runs = points[0]
    engine_calls.clear()
    measure_barrier(machine, pattern, placement, runs=runs, stream="other")
    measure_barrier(machine, pattern, placement, runs=runs + 1)
    measure_barrier(machine, tree_barrier(6, arity=3), placement, runs=runs)
    measure_barrier(machine, pattern, placement, runs=runs, payload_bytes=8.0)
    measure_barrier(
        machine, pattern, placement, runs=runs, provenance=EngineProvenance()
    )
    assert len(engine_calls) == 5
    # A new prefetch drops what the last one left.
    prefetch_barriers([])
    measure_barrier(machine, pattern, placement, runs=runs)
    assert len(engine_calls) == 6


@pytest.mark.parametrize("other", [
    lambda: make_preset_machine("xeon-8x2x4-ib", seed=5),  # other params
    lambda: make_preset_machine("xeon-8x2x4", nodes=4, seed=5),  # topology
    lambda: make_preset_machine("xeon-8x2x4", seed=5, noise=QUIET),  # noise
])
def test_group_rejects_machines_that_differ_beyond_the_seed(other):
    first = make_preset_machine("xeon-8x2x4")
    pattern = tree_barrier(4)
    with pytest.raises(ValueError, match="differ only in their seed"):
        measure_barriers(
            [(first, 2), (other(), 2)], pattern, first.placement(4)
        )


def test_provenance_takes_one_point():
    from repro.obs import EngineProvenance

    pattern = tree_barrier(4)
    points = _points()
    with pytest.raises(ValueError, match="one measurement"):
        measure_barriers(
            points, pattern, points[0][0].placement(4),
            provenance=EngineProvenance(),
        )


def test_single_process_pattern_has_no_engine_rows():
    # P = 1 has no stages: every run's worst case is zero.
    pattern = tree_barrier(1)
    points = _points()
    timings = measure_barriers(points, pattern, points[0][0].placement(1))
    assert [t.per_run_worst.tolist() for t in timings] == [
        [0.0] * r for _, r in SEEDS_RUNS
    ]
    assert all(isinstance(t.per_run_worst, np.ndarray) for t in timings)
