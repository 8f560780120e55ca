"""The engine's per-stage records: provenance stages and telemetry spans.

Each non-empty stage leaves one :class:`StageProvenance` (when a
provenance record is passed) and one ``engine.stage`` simulated-time span
(when telemetry is on).  Both describe the same stage: its index, its
message count, its entry clocks (the clocks *before* it ran) and its exit
clocks.
"""

import numpy as np
import pytest

from repro import obs
from repro.barriers.patterns import tree_barrier
from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.machine import SimMachine
from repro.obs.provenance import EngineProvenance
from repro.simmpi.engine import simulate_stages_batch


@pytest.fixture
def telemetry(monkeypatch):
    monkeypatch.delenv(obs.ENV_VAR, raising=False)
    obs.enable()
    yield obs.current()
    obs.disable()


def record(telemetry, truth, stages, runs=1, **kwargs):
    """Run once with provenance and telemetry on; return the exits, the
    provenance stages and the ``engine.stage`` span events."""
    prov = EngineProvenance()
    exits = simulate_stages_batch(
        truth, stages, runs=runs, provenance=prov, **kwargs
    )
    events = [
        e for e in telemetry.events() if e["name"] == "engine.stage"
    ]
    return exits, prov.stages, events


def assert_spans_match_stages(events, stages, runs):
    """Each span is its stage's summary: index, messages, the earliest
    entry, the latest exit and the mean over replications of each
    replication's latest exit."""
    assert len(events) == len(stages)
    for event, st in zip(events, stages):
        attrs = event["attrs"]
        assert event["time"] == "sim"
        assert set(attrs) == {"stage", "messages", "runs", "sim_exit_mean_s"}
        assert (attrs["stage"], attrs["messages"]) == (st.stage, st.messages)
        assert attrs["runs"] == runs
        assert event["ts"] == float(st.entry.min())
        assert event["dur"] == float(st.exit.max()) - float(st.entry.min())
        assert attrs["sim_exit_mean_s"] == float(st.exit.max(axis=1).mean())


class TestTrace:
    def test_trace_records_nonempty_stages(self, telemetry):
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
            noise=QUIET, seed=171,
        )
        pattern = tree_barrier(8)
        placement = machine.placement(8)
        truth = machine.comm_truth(placement)
        _, stages, events = record(telemetry, truth, pattern.stages)
        assert len(stages) == pattern.num_stages
        message_counts = [st.messages for st in stages]
        # Arrival halves 4,2,1; release mirrors 1,2,4.
        assert message_counts == [4, 2, 1, 1, 2, 4]
        assert [e["attrs"]["messages"] for e in events] == message_counts
        assert [st.stage for st in stages] == list(range(pattern.num_stages))
        for st in stages:
            assert st.entry.shape == st.exit.shape == (1, 8)
        assert_spans_match_stages(events, stages, runs=1)

    def test_entry_is_pre_stage_state(self, telemetry):
        """Regression: ``entry`` must capture the clocks *before* the stage
        runs (an early recorder captured ``entry == exit``)."""
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
            noise=QUIET, seed=173,
        )
        pattern = tree_barrier(8)
        truth = machine.comm_truth(machine.placement(8))
        exits, stages, events = record(telemetry, truth, pattern.stages)
        np.testing.assert_array_equal(stages[0].entry, np.zeros((1, 8)))
        assert events[0]["ts"] == 0.0
        for st in stages:
            # Every stage of a tree barrier moves some clock forward.
            assert (st.exit >= st.entry).all()
            assert st.exit.max() > st.entry.max()
        for prev, nxt in zip(stages, stages[1:]):
            np.testing.assert_array_equal(nxt.entry, prev.exit)
        np.testing.assert_array_equal(stages[-1].exit, exits)
        for event in events:
            assert event["dur"] > 0.0
        assert_spans_match_stages(events, stages, runs=1)

    def test_batch_trace_shapes(self, telemetry):
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
            seed=174,
        )
        pattern = tree_barrier(8)
        truth = machine.comm_truth(machine.placement(8))
        exits, stages, events = record(
            telemetry, truth, pattern.stages, runs=5,
            rng=machine.rng("trace"), noise=machine.noise,
        )
        assert len(stages) == pattern.num_stages
        for st in stages:
            assert st.entry.shape == (5, 8)
            assert st.exit.shape == (5, 8)
        np.testing.assert_array_equal(stages[-1].exit, exits)
        assert_spans_match_stages(events, stages, runs=5)

    def test_empty_stage_not_traced(self, telemetry):
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
            noise=QUIET, seed=172,
        )
        placement = machine.placement(4)
        truth = machine.comm_truth(placement)
        _, stages, events = record(
            telemetry, truth, [np.zeros((4, 4), dtype=bool)]
        )
        assert stages == []
        assert events == []

    def test_clean_broadcast_reports_requested_runs(self, telemetry):
        """A clean call simulates one replication and broadcasts it: the
        stages keep single rows, and the spans report the requested
        replication count."""
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
            noise=QUIET, seed=175,
        )
        pattern = tree_barrier(8)
        truth = machine.comm_truth(machine.placement(8))
        exits, stages, events = record(telemetry, truth, pattern.stages,
                                       runs=4)
        assert exits.shape == (4, 8)
        for st in stages:
            assert st.exit.shape == (1, 8)
        np.testing.assert_array_equal(
            exits, np.broadcast_to(stages[-1].exit, (4, 8))
        )
        assert_spans_match_stages(events, stages, runs=4)
