"""Unit tests for the measured-timing protocol (§5.6.6)."""

import numpy as np
import pytest

from repro.barriers.patterns import dissemination_barrier, linear_barrier
from repro.barriers.simulate import measure_barrier
from repro.cluster import presets
from repro.machine import SimMachine


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=91
    )


class TestMeasureBarrier:
    def test_statistics(self, machine):
        placement = machine.placement(8)
        timing = measure_barrier(
            machine, dissemination_barrier(8), placement, runs=32
        )
        assert timing.per_run_worst.shape == (32,)
        assert timing.mean_worst > 0
        assert timing.runs == 32

    def test_mean_of_worst_cases(self, machine):
        placement = machine.placement(4)
        timing = measure_barrier(machine, linear_barrier(4), placement, runs=8)
        assert timing.mean_worst == pytest.approx(timing.per_run_worst.mean())

    def test_reproducible(self, machine):
        placement = machine.placement(8)
        a = measure_barrier(machine, dissemination_barrier(8), placement, runs=8)
        b = measure_barrier(machine, dissemination_barrier(8), placement, runs=8)
        np.testing.assert_array_equal(a.per_run_worst, b.per_run_worst)

    def test_size_mismatch_rejected(self, machine):
        placement = machine.placement(8)
        with pytest.raises(ValueError, match="placement"):
            measure_barrier(machine, dissemination_barrier(4), placement)

    def test_runs_validated(self, machine):
        placement = machine.placement(4)
        with pytest.raises(ValueError):
            measure_barrier(machine, linear_barrier(4), placement, runs=0)

    def test_payload_increases_cost(self, machine):
        placement = machine.placement(8)
        bare = measure_barrier(
            machine, dissemination_barrier(8), placement, runs=16
        ).mean_worst
        loaded = measure_barrier(
            machine, dissemination_barrier(8), placement, runs=16,
            payload_bytes=100_000.0,
        ).mean_worst
        assert loaded > bare


class TestSweep:
    """``measure_barrier`` over process counts, placements and payloads."""

    def test_sweep_shape(self, machine):
        for nprocs in (2, 4, 8):
            timing = measure_barrier(
                machine, dissemination_barrier(nprocs),
                machine.placement(nprocs), runs=4,
            )
            assert timing.nprocs == nprocs
            assert timing.per_run_worst.shape == (4,)

    def test_payload_fn_applied(self, machine):
        from repro.bsplib.sync_model import dissemination_payloads

        placement = machine.placement(8)
        with_payload = measure_barrier(
            machine, dissemination_barrier(8), placement, runs=8,
            payload_bytes=dissemination_payloads(8),
        )
        without = measure_barrier(
            machine, dissemination_barrier(8), placement, runs=8
        )
        assert with_payload.mean_worst > without.mean_worst

    def test_placement_policy_forwarded(self, machine):
        block = measure_barrier(
            machine, dissemination_barrier(10),
            machine.placement(10, policy="block"), runs=4,
        )
        rr = measure_barrier(
            machine, dissemination_barrier(10),
            machine.placement(10, policy="round_robin"), runs=4,
        )
        # Block placement keeps 10 ranks on two nodes with different pair
        # structure than round-robin parity; times should differ.
        assert block.mean_worst != rr.mean_worst
