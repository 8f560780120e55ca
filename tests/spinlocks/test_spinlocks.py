"""Tests for the §5.1 spinlock study."""

import numpy as np
import pytest

from repro.cluster import presets
from repro.cluster.topology import Placement
from repro.machine import SimMachine
from repro.spinlocks import (
    ALGORITHMS,
    barrier_lower_bound,
    simulate_spinlock,
)


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=151
    )


class TestSimulation:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_acquisitions_granted(self, machine, algorithm):
        placement = machine.placement(6, policy="block")
        result = simulate_spinlock(
            machine, algorithm, placement, acquisitions_per_thread=5
        )
        assert result.acquisitions == 30
        assert result.per_acquisition.shape == (1, 30)
        assert result.total_seconds > 0

    def test_unknown_algorithm(self, machine):
        with pytest.raises(ValueError, match="unknown algorithm"):
            simulate_spinlock(machine, "magic", machine.placement(2))

    def test_deterministic(self, machine):
        placement = machine.placement(4, policy="block")
        a = simulate_spinlock(machine, "mcs", placement)
        b = simulate_spinlock(machine, "mcs", placement)
        np.testing.assert_array_equal(a.per_acquisition, b.per_acquisition)

    def test_single_thread_cheap(self, machine):
        placement = machine.placement(1)
        result = simulate_spinlock(
            machine, "test_and_set", placement, acquisitions_per_thread=8,
            noisy=False,
        )
        # Re-acquiring a line already in the own cache is the SELF cost.
        assert result.mean_handoff < 1e-7


class TestLocalityDominates:
    def test_cross_socket_contention_costlier(self, machine):
        """§5.1 guideline 1: *which* cores contend matters.  The same
        thread count confined to one socket is cheaper than spread over
        two sockets."""
        topo = machine.topology
        same_socket = Placement(topo, [0, 1, 2, 3])
        cross_socket = Placement(topo, [0, 1, 4, 5])
        t_same = simulate_spinlock(
            machine, "mcs", same_socket, noisy=False
        ).mean_handoff
        t_cross = simulate_spinlock(
            machine, "mcs", cross_socket, noisy=False
        ).mean_handoff
        assert t_cross > t_same

    def test_simple_lock_degrades_faster(self, machine):
        """§5.1 guideline 2: contention punishes test-and-set far more than
        the queue lock — the storm grows with the waiter count."""
        handoff = {
            (algorithm, n): simulate_spinlock(
                machine, algorithm, machine.placement(n, policy="block"),
                acquisitions_per_thread=8,
            ).mean_handoff
            for n in (2, 8)
            for algorithm in ("test_and_set", "mcs")
        }
        tas_growth = handoff["test_and_set", 8] / handoff["test_and_set", 2]
        mcs_growth = handoff["mcs", 8] / handoff["mcs", 2]
        assert tas_growth > 2.0 * mcs_growth

    def test_mcs_handoffs_are_single_transfers(self, machine):
        """Queue-lock handoffs cost one line transfer: bounded by the most
        distant pair, regardless of contention."""
        placement = machine.placement(8, policy="block")
        result = simulate_spinlock(machine, "mcs", placement, noisy=False)
        from repro.spinlocks.model import _line_cost

        worst_pair = max(
            _line_cost(machine, placement, a, b)
            for a in range(8)
            for b in range(8)
            if a != b
        )
        assert result.per_acquisition.max() <= worst_pair + 1e-12


class TestBarrierLowerBound:
    def test_bound_below_measured_barriers(self, machine):
        """§5.1: the cheapest atomic arrival bounds any barrier's cost."""
        from repro.barriers import dissemination_barrier, measure_barrier

        placement = machine.placement(8)
        bound = barrier_lower_bound(machine, placement)
        measured = measure_barrier(
            machine, dissemination_barrier(8), placement, runs=8
        ).mean_worst
        assert 0 < bound < measured

    def test_single_process(self, machine):
        assert barrier_lower_bound(machine, machine.placement(1)) == 0.0
