"""Tests for on-line barrier adaptivity (§9.2.2 implemented future work)."""

import numpy as np
import pytest

from repro.adapt import (
    OnlineBarrierAdapter,
    degrade_profile,
    merge_profiles,
)
from repro.barriers import is_correct_barrier, predict_barrier_cost
from repro.barriers.cost_model import CommParameters
from repro.bench import benchmark_comm
from repro.cluster import presets
from repro.machine import SimMachine


@pytest.fixture(scope="module")
def profile():
    machine = SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=111
    )
    placement = machine.placement(24)
    return benchmark_comm(
        machine, placement, samples=7, sizes=tuple(2**k for k in range(0, 17, 4))
    ).params


class TestMergeProfiles:
    def test_smoothing_zero_keeps_old(self, profile):
        merged = merge_profiles(profile, degrade_profile(profile, [0]), 0.0)
        np.testing.assert_array_equal(merged.latency, profile.latency)

    def test_smoothing_one_takes_new(self, profile):
        new = degrade_profile(profile, [0])
        merged = merge_profiles(profile, new, 1.0)
        np.testing.assert_array_equal(merged.latency, new.latency)

    def test_halfway(self, profile):
        new = degrade_profile(profile, [0], latency_factor=3.0)
        merged = merge_profiles(profile, new, 0.5)
        expected = 0.5 * (profile.latency[0, 5] + new.latency[0, 5])
        assert merged.latency[0, 5] == pytest.approx(expected)

    def test_size_mismatch(self, profile):
        small = CommParameters(
            overhead=np.ones((2, 2)), latency=np.zeros((2, 2))
        )
        with pytest.raises(ValueError):
            merge_profiles(profile, small)


class TestDegradeProfile:
    def test_inflates_touching_links(self, profile):
        degraded = degrade_profile(profile, [3], latency_factor=10.0)
        assert degraded.latency[3, 5] == pytest.approx(
            10.0 * profile.latency[3, 5]
        )
        assert degraded.latency[5, 3] == pytest.approx(
            10.0 * profile.latency[5, 3]
        )
        assert degraded.latency[4, 5] == pytest.approx(profile.latency[4, 5])

    def test_diagonal_stays_zero(self, profile):
        degraded = degrade_profile(profile, [0, 1])
        assert (np.diag(degraded.latency) == 0).all()


class TestOnlineAdapter:
    def test_initial_pattern_correct(self, profile):
        adapter = OnlineBarrierAdapter(profile)
        assert is_correct_barrier(adapter.pattern)

    def test_stable_profile_no_switch(self, profile):
        adapter = OnlineBarrierAdapter(profile)
        for _ in range(3):
            adapter.observe(profile)
        assert adapter.switches == 0

    def test_drift_triggers_readaptation(self, profile):
        """Degrading many links reshapes the optimal pattern family; the
        adapter must react and end with a pattern whose predicted cost
        under the new conditions beats the stale choice."""
        adapter = OnlineBarrierAdapter(profile, smoothing=1.0)
        stale = adapter.pattern
        # All intra-node links now look as slow as remote ones: the SSS
        # structure collapses and the hierarchy choice must change.
        drifted = CommParameters(
            overhead=profile.overhead,
            latency=np.where(
                profile.latency > 0, profile.latency.max(), 0.0
            ),
            inv_bandwidth=profile.inv_bandwidth,
        )
        adapter.observe(drifted)
        stale_cost = predict_barrier_cost(stale, drifted)
        new_cost = predict_barrier_cost(adapter.pattern, drifted)
        assert new_cost <= stale_cost

    def test_events_recorded(self, profile):
        adapter = OnlineBarrierAdapter(profile)
        adapter.observe(profile)
        adapter.observe(degrade_profile(profile, [0]))
        assert len(adapter.events) == 2
        assert adapter.events[0].observation == 1

    def test_hysteresis_prevents_flapping(self, profile):
        """Small perturbations below the switch factor never flip the
        pattern back and forth."""
        adapter = OnlineBarrierAdapter(profile, switch_factor=2.0)
        rng = np.random.default_rng(0)
        for _ in range(4):
            jitter = profile.latency * rng.uniform(0.97, 1.03, profile.latency.shape)
            np.fill_diagonal(jitter, 0.0)
            adapter.observe(
                CommParameters(
                    overhead=profile.overhead,
                    latency=jitter,
                    inv_bandwidth=profile.inv_bandwidth,
                )
            )
        assert adapter.switches == 0

    def test_switch_factor_validated(self, profile):
        with pytest.raises(ValueError):
            OnlineBarrierAdapter(profile, switch_factor=0.5)
