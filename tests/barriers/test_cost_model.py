"""Unit tests for the analytic barrier cost model (§5.6.5, Fig. 6.2)."""

import numpy as np
import pytest

from repro.barriers.cost_model import (
    CommParameters,
    critical_path_recursive,
    predict_barrier_cost,
    predict_barrier_timeline,
    stage_costs,
)
from repro.barriers.patterns import (
    dissemination_barrier,
    linear_barrier,
    tree_barrier,
)
from repro.barriers.reference import posted_receive_pairs


def uniform_params(p, latency=1.0, overhead=0.1, self_overhead=0.01, beta=None):
    lat = np.full((p, p), latency)
    np.fill_diagonal(lat, 0.0)
    ov = np.full((p, p), overhead)
    np.fill_diagonal(ov, self_overhead)
    inv_bw = None
    if beta is not None:
        inv_bw = np.full((p, p), beta)
        np.fill_diagonal(inv_bw, 0.0)
    return CommParameters(overhead=ov, latency=lat, inv_bandwidth=inv_bw)


class TestStageCosts:
    def test_eq_5_4_single_destination(self):
        """cost = 2 * L + O for a one-signal stage."""
        params = uniform_params(2)
        pattern = linear_barrier(2)
        costs = stage_costs(pattern, params)
        assert costs[0][1] == pytest.approx(2.0 * 1.0 + 0.1)

    def test_eq_5_4_fan_out_sums_latencies(self):
        """The master's release sums 2L over all destinations but takes the
        max of the overheads."""
        params = uniform_params(5)
        pattern = linear_barrier(5)
        release = stage_costs(pattern, params)[1]
        assert release[0] == pytest.approx(2.0 * 4 * 1.0 + 0.1)

    def test_invocation_floor_for_receivers(self):
        params = uniform_params(3)
        pattern = linear_barrier(3)
        arrive = stage_costs(pattern, params)[0]
        assert arrive[0] == pytest.approx(0.01)  # master only receives

    def test_nonparticipant_costs_nothing(self):
        params = uniform_params(4)
        pattern = tree_barrier(4)
        stage1 = stage_costs(pattern, params)[1]  # only 2 -> 0 active
        assert stage1[1] == 0.0 and stage1[3] == 0.0

    def test_payload_term(self):
        params = uniform_params(2, beta=0.5)
        pattern = linear_barrier(2)
        with_payload = stage_costs(pattern, params, payload_bytes=10.0)
        without = stage_costs(pattern, params)
        assert with_payload[0][1] - without[0][1] == pytest.approx(5.0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stage_costs(linear_barrier(3), uniform_params(4))


class TestPostedReceives:
    def test_tree_release_is_posted(self):
        """A tree child signals its parent, idles through the remaining
        arrival stages, then awaits the parent's release: posted."""
        pattern = tree_barrier(8)
        posted = posted_receive_pairs(pattern)
        # Stage 0: leaves 1,3,5,7 signal 0,2,4,6. Release stage for the
        # leaves is the last stage; e.g. 0 -> 1 should be posted (1 idle
        # since stage 0).
        last = pattern.num_stages - 1
        assert (0, 1) in posted[last]

    def test_dissemination_never_posted(self):
        """Every process acts every stage: no idle gap, nothing posted."""
        pattern = dissemination_barrier(16)
        posted = posted_receive_pairs(pattern)
        assert all(len(s) == 0 for s in posted)

    def test_posted_lowers_cost(self):
        p = 8
        pattern = tree_barrier(p)
        params = uniform_params(p, overhead=0.5, self_overhead=0.001)
        costs = stage_costs(pattern, params)
        # In the final release stage parents contact posted leaves: the max
        # O-term uses O_jj = 0.001 instead of 0.5.
        last = pattern.num_stages - 1
        sender_cost = costs[last][0]
        assert sender_cost == pytest.approx(2.0 * 1.0 + 0.001)


class TestCriticalPath:
    @pytest.mark.parametrize("factory", [linear_barrier, tree_barrier, dissemination_barrier])
    @pytest.mark.parametrize("p", [2, 3, 4, 6, 8])
    def test_dp_equals_recursive(self, factory, p):
        """The stage-wise DP must agree with Fig. 6.2's recursive search."""
        rng = np.random.default_rng(p)
        lat = rng.uniform(0.5, 2.0, (p, p))
        np.fill_diagonal(lat, 0.0)
        ov = rng.uniform(0.05, 0.2, (p, p))
        params = CommParameters(overhead=ov, latency=lat)
        pattern = factory(p)
        dp = predict_barrier_cost(pattern, params)
        rec = critical_path_recursive(pattern, params)
        assert dp == pytest.approx(rec)

    def test_single_process_is_free(self):
        params = uniform_params(1)
        assert predict_barrier_cost(linear_barrier(1), params) == 0.0

    def test_linear_grows_linearly(self):
        """O(P) behaviour of the linear barrier under uniform costs."""
        costs = [
            predict_barrier_cost(linear_barrier(p), uniform_params(p))
            for p in (4, 8, 16)
        ]
        assert costs[1] / costs[0] == pytest.approx(2.0, rel=0.2)
        assert costs[2] / costs[1] == pytest.approx(2.0, rel=0.2)

    def test_dissemination_grows_logarithmically(self):
        c8 = predict_barrier_cost(dissemination_barrier(8), uniform_params(8))
        c64 = predict_barrier_cost(dissemination_barrier(64), uniform_params(64))
        assert c64 / c8 == pytest.approx(2.0, rel=0.2)  # log2(64)/log2(8)

    def test_timeline_monotone_nonnegative(self):
        params = uniform_params(8)
        timeline = predict_barrier_timeline(tree_barrier(8), params)
        assert (timeline >= 0).all()

    def test_heterogeneous_latency_dominates(self):
        """Locality in the cost matrices steers the prediction: making one
        process far away must raise the barrier cost."""
        p = 8
        params_near = uniform_params(p, latency=1.0)
        lat = np.full((p, p), 1.0)
        lat[7, :] = lat[:, 7] = 50.0
        np.fill_diagonal(lat, 0.0)
        params_far = CommParameters(overhead=params_near.overhead, latency=lat)
        pattern = tree_barrier(p)
        assert predict_barrier_cost(pattern, params_far) > predict_barrier_cost(
            pattern, params_near
        )


class TestCommParameters:
    def test_nested_lists_are_converted(self):
        params = CommParameters(
            overhead=[[0.01, 0.1], [0.1, 0.01]],
            latency=[[0.0, 1.0], [1.0, 0.0]],
            inv_bandwidth=[[0.0, 0.5], [0.5, 0.0]],
        )
        assert params.nprocs == 2
        assert isinstance(params.overhead, np.ndarray)
        assert params.overhead.dtype == float
        assert params.inv_bandwidth.shape == (2, 2)

    def test_non_square_overhead_rejected(self):
        with pytest.raises(ValueError, match="overhead"):
            CommParameters(np.zeros((3, 4)), np.zeros((3, 3)))

    def test_overhead_must_be_2d(self):
        with pytest.raises(ValueError, match="overhead"):
            CommParameters([0.1, 0.2], np.zeros((2, 2)))

    def test_latency_and_bandwidth_must_match(self):
        with pytest.raises(ValueError, match="latency"):
            CommParameters(np.zeros((3, 3)), np.zeros((3, 4)))
        with pytest.raises(ValueError, match="inv_bandwidth"):
            CommParameters(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((2, 2)))


class TestPayloadPricing:
    def test_payload_without_bandwidth_rejected(self):
        params = uniform_params(2)
        assert predict_barrier_cost(linear_barrier(2), params) == pytest.approx(4.2)
        with pytest.raises(ValueError, match="inv_bandwidth"):
            predict_barrier_cost(linear_barrier(2), params, payload_bytes=1e6)
        with pytest.raises(ValueError, match="inv_bandwidth"):
            stage_costs(linear_barrier(3), uniform_params(3),
                        payload_bytes=[0.0, 8.0])

    def test_invalid_payload_rejected(self):
        params = uniform_params(2, beta=0.5)
        for bad in (-1.0, float("nan"), [np.full((2, 2), np.inf)] * 2):
            with pytest.raises(ValueError, match="payload"):
                predict_barrier_cost(linear_barrier(2), params, payload_bytes=bad)
