"""Unit tests for the discrete-event stage engine (§5.6.1)."""

import numpy as np
import pytest

from repro.barriers.patterns import (
    dissemination_barrier,
    linear_barrier,
    tree_barrier,
)
from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.machine.simmachine import SimMachine
from repro.simmpi.engine import simulate_stages_batch, stage_payload_matrix


def simulate_once(truth, stages, **kwargs):
    """One execution: row 0 of a ``runs=1`` engine call."""
    return simulate_stages_batch(truth, stages, runs=1, **kwargs)[0]


@pytest.fixture
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(),
        presets.xeon_8x2x4_params(),
        noise=QUIET,
        seed=11,
    )


def run_clean(machine, pattern, nprocs, payload=None, entry=None):
    placement = machine.placement(nprocs)
    truth = machine.comm_truth(placement)
    return simulate_once(
        truth, pattern.stages, payload_bytes=payload, entry_times=entry
    )


class TestEngineBasics:
    def test_deterministic_without_rng(self, machine):
        p = 8
        pattern = tree_barrier(p)
        a = run_clean(machine, pattern, p)
        b = run_clean(machine, pattern, p)
        np.testing.assert_array_equal(a, b)

    def test_exits_nonnegative_and_finite(self, machine):
        exits = run_clean(machine, dissemination_barrier(16), 16)
        assert np.isfinite(exits).all()
        assert (exits >= 0).all()

    def test_empty_stage_costs_nothing(self, machine):
        placement = machine.placement(4)
        truth = machine.comm_truth(placement)
        exits = simulate_once(truth, [np.zeros((4, 4), dtype=bool)])
        np.testing.assert_array_equal(exits, np.zeros(4))

    def test_entry_times_respected(self, machine):
        p = 4
        pattern = linear_barrier(p)
        late = np.array([0.0, 0.0, 0.0, 5.0])
        exits = run_clean(machine, pattern, p, entry=late)
        # A 5-second straggler delays everyone past 5 seconds (barrier
        # semantics: §5.5's empirical verification method).
        assert (exits > 5.0).all()

    def test_straggler_delay_visible_per_process(self, machine):
        """The §5.5 verification protocol: delaying each process in turn
        must show in overall completion time."""
        p = 6
        pattern = dissemination_barrier(p)
        base = run_clean(machine, pattern, p).max()
        for victim in range(p):
            entry = np.zeros(p)
            entry[victim] = 1.0
            delayed = run_clean(machine, pattern, p, entry=entry).max()
            assert delayed >= 1.0 + 0.5 * base


class TestLocalityCosts:
    def test_remote_costs_more_than_local(self, machine):
        """One remote signal must cost more than one same-socket signal."""
        p = 10  # two nodes by parity
        placement = machine.placement(p)
        truth = machine.comm_truth(placement)
        local = np.zeros((p, p), dtype=bool)
        local[0, 2] = True  # same node
        remote = np.zeros((p, p), dtype=bool)
        remote[0, 1] = True  # other node by parity
        t_local = simulate_once(truth, [local]).max()
        t_remote = simulate_once(truth, [remote]).max()
        assert t_remote > 2 * t_local

    def test_nic_serialises_fanout(self, machine):
        """Many remote sends from one node take longer than one, by at
        least the NIC gap per extra message."""
        p = 16
        placement = machine.placement(p)
        truth = machine.comm_truth(placement)
        one = np.zeros((p, p), dtype=bool)
        one[0, 1] = True
        many = np.zeros((p, p), dtype=bool)
        many[0, [1, 3, 5, 7, 9]] = True
        t_one = simulate_once(truth, [one]).max()
        t_many = simulate_once(truth, [many]).max()
        assert t_many > t_one + 3 * truth.nic_gap

    def test_payload_adds_transfer_time(self, machine):
        p = 4
        pattern = linear_barrier(p)
        t0 = run_clean(machine, pattern, p).max()
        t1 = run_clean(machine, pattern, p, payload=1_000_000.0).max()
        assert t1 > t0


class TestNoiseIntegration:
    def test_noisy_runs_vary(self):
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=3
        )
        placement = machine.placement(8)
        truth = machine.comm_truth(placement)
        rng = machine.rng("engine-noise")
        pattern = dissemination_barrier(8)
        a = simulate_once(truth, pattern.stages, rng=rng, noise=machine.noise).max()
        b = simulate_once(truth, pattern.stages, rng=rng, noise=machine.noise).max()
        assert a != b

    def test_noise_reproducible_across_streams(self):
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=3
        )
        placement = machine.placement(8)
        truth = machine.comm_truth(placement)
        pattern = dissemination_barrier(8)
        a = simulate_once(
            truth, pattern.stages, rng=machine.rng("x"), noise=machine.noise
        )
        b = simulate_once(
            truth, pattern.stages, rng=machine.rng("x"), noise=machine.noise
        )
        np.testing.assert_array_equal(a, b)


class TestPayloadSpec:
    def test_none_is_zero(self):
        np.testing.assert_array_equal(
            stage_payload_matrix(None, 0, 3), np.zeros((3, 3))
        )

    def test_scalar_broadcast(self):
        out = stage_payload_matrix(64.0, 2, 2)
        np.testing.assert_array_equal(out, np.full((2, 2), 64.0))

    def test_per_stage_scalars(self):
        out = stage_payload_matrix([1.0, 2.0], 1, 2)
        np.testing.assert_array_equal(out, np.full((2, 2), 2.0))

    def test_per_stage_matrix(self):
        mats = [np.ones((2, 2)), 3.0 * np.ones((2, 2))]
        out = stage_payload_matrix(mats, 0, 2)
        np.testing.assert_array_equal(out, np.ones((2, 2)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            stage_payload_matrix([np.ones((3, 3))], 0, 2)

    def test_per_row_vector(self):
        out = stage_payload_matrix([np.array([8.0, 0.0, 24.0])], 0, 2, runs=3)
        assert out.shape == (3, 2, 2)
        np.testing.assert_array_equal(out[2], np.full((2, 2), 24.0))

    @pytest.mark.parametrize("runs", [None, 4])
    def test_per_row_vector_needs_matching_runs(self, runs):
        with pytest.raises(ValueError, match="wrong shape"):
            stage_payload_matrix([np.ones(3)], 0, 2, runs=runs)

    @pytest.mark.parametrize("bad", [-1e6, np.nan, np.inf])
    def test_per_row_vector_checked(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            stage_payload_matrix([np.array([1.0, bad])], 0, 2, runs=2)

    @pytest.mark.parametrize("bad", [-1e6, np.nan, np.inf])
    @pytest.mark.parametrize(
        "spec",
        [
            lambda bad: bad,
            lambda bad: [1.0, bad],
            lambda bad: [np.ones((2, 2)), np.array([[0.0, bad], [1.0, 0.0]])],
        ],
        ids=["scalar", "per-stage-scalar", "per-stage-matrix"],
    )
    def test_negative_or_non_finite_rejected(self, spec, bad):
        with pytest.raises(ValueError, match="non-negative"):
            stage_payload_matrix(spec(bad), 1, 2)


class TestBadPayloadRejected:
    """A negative or non-finite payload fails on the clean and the noisy
    path alike, before any event time is computed."""

    @pytest.mark.parametrize("bad", [-1e6, np.nan])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_engine_rejects(self, bad, noisy):
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=3
        )
        truth = machine.comm_truth(machine.placement(4))
        stage = np.zeros((4, 4), dtype=bool)
        stage[0, 1] = True
        kwargs = (
            {"rng": machine.rng("bad-payload"), "noise": machine.noise}
            if noisy else {}
        )
        with pytest.raises(ValueError, match="non-negative"):
            simulate_once(truth, [stage], payload_bytes=bad, **kwargs)


class TestValidationErrors:
    def test_wrong_stage_shape(self, machine):
        placement = machine.placement(4)
        truth = machine.comm_truth(placement)
        with pytest.raises(ValueError, match="wrong shape"):
            simulate_once(truth, [np.zeros((3, 3), dtype=bool)])

    def test_wrong_entry_shape(self, machine):
        placement = machine.placement(4)
        truth = machine.comm_truth(placement)
        with pytest.raises(ValueError, match="entry_times"):
            simulate_once(
                truth,
                [np.zeros((4, 4), dtype=bool)],
                entry_times=np.zeros(3),
            )
