"""Unit tests for the pairwise communication benchmark (§5.6.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.comm_bench import _median_axis1, benchmark_comm
from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.cluster.topology import Relation
from repro.machine import SimMachine

FAST_SIZES = tuple(2**k for k in range(0, 17, 4))


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=51
    )


@pytest.fixture(scope="module")
def quiet_machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(),
        presets.xeon_8x2x4_params(),
        noise=QUIET,
        seed=52,
    )


class TestParameterExtraction:
    def test_quiet_gradient_recovers_truth(self, quiet_machine):
        """Without noise, the O_ij gradient equals start overhead plus the
        NIC injection cost for remote pairs."""
        placement = quiet_machine.placement(10)
        truth = quiet_machine.comm_truth(placement)
        report = benchmark_comm(quiet_machine, placement, samples=3,
                                sizes=FAST_SIZES)
        nodes = [placement.node_of(r) for r in range(10)]
        for i, j in [(0, 2), (0, 1)]:
            expected = truth.start_overhead[i, j]
            if nodes[i] != nodes[j]:
                expected += truth.nic_gap
            assert report.params.overhead[i, j] == pytest.approx(expected, rel=1e-6)

    def test_quiet_beta_recovers_truth(self, quiet_machine):
        placement = quiet_machine.placement(6)
        truth = quiet_machine.comm_truth(placement)
        report = benchmark_comm(quiet_machine, placement, samples=3,
                                sizes=FAST_SIZES)
        mask = ~np.eye(6, dtype=bool)
        np.testing.assert_allclose(
            report.params.inv_bandwidth[mask], truth.inv_bandwidth[mask], rtol=1e-6
        )

    def test_latency_intercept_includes_software_path(self, quiet_machine):
        """§5.6.3: the intercept is taken as the zero-length latency; it
        embeds the constant software overheads of the send path."""
        placement = quiet_machine.placement(4)
        truth = quiet_machine.comm_truth(placement)
        report = benchmark_comm(quiet_machine, placement, samples=3,
                                sizes=FAST_SIZES)
        i, j = 0, 1
        expected = (
            truth.invocation_overhead
            + truth.start_overhead[i, j]
            + truth.latency[i, j]
            + truth.recv_overhead
        )
        assert report.params.latency[i, j] == pytest.approx(expected, rel=1e-6)

    def test_diagonal_conventions(self, machine):
        placement = machine.placement(6)
        report = benchmark_comm(machine, placement, samples=5, sizes=FAST_SIZES)
        assert (np.diag(report.params.latency) == 0).all()
        assert (np.diag(report.params.inv_bandwidth) == 0).all()
        assert (np.diag(report.params.overhead) > 0).all()


class TestLocalityStructure:
    def test_latency_stratified_by_distance(self, machine):
        """The benchmarked matrix must reproduce the locality ordering the
        whole of Chapter 5 depends on."""
        placement = machine.placement(12)  # 2 nodes by parity
        report = benchmark_comm(machine, placement, samples=9, sizes=FAST_SIZES)
        latency = report.params.latency
        rel = placement.relation_matrix()
        remote = latency[rel == int(Relation.REMOTE)].mean()
        same_node = latency[rel == int(Relation.SAME_NODE)].mean()
        same_socket = latency[rel == int(Relation.SAME_SOCKET)].mean()
        assert same_socket < same_node < remote
        assert remote > 3 * same_node

    def test_noise_does_not_destroy_estimates(self, machine):
        """Noisy estimates stay within tens of percent of the quiet ones."""
        placement = machine.placement(8)
        noisy = benchmark_comm(machine, placement, samples=15, sizes=FAST_SIZES)
        quiet = SimMachine(
            presets.xeon_8x2x4_topology(),
            presets.xeon_8x2x4_params(),
            noise=QUIET,
            seed=1,
        )
        clean = benchmark_comm(quiet, quiet.placement(8), samples=3,
                               sizes=FAST_SIZES)
        mask = ~np.eye(8, dtype=bool)
        ratio = noisy.params.latency[mask] / clean.params.latency[mask]
        assert np.median(ratio) == pytest.approx(1.0, abs=0.25)


class TestHarness:
    def test_report_metadata(self, machine):
        placement = machine.placement(4)
        report = benchmark_comm(machine, placement, samples=5, sizes=FAST_SIZES)
        assert report.samples == 5

    def test_multiple_counts(self, machine):
        for nprocs in (2, 4):
            report = benchmark_comm(
                machine, machine.placement(nprocs), samples=5, sizes=FAST_SIZES
            )
            assert report.params.nprocs == nprocs

    def test_validation(self, machine):
        placement = machine.placement(4)
        with pytest.raises(ValueError):
            benchmark_comm(machine, placement, samples=1, sizes=FAST_SIZES)
        with pytest.raises(ValueError):
            benchmark_comm(machine, placement, samples=5, sizes=(1,))

    def test_reproducible(self, machine):
        placement = machine.placement(4)
        a = benchmark_comm(machine, placement, samples=5, sizes=FAST_SIZES)
        b = benchmark_comm(machine, placement, samples=5, sizes=FAST_SIZES)
        np.testing.assert_array_equal(a.params.latency, b.params.latency)


class TestEnsemble:
    """The benchmark's replication dimension (benchmark_comm_ensemble)."""

    def test_single_run_is_benchmark_comm(self, machine):
        from repro.bench.comm_bench import benchmark_comm_ensemble

        placement = machine.placement(4)
        single = benchmark_comm(machine, placement, samples=5,
                                sizes=FAST_SIZES)
        ensemble = benchmark_comm_ensemble(
            machine, placement, samples=5, sizes=FAST_SIZES, runs=1
        )
        assert len(ensemble) == 1
        np.testing.assert_array_equal(
            single.params.latency, ensemble[0].params.latency
        )
        np.testing.assert_array_equal(
            single.params.overhead, ensemble[0].params.overhead
        )
        np.testing.assert_array_equal(
            single.params.inv_bandwidth, ensemble[0].params.inv_bandwidth
        )

    def test_members_differ_but_reproducible(self, machine):
        from repro.bench.comm_bench import benchmark_comm_ensemble

        placement = machine.placement(4)
        a = benchmark_comm_ensemble(
            machine, placement, samples=5, sizes=FAST_SIZES, runs=3
        )
        b = benchmark_comm_ensemble(
            machine, placement, samples=5, sizes=FAST_SIZES, runs=3
        )
        assert len(a) == 3
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.params.latency, rb.params.latency)
        assert a[0].params.latency.tolist() != a[1].params.latency.tolist()

    def test_members_scatter_around_truth(self, machine):
        """Every ensemble member is a valid extraction: latencies cluster
        near the configured link latency for off-node pairs."""
        from repro.bench.comm_bench import benchmark_comm_ensemble

        placement = machine.placement(6)
        truth = machine.comm_truth(placement)
        members = benchmark_comm_ensemble(
            machine, placement, samples=9, sizes=FAST_SIZES, runs=5
        )
        # The slowest off-diagonal pair has the clearest latency signal.
        masked = truth.latency.copy()
        np.fill_diagonal(masked, -1.0)
        i, j = np.unravel_index(int(masked.argmax()), masked.shape)
        estimates = np.array([m.params.latency[i, j] for m in members])
        # Intercepts absorb software-path constants; stay within a factor.
        assert np.all(estimates > 0)
        assert np.all(estimates < 50 * truth.latency[i, j])
        spread = estimates.max() - estimates.min()
        assert spread < estimates.mean()

    def test_runs_validated(self, machine):
        from repro.bench.comm_bench import benchmark_comm_ensemble

        with pytest.raises(ValueError, match="runs"):
            benchmark_comm_ensemble(
                machine, machine.placement(4), samples=5, sizes=FAST_SIZES,
                runs=0,
            )


@given(
    runs=st.integers(1, 4),
    samples=st.integers(3, 12),
    tail=st.lists(st.integers(1, 5), max_size=2),
    seed=st.integers(0, 2**31),
    ties=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_median_by_selection_is_np_median_bitwise(runs, samples, tail, seed,
                                                  ties):
    """Odd and even sample counts, sweep axes after the sample axis, and
    repeated values all reduce to ``np.median(x, axis=1)`` bit for bit."""
    x = np.random.default_rng(seed).lognormal(
        0.0, 0.5, (runs, samples, *tail)
    )
    if ties:
        x = np.round(x, 1)
    expected = np.median(x, axis=1)
    got = _median_axis1(x)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
