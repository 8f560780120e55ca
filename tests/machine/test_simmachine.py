"""Unit tests for the SimMachine facade."""

import hashlib

import numpy as np
import pytest

from repro.cluster import presets
from repro.cluster.noise import NoiseModel
from repro.cluster.topology import Relation
from repro.kernels.numeric import DAXPY
from repro.machine.simmachine import CommTruth, SimMachine


@pytest.fixture
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=42
    )


class TestRngStreams:
    def test_same_key_same_stream(self, machine):
        a = machine.rng("alpha", 3).random(4)
        b = machine.rng("alpha", 3).random(4)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self, machine):
        a = machine.rng("alpha").random(4)
        b = machine.rng("beta").random(4)
        assert not np.array_equal(a, b)

    def test_seed_changes_streams(self):
        m1 = SimMachine(presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=1)
        m2 = SimMachine(presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=2)
        assert not np.array_equal(m1.rng("s").random(4), m2.rng("s").random(4))


class TestCommTruth:
    def test_matrices_follow_relations(self, machine):
        pl = machine.placement(16)
        truth = machine.comm_truth(pl)
        rel = pl.relation_matrix()
        remote_latency = machine.params.links[Relation.REMOTE].latency
        assert (truth.latency[rel == int(Relation.REMOTE)] == remote_latency).all()
        assert (np.diag(truth.latency) == 0.0).all()

    def test_symmetric_for_symmetric_links(self, machine):
        truth = machine.comm_truth(machine.placement(12))
        np.testing.assert_array_equal(truth.latency, truth.latency.T)

    def test_two_node_parity_structure(self, machine):
        """Ranks 9..16 straddle two nodes by parity (§5.6.6)."""
        truth = machine.comm_truth(machine.placement(10))
        remote = machine.params.links[Relation.REMOTE].latency
        assert truth.latency[0, 1] == remote  # odd neighbour: other node
        assert truth.latency[0, 2] < remote  # even neighbour: same node


class TestCommTruthValidation:
    """Durations are checked once, when the truth is built; the engine
    draws noise around them without re-checking."""

    def _fields(self, machine, **changes):
        truth = machine.comm_truth(machine.placement(4))
        fields = {
            "placement": truth.placement,
            "latency": truth.latency.copy(),
            "start_overhead": truth.start_overhead.copy(),
            "inv_bandwidth": truth.inv_bandwidth.copy(),
            "nic_gap": truth.nic_gap,
            "recv_overhead": truth.recv_overhead,
            "invocation_overhead": truth.invocation_overhead,
        }
        fields.update(changes)
        return fields

    @pytest.mark.parametrize(
        "name", ["latency", "start_overhead", "inv_bandwidth"]
    )
    @pytest.mark.parametrize("bad", [-1e-9, np.nan, np.inf])
    def test_bad_matrix_rejected(self, machine, name, bad):
        fields = self._fields(machine)
        fields[name][1, 2] = bad
        with pytest.raises(ValueError, match=name):
            CommTruth(**fields)

    def test_wrong_shape_rejected(self, machine):
        with pytest.raises(ValueError, match="latency"):
            CommTruth(**self._fields(machine, latency=np.zeros((3, 3))))

    @pytest.mark.parametrize(
        "name", ["nic_gap", "recv_overhead", "invocation_overhead"]
    )
    @pytest.mark.parametrize("bad", [-1e-9, np.nan])
    def test_bad_scalar_rejected(self, machine, name, bad):
        with pytest.raises(ValueError, match=name):
            CommTruth(**self._fields(machine, **{name: bad}))

    def test_matrices_read_only(self, machine):
        truth = machine.comm_truth(machine.placement(4))
        for matrix in (truth.latency, truth.start_overhead, truth.inv_bandwidth):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 1] = -1.0


class TestKernelTime:
    def test_clean_matches_compute_model(self, machine):
        t = machine.kernel_time_clean(0, DAXPY, 1024, reps=8)
        assert t > 0

    def test_noisy_reproducible(self, machine):
        rng1 = machine.rng("k")
        rng2 = machine.rng("k")
        t1 = machine.kernel_time(0, DAXPY, 1024, reps=8, rng=rng1)
        t2 = machine.kernel_time(0, DAXPY, 1024, reps=8, rng=rng2)
        assert t1 == t2

    def test_no_rng_means_clean(self, machine):
        assert machine.kernel_time(0, DAXPY, 64) == machine.kernel_time_clean(
            0, DAXPY, 64
        )

    def test_heterogeneous_rate_scale(self):
        params = presets.xeon_8x2x4_params()
        hetero = SimMachine(
            presets.xeon_8x2x4_topology(),
            type(params)(
                links=params.links,
                core=params.core,
                nic_gap=params.nic_gap,
                recv_overhead=params.recv_overhead,
                invocation_overhead=params.invocation_overhead,
                socket_rate_scale={0: 2.0},
            ),
            seed=1,
        )
        fast = hetero.kernel_time_clean(0, DAXPY, 1024)  # socket 0: scaled
        slow = hetero.kernel_time_clean(8, DAXPY, 1024)  # node 1, socket 2
        assert fast < slow


class TestPlacementPolicies:
    def test_unknown_policy(self, machine):
        with pytest.raises(ValueError, match="policy"):
            machine.placement(4, policy="scatter")

    def test_block_policy(self, machine):
        pl = machine.placement(10, policy="block")
        assert pl.cores.tolist() == list(range(10))


class TestKernelTimeScalarBatchEquivalence:
    """kernel_time is replication 0 of kernel_time_runs at runs=1, so the
    scalar and replicated noise paths cannot drift apart."""

    def test_scalar_equals_length_one_batch(self, machine):
        for footprint in (None, 6.4e7):
            scalar = machine.kernel_time(
                9, DAXPY, 1024, reps=4, rng=machine.rng("eq"),
                footprint_bytes=footprint,
            )
            runs = machine.kernel_time_runs(
                9, DAXPY, 1024, 1, reps=4, rng=machine.rng("eq"),
                footprint_bytes=footprint,
            )
            assert runs.shape == (1,)
            assert scalar == runs[0]
            assert isinstance(scalar, float)

    def test_scalar_matches_historical_stream(self, machine):
        """A shape-(1,) draw consumes the RNG exactly as the retired
        per-scalar 0-d draw did — noisy kernel streams are unchanged."""
        clean = machine.kernel_time_clean(0, DAXPY, 2048)
        new = machine.kernel_time(0, DAXPY, 2048, rng=machine.rng("hist"))
        old = float(
            machine.noise.sample(
                machine.rng("hist"), np.asarray(clean, dtype=float)
            )
        )
        assert new == old

    def test_clean_scalar_unchanged(self, machine):
        assert machine.kernel_time(0, DAXPY, 512) == machine.kernel_time_clean(
            0, DAXPY, 512
        )


class TestKernelTimeRuns:
    def test_clean_broadcasts_base(self, machine):
        out = machine.kernel_time_runs(0, DAXPY, 1024, runs=5)
        assert out.shape == (5,)
        assert np.unique(out).size == 1
        assert out[0] == machine.kernel_time_clean(0, DAXPY, 1024)

    def test_noisy_reproducible_and_varies(self, machine):
        a = machine.kernel_time_runs(0, DAXPY, 1024, 8, rng=machine.rng("kr"))
        b = machine.kernel_time_runs(0, DAXPY, 1024, 8, rng=machine.rng("kr"))
        np.testing.assert_array_equal(a, b)
        assert np.unique(a).size > 1

    def test_replication_major_contract(self, machine):
        """kernel_time_runs is one sample_matrix call on the clean base."""
        clean = machine.kernel_time_clean(0, DAXPY, 4096)
        direct = machine.noise.sample_matrix(machine.rng("km"), clean, 6)
        via = machine.kernel_time_runs(0, DAXPY, 4096, 6, rng=machine.rng("km"))
        np.testing.assert_array_equal(via, direct)


#: sha256 of a noisy ``kernel_time`` stream on the seed-42 machine: three
#: draws for every (core, n, reps, footprint) below, from one generator.
KERNEL_TIME_PIN = (
    "f92e2f85ec02b2a1d679f7859fe0b2e4"
    "5c05298dc6c5ff412efe514d72904e93"
)


def test_noisy_kernel_time_stream_pinned(machine):
    """The draw order of sampled kernel times is pinned bit for bit."""
    rng = machine.rng("kernel-time-pin")
    times = [
        machine.kernel_time(core, DAXPY, n, reps=reps, rng=rng,
                            footprint_bytes=footprint)
        for core, n in ((0, 64), (9, 1024))
        for reps in (1, 16, 64)
        for footprint in (None, 4.0e3, 6.4e7)
        for _ in range(3)
    ]
    assert all(isinstance(t, float) for t in times)
    digest = hashlib.sha256(np.asarray(times, dtype="<f8").tobytes())
    assert digest.hexdigest() == KERNEL_TIME_PIN
