"""Unit and property tests for the noise model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.noise import QUIET, NoiseModel


class TestNoiseModel:
    def test_quiet_is_identity(self):
        rng = np.random.default_rng(0)
        base = np.array([1e-6, 2e-3, 5.0])
        out = QUIET.sample(rng, base)
        np.testing.assert_allclose(out, base)

    def test_median_preserved(self):
        """Log-normal jitter is median-1: medians recover the base value."""
        model = NoiseModel(jitter_sigma=0.1, outlier_prob=0.0)
        rng = np.random.default_rng(1)
        samples = model.sample(rng, np.full(20001, 1e-3))
        assert abs(np.median(samples) - 1e-3) / 1e-3 < 0.02

    def test_outliers_appear_at_expected_frequency(self):
        model = NoiseModel(jitter_sigma=0.0, outlier_prob=0.05, outlier_scale=10.0)
        rng = np.random.default_rng(2)
        samples = model.sample(rng, np.full(20000, 1.0))
        frac = np.mean(samples > 1.5)
        assert 0.03 < frac < 0.07

    def test_floor_enforced(self):
        model = NoiseModel(jitter_sigma=0.0, outlier_prob=0.0, floor=1e-6)
        rng = np.random.default_rng(3)
        out = model.sample(rng, np.array([0.0]))
        assert out[0] == 1e-6

    def test_negative_duration_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            NoiseModel().sample(rng, np.array([-1.0]))

    def test_invalid_outlier_prob(self):
        with pytest.raises(ValueError):
            NoiseModel(outlier_prob=0.9)


@given(
    sigma=st.floats(0.0, 0.3),
    base=st.floats(1e-9, 1e3),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_samples_always_positive(sigma, base, seed):
    model = NoiseModel(jitter_sigma=sigma, outlier_prob=0.02)
    rng = np.random.default_rng(seed)
    out = model.sample(rng, np.full(16, base))
    assert np.all(out > 0)


class TestSampleMatrix:
    def test_shape_and_replication_major_order(self):
        """sample_matrix(base, R) must equal one sample() call on the
        (R, *base.shape) broadcast — the engine's draw-order contract."""
        model = NoiseModel()
        base = np.array([1e-6, 2e-6, 3e-6])
        a = model.sample_matrix(np.random.default_rng(9), base, 5)
        b = model.sample(
            np.random.default_rng(9), np.broadcast_to(base, (5, 3)).copy()
        )
        assert a.shape == (5, 3)
        np.testing.assert_array_equal(a, b)

    def test_scalar_base(self):
        out = NoiseModel().sample_matrix(np.random.default_rng(1), 1e-6, 4)
        assert out.shape == (4,)
        assert (out > 0).all()

    def test_nd_base(self):
        base = np.full((2, 3), 1e-6)
        out = NoiseModel().sample_matrix(np.random.default_rng(2), base, 7)
        assert out.shape == (7, 2, 3)

    def test_runs_validated(self):
        with pytest.raises(ValueError, match="runs"):
            NoiseModel().sample_matrix(np.random.default_rng(3), 1.0, 0)

    def test_quiet_model_returns_base(self):
        base = np.array([1e-6, 5e-4])
        out = QUIET.sample_matrix(np.random.default_rng(4), base, 3)
        np.testing.assert_array_equal(out, np.broadcast_to(base, (3, 2)))

    @pytest.mark.parametrize("bad", [-1e-9, np.nan])
    def test_negative_or_nan_base_rejected(self, bad):
        base = np.array([1e-6, bad])
        with pytest.raises(ValueError, match="non-negative"):
            NoiseModel().sample_matrix(np.random.default_rng(5), base, 3)

    def test_kernel_matches_broadcast_sample_bitwise(self):
        """The unbroadcast kernel draws exactly what sample() draws on
        the materialised (R, *S) base — spike branch included."""
        model = NoiseModel(outlier_prob=0.5)
        base = np.array([[1e-6, 2e-6, 0.0], [3e-6, 4e-3, 5e-6]])
        a = model.sample_matrix(np.random.default_rng(6), base, 4)
        b = model.sample(
            np.random.default_rng(6), np.broadcast_to(base, (4, *base.shape))
        )
        assert a.tobytes() == b.tobytes()
        c = model.perturb(np.random.default_rng(6), 2e-6, (4, 3))
        d = model.sample(np.random.default_rng(6), np.full((4, 3), 2e-6))
        assert c.tobytes() == d.tobytes()
