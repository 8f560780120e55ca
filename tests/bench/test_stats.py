"""Unit and property tests for benchmark statistics (§4.1, §5.6.3)."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.stats import (
    batched_regression,
    linear_regression,
    median,
    outlier_mask,
    resample_outliers,
    student_t_critical,
)


class TestStudentTCritical:
    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    @pytest.mark.parametrize("dof", [1, 5, 29, 100])
    def test_matches_scipy(self, confidence, dof):
        """The thesis's trapezoid integration must agree with the reference
        implementation to the stated 1e-4-interval accuracy."""
        ours = student_t_critical(confidence, dof)
        reference = scipy.stats.t.ppf(0.5 + confidence / 2.0, dof)
        assert ours == pytest.approx(reference, abs=5e-3)

    def test_monotone_in_confidence(self):
        assert student_t_critical(0.99, 10) > student_t_critical(0.90, 10)

    def test_rejects_bad_dof(self):
        with pytest.raises(ValueError):
            student_t_critical(0.95, 0)


class TestOutlierMask:
    def test_flags_obvious_spike(self):
        samples = np.concatenate([np.full(29, 1.0) + np.linspace(0, 0.01, 29), [50.0]])
        mask = outlier_mask(samples)
        assert mask[-1]
        assert mask[:-1].sum() == 0

    def test_clean_batch_flags_few(self):
        """§4.1: a 95% filter on 30 normal samples expects ~1.5 flags."""
        rng = np.random.default_rng(2)
        flagged = [
            outlier_mask(rng.normal(1.0, 0.01, 30)).sum() for _ in range(20)
        ]
        assert np.mean(flagged) < 4.0

    def test_constant_batch_unflagged(self):
        assert outlier_mask(np.full(30, 1.0)).sum() == 0

    def test_small_batches_never_flag(self):
        assert outlier_mask(np.array([1.0, 100.0])).sum() == 0


class TestResampleOutliers:
    def test_replaces_spikes(self):
        rng = np.random.default_rng(3)
        samples = np.concatenate([rng.normal(1.0, 0.02, 29), [10.0]])
        clean, reruns = resample_outliers(
            samples, lambda k: rng.normal(1.0, 0.02, k)
        )
        assert reruns >= 1
        assert clean.max() < 2.0

    def test_constant_batch_no_reruns(self):
        samples = np.full(30, 1.0)
        _, reruns = resample_outliers(samples, lambda k: np.full(k, 1.0))
        assert reruns == 0

    def test_converges_on_normal_noise(self):
        rng = np.random.default_rng(4)
        clean, reruns = resample_outliers(
            rng.normal(1.0, 0.01, 30), lambda k: rng.normal(1.0, 0.01, k)
        )
        assert clean.shape == (30,)
        assert reruns < 60  # bounded re-sampling, not a runaway loop

    def test_nonconvergence_raises(self):
        samples = np.concatenate([np.full(29, 1.0) + np.linspace(0, 0.01, 29), [50.0]])
        with pytest.raises(RuntimeError, match="did not converge"):
            resample_outliers(samples, lambda k: np.full(k, 99.0))


class TestLinearRegression:
    def test_exact_line_recovered(self):
        x = np.arange(10, dtype=float)
        y = 3.0 * x + 2.0
        line = linear_regression(x, y)
        assert line.gradient == pytest.approx(3.0)
        assert line.intercept == pytest.approx(2.0)

    def test_predict(self):
        line = linear_regression([0.0, 1.0], [1.0, 3.0])
        np.testing.assert_allclose(line.predict([2.0]), [5.0])

    def test_identical_x_rejected(self):
        with pytest.raises(ValueError):
            linear_regression([1.0, 1.0], [0.0, 1.0])


class TestBatchedRegression:
    def test_matches_single(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0, 1, 8)
        ys = rng.normal(size=(6, 8))
        grads, intercepts = batched_regression(x, ys)
        for row in range(6):
            line = linear_regression(x, ys[row])
            assert grads[row] == pytest.approx(line.gradient)
            assert intercepts[row] == pytest.approx(line.intercept)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            batched_regression(np.arange(3.0), np.zeros((2, 4)))


@given(
    gradient=st.floats(-10, 10),
    intercept=st.floats(-10, 10),
    n=st.integers(3, 40),
)
@settings(max_examples=60, deadline=None)
def test_regression_recovers_noiseless_lines(gradient, intercept, n):
    x = np.linspace(0.0, 5.0, n)
    y = gradient * x + intercept
    line = linear_regression(x, y)
    assert line.gradient == pytest.approx(gradient, abs=1e-9)
    assert line.intercept == pytest.approx(intercept, abs=1e-8)


class TestMedian:
    def test_simple(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])
