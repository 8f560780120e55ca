"""Unit tests for the outlier-rerun sampling discipline (§4.1)."""

import numpy as np
import pytest

from repro.bench.sampling import FilteredSample, collect_filtered


class TestCollectFiltered:
    def test_clean_source_untouched(self):
        rng = np.random.default_rng(0)
        batch = collect_filtered(lambda k: rng.normal(1.0, 0.01, k), count=30)
        assert batch.values.shape == (30,)
        assert batch.mean == pytest.approx(1.0, abs=0.02)
        assert batch.confidence == 0.95

    def test_spiky_source_cleaned(self):
        """A source with occasional large outliers converges to a clean
        batch after re-runs — the thesis's calibration loop."""
        rng = np.random.default_rng(1)

        def draw(k):
            base = rng.normal(1.0, 0.01, k)
            spikes = rng.random(k) < 0.08
            return base + spikes * 10.0

        batch = collect_filtered(draw, count=30)
        assert batch.values.max() < 2.0
        assert batch.reruns >= 1

    def test_statistics_helpers(self):
        rng = np.random.default_rng(2)
        batch = collect_filtered(lambda k: rng.normal(5.0, 0.1, k), count=30)
        assert isinstance(batch, FilteredSample)
        assert batch.median == pytest.approx(5.0, abs=0.1)
        assert batch.std < 0.2

    def test_count_validated(self):
        with pytest.raises(ValueError):
            collect_filtered(lambda k: np.zeros(k), count=2)

    def test_draw_shape_validated(self):
        with pytest.raises(ValueError, match="k samples"):
            collect_filtered(lambda k: np.zeros(k + 1), count=10)

    def test_wide_bimodal_is_inherent_variability(self):
        """A 50/50 bimodal source has so much spread that the t-interval
        covers both modes: the filter accepts it as inherent variability
        rather than flagging outliers forever (§4.1's distinction between
        extreme observations and a genuinely variable experiment)."""
        rng = np.random.default_rng(3)

        def bimodal(k):
            return np.where(rng.random(k) < 0.5, 1.0, 100.0) + rng.normal(
                0, 0.01, k
            )

        batch = collect_filtered(bimodal, count=30)
        assert batch.reruns == 0
        assert batch.std > 10.0

    def test_persistent_replacement_spike_raises(self):
        """If re-draws keep landing far outside the batch, the loop must
        give up with the thesis's recalibration signal."""
        samples = np.concatenate(
            [np.full(29, 1.0) + np.linspace(0, 0.01, 29), [50.0]]
        )

        def draw(k):
            if len(draw_calls) == 0:
                draw_calls.append(1)
                return samples[:k]
            return np.full(k, 75.0)

        draw_calls: list[int] = []
        with pytest.raises(RuntimeError, match="did not converge"):
            collect_filtered(draw, count=30)
