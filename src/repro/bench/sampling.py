"""Sample collection with the thesis's outlier-rerun discipline (§4.1)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.stats import resample_outliers
from repro.util.validation import require_int


@dataclass(frozen=True)
class FilteredSample:
    """A cleaned sample batch with its provenance."""

    values: np.ndarray
    reruns: int

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        return float(self.values.std(ddof=1))

    @property
    def median(self) -> float:
        return float(np.median(self.values))


def collect_filtered(draw, count: int = 30) -> FilteredSample:
    """Draw ``count`` samples via ``draw(k)`` and re-run outliers until the
    batch sits inside the Student-t interval (the thesis's calibration
    loop; 30 samples and 95% confidence are its chosen balance)."""
    count = require_int(count, "count")
    if count < 3:
        raise ValueError("need at least 3 samples for outlier filtering")
    initial = np.asarray(draw(count), dtype=float)
    if initial.shape != (count,):
        raise ValueError("draw(k) must return k samples")
    values, reruns = resample_outliers(initial, draw)
    return FilteredSample(values=values, reruns=reruns)
