"""Measurement noise model for the simulated platform.

The thesis's benchmarking chapters (§4.1, §5.6.3) are shaped by the fight
against nondeterministic timing: OS jitter, cache state, background services,
and occasional extreme outliers that must be filtered before regression.  We
reproduce that environment with a two-component model applied to every
sampled duration:

* multiplicative log-normal jitter (``sigma`` in log space), representing
  scheduling and cache-state variation, and
* rare additive outlier spikes (probability ``outlier_prob``), scaled a
  multiple of the base duration, representing daemon wakeups / page faults.

Both components only ever *add* time in expectation terms that keep the
median close to the base value, which is why median-based statistics (used
throughout the thesis) are robust here while means are not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.util.validation import require_in_range, require_nonnegative


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic perturbation applied to simulated durations."""

    jitter_sigma: float = 0.06  # log-space sigma of multiplicative jitter
    outlier_prob: float = 0.015  # probability a sample is an outlier
    outlier_scale: float = 8.0  # outlier adds U(1, scale) * base seconds
    floor: float = 1.0e-9  # timer resolution floor [s]

    def __post_init__(self):
        require_nonnegative(self.jitter_sigma, "jitter_sigma")
        require_in_range(self.outlier_prob, "outlier_prob", 0.0, 0.5)
        require_nonnegative(self.outlier_scale, "outlier_scale")
        require_nonnegative(self.floor, "floor")

    def sample(self, rng: np.random.Generator, base):
        """Perturb ``base`` durations (scalar or array), returning same shape.

        The log-normal factor is median-1 so central-tendency statistics of
        samples recover the base duration.
        """
        base = _durations(base)
        return self.perturb(rng, base, base.shape)

    def sample_matrix(
        self, rng: np.random.Generator, base, runs: int
    ) -> np.ndarray:
        """``runs`` independent perturbations of ``base`` in one bulk draw.

        ``base`` (scalar or any array shape ``S``) is validated once,
        unbroadcast, and perturbed straight into a ``(runs, *S)`` draw, so
        the draws fill the replication axis in C order (replication-major)
        — the draw-order contract of the batched event engine
        (:mod:`repro.simmpi.engine`).  The values are bit-identical to
        :meth:`sample` on ``base`` broadcast to ``(runs, *S)``.  This is the
        entry point hot paths should use; one matrix draw replaces
        ``runs * base.size`` scalar round trips through 0-d arrays.
        """
        if runs < 1:
            raise ValueError("runs must be >= 1")
        base = _durations(base)
        return self.perturb(rng, base, (runs, *base.shape))

    def perturb(self, rng: np.random.Generator, base, shape) -> np.ndarray:
        """The noise kernel: one draw of ``shape`` around ``base``.

        ``base`` is a float scalar or array that broadcasts to ``shape``
        and is **not validated**: callers guarantee it is non-negative.
        :meth:`sample` and :meth:`sample_matrix` check their input and
        call this; the event engine calls it directly on durations its
        :class:`~repro.machine.simmachine.CommTruth` and payload checks
        already cover.  A broadcast base draws exactly the values of the
        materialised one, element for element.
        """
        out = base * rng.lognormal(mean=0.0, sigma=self.jitter_sigma, size=shape)
        if self.outlier_prob > 0.0:
            hits = rng.random(shape) < self.outlier_prob
            if hits.any():
                spikes = rng.uniform(1.0, max(1.0, self.outlier_scale), size=shape)
                out = out + np.where(hits, spikes * base, 0.0)
        return np.maximum(out, self.floor)

    def sample_scalar(self, rng: np.random.Generator, base: float) -> float:
        """Perturb one scalar duration.

        .. deprecated::
            Hot paths (the event engine, benchmarks, charge models) must
            not call this per value — it boxes every duration through a
            0-d array and three scalar RNG calls.  Use :meth:`sample` on a
            whole vector or :meth:`sample_matrix` for a replication batch;
            this remains only for genuinely scalar one-off draws.

            The warning below is raised with ``stacklevel=2``, so pytest's
            ``error::DeprecationWarning`` rule scoped to ``repro`` modules
            turns any *in-repo* caller into a test failure while leaving
            external one-off users (and the deprecation test itself) on a
            plain warning.
        """
        warnings.warn(
            "NoiseModel.sample_scalar is deprecated on hot paths: use "
            "NoiseModel.sample on a whole vector or NoiseModel.sample_matrix "
            "for a replication batch",
            DeprecationWarning,
            stacklevel=2,
        )
        return float(self.sample(rng, np.asarray(base, dtype=float)))


def _durations(base) -> np.ndarray:
    """``base`` as a float array, rejecting negative (or NaN) durations."""
    base = np.asarray(base, dtype=float)
    if not (base >= 0).all():
        raise ValueError("durations must be non-negative")
    return base


QUIET = NoiseModel(jitter_sigma=0.0, outlier_prob=0.0, floor=0.0)
