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

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require_in_range, require_nonnegative


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic perturbation applied to simulated durations.

    One kernel, :meth:`perturb`, in two halves: :meth:`draw` makes the
    generator calls and :meth:`apply` does the arithmetic on a base.  A
    caller with many small draws, such as the event engine's row groups,
    draws each into its own rows and applies once over all of them; the
    generator streams are consumed exactly as by one :meth:`perturb` per
    draw, and the values are bit-identical.
    """

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
        """The noise kernel: one draw of ``shape`` around ``base``, that is
        :meth:`apply` of :meth:`draw`.

        ``base`` is a float scalar or array that broadcasts to ``shape``
        and is **not validated**: callers guarantee it is non-negative.
        :meth:`sample` and :meth:`sample_matrix` check their input and
        call this; the event engine calls the two halves directly on
        durations its :class:`~repro.machine.simmachine.CommTruth` and
        payload checks already cover.  A broadcast base draws exactly the
        values of the materialised one, element for element.
        """
        return self.apply(base, *self.draw(rng, shape))

    def draw(self, rng: np.random.Generator, shape) -> tuple:
        """The kernel's generator half: ``(factors, hits, spikes)`` of
        ``shape``, in the kernel's one draw order.

        ``factors`` are the log-normal jitter factors.  With outliers on,
        ``hits`` marks the cells a ``random`` draw puts below
        ``outlier_prob``, and only when some cell hits are the spike
        multiples drawn, all of ``shape`` at once; otherwise ``hits`` or
        ``spikes`` is ``None``.  No base is involved, so a caller may draw
        several shapes, stack their rows and :meth:`apply` the stack once.
        """
        factors = rng.lognormal(mean=0.0, sigma=self.jitter_sigma, size=shape)
        hits = spikes = None
        if self.outlier_prob > 0.0:
            hits = rng.random(shape) < self.outlier_prob
            if np.count_nonzero(hits):
                spikes = rng.uniform(1.0, max(1.0, self.outlier_scale), size=shape)
        return factors, hits, spikes

    def apply(self, base, factors, hits, spikes) -> np.ndarray:
        """The kernel's arithmetic half: ``base`` times ``factors``, plus
        ``spikes`` times ``base`` where ``hits``, floored at ``floor``.

        Rows stacked from several :meth:`draw` calls (``spikes`` rows of
        a call that drew none filled with zeros) give each row its own
        call's values bit for bit: a row without hits only gains ``+ 0.0``,
        which leaves a non-negative product unchanged.

        The result is computed in place, in ``factors`` (and ``spikes``),
        so a perturbation holds no more arrays of ``shape`` than the
        draws themselves; a 0-d draw comes back as a scalar.
        """
        out = np.multiply(base, factors, out=factors)
        if spikes is not None:
            out += np.where(hits, np.multiply(spikes, base, out=spikes), 0.0)
        return np.maximum(out, self.floor, out=out)[()]


def _durations(base) -> np.ndarray:
    """``base`` as a float array, rejecting negative (or NaN) durations."""
    base = np.asarray(base, dtype=float)
    if not (base >= 0).all():
        raise ValueError("durations must be non-negative")
    return base


QUIET = NoiseModel(jitter_sigma=0.0, outlier_prob=0.0, floor=0.0)
