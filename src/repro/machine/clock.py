"""Per-process virtual clocks for the BSPlib runtime (Ch. 6).

BSP processes accumulate *virtual* seconds: computation advances a clock by
the machine's kernel-time model; the superstep scheduler aligns clocks at
synchronization.  ``bsp_time`` reads this clock, so application timings in
examples and experiments are simulated-platform seconds, not wall time.

:class:`BatchClock` carries one clock value per replication of a run
(``bsp_run(..., runs=R)``, ``R = 1`` by default) as an ``(R,)`` vector.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import require_int


class BatchClock:
    """An ``(R,)`` vector of virtual clocks advancing in lockstep structure.

    Every replication of a batched BSP run executes the same superstep
    schedule, but noisy charges advance each replication's clock by its own
    sampled duration.  ``advance``/``advance_to`` accept a scalar (applied
    to every replication) or an ``(R,)`` vector.  ``advance`` given a
    Python ``float`` — every per-operation software charge — takes a short
    path that skips the array conversion but keeps the non-negativity check.

    Returned and exposed arrays are never mutated afterwards — each advance
    rebinds a fresh array — so callers may keep references (e.g. as commit
    times) without copying, but must treat them as immutable.
    """

    __slots__ = ("_now",)

    def __init__(self, runs: int):
        runs = require_int(runs, "runs")
        if runs < 1:
            raise ValueError("runs must be >= 1")
        self._now = np.zeros(runs)

    @property
    def runs(self) -> int:
        return self._now.shape[0]

    @property
    def now(self) -> np.ndarray:
        """Current ``(R,)`` clock values (treat as read-only)."""
        return self._now

    def advance(self, dt) -> np.ndarray:
        """Move forward by ``dt`` seconds (scalar or per-replication);
        returns the new ``(R,)`` times."""
        if type(dt) is float:
            if dt < 0.0:
                raise ValueError("dt must be non-negative")
        else:
            dt = np.asarray(dt, dtype=float)
            if np.any(dt < 0.0):
                raise ValueError("dt must be non-negative")
        self._now = self._now + dt
        return self._now

    def advance_to(self, t) -> np.ndarray:
        """Move each replication forward to absolute time ``t`` (no-op for
        replications already past it)."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("t must be non-negative")
        self._now = np.maximum(self._now, t)
        return self._now

    def __repr__(self) -> str:
        return f"BatchClock(runs={self.runs}, max={self._now.max():.9f})"
