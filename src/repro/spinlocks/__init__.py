"""§5.1 spinlock study: locality-dominated synchronisation on shared memory."""

from repro.spinlocks.model import (
    ALGORITHMS,
    LINE_TRANSFER_SCALE,
    SpinlockResult,
    barrier_lower_bound,
    simulate_spinlock,
)

__all__ = [
    "ALGORITHMS",
    "LINE_TRANSFER_SCALE",
    "SpinlockResult",
    "barrier_lower_bound",
    "simulate_spinlock",
]
