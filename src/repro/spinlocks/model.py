"""Shared-memory spinlock study (§5.1).

The thesis's preliminary work re-ran Mellor-Crummey & Scott's spinlock
comparison on contemporary SMP hardware and drew the two guidelines that
shape the whole framework:

1. process/lock locality must be controlled to measure synchronisation, and
2. under contention, *topological distance* (cache-line transfer latency)
   dominates cost, not aggregate bandwidth.

This module reproduces that study on the simulated node: a cache-coherence
cost model where acquiring a lock costs the cache-line transfer from the
previous holder's cache (distance-dependent), plus algorithm-specific
traffic.  Algorithms:

* ``test_and_set`` — every waiter hammers the line; each release triggers a
  storm of transfers, one winner chosen by proximity-independent arrival;
* ``ticket`` — one RMW per acquisition, then local spinning on a shared
  counter whose every update is broadcast to all waiters;
* ``mcs`` — queue lock: each handoff is exactly one line transfer to the
  *next* waiter, making cost a pure function of the handoff distance.

The observable reproduced from §5.1: MCS-style locality-aware locks
degrade gracefully with contention, simple locks do not, and *which cores
contend* matters as much as how many — even on one node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.topology import Placement, Relation
from repro.machine.simmachine import SimMachine
from repro.util.validation import require_int

#: Cache-line transfer cost by topological relation, relative to the
#: same-socket transfer (L1/L2-to-L1 vs. cross-socket vs. cross-node
#: coherence traffic).  Scaled by the machine's same-socket latency.
LINE_TRANSFER_SCALE = {
    Relation.SELF: 0.1,
    Relation.SAME_SOCKET: 1.0,
    Relation.SAME_NODE: 2.4,
    Relation.REMOTE: 40.0,  # software DSM / RDMA-style fallback
}

ALGORITHMS = ("test_and_set", "ticket", "mcs")

#: Seconds each holder spends inside the critical section.
CRITICAL_SECTION = 0.2e-6


@dataclass(frozen=True)
class SpinlockResult:
    """Outcome of one contention experiment.

    ``per_acquisition`` is ``(R, N)`` (``runs=R``, ``R = 1`` by
    default): the same handoff schedule re-rolled under ``R`` independent
    noise replications.
    """

    algorithm: str
    nthreads: int
    acquisitions: int
    total_seconds: float  # mean span over the replications
    per_acquisition: np.ndarray  # cost of each critical-section handoff
    critical_section: float = CRITICAL_SECTION

    @property
    def runs(self) -> int:
        """Replication count."""
        return int(self.per_acquisition.shape[0])

    @property
    def run_seconds(self) -> np.ndarray:
        """Per-replication total span, shape ``(R,)``."""
        return (
            self.per_acquisition.sum(axis=1)
            + self.acquisitions * self.critical_section
        )

    @property
    def mean_handoff(self) -> float:
        return float(self.per_acquisition.mean())


def _line_cost(machine: SimMachine, placement: Placement, a: int, b: int) -> float:
    """Seconds to move the lock's cache line from holder a to acquirer b."""
    base = machine.params.links[Relation.SAME_SOCKET].latency
    return base * LINE_TRANSFER_SCALE[placement.relation(a, b)]


def _handoff_schedule(
    machine: SimMachine,
    algorithm: str,
    placement: Placement,
    acquisitions_per_thread: int,
) -> np.ndarray:
    """The deterministic part of the contention experiment: the winner
    sequence and each handoff's clean (noise-free) line-transfer cost.

    The winner arbitration draws from its own ``"arbiter"`` stream and
    never touches the noise stream, so the schedule is identical whatever
    the machine's noise model and however many replications run — which is
    what lets the noise be drawn in bulk afterwards.
    """
    nthreads = placement.nprocs
    remaining = np.full(nthreads, acquisitions_per_thread)
    holder = 0
    costs = []
    total = int(remaining.sum())
    # Deterministic contention: FIFO for queue locks; for the others the
    # winner is drawn from the still-active threads, modelling the
    # arbitrary hardware arbitration of line ownership.
    fifo = list(range(nthreads))
    arbiter = machine.rng("spinlock", algorithm, nthreads, "arbiter")
    for _ in range(total):
        active = np.flatnonzero(remaining > 0)
        if algorithm == "mcs":
            queue_active = [t for t in fifo if remaining[t] > 0]
            winner = queue_active[0]
            fifo.remove(winner)
            fifo.append(winner)
        else:
            winner = int(active[arbiter.integers(active.size)])
        handoff = _line_cost(machine, placement, holder, winner)
        if algorithm == "test_and_set":
            # Failed test-and-set attempts by every other waiter keep
            # pulling the line around before the winner settles.
            storm = sum(
                _line_cost(machine, placement, winner, int(t))
                for t in active
                if t != winner
            )
            handoff += 0.5 * storm
        elif algorithm == "ticket":
            # The release's counter update is observed by all spinners:
            # one broadcast round of line transfers, amortised by
            # simultaneous snooping within a socket.
            sockets = {
                machine.topology.socket_of(placement.core_of(int(t)))
                for t in active
                if t != winner
            }
            handoff += sum(
                LINE_TRANSFER_SCALE[Relation.SAME_NODE]
                * machine.params.links[Relation.SAME_SOCKET].latency
                for _ in sockets
            )
        costs.append(handoff)
        remaining[winner] -= 1
        holder = winner
    return np.asarray(costs)


def simulate_spinlock(
    machine: SimMachine,
    algorithm: str,
    placement: Placement,
    acquisitions_per_thread: int = 16,
    runs: int = 1,
) -> SpinlockResult:
    """Simulate ``nthreads`` contending for one lock until every thread has
    completed its share of acquisitions, each holding it for
    ``CRITICAL_SECTION`` seconds.

    Noise is applied to the whole handoff schedule of all ``runs``
    replications with one bulk :meth:`NoiseModel.sample_matrix` call,
    draws filling replication-major — the scalar reference loop survives
    as :func:`repro.spinlocks.reference.reference_spinlock`, bit-identical
    on a QUIET machine and KS-equivalent on a noisy one.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; know {ALGORITHMS}")
    require_int(acquisitions_per_thread, "acquisitions_per_thread")
    if acquisitions_per_thread < 1:
        raise ValueError("acquisitions_per_thread must be >= 1")
    runs = require_int(runs, "runs")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    nthreads = placement.nprocs
    clean = _handoff_schedule(
        machine, algorithm, placement, acquisitions_per_thread
    )
    total = int(clean.shape[0])
    rng = machine.rng("spinlock", algorithm, nthreads)
    handoffs = machine.noise.sample_matrix(rng, clean, runs)
    spans = handoffs.sum(axis=1) + total * CRITICAL_SECTION
    return SpinlockResult(
        algorithm=algorithm,
        nthreads=nthreads,
        acquisitions=total,
        total_seconds=float(np.mean(spans)),
        per_acquisition=handoffs,
    )


def barrier_lower_bound(machine: SimMachine, placement: Placement) -> float:
    """§5.1: a single uncontended atomic arrival signal is a lower bound on
    any barrier's per-process cost — the cheapest possible handoff."""
    costs = [
        _line_cost(machine, placement, a, b)
        for a in range(placement.nprocs)
        for b in range(placement.nprocs)
        if a != b
    ]
    return min(costs) if costs else 0.0
