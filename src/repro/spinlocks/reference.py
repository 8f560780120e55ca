"""Scalar reference implementation of the §5.1 spinlock simulation.

This is the pre-vectorization ``simulate_spinlock`` loop, preserved
verbatim as the behavioural oracle for :mod:`repro.spinlocks.model` — the
same role :mod:`repro.simmpi.reference` plays for the batched event
engine.  The contract, enforced by ``tests/spinlocks/test_model_batch.py``:

* **clean path** (``noisy=False``): the vectorized simulation is
  *bit-identical* to this loop — the handoff schedule (winner sequence,
  line-transfer costs, storm/broadcast terms) never touched the noise
  stream, so separating it from the draws changes no clean value;
* **noisy path**: the vectorized bulk draw consumes the stream in a
  different order (one :meth:`NoiseModel.sample` call over the whole
  handoff vector instead of one boxed scalar draw per acquisition), so
  individual samples differ while the ensembles agree distributionally.

The only deliberate edit: the per-acquisition draw is one boxed 0-d draw
(``float(noise.sample(rng, 0-d))``), so the oracle reproduces the
historical stream bit-for-bit, and the noise generator may be passed in
(``rng=...``) so equivalence tests can draw many *distinct* reference
replications from one continuing stream.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import Placement, Relation
from repro.machine.simmachine import SimMachine
from repro.util.validation import require_int


def reference_spinlock(
    machine: SimMachine,
    algorithm: str,
    placement: Placement,
    acquisitions_per_thread: int = 16,
    critical_section: float = 0.2e-6,
    stream: str = "spinlock",
    noisy: bool = True,
    rng: np.random.Generator | None = None,
):
    """The original scalar handoff loop; returns a ``SpinlockResult``.

    ``rng`` overrides the machine-derived noise stream (the arbiter stream
    is never overridden — the winner schedule is part of the experiment's
    identity, not its noise).
    """
    from repro.spinlocks.model import ALGORITHMS, LINE_TRANSFER_SCALE, SpinlockResult, _line_cost

    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; know {ALGORITHMS}")
    require_int(acquisitions_per_thread, "acquisitions_per_thread")
    if acquisitions_per_thread < 1:
        raise ValueError("acquisitions_per_thread must be >= 1")
    nthreads = placement.nprocs
    if noisy and rng is None:
        rng = machine.rng(stream, algorithm, nthreads)
    elif not noisy:
        rng = None

    remaining = np.full(nthreads, acquisitions_per_thread)
    holder = 0
    now = 0.0
    costs = []
    total = int(remaining.sum())
    fifo = list(range(nthreads))
    arbiter = machine.rng(stream, algorithm, nthreads, "arbiter")
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
            storm = sum(
                _line_cost(machine, placement, winner, int(t))
                for t in active
                if t != winner
            )
            handoff += 0.5 * storm
        elif algorithm == "ticket":
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
        if rng is not None:
            # One boxed 0-d draw per acquisition — the historical scalar
            # pattern this module exists to pin.
            handoff = float(
                machine.noise.sample(rng, np.asarray(handoff, dtype=float))
            )
        now += handoff + critical_section
        costs.append(handoff)
        remaining[winner] -= 1
        holder = winner
    return SpinlockResult(
        algorithm=algorithm,
        nthreads=nthreads,
        acquisitions=total,
        total_seconds=now,
        per_acquisition=np.asarray(costs)[np.newaxis],  # one replication
        critical_section=critical_section,
    )
