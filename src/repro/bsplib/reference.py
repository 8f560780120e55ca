"""Scalar reference implementation of the BSP runtime's transfer scheduler.

This is the per-message scheduler the runtime ran before its
replication axis became the only path, kept as the behavioural oracle
for :meth:`repro.bsplib.runtime.BSPRuntime._resolve_transfers` — the
role :mod:`repro.simmpi.reference` plays for the event engine.  It
schedules one replication of one superstep in plain Python loops.  The
contract, enforced by ``tests/bsplib/test_runtime_batch.py``:

* **clean path**: every replication of a run's arrivals and
  ``last_arrival`` is *bit-identical* to this scheduler fed that
  replication's commit times and entry times;
* **pre-drawn transits** (``transits=...``, canonical order): given the
  transits a noisy run drew, arrivals are again bit-identical — which
  checks the runtime's wire costs, masks and FIFO order on the noisy
  path;
* **noisy path**: drawing its own transits, the oracle consumes the
  stream in *processing* order (``(commit_time, pid, sequence)``, as the
  historical scalar runtime did) rather than the runtime's canonical
  order, so the ensembles agree distributionally.

Only tests and benchmarks import this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bsplib.messages import HEADER_BYTES


@dataclass
class ReferenceTransfers:
    """One replication's scheduled superstep, canonical order."""

    last_arrival: np.ndarray  # (P,) per-process last inbound arrival
    arrivals1: np.ndarray  # (M1,) pass 1: puts, sends, get request headers
    arrivals2: np.ndarray  # (M2,) pass 2: get replies, in get order
    messages: int
    payload_bytes: int


def reference_transfers(
    truth,
    placement,
    ordered,
    ready,
    entries,
    noise=None,
    rng: np.random.Generator | None = None,
    transits: tuple[np.ndarray, np.ndarray] | None = None,
) -> ReferenceTransfers:
    """Schedule one superstep's transfers for one replication.

    ``ordered`` is the superstep's outbound ``(kind, record)`` list in
    canonical ``(pid, sequence)`` order (``kind`` in ``put``/``send``/
    ``get``), ``ready`` its ``(M1,)`` commit times and ``entries`` the
    ``(P,)`` compute-end times.  Transits are the clean wire transits,
    perturbed by ``noise`` drawing from ``rng`` in processing order, or
    the given pre-drawn ``(pass1, pass2)`` pair in canonical order.
    """
    nodes = [placement.node_of(r) for r in range(placement.nprocs)]
    ready = np.asarray(ready, dtype=float)
    last_arrival = np.array(entries, dtype=float, copy=True)
    tx_free: dict[int, float] = {}

    def wire(src: int, dst: int, nbytes: int) -> tuple[float, float]:
        """(clean transit, transmit-NIC occupancy) of one message."""
        occupancy = nbytes * truth.inv_bandwidth[src, dst]
        return truth.latency[src, dst] + occupancy, occupancy

    def ship(src: int, dst: int, nbytes: int, ready_at: float,
             transit: float) -> float:
        if nodes[src] != nodes[dst]:
            node = nodes[src]
            wire_entry = max(ready_at, tx_free.get(node, 0.0))
            tx_free[node] = wire_entry + truth.nic_gap + wire(src, dst, nbytes)[1]
        else:
            wire_entry = ready_at
        return wire_entry + transit + truth.recv_overhead

    def pass_transits(ends, order, pre) -> list[float]:
        """Transit of each message, indexed canonically."""
        if pre is not None:
            return [float(t) for t in pre]
        base = np.array([wire(*ends[k])[0] for k in order])
        drawn = base if noise is None else noise.sample(rng, base)
        out = [0.0] * len(ends)
        for pos, k in enumerate(order):
            out[k] = float(drawn[pos])
        return out

    # Pass 1: puts, sends and get request headers in (commit_time, pid,
    # sequence) order.
    ends1 = []
    for kind, rec in ordered:
        if kind == "get":
            ends1.append((rec.requester_pid, rec.target_pid, HEADER_BYTES))
        else:
            ends1.append(
                (rec.header.source_pid, rec.dest_pid, rec.nbytes + HEADER_BYTES)
            )
    order1 = sorted(range(len(ordered)), key=lambda k: (ready[k], k))
    t1 = pass_transits(ends1, order1, None if transits is None else transits[0])
    arrivals1 = np.empty(len(ordered))
    for k in order1:
        arrivals1[k] = ship(*ends1[k], float(ready[k]), t1[k])
        if ordered[k][0] != "get":
            d = ends1[k][1]
            last_arrival[d] = max(last_arrival[d], arrivals1[k])

    # Pass 2: a get reply leaves once its owner has received the request
    # and finished its computation; the NIC serves replies in (request
    # arrival, requester) order.
    gets = [k for k, (kind, _) in enumerate(ordered) if kind == "get"]
    ends2 = [
        (ordered[k][1].target_pid, ordered[k][1].requester_pid,
         ordered[k][1].nbytes + HEADER_BYTES)
        for k in gets
    ]
    req = [float(arrivals1[k]) for k in gets]
    order2 = sorted(range(len(gets)), key=lambda m: (req[m], ends2[m][1]))
    t2 = pass_transits(ends2, order2, None if transits is None else transits[1])
    arrivals2 = np.empty(len(gets))
    for m in order2:
        src, dst, nbytes = ends2[m]
        ready_at = max(req[m], float(entries[src]))
        arrivals2[m] = ship(src, dst, nbytes, ready_at, t2[m])
        last_arrival[dst] = max(last_arrival[dst], arrivals2[m])

    return ReferenceTransfers(
        last_arrival=last_arrival,
        arrivals1=arrivals1,
        arrivals2=arrivals2,
        messages=len(ends1) + len(ends2),
        payload_bytes=sum(e[2] for e in ends1) + sum(e[2] for e in ends2),
    )
