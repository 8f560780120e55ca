"""Payload-carrying synchronisation cost model (§6.4-§6.5, Figs. 6.3-6.4).

The runtime's ``bsp_sync`` must establish a global map of outstanding
message counts so every process knows how many transfers to await.  The
implementation rides the dissemination barrier: stage ``s`` forwards the
count vectors accumulated so far, doubling the payload each stage —
``2^s`` vectors of ``P`` integers — with the final stage carrying
``P - 2^(ceil(log2 P) - 1)`` vectors when P is not a power of two.  After
``ceil(log2 P)`` stages every process holds the full P x P map.

This keeps the synchronisation's bandwidth requirement a function of the
*process count only*, independent of the application's data volume — the
property §6.4 argues makes sync cost an architectural feature.
"""

from __future__ import annotations

import math

from repro.barriers.cost_model import CommParameters, predict_barrier_cost
from repro.barriers.patterns import BarrierPattern, dissemination_barrier
from repro.barriers.simulate import BarrierTiming, measure_barrier
from repro.cluster.topology import Placement
from repro.machine.simmachine import SimMachine
from repro.util.validation import require_int

COUNT_BYTES = 4  # one 32-bit counter per destination


def dissemination_payloads(nprocs: int) -> list[float]:
    """Per-stage payload bytes of the count-map total exchange (§6.5),
    ``COUNT_BYTES`` per count."""
    p = require_int(nprocs, "nprocs")
    if p < 1:
        raise ValueError("nprocs must be >= 1")
    if p == 1:
        return []
    stages = math.ceil(math.log2(p))
    payloads: list[float] = []
    for s in range(stages):
        if s == stages - 1:
            vectors = p - 2 ** (stages - 1)
        else:
            vectors = 2**s
        payloads.append(float(vectors * p * COUNT_BYTES))
    return payloads


def sync_pattern(nprocs: int) -> BarrierPattern:
    """The synchronisation pattern the runtime uses (§6.4's trade-off:
    dissemination is not latency-optimal but doubles as the total
    exchange)."""
    return dissemination_barrier(nprocs).with_name("bsp-sync")


def predict_sync_cost(params: CommParameters, nprocs: int | None = None) -> float:
    """Chapter 6 estimate: barrier critical path including payload terms."""
    p = params.nprocs if nprocs is None else require_int(nprocs, "nprocs")
    if p != params.nprocs:
        raise ValueError("nprocs disagrees with parameter matrices")
    pattern = sync_pattern(p)
    return predict_barrier_cost(
        pattern, params, payload_bytes=dissemination_payloads(p)
    )


def measure_sync_cost(
    machine: SimMachine,
    placement: Placement,
    runs: int = 64,
) -> BarrierTiming:
    """Measured payload-carrying sync on the event engine (Figs. 6.3-6.4)."""
    pattern = sync_pattern(placement.nprocs)
    return measure_barrier(
        machine,
        pattern,
        placement,
        runs=runs,
        payload_bytes=dissemination_payloads(placement.nprocs),
        stream="bsp-sync-measure",
    )
