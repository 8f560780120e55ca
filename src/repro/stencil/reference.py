"""Scalar reference implementation of the deep-halo charge model (§8.6).

This is the per-cycle loop :func:`repro.stencil.optimizer.
measure_halo_iteration` ran before its replication axis became the only
path, kept as the behavioural oracle — the role
:mod:`repro.simmpi.reference` plays for the event engine.  It runs one
replication on ``(nprocs,)`` clocks: one :meth:`NoiseModel.sample` draw
over the cycle's ``(nprocs, depth)`` sweeps, then the exchange stages and
the dissemination sync as single ``runs=1`` executions of
:func:`repro.simmpi.engine.simulate_stages_batch`.

A ``(1, ...)`` replication-major draw consumes the generator exactly as
the ``(...)`` draw does, so the batched path at ``runs=1`` is
*bit-identical* to this loop on a noisy machine and on a clean one, a
machine built with ``noise=QUIET``
(``tests/stencil/test_stencil_batch.py``).  Only tests and benchmarks
import this module.
"""

from __future__ import annotations

import numpy as np

from repro.machine.simmachine import SimMachine
from repro.simmpi.engine import simulate_stages_batch
from repro.stencil.optimizer import _halo_schedule
from repro.util.validation import require_int


def reference_halo_iteration(
    machine: SimMachine,
    nprocs: int,
    n: int,
    depth: int,
    cycles: int = 6,
) -> float:
    """Mean seconds per iteration of one deep-halo replication."""
    depth = require_int(depth, "depth")
    require_int(cycles, "cycles")
    placement = machine.placement(nprocs)
    truth = machine.comm_truth(placement)
    stages, payloads, sync_stages, sync_payloads, sweep_clean = (
        _halo_schedule(machine, placement, n, depth)
    )
    rng = machine.rng("halo", nprocs, n, depth)
    noise = machine.noise
    clock = np.zeros(nprocs)
    for _ in range(cycles):
        # First sweep (widest band) happens before communication commits.
        sweeps = noise.sample(rng, sweep_clean)
        first = sweeps[:, 0]
        rest = sweeps[:, 1:].sum(axis=1)
        comm_entry = clock + first
        exits_comm = simulate_stages_batch(
            truth, stages, payload_bytes=payloads,
            rng=rng, noise=noise, entry_times=comm_entry,
        )[0]
        body_end = np.maximum(comm_entry + rest, exits_comm)
        if nprocs > 1:
            clock = simulate_stages_batch(
                truth, sync_stages, payload_bytes=sync_payloads,
                rng=rng, noise=noise, entry_times=body_end,
            )[0]
        else:
            clock = body_end
    return float(clock.max()) / (cycles * depth)
