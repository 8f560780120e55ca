"""Model-driven superstep adaptation (§8.6, Figs. 8.16-8.18).

**[reconstructed]** Fig. 8.16 introduces *shadow cell regions*: widening
the exchanged halo to ``d`` cells lets a rank run ``d`` sweeps per
communication cycle, recomputing the shadow band redundantly but paying the
synchronisation and message latency once per ``d`` iterations.  The model
predicts the per-iteration cost of each depth (Fig. 8.17's adapted
superstep), and the optimizer picks the depth with the cheapest prediction;
C1 (Fig. 8.18) compares predicted and measured iteration times across
depths, checking that the model's choice lands at (or next to) the measured
optimum — the "parameter values to optimize for balanced overlapping" of
the abstract.

:func:`measure_halo_iteration` measures ``runs`` noisy replications in one
batched pass (``runs=1`` by default) and always returns the ``(R,)``
per-replication vector; its scalar per-cycle loop is kept only as the
test oracle :func:`repro.stencil.reference.reference_halo_iteration`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.barriers.cost_model import CommParameters
from repro.bsplib.sync_model import (
    dissemination_payloads,
    predict_sync_cost,
    sync_pattern,
)
from repro.kernels.numeric import STENCIL5
from repro.machine.simmachine import SimMachine
from repro.simmpi.engine import simulate_stages_batch
from repro.stencil.grid import WORD, decompose
from repro.stencil.impls import _exchange_stages
from repro.util.validation import require_int, require_positive


def _swept_cells(height: int, width: int, depth: int) -> list[int]:
    """Owned + shadow cells swept in each of the cycle's ``depth`` steps:
    sweep k (0-based) still needs a band of ``depth - 1 - k`` valid shadow
    cells around the owned block."""
    return [
        (height + 2 * (depth - 1 - k)) * (width + 2 * (depth - 1 - k))
        for k in range(depth)
    ]


@dataclass(frozen=True)
class HaloPrediction:
    """Predicted per-iteration cost at one halo depth."""

    depth: int
    compute_per_iter: float
    comm_per_iter: float
    sync_per_iter: float

    @property
    def per_iteration(self) -> float:
        return self.compute_per_iter + self.comm_per_iter + self.sync_per_iter


def predict_halo_iteration(
    nprocs: int,
    n: int,
    depth: int,
    sec_per_cell: float,
    params: CommParameters,
) -> HaloPrediction:
    """Fig. 8.17: the adapted superstep's predicted per-iteration cost."""
    depth = require_int(depth, "depth")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    require_positive(sec_per_cell, "sec_per_cell")
    blocks = decompose(n, nprocs)
    worst = max(blocks, key=lambda b: b.interior_cells)
    swept = _swept_cells(worst.height, worst.width, depth)
    compute_cycle = sum(swept) * sec_per_cell
    # One exchange per cycle ships a depth-wide band per live side; border
    # compute for the band is already inside the swept counts.
    comm_model_bytes = worst.exchange_bytes(WORD) * depth
    neighbours = worst.neighbours()
    lat = 0.0
    if neighbours:
        i = worst.rank
        lat = float(
            sum(
                2.0 * params.latency[i, j]
                + (params.inv_bandwidth[i, j] if params.inv_bandwidth is not None else 0.0)
                * comm_model_bytes / len(neighbours)
                for j in neighbours
            )
        )
    sync_cycle = predict_sync_cost(params) if nprocs > 1 else 0.0
    # Interior sweeps beyond the first overlap the exchange; the remaining
    # exposed part is bounded below by zero.
    interior_like = compute_cycle - swept[0] * sec_per_cell
    exposed_comm = max(lat - interior_like, 0.0)
    return HaloPrediction(
        depth=depth,
        compute_per_iter=compute_cycle / depth,
        comm_per_iter=exposed_comm / depth,
        sync_per_iter=sync_cycle / depth,
    )


def measure_halo_iteration(
    machine: SimMachine,
    nprocs: int,
    n: int,
    depth: int,
    cycles: int = 6,
    runs: int = 1,
) -> np.ndarray:
    """Charge-model execution of the deep-halo scheme: per cycle, sweep the
    widening bands, exchange depth-wide borders with overlap, and run the
    payload sync.  Returns the ``(R,)`` vector of per-replication mean
    seconds per *iteration* (sweep); ``R = runs`` replications execute in
    one batched pass.

    Draw order per cycle (the "BSP runtime, stencil and halo draws"
    contract in ``docs/engine.md``): one bulk replication-major ``(R,
    nprocs, depth)`` sweep draw, then the exchange stages through
    :func:`simulate_stages_batch`, then the dissemination sync.  The
    scalar loop survives as the oracle
    :func:`repro.stencil.reference.reference_halo_iteration`, to which
    ``runs=1`` is bit-identical on a QUIET machine and on a noisy one
    (``tests/stencil/test_stencil_batch.py``).
    """
    depth = require_int(depth, "depth")
    require_int(cycles, "cycles")
    runs = require_int(runs, "runs")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    placement = machine.placement(nprocs)
    truth = machine.comm_truth(placement)
    stages, payloads, sync_stages, sync_payloads, sweep_clean = (
        _halo_schedule(machine, placement, n, depth)
    )
    rng = machine.rng("halo", nprocs, n, depth)
    noise = machine.noise
    clock = np.zeros((runs, nprocs))
    for _ in range(cycles):
        # One replication-major bulk draw covers every (run, rank, sweep)
        # of the cycle; the first (widest) sweep happens before the
        # exchange commits.
        sweeps = noise.sample_matrix(rng, sweep_clean, runs=runs)
        first = sweeps[..., 0]
        rest = sweeps[..., 1:].sum(axis=-1)
        comm_entry = clock + first
        exits_comm = simulate_stages_batch(
            truth, stages, runs=runs, payload_bytes=payloads,
            rng=rng, noise=noise, entry_times=comm_entry,
        )
        body_end = np.maximum(comm_entry + rest, exits_comm)
        if nprocs > 1:
            clock = simulate_stages_batch(
                truth, sync_stages, runs=runs, payload_bytes=sync_payloads,
                rng=rng, noise=noise, entry_times=body_end,
            )
        else:
            clock = body_end
    return clock.max(axis=-1) / (cycles * depth)


def _halo_schedule(machine: SimMachine, placement, n: int, depth: int):
    """The deterministic skeleton of one halo cycle: exchange stages and
    depth-wide payloads, the dissemination sync's stages and payloads, and
    the clean ``(nprocs, depth)`` per-(rank, sweep) compute times."""
    nprocs = placement.nprocs
    blocks = decompose(n, nprocs)
    stages, payloads = _exchange_stages(blocks)
    footprints = [2.0 * (b.height + 2 * depth) * (b.width + 2 * depth) * WORD
                  for b in blocks]
    sweep_clean = np.array([
        [
            machine.kernel_time_clean(
                placement.core_of(rank), STENCIL5, cells,
                footprint_bytes=footprints[rank],
            )
            for cells in _swept_cells(block.height, block.width, depth)
        ]
        for rank, block in enumerate(blocks)
    ])
    return (
        stages,
        [p * depth for p in payloads],
        sync_pattern(nprocs).stages,
        dissemination_payloads(nprocs),
        sweep_clean,
    )


@dataclass(frozen=True)
class HaloSweepPoint:
    depth: int
    predicted: float
    measured: float


def optimize_halo_depth(
    machine: SimMachine,
    nprocs: int,
    n: int,
    depths,
    sec_per_cell: float,
    params: CommParameters,
    cycles: int = 6,
    runs: int = 1,
) -> tuple[int, list[HaloSweepPoint]]:
    """Sweep halo depths, returning the model's chosen depth and the
    predicted/measured series of Fig. 8.18 (C1).

    Each depth is measured as a batched ``runs``-replication ensemble and
    ``measured`` is the ensemble mean."""
    points = []
    for depth in depths:
        predicted = predict_halo_iteration(
            nprocs, n, depth, sec_per_cell, params
        ).per_iteration
        measured = float(measure_halo_iteration(
            machine, nprocs, n, depth, cycles=cycles, runs=runs,
        ).mean())
        points.append(HaloSweepPoint(depth=depth, predicted=predicted,
                                     measured=measured))
    chosen = min(points, key=lambda pt: pt.predicted).depth
    return chosen, points
