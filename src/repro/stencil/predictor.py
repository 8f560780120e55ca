"""Application performance prediction for the stencil (§8.5, Figs. 8.8-8.9).

The predictor assembles the Chapter 3 matrices for one stencil iteration —
the "application-specific matrix setup" of Fig. 8.8 — from two independent
ingredients:

* a *program model*: per-rank cell counts (border ring vs deep interior)
  and per-neighbour message volumes, straight from the decomposition; and
* a *platform profile*: benchmarked kernel rate (seconds per cell at the
  block's working-set size) and the benchmarked pairwise communication
  matrices.

The predictor program (Fig. 8.9) then evaluates Eq. 1.4 per process:
border compute is sequential, interior compute overlaps the committed
transfers, and the payload-carrying dissemination sync closes the step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.barriers.cost_model import CommParameters, predict_barrier_cost
from repro.barriers.evaluate import FAST_COMM_SIZES
from repro.bsplib.messages import HEADER_BYTES
from repro.bsplib.runtime import OP_OVERHEAD
from repro.bsplib.sync_model import predict_sync_cost
from repro.core.matrix_model import CommunicationModel
from repro.kernels.numeric import STENCIL5
from repro.machine.simmachine import SimMachine
from repro.stencil.grid import WORD, LocalBlock, decompose
from repro.stencil.impls import _exchange_stages
from repro.stencil.regions import border_cell_count, interior_cell_count
from repro.util.validation import require_positive


@dataclass(frozen=True)
class StencilPrediction:
    """Predicted breakdown of one iteration (per-process vectors)."""

    name: str
    nprocs: int
    t_border: np.ndarray
    t_interior: np.ndarray
    t_comm: np.ndarray
    t_sync: float

    @property
    def per_iteration(self) -> float:
        """Eq. 1.4 evaluated per process, bounded by the slowest."""
        body = self.t_border + np.maximum(self.t_interior, self.t_comm)
        return float(body.max()) + self.t_sync

    @property
    def per_iteration_no_overlap(self) -> float:
        """The same requirements with communication fully exposed."""
        body = self.t_border + self.t_interior + self.t_comm
        return float(body.max()) + self.t_sync

    @property
    def predicted_overlap_saving(self) -> float:
        return self.per_iteration_no_overlap - self.per_iteration


def stencil_sec_per_cell(
    machine: SimMachine,
    core: int,
    block: LocalBlock,
) -> float:
    """Benchmark the stencil kernel on ``block``'s cells at its working-set
    size (Ch. 4 discipline: rates are only valid near the profiled
    footprint), as the median of 12 samples."""
    cells = block.interior_cells
    rng = machine.rng("stencil-rate", core, cells)
    reps = 8
    times = [
        machine.kernel_time(
            core, STENCIL5, cells, reps=reps, rng=rng,
            footprint_bytes=block.working_set_bytes,
        )
        for _ in range(12)
    ]
    return float(np.median(times)) / (reps * cells)


def build_comm_model(
    blocks: list[LocalBlock], params: CommParameters
) -> CommunicationModel:
    """Fig. 8.8: pairwise requirement matrices from the decomposition,
    pairwise cost matrices from the platform profile."""
    p = len(blocks)
    if params.nprocs != p:
        raise ValueError("profile size does not match the decomposition")
    counts = np.zeros((p, p))
    volumes = np.zeros((p, p))
    for block in blocks:
        for neighbour, cells in (
            (block.north, block.width),
            (block.south, block.width),
            (block.east, block.height),
            (block.west, block.height),
        ):
            if neighbour is not None:
                counts[block.rank, neighbour] += 1
                volumes[block.rank, neighbour] += cells * WORD + HEADER_BYTES
    inv_bw = params.inv_bandwidth
    if inv_bw is None:
        inv_bw = np.zeros((p, p))
    return CommunicationModel(
        message_counts=counts,
        volumes=volumes,
        latencies=params.latency,
        inv_bandwidths=inv_bw,
    )


def predict_bsp_iteration(
    blocks: list[LocalBlock],
    sec_per_cell: float,
    params: CommParameters,
) -> StencilPrediction:
    """One BSP superstep of the stencil under the revised model; each put
    costs the runtime's ``OP_OVERHEAD``."""
    require_positive(sec_per_cell, "sec_per_cell")
    p = len(blocks)
    border = np.array(
        [border_cell_count(b.height, b.width) for b in blocks], dtype=float
    )
    interior = np.array(
        [interior_cell_count(b.height, b.width) for b in blocks], dtype=float
    )
    comm_model = build_comm_model(blocks, params)
    t_comm = comm_model.superstep_times()
    puts = comm_model.message_counts.sum(axis=1)
    t_border = border * sec_per_cell + puts * OP_OVERHEAD
    t_interior = interior * sec_per_cell
    return StencilPrediction(
        name="BSP",
        nprocs=p,
        t_border=t_border,
        t_interior=t_interior,
        t_comm=t_comm,
        t_sync=predict_sync_cost(params),
    )


def predict_mpi_iteration(
    blocks: list[LocalBlock],
    sec_per_cell: float,
    params: CommParameters,
    overlap: bool = False,
) -> StencilPrediction:
    """The MPI (postponed) or MPI+R (restructured) iteration: the exchange
    is priced as the critical path of Fig. 8.3's two stage matrices."""
    require_positive(sec_per_cell, "sec_per_cell")
    p = len(blocks)
    stages, payloads = _exchange_stages(blocks)
    from repro.barriers.patterns import from_stages

    exchange = from_stages("exchange", stages)
    t_exchange = predict_barrier_cost(exchange, params, payload_bytes=payloads)
    border = np.array(
        [border_cell_count(b.height, b.width) for b in blocks], dtype=float
    )
    interior = np.array(
        [interior_cell_count(b.height, b.width) for b in blocks], dtype=float
    )
    if overlap:
        return StencilPrediction(
            name="MPI+R",
            nprocs=p,
            t_border=border * sec_per_cell,
            t_interior=interior * sec_per_cell,
            t_comm=np.full(p, t_exchange),
            t_sync=0.0,
        )
    # Without restructuring nothing masks the exchange: model it as border
    # plus interior strictly before a fully exposed communication phase.
    return StencilPrediction(
        name="MPI",
        nprocs=p,
        t_border=(border + interior) * sec_per_cell,
        t_interior=np.zeros(p),
        t_comm=np.full(p, t_exchange),
        t_sync=0.0,
    )


def predict_iteration(
    machine: SimMachine,
    n: int,
    nprocs: int,
    kind: str = "bsp",
    comm_samples: int = 7,
) -> StencilPrediction:
    """One design point of the Chapter 8 prediction experiment: profile the
    platform at P = ``nprocs``, benchmark the kernel rate at the block's
    working-set size, and evaluate the chosen implementation model.

    The platform profile is served through the memoized profile cache as
    a slice of its node block's benchmark, so sweeping ``kind``, ``n`` or
    ``nprocs`` re-uses one benchmark run per node block."""
    from repro.bench.profile_cache import PROFILE_CACHE

    blocks = decompose(n, nprocs)
    placement = machine.placement(nprocs)
    params = PROFILE_CACHE.get_or_benchmark(
        machine, placement, samples=comm_samples, sizes=FAST_COMM_SIZES
    )
    spc = stencil_sec_per_cell(machine, placement.core_of(0), blocks[0])
    if kind == "bsp":
        return predict_bsp_iteration(blocks, spc, params)
    if kind == "mpi":
        return predict_mpi_iteration(blocks, spc, params)
    if kind == "mpi+r":
        return predict_mpi_iteration(blocks, spc, params, overlap=True)
    raise ValueError(f"unknown prediction kind {kind!r}")
