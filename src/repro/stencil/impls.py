"""The Chapter 8 stencil implementations (§8.3).

Four implementations of the same 5-point Jacobi iteration, matching the
thesis's experimental subjects:

* **BSP** — runs on the BSPlib runtime: per superstep, owned borders and
  corners are computed first, committed to the neighbours' ghost buffers
  immediately (early-commit overlap, Fig. 1.2), the deep interior is swept
  while transfers stream, and ``bsp_sync`` fences the iteration.  This
  implementation really computes: its grids converge like the serial code.
* **MPI** — the conventional message-passing structure: compute the whole
  block, then a postponed two-stage border exchange (horizontal, then
  vertical — Fig. 8.3) with no overlap.
* **MPI+R** — **[reconstructed]** the MPI code *R*estructured for overlap:
  borders first, non-blocking exchange, interior computed while transfers
  fly.
* **Hybrid** — one rank per node with node-wide threaded compute and
  inter-node exchanges only (§8.3.3).

MPI-family implementations are cost models over the event engine (the
numerics are identical to BSP's by construction, so only time differs):
each rank's clean compute times are computed once per run, and every
iteration draws one bulk noise sample over the ranks around them, then
runs the exchange as one ``runs=1`` engine execution.  The BSP
implementation supports both real numerics and charge-only mode.
It always runs on the BSP runtime's replication axis (``runs=1`` by
default), so its timings carry a leading ``(R, ...)`` axis; charge-only
runs build no grid data at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bsplib.runtime import bsp_run
from repro.cluster.topology import Placement
from repro.kernels.numeric import STENCIL5
from repro.machine.simmachine import SimMachine
from repro.simmpi.engine import simulate_stages_batch
from repro.stencil.grid import WORD, LocalBlock, decompose
from repro.stencil.regions import border_cell_count, interior_cell_count
from repro.util.validation import require_int

THREAD_BARRIER_BASE = 2.0e-6  # per-iteration node-internal thread fence [s]


@dataclass(frozen=True)
class StencilRunResult:
    """Timing (and optionally field data) of one stencil run.

    ``iteration_seconds`` is ``(R, iterations)`` for a BSP run
    (``run_bsp_stencil(..., runs=R)``), whose ``total_seconds`` is the
    ensemble mean of per-replication wall times, and ``(iterations,)``
    for the unreplicated MPI-family cost models.
    """

    name: str
    nprocs: int
    n: int
    iterations: int
    iteration_seconds: np.ndarray  # global duration per iteration
    total_seconds: float
    field: np.ndarray | None = None  # assembled global grid (BSP only)
    provenance: object | None = None  # BSPProvenance when requested (BSP)

    @property
    def run_mean_iterations(self) -> np.ndarray:
        """Per-replication mean iteration seconds of a BSP run, ``(R,)``.

        BSP-only: an MPI-family result's ``(iterations,)`` array has no
        replication axis, and numpy raises ``AxisError`` for it."""
        return self.iteration_seconds.mean(axis=1)

    @property
    def mean_iteration(self) -> float:
        return float(self.iteration_seconds.mean())


# --------------------------------------------------------------------- BSP


def run_bsp_stencil(
    machine: SimMachine,
    nprocs: int,
    n: int,
    iterations: int,
    execute_numerics: bool = True,
    initial=None,
    label: str = "bsp-stencil",
    runs: int = 1,
    provenance: bool = False,
) -> StencilRunResult:
    """The BSPlib implementation (§8.3.1) on the simulated platform.

    All ``runs`` noisy replications execute in one batched ``bsp_run``
    pass (the grid numerics run once — data movement is
    noise-independent): ``iteration_seconds`` is ``(R, iterations)`` and
    ``total_seconds`` the ensemble mean of per-replication wall times.
    With ``execute_numerics=False`` only time is charged: ``initial`` is
    neither built nor read.  ``provenance=True`` records event provenance
    on the result for critical-path extraction (``repro.obs.explain``);
    timings stay bit-identical.
    """
    require_int(iterations, "iterations")
    blocks = decompose(n, nprocs)
    if min(b.height for b in blocks) < 3 or min(b.width for b in blocks) < 3:
        raise ValueError("blocks must be at least 3x3 for the region split")

    if execute_numerics:
        if initial is None:
            initial = np.random.default_rng(1234).standard_normal((n, n))
        initial = np.asarray(initial, dtype=float)
        if initial.shape != (n, n):
            raise ValueError("initial field must be n x n")

    def program(ctx):
        block = blocks[ctx.pid]
        h, w = block.height, block.width
        if execute_numerics:
            u = np.zeros((h + 2, w + 2))
            u[1 : h + 1, 1 : w + 1] = initial[
                block.global_row0 : block.global_row0 + h,
                block.global_col0 : block.global_col0 + w,
            ]
            u_new = np.zeros_like(u)
        else:
            # Charge-only: no grids, only the zero borders they would send.
            u = u_new = None
            zero_row, zero_col = np.zeros(w), np.zeros(h)
        ghost_n = np.zeros(w)
        ghost_s = np.zeros(w)
        ghost_e = np.zeros(h)
        ghost_w = np.zeros(h)
        for buf in (ghost_n, ghost_s, ghost_e, ghost_w):
            ctx.push_reg(buf)
        ctx.sync()

        def put_borders(grid):
            """Commit the owned border ring to the neighbours' ghosts (a
            charge-only run, whose ``grid`` is ``None``, sends zeros)."""
            if grid is None:
                north = south = zero_row
                east = west = zero_col
            else:
                north, south = grid[1, 1 : w + 1], grid[h, 1 : w + 1]
                east, west = grid[1 : h + 1, w], grid[1 : h + 1, 1]
            if block.north is not None:
                ctx.put(block.north, np.ascontiguousarray(north), ghost_s)
            if block.south is not None:
                ctx.put(block.south, np.ascontiguousarray(south), ghost_n)
            if block.east is not None:
                ctx.put(block.east, np.ascontiguousarray(east), ghost_w)
            if block.west is not None:
                ctx.put(block.west, np.ascontiguousarray(west), ghost_e)

        def load_ghosts(grid):
            grid[0, 1 : w + 1] = ghost_n
            grid[h + 1, 1 : w + 1] = ghost_s
            grid[1 : h + 1, w + 1] = ghost_e
            grid[1 : h + 1, 0] = ghost_w

        # Setup superstep: exchange the initial field's borders so the
        # first sweep sees real neighbour values.
        put_borders(u)
        ctx.sync()

        border_cells = border_cell_count(h, w)
        interior_cells = interior_cell_count(h, w)
        fp = block.working_set_bytes

        for _ in range(iterations):
            if execute_numerics:
                load_ghosts(u)
                # Borders and corners first (region order of Fig. 8.2)...
                u_new[1 : h + 1, 1 : w + 1] = 0.25 * (
                    u[0:h, 1 : w + 1]
                    + u[2 : h + 2, 1 : w + 1]
                    + u[1 : h + 1, 0:w]
                    + u[1 : h + 1, 2 : w + 2]
                )
            ctx.charge_kernel(STENCIL5, border_cells, footprint_bytes=fp)
            # ...so their transfer can be committed before the interior.
            put_borders(u_new)
            ctx.charge_kernel(STENCIL5, interior_cells, footprint_bytes=fp)
            ctx.sync()
            u, u_new = u_new, u
        return u[1 : h + 1, 1 : w + 1].copy() if execute_numerics else None

    result = bsp_run(
        machine, nprocs, program, label=label, runs=runs,
        provenance=provenance,
    )
    # Supersteps: registration, initial border exchange, then iterations.
    # The per-iteration extraction below slices the last ``iterations``
    # superstep durations, so the superstep count must match exactly —
    # a program change that adds or removes a setup superstep would
    # otherwise silently mis-attribute setup cost to an iteration.
    expected_supersteps = 2 + iterations
    if result.superstep_count != expected_supersteps:
        raise RuntimeError(
            f"BSP stencil program produced {result.superstep_count} "
            f"supersteps but per-iteration extraction expects "
            f"{expected_supersteps} (registration + initial border "
            f"exchange + {iterations} iterations); update the extraction "
            f"to match the program's superstep structure"
        )
    # exit_times is (R, P) per superstep; step_ends is (R, S).
    step_ends = np.stack(
        [rec.exit_times.max(axis=1) for rec in result.supersteps], axis=1
    )
    if iterations:
        iteration_seconds = np.diff(step_ends, axis=1)[:, -iterations:]
    else:
        iteration_seconds = np.zeros((result.runs, 0))

    field = None
    if execute_numerics:
        field = np.zeros((n, n))
        for block, local in zip(blocks, result.return_values):
            field[
                block.global_row0 : block.global_row0 + block.height,
                block.global_col0 : block.global_col0 + block.width,
            ] = local
    return StencilRunResult(
        name="BSP",
        nprocs=nprocs,
        n=n,
        iterations=iterations,
        iteration_seconds=iteration_seconds,
        total_seconds=result.total_seconds,
        field=field,
        provenance=result.provenance,
    )


# --------------------------------------------------------- MPI-family model


def _exchange_stages(blocks: list[LocalBlock]) -> tuple[list, list]:
    """Fig. 8.3's two-stage border exchange: horizontal then vertical,
    with per-stage payload matrices in bytes."""
    p = len(blocks)
    horizontal = np.zeros((p, p), dtype=bool)
    vertical = np.zeros((p, p), dtype=bool)
    pay_h = np.zeros((p, p))
    pay_v = np.zeros((p, p))
    for block in blocks:
        if block.east is not None:
            horizontal[block.rank, block.east] = True
            pay_h[block.rank, block.east] = block.height * WORD
        if block.west is not None:
            horizontal[block.rank, block.west] = True
            pay_h[block.rank, block.west] = block.height * WORD
        if block.north is not None:
            vertical[block.rank, block.north] = True
            pay_v[block.rank, block.north] = block.width * WORD
        if block.south is not None:
            vertical[block.rank, block.south] = True
            pay_v[block.rank, block.south] = block.width * WORD
    return [horizontal, vertical], [pay_h, pay_v]


def _run_mpi_family(
    machine: SimMachine,
    nprocs: int,
    n: int,
    iterations: int,
    overlap: bool,
    name: str,
    placement: Placement | None = None,
    blocks: list[LocalBlock] | None = None,
    compute_scale: float = 1.0,
    extra_per_iter: float = 0.0,
) -> StencilRunResult:
    require_int(iterations, "iterations")
    if blocks is None:
        blocks = decompose(n, nprocs)
    if placement is None:
        placement = machine.placement(nprocs)
    truth = machine.comm_truth(placement)
    stages, payloads = _exchange_stages(blocks)
    rng = machine.rng("stencil", name, nprocs, n)
    noise = machine.noise

    border = np.array([border_cell_count(b.height, b.width) for b in blocks])
    interior = np.array([interior_cell_count(b.height, b.width) for b in blocks])
    footprints = [b.working_set_bytes / compute_scale for b in blocks]
    cores = [placement.core_of(rank) for rank in range(nprocs)]

    def clean(cells) -> np.ndarray:
        """Each rank's noise-free compute time, fixed for the whole run."""
        return np.array([
            machine.kernel_time_clean(
                core, STENCIL5, int(c), footprint_bytes=fp
            )
            for core, c, fp in zip(cores, cells, footprints)
        ])

    def charge(base: np.ndarray) -> np.ndarray:
        """One iteration's compute: one bulk noise draw over the ranks."""
        return noise.sample(rng, base) / compute_scale

    if overlap:
        clean_border, clean_interior = clean(border), clean(interior)
    else:
        clean_total = clean(border + interior)

    clock = np.zeros(nprocs)
    iteration_seconds = np.empty(iterations)
    for it in range(iterations):
        start = clock.max()
        if overlap:
            comm_entry = clock + charge(clean_border)
            exits_comm = simulate_stages_batch(
                truth, stages, payload_bytes=payloads,
                rng=rng, noise=noise, entry_times=comm_entry,
            )[0]
            clock = np.maximum(comm_entry + charge(clean_interior), exits_comm)
        else:
            clock = simulate_stages_batch(
                truth, stages, payload_bytes=payloads,
                rng=rng, noise=noise, entry_times=clock + charge(clean_total),
            )[0]
        clock = clock + extra_per_iter
        # Neighbour dependencies couple the ranks; a global fence is not
        # required by MPI, but iteration duration is still bounded by the
        # slowest rank for reporting purposes.
        iteration_seconds[it] = clock.max() - start
    return StencilRunResult(
        name=name,
        nprocs=nprocs,
        n=n,
        iterations=iterations,
        iteration_seconds=iteration_seconds,
        total_seconds=float(clock.max()),
    )


def run_mpi_stencil(machine, nprocs, n, iterations) -> StencilRunResult:
    """Plain MPI (§8.3.2): postponed, non-overlapped two-stage exchange."""
    return _run_mpi_family(
        machine, nprocs, n, iterations, overlap=False, name="MPI"
    )


def run_mpi_r_stencil(machine, nprocs, n, iterations) -> StencilRunResult:
    """MPI+R: restructured for overlap (Table 8.2's comparison point)."""
    return _run_mpi_family(
        machine, nprocs, n, iterations, overlap=True, name="MPI+R"
    )


def run_hybrid_stencil(
    machine: SimMachine, nprocs: int, n: int, iterations: int
) -> StencilRunResult:
    """Hybrid (§8.3.3): one MPI rank per node, threads across the node's
    cores, exchanges between nodes only."""
    topo = machine.topology
    cpn = topo.cores_per_node
    if nprocs % cpn == 0:
        nodes = nprocs // cpn
        threads = cpn
    else:
        nodes = max(1, -(-nprocs // cpn))
        threads = -(-nprocs // nodes)
    if nodes > topo.nodes:
        raise ValueError("hybrid run needs one rank per node at most")
    blocks = decompose(n, nodes)
    placement = Placement(
        topo, [node * cpn for node in range(nodes)]
    )
    barrier_cost = THREAD_BARRIER_BASE * max(1.0, np.log2(max(threads, 2)))
    result = _run_mpi_family(
        machine,
        nodes,
        n,
        iterations,
        overlap=True,
        name="Hybrid",
        placement=placement,
        blocks=blocks,
        compute_scale=float(threads),
        extra_per_iter=barrier_cost,
    )
    return StencilRunResult(
        name="Hybrid",
        nprocs=nprocs,
        n=n,
        iterations=iterations,
        iteration_seconds=result.iteration_seconds,
        total_seconds=result.total_seconds,
    )


def serial_reference(initial: np.ndarray, iterations: int) -> np.ndarray:
    """Serial Jacobi sweeps with zero boundary, for numerical validation."""
    n = initial.shape[0]
    u = np.zeros((n + 2, n + 2))
    u[1:-1, 1:-1] = initial
    out = np.zeros_like(u)
    for _ in range(iterations):
        out[1:-1, 1:-1] = 0.25 * (
            u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
        )
        u, out = out, u
    return u[1:-1, 1:-1].copy()
