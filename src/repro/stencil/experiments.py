"""Chapter 8 experiment definitions and harnesses (Tables 8.1-8.2, A/B/C).

Table 8.1 enumerates the experimental configurations; the A-series compares
strong scaling of the implementations, the B-series compares prediction to
measurement for large and small problems, and C1 validates the adapted
(deep-halo) superstep.  Each harness returns plain rows/series so the
benchmark modules can print them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.simmachine import SimMachine
from repro.stencil.impls import (
    StencilRunResult,
    run_bsp_stencil,
    run_hybrid_stencil,
    run_mpi_r_stencil,
    run_mpi_stencil,
)

LARGE_PROBLEM = 2048
SMALL_PROBLEM = 512

IMPLEMENTATIONS = {
    "BSP": run_bsp_stencil,
    "MPI": run_mpi_stencil,
    "MPI+R": run_mpi_r_stencil,
    "Hybrid": run_hybrid_stencil,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One Table 8.1 row."""

    label: str
    implementation: str
    n: int
    iterations: int
    process_counts: tuple[int, ...]

    def describe(self) -> list:
        return [
            self.label,
            self.implementation,
            f"{self.n}x{self.n}",
            self.iterations,
            " ".join(str(p) for p in self.process_counts),
        ]


def default_configurations(max_procs: int = 64) -> list[ExperimentConfig]:
    """The Table 8.1 configuration matrix on the simulated 8x2x4 cluster."""
    counts = tuple(p for p in (4, 8, 16, 32, 64) if p <= max_procs)
    configs = []
    for impl in IMPLEMENTATIONS:
        for n, tag in ((LARGE_PROBLEM, "large"), (SMALL_PROBLEM, "small")):
            configs.append(
                ExperimentConfig(
                    label=f"{impl.lower()}-{tag}",
                    implementation=impl,
                    n=n,
                    iterations=6,
                    process_counts=counts,
                )
            )
    return configs


def run_strong_scaling(
    machine: SimMachine,
    implementations,
    n: int,
    process_counts,
    iterations: int = 6,
    noisy: bool = True,
    runs: int = 1,
) -> dict[str, dict[int, StencilRunResult]]:
    """A-series harness: per-implementation strong-scaling sweeps.

    BSP runs charge-only here (its numerics are validated separately); all
    implementations share the machine and problem.  The BSP sweeps are
    ``runs``-replication ensembles (``iteration_seconds`` is ``(R,
    iterations)``); the MPI-family cost models have no replication axis,
    so ``runs > 1`` for them is an error rather than a silent
    single-run fallback."""
    if runs != 1 and any(name != "BSP" for name in implementations):
        others = [name for name in implementations if name != "BSP"]
        raise ValueError(
            f"runs is only supported for the BSP implementation; "
            f"got runs={runs} with {others}"
        )
    out: dict[str, dict[int, StencilRunResult]] = {}
    for name in implementations:
        runner = IMPLEMENTATIONS[name]
        per_count: dict[int, StencilRunResult] = {}
        for nprocs in process_counts:
            if name == "BSP":
                per_count[nprocs] = runner(
                    machine, nprocs, n, iterations,
                    execute_numerics=False, noisy=noisy,
                    label=f"a-series-{nprocs}-{n}",
                    runs=runs,
                )
            else:
                per_count[nprocs] = runner(machine, nprocs, n, iterations,
                                           noisy=noisy)
        out[name] = per_count
    return out


def scaling_rows(results: dict[str, dict[int, StencilRunResult]]) -> list[list]:
    """Rows of an A-series figure: P followed by per-impl iteration time."""
    names = list(results)
    counts = sorted(next(iter(results.values())))
    rows = []
    for p in counts:
        row = [p]
        for name in names:
            row.append(results[name][p].mean_iteration)
        rows.append(row)
    return rows


def wall_time_rows(
    machine: SimMachine,
    n: int,
    process_counts,
    iterations: int = 6,
    noisy: bool = True,
) -> list[list]:
    """Table 8.2: MPI and MPI+R wall times side by side."""
    rows = []
    for nprocs in process_counts:
        mpi = run_mpi_stencil(machine, nprocs, n, iterations, noisy=noisy)
        mpir = run_mpi_r_stencil(machine, nprocs, n, iterations, noisy=noisy)
        rows.append(
            [
                nprocs,
                mpi.total_seconds,
                mpir.total_seconds,
                mpi.total_seconds / mpir.total_seconds,
            ]
        )
    return rows


def weak_scaling_points(
    machine: SimMachine,
    local_side: int,
    process_counts,
    iterations: int = 5,
    noisy: bool = True,
) -> dict[int, StencilRunResult]:
    """Weak-mode sweep (§4.3's recommended regime): the per-process block
    stays ``local_side^2`` while the global problem grows with P, so the
    compute-rate profile remains valid at every scale."""
    out: dict[int, StencilRunResult] = {}
    for nprocs in process_counts:
        # Keep the global grid square-ish with ~local_side^2 cells/rank.
        n = int(round((local_side * local_side * nprocs) ** 0.5))
        out[nprocs] = run_bsp_stencil(
            machine, nprocs, n, iterations, execute_numerics=False,
            noisy=noisy, label=f"weak-{nprocs}-{local_side}",
        )
    return out
