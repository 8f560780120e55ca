"""Chapter 8 experiment definitions and the A-series harness (Table 8.1).

Table 8.1 enumerates the experimental configurations; the A-series
compares strong scaling of the implementations.  The campaign adapter
``stencil-run`` (:mod:`repro.explore.experiments`) runs the harness one
design point at a time.
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


def default_configurations() -> list[ExperimentConfig]:
    """The Table 8.1 configuration matrix on the simulated 8x2x4 cluster."""
    counts = (4, 8, 16, 32, 64)
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
                    execute_numerics=False,
                    label=f"a-series-{nprocs}-{n}",
                    runs=runs,
                )
            else:
                per_count[nprocs] = runner(machine, nprocs, n, iterations)
        out[name] = per_count
    return out
