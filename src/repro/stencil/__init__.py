"""Chapter 8 case study: the 5-point Laplacian stencil."""

from repro.stencil.grid import LocalBlock, decompose, process_grid
from repro.stencil.regions import (
    Region,
    block_regions,
    compute_regions,
    ghost_regions,
    border_cell_count,
    interior_cell_count,
)
from repro.stencil.impls import (
    StencilRunResult,
    run_bsp_stencil,
    run_mpi_stencil,
    run_mpi_r_stencil,
    run_hybrid_stencil,
    serial_reference,
)
from repro.stencil.predictor import (
    StencilPrediction,
    stencil_sec_per_cell,
    build_comm_model,
    predict_bsp_iteration,
    predict_mpi_iteration,
    predict_iteration,
)
from repro.stencil.optimizer import (
    HaloPrediction,
    HaloSweepPoint,
    predict_halo_iteration,
    measure_halo_iteration,
    optimize_halo_depth,
)
from repro.stencil.experiments import (
    ExperimentConfig,
    default_configurations,
    run_strong_scaling,
    IMPLEMENTATIONS,
    LARGE_PROBLEM,
    SMALL_PROBLEM,
)

__all__ = [
    "LocalBlock",
    "decompose",
    "process_grid",
    "Region",
    "block_regions",
    "compute_regions",
    "ghost_regions",
    "border_cell_count",
    "interior_cell_count",
    "StencilRunResult",
    "run_bsp_stencil",
    "run_mpi_stencil",
    "run_mpi_r_stencil",
    "run_hybrid_stencil",
    "serial_reference",
    "StencilPrediction",
    "stencil_sec_per_cell",
    "build_comm_model",
    "predict_bsp_iteration",
    "predict_mpi_iteration",
    "predict_iteration",
    "HaloPrediction",
    "HaloSweepPoint",
    "predict_halo_iteration",
    "measure_halo_iteration",
    "optimize_halo_depth",
    "ExperimentConfig",
    "default_configurations",
    "run_strong_scaling",
    "IMPLEMENTATIONS",
    "LARGE_PROBLEM",
    "SMALL_PROBLEM",
]
