"""Core modeling framework: fundamental equation, classic BSP, matrix models."""

from repro.core.fundamental import (
    SuperstepTerms,
    total_time,
    overlap_saving,
    derived_overlap,
    perfect_overlap_bound,
)
from repro.core.bsp_classic import (
    ClassicBSPParams,
    h_relation,
    comm_cost_flops,
    comp_cost_flops,
    superstep_seconds,
    inner_product_cost_seconds,
    inner_product_sweep,
)
from repro.core.matrix_model import (
    ComputationModel,
    CommunicationModel,
    SuperstepModel,
)

__all__ = [
    "SuperstepTerms",
    "total_time",
    "overlap_saving",
    "derived_overlap",
    "perfect_overlap_bound",
    "ClassicBSPParams",
    "h_relation",
    "comm_cost_flops",
    "comp_cost_flops",
    "superstep_seconds",
    "inner_product_cost_seconds",
    "inner_product_sweep",
    "ComputationModel",
    "CommunicationModel",
    "SuperstepModel",
]
