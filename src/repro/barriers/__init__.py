"""Barrier synchronization: patterns, correctness, simulation, cost model."""

from repro.barriers.patterns import (
    BarrierPattern,
    linear_barrier,
    tree_barrier,
    dissemination_barrier,
    all_to_all_barrier,
    sequential_linear_barrier,
    ring_pattern,
    pairwise_exchange_barrier,
    kary_dissemination_barrier,
    from_stages,
)
from repro.barriers.correctness import (
    knowledge_trace,
    is_correct_barrier,
    uninformed_pairs,
    stages_to_completion,
    assert_correct,
)
from repro.barriers.cost_model import (
    CommParameters,
    StageTerms,
    stage_terms,
    stage_costs,
    predict_barrier_timeline,
    predict_barrier_cost,
    critical_path_recursive,
)
from repro.barriers.simulate import BarrierTiming, measure_barrier
from repro.barriers.evaluate import (
    BarrierEvaluation,
    evaluate_barrier,
    profile_placement,
)
from repro.barriers import asymptotic

__all__ = [
    "BarrierPattern",
    "linear_barrier",
    "tree_barrier",
    "dissemination_barrier",
    "all_to_all_barrier",
    "sequential_linear_barrier",
    "ring_pattern",
    "pairwise_exchange_barrier",
    "kary_dissemination_barrier",
    "from_stages",
    "knowledge_trace",
    "is_correct_barrier",
    "uninformed_pairs",
    "stages_to_completion",
    "assert_correct",
    "CommParameters",
    "StageTerms",
    "stage_terms",
    "stage_costs",
    "predict_barrier_timeline",
    "predict_barrier_cost",
    "critical_path_recursive",
    "BarrierTiming",
    "measure_barrier",
    "BarrierEvaluation",
    "evaluate_barrier",
    "profile_placement",
    "asymptotic",
]
