"""Greedy, adaptive barrier construction (§7.3, Fig. 7.3).

**[reconstructed]** The generator combines the thesis's ingredients — the
SSS hierarchy from benchmarked latencies, the hybrid pattern builder, and
the Chapter 5 cost model — into a fully automatic pipeline:

1. cluster the benchmarked latency matrix (no topology knowledge),
2. greedily choose the gather pattern per hierarchy level, finest first,
   keeping the choice that minimises the *predicted* barrier cost with the
   remaining levels held at their current defaults,
3. choose the top-level exchange pattern the same way, and
4. verify the winner with the knowledge-matrix correctness test.

Because the selection metric is the model prediction, the experiment of
Figs. 7.6-7.7 — does the model pick patterns that equal or outperform the
system defaults when *measured*? — is a genuine end-to-end test of the
framework's predictive power.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adapt.hybrid import (
    LOCAL_KINDS,
    TOP_KINDS,
    flat_defaults,
    hierarchical_barrier,
)
from repro.adapt.sss import ClusterLevel, nested_hierarchy, sss_cluster
from repro.barriers.cost_model import CommParameters, predict_barrier_cost
from repro.barriers.patterns import BarrierPattern


@dataclass(frozen=True)
class AdaptedBarrier:
    """Outcome of the greedy construction."""

    pattern: BarrierPattern
    levels: tuple[ClusterLevel, ...]
    local_kinds: tuple[str, ...]
    top_kind: str
    predicted_cost: float
    default_predictions: dict[str, float]

    @property
    def beats_default_prediction(self) -> bool:
        return self.predicted_cost <= min(self.default_predictions.values()) * 1.0001


def _useful_levels(levels: list[ClusterLevel]) -> list[ClusterLevel]:
    """Drop the trivial level where every subset is a singleton and any
    level equal to its predecessor."""
    nested = nested_hierarchy(levels)
    return [lvl for lvl in nested if max(lvl.subset_sizes) > 1]


def greedy_adapt(
    params: CommParameters,
    gap_ratio: float = 2.0,
) -> AdaptedBarrier:
    """Construct a customized barrier for the profiled platform, choosing
    each gather level's pattern from ``LOCAL_KINDS`` and the top pattern
    from ``TOP_KINDS``."""
    nprocs = params.nprocs
    levels = _useful_levels(sss_cluster(params.latency, gap_ratio=gap_ratio))
    if not levels:
        raise ValueError("latency matrix exposes no cluster structure")
    # The coarsest level groups everything; its subsets' representatives
    # run the top pattern, so exclude it from the gather levels when it is
    # the single all-rank subset *and* finer levels already exist.
    if len(levels) > 1 and levels[-1].subset_count == 1:
        gather_levels = levels[:-1]
    else:
        gather_levels = levels

    kinds = ["linear"] * len(gather_levels)
    top = "dissemination"

    def cost(kind_list, top_kind) -> float:
        pattern = hierarchical_barrier(
            nprocs, gather_levels, local_kind=list(kind_list), top_kind=top_kind,
            validate=False,
        )
        return predict_barrier_cost(pattern, params)

    # Greedy sweep: finest level first (Fig. 7.3's growth order).
    for idx in range(len(gather_levels)):
        best_kind, best_cost = kinds[idx], None
        for candidate in LOCAL_KINDS:
            kinds[idx] = candidate
            c = cost(kinds, top)
            if best_cost is None or c < best_cost:
                best_kind, best_cost = candidate, c
        kinds[idx] = best_kind
    best_top, best_cost = top, None
    for candidate in TOP_KINDS:
        c = cost(kinds, candidate)
        if best_cost is None or c < best_cost:
            best_top, best_cost = candidate, c
    top = best_top

    pattern = hierarchical_barrier(
        nprocs, gather_levels, local_kind=kinds, top_kind=top,
        name=f"adapted-{'/'.join(kinds)}-{top}", validate=True,
    )
    defaults = {
        name: predict_barrier_cost(p, params)
        for name, p in flat_defaults(nprocs).items()
    }
    # The generator may always fall back to a system default it predicts to
    # be cheaper — guaranteeing "equals or outperforms" by construction.
    best_default = min(defaults, key=defaults.get)
    if defaults[best_default] < best_cost:
        pattern = flat_defaults(nprocs)[best_default].with_name(
            f"adapted-fallback-{best_default}"
        )
        best_cost = defaults[best_default]
    return AdaptedBarrier(
        pattern=pattern,
        levels=tuple(gather_levels),
        local_kinds=tuple(kinds),
        top_kind=top,
        predicted_cost=float(best_cost),
        default_predictions=defaults,
    )
