"""One-call evaluation of the greedy adaptation pipeline (Figs. 7.6-7.7).

Wraps benchmark → SSS clustering → greedy pattern construction → measured
verification into a single design-point callable, so the cross-platform
"does adaptation equal or beat the defaults?" question becomes a campaign
axis instead of a bespoke benchmark script.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adapt.greedy import greedy_adapt
from repro.adapt.hybrid import flat_defaults
from repro.barriers.evaluate import profile_placement
from repro.barriers.simulate import measure_barrier
from repro.machine.simmachine import SimMachine


@dataclass(frozen=True)
class AdaptEvaluation:
    """Adapted-vs-default outcome for one (machine, nprocs) point."""

    nprocs: int
    pattern_name: str
    local_kinds: tuple[str, ...]
    top_kind: str
    levels: int
    adapted_predicted: float
    adapted_measured: float
    best_default_name: str
    best_default_predicted: float
    best_default_measured: float

    @property
    def measured_speedup(self) -> float:
        """Measured default/adapted ratio; > 1 means adaptation won."""
        if self.adapted_measured == 0.0:
            return 1.0
        return self.best_default_measured / self.adapted_measured


def evaluate_adaptation(
    machine: SimMachine,
    nprocs: int,
    runs: int = 16,
    comm_samples: int = 5,
) -> AdaptEvaluation:
    """Run the full adaptation pipeline and verify it with measured time."""
    placement = machine.placement(nprocs)
    params = profile_placement(machine, placement, comm_samples=comm_samples)
    adapted = greedy_adapt(params)
    best_default = min(
        adapted.default_predictions, key=adapted.default_predictions.get
    )
    default_pattern = flat_defaults(nprocs)[best_default]
    adapted_timing = measure_barrier(
        machine, adapted.pattern, placement, runs=runs
    )
    default_timing = measure_barrier(
        machine, default_pattern, placement, runs=runs
    )
    return AdaptEvaluation(
        nprocs=nprocs,
        pattern_name=adapted.pattern.name,
        local_kinds=adapted.local_kinds,
        top_kind=adapted.top_kind,
        levels=len(adapted.levels),
        adapted_predicted=adapted.predicted_cost,
        adapted_measured=adapted_timing.mean_worst,
        best_default_name=best_default,
        best_default_predicted=adapted.default_predictions[best_default],
        best_default_measured=default_timing.mean_worst,
    )
