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
from repro.barriers.evaluate import FAST_COMM_SIZES, profile_placement
from repro.barriers.simulate import measure_barrier
from repro.machine.simmachine import SimMachine


@dataclass(frozen=True)
class AdaptEvaluation:
    """Adapted-vs-default outcome for one (machine, nprocs) point.

    The three ``ensemble_*``/``choice_stability`` fields are populated
    when the evaluation was asked for a parameter-stability ensemble
    (``comm_runs=R``): ``R`` independent §5.6.3 profiles are extracted in
    one bulk draw (:func:`repro.bench.comm_bench.benchmark_comm_ensemble`)
    and the adapted pattern is re-predicted — and the greedy construction
    re-run — under every member.
    """

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
    ensemble_runs: int | None = None
    ensemble_predicted_mean: float | None = None
    ensemble_predicted_spread: float | None = None  # (max-min)/mean
    choice_stability: float | None = None  # fraction agreeing with pattern

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
    gap_ratio: float = 2.0,
    comm_samples: int = 5,
    comm_runs: int | None = None,
) -> AdaptEvaluation:
    """Run the full adaptation pipeline and verify it with measured time.

    ``comm_runs=R`` additionally extracts an ``R``-member benchmark
    ensemble in one bulk draw and reports how stable the prediction and
    the greedy choice are across it — the "is the extraction converged?"
    question a single profile cannot answer.
    """
    if comm_runs is not None and comm_runs < 1:
        raise ValueError("comm_runs must be >= 1")
    placement = machine.placement(nprocs)
    params = profile_placement(machine, placement, comm_samples=comm_samples)
    adapted = greedy_adapt(params, gap_ratio=gap_ratio)
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
    ensemble_runs = None
    ensemble_mean = None
    ensemble_spread = None
    choice_stability = None
    if comm_runs is not None:
        from repro.barriers.cost_model import predict_barrier_cost
        from repro.bench.comm_bench import benchmark_comm_ensemble

        members = benchmark_comm_ensemble(
            machine, placement, samples=comm_samples, sizes=FAST_COMM_SIZES,
            runs=comm_runs,
        )
        predictions = [
            predict_barrier_cost(adapted.pattern, member.params)
            for member in members
        ]
        choices = [
            greedy_adapt(member.params, gap_ratio=gap_ratio).pattern.name
            for member in members
        ]
        mean = sum(predictions) / len(predictions)
        ensemble_runs = comm_runs
        ensemble_mean = mean
        ensemble_spread = (
            (max(predictions) - min(predictions)) / mean if mean else 0.0
        )
        choice_stability = (
            sum(1 for c in choices if c == adapted.pattern.name) / len(choices)
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
        ensemble_runs=ensemble_runs,
        ensemble_predicted_mean=ensemble_mean,
        ensemble_predicted_spread=ensemble_spread,
        choice_stability=choice_stability,
    )
