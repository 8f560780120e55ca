"""The adaptive campaign driver: budgeted propose/evaluate/observe loops.

:class:`AdaptiveCampaign` is to a sampler what :class:`Campaign` is to a
design space: it owns the evaluation plumbing — executor choice, the
append-only JSONL store, failure policy — and loops batches of sampler
proposals through :meth:`Campaign.serve` until the budget is spent or the
strategy has nothing left to propose.  Because serving goes through the
same content-hash cache as exhaustive campaigns, adaptive and exhaustive
runs over one store *share* results in both directions: an adaptive run
warm-starts from whatever an earlier sweep evaluated, and the points it
evaluates make a later exhaustive run cheaper.

Budget semantics: the budget counts **distinct points observed** by the
strategy, whether they were freshly evaluated or served from the cache —
it bounds the information the search consumes, which is what makes the
"found the optimum on ≤ N points" claim meaningful and run-independent.
The stats still split fresh evaluations from cache reads.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.explore.adaptive.samplers import Observation, make_sampler
from repro.explore.campaign import Campaign
from repro.explore.resilience import RetryPolicy
from repro.explore.results import ResultRecord, ResultSet
from repro.explore.space import DesignSpace
from repro.obs import current as _telemetry
from repro.obs import summarize_run
from repro.obs import wallclock as _wallclock


@dataclass(frozen=True)
class AdaptivePlan:
    """A sampling plan as data: strategy, budget, objective(s), options.

    This is the declarative form suite specs and the CLI build —
    everything :func:`run_adaptive` needs beyond the (space, experiment)
    pair.  ``options`` passes through to the strategy constructor
    (``fidelity=``/``eta=`` for halving, ``explore=``/``warmup=`` for
    surrogate, ...).
    """

    budget: int
    strategy: str = "surrogate"
    objective: str | None = None
    objectives: tuple[str, ...] = ()
    maximize: bool | tuple[str, ...] = False
    batch: int = 16
    seed: int = 0
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        object.__setattr__(self, "objectives", tuple(self.objectives))
        if not isinstance(self.maximize, bool):
            object.__setattr__(self, "maximize", tuple(self.maximize))
        object.__setattr__(self, "options", dict(self.options))

    @property
    def named_objectives(self) -> tuple[str, ...]:
        """``objectives``, or the single ``objective`` (if any)."""
        return self.objectives or tuple(filter(None, [self.objective]))

    @property
    def maximized(self) -> tuple[str, ...]:
        """The objectives maximised: ``maximize=True`` means every one the
        plan names, ``False`` none, a tuple those it lists."""
        if self.maximize is True:
            return self.named_objectives
        return self.maximize or ()

    @property
    def ascending(self) -> bool:
        """Whether the single objective is minimised."""
        return self.objective not in self.maximized

    def build_sampler(self, space: DesignSpace):
        return make_sampler(
            self.strategy,
            space,
            seed=self.seed,
            objective=self.objective,
            objectives=self.objectives,
            maximize=self.maximized,
            **self.options,
        )


@dataclass(frozen=True)
class AdaptiveStats:
    """How an adaptive run spent its budget."""

    budget: int
    space_size: int
    proposed: int
    evaluated: int
    cached: int
    failed: int
    rounds: int
    quarantined: int = 0

    @property
    def total(self) -> int:
        """Points served, under :class:`CampaignStats`'s name for it."""
        return self.proposed

    @property
    def coverage(self) -> float:
        """Fraction of the design space the run observed."""
        return self.proposed / self.space_size if self.space_size else 0.0


@dataclass(frozen=True)
class AdaptiveOutcome:
    """A finished adaptive run: results in evaluation order plus stats."""

    name: str
    plan: AdaptivePlan
    results: ResultSet
    stats: AdaptiveStats

    def best(self) -> ResultRecord:
        """The best observed record under the plan's single objective."""
        if self.plan.objective is None:
            raise ValueError(
                "best() needs a single-objective plan; use front() for "
                "Pareto plans"
            )
        return self.results.best(
            self.plan.objective, ascending=self.plan.ascending
        )

    def front(self) -> ResultSet:
        """The observed Pareto front under the plan's objectives."""
        objectives = self.plan.named_objectives
        if not objectives:
            raise ValueError("the plan names no objectives")
        return self.results.pareto_front(
            objectives, maximize=self.plan.maximized
        )

    def regret(self, exhaustive: ResultSet) -> float:
        """Gap between the adaptive best and the true best of an
        exhaustive result set, in objective units (0.0 = optimum found).

        The exhaustive set is typically a tier-2 full sweep over the same
        store; signs are normalised so regret is always >= 0-ish
        ("how much worse is what the search found").
        """
        if self.plan.objective is None:
            raise ValueError("regret() needs a single-objective plan")
        ascending = self.plan.ascending
        found = float(self.best().value(self.plan.objective))
        true = float(
            exhaustive.best(
                self.plan.objective, ascending=ascending
            ).value(self.plan.objective)
        )
        return (found - true) if ascending else (true - found)


class AdaptiveCampaign:
    """A named (design space, experiment, plan) triple bound to a store."""

    def __init__(
        self,
        name: str,
        space: DesignSpace,
        experiment: str,
        plan: AdaptivePlan,
        store_dir: str | os.PathLike | None = None,
        executor: str | Any | None = None,
        workers: int | None = None,
        on_error: str = "raise",
        durable: bool = False,
        policy: RetryPolicy | None = None,
        degrade: bool = False,
    ):
        self.plan = plan
        # The underlying campaign owns cache, executor, and error policy;
        # sharing its name with exhaustive runs is what shares the store.
        self._campaign = Campaign(
            name,
            space,
            experiment,
            store_dir=store_dir,
            executor=executor,
            workers=workers,
            on_error=on_error,
            durable=durable,
            policy=policy,
            degrade=degrade,
        )

    @property
    def name(self) -> str:
        return self._campaign.name

    @property
    def space(self) -> DesignSpace:
        return self._campaign.space

    def run(self) -> AdaptiveOutcome:
        """Loop propose → serve → observe until the budget is spent.

        With telemetry on, each round records an ``adaptive.round`` span
        (serving nests ``campaign.serve`` inside it) and the finished run
        persists a :class:`repro.obs.TelemetrySummary` next to the store,
        exactly like an exhaustive :meth:`Campaign.run`.
        """
        tele = _telemetry()
        started = _wallclock()
        plan = self.plan
        sampler = plan.build_sampler(self.space)
        records: list[ResultRecord] = []
        evaluated = cached = failed = quarantined = rounds = 0
        failures: list[dict] = []
        while len(records) < plan.budget:
            batch = min(plan.batch, plan.budget - len(records))
            proposals = sampler.propose(batch)
            if not proposals:
                break  # strategy done (space exhausted or halving finished)
            if tele is None:
                served, stats = self._campaign.serve(proposals)
            else:
                with tele.span(
                    "adaptive.round",
                    campaign=self.name,
                    round=rounds,
                    proposed=len(proposals),
                    strategy=plan.strategy,
                ) as span:
                    served, stats = self._campaign.serve(proposals)
                    span.set("computed", stats.evaluated)
                    span.set("cached", stats.cached)
            sampler.observe([
                Observation(point=point, metrics=record.metrics)
                for point, record in zip(proposals, served)
            ])
            records.extend(served)
            evaluated += stats.evaluated
            cached += stats.cached
            failed += stats.failed
            quarantined += stats.quarantined
            failures.extend(self._campaign._last_failures)
            rounds += 1
        if tele is not None and self._campaign.store_dir is not None:
            tele.flush()
            summarize_run(
                self._campaign.store_dir,
                campaign=self.name,
                experiment=self._campaign.experiment,
                stats={
                    "total": len(records),
                    "evaluated": evaluated,
                    "cached": cached,
                    "failed": failed,
                    "quarantined": quarantined,
                    "rounds": rounds,
                    "budget": plan.budget,
                },
                wall_seconds=_wallclock() - started,
                keys=[record.key for record in records],
                started=started,
                failures=failures,
            )
        return AdaptiveOutcome(
            name=self.name,
            plan=plan,
            results=ResultSet(tuple(records)),
            stats=AdaptiveStats(
                budget=plan.budget,
                space_size=len(self.space),
                proposed=len(records),
                evaluated=evaluated,
                cached=cached,
                failed=failed,
                rounds=rounds,
                quarantined=quarantined,
            ),
        )


def run_adaptive(
    name: str,
    space: DesignSpace | Mapping[str, Any],
    experiment: str,
    plan: AdaptivePlan | Mapping[str, Any],
    store_dir: str | os.PathLike | None = None,
    executor: str | Any | None = None,
    workers: int | None = None,
    on_error: str = "raise",
    durable: bool = False,
    policy: RetryPolicy | None = None,
    degrade: bool = False,
) -> AdaptiveOutcome:
    """One-call convenience wrapper mirroring :func:`run_campaign`."""
    if not isinstance(space, DesignSpace):
        space = DesignSpace.from_dict(space)
    if not isinstance(plan, AdaptivePlan):
        plan = AdaptivePlan(**dict(plan))
    return AdaptiveCampaign(
        name,
        space,
        experiment,
        plan,
        store_dir=store_dir,
        executor=executor,
        workers=workers,
        on_error=on_error,
        durable=durable,
        policy=policy,
        degrade=degrade,
    ).run()
