"""Sampling strategies: which design points to evaluate next.

A sampler owns the *selection policy* of an adaptive campaign and nothing
else: the driver (:mod:`repro.explore.adaptive.driver`) asks it for a
batch of proposals, evaluates them through the ordinary campaign
machinery, and feeds the metrics back via :meth:`Sampler.observe`.  Three
properties are contractual, and the test suite enforces them per
strategy:

* **in-space** — proposals are always drawn from the space's expansion,
  never synthesised, so every proposal is evaluable and cacheable;
* **no repeats** — a point is proposed at most once per sampler, and
  points observed from elsewhere (a shared cache, a previous run) are
  never proposed again;
* **seeded determinism** — the proposal sequence is a pure function of
  ``(space, seed, options, observations fed back)``; no global RNG, no
  iteration-order dependence.  This is what makes adaptive campaigns
  bit-reproducible and executor-independent.

Strategies:

* ``random``      — seeded uniform order without replacement; the
                    baseline every guided strategy must beat;
* ``stratified``  — greedy maximin space-filling over the encoded axes
                    (a discrete stand-in for latin-hypercube designs);
* ``halving``     — successive halving over a declared fidelity axis:
                    wide and cheap first, deep on survivors;
* ``surrogate``   — active search: k-NN + linear surrogate ensemble,
                    exploit/explore acquisition, optional Pareto mode
                    over several objectives.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.explore.adaptive.encoding import SpaceEncoder
from repro.explore.adaptive.surrogate import (
    LinearSurrogate,
    NearestNeighbours,
    mean_and_spread,
)
from repro.explore.space import DesignPoint, DesignSpace


@dataclass(frozen=True)
class Observation:
    """One evaluated proposal fed back to the sampler."""

    point: DesignPoint
    metrics: Mapping[str, Any]

    def value(self, objective: str) -> float | None:
        """The objective as a float, or None when missing/failed."""
        value = self.metrics.get(objective)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        value = float(value)
        return value if math.isfinite(value) else None


class Sampler:
    """Base class: candidate bookkeeping shared by every strategy.

    ``objective`` names the metric single-objective strategies optimise
    and ``objectives`` switches the strategies that support it into
    multi-metric mode; ``maximize`` names the metrics to maximise (the
    rest are minimised).
    """

    name = "base"

    def __init__(
        self,
        space: DesignSpace | Sequence[DesignPoint],
        seed: int = 0,
        objective: str | None = None,
        objectives: Sequence[str] = (),
        maximize: Sequence[str] = (),
    ):
        if isinstance(space, DesignSpace):
            self.candidates: list[DesignPoint] = space.expand()
        else:
            self.candidates = [
                p if isinstance(p, DesignPoint) else DesignPoint(p)
                for p in space
            ]
        if not self.candidates:
            raise ValueError("sampler needs a non-empty candidate set")
        self.seed = int(seed)
        # Strategy name in the seed string: two strategies at the same seed
        # still make independent choices.
        self.rng = random.Random(f"{self.name}:{self.seed}")
        self.objectives = tuple(objectives)
        if objective is not None and self.objectives:
            raise ValueError("pass objective or objectives, not both")
        self.objective = objective
        self._maximize = set(maximize)
        unknown = self._maximize - set(self.objectives) - (
            {objective} if objective else set()
        )
        if unknown:
            raise ValueError(
                f"maximize names unknown objectives: {sorted(unknown)}"
            )
        self._index = {p.key: i for i, p in enumerate(self.candidates)}
        self._proposed: set[str] = set()
        self.observations: list[Observation] = []

    # ------------------------------------------------------------- protocol

    def propose(self, batch: int) -> list[DesignPoint]:
        """Up to ``batch`` fresh candidate points (empty when exhausted)."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        picks = self._pick(batch)
        for point in picks:
            self._proposed.add(point.key)
        return picks

    def observe(self, observations: Sequence[Observation]) -> None:
        """Feed back evaluated metrics (proposed here or imported from a
        shared cache); observed points are never proposed again."""
        for obs in observations:
            self._proposed.add(obs.point.key)
            self.observations.append(obs)
            self._note(obs)

    # ----------------------------------------------------- subclass surface

    def _pick(self, batch: int) -> list[DesignPoint]:
        raise NotImplementedError

    def _note(self, observation: Observation) -> None:
        """Hook: a subclass updates its internal state per observation."""

    # -------------------------------------------------------------- helpers

    def _sign(self, objective: str) -> float:
        return -1.0 if objective in self._maximize else 1.0

    def _unproposed(self) -> list[int]:
        return [
            i for i, p in enumerate(self.candidates)
            if p.key not in self._proposed
        ]

    @property
    def exhausted(self) -> bool:
        return len(self._proposed) >= len(self.candidates)


class RandomSampler(Sampler):
    """Seeded uniform sampling without replacement."""

    name = "random"

    def __init__(self, space, seed: int = 0, **kwargs):
        super().__init__(space, seed, **kwargs)
        self._order = list(range(len(self.candidates)))
        self.rng.shuffle(self._order)
        self._cursor = 0

    def _pick(self, batch: int) -> list[DesignPoint]:
        picks: list[DesignPoint] = []
        while len(picks) < batch and self._cursor < len(self._order):
            point = self.candidates[self._order[self._cursor]]
            self._cursor += 1
            if point.key not in self._proposed:
                picks.append(point)
        return picks


class _MaximinState:
    """Greedy farthest-point bookkeeping over encoded candidates: tracks
    every candidate's distance to the nearest already-selected point."""

    def __init__(self, encoded: np.ndarray):
        self.encoded = encoded
        self.min_dist = np.full(len(encoded), np.inf)

    def select(self, idx: int) -> None:
        d = np.sqrt(((self.encoded - self.encoded[idx]) ** 2).sum(axis=1))
        self.min_dist = np.minimum(self.min_dist, d)

    def exclude(self, idx: int) -> None:
        self.min_dist[idx] = -np.inf

    def farthest(self) -> int:
        # argmax returns the first maximum: deterministic tie-breaking on
        # candidate (= expansion) order.
        return int(np.argmax(self.min_dist))


class StratifiedSampler(Sampler):
    """Greedy maximin space-filling over the encoded axes.

    The first pick is seeded-random; every later pick is the unproposed
    candidate farthest (in encoded Euclidean distance) from everything
    already selected or observed.  On discrete grids this covers every
    axis stratum before revisiting any — the role latin-hypercube designs
    play over continuous spaces — and it degrades gracefully on
    explicit-point spaces where no grid structure exists.
    """

    name = "stratified"

    def __init__(self, space, seed: int = 0, **kwargs):
        super().__init__(space, seed, **kwargs)
        self._encoder = SpaceEncoder(self.candidates)
        self._state = _MaximinState(self._encoder.encode_many(self.candidates))
        self._first = self.rng.randrange(len(self.candidates))
        self._started = False

    def _note(self, observation: Observation) -> None:
        idx = self._index.get(observation.point.key)
        if idx is not None:
            self._state.select(idx)
            self._state.exclude(idx)
            self._started = True

    def _pick(self, batch: int) -> list[DesignPoint]:
        picks: list[DesignPoint] = []
        while len(picks) < batch:
            if not self._started:
                idx = self._first
                if self.candidates[idx].key in self._proposed:
                    self._started = True
                    continue
                self._started = True
            else:
                idx = self._state.farthest()
                if self._state.min_dist[idx] == -np.inf:
                    break  # every candidate excluded
            if self.candidates[idx].key in self._proposed:
                self._state.exclude(idx)
                continue
            self._state.select(idx)
            self._state.exclude(idx)
            picks.append(self.candidates[idx])
        return picks


class SuccessiveHalvingSampler(Sampler):
    """Successive halving over a declared fidelity axis.

    The fidelity axis (``runs``, ``samples``, ``iterations`` — any axis
    whose values order cheap to expensive) splits the space into
    *configurations* (all other parameters) × *rungs* (fidelity values).
    Rung 0 proposes every configuration at the cheapest fidelity; each
    later rung keeps the best ``1/eta`` of the previous rung's survivors
    by the objective and re-proposes them one fidelity step up.  The
    effect: the full breadth of the space is screened at minimum cost and
    the evaluation budget concentrates on the configurations that keep
    winning.
    """

    name = "halving"

    def __init__(
        self,
        space,
        seed: int = 0,
        fidelity: str | None = None,
        eta: float = 3.0,
        **kwargs,
    ):
        super().__init__(space, seed, **kwargs)
        if self.objectives:
            raise ValueError(
                "successive halving is single-objective; pass objective="
            )
        if self.objective is None:
            raise ValueError("successive halving needs objective=")
        if not fidelity:
            raise ValueError(
                "successive halving needs fidelity= (the axis ordered "
                "cheap to expensive)"
            )
        if eta <= 1.0:
            raise ValueError("eta must be > 1")
        self.fidelity = fidelity
        self.eta = float(eta)
        if isinstance(space, DesignSpace):
            rung_values = list(space.axis(fidelity).values)
        else:
            seen: dict[str, Any] = {}
            for p in self.candidates:
                if fidelity in p:
                    seen.setdefault(
                        DesignPoint({fidelity: p[fidelity]}).key, p[fidelity]
                    )
            rung_values = list(seen.values())
        if not rung_values:
            raise ValueError(f"no candidate carries the axis {fidelity!r}")
        self._rungs = rung_values
        # configuration key -> {rung index -> candidate index}
        self._configs: dict[str, dict[int, int]] = {}
        rung_of = {
            DesignPoint({fidelity: v}).key: r
            for r, v in enumerate(rung_values)
        }
        for idx, point in enumerate(self.candidates):
            if fidelity not in point:
                continue
            rung = rung_of.get(DesignPoint({fidelity: point[fidelity]}).key)
            if rung is None:
                continue
            config = DesignPoint({
                k: v for k, v in point.items() if k != fidelity
            }).key
            self._configs.setdefault(config, {})[rung] = idx
        self._rung = 0
        cohort = [c for c, by in self._configs.items() if 0 in by]
        self.rng.shuffle(cohort)  # seeded tie-neutral rung-0 order
        self._cohort = cohort
        self._queue: list[int] = [self._configs[c][0] for c in cohort]
        self._pending: set[str] = set()  # point keys awaiting observation
        self._scores: dict[int, dict[str, float]] = {}  # rung -> config -> y

    def _note(self, observation: Observation) -> None:
        key = observation.point.key
        self._pending.discard(key)
        idx = self._index.get(key)
        if idx is None:
            return
        point = self.candidates[idx]
        if self.fidelity not in point:
            return
        rung_key = DesignPoint({self.fidelity: point[self.fidelity]}).key
        rung = {
            DesignPoint({self.fidelity: v}).key: r
            for r, v in enumerate(self._rungs)
        }.get(rung_key)
        if rung is None:
            return
        value = observation.value(self.objective)
        if value is None:
            return
        config = DesignPoint({
            k: v for k, v in point.items() if k != self.fidelity
        }).key
        self._scores.setdefault(rung, {})[config] = (
            self._sign(self.objective) * value
        )

    def _advance(self) -> None:
        """Promote the best 1/eta of the finished rung to the next one."""
        scores = self._scores.get(self._rung, {})
        ranked = sorted(
            (c for c in self._cohort if c in scores),
            key=lambda c: (scores[c], self._cohort.index(c)),
        )
        if not ranked or self._rung + 1 >= len(self._rungs):
            self._cohort = []
            return
        keep = max(1, math.ceil(len(ranked) / self.eta))
        self._rung += 1
        self._cohort = ranked[:keep]
        self._queue = [
            self._configs[c][self._rung]
            for c in self._cohort
            if self._rung in self._configs[c]
        ]

    def _pick(self, batch: int) -> list[DesignPoint]:
        picks: list[DesignPoint] = []
        while len(picks) < batch:
            while not self._queue:
                if self._pending:
                    # The rung is in flight; hand back what we have and
                    # wait for observe() before promoting survivors.
                    return picks
                if not self._cohort:
                    return picks
                self._advance()
                if not self._cohort:
                    return picks
            idx = self._queue.pop(0)
            point = self.candidates[idx]
            if point.key in self._proposed:
                continue
            self._pending.add(point.key)
            picks.append(point)
        return picks


class SurrogateSampler(Sampler):
    """Surrogate-guided active search with an exploit/explore acquisition.

    Until ``warmup`` observations carry a usable objective the sampler
    space-fills (greedy maximin, like ``stratified``).  After that, every
    batch fits the k-NN + linear ensemble per objective on the encoded
    observations and splits the batch:

    * **exploit** (``1 - explore`` of the batch): the unproposed
      candidates with the best predicted objective — in Pareto mode, the
      best under seeded rotating weighted-sum scalarisations, which
      spreads the exploit picks across the predicted front;
    * **explore** (the rest): the candidates with the largest uncertainty
      — surrogate disagreement plus distance to the nearest observation —
      which is where another sample most improves the model.

    The linear model is refit per batch; the candidates' nearest
    observations are kept across batches (:class:`NearestNeighbours`, one
    state for every objective) and merged exactly, so the proposal
    sequence is the same pure function of the observations fed back as a
    refit from scratch.
    """

    name = "surrogate"

    def __init__(
        self,
        space,
        seed: int = 0,
        explore: float = 0.34,
        warmup: int | None = None,
        k: int = 5,
        ridge: float = 1e-6,
        **kwargs,
    ):
        super().__init__(space, seed, **kwargs)
        if self.objective is None and not self.objectives:
            raise ValueError(
                "surrogate sampling needs objective= (or objectives= for "
                "Pareto mode)"
            )
        if not 0.0 <= explore <= 1.0:
            raise ValueError("explore must be within [0, 1]")
        self.explore = float(explore)
        self._encoder = SpaceEncoder(self.candidates)
        self._encoded = self._encoder.encode_many(self.candidates)
        if warmup is None:
            warmup = max(2 * self._encoder.dimensions + 2, 4)
        self.warmup = int(warmup)
        self._filler = _MaximinState(self._encoded.copy())
        self._filler_first = self.rng.randrange(len(self.candidates))
        self._filler_started = False
        self._neighbours = NearestNeighbours(self._encoded, k)
        self._linear = LinearSurrogate(ridge)
        # Usable observations only ever append (observations are never
        # retracted), so they are sorted out once, as they arrive.
        self._usable: list[tuple[int, tuple[float, ...]]] = []
        self._scanned = 0

    # ------------------------------------------------------------- plumbing

    @property
    def _objective_names(self) -> tuple[str, ...]:
        return self.objectives if self.objectives else (self.objective,)

    def _note(self, observation: Observation) -> None:
        idx = self._index.get(observation.point.key)
        if idx is not None:
            self._filler.select(idx)
            self._filler.exclude(idx)
            self._filler_started = True

    def _absorb(self) -> list[tuple[int, tuple[float, ...]]]:
        """Observations that are in-space and carry every objective, as
        ``(candidate index, sign-normalised values)`` in arrival order."""
        for obs in self.observations[self._scanned:]:
            idx = self._index.get(obs.point.key)
            if idx is None:
                continue
            values = []
            for name in self._objective_names:
                value = obs.value(name)
                if value is None:
                    break
                values.append(self._sign(name) * value)
            else:
                self._usable.append((idx, tuple(values)))
        self._scanned = len(self.observations)
        return self._usable

    # ------------------------------------------------------------ proposing

    def _fill_pick(self) -> int | None:
        """One space-filling pick (warmup path)."""
        if not self._filler_started:
            self._filler_started = True
            idx = self._filler_first
            if self.candidates[idx].key not in self._proposed:
                return idx
        while True:
            idx = self._filler.farthest()
            if self._filler.min_dist[idx] == -np.inf:
                return None
            if self.candidates[idx].key in self._proposed:
                self._filler.exclude(idx)
                continue
            return idx

    def _pick(self, batch: int) -> list[DesignPoint]:
        picks: list[int] = []
        usable = self._absorb()
        if len(usable) < self.warmup:
            while len(picks) < batch:
                idx = self._fill_pick()
                if idx is None:
                    break
                self._filler.select(idx)
                self._filler.exclude(idx)
                picks.append(idx)
            return [self.candidates[i] for i in picks]

        unproposed = self._unproposed()
        if not unproposed:
            return []
        rows = np.array([idx for idx, _ in usable])
        X = self._encoded[rows]
        positions = np.array(unproposed)
        U = self._encoded[positions]
        self._neighbours.extend(X[self._neighbours.references:])

        # One ensemble per objective, all on sign-normalised ("smaller is
        # better") targets.
        predictions = np.empty((len(self._objective_names), len(unproposed)))
        spread = np.zeros(len(unproposed))
        for j in range(len(self._objective_names)):
            y = np.array([values[j] for _, values in usable])
            predictions[j], disagreement = mean_and_spread([
                self._neighbours.predict(y, positions),
                self._linear.fit(X, y).predict(U),
            ])
            scale = float(np.std(y)) or 1.0
            spread += disagreement / scale

        # Distance to the nearest observation, from the maximin state —
        # candidates in unexplored territory get an exploration bonus even
        # where the two surrogates happen to agree.
        distance = self._filler.min_dist[positions]
        distance = np.where(np.isfinite(distance), distance, 0.0)
        uncertainty = spread + distance

        n_explore = int(round(batch * self.explore))
        n_exploit = batch - n_explore
        chosen: list[int] = []
        taken = np.zeros(len(unproposed), dtype=bool)

        if len(self._objective_names) == 1:
            # A slice of the exploit half refines the incumbent: surrogate
            # smoothing can hold the predicted minimum one grid step off
            # the true one indefinitely, so the endgame must be an explicit
            # hill climb.  The neighbourhood is *coordinate-wise* — every
            # unproposed candidate differing from the best observation in
            # exactly one parameter — not a Euclidean ball: on a noise/seed
            # axis with few values one step is half the encoded cube, and a
            # distance ball would sweep hundreds of nearby grid points
            # before ever varying it.  Ties inside the neighbourhood break
            # by predicted value, then candidate order.
            n_local = max(1, n_exploit // 4) if n_exploit else 0
            best_row = rows[int(np.argmin([v[0] for _, v in usable]))]
            differences = self._encoder.differences(best_row)[positions]
            neighbour_positions = np.flatnonzero(differences == 1)
            neighbour_positions = neighbour_positions[np.argsort(
                predictions[0][neighbour_positions], kind="stable"
            )]
            for pos in neighbour_positions[:n_local]:
                taken[pos] = True
                chosen.append(unproposed[pos])
            exploit_order = np.argsort(predictions[0], kind="stable")
            for pos in exploit_order:
                if len(chosen) >= n_exploit:
                    break
                if taken[pos]:
                    continue
                taken[pos] = True
                chosen.append(unproposed[pos])
        else:
            # Pareto mode: rotating seeded weighted sums spread the
            # exploit picks across the predicted front.
            for _ in range(n_exploit):
                raw = [self.rng.random() for _ in self._objective_names]
                total = sum(raw) or 1.0
                w = np.array(raw) / total
                scores = w @ predictions
                scores = np.where(taken, np.inf, scores)
                pos = int(np.argmin(scores))
                if not np.isfinite(scores[pos]):
                    break
                taken[pos] = True
                chosen.append(unproposed[pos])

        explore_order = np.argsort(-uncertainty, kind="stable")
        for pos in explore_order:
            if len(chosen) >= batch:
                break
            if not taken[pos]:
                taken[pos] = True
                chosen.append(unproposed[pos])

        for idx in chosen:
            self._filler.select(idx)
            self._filler.exclude(idx)
        return [self.candidates[i] for i in chosen]


#: Strategy registry: the names the CLI, plans, and suite specs accept.
SAMPLERS: dict[str, type[Sampler]] = {
    RandomSampler.name: RandomSampler,
    StratifiedSampler.name: StratifiedSampler,
    SuccessiveHalvingSampler.name: SuccessiveHalvingSampler,
    SurrogateSampler.name: SurrogateSampler,
}

#: Friendly aliases.
SAMPLER_ALIASES = {"lhs": "stratified", "active": "surrogate"}


def make_sampler(
    strategy: str,
    space: DesignSpace | Sequence[DesignPoint],
    seed: int = 0,
    **options,
) -> Sampler:
    """Resolve a strategy name (or alias) into a configured sampler."""
    name = SAMPLER_ALIASES.get(strategy, strategy)
    try:
        cls = SAMPLERS[name]
    except KeyError:
        known = ", ".join(sorted([*SAMPLERS, *SAMPLER_ALIASES]))
        raise ValueError(
            f"unknown sampling strategy {strategy!r} (known: {known})"
        ) from None
    return cls(space, seed=seed, **options)
