"""On-line barrier adaptivity (§9.2.2, implemented future work).

The thesis proposes letting the run-time system *re-profile and re-adapt*
as platform conditions drift (competing jobs, degraded links, migrations).
:class:`OnlineBarrierAdapter` implements the control loop:

1. adopt an initial adapted barrier from a platform profile,
2. on every new profile observation, re-evaluate the *current* pattern's
   predicted cost under the new parameters, and
3. when it has degraded beyond a configurable factor of the freshly
   re-adapted alternative, switch patterns (hysteresis keeps the switch
   from flapping on noise).

Profiles can come from full re-benchmarks or from cheap sampled-pair
updates merged into the previous matrices (EWMA smoothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adapt.greedy import AdaptedBarrier, greedy_adapt
from repro.barriers.cost_model import CommParameters, predict_barrier_cost
from repro.barriers.patterns import BarrierPattern
from repro.util.validation import require_in_range, require_positive


def merge_profiles(
    old: CommParameters,
    new: CommParameters,
    smoothing: float = 0.5,
) -> CommParameters:
    """EWMA merge of two profiles: ``smoothing`` weights the new one."""
    smoothing = require_in_range(smoothing, "smoothing", 0.0, 1.0)
    if old.nprocs != new.nprocs:
        raise ValueError("profiles describe different process counts")

    def mix(a, b):
        if a is None or b is None:
            return b if a is None else a
        return (1.0 - smoothing) * a + smoothing * b

    return CommParameters(
        overhead=mix(old.overhead, new.overhead),
        latency=mix(old.latency, new.latency),
        inv_bandwidth=mix(old.inv_bandwidth, new.inv_bandwidth),
    )


@dataclass
class AdaptationEvent:
    """One control-loop decision, kept for auditing."""

    observation: int
    current_cost: float
    switched: bool
    pattern_name: str


@dataclass
class OnlineBarrierAdapter:
    """Drift-aware barrier selection."""

    initial_profile: CommParameters
    switch_factor: float = 1.25  # re-adapt when current is this much worse
    smoothing: float = 0.5
    gap_ratio: float = 2.0
    _profile: CommParameters = field(init=False)
    _current: AdaptedBarrier = field(init=False)
    _events: list[AdaptationEvent] = field(init=False, default_factory=list)
    _observations: int = field(init=False, default=0)

    def __post_init__(self):
        require_positive(self.switch_factor, "switch_factor")
        if self.switch_factor < 1.0:
            raise ValueError("switch_factor must be >= 1")
        self._profile = self.initial_profile
        self._current = greedy_adapt(self.initial_profile, gap_ratio=self.gap_ratio)

    @property
    def pattern(self) -> BarrierPattern:
        return self._current.pattern

    @property
    def profile(self) -> CommParameters:
        return self._profile

    @property
    def events(self) -> list[AdaptationEvent]:
        return list(self._events)

    @property
    def switches(self) -> int:
        return sum(1 for e in self._events if e.switched)

    def observe(self, new_profile: CommParameters) -> BarrierPattern:
        """Fold a fresh profile into the running estimate and re-adapt if
        the current pattern has degraded past the hysteresis bound."""
        self._observations += 1
        self._profile = merge_profiles(
            self._profile, new_profile, smoothing=self.smoothing
        )
        current_cost = predict_barrier_cost(self.pattern, self._profile)
        candidate = greedy_adapt(self._profile, gap_ratio=self.gap_ratio)
        switched = current_cost > self.switch_factor * candidate.predicted_cost
        if switched:
            self._current = candidate
        self._events.append(
            AdaptationEvent(
                observation=self._observations,
                current_cost=current_cost,
                switched=switched,
                pattern_name=self.pattern.name,
            )
        )
        return self.pattern


def degrade_profile(
    profile: CommParameters,
    ranks,
    latency_factor: float = 10.0,
) -> CommParameters:
    """Synthetic drift: inflate the *external* links of ``ranks`` — the
    degraded-NIC scenario of the §9.2.2 discussion (traffic between two
    affected ranks on the same node does not cross the sick NIC, so links
    internal to the group keep their latency)."""
    require_positive(latency_factor, "latency_factor")
    latency = profile.latency.copy()
    affected = np.zeros(profile.nprocs, dtype=bool)
    affected[list(ranks)] = True
    crosses = affected[:, None] ^ affected[None, :]
    latency[crosses] *= latency_factor
    np.fill_diagonal(latency, 0.0)
    return CommParameters(
        overhead=profile.overhead,
        latency=latency,
        inv_bandwidth=profile.inv_bandwidth,
    )
