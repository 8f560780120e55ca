"""Surrogate-guided adaptive sampling for large design spaces.

Exhaustive campaigns (PRs 1-2) evaluate every point of a
:class:`~repro.explore.space.DesignSpace`; the spaces the thesis's
methodology invites (preset × pattern × nprocs × size × noise) explode
combinatorially.  This package evaluates only the points a *strategy*
asks for:

* :mod:`~repro.explore.adaptive.samplers`  — the ``Sampler`` protocol and
  the seeded-deterministic strategies (``random``, ``stratified``,
  ``halving``, ``surrogate`` — including a Pareto mode);
* :mod:`~repro.explore.adaptive.surrogate` — the k-NN + linear ensemble
  whose disagreement drives exploration, and the running nearest-neighbour
  state the sampler keeps across batches;
* :mod:`~repro.explore.adaptive.encoding`  — design points as vectors in
  the unit hypercube;
* :mod:`~repro.explore.adaptive.driver`    — :class:`AdaptiveCampaign`,
  the budgeted propose/evaluate/observe loop over the ordinary campaign
  executors and JSONL stores;
* :mod:`~repro.explore.adaptive.drift`     — :func:`localize_drift`,
  bisection of a failed golden check down to the offending axis region.

See ``docs/adaptive.md`` and ``examples/adaptive_barrier_space.py``.
"""

from repro.explore.adaptive.encoding import SpaceEncoder
from repro.explore.adaptive.surrogate import (
    LinearSurrogate,
    NearestNeighbours,
    NearestNeighbourSurrogate,
    SurrogateEnsemble,
)
from repro.explore.adaptive.samplers import (
    Observation,
    RandomSampler,
    SAMPLERS,
    Sampler,
    StratifiedSampler,
    SuccessiveHalvingSampler,
    SurrogateSampler,
    make_sampler,
)
from repro.explore.adaptive.driver import (
    AdaptiveCampaign,
    AdaptiveOutcome,
    AdaptivePlan,
    AdaptiveStats,
    run_adaptive,
)
from repro.explore.adaptive.drift import (
    DriftRegion,
    DriftReport,
    localize_drift,
)

__all__ = [
    "SpaceEncoder",
    "LinearSurrogate",
    "NearestNeighbours",
    "NearestNeighbourSurrogate",
    "SurrogateEnsemble",
    "Observation",
    "RandomSampler",
    "SAMPLERS",
    "Sampler",
    "StratifiedSampler",
    "SuccessiveHalvingSampler",
    "SurrogateSampler",
    "make_sampler",
    "AdaptiveCampaign",
    "AdaptiveOutcome",
    "AdaptivePlan",
    "AdaptiveStats",
    "run_adaptive",
    "DriftRegion",
    "DriftReport",
    "localize_drift",
]
