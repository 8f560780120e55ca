"""Declarative design-space exploration and experiment campaigns.

The exploration layer turns the repository's calibrated models into the
workflow the thesis argues for: ask cross-configuration questions (which
barrier pattern wins on which platform? how does the prediction error
scale?) as *data* — a design space and an experiment name — instead of
bespoke benchmark scripts.

* :mod:`repro.explore.space`       — ``ParamSpec`` / ``DesignSpace`` /
                                     ``DesignPoint`` with stable hashing
* :mod:`repro.explore.campaign`    — the resumable ``Campaign`` runner and
                                     its serial and worker-pool executors
* :mod:`repro.explore.cache`       — the append-only JSONL result cache
* :mod:`repro.explore.resilience`  — retry/timeout/backoff policy,
                                     poison-point quarantine, and the
                                     deterministic fault-injection
                                     harness
* :mod:`repro.explore.results`     — ``ResultSet`` queries: filter,
                                     group-by, rank, Pareto front
* :mod:`repro.explore.experiments` — the experiment registry and built-in
                                     thesis adapters
* :mod:`repro.explore.suites`      — figure/table suites: artifact
                                     rendering and shape claims over
                                     campaign results
* :mod:`repro.explore.golden`      — the golden-artifact regression store
* :mod:`repro.explore.figures`     — the thesis suite catalogue
* :mod:`repro.explore.adaptive`    — surrogate-guided adaptive sampling:
                                     seeded samplers, the budgeted
                                     ``AdaptiveCampaign`` driver, and
                                     golden-drift localisation
* :mod:`repro.explore.cli`         — ``python -m repro.explore``
"""

from repro.explore.space import ParamSpec, DesignPoint, DesignSpace, canonical_json
from repro.explore.cache import CorruptStoreWarning, ResultCache, record_key
from repro.explore.resilience import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    PoolBrokenError,
    RetryPolicy,
    read_quarantine,
)
from repro.explore.results import ResultRecord, ResultSet
from repro.explore.experiments import (
    EXPERIMENTS,
    PATTERN_FAMILIES,
    Experiment,
    get_experiment,
    register_experiment,
    run_point,
)
from repro.explore.campaign import (
    Campaign,
    CampaignOutcome,
    CampaignPointError,
    CampaignStats,
    ChunkedProcessPoolExecutor,
    PointFailure,
    PoolExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
    run_campaign,
)
from repro.explore.golden import (
    GoldenReport,
    Tolerance,
    check_golden,
    compare_artifacts,
    diff_rows,
    golden_path,
    load_golden,
    save_golden,
    update_golden,
)
from repro.explore.suites import (
    Claim,
    ClaimFailure,
    SeriesSpec,
    SuiteResult,
    SuiteSpec,
    get_suite,
    register_suite,
    run_suite,
    suite_names,
)
from repro.explore.adaptive import (
    AdaptiveCampaign,
    AdaptiveOutcome,
    AdaptivePlan,
    AdaptiveStats,
    DriftRegion,
    DriftReport,
    Observation,
    SAMPLERS,
    Sampler,
    SpaceEncoder,
    localize_drift,
    make_sampler,
    run_adaptive,
)

__all__ = [
    "ParamSpec",
    "DesignPoint",
    "DesignSpace",
    "canonical_json",
    "CorruptStoreWarning",
    "ResultCache",
    "record_key",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "PoolBrokenError",
    "RetryPolicy",
    "read_quarantine",
    "ResultRecord",
    "ResultSet",
    "EXPERIMENTS",
    "PATTERN_FAMILIES",
    "Experiment",
    "get_experiment",
    "register_experiment",
    "run_point",
    "Campaign",
    "CampaignOutcome",
    "CampaignPointError",
    "CampaignStats",
    "ChunkedProcessPoolExecutor",
    "PointFailure",
    "PoolExecutor",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "make_executor",
    "run_campaign",
    "GoldenReport",
    "Tolerance",
    "check_golden",
    "compare_artifacts",
    "golden_path",
    "load_golden",
    "save_golden",
    "update_golden",
    "Claim",
    "ClaimFailure",
    "SeriesSpec",
    "SuiteResult",
    "SuiteSpec",
    "get_suite",
    "register_suite",
    "run_suite",
    "suite_names",
    "diff_rows",
    "AdaptiveCampaign",
    "AdaptiveOutcome",
    "AdaptivePlan",
    "AdaptiveStats",
    "DriftRegion",
    "DriftReport",
    "Observation",
    "SAMPLERS",
    "Sampler",
    "SpaceEncoder",
    "localize_drift",
    "make_sampler",
    "run_adaptive",
]
