"""Benchmarking substrate: statistics, sampling, and platform profiling."""

from repro.bench.stats import (
    student_t_critical,
    outlier_mask,
    resample_outliers,
    RegressionLine,
    linear_regression,
    batched_regression,
    median,
)
from repro.bench.sampling import FilteredSample, collect_filtered
from repro.bench.comm_bench import (
    CommBenchReport,
    benchmark_comm,
    DEFAULT_SIZES,
    DEFAULT_REQUEST_COUNTS,
)
from repro.bench.kernel_bench import (
    KernelProfile,
    ValidationPoint,
    benchmark_kernel,
    validate_profile,
    extrapolate_with_rate,
    DEFAULT_ITERATION_COUNTS,
)
from repro.bench.blas_profile import (
    SweepPoint,
    KernelSweep,
    sweep_kernel,
    in_cache_sizes,
    beyond_cache_sizes,
)
from repro.bench.bspbench import (
    RatePoint,
    BSPBenchResult,
    run_bspbench,
    measure_rate_points,
    measure_h_relations,
)

__all__ = [
    "student_t_critical",
    "outlier_mask",
    "resample_outliers",
    "RegressionLine",
    "linear_regression",
    "batched_regression",
    "median",
    "FilteredSample",
    "collect_filtered",
    "CommBenchReport",
    "benchmark_comm",
    "DEFAULT_SIZES",
    "DEFAULT_REQUEST_COUNTS",
    "KernelProfile",
    "ValidationPoint",
    "benchmark_kernel",
    "validate_profile",
    "extrapolate_with_rate",
    "DEFAULT_ITERATION_COUNTS",
    "SweepPoint",
    "KernelSweep",
    "sweep_kernel",
    "in_cache_sizes",
    "beyond_cache_sizes",
    "RatePoint",
    "BSPBenchResult",
    "run_bspbench",
    "measure_rate_points",
    "measure_h_relations",
]
