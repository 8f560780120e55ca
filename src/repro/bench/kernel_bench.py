"""Kernel-rate benchmark framework (§4.1).

Reproduces the thesis's isolation procedure for computational rate:

* iteration counts grow in powers of two from 2 through 2^12;
* each count collects 30 samples of the run's total time;
* outlier runs are re-collected until the batch sits inside a 95%
  Student-t interval;
* the rate is the gradient of the least-square-error regression line
  through the distribution means;
* the profile is validated by extrapolating to runs orders of magnitude
  longer and recording the relative error (Figs. 4.3-4.4).

The benchmark observes only noisy timings from the machine; the resulting
:class:`KernelProfile` entries are the cost-matrix inputs of the Chapter 3
framework.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.sampling import collect_filtered
from repro.bench.stats import RegressionLine, linear_regression
from repro.kernels.base import Kernel
from repro.machine.simmachine import SimMachine
from repro.util.validation import require_int

DEFAULT_ITERATION_COUNTS = tuple(2**k for k in range(1, 13))


@dataclass(frozen=True)
class KernelProfile:
    """Benchmarked execution profile of one kernel at one problem size."""

    kernel_name: str
    n: int  # elements per application
    flops_per_application: float
    seconds_per_application: float  # regression gradient
    startup_seconds: float  # regression intercept
    line: RegressionLine
    iteration_counts: tuple[int, ...]
    mean_times: tuple[float, ...]
    total_reruns: int

    def predict_seconds(self, applications) -> np.ndarray:
        """Predicted total time for a run of ``applications`` kernel calls."""
        return self.line.predict(np.asarray(applications, dtype=float))

    @property
    def rate_flops(self) -> float:
        """Sustained flop/s implied by the profile (0 for flop-free kernels)."""
        if self.seconds_per_application <= 0.0:
            return 0.0
        return self.flops_per_application / self.seconds_per_application

    @property
    def seconds_per_element(self) -> float:
        return self.seconds_per_application / self.n

    def seconds_per_byte(self, kernel: Kernel) -> float:
        """Cost per byte of the kernel's memory-use metric — the unit used
        by the Chapter 3 cost matrices when requirements are in bytes."""
        return self.seconds_per_application / kernel.memory_use(self.n)


def benchmark_kernel(
    machine: SimMachine,
    core: int,
    kernel: Kernel,
    n: int,
    iteration_counts: tuple[int, ...] = DEFAULT_ITERATION_COUNTS,
    samples: int = 30,
) -> KernelProfile:
    """Profile one kernel at a fixed problem size on one core."""
    n = require_int(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(iteration_counts) < 2:
        raise ValueError("need at least two iteration counts for regression")
    rng = machine.rng("kernel-bench", kernel.name, core, n)
    means: list[float] = []
    reruns = 0
    for count in iteration_counts:
        def draw(k: int, _count=count) -> np.ndarray:
            return np.array(
                [machine.kernel_time(core, kernel, n, reps=_count, rng=rng)
                 for _ in range(k)]
            )

        batch = collect_filtered(draw, count=samples)
        means.append(batch.mean)
        reruns += batch.reruns
    line = linear_regression(np.asarray(iteration_counts, dtype=float), means)
    return KernelProfile(
        kernel_name=kernel.name,
        n=n,
        flops_per_application=kernel.flops(n),
        seconds_per_application=line.gradient,
        startup_seconds=line.intercept,
        line=line,
        iteration_counts=tuple(int(c) for c in iteration_counts),
        mean_times=tuple(means),
        total_reruns=reruns,
    )


@dataclass(frozen=True)
class ValidationPoint:
    """One extrapolation check of a profile (a Fig. 4.3/4.4 data point)."""

    applications: int
    measured_seconds: float
    predicted_seconds: float

    @property
    def relative_error(self) -> float:
        if self.measured_seconds == 0.0:
            return 0.0
        return abs(self.predicted_seconds - self.measured_seconds) / self.measured_seconds


def validate_profile(
    machine: SimMachine,
    core: int,
    kernel: Kernel,
    profile: KernelProfile,
    application_counts=None,
) -> list[ValidationPoint]:
    """Compare profile extrapolations against long measured runs."""
    if application_counts is None:
        application_counts = tuple(4**k for k in range(0, 13))  # 1 .. 2^24
    rng = machine.rng("kernel-validate", kernel.name, core, profile.n)
    points = []
    for count in application_counts:
        measured = machine.kernel_time(core, kernel, profile.n, reps=count, rng=rng)
        predicted = float(profile.predict_seconds(count))
        points.append(ValidationPoint(count, measured, predicted))
    return points


def extrapolate_with_rate(
    rate_flops: float, kernel: Kernel, n: int, applications
) -> np.ndarray:
    """The naive prediction Fig. 4.3 labels "Mflops": divide the kernel's
    flop count by a rate measured on a *different* kernel."""
    if rate_flops <= 0:
        raise ValueError("rate_flops must be > 0")
    applications = np.asarray(applications, dtype=float)
    return applications * kernel.flops(n) / rate_flops
