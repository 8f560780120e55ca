"""Unit tests for the kernel-rate benchmark framework (§4.1)."""

import numpy as np
import pytest

from repro.bench.kernel_bench import (
    benchmark_kernel,
    extrapolate_with_rate,
    validate_profile,
)
from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.kernels import DAXPY, STENCIL5
from repro.machine import SimMachine

FAST_COUNTS = tuple(2**k for k in range(1, 9))


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=61
    )


@pytest.fixture(scope="module")
def quiet_machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(),
        presets.xeon_8x2x4_params(),
        noise=QUIET,
        seed=62,
    )


class TestProfileExtraction:
    def test_quiet_gradient_matches_truth(self, quiet_machine):
        profile = benchmark_kernel(
            quiet_machine, 0, DAXPY, 1024,
            iteration_counts=FAST_COUNTS, samples=5,
        )
        truth = quiet_machine.kernel_time_clean(0, DAXPY, 1024, reps=1)
        assert profile.seconds_per_application == pytest.approx(truth, rel=1e-9)

    def test_rate_near_calibration(self, machine):
        """In-cache DAXPY on the Xeon preset sustains ~1 Gflop/s (Tab 3.1)."""
        profile = benchmark_kernel(
            machine, 0, DAXPY, 1024, iteration_counts=FAST_COUNTS, samples=12
        )
        assert 0.6e9 < profile.rate_flops < 1.6e9

    def test_kernel_rates_differ(self, machine):
        """§4.1's central observation: per-kernel rates are not exchangeable
        (both kernels run 1024 elements per application)."""
        daxpy = benchmark_kernel(
            machine, 0, DAXPY, 1024, iteration_counts=FAST_COUNTS, samples=12
        )
        stencil = benchmark_kernel(
            machine, 0, STENCIL5, 1024, iteration_counts=FAST_COUNTS, samples=12
        )
        assert daxpy.seconds_per_application != pytest.approx(
            stencil.seconds_per_application, rel=0.05
        )

    def test_validation_errors(self, machine):
        with pytest.raises(ValueError):
            benchmark_kernel(machine, 0, DAXPY, 0)
        with pytest.raises(ValueError):
            benchmark_kernel(machine, 0, DAXPY, 64, iteration_counts=(2,))


class TestExtrapolation:
    def test_bounded_relative_error(self, machine):
        """Fig. 4.4: kernel-specific extrapolation stays within bounded
        relative error across orders of magnitude."""
        profile = benchmark_kernel(
            machine, 0, DAXPY, 1024, iteration_counts=FAST_COUNTS, samples=12
        )
        points = validate_profile(
            machine, 0, DAXPY, profile,
            application_counts=(16, 256, 4096, 65536),
        )
        for point in points:
            assert point.relative_error < 0.6

    def test_cross_kernel_extrapolation_worse(self, machine):
        """Fig. 4.3: predicting the stencil from the DAXPY Mflop/s rate is
        worse than its own profile."""
        daxpy = benchmark_kernel(
            machine, 0, DAXPY, 1024, iteration_counts=FAST_COUNTS, samples=12
        )
        stencil = benchmark_kernel(
            machine, 0, STENCIL5, 1024, iteration_counts=FAST_COUNTS, samples=12
        )
        apps = 4096
        truth = machine.kernel_time_clean(0, STENCIL5, 1024, reps=apps)
        own = float(stencil.predict_seconds(apps))
        naive = float(
            extrapolate_with_rate(daxpy.rate_flops, STENCIL5, 1024, apps)
        )
        assert abs(own - truth) < abs(naive - truth)

    def test_extrapolate_with_rate_validation(self):
        with pytest.raises(ValueError):
            extrapolate_with_rate(0.0, DAXPY, 10, 1)


class TestProfileHelpers:
    def test_predict_seconds_linear(self, quiet_machine):
        profile = benchmark_kernel(
            quiet_machine, 0, DAXPY, 128, iteration_counts=FAST_COUNTS, samples=5
        )
        one = float(profile.predict_seconds(1))
        ten = float(profile.predict_seconds(10))
        assert ten - one == pytest.approx(
            9 * profile.seconds_per_application, rel=1e-9
        )

    def test_zero_flop_rate(self, quiet_machine):
        from repro.kernels import SCOPY

        profile = benchmark_kernel(
            quiet_machine, 0, SCOPY, 128, iteration_counts=FAST_COUNTS, samples=5
        )
        assert profile.rate_flops == 0.0
