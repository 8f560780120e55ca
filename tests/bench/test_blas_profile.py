"""Unit tests for the L1 BLAS footprint sweep (§4.2)."""

import numpy as np
import pytest

from repro.bench.blas_profile import (
    beyond_cache_sizes,
    in_cache_sizes,
    sweep_kernel,
)
from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.kernels import BLAS_L1_KERNELS, SAXPY, SDOT, SSCAL
from repro.machine import SimMachine

L1 = 64 * 1024  # Athlon X2 level-1 capacity


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.athlon_x2_topology(), presets.athlon_x2_params(), seed=71
    )


@pytest.fixture(scope="module")
def quiet_machine():
    return SimMachine(
        presets.athlon_x2_topology(),
        presets.athlon_x2_params(),
        noise=QUIET,
        seed=72,
    )


class TestSizeHelpers:
    def test_in_cache_sizes_respect_l1(self):
        for kernel in (SSCAL, SAXPY):
            for n in in_cache_sizes(kernel, L1):
                assert kernel.memory_use(n) <= L1

    def test_beyond_cache_exceeds_l1(self):
        sizes = beyond_cache_sizes(SAXPY, 8 * L1)
        assert max(SAXPY.memory_use(n) for n in sizes) > L1

    def test_too_small_cache_rejected(self):
        with pytest.raises(ValueError):
            in_cache_sizes(SAXPY, 32, points=16)


class TestInCacheLinearity:
    def test_fig_4_5_linear_time(self, quiet_machine):
        """In-cache: time grows linearly with memory use."""
        sweep = sweep_kernel(
            quiet_machine, 0, SAXPY, in_cache_sizes(SAXPY, L1), batch=3
        )
        mem = sweep.memory_axis()
        t = sweep.time_axis()
        fit = np.polyfit(mem, t, 1)
        residual = t - np.polyval(fit, mem)
        assert np.abs(residual).max() < 0.02 * t.max()

    def test_kernels_have_distinct_gradients(self, quiet_machine):
        """§4.2: a single 'rate' mispredicts across kernels even in-cache."""
        sizes = in_cache_sizes(SAXPY, L1)
        saxpy = sweep_kernel(quiet_machine, 0, SAXPY, sizes, batch=3)
        sdot = sweep_kernel(quiet_machine, 0, SDOT, sizes, batch=3)
        g_saxpy = saxpy.gradient_between(0, L1)
        g_sdot = sdot.gradient_between(0, L1)
        assert g_saxpy != pytest.approx(g_sdot, rel=0.05)


class TestBeyondCacheKnee:
    def test_fig_4_6_gradient_break(self, quiet_machine):
        """Past the 64K L1 boundary the seconds-per-byte gradient jumps."""
        sizes = beyond_cache_sizes(SAXPY, 8 * L1, points=32)
        sweep = sweep_kernel(quiet_machine, 0, SAXPY, sizes, batch=3)
        inside = sweep.gradient_between(0, L1)
        outside = sweep.gradient_between(2 * L1, 8 * L1)
        assert outside > 1.3 * inside

    def test_window_needs_points(self, quiet_machine):
        sweep = sweep_kernel(quiet_machine, 0, SAXPY, [64, 128], batch=3)
        with pytest.raises(ValueError):
            sweep.gradient_between(10**9, 2 * 10**9)


class TestSweepHarness:
    def test_all_eight_kernels(self, machine):
        assert len(BLAS_L1_KERNELS) == 8
        for kernel in BLAS_L1_KERNELS:
            sweep = sweep_kernel(machine, 0, kernel, [1024, 4096], batch=5)
            assert len(sweep.points) == 2
            assert all(p.median_seconds > 0 for p in sweep.points)

    def test_memory_use_metric(self, machine):
        sweep = sweep_kernel(machine, 0, SSCAL, [1000], batch=3)
        assert sweep.points[0].memory_use_bytes == 1000 * 4

    def test_batch_validation(self, machine):
        with pytest.raises(ValueError):
            sweep_kernel(machine, 0, SSCAL, [10], batch=1)
