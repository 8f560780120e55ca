"""Tests for the Level-2/3 BLAS extension kernels."""

import numpy as np
import pytest

from repro.cluster.presets import xeon_8x2x4_params
from repro.kernels import DGEMV, DGER, dgemm_panel
from repro.machine.compute import steady_rate_flops, time_per_element


class TestDgemv:
    def test_apply_matches_numpy(self):
        a, x, y = DGEMV.operands(64)
        expected = y + a @ x
        result = DGEMV.run((a, x, y.copy()))
        np.testing.assert_allclose(result, expected)

    def test_square_requirement(self):
        with pytest.raises(ValueError, match="square"):
            DGEMV.operands(60)

    def test_flops_per_a_element(self):
        assert DGEMV.flops(100) == 200.0


class TestDger:
    def test_apply_matches_numpy(self):
        a, x, y = DGER.operands(64)
        expected = a + np.outer(x, y)
        result = DGER.run((a.copy(), x, y))
        np.testing.assert_allclose(result, expected)

    def test_write_traffic_modelled(self):
        assert DGER.write_bytes_per_element == 8.0
        assert DGEMV.write_bytes_per_element == 0.0


class TestDgemmPanel:
    def test_apply_matches_numpy(self):
        kernel = dgemm_panel(4)
        a, b, c = kernel.operands(64)
        expected = c + a @ b
        result = kernel.run((a, b, c.copy()))
        np.testing.assert_allclose(result, expected)

    def test_intensity_scales_with_panel(self):
        assert dgemm_panel(8).flops_per_element == 4 * dgemm_panel(2).flops_per_element

    def test_invalid_panel(self):
        with pytest.raises(ValueError):
            dgemm_panel(0)

    def test_name_encodes_panel(self):
        assert dgemm_panel(16).name == "dgemm-p16"


class TestIntensityBehaviour:
    def test_wide_panels_become_compute_bound(self):
        """§4.2's point, carried to Level 3: once intensity is high enough
        the rate stops depending on the memory level — the footprint knee
        vanishes."""
        core = xeon_8x2x4_params().core
        in_cache = 16 * 1024
        in_ram = 64 << 20
        # dgemv (intensity 2 flops / 8 bytes): big footprint penalty.
        slow_ratio = time_per_element(DGEMV, core, in_ram) / time_per_element(
            DGEMV, core, in_cache
        )
        # dgemm with a wide panel: penalty nearly gone.
        wide = dgemm_panel(64)
        flat_ratio = time_per_element(wide, core, in_ram) / time_per_element(
            wide, core, in_cache
        )
        assert slow_ratio > 1.5
        assert flat_ratio < 1.1

    def test_rate_approaches_peak_with_intensity(self):
        core = xeon_8x2x4_params().core
        rate = steady_rate_flops(dgemm_panel(64), core, 64 << 20)
        assert rate > 0.8 * core.flop_rate

    def test_registry_contains_l2(self):
        from repro.kernels import DEFAULT_REGISTRY

        assert "dgemv" in DEFAULT_REGISTRY
        assert "dger" in DEFAULT_REGISTRY
