"""Tests for the 9-point stencil extension kernel (§9.2.3)."""

import numpy as np
import pytest

from repro.cluster.presets import xeon_8x2x4_params
from repro.kernels import STENCIL5, STENCIL9
from repro.machine.compute import steady_rate_flops


class TestStencil9:
    def test_weights_sum_to_one(self):
        """A constant field is a fixed point of the averaging sweep."""
        u = np.full((6, 6), 3.0)
        out = np.zeros_like(u)
        STENCIL9.run((u, out))
        np.testing.assert_allclose(out[1:-1, 1:-1], 3.0)

    def test_corners_contribute(self):
        """Unlike the 5-point kernel, diagonal neighbours matter."""
        u = np.zeros((4, 4))
        u[0, 0] = 16.0  # diagonal neighbour of interior cell (1, 1)
        out5 = np.zeros_like(u)
        out9 = np.zeros_like(u)
        STENCIL5.run((u, out5))
        STENCIL9.run((u, out9))
        assert out5[1, 1] == 0.0
        assert out9[1, 1] == pytest.approx(1.0)  # 16 * 0.0625

    def test_higher_flop_density_than_5_point(self):
        assert STENCIL9.flops_per_element > 2 * STENCIL5.flops_per_element
        assert (STENCIL9.read_bytes_per_element,
                STENCIL9.write_bytes_per_element) == (
            STENCIL5.read_bytes_per_element, STENCIL5.write_bytes_per_element)

    def test_sustained_rate_higher(self):
        """Same traffic, more flops: the 9-point kernel sustains a higher
        flop rate at any footprint — another datapoint against scalar
        processor ratings."""
        core = xeon_8x2x4_params().core
        for footprint in (16 * 1024, 64 << 20):
            assert steady_rate_flops(STENCIL9, core, footprint) > steady_rate_flops(
                STENCIL5, core, footprint
            )

    def test_registered(self):
        from repro.kernels import DEFAULT_REGISTRY

        assert "stencil9" in DEFAULT_REGISTRY
