"""Unit tests for kernel descriptors and their NumPy bodies."""

import numpy as np
import pytest

from repro.kernels import (
    BLAS_L1_KERNELS,
    DAXPY,
    DEFAULT_REGISTRY,
    DOT_PRODUCT,
    SAXPY,
    SCOPY,
    SDOT,
    SSWAP,
    STENCIL5,
    VSUB,
    get_kernel,
    kernel_names,
)
from repro.kernels.base import Kernel, KernelRegistry


class TestDaxpy:
    def test_apply_matches_numpy(self):
        a, x, y = DAXPY.operands(128)
        expected = y + a * x
        result = DAXPY.run((a, x.copy(), y.copy()))
        np.testing.assert_allclose(result, expected)

    def test_memory_use(self):
        assert DAXPY.memory_use(1024) == 1024 * 2 * 8

    def test_flops(self):
        assert DAXPY.flops(100) == 200


class TestVsub:
    def test_apply(self):
        x = np.ones(8)
        y = np.full(8, 3.0)
        out = VSUB.run((x, y))
        np.testing.assert_allclose(out, 2.0)


class TestDotProduct:
    def test_apply(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0])
        assert DOT_PRODUCT.run((x, y)) == pytest.approx(11.0)


class TestStencil5:
    def test_square_requirement(self):
        with pytest.raises(ValueError, match="square"):
            STENCIL5.operands(1000)

    def test_apply_averages_neighbours(self):
        u = np.zeros((4, 4))
        u[1, 2] = 4.0
        out = np.zeros_like(u)
        result = STENCIL5.run((u, out))
        # The neighbour below (2,2) sees u[1,2] through its north stencil arm.
        assert result[2, 2] == pytest.approx(1.0)
        assert result[1, 1] == pytest.approx(1.0)

    def test_interior_only_written(self):
        u, out = STENCIL5.operands(16)
        STENCIL5.run((u, out))
        assert (out[0, :] == 0).all() and (out[-1, :] == 0).all()
        assert (out[:, 0] == 0).all() and (out[:, -1] == 0).all()


class TestBlasKernels:
    def test_all_eight_present(self):
        names = {k.name for k in BLAS_L1_KERNELS}
        assert names == {
            "sswap", "sscal", "scopy", "saxpy", "sdot", "snrm2", "sasum", "isamax",
        }

    def test_single_precision(self):
        for kernel in BLAS_L1_KERNELS:
            assert kernel.dtype == np.float32

    def test_sswap_swaps(self):
        x = np.arange(4, dtype=np.float32)
        y = np.arange(4, 8, dtype=np.float32)
        SSWAP.run((x, y))
        np.testing.assert_array_equal(x, np.arange(4, 8, dtype=np.float32))
        np.testing.assert_array_equal(y, np.arange(4, dtype=np.float32))

    def test_scopy_copies(self):
        x = np.arange(4, dtype=np.float32)
        y = np.zeros(4, dtype=np.float32)
        SCOPY.run((x, y))
        np.testing.assert_array_equal(x, y)

    def test_sdot_value(self):
        x = np.ones(8, dtype=np.float32)
        y = np.full(8, 2.0, dtype=np.float32)
        assert SDOT.run((x, y)) == pytest.approx(16.0)

    def test_saxpy_in_place(self):
        a = np.float32(2.0)
        x = np.ones(4, dtype=np.float32)
        y = np.zeros(4, dtype=np.float32)
        SAXPY.run((a, x, y))
        np.testing.assert_allclose(y, 2.0)

    def test_memory_use_scalar_vs_vector_factor(self):
        """§4.2: sscal touches half the bytes of saxpy at equal n."""
        assert get_kernel("sscal").memory_use(100) * 2 == get_kernel(
            "saxpy"
        ).memory_use(100)


class TestRegistry:
    def test_default_registry_contents(self):
        # 5 numeric + 8 L1 BLAS + 2 L2 BLAS kernels.
        assert len(DEFAULT_REGISTRY) == 15
        assert "daxpy" in DEFAULT_REGISTRY
        assert "stencil5" in DEFAULT_REGISTRY
        assert "stencil9" in DEFAULT_REGISTRY
        assert "dgemv" in DEFAULT_REGISTRY

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            get_kernel("nope")

    def test_names_sorted(self):
        names = kernel_names()
        assert names == sorted(names)

    def test_duplicate_registration_rejected(self):
        reg = KernelRegistry()
        reg.register(DAXPY)
        with pytest.raises(ValueError, match="already"):
            reg.register(DAXPY)


class TestKernelValidation:
    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            Kernel(
                name="bad",
                flops_per_element=-1.0,
                read_bytes_per_element=0.0,
                write_bytes_per_element=0.0,
                operand_arrays=1,
                dtype=np.dtype(np.float64),
                make_operands=lambda n, rng: (np.zeros(n),),
                apply=lambda ops: None,
            )

    def test_operands_requires_positive_n(self):
        with pytest.raises(ValueError):
            DAXPY.operands(0)

    def test_memory_use_rejects_negative(self):
        with pytest.raises(ValueError):
            DAXPY.memory_use(-1)
