"""Integration tests for the stencil implementations (§8.3-8.4)."""

import numpy as np
import pytest

from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.machine import SimMachine
from repro.stencil import (
    run_bsp_stencil,
    run_hybrid_stencil,
    run_mpi_r_stencil,
    run_mpi_stencil,
    serial_reference,
)


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=33
    )


@pytest.fixture(scope="module")
def quiet():
    """The same cluster with QUIET noise: noise-free runs."""
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
        noise=QUIET, seed=33,
    )


class TestBSPNumerics:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 6, 8])
    def test_matches_serial_reference(self, machine, nprocs):
        """The BSP implementation must be numerically identical to the
        serial Jacobi sweep for any decomposition."""
        rng = np.random.default_rng(7)
        n, iters = 16, 5
        initial = rng.standard_normal((n, n))
        reference = serial_reference(initial, iters)
        result = run_bsp_stencil(
            machine, nprocs, n, iters, initial=initial, label=f"num-{nprocs}"
        )
        np.testing.assert_allclose(result.field, reference, atol=1e-12)

    def test_zero_iterations(self, machine):
        rng = np.random.default_rng(8)
        initial = rng.standard_normal((12, 12))
        result = run_bsp_stencil(machine, 4, 12, 0, initial=initial, label="zero")
        np.testing.assert_allclose(result.field, initial)
        assert result.iteration_seconds.size == 0

    def test_charge_only_mode_skips_field(self, machine, monkeypatch):
        """A charge-only run never reads a field, so it neither returns one
        nor draws the default one (machine streams still get seeded
        generators)."""
        real_default_rng = np.random.default_rng

        def streams_only(seed=None):
            if not isinstance(seed, np.random.SeedSequence):
                raise AssertionError("charge-only run drew an initial field")
            return real_default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", streams_only)
        result = run_bsp_stencil(
            machine, 4, 64, 2, execute_numerics=False, label="charge"
        )
        assert result.field is None
        assert result.iteration_seconds.shape == (1, 2)

    def test_blocks_too_small_rejected(self, machine):
        with pytest.raises(ValueError, match="3x3"):
            run_bsp_stencil(machine, 16, 8, 1, label="small")


class TestTimingStructure:
    def test_iteration_times_positive(self, machine):
        for runner in (run_mpi_stencil, run_mpi_r_stencil, run_hybrid_stencil):
            result = runner(machine, 8, 256, 3)
            assert (result.iteration_seconds > 0).all()
            assert result.total_seconds > 0

    def test_strong_scaling_reduces_iteration_time(self, quiet):
        """More processes must shorten the compute-dominated iteration."""
        small = run_mpi_stencil(quiet, 4, 1024, 3)
        large = run_mpi_stencil(quiet, 32, 1024, 3)
        assert large.mean_iteration < small.mean_iteration

    def test_overlap_beats_postponed_at_scale(self, quiet):
        """Table 8.2's direction: MPI+R <= MPI when communication is a
        visible fraction of the iteration."""
        mpi = run_mpi_stencil(quiet, 32, 1024, 4)
        mpir = run_mpi_r_stencil(quiet, 32, 1024, 4)
        assert mpir.mean_iteration < mpi.mean_iteration

    def test_bsp_overhead_vs_mpi(self, quiet):
        """§8.4: the BSP implementation carries a visible overhead over raw
        MPI (global payload sync vs neighbour exchange)."""
        bsp = run_bsp_stencil(
            quiet, 32, 1024, 4, execute_numerics=False, label="ovh"
        )
        mpi = run_mpi_stencil(quiet, 32, 1024, 4)
        assert bsp.mean_iteration > mpi.mean_iteration

    def test_hybrid_uses_node_ranks(self, quiet):
        result = run_hybrid_stencil(quiet, 32, 512, 2)
        assert result.nprocs == 32
        assert result.name == "Hybrid"

    def test_hybrid_undersubscribed_node(self, quiet):
        result = run_hybrid_stencil(quiet, 4, 256, 2)
        assert result.iteration_seconds.shape == (2,)

    def test_deterministic_noise_free(self, quiet):
        a = run_mpi_stencil(quiet, 8, 256, 3)
        b = run_mpi_stencil(quiet, 8, 256, 3)
        np.testing.assert_array_equal(a.iteration_seconds, b.iteration_seconds)
