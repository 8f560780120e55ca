"""Tests for the B-series predictions: ``predict_iteration`` over a sweep
of process counts, the platform profiled independently per count."""

import pytest

from repro.cluster import presets
from repro.machine import SimMachine
from repro.stencil.predictor import predict_iteration


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=161
    )


class TestPredictionSweep:
    def test_bsp_sweep(self, machine):
        for nprocs in (4, 8):
            pred = predict_iteration(machine, 256, nprocs, kind="bsp",
                                     comm_samples=5)
            assert pred.nprocs == nprocs
            assert pred.per_iteration > 0
            assert pred.t_sync > 0

    def test_mpi_kinds(self, machine):
        plain = predict_iteration(machine, 256, 8, kind="mpi", comm_samples=5)
        overlap = predict_iteration(machine, 256, 8, kind="mpi+r",
                                    comm_samples=5)
        assert plain.name == "MPI"
        assert overlap.name == "MPI+R"
        assert overlap.per_iteration <= plain.per_iteration

    def test_unknown_kind(self, machine):
        with pytest.raises(ValueError, match="unknown prediction kind"):
            predict_iteration(machine, 256, 4, kind="magic")

    def test_strong_scaling_trend(self, machine):
        small, large = (
            predict_iteration(machine, 1024, p, kind="bsp", comm_samples=5)
            for p in (4, 64)
        )
        assert large.per_iteration < small.per_iteration
