"""Tests for the application predictor (§8.5) and halo optimizer (§8.6)."""

import pytest

from repro.bench import benchmark_comm
from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.machine import SimMachine
from repro.stencil import (
    build_comm_model,
    decompose,
    measure_halo_iteration,
    optimize_halo_depth,
    predict_bsp_iteration,
    predict_halo_iteration,
    predict_mpi_iteration,
    run_bsp_stencil,
    stencil_sec_per_cell,
)
from repro.stencil.impls import WORD


@pytest.fixture(scope="module")
def profiled():
    machine = SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=41
    )
    nprocs, n = 16, 512
    placement = machine.placement(nprocs)
    report = benchmark_comm(
        machine, placement, samples=7, sizes=tuple(2**k for k in range(0, 17, 4))
    )
    blocks = decompose(n, nprocs)
    spc = stencil_sec_per_cell(machine, placement.core_of(0), blocks[0])
    return machine, nprocs, n, blocks, report.params, spc


def _quiet(machine):
    """The same cluster with QUIET noise: noise-free measurement."""
    return SimMachine(
        machine.topology, machine.params, noise=QUIET, seed=machine.seed
    )


class TestCommModel:
    def test_neighbour_counts(self, profiled):
        _, _, _, blocks, params, _ = profiled
        model = build_comm_model(blocks, params)
        for block in blocks:
            assert model.message_counts[block.rank].sum() == len(block.neighbours())

    def test_volumes_match_borders(self, profiled):
        _, _, _, blocks, params, _ = profiled
        model = build_comm_model(blocks, params)
        b = blocks[0]
        if b.east is not None:
            assert model.volumes[b.rank, b.east] == b.height * WORD + 24

    def test_size_mismatch_rejected(self, profiled):
        _, _, _, blocks, params, _ = profiled
        with pytest.raises(ValueError):
            build_comm_model(blocks[:4], params)


class TestBSPPrediction:
    def test_prediction_positive_and_structured(self, profiled):
        _, _, _, blocks, params, spc = profiled
        pred = predict_bsp_iteration(blocks, spc, params)
        assert pred.per_iteration > 0
        assert pred.t_sync > 0
        assert (pred.t_border > 0).all()
        assert pred.per_iteration <= pred.per_iteration_no_overlap

    def test_prediction_tracks_measurement(self, profiled):
        """B-series: prediction within a small factor of measurement."""
        machine, nprocs, n, blocks, params, spc = profiled
        pred = predict_bsp_iteration(blocks, spc, params)
        measured = run_bsp_stencil(
            machine, nprocs, n, 5, execute_numerics=False, label="pred-check"
        ).mean_iteration
        assert pred.per_iteration == pytest.approx(measured, rel=1.5)

    def test_overlap_saving_nonnegative(self, profiled):
        _, _, _, blocks, params, spc = profiled
        pred = predict_bsp_iteration(blocks, spc, params)
        assert pred.predicted_overlap_saving >= 0


class TestMPIPrediction:
    def test_overlap_variant_cheaper(self, profiled):
        _, _, _, blocks, params, spc = profiled
        plain = predict_mpi_iteration(blocks, spc, params, overlap=False)
        restructured = predict_mpi_iteration(blocks, spc, params, overlap=True)
        assert restructured.per_iteration < plain.per_iteration

    def test_mpi_prediction_excludes_global_sync(self, profiled):
        _, _, _, blocks, params, spc = profiled
        plain = predict_mpi_iteration(blocks, spc, params)
        assert plain.t_sync == 0.0


class TestHaloOptimizer:
    def test_swept_cells_shrink(self):
        from repro.stencil.optimizer import _swept_cells

        cells = _swept_cells(16, 16, 3)
        assert cells == [(16 + 4) ** 2, (16 + 2) ** 2, 16 * 16]

    def test_depth_one_matches_plain_structure(self, profiled):
        _, nprocs, n, _, params, spc = profiled
        pred = predict_halo_iteration(nprocs, n, 1, spc, params)
        assert pred.sync_per_iter > 0
        assert pred.compute_per_iter > 0

    def test_deeper_halo_amortises_sync(self, profiled):
        _, nprocs, n, _, params, spc = profiled
        d1 = predict_halo_iteration(nprocs, n, 1, spc, params)
        d4 = predict_halo_iteration(nprocs, n, 4, spc, params)
        assert d4.sync_per_iter < d1.sync_per_iter
        assert d4.compute_per_iter > d1.compute_per_iter

    def test_measured_halo_reduces_cost(self, profiled):
        machine, nprocs, n, _, _, _ = profiled
        quiet = _quiet(machine)
        t1 = measure_halo_iteration(quiet, nprocs, n, 1, cycles=3)
        t4 = measure_halo_iteration(quiet, nprocs, n, 4, cycles=3)
        assert t4 < t1

    def test_optimizer_choice_near_measured_optimum(self, profiled):
        """C1's claim: the model's chosen depth sits at or adjacent to the
        measured optimum."""
        machine, nprocs, n, _, params, spc = profiled
        depths = range(1, 8)
        chosen, points = optimize_halo_depth(
            _quiet(machine), nprocs, n, depths, spc, params, cycles=3
        )
        measured_best = min(points, key=lambda p: p.measured).depth
        assert abs(chosen - measured_best) <= 2

    def test_invalid_depth(self, profiled):
        _, nprocs, n, _, params, spc = profiled
        with pytest.raises(ValueError):
            predict_halo_iteration(nprocs, n, 0, spc, params)
