"""The stencil and halo replication axes: identity and distribution.

The contract under test (docs/engine.md, "BSP runtime, stencil and halo
draws"):

* clean run (a QUIET machine): every replication of
  ``run_bsp_stencil(..., runs=R)`` is *bit-identical* to the single run,
  and every replication of ``measure_halo_iteration(..., runs=R)`` to
  the scalar oracle :func:`repro.stencil.reference.
  reference_halo_iteration` — across grid sizes, process counts and halo
  depths;
* noisy run: ``measure_halo_iteration(runs=1)`` is bit-identical to the
  oracle too (a ``(1, ...)`` draw consumes the stream as the ``(...)``
  draw does); larger ensembles are compared distributionally;
* the grid numerics are noise-independent: a batched ``run_bsp_stencil``
  assembles exactly the single run's field.

Mirrors ``tests/bsplib/test_runtime_batch.py`` one layer up the stack.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.machine import SimMachine
from repro.stencil import measure_halo_iteration, run_bsp_stencil
from repro.stencil.experiments import run_strong_scaling
from repro.stencil.reference import reference_halo_iteration


def make_machine(seed=77, noise=None):
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
        noise=noise, seed=seed,
    )


@pytest.fixture(scope="module")
def machine():
    return make_machine()


@pytest.fixture(scope="module")
def quiet():
    return make_machine(noise=QUIET)


class TestStencilCleanBitIdentity:
    @given(
        nprocs=st.sampled_from([1, 2, 4, 6]),
        n=st.sampled_from([12, 16, 24, 32]),
        iterations=st.integers(1, 3),
        runs=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_scalar_bitwise(self, nprocs, n, iterations, runs):
        machine = make_machine(seed=7, noise=QUIET)
        ref = run_bsp_stencil(
            machine, nprocs, n, iterations, execute_numerics=False,
        )
        bat = run_bsp_stencil(
            machine, nprocs, n, iterations, execute_numerics=False,
            runs=runs,
        )
        assert bat.iteration_seconds.shape == (runs, iterations)
        for r in range(runs):
            assert (
                bat.iteration_seconds[r].tolist()
                == ref.iteration_seconds[0].tolist()
            )
        # total_seconds is the ensemble mean, so the mean of R identical
        # replications may differ from the single value by one ulp.
        assert bat.total_seconds == pytest.approx(ref.total_seconds, rel=1e-12)

    def test_numerics_match_scalar(self, quiet):
        ref = run_bsp_stencil(quiet, 4, 16, 2)
        bat = run_bsp_stencil(quiet, 4, 16, 2, runs=3)
        assert bat.field is not None
        assert bat.field.tolist() == ref.field.tolist()

    def test_result_properties(self, quiet):
        single = run_bsp_stencil(quiet, 4, 16, 3, execute_numerics=False)
        assert single.iteration_seconds.shape == (1, 3)
        assert single.run_mean_iterations.shape == (1,)
        assert single.mean_iteration == single.run_mean_iterations[0]
        batch = run_bsp_stencil(
            quiet, 4, 16, 3, execute_numerics=False, runs=5
        )
        assert batch.iteration_seconds.shape == (5, 3)
        assert batch.run_mean_iterations.shape == (5,)
        assert batch.run_mean_iterations[0] == pytest.approx(
            batch.iteration_seconds[0].mean()
        )


class TestHaloCleanBitIdentity:
    @given(
        nprocs=st.sampled_from([1, 2, 4, 6]),
        n=st.sampled_from([24, 32, 48]),
        depth=st.integers(1, 3),
        runs=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_scalar_bitwise(self, nprocs, n, depth, runs):
        machine = make_machine(seed=7, noise=QUIET)
        ref = reference_halo_iteration(machine, nprocs, n, depth, cycles=3)
        bat = measure_halo_iteration(
            machine, nprocs, n, depth, cycles=3, runs=runs
        )
        assert bat.shape == (runs,)
        for r in range(runs):
            assert bat[r] == ref

    def test_runs_validated(self, machine):
        with pytest.raises(ValueError, match="runs"):
            measure_halo_iteration(machine, 4, 32, 2, runs=0)


class TestHaloNoisyBitIdentity:
    @given(
        nprocs=st.sampled_from([1, 2, 4, 6]),
        n=st.sampled_from([24, 32, 48]),
        depth=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_runs_one_matches_reference_bitwise(self, nprocs, n, depth, seed):
        machine = make_machine(seed=seed)
        one = measure_halo_iteration(machine, nprocs, n, depth, cycles=3)
        assert one.shape == (1,)
        assert one[0] == reference_halo_iteration(
            machine, nprocs, n, depth, cycles=3
        )


class TestNoisyDistribution:
    def test_stencil_ensemble_agrees_with_looped_scalar(self):
        """Two-sample KS between a batched ensemble and independent single
        runs (per-run distinct labels select independent streams of the
        same distribution)."""
        machine = make_machine(seed=5)
        runs = 200
        batch = run_bsp_stencil(
            machine, 6, 32, 2, execute_numerics=False, label="ks-batch",
            runs=runs,
        ).run_mean_iterations
        loop = np.array([
            run_bsp_stencil(
                machine, 6, 32, 2, execute_numerics=False,
                label=f"ks-loop-{r}",
            ).mean_iteration
            for r in range(runs)
        ])
        # 1% two-sample KS critical value for n = m = 200 is ~0.163.
        grid = np.sort(np.concatenate([batch, loop]))
        ks = np.abs(
            np.searchsorted(np.sort(batch), grid, side="right") / runs
            - np.searchsorted(np.sort(loop), grid, side="right") / runs
        ).max()
        assert ks < 0.163, f"KS={ks:.3f}"
        assert np.median(batch) == pytest.approx(np.median(loop), rel=0.05)

    def test_halo_ensemble_agrees_with_looped_scalar(self):
        """measure_halo_iteration derives its stream from the machine seed
        and the (nprocs, n, depth) key, so the independent oracle ensemble
        varies the machine seed instead of a label."""
        runs = 200
        batch = measure_halo_iteration(
            make_machine(seed=5), 6, 48, 2, cycles=3, runs=runs
        )
        loop = np.array([
            reference_halo_iteration(
                make_machine(seed=1000 + r), 6, 48, 2, cycles=3
            )
            for r in range(runs)
        ])
        grid = np.sort(np.concatenate([batch, loop]))
        ks = np.abs(
            np.searchsorted(np.sort(batch), grid, side="right") / runs
            - np.searchsorted(np.sort(loop), grid, side="right") / runs
        ).max()
        assert ks < 0.163, f"KS={ks:.3f}"
        assert np.median(batch) == pytest.approx(np.median(loop), rel=0.05)

    def test_batch_reproducible_and_rows_vary(self, machine):
        a = run_bsp_stencil(
            machine, 4, 24, 2, execute_numerics=False, label="rep", runs=16
        )
        b = run_bsp_stencil(
            machine, 4, 24, 2, execute_numerics=False, label="rep", runs=16
        )
        assert a.iteration_seconds.tolist() == b.iteration_seconds.tolist()
        assert np.unique(a.run_mean_iterations).size > 1
        ha = measure_halo_iteration(machine, 4, 32, 2, cycles=3, runs=16)
        hb = measure_halo_iteration(machine, 4, 32, 2, cycles=3, runs=16)
        assert ha.tolist() == hb.tolist()
        assert np.unique(ha).size > 1


class TestSuperstepValidation:
    def test_superstep_mismatch_raises(self, quiet, monkeypatch):
        """If the program's superstep structure drifts from the
        registration + initial exchange + iterations shape, extraction
        must fail loudly instead of silently mis-slicing."""
        import repro.stencil.impls as impls

        real_bsp_run = impls.bsp_run

        def drop_one_superstep(*args, **kwargs):
            result = real_bsp_run(*args, **kwargs)
            return type(result)(
                nprocs=result.nprocs,
                supersteps=result.supersteps[:-1],
                return_values=result.return_values,
                final_times=result.final_times,
            )

        monkeypatch.setattr(impls, "bsp_run", drop_one_superstep)
        with pytest.raises(RuntimeError, match="supersteps"):
            run_bsp_stencil(quiet, 4, 16, 2, execute_numerics=False)


class TestExperimentHarness:
    def test_strong_scaling_runs_axis(self, machine):
        out = run_strong_scaling(
            machine, ["BSP"], 24, (2, 4), iterations=2, runs=3
        )
        for nprocs in (2, 4):
            assert out["BSP"][nprocs].iteration_seconds.shape == (3, 2)

    def test_strong_scaling_rejects_non_bsp_runs(self, machine):
        with pytest.raises(ValueError, match="BSP"):
            run_strong_scaling(
                machine, ["BSP", "MPI"], 24, (2,), iterations=2, runs=3
            )

    def test_optimizer_runs_axis(self, machine):
        from repro.bench.comm_bench import benchmark_comm
        from repro.stencil import stencil_sec_per_cell
        from repro.stencil.grid import decompose
        from repro.stencil.optimizer import optimize_halo_depth

        placement = machine.placement(4)
        params = benchmark_comm(
            machine, placement, samples=3, sizes=(8, 4096)
        ).params
        spc = stencil_sec_per_cell(
            machine, placement.core_of(0), decompose(32, 4)[0]
        )
        chosen, points = optimize_halo_depth(
            machine, 4, 32, (1, 2), spc, params, cycles=3, runs=4
        )
        assert chosen in (1, 2)
        for pt in points:
            assert isinstance(pt.measured, float)
