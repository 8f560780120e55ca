"""Critical-path extraction from BSP runtime provenance.

Superstep version of ``tests/obs/test_critpath.py``: for scalar and
batched runs across communication mixes (puts, gets, sends) the
extracted path must be a valid, connected, time-monotone event chain
ending bit-exactly at the run's makespan, its category attribution must
sum exactly (Fraction arithmetic) to that makespan, and recording must
leave every clock bit-identical.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro import obs
from repro.bsplib import bsp_run
from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.kernels import DAXPY, DOT_PRODUCT
from repro.machine import SimMachine
from repro.obs.critpath import CATEGORIES


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=77
    )


def make_program(payload_elems: int, supersteps: int, use_gets: bool,
                 use_sends: bool):
    def program(ctx):
        p, pid = ctx.nprocs, ctx.pid
        window = np.zeros(payload_elems * p)
        scratch = np.zeros(payload_elems)
        ctx.push_reg(window)
        ctx.sync()
        src = np.arange(payload_elems, dtype=float) + pid
        for step in range(supersteps):
            # Imbalanced compute so sync wait shows up on the path.
            ctx.charge_kernel(DAXPY, 512 + 256 * pid + 128 * step)
            ctx.put((pid + 1 + step) % p, src, window,
                    offset=payload_elems * pid)
            if use_gets:
                ctx.get((pid + 2) % p, window, 0, scratch,
                        nelems=payload_elems)
            if use_sends:
                ctx.send((pid + 1) % p, b"", src[: min(4, payload_elems)])
                if ctx.qsize()[0]:
                    ctx.move()
            ctx.charge_kernel(DOT_PRODUCT, 256)
            ctx.sync()
        return float(window.sum() + scratch.sum())

    return program


def final_makespans(result) -> np.ndarray:
    return np.atleast_2d(result.provenance.final_times).max(axis=1)


class TestBSPCriticalPath:
    @pytest.mark.parametrize("p", [2, 5, 8])
    @pytest.mark.parametrize("use_gets", [False, True])
    def test_batched_paths_valid_and_exact(self, machine, p, use_gets):
        program = make_program(8, 2, use_gets, use_sends=True)
        result = bsp_run(
            machine, p, program, label="critpath-batch",
            runs=4, provenance=True,
        )
        prov = result.provenance
        assert prov is not None and prov.runs == 4
        paths = obs.extract_paths(prov)
        makespans = final_makespans(result)
        assert len(paths) == 4
        for r, path in enumerate(paths):
            assert obs.validate_path(path) == []
            assert path.makespan == makespans[r]
            total = sum(path.category_totals().values(), Fraction(0))
            assert total == Fraction(path.makespan)
            assert set(path.category_totals()) <= set(CATEGORIES)

    @pytest.mark.parametrize("use_sends", [False, True])
    def test_scalar_path_valid_and_exact(self, machine, use_sends):
        program = make_program(6, 2, use_gets=True, use_sends=use_sends)
        result = bsp_run(
            machine, 5, program, label="critpath-scalar",
            provenance=True,
        )
        (path,) = obs.extract_paths(result.provenance)
        assert obs.validate_path(path) == []
        assert path.makespan == final_makespans(result)[0]
        assert sum(path.category_totals().values(), Fraction(0)) == (
            Fraction(path.makespan)
        )

    def test_sync_wait_is_attributed(self, machine):
        # Deliberately imbalanced compute: early finishers wait in the
        # barrier, and that wait must surface as the sync_wait category.
        program = make_program(4, 3, use_gets=False, use_sends=False)
        result = bsp_run(
            machine, 6, program, label="critpath-sync",
            runs=2, provenance=True,
        )
        totals = {}
        for path in obs.extract_paths(result.provenance):
            for cat, val in path.category_totals().items():
                totals[cat] = totals.get(cat, Fraction(0)) + val
        assert "sync_wait" in totals and totals["sync_wait"] > 0
        assert "compute" in totals and totals["compute"] > 0

    def test_clean_run_paths_identical_across_replications(self):
        quiet = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
            noise=QUIET, seed=77,
        )
        program = make_program(8, 2, use_gets=True, use_sends=True)
        result = bsp_run(
            quiet, 4, program, label="critpath-clean", runs=3,
            provenance=True,
        )
        paths = obs.extract_paths(result.provenance)
        assert len(paths) == 3
        assert paths[0].hops == paths[1].hops == paths[2].hops

    def test_single_process_run(self, machine):
        def solo(ctx):
            ctx.charge_kernel(DAXPY, 1024)
            ctx.sync()
            return 1.0

        result = bsp_run(
            machine, 1, solo, label="critpath-solo",
            provenance=True,
        )
        (path,) = obs.extract_paths(result.provenance)
        assert obs.validate_path(path) == []
        assert path.makespan == final_makespans(result)[0]

    def test_recording_is_bit_identical_off_and_on(self, machine):
        program = make_program(8, 2, use_gets=True, use_sends=True)
        base = bsp_run(
            machine, 6, program, label="critpath-id", runs=6
        )
        traced = bsp_run(
            machine, 6, program, label="critpath-id", runs=6,
            provenance=True,
        )
        assert base.provenance is None
        assert traced.provenance is not None
        np.testing.assert_array_equal(
            base.final_times, traced.final_times
        )
        for rec_a, rec_b in zip(base.supersteps, traced.supersteps):
            np.testing.assert_array_equal(
                rec_a.exit_times, rec_b.exit_times
            )

    def test_explain_on_bsp_detects_kind(self, machine):
        program = make_program(6, 1, use_gets=False, use_sends=False)
        result = bsp_run(
            machine, 4, program, label="critpath-explain",
            runs=2, provenance=True,
        )
        report = obs.explain(result.provenance, label="bsp-smoke")
        assert report.kind == "bsp"
        assert report.problems == []
        assert report.slack and all(
            value >= 0 for value in report.slack.values()
        )
