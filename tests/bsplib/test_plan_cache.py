"""The per-superstep transfer-plan cache (docs/engine.md,
"Transfer-plan cache").

A BSP program's transfer schedule is deterministic — only noise varies
across supersteps and replications — so the canonical ``(pid, sequence)``
plan (endpoint arrays, clean transit bases, stable-argsort skeleton) is
built once per distinct superstep shape and replayed.  The cache must be
*invisible*: every cached replay is bit-identical to the scalar oracle's
fresh per-superstep plan build (:mod:`repro.bsplib.reference`), on the
clean path and — fed the transits the run drew — on the noisy path, for
one replication and for many.  End to end, a noisy run that replays
cached plans is bitwise the run that rebuilds every plan, so a cache hit
consumes the noise stream exactly as a fresh build does.
"""

import numpy as np
import pytest

from repro.bsplib.runtime import BSPRuntime
from repro.cluster import presets
from repro.kernels import DAXPY
from repro.machine import SimMachine

from .test_runtime_batch import (
    RECORD_FIELDS,
    assert_matches_oracle,
    make_program,
    run_recorded,
)


class _NeverStores(dict):
    """A plan cache that forgets every plan it is handed."""

    def __setitem__(self, key, value):
        pass


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=77
    )


def assert_replays_match_oracle(machine, nprocs, program, noisy, runs=1):
    """Under both placements: ``block`` packs processes onto shared nodes,
    so the transmit-NIC FIFOs see real contention."""
    for policy in ("round_robin", "block"):
        runtime, result = run_recorded(
            machine, nprocs, program, label="pc", noisy=noisy, runs=runs,
            placement_policy=policy,
        )
        # Repeated shapes must really be replays for the check to mean much.
        assert len(runtime._plan_cache) < len(runtime.outbound)
        assert_matches_oracle(runtime, result, pre_drawn=noisy)


class TestCacheInvisibility:
    @pytest.mark.parametrize("noisy", [True, False])
    def test_scalar_bit_identity(self, machine, noisy):
        program = make_program(8, 4, True, True, reps=2, skew=True)
        assert_replays_match_oracle(machine, 6, program, noisy)

    @pytest.mark.parametrize("noisy", [True, False])
    def test_batch_bit_identity(self, machine, noisy):
        program = make_program(8, 4, True, True, reps=2, skew=True)
        assert_replays_match_oracle(machine, 6, program, noisy, runs=5)

    @pytest.mark.parametrize("runs", [1, 4])
    def test_noisy_run_matches_uncached_run(self, machine, runs):
        """Whole noisy runs, cached against never-cached: final times and
        every per-superstep record are bitwise equal."""
        program = make_program(8, 4, True, True, reps=2, skew=True)
        cached = BSPRuntime(machine, 6, label="nc", runs=runs)
        uncached = BSPRuntime(machine, 6, label="nc", runs=runs)
        uncached._plan_cache = _NeverStores()
        res_c = cached.run(program)
        res_u = uncached.run(program)
        assert 0 < len(cached._plan_cache) < res_c.superstep_count
        assert len(uncached._plan_cache) == 0
        assert res_c.final_times.tobytes() == res_u.final_times.tobytes()
        assert res_c.return_values == res_u.return_values
        assert res_c.superstep_count == res_u.superstep_count
        for rec_c, rec_u in zip(res_c.supersteps, res_u.supersteps):
            assert rec_c.messages == rec_u.messages
            assert rec_c.payload_bytes == rec_u.payload_bytes
            for name in RECORD_FIELDS:
                assert (getattr(rec_c, name).tobytes()
                        == getattr(rec_u, name).tobytes()), name

    def test_mixed_shape_program(self, machine):
        """Supersteps with different communication shapes get distinct
        plans; repeating shapes replay cached ones."""

        def program(ctx):
            p, pid = ctx.nprocs, ctx.pid
            window = np.zeros(64 * p)
            ctx.push_reg(window)
            ctx.sync()
            src = np.arange(16, dtype=float)
            for step in range(6):
                ctx.charge_kernel(DAXPY, 512)
                # Alternate between two shapes: puts-only and puts+gets.
                ctx.put((pid + 1) % p, src, window, offset=16 * pid)
                if step % 2:
                    scratch = np.zeros(8)
                    ctx.get((pid + 2) % p, window, 0, scratch, nelems=8)
                ctx.sync()

        assert_replays_match_oracle(machine, 4, program, noisy=True)


class TestCachePopulation:
    def test_repeated_shape_builds_one_plan(self, machine):
        def program(ctx):
            p, pid = ctx.nprocs, ctx.pid
            window = np.zeros(16 * p)
            ctx.push_reg(window)
            ctx.sync()
            src = np.arange(16, dtype=float)
            for _ in range(5):
                ctx.put((pid + 1) % p, src, window, offset=16 * pid)
                ctx.sync()

        runtime = BSPRuntime(machine, 4, label="count")
        runtime.run(program)
        # The 5 identical data supersteps must collapse onto one entry
        # (the registration superstep has no outbound records and makes
        # no entry at all).
        assert len(runtime._plan_cache) == 1

    def test_distinct_shapes_get_distinct_plans(self, machine):
        def program(ctx):
            p, pid = ctx.nprocs, ctx.pid
            window = np.zeros(64 * p)
            ctx.push_reg(window)
            ctx.sync()
            for nelems in (4, 8, 4):
                src = np.arange(nelems, dtype=float)
                ctx.put((pid + 1) % p, src, window, offset=0)
                ctx.sync()

        runtime = BSPRuntime(machine, 4, label="shapes")
        runtime.run(program)
        assert len(runtime._plan_cache) == 2
