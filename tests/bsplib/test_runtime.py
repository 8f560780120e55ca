"""Integration tests for the BSPlib runtime (Ch. 6)."""

import numpy as np
import pytest

from repro.bsplib import BSPAbort, BSPError, bsp_run
from repro.bsplib.errors import CommunicationError
from repro.bsplib.messages import HEADER_BYTES
from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.kernels import DAXPY, DOT_PRODUCT
from repro.machine import SimMachine


@pytest.fixture
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=9
    )


@pytest.fixture
def quiet():
    """The same cluster with QUIET noise: noise-free runs."""
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
        noise=QUIET, seed=9,
    )


class TestBasicExecution:
    def test_pid_and_nprocs(self, machine):
        def program(ctx):
            return (ctx.pid, ctx.nprocs)

        res = bsp_run(machine, 4, program, label="ids")
        assert res.return_values == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_single_process(self, machine):
        def program(ctx):
            ctx.sync()
            return ctx.pid

        res = bsp_run(machine, 1, program, label="single")
        assert res.return_values == [0]
        assert res.superstep_count == 1

    def test_superstep_count(self, machine):
        def program(ctx):
            for _ in range(5):
                ctx.sync()

        res = bsp_run(machine, 4, program, label="count")
        assert res.superstep_count == 5

    def test_virtual_time_monotone(self, machine):
        def program(ctx):
            times = [ctx.time()]
            ctx.charge_kernel(DAXPY, 1024, reps=16)
            times.append(ctx.time())
            ctx.sync()
            times.append(ctx.time())
            return times

        res = bsp_run(machine, 4, program, label="time")
        for times in res.return_values:
            assert times == sorted(times)
            assert times[1] > times[0]

    def test_deterministic_given_seed(self, machine):
        def program(ctx):
            ctx.charge_kernel(DAXPY, 512, reps=8)
            ctx.sync()
            return ctx.time()

        a = bsp_run(machine, 4, program, label="det")
        b = bsp_run(machine, 4, program, label="det")
        assert a.return_values == b.return_values

    def test_begin_end_lifecycle(self, machine):
        def program(ctx):
            ctx.init()
            ctx.begin()
            ctx.sync()
            ctx.end()

        bsp_run(machine, 2, program, label="life")

    def test_double_begin_rejected(self, machine):
        def program(ctx):
            ctx.begin()
            ctx.begin()

        with pytest.raises(BSPError, match="twice"):
            bsp_run(machine, 2, program, label="dbl")

    def test_sync_after_end_rejected(self, machine):
        def program(ctx):
            ctx.end()
            ctx.sync()

        with pytest.raises(BSPError):
            bsp_run(machine, 2, program, label="after-end")


class TestPutSemantics:
    def test_put_visible_after_sync(self, machine):
        def program(ctx):
            data = np.zeros(4)
            ctx.push_reg(data)
            ctx.sync()
            right = (ctx.pid + 1) % ctx.nprocs
            ctx.put(right, np.full(1, float(ctx.pid)), data, offset=0)
            before = data[0]
            ctx.sync()
            left = (ctx.pid - 1) % ctx.nprocs
            return before, data[0], float(left)

        res = bsp_run(machine, 4, program, label="put")
        for before, after, expected in res.return_values:
            assert before == 0.0  # not visible until sync (BSP semantics)
            assert after == expected

    def test_put_is_buffered(self, machine):
        """The source buffer may be reused immediately after bsp_put."""

        def program(ctx):
            data = np.zeros(1)
            ctx.push_reg(data)
            ctx.sync()
            src = np.array([42.0])
            ctx.put((ctx.pid + 1) % ctx.nprocs, src, data)
            src[0] = -1.0  # must NOT affect the transferred value
            ctx.sync()
            return data[0]

        res = bsp_run(machine, 3, program, label="buffered")
        assert all(v == 42.0 for v in res.return_values)

    def test_hpput_is_unbuffered(self, machine):
        """hpput transfers the value at sync time (§6.2)."""

        def program(ctx):
            data = np.zeros(1)
            ctx.push_reg(data)
            ctx.sync()
            src = np.array([42.0])
            ctx.hpput((ctx.pid + 1) % ctx.nprocs, src, data)
            src[0] = 7.0  # visible: high-performance puts do not buffer
            ctx.sync()
            return data[0]

        res = bsp_run(machine, 3, program, label="hp")
        assert all(v == 7.0 for v in res.return_values)

    def test_put_with_offset(self, machine):
        def program(ctx):
            gathered = np.zeros(ctx.nprocs)
            ctx.push_reg(gathered)
            ctx.sync()
            for q in range(ctx.nprocs):
                ctx.put(q, np.array([float(ctx.pid)]), gathered, offset=ctx.pid)
            ctx.sync()
            return gathered.tolist()

        res = bsp_run(machine, 4, program, label="offset")
        for values in res.return_values:
            assert values == [0.0, 1.0, 2.0, 3.0]

    def test_put_overrun_rejected(self, machine):
        def program(ctx):
            data = np.zeros(2)
            ctx.push_reg(data)
            ctx.sync()
            ctx.put(0, np.zeros(4), data, offset=1)
            ctx.sync()

        with pytest.raises(BSPError, match="overruns"):
            bsp_run(machine, 2, program, label="overrun")

    def test_put_to_invalid_pid(self, machine):
        def program(ctx):
            data = np.zeros(2)
            ctx.push_reg(data)
            ctx.sync()
            ctx.put(99, np.zeros(1), data)

        with pytest.raises(BSPError, match="out of range"):
            bsp_run(machine, 2, program, label="badpid")


class TestGetSemantics:
    def test_get_reads_remote_value(self, machine):
        def program(ctx):
            mine = np.array([float(ctx.pid) * 10.0])
            ctx.push_reg(mine)
            ctx.sync()
            fetched = np.zeros(1)
            ctx.get((ctx.pid + 1) % ctx.nprocs, mine, 0, fetched)
            ctx.sync()
            return fetched[0]

        res = bsp_run(machine, 4, program, label="get")
        assert res.return_values == [10.0, 20.0, 30.0, 0.0]

    def test_get_reads_pre_put_value(self, machine):
        """BSPlib ordering: gets observe values from before the superstep's
        puts are applied."""

        def program(ctx):
            data = np.array([float(ctx.pid)])
            ctx.push_reg(data)
            ctx.sync()
            fetched = np.zeros(1)
            other = (ctx.pid + 1) % ctx.nprocs
            ctx.get(other, data, 0, fetched)
            ctx.put(other, np.array([99.0]), data)
            ctx.sync()
            return fetched[0], data[0]

        res = bsp_run(machine, 2, program, label="getput")
        for pid, (fetched, mine) in enumerate(res.return_values):
            assert fetched == float((pid + 1) % 2)  # pre-put value
            assert mine == 99.0  # put landed afterwards

    def test_hpget(self, machine):
        def program(ctx):
            mine = np.arange(4, dtype=float) + ctx.pid * 100
            ctx.push_reg(mine)
            ctx.sync()
            fetched = np.zeros(2)
            ctx.hpget((ctx.pid + 1) % ctx.nprocs, mine, 1, fetched)
            ctx.sync()
            return fetched.tolist()

        res = bsp_run(machine, 2, program, label="hpget")
        assert res.return_values[0] == [101.0, 102.0]
        assert res.return_values[1] == [1.0, 2.0]

    def test_get_overrun_rejected(self, machine):
        def program(ctx):
            mine = np.zeros(2)
            ctx.push_reg(mine)
            ctx.sync()
            fetched = np.zeros(1)
            ctx.get(0, mine, 0, fetched, nelems=5)

        with pytest.raises(BSPError, match="overruns"):
            bsp_run(machine, 2, program, label="getover")

    def test_remote_get_overrun_rejected(self, machine):
        """The local destination fits but the owner's registered buffer
        does not: the get fails at sync, as an overrunning put does."""

        def program(ctx):
            mine = np.array([10.0, 11.0])
            ctx.push_reg(mine)
            ctx.sync()
            fetched = np.full(4, -1.0)
            ctx.get((ctx.pid + 1) % ctx.nprocs, mine, 1, fetched, nelems=4)
            ctx.sync()

        with pytest.raises(CommunicationError,
                           match="get overruns registered buffer"):
            bsp_run(machine, 2, program, label="remote-getover")

    def test_get_reply_priced_in_bytes(self, machine):
        """A get of k float64 values costs a request header plus a reply
        of 8k bytes and a header, as a put of the same array would."""
        nprocs, k = 4, 5

        def program(ctx):
            mine = np.arange(k, dtype=np.float64)
            ctx.push_reg(mine)
            ctx.sync()
            fetched = np.zeros(k)
            ctx.get((ctx.pid + 1) % ctx.nprocs, mine, 0, fetched)
            ctx.sync()

        res = bsp_run(machine, nprocs, program, label="getbytes")
        data = res.supersteps[1]
        assert data.messages == 2 * nprocs
        assert data.payload_bytes == nprocs * (2 * HEADER_BYTES + 8 * k)


class TestAbort:
    def test_abort_reaches_caller(self, machine):
        def program(ctx):
            if ctx.pid == 1:
                ctx.abort("deliberate failure")
            ctx.sync()

        with pytest.raises(BSPAbort, match="deliberate failure"):
            bsp_run(machine, 4, program, label="abort")

    def test_program_exception_propagates(self, machine):
        def program(ctx):
            if ctx.pid == 0:
                raise ValueError("boom")
            ctx.sync()

        with pytest.raises((ValueError, BSPError)):
            bsp_run(machine, 3, program, label="exc")


class TestCollectiveDiscipline:
    def test_mismatched_sync_detected(self, machine):
        def program(ctx):
            if ctx.pid == 0:
                ctx.sync()  # others exit without syncing

        with pytest.raises(BSPError, match="mismatch"):
            bsp_run(machine, 3, program, label="mismatch")

    def test_unequal_push_reg_detected(self, machine):
        def program(ctx):
            if ctx.pid == 0:
                ctx.push_reg(np.zeros(1))
            ctx.sync()

        with pytest.raises(BSPError, match="collectively"):
            bsp_run(machine, 2, program, label="push-mismatch")


class TestOverlapAccounting:
    def test_early_commit_overlaps_compute(self, quiet):
        """Fig. 1.2's point: committing communication before computing masks
        the transfer; committing after exposes it."""

        def early(ctx):
            data = np.zeros(25000)
            ctx.push_reg(data)
            ctx.sync()
            ctx.put((ctx.pid + 1) % ctx.nprocs, np.ones(25000), data)
            ctx.charge_kernel(DAXPY, 4096, reps=160)  # ~1.4 ms of compute
            ctx.sync()
            return ctx.time()

        def late(ctx):
            data = np.zeros(25000)
            ctx.push_reg(data)
            ctx.sync()
            ctx.charge_kernel(DAXPY, 4096, reps=160)
            ctx.put((ctx.pid + 1) % ctx.nprocs, np.ones(25000), data)
            ctx.sync()
            return ctx.time()

        t_early = bsp_run(quiet, 4, early, label="early").total_seconds
        t_late = bsp_run(quiet, 4, late, label="late").total_seconds
        assert t_early < t_late

    def test_superstep_records_shape(self, machine):
        def program(ctx):
            data = np.zeros(8)
            ctx.push_reg(data)
            ctx.sync()
            ctx.put((ctx.pid + 1) % ctx.nprocs, np.ones(8), data)
            ctx.sync()

        res = bsp_run(machine, 4, program, label="records")
        assert res.superstep_count == 2
        rec = res.supersteps[1]
        assert rec.messages == 4
        assert rec.entry_times.shape == (1, 4)
        assert (rec.exit_times >= rec.entry_times).all()
        assert (rec.exit_times >= rec.sync_exit - 1e-15).all()


class TestInnerProductIntegration:
    def test_matches_serial_result(self, machine):
        n_total = 64_000

        def program(ctx):
            p, pid = ctx.nprocs, ctx.pid
            local_n = n_total // p
            x = np.full(local_n, 0.5)
            y = np.full(local_n, 4.0)
            sums = np.zeros(p)
            ctx.push_reg(sums)
            ctx.sync()
            local = ctx.run_kernel(DOT_PRODUCT, (x, y), local_n)
            for q in range(p):
                ctx.put(q, np.array([local]), sums, offset=pid)
            ctx.sync()
            return float(sums.sum())

        res = bsp_run(machine, 8, program, label="inner")
        assert all(v == pytest.approx(0.5 * 4.0 * n_total) for v in res.return_values)
