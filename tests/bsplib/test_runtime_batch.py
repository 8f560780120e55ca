"""The BSP runtime's replication axis vs its scalar oracle.

The contract under test (docs/engine.md, "BSP runtime, stencil and halo
draws"):

* clean run (a QUIET machine): every replication of
  ``bsp_run(..., runs=R)`` schedules its transfers *bit-identically* to
  the scalar oracle :func:`repro.bsplib.reference.reference_transfers`
  fed that replication's recorded commit and entry times — across payload
  shapes, process counts, and communication mixes (puts, gets, sends);
* noisy run: the replication-major bulk draws land in a different
  stream order than the oracle's processing-order draws, so the
  ensembles are compared distributionally (KS);
* data movement is noise-independent: a batched run returns exactly the
  single run's values and delivered buffers.

Mirrors ``tests/simmpi/test_engine_batch.py`` one layer up the stack.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsplib import bsp_run
from repro.bsplib.reference import reference_transfers
from repro.bsplib.runtime import BSPRuntime
from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.kernels import DAXPY, DOT_PRODUCT
from repro.machine import SimMachine
from repro.obs.provenance import rep_row


class RecordingRuntime(BSPRuntime):
    """A runtime that keeps each superstep's canonical outbound records,
    the structural input the oracle schedules from."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, provenance=True, **kwargs)
        self.outbound: dict[int, list] = {}

    def _canonical_outbound(self):
        ordered = super()._canonical_outbound()
        self.outbound[self._superstep] = list(ordered)
        return ordered


def run_recorded(machine, nprocs, program, **kwargs):
    runtime = RecordingRuntime(machine, nprocs, **kwargs)
    return runtime, runtime.run(program)


def oracle_transfers(runtime, ss, r, **kwargs):
    """The oracle's schedule of replication ``r`` of superstep ``ss``."""
    return reference_transfers(
        runtime.truth, runtime.placement, runtime.outbound[ss.index],
        rep_row(ss.pass1.ready, r), rep_row(ss.entries, r), **kwargs,
    )


def assert_matches_oracle(runtime, result, pre_drawn=False):
    """Every replication of every superstep is bit-identical to the
    oracle fed the recorded commit and entry times (and, with
    ``pre_drawn``, the transits the run drew)."""
    prov = result.provenance
    for rec, ss in zip(result.supersteps, prov.supersteps):
        for r in range(result.runs):
            if ss.pass1 is None:  # no transfers: nothing arrives
                assert rec.messages == 0
                assert rec.last_arrival[r].tolist() == \
                    rec.entry_times[r].tolist()
                continue
            transits = None
            if pre_drawn:
                transits = (
                    rep_row(ss.pass1.transits, r),
                    np.empty(0) if ss.pass2 is None
                    else rep_row(ss.pass2.transits, r),
                )
            ref = oracle_transfers(runtime, ss, r, transits=transits)
            assert ref.last_arrival.tolist() == rec.last_arrival[r].tolist()
            assert ref.arrivals1.tolist() == \
                rep_row(ss.pass1.arrivals, r).tolist()
            if ss.pass2 is not None:
                assert ref.arrivals2.tolist() == \
                    rep_row(ss.pass2.arrivals, r).tolist()
            assert ref.messages == rec.messages
            assert ref.payload_bytes == rec.payload_bytes


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


def make_program(payload_elems: int, supersteps: int, use_gets: bool,
                 use_sends: bool, reps: int, skew: bool = False):
    """An SPMD program exercising every communication kind with
    deterministic (time-independent) control flow; ``skew`` gives the
    processes unequal compute, so commit-time order departs from the
    canonical ``(pid, sequence)`` order even on the clean path."""

    def program(ctx):
        p, pid = ctx.nprocs, ctx.pid
        window = np.zeros(payload_elems * p)
        scratch = np.zeros(payload_elems)
        ctx.push_reg(window)
        ctx.sync()
        src = np.arange(payload_elems, dtype=float) + pid
        extra = 96 * ((5 * pid) % 7) if skew else 0
        for step in range(supersteps):
            ctx.charge_kernel(DAXPY, 512 + 128 * step + extra, reps=reps)
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


RECORD_FIELDS = (
    "entry_times", "compute_seconds", "last_arrival", "sync_exit",
    "exit_times",
)


class TestCleanBitIdentity:
    @given(
        p=st.integers(2, 12),
        payload_elems=st.integers(1, 48),
        supersteps=st.integers(1, 3),
        use_gets=st.booleans(),
        use_sends=st.booleans(),
        runs=st.integers(1, 4),
        skew=st.booleans(),
        policy=st.sampled_from(["round_robin", "block"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scalar_bitwise(
        self, p, payload_elems, supersteps, use_gets, use_sends, runs, skew,
        policy,
    ):
        """``block`` placement packs processes onto shared nodes, so the
        transmit-NIC FIFOs see real contention."""
        machine = make_machine(seed=7, noise=QUIET)
        program = make_program(payload_elems, supersteps, use_gets,
                               use_sends, reps=2, skew=skew)
        runtime, bat = run_recorded(
            machine, p, program, label="clean", runs=runs,
            placement_policy=policy,
        )
        assert bat.final_times.shape == (runs, p)
        assert_matches_oracle(runtime, bat)
        # Clean replications are identical, and each equals the default
        # single run.
        one = BSPRuntime(
            machine, p, label="clean", placement_policy=policy
        ).run(program)
        assert bat.return_values == one.return_values
        assert bat.superstep_count == one.superstep_count
        for rec_1, rec_b in zip(one.supersteps, bat.supersteps):
            assert rec_1.messages == rec_b.messages
            assert rec_1.payload_bytes == rec_b.payload_bytes
            for name in RECORD_FIELDS:
                single = getattr(rec_1, name)
                batch = getattr(rec_b, name)
                assert batch.shape == (runs, p)
                for r in range(runs):
                    assert batch[r].tolist() == single[0].tolist(), name

    def test_single_process_run(self, quiet):
        def program(ctx):
            ctx.charge_kernel(DAXPY, 1024)
            ctx.sync()
            return ctx.pid

        res = bsp_run(quiet, 1, program, label="solo", runs=3)
        assert res.final_times.shape == (3, 1)
        assert res.return_values == [0]

    def test_scalar_total_seconds_unchanged_semantics(self, quiet):
        """The default run is one replication whose scalar total is its
        wall time."""
        program = make_program(4, 1, False, False, reps=1)
        res = bsp_run(quiet, 4, program, label="scal")
        assert res.runs == 1
        assert res.final_times.shape == (1, 4)
        assert res.total_seconds == float(res.final_times.max())
        assert res.run_seconds.shape == (1,)


def assert_both_placements_match_oracle(machine, nprocs, program, pre_drawn,
                                       runs=1):
    """Under both placements: ``block`` packs processes onto shared nodes,
    so the transmit-NIC FIFOs see real contention.  Noisy runs are checked
    against the oracle fed the transits they drew (``pre_drawn``)."""
    for policy in ("round_robin", "block"):
        runtime, result = run_recorded(
            machine, nprocs, program, label="pc", runs=runs,
            placement_policy=policy,
        )
        assert_matches_oracle(runtime, result, pre_drawn=pre_drawn)


class TestOracleBothPlacements:
    """Skewed compute over repeated supersteps, on a QUIET machine and
    on a noisy one with pre-drawn transits."""

    @pytest.mark.parametrize("noisy", [True, False])
    def test_scalar_bit_identity(self, machine, quiet, noisy):
        program = make_program(8, 4, True, True, reps=2, skew=True)
        assert_both_placements_match_oracle(
            machine if noisy else quiet, 6, program, pre_drawn=noisy
        )

    @pytest.mark.parametrize("noisy", [True, False])
    def test_batch_bit_identity(self, machine, quiet, noisy):
        program = make_program(8, 4, True, True, reps=2, skew=True)
        assert_both_placements_match_oracle(
            machine if noisy else quiet, 6, program, pre_drawn=noisy, runs=5
        )

    def test_mixed_shape_program(self, machine):
        """Supersteps alternate between two communication shapes."""

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

        assert_both_placements_match_oracle(
            machine, 4, program, pre_drawn=True
        )


class TestNoisyDistribution:
    def test_ensemble_agrees_with_looped_scalar_runs(self):
        """Two-sample KS, per data superstep, between the batched
        ensemble's transfer span and the oracle's, the oracle drawing its
        own transits for each replication's recorded commit and entry
        times."""
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=5
        )
        program = make_program(8, 2, True, False, reps=2)
        runs = 200
        runtime, batch = run_recorded(
            machine, 8, program, label="ks-batch", runs=runs
        )
        rng = machine.rng("ks-oracle")
        data_steps = [
            (rec, ss)
            for rec, ss in zip(batch.supersteps, batch.provenance.supersteps)
            if ss.pass1 is not None
        ]
        assert len(data_steps) == 2
        for rec, ss in data_steps:
            span = rec.last_arrival.max(axis=1) - rec.entry_times.min(axis=1)
            oracle = np.array([
                oracle_transfers(
                    runtime, ss, r, noise=machine.noise, rng=rng
                ).last_arrival.max() - rec.entry_times[r].min()
                for r in range(runs)
            ])
            # 1% two-sample KS critical value for n = m = 200 is ~0.163.
            grid = np.sort(np.concatenate([span, oracle]))
            ks = np.abs(
                np.searchsorted(np.sort(span), grid, side="right") / runs
                - np.searchsorted(np.sort(oracle), grid, side="right") / runs
            ).max()
            assert ks < 0.163, f"KS={ks:.3f} at superstep {rec.index}"
            assert np.median(span) == pytest.approx(np.median(oracle), rel=0.05)

    def test_batch_reproducible_and_rows_vary(self, machine):
        program = make_program(6, 2, False, True, reps=1)
        a = bsp_run(machine, 6, program, label="rep", runs=16)
        b = bsp_run(machine, 6, program, label="rep", runs=16)
        assert a.final_times.tolist() == b.final_times.tolist()
        assert np.unique(a.run_seconds).size > 1

    def test_noisy_data_movement_matches_scalar(self, machine):
        """Only time is noisy: delivered data and return values are those
        of the single run."""
        program = make_program(5, 2, True, True, reps=1)
        single = bsp_run(machine, 5, program, label="data")
        batch = bsp_run(machine, 5, program, label="data", runs=4)
        assert batch.return_values == single.return_values

    def test_run_seconds_and_total(self, machine):
        program = make_program(4, 1, False, False, reps=1)
        res = bsp_run(machine, 4, program, label="stats", runs=8)
        assert res.runs == 8
        assert res.run_seconds.shape == (8,)
        assert res.total_seconds == pytest.approx(res.run_seconds.mean())


class TestEdgeCases:
    def test_runs_validated(self, machine):
        program = make_program(2, 1, False, False, reps=1)
        with pytest.raises(ValueError, match="runs"):
            bsp_run(machine, 2, program, label="bad", runs=0)

    def test_runs_one_shapes(self, machine):
        program = make_program(3, 1, True, False, reps=1)
        res = bsp_run(machine, 3, program, label="one", runs=1)
        assert res.final_times.shape == (1, 3)
        assert res.runs == 1
        for rec in res.supersteps:
            assert rec.exit_times.shape == (1, 3)

    def test_reply_fifo_serves_request_arrival_order(self, quiet):
        """Large get replies from one node contend for its transmit NIC.
        The owners finish computing in the reverse of the order their
        requests arrive, so replies become ready in one order while the
        NIC must serve them in the other (request arrival)."""
        nelems = 20_000

        def program(ctx):
            p, pid = ctx.nprocs, ctx.pid
            half = p // 2
            window = np.zeros(nelems)
            scratch = np.zeros(nelems)
            ctx.push_reg(window)
            ctx.sync()
            k = (5 * (pid % half + half)) % 7
            if pid >= half:
                ctx.charge_seconds(1e-4 * (1 + k))
                ctx.get(pid - half, window, 0, scratch, nelems=nelems)
            else:
                ctx.charge_seconds(1e-3 + 1e-4 * (7 - k))
            ctx.sync()

        runtime, res = run_recorded(
            quiet, 16, program, label="replies", placement_policy="block",
        )
        assert_matches_oracle(runtime, res)
        replies = res.provenance.supersteps[1]
        assert replies.pass2.remote.all()
        requested = np.argsort(replies.pass1.arrivals[0], kind="stable")
        ready = np.argsort(replies.pass2.ready[0], kind="stable")
        assert requested.tolist() != ready.tolist()

    def test_comm_free_superstep(self, quiet):
        """A superstep with no outbound records exercises the batched
        scheduler's empty path."""

        def program(ctx):
            ctx.charge_kernel(DAXPY, 256)
            ctx.sync()

        single = bsp_run(quiet, 4, program, label="quiet")
        batch = bsp_run(quiet, 4, program, label="quiet", runs=2)
        for r in range(2):
            assert batch.final_times[r].tolist() == \
                single.final_times[0].tolist()
        assert batch.supersteps[0].messages == 0
