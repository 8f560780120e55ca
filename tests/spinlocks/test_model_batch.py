"""Vectorized spinlock noise vs the preserved scalar reference.

The §5.1 handoff loop used to draw noise one deprecated ``sample_scalar``
call per acquisition; it now separates the deterministic handoff schedule
from one bulk draw (``sample`` / ``sample_matrix``).  Contract:

* clean run (a QUIET machine): bit-identical to
  :func:`repro.spinlocks.reference_spinlock` (the schedule never touched
  the noise stream);
* noisy run: per-acquisition draws land in a different stream order, but
  the ensembles are KS-equivalent;
* ``runs=R`` re-rolls the same schedule under ``R`` independent noise
  replications, replication-major; the default ``runs=1`` row is the
  one-shot bulk draw over the handoff vector.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.machine import SimMachine
from repro.spinlocks import ALGORITHMS, simulate_spinlock
from repro.spinlocks.reference import reference_spinlock


def make_machine(seed=151, noise=None):
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


class TestCleanBitIdentity:
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        nthreads=st.integers(1, 12),
        acquisitions=st.integers(1, 12),
        policy=st.sampled_from(["block", "round_robin"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_bitwise(
        self, algorithm, nthreads, acquisitions, policy
    ):
        machine = make_machine(seed=3, noise=QUIET)
        placement = machine.placement(nthreads, policy=policy)
        new = simulate_spinlock(
            machine, algorithm, placement,
            acquisitions_per_thread=acquisitions,
        )
        ref = reference_spinlock(
            machine, algorithm, placement,
            acquisitions_per_thread=acquisitions,
        )
        assert new.per_acquisition.tolist() == ref.per_acquisition.tolist()
        # total_seconds is a derived aggregate (bulk sum vs the reference's
        # sequential accumulation): equal to the last ulp, not bitwise.
        assert new.total_seconds == pytest.approx(ref.total_seconds, rel=1e-12)
        assert new.acquisitions == ref.acquisitions

    def test_clean_batch_rows_equal_scalar(self, quiet):
        placement = quiet.placement(6, policy="block")
        ref = reference_spinlock(quiet, "ticket", placement)
        batch = simulate_spinlock(quiet, "ticket", placement, runs=3)
        assert batch.per_acquisition.shape == (3, ref.acquisitions)
        for r in range(3):
            assert (
                batch.per_acquisition[r].tolist()
                == ref.per_acquisition[0].tolist()
            )


class TestNoisyDistribution:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_ensemble_agrees_with_reference(self, algorithm):
        """KS between the batched per-acquisition ensemble and repeated
        reference runs drawn from one continuing stream."""
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=9
        )
        placement = machine.placement(8, policy="block")
        runs = 24
        batch = simulate_spinlock(
            machine, algorithm, placement, acquisitions_per_thread=8,
            runs=runs,
        ).per_acquisition.ravel()
        rng = machine.rng("spinlock-ks", algorithm)
        loop = np.concatenate([
            reference_spinlock(
                machine, algorithm, placement, acquisitions_per_thread=8,
                rng=rng,
            ).per_acquisition[0]
            for _ in range(runs)
        ])
        n = batch.size
        grid = np.sort(np.concatenate([batch, loop]))
        ks = np.abs(
            np.searchsorted(np.sort(batch), grid, side="right") / n
            - np.searchsorted(np.sort(loop), grid, side="right") / n
        ).max()
        # 1% critical value for n = m = 24 * 64 acquisitions is ~0.042;
        # allow slack since acquisitions within a run share a schedule.
        assert ks < 0.08, f"KS={ks:.3f} for {algorithm}"
        assert np.median(batch) == pytest.approx(np.median(loop), rel=0.05)

    def test_scalar_noisy_path_is_runs_one_row(self, machine, quiet):
        """The default runs=1 row consumes the stream as one bulk draw over
        the (N,) handoff vector does (sample_matrix broadcasts to (1, N))."""
        placement = machine.placement(5, policy="block")
        clean = simulate_spinlock(
            quiet, "mcs", quiet.placement(5, policy="block")
        )
        one = simulate_spinlock(machine, "mcs", placement)
        assert one.per_acquisition.shape == (1, clean.acquisitions)
        drawn = machine.noise.sample(
            machine.rng("spinlock", "mcs", 5), clean.per_acquisition[0]
        )
        assert one.per_acquisition[0].tolist() == drawn.tolist()

    def test_batch_deterministic_and_rows_vary(self, machine):
        placement = machine.placement(4, policy="block")
        a = simulate_spinlock(machine, "test_and_set", placement, runs=6)
        b = simulate_spinlock(machine, "test_and_set", placement, runs=6)
        assert a.per_acquisition.tolist() == b.per_acquisition.tolist()
        assert np.unique(a.per_acquisition[:, 0]).size > 1
        assert a.run_seconds.shape == (6,)
        assert a.total_seconds == pytest.approx(a.run_seconds.mean())


class TestRunsAxis:
    def test_runs_validated(self, machine):
        with pytest.raises(ValueError, match="runs"):
            simulate_spinlock(
                machine, "mcs", machine.placement(2), runs=0
            )

    def test_noisy_batch_shape(self, machine):
        for nthreads in (2, 4):
            result = simulate_spinlock(
                machine, "mcs", machine.placement(nthreads, policy="block"),
                acquisitions_per_thread=4, runs=5,
            )
            assert result.runs == 5
            assert result.per_acquisition.shape == (5, 4 * nthreads)

    def test_clean_batch_shape(self, quiet):
        result = simulate_spinlock(
            quiet, "ticket", quiet.placement(3, policy="block"),
            acquisitions_per_thread=2, runs=4,
        )
        assert result.per_acquisition.shape == (4, 6)
        assert np.unique(result.per_acquisition, axis=0).shape[0] == 1


def test_reference_threads_critical_section(quiet):
    """reference_spinlock stores the caller's critical_section, so its
    run_seconds view agrees with its sequentially-accumulated total; at
    the default it agrees with the model's."""
    placement = quiet.placement(4, policy="block")
    ref = reference_spinlock(
        quiet, "mcs", placement, acquisitions_per_thread=4,
        critical_section=1e-6,
    )
    assert ref.run_seconds[0] == pytest.approx(ref.total_seconds, rel=1e-12)
    ref = reference_spinlock(quiet, "mcs", placement, acquisitions_per_thread=4)
    new = simulate_spinlock(quiet, "mcs", placement, acquisitions_per_thread=4)
    assert new.total_seconds == pytest.approx(ref.total_seconds, rel=1e-12)
