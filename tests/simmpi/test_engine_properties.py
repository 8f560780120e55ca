"""Property-based tests of event-engine invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.barriers.patterns import (
    all_to_all_barrier,
    dissemination_barrier,
    from_stages,
    linear_barrier,
    pairwise_exchange_barrier,
    tree_barrier,
)
from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.machine import SimMachine
from repro.simmpi.engine import simulate_stages_batch

#: Every barrier family sampled by the pattern/size property tests.
FAMILIES = (
    linear_barrier,
    tree_barrier,
    dissemination_barrier,
    pairwise_exchange_barrier,
    all_to_all_barrier,
)


def make_pattern(family_idx: int, p: int):
    """Instantiate a sampled family at size ``p``, rounding down to a
    power of two where the family requires one (pairwise exchange)."""
    family = FAMILIES[family_idx]
    if family is pairwise_exchange_barrier:
        p = 1 << (p.bit_length() - 1)
    return family(p)


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(),
        presets.xeon_8x2x4_params(),
        noise=QUIET,
        seed=131,
    )


def run(machine, stages, p, entry=None, payload=None):
    """One clean execution: row 0 of a ``runs=1`` engine call."""
    placement = machine.placement(p)
    truth = machine.comm_truth(placement)
    return simulate_stages_batch(
        truth, stages, runs=1, entry_times=entry, payload_bytes=payload
    )[0]


@given(
    p=st.integers(2, 24),
    factory_idx=st.integers(0, 2),
    seed=st.integers(0, 100),
)
@settings(max_examples=40, deadline=None)
def test_exits_never_before_entries(p, factory_idx, seed):
    machine = SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
        noise=QUIET, seed=7,
    )
    if p > machine.topology.total_cores:
        return
    factory = (linear_barrier, tree_barrier, dissemination_barrier)[factory_idx]
    rng = np.random.default_rng(seed)
    entry = rng.uniform(0, 1e-3, p)
    exits = run(machine, factory(p).stages, p, entry=entry)
    assert (exits >= entry - 1e-15).all()


@given(p=st.integers(2, 16), seed=st.integers(0, 50))
@settings(max_examples=30, deadline=None)
def test_barrier_exit_after_global_max_entry(p, seed):
    """Any correct barrier's exits all follow the latest entry: nobody can
    leave before the straggler arrived."""
    machine = SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
        noise=QUIET, seed=7,
    )
    rng = np.random.default_rng(seed)
    entry = rng.uniform(0, 1e-3, p)
    exits = run(machine, dissemination_barrier(p).stages, p, entry=entry)
    assert (exits >= entry.max() - 1e-15).all()


class TestMonotonicity:
    def test_extra_message_never_speeds_up(self, machine):
        """Adding a signal to a stage can only keep or raise exit times."""
        p = 12
        base = dissemination_barrier(p)
        extra_stages = [s.copy() for s in base.stages]
        extra_stages[0][3, 7] = True  # one more signal in stage 0
        augmented = from_stages("augmented", extra_stages)
        t_base = run(machine, base.stages, p)
        t_aug = run(machine, augmented.stages, p)
        assert (t_aug >= t_base - 1e-15).all()

    def test_payload_monotone(self, machine):
        p = 8
        pattern = dissemination_barrier(p)
        small = run(machine, pattern.stages, p, payload=64.0).max()
        large = run(machine, pattern.stages, p, payload=64_000.0).max()
        assert large > small

    def test_slower_entry_never_earlier_exit(self, machine):
        p = 8
        pattern = tree_barrier(p)
        base_entry = np.zeros(p)
        late_entry = base_entry.copy()
        late_entry[3] = 1e-4
        t_base = run(machine, pattern.stages, p, entry=base_entry)
        t_late = run(machine, pattern.stages, p, entry=late_entry)
        assert (t_late >= t_base - 1e-15).all()


class TestEngineInvariants:
    """The suite-layer regression properties: non-negative, stage-monotone
    event times; bit-deterministic noise-free runs; exits dominating
    entries for every pattern family and size sampled."""

    @given(
        p=st.integers(2, 24),
        family_idx=st.integers(0, len(FAMILIES) - 1),
        payload=st.sampled_from([None, 64.0, 8192.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_times_nonnegative_and_stage_monotone(self, p, family_idx, payload):
        """Exit times are never negative, and simulating one more stage of
        a pattern can only keep or raise every process's clock."""
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
            noise=QUIET, seed=7,
        )
        pattern = make_pattern(family_idx, p)
        p = pattern.nprocs
        stages = pattern.stages
        previous = np.zeros(p)
        for k in range(1, len(stages) + 1):
            exits = run(machine, stages[:k], p, payload=payload)
            assert (exits >= 0.0).all()
            assert (exits >= previous - 1e-15).all(), (
                f"stage {k} lowered an exit time"
            )
            previous = exits

    @given(
        p=st.integers(2, 24),
        family_idx=st.integers(0, len(FAMILIES) - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_noise_free_runs_are_bit_deterministic(self, p, family_idx):
        """With ``rng=None`` the engine is a pure function: repeated runs
        agree bit for bit, not merely within tolerance."""
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
            noise=QUIET, seed=7,
        )
        pattern = make_pattern(family_idx, p)
        p = pattern.nprocs
        first = run(machine, pattern.stages, p, payload=256.0)
        second = run(machine, pattern.stages, p, payload=256.0)
        assert first.tolist() == second.tolist()

    @given(
        p=st.integers(2, 24),
        family_idx=st.integers(0, len(FAMILIES) - 1),
        seed=st.integers(0, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_exits_dominate_entries_for_every_family(self, p, family_idx, seed):
        """Per-process exit times dominate entry times under skewed
        arrivals for every pattern family and size sampled."""
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
            noise=QUIET, seed=7,
        )
        pattern = make_pattern(family_idx, p)
        p = pattern.nprocs
        rng = np.random.default_rng(seed)
        entry = rng.uniform(0, 1e-3, p)
        exits = run(machine, pattern.stages, p, entry=entry)
        assert (exits >= entry - 1e-15).all()
