"""Batched engine vs the scalar reference: identity and distribution.

The contract under test (docs/engine.md):

* clean path (``rng=None``): :func:`simulate_stages_batch` and the
  preserved scalar engine :mod:`repro.simmpi.reference` are *bit-identical*
  for every registered pattern family, payload specification, and entry
  skew;
* noisy path: the batched replication-major draw order produces different
  individual runs but statistically equivalent ensembles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.barriers.patterns import (
    dissemination_barrier,
    linear_barrier,
    pairwise_exchange_barrier,
    tree_barrier,
)
from repro.cluster import presets
from repro.machine.simmachine import SimMachine
from repro.simmpi import reference
from repro.simmpi.engine import simulate_stages_batch

#: The families named by the acceptance criteria.
FAMILIES = {
    "linear": linear_barrier,
    "tree": tree_barrier,
    "dissemination": dissemination_barrier,
    "pairwise": pairwise_exchange_barrier,
}


def simulate_once(truth, stages, **kwargs):
    """One execution: row 0 of a ``runs=1`` engine call."""
    return simulate_stages_batch(truth, stages, runs=1, **kwargs)[0]


def make_pattern(name: str, p: int):
    if name == "pairwise":
        p = 1 << (p.bit_length() - 1)  # family requires a power of two
    return FAMILIES[name](p)


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=77
    )


def payload_spec(kind: str, num_stages: int, p: int):
    if kind == "none":
        return None
    if kind == "scalar":
        return 4096.0
    if kind == "per-stage-scalars":
        return [64.0 * (s + 1) for s in range(num_stages)]
    # Per-stage full matrices with asymmetric traffic.
    return [
        np.fromfunction(lambda i, j: 8.0 * (i + 2 * j + s), (p, p))
        for s in range(num_stages)
    ]


class TestCleanBitIdentity:
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        p=st.integers(2, 24),
        payload_kind=st.sampled_from(
            ["none", "scalar", "per-stage-scalars", "per-stage-matrices"]
        ),
        skew_seed=st.integers(0, 1000),
        runs=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_reference_bitwise(
        self, family, p, payload_kind, skew_seed, runs
    ):
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=7
        )
        pattern = make_pattern(family, p)
        p = pattern.nprocs
        placement = machine.placement(p)
        truth = machine.comm_truth(placement)
        payload = payload_spec(payload_kind, pattern.num_stages, p)
        entry = np.random.default_rng(skew_seed).uniform(0, 1e-3, p)

        ref = reference.simulate_stages(
            truth, pattern.stages, payload_bytes=payload, entry_times=entry
        )
        batch = simulate_stages_batch(
            truth, pattern.stages, runs=runs, payload_bytes=payload,
            entry_times=entry,
        )
        assert batch.shape == (runs, p)
        for r in range(runs):
            assert batch[r].tolist() == ref.tolist()

    def test_wrapper_matches_reference_bitwise(self, machine):
        """A single clean execution at P = 16 (two nodes) matches."""
        pattern = dissemination_barrier(16)
        placement = machine.placement(16)
        truth = machine.comm_truth(placement)
        ref = reference.simulate_stages(truth, pattern.stages)
        new = simulate_once(truth, pattern.stages)
        assert new.tolist() == ref.tolist()

    def test_clean_2d_entry_rows_independent(self, machine):
        """Per-replication entry skews run the full batch path and match a
        row-by-row reference execution bitwise."""
        p = 8
        pattern = tree_barrier(p)
        placement = machine.placement(p)
        truth = machine.comm_truth(placement)
        entries = np.random.default_rng(3).uniform(0, 1e-3, (5, p))
        batch = simulate_stages_batch(
            truth, pattern.stages, runs=5, entry_times=entries
        )
        for r in range(5):
            ref = reference.simulate_stages(
                truth, pattern.stages, entry_times=entries[r]
            )
            assert batch[r].tolist() == ref.tolist()


#: Stage shapes that stress the FIFO scans' node-slot layout.
STAGE_KINDS = ("sparse", "one-message", "gather", "all-local", "total-exchange")


def make_stage(kind: str, nodes: np.ndarray, rng) -> np.ndarray:
    """One ``kind`` stage over ranks placed on ``nodes``; no self-sends."""
    p = nodes.size
    off_diagonal = ~np.eye(p, dtype=bool)
    if kind == "sparse":
        return (rng.random((p, p)) < rng.uniform(0.05, 0.5)) & off_diagonal
    if kind == "one-message":
        stage = np.zeros((p, p), dtype=bool)
        i, j = rng.choice(p, size=2, replace=False)
        stage[i, j] = True
        return stage
    if kind == "gather":
        # Every rank sends to one rank on a single destination node.
        targets = np.flatnonzero(nodes == rng.choice(nodes))
        stage = np.zeros((p, p), dtype=bool)
        stage[np.arange(p), rng.choice(targets, size=p)] = True
        return stage & off_diagonal
    if kind == "all-local":
        same_node = nodes[:, None] == nodes[None, :]
        return same_node & off_diagonal & (rng.random((p, p)) < 0.6)
    return off_diagonal


class TestNodeSlotScans:
    """The FIFO scans over node slots against the per-message reference.

    ``(runs, P)`` entry skews give every replication its own departure
    and arrival orders, so each row exercises a different slot layout.
    """

    @given(
        p=st.integers(2, 24),
        policy=st.sampled_from(["round_robin", "block"]),
        kinds=st.lists(st.sampled_from(STAGE_KINDS), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
        runs=st.integers(2, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_reference_bitwise(self, p, policy, kinds, seed, runs):
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=7
        )
        placement = machine.placement(p, policy=policy)
        nodes = np.array([placement.node_of(r) for r in range(p)])
        truth = machine.comm_truth(placement)
        rng = np.random.default_rng(seed)
        stages = [make_stage(kind, nodes, rng) for kind in kinds]
        payload = [rng.uniform(0.0, 4096.0, (p, p)) for _ in stages]
        # Coarse skews: rows differ, and equal entries make ties that
        # only the canonical (source, destination) order breaks.
        entries = rng.integers(0, 4, (runs, p)) * 1e-5

        batch = simulate_stages_batch(
            truth, stages, runs=runs, payload_bytes=payload,
            entry_times=entries,
        )
        for r in range(runs):
            ref = reference.simulate_stages(
                truth, stages, payload_bytes=payload, entry_times=entries[r]
            )
            assert batch[r].tolist() == ref.tolist()


class TestNoisyDistribution:
    """KS-style tolerance checks: same ensemble, different draw order."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_worst_case_distribution_agrees(self, family):
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=5
        )
        pattern = make_pattern(family, 8)
        p = pattern.nprocs
        placement = machine.placement(p)
        truth = machine.comm_truth(placement)
        runs = 384
        batch = simulate_stages_batch(
            truth, pattern.stages, runs=runs,
            rng=machine.rng("batch", family), noise=machine.noise,
        ).max(axis=1)
        rng = machine.rng("loop", family)
        loop = np.array([
            reference.simulate_stages(
                truth, pattern.stages, rng=rng, noise=machine.noise
            ).max()
            for _ in range(runs)
        ])
        # Two-sample KS statistic between the ensembles; the 1% critical
        # value for n = m = 384 is ~0.118.
        grid = np.sort(np.concatenate([batch, loop]))
        ks = np.abs(
            np.searchsorted(np.sort(batch), grid, side="right") / runs
            - np.searchsorted(np.sort(loop), grid, side="right") / runs
        ).max()
        assert ks < 0.118, f"KS={ks:.3f} for {family}"
        assert np.median(batch) == pytest.approx(np.median(loop), rel=0.05)

    def test_batch_reproducible_and_rows_vary(self):
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=5
        )
        pattern = dissemination_barrier(8)
        truth = machine.comm_truth(machine.placement(8))
        a = simulate_stages_batch(
            truth, pattern.stages, runs=16,
            rng=machine.rng("s"), noise=machine.noise,
        )
        b = simulate_stages_batch(
            truth, pattern.stages, runs=16,
            rng=machine.rng("s"), noise=machine.noise,
        )
        assert a.tolist() == b.tolist()
        assert np.unique(a.max(axis=1)).size > 1


class TestEdgeCases:
    def test_runs_validated(self, machine):
        truth = machine.comm_truth(machine.placement(4))
        with pytest.raises(ValueError, match="runs"):
            simulate_stages_batch(truth, [], runs=0)

    def test_empty_stage_list(self, machine):
        truth = machine.comm_truth(machine.placement(4))
        entry = np.array([0.0, 1.0, 2.0, 3.0])
        out = simulate_stages_batch(truth, [], runs=3, entry_times=entry)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out, np.broadcast_to(entry, (3, 4)))

    def test_all_false_stage_costs_nothing(self, machine):
        truth = machine.comm_truth(machine.placement(4))
        out = simulate_stages_batch(
            truth, [np.zeros((4, 4), dtype=bool)], runs=2
        )
        np.testing.assert_array_equal(out, np.zeros((2, 4)))

    def test_single_node_placement_no_nic(self, machine):
        """A placement confined to one node never touches a NIC FIFO and
        still matches the reference bitwise."""
        placement = machine.placement(8, policy="block")
        nodes = {placement.node_of(r) for r in range(8)}
        assert len(nodes) == 1
        truth = machine.comm_truth(placement)
        pattern = dissemination_barrier(8)
        ref = reference.simulate_stages(truth, pattern.stages)
        batch = simulate_stages_batch(truth, pattern.stages, runs=3)
        for r in range(3):
            assert batch[r].tolist() == ref.tolist()

    def test_bad_entry_shape_rejected(self, machine):
        truth = machine.comm_truth(machine.placement(4))
        with pytest.raises(ValueError, match="entry_times"):
            simulate_stages_batch(
                truth, [np.zeros((4, 4), dtype=bool)], runs=2,
                entry_times=np.zeros((3, 4)),
            )

    def test_bad_stage_shape_rejected(self, machine):
        truth = machine.comm_truth(machine.placement(4))
        with pytest.raises(ValueError, match="wrong shape"):
            simulate_stages_batch(truth, [np.zeros((3, 3), dtype=bool)])
