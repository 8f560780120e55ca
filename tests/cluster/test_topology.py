"""Unit and property tests for topology and placement (§5.2, §5.6.6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import presets
from repro.cluster.topology import Placement, Relation, Topology


@pytest.fixture
def xeon():
    return Topology(nodes=8, sockets_per_node=2, cores_per_socket=4, name="xeon")


class TestTopology:
    def test_dimensions(self, xeon):
        assert xeon.cores_per_node == 8
        assert xeon.total_cores == 64

    def test_node_of(self, xeon):
        assert xeon.node_of(0) == 0
        assert xeon.node_of(7) == 0
        assert xeon.node_of(8) == 1
        assert xeon.node_of(63) == 7

    def test_socket_of(self, xeon):
        assert xeon.socket_of(0) == 0
        assert xeon.socket_of(3) == 0
        assert xeon.socket_of(4) == 1
        assert xeon.socket_of(8) == 2

    def test_relation_classes(self, xeon):
        assert xeon.relation(0, 0) == Relation.SELF
        assert xeon.relation(0, 1) == Relation.SAME_SOCKET
        assert xeon.relation(0, 4) == Relation.SAME_NODE
        assert xeon.relation(0, 8) == Relation.REMOTE

    def test_relation_symmetry(self, xeon):
        for a, b in [(0, 1), (0, 4), (0, 8), (3, 60)]:
            assert xeon.relation(a, b) == xeon.relation(b, a)

    def test_core_out_of_range(self, xeon):
        with pytest.raises(ValueError):
            xeon.node_of(64)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Topology(nodes=0, sockets_per_node=1, cores_per_socket=1)

    def test_describe_mentions_counts(self, xeon):
        assert "8 nodes" in xeon.describe()
        assert "64 cores" in xeon.describe()


class TestRoundRobinPlacement:
    def test_single_node_when_fits(self, xeon):
        pl = Placement.round_robin(xeon, 8)
        assert all(pl.node_of(r) == 0 for r in range(8))

    def test_two_nodes_parity(self, xeon):
        """§5.6.6: with two nodes, rank parity determines the node."""
        pl = Placement.round_robin(xeon, 12)
        for r in range(12):
            assert pl.node_of(r) == r % 2

    def test_uses_minimal_nodes(self, xeon):
        pl = Placement.round_robin(xeon, 17)
        nodes = {pl.node_of(r) for r in range(17)}
        assert nodes == {0, 1, 2}

    def test_full_machine(self, xeon):
        pl = Placement.round_robin(xeon, 64)
        assert sorted(pl.cores.tolist()) == list(range(64))

    def test_rejects_oversubscription(self, xeon):
        with pytest.raises(ValueError):
            Placement.round_robin(xeon, 65)

    def test_core_index_by_position(self, xeon):
        """§5.2: core index = position in sorted co-resident rank list."""
        pl = Placement.round_robin(xeon, 16)
        # Ranks 0,2,4,...,14 land on node 0 in order -> cores 0..7.
        even_ranks = [r for r in range(16) if r % 2 == 0]
        for pos, r in enumerate(even_ranks):
            assert pl.core_of(r) == pos


class TestBlockPlacement:
    def test_identity_mapping(self, xeon):
        pl = Placement.block(xeon, 10)
        assert pl.cores.tolist() == list(range(10))


class TestRelationMatrix:
    def test_matches_pairwise_calls(self, xeon):
        pl = Placement.round_robin(xeon, 12)
        mat = pl.relation_matrix()
        for a in range(12):
            for b in range(12):
                assert mat[a, b] == int(pl.relation(a, b))

    def test_diagonal_self(self, xeon):
        mat = Placement.round_robin(xeon, 6).relation_matrix()
        assert (np.diag(mat) == int(Relation.SELF)).all()


@given(
    nodes=st.integers(1, 6),
    sockets=st.integers(1, 3),
    cores=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_round_robin_properties(nodes, sockets, cores, data):
    """Placement is injective, in-range, and balanced across used nodes."""
    topo = Topology(nodes=nodes, sockets_per_node=sockets, cores_per_socket=cores)
    nprocs = data.draw(st.integers(1, topo.total_cores))
    pl = Placement.round_robin(topo, nprocs)
    assert pl.nprocs == nprocs
    cores_used = pl.cores
    assert np.unique(cores_used).size == nprocs
    per_node = np.bincount(
        [topo.node_of(int(c)) for c in cores_used], minlength=nodes
    )
    used = per_node[per_node > 0]
    # Round-robin keeps node loads within one of each other.
    assert used.max() - used.min() <= 1
    # No node exceeds its capacity.
    assert per_node.max() <= topo.cores_per_node


class TestPlacementValidation:
    def test_duplicate_core_rejected(self, xeon):
        with pytest.raises(ValueError, match="one core"):
            Placement(xeon, [0, 0])

    def test_out_of_topology_core_rejected(self, xeon):
        with pytest.raises(ValueError):
            Placement(xeon, [0, 99])

    def test_rank_out_of_range(self, xeon):
        pl = Placement.block(xeon, 4)
        with pytest.raises(ValueError):
            pl.core_of(4)


class TestPlacementNodeMaps:
    @pytest.mark.parametrize("name", presets.preset_names())
    @pytest.mark.parametrize("policy", ["round_robin", "block"])
    def test_maps_match_per_rank_calls(self, name, policy):
        topo = presets.get_preset(name).topology()
        for nprocs in sorted({1, 2, topo.total_cores // 2 + 1, topo.total_cores}):
            pl = getattr(Placement, policy)(topo, nprocs)
            assert pl.nodes.tolist() == [
                topo.node_of(pl.core_of(r)) for r in range(nprocs)
            ]
            assert pl.nodes.tolist() == [pl.node_of(r) for r in range(nprocs)]
            assert pl.sockets.tolist() == [
                topo.socket_of(pl.core_of(r)) for r in range(nprocs)
            ]

    def test_maps_read_only(self, xeon):
        pl = Placement.round_robin(xeon, 12)
        for array in (pl.cores, pl.nodes, pl.sockets):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 5

    def test_callers_cores_stay_writable(self, xeon):
        cores = np.arange(4, dtype=np.int64)
        Placement(xeon, cores)
        cores[0] = 9
        assert cores[0] == 9
