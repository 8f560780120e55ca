"""Hierarchical cluster topology and process placement.

Models the thesis's test systems: clusters of SMP nodes, each node holding
multiple sockets, each socket multiple cores (§2.2.4, §5.6.6).  Processes are
mapped to cores by a :class:`Placement`; the default reproduces the thesis's
environment: the batch scheduler hands out *nodes* round-robin (§5.6.6) and
the affinity library pins ranks to core indices by their position in the
sorted list of co-resident ranks (§5.2).

The topological *relation* between two cores (same core / same socket / same
node / remote) is the sole index into the pairwise communication parameters,
which is exactly the locality structure the thesis's latency model captures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.util.validation import require_int


class Relation(enum.IntEnum):
    """Topological distance class between two cores (ordered by locality)."""

    SELF = 0
    SAME_SOCKET = 1
    SAME_NODE = 2
    REMOTE = 3


@dataclass(frozen=True)
class Topology:
    """A cluster of ``nodes`` x ``sockets_per_node`` x ``cores_per_socket``.

    Core ids are dense integers in ``[0, total_cores)`` laid out node-major,
    socket-major: core ``c`` lives on node ``c // cores_per_node``.
    """

    nodes: int
    sockets_per_node: int
    cores_per_socket: int
    name: str = ""

    def __post_init__(self):
        require_int(self.nodes, "nodes")
        require_int(self.sockets_per_node, "sockets_per_node")
        require_int(self.cores_per_socket, "cores_per_socket")
        if min(self.nodes, self.sockets_per_node, self.cores_per_socket) < 1:
            raise ValueError("topology dimensions must all be >= 1")

    @property
    def cores_per_node(self) -> int:
        return self.sockets_per_node * self.cores_per_socket

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    def node_of(self, core: int) -> int:
        self._check_core(core)
        return self._node_index(core)

    def socket_of(self, core: int) -> int:
        """Global socket index of a core."""
        self._check_core(core)
        return self._socket_index(core)

    def _node_index(self, cores):
        """Node of each core: unchecked, so ``cores`` may be an array."""
        return cores // self.cores_per_node

    def _socket_index(self, cores):
        """Global socket index of each core, unchecked like
        :meth:`_node_index`."""
        node, within = divmod(cores, self.cores_per_node)
        return node * self.sockets_per_node + within // self.cores_per_socket

    def relation(self, a: int, b: int) -> Relation:
        """Topological distance class between cores ``a`` and ``b``."""
        self._check_core(a)
        self._check_core(b)
        if a == b:
            return Relation.SELF
        if self.node_of(a) != self.node_of(b):
            return Relation.REMOTE
        if self.socket_of(a) != self.socket_of(b):
            return Relation.SAME_NODE
        return Relation.SAME_SOCKET

    def _check_core(self, core: int) -> None:
        require_int(core, "core")
        if not 0 <= core < self.total_cores:
            raise ValueError(
                f"core {core} out of range for {self.total_cores}-core topology"
            )

    def describe(self) -> str:
        label = self.name or "cluster"
        return (
            f"{label}: {self.nodes} nodes x {self.sockets_per_node} sockets "
            f"x {self.cores_per_socket} cores = {self.total_cores} cores"
        )


class Placement:
    """Mapping of MPI-style ranks onto topology cores.

    ``cores[r]`` is the core executing rank ``r``.  The mapping is injective;
    a rank owns its core for the duration of a run (the thesis pins affinity
    precisely to keep pairwise costs reproducible, §5.2).  ``nodes[r]`` and
    ``sockets[r]`` are rank ``r``'s node and global socket index, computed
    once here, so hot paths index them instead of calling :meth:`node_of`
    per rank.  All three arrays are read-only, so they cannot fall out of
    step, and assigning an attribute raises ``AttributeError``: a machine
    serves one placement to every caller (:meth:`SimMachine.placement
    <repro.machine.simmachine.SimMachine.placement>`).
    """

    def __init__(self, topology: Topology, cores):
        cores = np.array(cores, dtype=np.int64)  # a copy we may freeze
        if cores.ndim != 1 or cores.size == 0:
            raise ValueError("placement needs a non-empty 1-D core list")
        if np.unique(cores).size != cores.size:
            raise ValueError("placement maps two ranks to one core")
        if cores.min() < 0 or cores.max() >= topology.total_cores:
            raise ValueError("placement references cores outside the topology")
        for name, value in (
            ("topology", topology),
            ("cores", _frozen(cores)),
            ("nodes", _frozen(topology._node_index(cores).astype(np.intp))),
            ("sockets", _frozen(topology._socket_index(cores))),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Placement is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Placement is immutable: cannot delete {name!r}")

    @property
    def nprocs(self) -> int:
        return int(self.cores.size)

    def core_of(self, rank: int) -> int:
        self._check_rank(rank)
        return int(self.cores[rank])

    def node_of(self, rank: int) -> int:
        self._check_rank(rank)
        return int(self.nodes[rank])

    def _check_rank(self, rank: int) -> None:
        require_int(rank, "rank")
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range for P={self.nprocs}")

    def relation(self, a: int, b: int) -> Relation:
        return self.topology.relation(self.core_of(a), self.core_of(b))

    def relation_matrix(self) -> np.ndarray:
        """P x P integer matrix of :class:`Relation` values."""
        p = self.nprocs
        rel = np.full((p, p), int(Relation.REMOTE), dtype=np.int64)
        same_node = self.nodes[:, None] == self.nodes[None, :]
        same_socket = self.sockets[:, None] == self.sockets[None, :]
        rel[same_node] = int(Relation.SAME_NODE)
        rel[same_node & same_socket] = int(Relation.SAME_SOCKET)
        np.fill_diagonal(rel, int(Relation.SELF))
        return rel

    @classmethod
    def round_robin(cls, topology: Topology, nprocs: int) -> "Placement":
        """The thesis's default: scheduler spreads ranks over the fewest
        nodes that fit them, round-robin by rank (§5.6.6); within each node,
        ranks take core indices by their position in the sorted co-resident
        rank list (§5.2).
        """
        nprocs = require_int(nprocs, "nprocs")
        if not 1 <= nprocs <= topology.total_cores:
            raise ValueError(
                f"nprocs must be in [1, {topology.total_cores}], got {nprocs}"
            )
        nodes_used = min(topology.nodes, -(-nprocs // topology.cores_per_node))
        cores = np.empty(nprocs, dtype=np.int64)
        position_on_node = np.zeros(nodes_used, dtype=np.int64)
        for rank in range(nprocs):
            node = rank % nodes_used
            core_index = position_on_node[node] % topology.cores_per_node
            position_on_node[node] += 1
            cores[rank] = node * topology.cores_per_node + core_index
        return cls(topology, cores)

    @classmethod
    def block(cls, topology: Topology, nprocs: int) -> "Placement":
        """Fill nodes one at a time: rank r -> core r."""
        nprocs = require_int(nprocs, "nprocs")
        if not 1 <= nprocs <= topology.total_cores:
            raise ValueError(
                f"nprocs must be in [1, {topology.total_cores}], got {nprocs}"
            )
        return cls(topology, np.arange(nprocs, dtype=np.int64))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array
