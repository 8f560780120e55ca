"""Calibrated ground-truth presets for the thesis's test platforms.

The constants below are *inputs to the simulator*, not reproduction claims.
They are chosen so the simulated platforms land in the thesis's measured
magnitude windows:

* DAXPY in-cache rate ~1 Gflop/s (Table 3.1 reports r ~ 990 Mflop/s),
* gigabit-ethernet-like inter-node links: ~9 us effective one-way latency
  (regression intercept scale), ~118 MB/s payload bandwidth,
* sub-microsecond shared-memory latencies stratified by socket/node,
* barrier costs in the 1e-4..2e-3 s window for 8..144 processes
  (Figs. 5.6 and 5.10),
* L1 BLAS knee at a 64 KB working set on the Athlon X2 node (Fig. 4.6).
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

from repro.cluster.noise import NoiseModel
from repro.cluster.params import CacheLevel, ClusterParams, CoreParams, LinkParams
from repro.cluster.topology import Relation, Topology
from repro.util.validation import require_int

_GIG_ETH_INV_BW = 8.5e-9  # ~118 MB/s sustained payload bandwidth


def xeon_8x2x4_params() -> ClusterParams:
    """8 nodes x dual-socket x quad-core Intel Xeon, gigabit ethernet (§5.6.6)."""
    return ClusterParams(
        links={
            Relation.SAME_SOCKET: LinkParams(0.6e-6, 0.30e-6, 0.25e-9),
            Relation.SAME_NODE: LinkParams(1.1e-6, 0.40e-6, 0.45e-9),
            Relation.REMOTE: LinkParams(9.0e-6, 1.40e-6, _GIG_ETH_INV_BW),
        },
        core=CoreParams(
            flop_rate=2.0e9,
            cache_levels=(
                CacheLevel(32 * 1024, 24.0e9),
                CacheLevel(4 * 1024 * 1024, 12.0e9),
            ),
            ram_bandwidth=5.0e9,
        ),
        # Per-message NIC/stack occupancy: gigabit MPI injects small eager
        # messages at ~100-150k msg/s, so the per-message cost is the same
        # order as the wire latency.  This is what serialises fan-out and
        # same-stage traffic sharing a node's NIC.
        nic_gap=7.0e-6,
        recv_overhead=0.40e-6,
        invocation_overhead=0.25e-6,
    )


def xeon_8x2x4_topology() -> Topology:
    return Topology(nodes=8, sockets_per_node=2, cores_per_socket=4, name="xeon-8x2x4")


def xeon_8x2x4_ib_params() -> ClusterParams:
    """The same 8x2x4 nodes on an InfiniBand-class interconnect (§9.2.4's
    "range of interconnects" future work): ~1.6 us one-way latency,
    ~1.4 GB/s payload bandwidth, and a far smaller per-message injection
    cost.  Used by the interconnect ablation to show the adaptation
    pipeline responds to the platform rather than to baked-in assumptions.
    """
    base = xeon_8x2x4_params()
    return ClusterParams(
        links={
            Relation.SAME_SOCKET: base.links[Relation.SAME_SOCKET],
            Relation.SAME_NODE: base.links[Relation.SAME_NODE],
            Relation.REMOTE: LinkParams(1.6e-6, 0.60e-6, 0.7e-9),
        },
        core=base.core,
        nic_gap=0.7e-6,
        recv_overhead=base.recv_overhead,
        invocation_overhead=base.invocation_overhead,
    )


def xeon_8x2x4_fma_params() -> ClusterParams:
    """The Xeon cluster with heterogeneous sockets (§3.3's worked example):
    every even-numbered global socket carries a multiply-accumulate unit
    running FMA-eligible kernels at twice the rate, giving uniformly
    decomposed workloads a structural load imbalance scalar models miss."""
    from dataclasses import replace

    base = xeon_8x2x4_params()
    topo = xeon_8x2x4_topology()
    return ClusterParams(
        links=base.links,
        core=replace(base.core, multiply_accumulate=True),
        nic_gap=base.nic_gap,
        recv_overhead=base.recv_overhead,
        invocation_overhead=base.invocation_overhead,
        socket_rate_scale={
            s: 2.0
            for s in range(topo.nodes * topo.sockets_per_node)
            if s % 2 == 0
        },
    )


def opteron_12x2x6_params() -> ClusterParams:
    """12 nodes x dual-socket x hex-core AMD Opteron, gigabit ethernet (§5.6.6)."""
    return ClusterParams(
        links={
            Relation.SAME_SOCKET: LinkParams(0.7e-6, 0.35e-6, 0.30e-9),
            Relation.SAME_NODE: LinkParams(1.3e-6, 0.50e-6, 0.50e-9),
            Relation.REMOTE: LinkParams(11.0e-6, 1.60e-6, _GIG_ETH_INV_BW),
        },
        core=CoreParams(
            flop_rate=1.8e9,
            cache_levels=(
                CacheLevel(64 * 1024, 20.0e9),
                CacheLevel(6 * 1024 * 1024, 10.0e9),
            ),
            ram_bandwidth=4.5e9,
        ),
        nic_gap=8.0e-6,
        recv_overhead=0.45e-6,
        invocation_overhead=0.30e-6,
    )


def opteron_12x2x6_topology() -> Topology:
    return Topology(nodes=12, sockets_per_node=2, cores_per_socket=6, name="opteron-12x2x6")


def cluster_10x2x6_topology() -> Topology:
    """The 10-node 2x6 configuration used for the 115-process SSS clustering
    output (Table 7.2); same node design as the Opteron cluster."""
    return Topology(nodes=10, sockets_per_node=2, cores_per_socket=6, name="cluster-10x2x6")


def athlon_x2_params() -> ClusterParams:
    """Single Athlon X2 workstation: two cores with private 64 KB L1 caches
    (§4.2).  Only the compute side matters for the BLAS footprint sweeps."""
    return ClusterParams(
        links={
            Relation.SAME_SOCKET: LinkParams(0.5e-6, 0.25e-6, 0.30e-9),
            Relation.SAME_NODE: LinkParams(0.9e-6, 0.35e-6, 0.50e-9),
            Relation.REMOTE: LinkParams(50.0e-6, 2.0e-6, 10.0e-9),
        },
        core=CoreParams(
            flop_rate=1.2e9,
            cache_levels=(
                CacheLevel(64 * 1024, 16.0e9),
                CacheLevel(256 * 1024, 8.0e9),
            ),
            ram_bandwidth=3.2e9,
        ),
        nic_gap=2.5e-6,
        recv_overhead=0.40e-6,
        invocation_overhead=0.25e-6,
    )


def athlon_x2_topology() -> Topology:
    return Topology(nodes=1, sockets_per_node=1, cores_per_socket=2, name="athlon-x2")


# --------------------------------------------------------------- registry

@dataclass(frozen=True)
class ClusterPreset:
    """A named, calibrated platform: parameter and topology factories.

    Every lookup builds fresh parameters and topology, but
    :func:`make_preset_machine` shares one machine per argument set
    across the process.  Campaigns and tests can never corrupt each other
    through it because it is immutable all the way down: the machine
    refuses attribute assignment, and its topology, parameters (with
    read-only mappings) and noise model are frozen values.
    """

    name: str
    params_factory: Callable[[], ClusterParams]
    topology_factory: Callable[[], Topology]
    description: str = ""

    def params(self) -> ClusterParams:
        return self.params_factory()

    def topology(self) -> Topology:
        return self.topology_factory()

    @property
    def total_cores(self) -> int:
        return self.topology().total_cores

    def scaled_topology(self, nodes: int) -> Topology:
        """The same node design scaled to ``nodes`` nodes (a weak-scaling
        axis for design-space exploration)."""
        base = self.topology()
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        return Topology(
            nodes=nodes,
            sockets_per_node=base.sockets_per_node,
            cores_per_socket=base.cores_per_socket,
            name=f"{base.name}@{nodes}n",
        )


PRESETS: dict[str, ClusterPreset] = {}


def register_preset(preset: ClusterPreset) -> ClusterPreset:
    """Register a preset under its name; later registrations override."""
    PRESETS[preset.name] = preset
    return preset


def get_preset(name: str) -> ClusterPreset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown cluster preset {name!r} (known: {known})") from None


def preset_names() -> list[str]:
    return sorted(PRESETS)


#: Most preset machines :func:`make_preset_machine` keeps.  The
#: end-to-end benchmark's `barrier-cost` campaigns use up to 25 (one per
#: seed); a machine holds its placements and profile-cache keys.
MACHINE_CACHE_SIZE = 32

_DEFAULT_NOISE = NoiseModel()  # built once: its checks cost a lookup 7 us


def make_preset_machine(name: str, *, nodes: int | None = None, seed: int = 2012,
                        noise=None):
    """The :class:`~repro.machine.simmachine.SimMachine` of a preset name —
    the string-referenceable entry point design-space specs use.

    Equal arguments return one shared, immutable machine (from an LRU of
    :data:`MACHINE_CACHE_SIZE`, keyed by the registered preset, ``nodes``,
    ``seed`` and ``noise``, with ``None`` meaning the default
    :class:`NoiseModel`), so the machine and what it memoises (its
    placements and profile-cache keys) are built once per
    process rather than once per design point.
    """
    return _shared_machine(
        get_preset(name),
        None if nodes is None else require_int(nodes, "nodes"),
        require_int(seed, "seed"),
        _DEFAULT_NOISE if noise is None else noise,
    )


@functools.lru_cache(maxsize=MACHINE_CACHE_SIZE)
def _shared_machine(preset: ClusterPreset, nodes: int | None, seed: int,
                    noise: NoiseModel):
    from repro.machine.simmachine import SimMachine

    topology = preset.topology() if nodes is None else preset.scaled_topology(nodes)
    return SimMachine(topology, preset.params(), noise=noise, seed=seed)


register_preset(ClusterPreset(
    name="xeon-8x2x4",
    params_factory=xeon_8x2x4_params,
    topology_factory=xeon_8x2x4_topology,
    description="8 nodes x 2 sockets x 4-core Xeon, gigabit ethernet (§5.6.6)",
))
register_preset(ClusterPreset(
    name="xeon-8x2x4-ib",
    params_factory=xeon_8x2x4_ib_params,
    topology_factory=xeon_8x2x4_topology,
    description="the Xeon cluster on an InfiniBand-class interconnect (§9.2.4)",
))
register_preset(ClusterPreset(
    name="xeon-8x2x4-fma",
    params_factory=xeon_8x2x4_fma_params,
    topology_factory=xeon_8x2x4_topology,
    description="the Xeon cluster with 2x-rate FMA units on even sockets (§3.3)",
))
register_preset(ClusterPreset(
    name="opteron-12x2x6",
    params_factory=opteron_12x2x6_params,
    topology_factory=opteron_12x2x6_topology,
    description="12 nodes x 2 sockets x 6-core Opteron, gigabit ethernet (§5.6.6)",
))
register_preset(ClusterPreset(
    name="cluster-10x2x6",
    params_factory=opteron_12x2x6_params,
    topology_factory=cluster_10x2x6_topology,
    description="10-node 2x6 configuration of the Table 7.2 SSS study",
))
register_preset(ClusterPreset(
    name="athlon-x2",
    params_factory=athlon_x2_params,
    topology_factory=athlon_x2_topology,
    description="dual-core Athlon X2 workstation for the BLAS sweeps (§4.2)",
))
