"""Ground-truth communication and computation parameters of a cluster.

These are the *platform's* true characteristics; the modelling framework
never reads them directly.  It only ever sees statistics extracted by the
benchmark programs (`repro.bench`), mirroring the thesis's separation of
platform profile and model input (§1.2 Stage 1).

Per pairwise relation class we keep the heterogeneous Hockney-style triple
(§5.6.2): one-way wire latency ``latency``, per-request start overhead
``start_overhead`` (the cost one extra request adds to an ``MPI_Startall``
batch), and ``inv_bandwidth`` (seconds per byte).  On top of that the event
engine charges ``nic_gap`` per remote message at each node's NIC, producing
the contention that makes dissemination patterns stress the interconnect
(§5.4) without being visible to the analytic model — one honest source of
prediction error, as in the thesis.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.cluster.topology import Relation
from repro.util.validation import require_nonnegative, require_positive


@dataclass(frozen=True)
class LinkParams:
    """Pairwise cost triple for one topological relation class."""

    latency: float  # one-way wire latency [s]
    start_overhead: float  # marginal cost per started request [s]
    inv_bandwidth: float  # [s / byte]

    def __post_init__(self):
        require_nonnegative(self.latency, "latency")
        require_nonnegative(self.start_overhead, "start_overhead")
        require_nonnegative(self.inv_bandwidth, "inv_bandwidth")


@dataclass(frozen=True)
class CacheLevel:
    """One stage of the memory hierarchy seen by a core."""

    size_bytes: int  # capacity of this level
    bandwidth: float  # sustainable stream bandwidth [bytes/s]

    def __post_init__(self):
        require_positive(self.size_bytes, "size_bytes")
        require_positive(self.bandwidth, "bandwidth")


@dataclass(frozen=True)
class CoreParams:
    """Compute-side parameters of one core design (Ch. 4).

    The kernel-time model is roofline-flavoured: per element a kernel pays
    flop time (``flops / flop_rate``) plus memory time (``bytes /
    level_bandwidth``) where the level is picked by the working-set size.
    ``invocation_overhead`` is the fixed cost of entering a kernel once.
    """

    flop_rate: float  # peak scalar flop rate [flop/s]
    cache_levels: tuple[CacheLevel, ...]  # ordered, innermost first
    ram_bandwidth: float  # [bytes/s] past the last cache level
    invocation_overhead: float = 2.0e-7  # [s] per kernel invocation
    multiply_accumulate: bool = False  # fused mul+add at half cost (§3.3)
    # Stores cost a write-allocate round trip: each written byte moves this
    # many bytes of effective traffic.  This is what separates store-bound
    # kernels (saxpy) from read-only ones (sdot) in the §4.2 sweeps.
    write_allocate_factor: float = 2.0

    def __post_init__(self):
        require_positive(self.flop_rate, "flop_rate")
        require_positive(self.ram_bandwidth, "ram_bandwidth")
        require_nonnegative(self.invocation_overhead, "invocation_overhead")
        require_nonnegative(self.write_allocate_factor, "write_allocate_factor")
        if not self.cache_levels:
            raise ValueError("at least one cache level is required")
        sizes = [lvl.size_bytes for lvl in self.cache_levels]
        if sizes != sorted(sizes):
            raise ValueError("cache levels must be ordered innermost-first")

    def bandwidth_for_footprint(self, footprint_bytes: float) -> float:
        """Stream bandwidth for a working set of the given size."""
        require_nonnegative(footprint_bytes, "footprint_bytes")
        for level in self.cache_levels:
            if footprint_bytes <= level.size_bytes:
                return level.bandwidth
        return self.ram_bandwidth


@dataclass(frozen=True)
class ClusterParams:
    """Full ground-truth parameter set for a simulated cluster.

    Immutable all the way down: ``links`` and ``socket_rate_scale`` are
    stored as read-only copies of the mappings passed in, so a machine
    shared by every campaign in a process (see
    :func:`repro.cluster.presets.make_preset_machine`) cannot be changed
    under them.
    """

    links: Mapping[Relation, LinkParams]
    core: CoreParams
    nic_gap: float = 2.5e-6  # NIC occupancy per remote message [s]
    recv_overhead: float = 4.0e-7  # per-message receive handling cost [s]
    invocation_overhead: float = 2.5e-7  # O_ii: cost of an empty start call [s]
    # Optional per-core flop-rate multipliers keyed by global socket index,
    # modelling mixed processor configurations (§3.3).
    socket_rate_scale: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("links", "socket_rate_scale"):
            object.__setattr__(
                self, name, MappingProxyType(dict(getattr(self, name)))
            )
        require_nonnegative(self.nic_gap, "nic_gap")
        require_nonnegative(self.recv_overhead, "recv_overhead")
        require_nonnegative(self.invocation_overhead, "invocation_overhead")
        missing = [r for r in (Relation.SAME_SOCKET, Relation.SAME_NODE, Relation.REMOTE)
                   if r not in self.links]
        if missing:
            raise ValueError(f"links missing relations: {missing}")
        for scale in self.socket_rate_scale.values():
            require_positive(scale, "socket_rate_scale value")

    def link(self, relation: Relation) -> LinkParams:
        if relation == Relation.SELF:
            # A process "communicating" with itself is a local memcpy; treat
            # as the same-socket link with zero wire latency.
            base = self.links[Relation.SAME_SOCKET]
            return LinkParams(0.0, base.start_overhead, base.inv_bandwidth)
        return self.links[relation]
