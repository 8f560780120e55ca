"""Opt-in event provenance recorded by the simulation engines.

The batched event engine (:mod:`repro.simmpi.engine`) and the BSP
runtime (:mod:`repro.bsplib.runtime`) can optionally record *where every
event time came from*: the per-stage entry/initiation/NIC/arrival/exit
arrays they compute anyway, plus the FIFO predecessor links their
per-node scan loops resolve (which message each transmit/receive NIC
served immediately before this one).  The containers here are plain
numpy-carrying dataclasses with **no** engine imports, so the engines can
depend on this module without a cycle through :mod:`repro.obs`.

Recording is strictly opt-in: with no provenance container passed, the
hot loops allocate nothing and compute nothing extra, and recording
itself draws no randomness and never changes a simulated time — the
arrays stored are (references to) the exact arrays the engines computed.
:mod:`repro.obs.critpath` rebuilds the full event graph from these
records and extracts critical paths; :mod:`repro.obs.attribution` turns
paths into category/process/stage blame tables.

Array shape convention: every per-replication array has a leading
replication axis ``r`` — ``runs`` rows normally, or a single broadcast
row when the engine collapsed identical clean replications (the
clean-path shortcut).  :func:`rep_row` resolves one replication's view
either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def rep_row(array: np.ndarray, r: int) -> np.ndarray:
    """Replication ``r``'s row, clamping into broadcast-collapsed arrays.

    Clean batched runs store one shared row for all ``runs``
    replications; noisy runs store one row per replication.
    """
    return array[min(int(r), array.shape[0] - 1)]


@dataclass
class StageProvenance:
    """Every event time (and FIFO predecessor) of one engine stage.

    Message arrays are in the engine's canonical sender-major
    ``(source, destination)`` order; ``*_pred`` entries are canonical
    message indices (``-1``: no predecessor — the FIFO was idle).
    ``recv_pred`` is the message the same *receiver process* consumed
    immediately before this one (``-1``: this is its first, so
    consumption waited on the receiver's own initiation end).
    """

    stage: int
    src: np.ndarray  # (M,) sender pid per message
    dst: np.ndarray  # (M,) receiver pid per message
    participants: np.ndarray  # (K,) pids touching this stage
    senders: np.ndarray  # (S,) sending pids
    sender_of_msg: np.ndarray  # (M,) index into ``senders``
    offsets: np.ndarray  # (S+1,) message ranges per sender
    msg_remote: np.ndarray  # (M,) bool: crosses a node boundary
    src_nodes: np.ndarray  # (M,) source node per message
    dst_nodes: np.ndarray  # (M,) destination node per message
    entry: np.ndarray  # (r, P) clocks at stage entry
    after_inv: np.ndarray  # (r, K) entry + invocation overhead
    departs: np.ndarray  # (r, M) send-side departure times
    wire_entry: np.ndarray  # (r, M) transmit-NIC grant times
    tx_pred: np.ndarray  # (r, M) previous message on the same tx NIC
    arrivals: np.ndarray  # (r, M) wire-exit times
    deliver: np.ndarray  # (r, M) receive-NIC delivery times
    rx_pred: np.ndarray  # (r, M) previous message on the same rx NIC
    handles: np.ndarray  # (r, M) consumption-complete times
    recv_pred: np.ndarray  # (r, M) previous message the receiver consumed
    acks: np.ndarray  # (r, M) acknowledgement arrival at the sender
    busy_end: np.ndarray  # (r, P) initiation-phase end per process
    exit: np.ndarray  # (r, P) Waitall exit per process

    @property
    def messages(self) -> int:
        return int(self.src.size)


@dataclass
class EngineProvenance:
    """One :func:`repro.simmpi.engine.simulate_stages_batch` call's record.

    Pass a fresh instance as ``provenance=`` to the engine; it fills the
    fields in place.  ``runs`` is the *requested* replication count —
    stage arrays may still carry a single broadcast row on the clean path
    (see :func:`rep_row`).
    """

    runs: int = 0
    nprocs: int = 0
    nic_gap: float = 0.0
    initial_entry: np.ndarray | None = None  # (r, P)
    stages: list[StageProvenance] = field(default_factory=list)


@dataclass
class TransferPassProvenance:
    """One BSP transfer-scheduling pass (pass 1: puts/sends/get request
    headers; pass 2: get replies), canonical ``(pid, sequence)`` order.

    ``tx_pred`` uses *global* transfer indices shared across the two
    passes of a superstep (pass-1 message ``k`` is ``k``; pass-2 message
    ``m`` is ``M1 + m``) because the transmit-NIC FIFOs persist from pass
    1 into pass 2.
    """

    src: np.ndarray  # (M,) wire source pid
    dst: np.ndarray  # (M,) wire destination pid
    remote: np.ndarray  # (M,) bool
    node_src: np.ndarray  # (M,) source node
    wire_cost: np.ndarray  # (M,) NIC occupancy seconds (bytes/bandwidth)
    ready: np.ndarray  # (r, M) commit (pass 1) / reply-ready (pass 2)
    wire_entry: np.ndarray  # (r, M) transmit-NIC grant times
    tx_pred: np.ndarray  # (r, M) global index of the NIC's previous message
    transits: np.ndarray  # (r, M) wire transit seconds (possibly noisy)
    arrivals: np.ndarray  # (r, M) delivery times (incl. receive overhead)


@dataclass
class SuperstepProvenance:
    """Every event time of one BSP superstep.

    ``pass1``/``pass2``/``sync`` are ``None`` when the superstep had no
    transfers / no get replies / no sync communication (``P == 1``).
    """

    index: int
    entries: np.ndarray  # (r, P) compute-end per process
    pass1: TransferPassProvenance | None = None
    is_get: np.ndarray | None = None  # (M1,) bool: get request header
    pass2: TransferPassProvenance | None = None
    sync: EngineProvenance | None = None  # dissemination sync stages
    exits: np.ndarray | None = None  # (r, P)


@dataclass
class BSPProvenance:
    """One BSP run's record; filled by ``bsp_run(..., provenance=True)``."""

    nprocs: int = 0
    runs: int = 1
    nic_gap: float = 0.0
    recv_overhead: float = 0.0
    supersteps: list[SuperstepProvenance] = field(default_factory=list)
    final_times: np.ndarray | None = None  # (r, P)
