"""Discrete-event execution of stage-structured communication (§5.6.1).

This is the simulated counterpart of the thesis's C/MPI test harness
(Fig. 5.5): a pattern executes stage by stage; within a stage every
participant issues all its requests with one ``MPI_Startall``-like call and
blocks in ``MPI_Waitall`` until its sends are acknowledged and its receives
consumed.

Event semantics per message ``i -> j`` of ``size`` bytes:

1.  *Initiation*: process i is busy for its invocation overhead plus one
    start-overhead term per request; sends depart sequentially.
2.  *NIC serialisation*: remote messages queue FIFO at the source node's
    transmit NIC and the destination node's receive NIC, each charging
    ``nic_gap``.  This is the contention that makes dissemination patterns
    "stress the entire interconnect in most stages" (§5.4) — and it is
    deliberately invisible to the analytic model, as on real hardware.
3.  *Wire*: transit costs ``latency + size * inv_bandwidth``.
4.  *Consumption*: the receiver handles messages after it has finished its
    own initiation, one ``recv_overhead`` at a time.
5.  *Acknowledgement*: the sender's request completes one latency after
    consumption — the round trip behind the model's ``2 * L`` term.

Execution is *replication-batched*: :func:`simulate_stages_batch` runs all
``R`` noisy replications of a stage pattern as ``(R, P)`` ndarray state in
one pass.  Per replication the event semantics are exactly those of the
scalar reference engine (:mod:`repro.simmpi.reference`): initiation
cursors are per-sender cumulative sums, and Waitall exits are grouped
maxima.  The FIFO chains (transmit NIC per source node, receive NIC per
destination node, consumption per receiver) are sequential only within
their queue.  Each chain is therefore scanned over *queue slots*: the
messages are laid out ``(R, L, N)``, with ``N`` queues of at most ``L``
messages each in stable time order, and slot ``k`` of every queue and
replication is served in one step.  Every message keeps its exact
reference operations, so on the clean path (``rng=None`` or
``noise=None``) the two engines are bit-identical.

RNG draw-order contract (noisy path)
------------------------------------
All stochastic terms flow through the machine's :class:`NoiseModel` via the
caller-provided generator; passing ``rng=None`` yields clean event times.
Noise is drawn in bulk per stage, in this fixed sequence of
:meth:`NoiseModel.sample` calls:

1. invocation overheads, shape ``(R, n_participants)`` with participants
   in ascending rank order;
2. start overheads, shape ``(R, M)``;
3. wire transits, shape ``(R, M)``;
4. receive overheads, shape ``(R, M)``;
5. acknowledgement latencies, shape ``(R, M)``;

where ``M`` is the stage's message count and messages are enumerated in
fixed sender-major ``(source, destination)`` order.  Each matrix is filled
in C order, i.e. **replication-major**: replication 0 takes the first row
of draws, replication 1 the next, and so on.  This order is part of the
engine's public contract — golden artifacts were regenerated when it
replaced the reference engine's per-message interleaved draws (see
``docs/engine.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.noise import NoiseModel
from repro.machine.simmachine import CommTruth
from repro.obs import current as _telemetry
from repro.obs.provenance import EngineProvenance, StageProvenance


@dataclass
class StageEventTrace:
    """Per-stage record kept when tracing is requested.

    ``entry`` holds the clocks *before* the stage ran and ``exit`` the
    clocks after it; both are ``(P,)`` from :func:`simulate_stages` and
    ``(R, P)`` from :func:`simulate_stages_batch`.
    """

    stage: int
    entry: np.ndarray
    exit: np.ndarray
    messages: int


def stage_payload_matrix(payload_bytes, stage_idx: int, p: int) -> np.ndarray:
    """Normalise a payload specification to a P x P byte matrix.

    Accepts ``None`` (pure signals), a scalar applied to every stage, or a
    per-stage sequence whose entries are scalars or full matrices.  Shared
    by the event engine and the analytic cost model so both price the same
    traffic.
    """
    if payload_bytes is None:
        return np.zeros((p, p))
    if np.isscalar(payload_bytes):
        return np.full((p, p), float(payload_bytes))
    spec = payload_bytes[stage_idx]
    if np.isscalar(spec):
        return np.full((p, p), float(spec))
    spec = np.asarray(spec, dtype=float)
    if spec.shape != (p, p):
        raise ValueError("per-stage payload matrix has wrong shape")
    return spec


def _batch_entry_times(entry_times, runs: int, p: int) -> np.ndarray:
    """Normalise ``entry_times`` to a fresh ``(runs, p)`` float matrix."""
    if entry_times is None:
        return np.zeros((runs, p))
    t = np.array(entry_times, dtype=float)
    if t.shape == (p,):
        return np.broadcast_to(t, (runs, p)).copy()
    if t.shape == (runs, p):
        return t
    raise ValueError(
        f"entry_times must have shape ({p},) or ({runs}, {p}), got {t.shape}"
    )


def _draw(noise, rng, base, runs: int) -> np.ndarray:
    """One bulk noise matrix: ``(runs, *base.shape)``, replication-major.

    On the clean path the broadcast base values are returned as a
    (read-only) view — no RNG state is consumed.
    """
    if rng is None or noise is None:
        return np.broadcast_to(base, (runs, *np.shape(base)))
    return noise.sample_matrix(rng, base, runs)


def _fifo_slots(ready, msgs, queues):
    """Lay the messages ``msgs`` out as ``(R, L, N)`` FIFO slots.

    ``ready`` is the ``(R, M)`` time at which every message of the stage
    joins its FIFO, and ``queues`` holds, per message of ``msgs``, the
    FIFO it queues at (a node's NIC, or a receiver).  A FIFO serves its
    messages in ``(ready, index)`` order: the reference engine's stable
    global order, restricted to that FIFO.  ``N`` counts the FIFOs that
    carry messages, in ascending order, and ``L`` is the most any of them
    carries.  Slot ``[r, k, c]`` holds the index of the ``k``-th message
    FIFO ``c`` serves in replication ``r``, or ``-1`` in a padded tail
    slot.  Gathering through ``-1`` reads the stage's last message: a
    padded slot then only advances its FIFO's state after the FIFO's last
    real message, and nothing reads that state after the scan.

    Returns ``(order, slots, dest)``: ``order`` is ``(R, len(msgs))``,
    each replication's messages sorted by ``(FIFO, ready)``; ``dest``
    maps those sorted positions to flat ``(L, N)`` slot positions, and is
    ``None`` when one FIFO carries every message, so that the layout is
    ``order`` itself.
    """
    counts = np.bincount(queues)
    counts = counts[counts > 0]
    times = ready[:, msgs]
    if counts.size == 1:
        order = msgs[np.argsort(times, axis=1, kind="stable")]
        return order, order[:, :, None], None
    order = msgs[np.lexsort((times, np.broadcast_to(queues, times.shape)))]
    width = counts.size
    queue = np.repeat(np.arange(width), counts)
    start = np.cumsum(counts) - counts
    dest = (np.arange(queue.size) - start[queue]) * width + queue
    slots = np.full((ready.shape[0], int(counts.max()) * width), -1,
                    dtype=np.intp)
    slots[:, dest] = order
    return order, slots.reshape(ready.shape[0], -1, width), dest


def _unslot(lay: np.ndarray, dest) -> np.ndarray:
    """``(R, L, N)`` slot values back in :func:`_fifo_slots` sorted order."""
    if dest is None:
        return lay[:, :, 0]
    return lay.reshape(lay.shape[0], -1)[:, dest]


def _nic_scan(ready, msgs, nodes, gap: float):
    """A NIC FIFO per node: each message enters the wire at
    ``max(ready, free)``, and the NIC is free again ``gap`` later.

    Returns every message's grant time (messages not in ``msgs`` keep
    ``ready``) and the FIFO layout, for :func:`_predecessors`.
    """
    order, slots, dest = _fifo_slots(ready, msgs, nodes)
    rows = np.arange(ready.shape[0])[:, None]
    lay = ready[rows[:, :, None], slots]
    free = np.zeros((ready.shape[0], slots.shape[2]))
    for k in range(slots.shape[1]):
        grant = lay[:, k]
        np.maximum(grant, free, out=grant)
        np.add(grant, gap, out=free)
    granted = ready.copy()
    granted[rows, order] = _unslot(lay, dest)
    return granted, (order, slots, dest)


def _predecessors(shape, fifo) -> np.ndarray:
    """Each message's previous slot on its FIFO (``-1``: none, or the
    message did not queue there); ``fifo`` is a :func:`_fifo_slots`
    result or ``None`` for no FIFO at all."""
    pred = np.full(shape, -1, dtype=np.intp)
    if fifo is not None:
        order, slots, dest = fifo
        prev = np.full_like(slots, -1)
        prev[:, 1:] = slots[:, :-1]
        pred[np.arange(shape[0])[:, None], order] = _unslot(prev, dest)
    return pred


def simulate_stages_batch(
    truth: CommTruth,
    stages,
    runs: int = 1,
    payload_bytes=None,
    rng: np.random.Generator | None = None,
    noise: NoiseModel | None = None,
    entry_times: np.ndarray | None = None,
    trace: list[StageEventTrace] | None = None,
    provenance: EngineProvenance | None = None,
) -> np.ndarray:
    """Execute ``runs`` noisy replications of the stage pattern in one pass.

    Returns the ``(runs, P)`` matrix of per-replication exit times.
    ``entry_times`` may be ``(P,)`` (shared by every replication) or
    ``(runs, P)``.  With ``rng=None`` (or ``noise=None``) every replication
    is the identical clean execution, computed once and broadcast.

    Stage traces are **opt-in**: pass ``trace=[]`` to collect
    :class:`StageEventTrace` records, or enable telemetry
    (:mod:`repro.obs`), under which the engine collects them internally
    and emits one host span per call plus one *simulated-time* span
    summary per stage.  With both off, the stage loop allocates no
    per-stage trace state.  Telemetry draws no randomness and never
    changes the returned exits.

    Event provenance is likewise opt-in: pass a fresh
    :class:`repro.obs.provenance.EngineProvenance` as ``provenance=`` to
    record every event time plus NIC/receiver FIFO predecessor links,
    enough for :mod:`repro.obs.critpath` to rebuild the full event graph.
    Recording draws no randomness and never changes the returned exits.
    """
    tele = _telemetry()
    if tele is None:
        return _simulate_stages_batch(
            truth, stages, runs, payload_bytes, rng, noise, entry_times,
            trace, provenance,
        )
    stages = list(stages)
    eng_trace: list[StageEventTrace] = trace if trace is not None else []
    first = len(eng_trace)
    with tele.span(
        "engine.simulate_stages_batch",
        runs=int(runs),
        nprocs=int(truth.nprocs),
        stages=len(stages),
        clean=bool(rng is None or noise is None),
    ) as span:
        exits = _simulate_stages_batch(
            truth, stages, runs, payload_bytes, rng, noise, entry_times,
            eng_trace, provenance,
        )
        for rec in eng_trace[first:]:
            entry_min = float(rec.entry.min()) if rec.entry.size else 0.0
            exit_max = float(rec.exit.max()) if rec.exit.size else 0.0
            tele.emit_span(
                "engine.stage",
                entry_min,
                exit_max - entry_min,
                time_base="sim",
                stage=int(rec.stage),
                messages=int(rec.messages),
                runs=int(runs),
                sim_exit_mean_s=float(
                    np.atleast_2d(rec.exit).max(axis=-1).mean()
                ),
            )
        span.set(
            "sim_makespan_s", float(exits.max()) if exits.size else 0.0
        )
    return exits


def _simulate_stages_batch(
    truth: CommTruth,
    stages,
    runs: int,
    payload_bytes,
    rng: np.random.Generator | None,
    noise: NoiseModel | None,
    entry_times: np.ndarray | None,
    trace: list[StageEventTrace] | None,
    provenance: EngineProvenance | None = None,
) -> np.ndarray:
    if runs < 1:
        raise ValueError("runs must be >= 1")
    p = truth.nprocs
    clean = rng is None or noise is None

    if clean and runs > 1 and (
        entry_times is None or np.asarray(entry_times).ndim == 1
    ):
        # Clean replications are identical: compute one, broadcast all.
        # Provenance rides through the runs=1 sub-call with its arrays
        # left single-row (rep_row clamps), only the requested replication
        # count re-tagged.
        sub_trace: list[StageEventTrace] | None = (
            [] if trace is not None else None
        )
        one = _simulate_stages_batch(
            truth, stages, runs=1, payload_bytes=payload_bytes,
            rng=None, noise=None, entry_times=entry_times, trace=sub_trace,
            provenance=provenance,
        )
        if provenance is not None:
            provenance.runs = int(runs)
        if trace is not None:
            trace.extend(
                StageEventTrace(
                    stage=rec.stage,
                    entry=np.broadcast_to(rec.entry[0], (runs, p)).copy(),
                    exit=np.broadcast_to(rec.exit[0], (runs, p)).copy(),
                    messages=rec.messages,
                )
                for rec in sub_trace  # type: ignore[union-attr]
            )
        return np.broadcast_to(one[0], (runs, p)).copy()

    stages = list(stages)
    nodes = np.array(
        [truth.placement.node_of(r) for r in range(p)], dtype=np.intp
    )
    remote = nodes[:, None] != nodes[None, :]
    rows = np.arange(runs)

    t = _batch_entry_times(entry_times, runs, p)

    capture = provenance is not None
    if capture:
        provenance.runs = int(runs)
        provenance.nprocs = int(p)
        provenance.nic_gap = float(truth.nic_gap)
        provenance.initial_entry = t.copy()

    for s_idx, stage in enumerate(stages):
        stage = np.asarray(stage, dtype=bool)
        if stage.shape != (p, p):
            raise ValueError(f"stage {s_idx} has wrong shape {stage.shape}")
        src, dst = np.nonzero(stage)  # sender-major fixed message order
        n_msg = src.size
        if n_msg == 0:
            # A stage with receivers but no senders cannot occur in a valid
            # pattern; a fully empty stage just costs nothing.
            continue
        payload = stage_payload_matrix(payload_bytes, s_idx, p)
        # Entry snapshot only when a trace/provenance was requested: the
        # untraced hot path must not allocate per-stage (R, P) copies.
        stage_entry = t.copy() if (trace is not None or capture) else None

        out_deg = stage.sum(axis=1)
        in_deg = stage.sum(axis=0)
        participants = np.flatnonzero(out_deg + in_deg)
        senders = np.flatnonzero(out_deg)
        send_counts = out_deg[senders]
        receivers = np.flatnonzero(in_deg)
        offsets = np.concatenate(([0], np.cumsum(send_counts)))
        sender_of_msg = np.repeat(np.arange(senders.size), send_counts)
        within = np.arange(n_msg) - offsets[:-1][sender_of_msg]

        # --- bulk noise (documented draw order; see module docstring) ----
        inv_vals = _draw(
            noise, rng, np.full(participants.size, truth.invocation_overhead),
            runs,
        )
        start_vals = _draw(noise, rng, truth.start_overhead[src, dst], runs)
        transit_vals = _draw(
            noise, rng,
            truth.latency[src, dst] + payload[src, dst]
            * truth.inv_bandwidth[src, dst],
            runs,
        )
        recv_vals = _draw(
            noise, rng, np.full(n_msg, truth.recv_overhead), runs
        )
        ack_vals = _draw(noise, rng, truth.latency[src, dst], runs)

        # 1. Initiation: departure cursors are per-sender cumulative sums
        # seeded with entry + invocation overhead; padding with zeros keeps
        # the prefix sums bit-identical to the reference scalar chain.
        busy_end = t.copy()
        after_inv = t[:, participants] + inv_vals
        busy_end[:, participants] = after_inv
        sender_pos = np.searchsorted(participants, senders)
        pad = np.zeros((runs, senders.size, int(send_counts.max()) + 1))
        pad[:, :, 0] = after_inv[:, sender_pos]
        pad[:, sender_of_msg, within + 1] = start_vals
        cursors = np.cumsum(pad, axis=2)
        departs = cursors[:, sender_of_msg, within + 1]
        busy_end[:, senders] = cursors[:, np.arange(senders.size), send_counts]

        # 2./3. NIC FIFOs and wire transit: remote messages queue at the
        # source node's transmit NIC in departure order and at the
        # destination node's receive NIC in arrival order.  Each FIFO
        # chain is sequential only within its node, so the scans walk node
        # slots, every node and replication at once.
        msg_remote = remote[src, dst]
        src_nodes = nodes[src]
        dst_nodes = nodes[dst]
        tx = np.flatnonzero(msg_remote)
        wire, tx_fifo = departs, None
        if tx.size:
            wire, tx_fifo = _nic_scan(
                departs, tx, src_nodes[tx], truth.nic_gap
            )
        arrivals = wire + transit_vals
        deliver, rx_fifo = arrivals, None
        if tx.size:
            deliver, rx_fifo = _nic_scan(
                arrivals, tx, dst_nodes[tx], truth.nic_gap
            )

        # 4./5. Consumption and acknowledgement: each receiver handles its
        # messages in arrival order, starting at its own initiation end;
        # the scan walks receiver slots.
        recv_fifo = _fifo_slots(arrivals, np.arange(n_msg), dst)
        order, slots, dest = recv_fifo
        lay = deliver[rows[:, None, None], slots]
        recv_lay = recv_vals[rows[:, None, None], slots]
        cursor = busy_end[:, receivers]
        for k in range(slots.shape[1]):
            handle = lay[:, k]
            np.maximum(handle, cursor, out=handle)
            np.add(handle, recv_lay[:, k], out=handle)
            cursor = handle
        handles = np.empty((runs, n_msg))
        handles[rows[:, None], order] = _unslot(lay, dest)
        acks = handles + ack_vals

        # Stage exit: Waitall returns when sends are acked and receives
        # consumed — grouped maxima over the fixed message order;
        # non-participants pass through untouched.
        new_t = t.copy()
        new_t[:, participants] = busy_end[:, participants]
        ack_max = np.maximum.reduceat(acks, offsets[:-1], axis=1)
        new_t[:, senders] = np.maximum(new_t[:, senders], ack_max)
        recv_perm = np.argsort(dst, kind="stable")  # group by receiver
        recv_offsets = np.cumsum(in_deg[receivers]) - in_deg[receivers]
        cons_max = np.maximum.reduceat(
            handles[:, recv_perm], recv_offsets, axis=1
        )
        new_t[:, receivers] = np.maximum(new_t[:, receivers], cons_max)
        t = new_t
        if capture:
            provenance.stages.append(
                StageProvenance(
                    stage=s_idx,
                    src=src,
                    dst=dst,
                    participants=participants,
                    senders=senders,
                    sender_of_msg=sender_of_msg,
                    offsets=offsets,
                    msg_remote=msg_remote,
                    src_nodes=src_nodes,
                    dst_nodes=dst_nodes,
                    entry=stage_entry,
                    after_inv=after_inv,
                    departs=departs,
                    wire_entry=wire,
                    tx_pred=_predecessors((runs, n_msg), tx_fifo),
                    arrivals=arrivals,
                    deliver=deliver,
                    rx_pred=_predecessors((runs, n_msg), rx_fifo),
                    handles=handles,
                    recv_pred=_predecessors((runs, n_msg), recv_fifo),
                    acks=acks,
                    busy_end=busy_end,
                    exit=t,
                )
            )
        if trace is not None:
            trace.append(
                StageEventTrace(
                    stage=s_idx,
                    entry=stage_entry,
                    exit=t.copy(),
                    messages=n_msg,
                )
            )
    if capture:
        provenance.final_exit = t
    return t


def simulate_stages(
    truth: CommTruth,
    stages,
    payload_bytes=None,
    rng: np.random.Generator | None = None,
    noise: NoiseModel | None = None,
    entry_times: np.ndarray | None = None,
    trace: list[StageEventTrace] | None = None,
    provenance: EngineProvenance | None = None,
) -> np.ndarray:
    """Execute stage matrices over the ground truth; return exit times.

    ``payload_bytes`` may be ``None`` (pure signals), a scalar, or a
    per-stage sequence of scalars/matrices.  ``entry_times`` lets callers
    model skewed arrival at the synchronisation point.

    This is the single-replication view of :func:`simulate_stages_batch`;
    callers measuring many noisy runs should pass ``runs=R`` there instead
    of looping here.  A ``provenance`` record is filled with
    single-replication rows.
    """
    p = truth.nprocs
    if entry_times is not None and np.shape(entry_times) != (p,):
        raise ValueError(f"entry_times must have shape ({p},)")
    batch_trace: list[StageEventTrace] | None = (
        [] if trace is not None else None
    )
    exits = simulate_stages_batch(
        truth,
        stages,
        runs=1,
        payload_bytes=payload_bytes,
        rng=rng,
        noise=noise,
        entry_times=entry_times,
        trace=batch_trace,
        provenance=provenance,
    )
    if trace is not None:
        trace.extend(
            StageEventTrace(
                stage=rec.stage,
                entry=rec.entry[0],
                exit=rec.exit[0],
                messages=rec.messages,
            )
            for rec in batch_trace  # type: ignore[union-attr]
        )
    return exits[0]
