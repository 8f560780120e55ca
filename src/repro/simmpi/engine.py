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
All of a call's noise is drawn in bulk before any stage is simulated,
stage by stage, each stage in this fixed sequence of
:meth:`NoiseModel.perturb` calls (the kernel behind
:meth:`NoiseModel.sample_matrix`, with identical draws):

1. invocation overheads, shape ``(R, n_participants)`` with participants
   in ascending rank order;
2. start overheads, shape ``(R, M)``;
3. wire transits, shape ``(R, M)``;
4. receive overheads, shape ``(R, M)``;
5. acknowledgement latencies, shape ``(R, M)``;

where ``M`` is the stage's message count and messages are enumerated in
fixed sender-major ``(source, destination)`` order.  Each matrix is filled
in C order, i.e. **replication-major**: replication 0 takes the first row
of draws, replication 1 the next, and so on.  Empty stages draw nothing.
This order is part of the engine's public contract — golden artifacts
were regenerated when it replaced the reference engine's per-message
interleaved draws (see ``docs/engine.md``).

Row groups
----------
``rng`` may also be a sequence of ``(Generator, rows)`` pairs whose rows
sum to ``runs``: several callers' replications in one pass, each group
drawing from its generator.  The draws are **group-major**: group ``g``
takes every stage's five draws above, as ``noise.draw(generator_g,
(rows_g, n))`` (the generator half of ``perturb``), before group ``g +
1`` takes any, and one ``noise.apply`` per (stage, kind) then perturbs
every row.  Group ``g``'s rows are therefore exactly the values a
separate ``runs=rows_g`` call with ``generator_g`` would take right
after the separate calls of the groups before it.  Groups on distinct
generators thus equal separate calls in any order, and a generator may
appear in several groups: ``[(rng, 1)] * n`` is ``n`` successive
``runs=1`` calls on ``rng``.  Every other operation is row-wise, so
group ``g``'s exit rows equal that separate call's exits bit for bit.
A single Generator is the one-group case ``[(rng, runs)]``; its draws
are used as they come, with no copy.

A stage's payload entry may be a ``(runs,)`` vector, one per-pair byte
count per row: row ``r`` then moves the bytes a call with the scalar
entry ``payload[r]`` would.  With one-row groups on one generator, a
sweep over payload sizes on one stream needs no loop of ``runs=1`` calls.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from repro.cluster.noise import NoiseModel
from repro.machine.simmachine import CommTruth
from repro.obs import current as _telemetry
from repro.obs.provenance import EngineProvenance, StageProvenance
from repro.util.validation import require_int


def stage_payload_matrix(
    payload_bytes, stage_idx: int, p: int, runs: int | None = None
) -> np.ndarray:
    """Normalise a payload specification to a P x P byte matrix.

    Accepts ``None`` (pure signals), a scalar applied to every stage, or a
    per-stage sequence whose entries are scalars or full matrices.  Shared
    by the event engine and the analytic cost model so both price the same
    traffic.  Given ``runs``, an entry may also be a ``(runs,)`` vector of
    per-pair byte counts, one per replication row, returned as a
    read-only ``(runs, P, P)`` broadcast stack.  Every byte count must be
    finite and non-negative: this is the one place payloads are checked,
    so the engine draws transit noise around them without re-validating.
    """
    if payload_bytes is None:
        return np.zeros((p, p))
    spec = payload_bytes
    if not np.isscalar(spec):
        spec = spec[stage_idx]
    if np.isscalar(spec):
        matrix = np.full((p, p), float(spec))
    else:
        matrix = np.asarray(spec, dtype=float)
        if matrix.shape not in ((p, p), (runs,)):
            raise ValueError("per-stage payload matrix has wrong shape")
    if not (np.isfinite(matrix).all() and (matrix >= 0).all()):
        raise ValueError(
            f"stage {stage_idx} payload bytes must be finite and non-negative"
        )
    if matrix.shape == (runs,):
        return np.broadcast_to(matrix[:, None, None], (runs, p, p))
    return matrix


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


def _row_groups(rng, runs: int):
    """``rng`` as a list of ``(Generator, rows)`` groups, or ``None`` for
    the clean path; a single Generator is the one group ``[(rng, runs)]``."""
    if rng is None:
        return None
    if isinstance(rng, np.random.Generator):
        return [(rng, runs)]
    groups = [(gen, require_int(rows, "rows")) for gen, rows in rng]
    if any(rows < 1 for _, rows in groups):
        raise ValueError("every row group needs rows >= 1")
    total = sum(rows for _, rows in groups)
    if total != runs:
        raise ValueError(f"row groups hold {total} rows, but runs is {runs}")
    return groups


def row_batches(pairs, width: int, budget: int):
    """Consecutive runs of ``(item, rows)`` ``pairs`` whose rows times
    ``width`` stay within ``budget`` draw cells; a pair past it on its
    own is a batch of one.

    Callers that group rows into one engine call split them this way, so
    that a wide sweep's memory stays that of a few engine calls: pass a
    stage's message count as ``width``.  Splitting never changes a value,
    since each batch continues its groups' generators where the one
    before left them.
    """
    batch, rows = [], 0
    for pair in pairs:
        if batch and (rows + pair[1]) * width > budget:
            yield batch
            batch, rows = [], 0
        batch.append(pair)
        rows += pair[1]
    if batch:
        yield batch


def _draw_stages(noise, groups, bases, runs: int) -> list[list[np.ndarray]]:
    """Every stage's noise matrices, ``(runs, width)`` and replication-major.

    ``bases`` holds, per non-empty stage, its five ``(base, width)`` draws
    in the documented order.  A base is a scalar, a per-message vector, or
    a ``(runs, width)`` per-row matrix; it goes straight to
    :meth:`NoiseModel.apply`, with no broadcast copy and no
    re-validation, since :class:`CommTruth` and
    :func:`stage_payload_matrix` have checked every duration it is built
    from.  ``groups`` is a :func:`_row_groups` list, drawn group-major:
    each group takes all its stages' :meth:`NoiseModel.draw` calls, into
    its own consecutive rows of per-(stage, kind) raw buffers, before the
    next group draws; one apply per (stage, kind) then perturbs all rows.
    On the clean path the base values come back as read-only broadcast
    views, and no RNG state is consumed.
    """
    if groups is None or noise is None:
        return [[np.broadcast_to(base, (runs, width)) for base, width in stage]
                for stage in bases]
    if len(groups) == 1:  # its rows are all the rows: no copy
        gen = groups[0][0]
        return [[noise.perturb(gen, base, (runs, width))
                 for base, width in stage] for stage in bases]
    # Per (stage, kind): factors, hits, and spikes (zeros until a hit).
    raw = [[[np.empty((runs, width)), np.empty((runs, width), bool), None]
            for _, width in stage] for stage in bases]
    start = 0
    for gen, rows in groups:
        own = slice(start, start + rows)
        for stage, cells in zip(bases, raw):
            for (_, width), cell in zip(stage, cells):
                factor, hit, spike = noise.draw(gen, (rows, width))
                cell[0][own] = factor
                if hit is not None:
                    cell[1][own] = hit
                if spike is not None:
                    if cell[2] is None:
                        cell[2] = np.zeros((runs, width))
                    cell[2][own] = spike
        start += rows
    return [[noise.apply(base, *cell) for (base, _), cell in zip(stage, cells)]
            for stage, cells in zip(bases, raw)]


#: Most stage plans :func:`_stage_plan` keeps.  A sweep that never
#: repeats a (pattern, P) pair, such as ``fig-5-6-to-5-9``, never hits the
#: cache, so an unbounded one would only grow there.
PLAN_CACHE_SIZE = 256


@dataclass(frozen=True)
class _Fifo:
    """The structural half of a FIFO slot layout (see :func:`_fifo_slots`).

    ``msgs`` are the messages that queue and ``queues`` the FIFO each one
    joins.  ``width`` counts the FIFOs that carry messages and ``depth``
    is the most any of them carries; ``dest`` maps each message's position
    in ``(FIFO, time)`` order to its flat ``(depth, width)`` slot, and is
    ``None`` when one FIFO carries every message.
    """

    msgs: np.ndarray
    queues: np.ndarray
    depth: int
    width: int
    dest: np.ndarray | None


def _fifo(msgs: np.ndarray, queues: np.ndarray) -> _Fifo:
    counts = np.bincount(queues)
    counts = counts[counts > 0]
    if counts.size == 1:
        return _Fifo(msgs, queues, int(msgs.size), 1, None)
    width = counts.size
    queue = np.repeat(np.arange(width), counts)
    start = np.cumsum(counts) - counts
    dest = (np.arange(queue.size) - start[queue]) * width + queue
    return _Fifo(msgs, queues, int(counts.max()), width, dest)


@dataclass(frozen=True)
class _StagePlan:
    """Everything about one stage that its structure and the node map fix.

    Messages are in the fixed sender-major ``(source, destination)``
    order.  ``pad_width`` is the most requests any sender issues plus one:
    the initiation cursors' zero-padded row length.  ``start_slots`` and
    ``last_slots`` index the flattened ``(senders, pad_width)`` cursors:
    each message's departure, and each sender's initiation end.
    """

    src: np.ndarray
    dst: np.ndarray
    participants: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray
    offsets: np.ndarray
    sender_of_msg: np.ndarray
    sender_pos: np.ndarray
    pad_width: int
    start_slots: np.ndarray
    last_slots: np.ndarray
    msg_remote: np.ndarray
    src_nodes: np.ndarray
    dst_nodes: np.ndarray
    tx: np.ndarray
    tx_fifo: _Fifo | None
    rx_fifo: _Fifo | None
    recv_fifo: _Fifo
    recv_perm: np.ndarray
    recv_offsets: np.ndarray


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _stage_plan(stage_key: bytes, node_key: bytes) -> _StagePlan | None:
    """The plan of the stage whose ``(P, P)`` bool bytes are ``stage_key``,
    with ranks on the nodes whose ``intp`` bytes are ``node_key``.

    A pure function of its key, so a cached plan is the cold build; its
    arrays are read-only because every later call shares them.  ``None``
    is an empty stage.
    """
    nodes = np.frombuffer(node_key, dtype=np.intp)
    p = nodes.size
    stage = np.frombuffer(stage_key, dtype=bool).reshape(p, p)
    src, dst = np.nonzero(stage)
    n_msg = src.size
    if n_msg == 0:
        return None
    out_deg = stage.sum(axis=1)
    in_deg = stage.sum(axis=0)
    participants = np.flatnonzero(out_deg + in_deg)
    senders = np.flatnonzero(out_deg)
    send_counts = out_deg[senders]
    receivers = np.flatnonzero(in_deg)
    offsets = np.concatenate(([0], np.cumsum(send_counts)))
    sender_of_msg = np.repeat(np.arange(senders.size), send_counts)
    within = np.arange(n_msg) - offsets[:-1][sender_of_msg]
    pad_width = int(send_counts.max()) + 1
    src_nodes = nodes[src]
    dst_nodes = nodes[dst]
    msg_remote = src_nodes != dst_nodes
    tx = np.flatnonzero(msg_remote)
    plan = _StagePlan(
        src=src,
        dst=dst,
        participants=participants,
        senders=senders,
        receivers=receivers,
        offsets=offsets,
        sender_of_msg=sender_of_msg,
        sender_pos=np.searchsorted(participants, senders),
        pad_width=pad_width,
        start_slots=sender_of_msg * pad_width + within + 1,
        last_slots=np.arange(senders.size) * pad_width + send_counts,
        msg_remote=msg_remote,
        src_nodes=src_nodes,
        dst_nodes=dst_nodes,
        tx=tx,
        tx_fifo=_fifo(tx, src_nodes[tx]) if tx.size else None,
        rx_fifo=_fifo(tx, dst_nodes[tx]) if tx.size else None,
        recv_fifo=_fifo(np.arange(n_msg), dst),
        recv_perm=np.argsort(dst, kind="stable"),  # group by receiver
        recv_offsets=np.cumsum(in_deg[receivers]) - in_deg[receivers],
    )
    for holder in (plan, plan.tx_fifo, plan.rx_fifo, plan.recv_fifo):
        if holder is None:
            continue
        for f in fields(holder):
            value = getattr(holder, f.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return plan


def _fifo_slots(ready, fifo: _Fifo):
    """Lay the messages of ``fifo`` out as ``(R, L, N)`` FIFO slots.

    ``ready`` is the ``(R, M)`` time at which every message of the stage
    joins its FIFO.  A FIFO serves its messages in ``(ready, index)``
    order: the reference engine's stable global order, restricted to that
    FIFO.  ``N`` is ``fifo.width`` and ``L`` is ``fifo.depth``.  Slot
    ``[r, k, c]`` holds the index of the ``k``-th message FIFO ``c``
    serves in replication ``r``, or ``-1`` in a padded tail slot.
    Gathering through ``-1`` reads the stage's last message: a padded slot
    then only advances its FIFO's state after the FIFO's last real
    message, and nothing reads that state after the scan.

    Returns ``(order, slots, dest)``: ``order`` is ``(R, len(msgs))``,
    each replication's messages sorted by ``(FIFO, ready)``; ``dest`` is
    ``fifo.dest``, or ``None`` when the layout is ``order`` itself.
    """
    times = ready[:, fifo.msgs]
    if fifo.dest is None:
        order = fifo.msgs[np.argsort(times, axis=1, kind="stable")]
        return order, order[:, :, None], None
    order = fifo.msgs[
        np.lexsort((times, np.broadcast_to(fifo.queues, times.shape)))
    ]
    slots = np.full((ready.shape[0], fifo.depth * fifo.width), -1,
                    dtype=np.intp)
    slots[:, fifo.dest] = order
    return order, slots.reshape(ready.shape[0], -1, fifo.width), fifo.dest


def _unslot(lay: np.ndarray, dest) -> np.ndarray:
    """``(R, L, N)`` slot values back in :func:`_fifo_slots` sorted order."""
    if dest is None:
        return lay[:, :, 0]
    return lay.reshape(lay.shape[0], -1)[:, dest]


def _nic_scan(ready, fifo: _Fifo, gap: float):
    """A NIC FIFO per node: each message enters the wire at
    ``max(ready, free)``, and the NIC is free again ``gap`` later.

    Returns every message's grant time (messages not in ``fifo.msgs``
    keep ``ready``) and the FIFO layout, for :func:`_predecessors`.
    """
    order, slots, dest = _fifo_slots(ready, fifo)
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
    rng=None,
    noise: NoiseModel | None = None,
    entry_times: np.ndarray | None = None,
    provenance: EngineProvenance | None = None,
) -> np.ndarray:
    """Execute ``runs`` noisy replications of the stage pattern in one pass.

    Returns the ``(runs, P)`` matrix of per-replication exit times.
    ``payload_bytes`` may be ``None`` (pure signals), a scalar, or a
    per-stage sequence of scalars, matrices or ``(runs,)`` per-row
    vectors (see the module docstring).  ``entry_times`` may be
    ``(P,)`` (shared by every replication) or ``(runs, P)``, to model
    skewed arrival at the synchronisation point.  With ``rng=None`` (or
    ``noise=None``) every replication is the identical clean execution,
    computed once and broadcast.  A single execution is row 0 of a
    ``runs=1`` call.  ``rng`` is a Generator, or a sequence of
    ``(Generator, rows)`` row groups summing to ``runs`` (see the module
    docstring), each group's rows equal to a separate call's.

    Under telemetry (:mod:`repro.obs`) the engine emits one host span per
    call plus one *simulated-time* span per stage, read as scalars off the
    stage's clocks, so no per-stage state is kept for it.  Telemetry draws
    no randomness and never changes the returned exits.

    Event provenance is opt-in: pass a fresh
    :class:`repro.obs.provenance.EngineProvenance` as ``provenance=`` to
    record every event time plus NIC/receiver FIFO predecessor links,
    enough for :mod:`repro.obs.critpath` to rebuild the full event graph.
    Recording draws no randomness and never changes the returned exits.
    """
    tele = _telemetry()
    if tele is None:
        return _simulate_stages_batch(
            truth, stages, runs, payload_bytes, rng, noise, entry_times,
            provenance, None,
        )
    stages = list(stages)
    with tele.span(
        "engine.simulate_stages_batch",
        runs=int(runs),
        nprocs=int(truth.nprocs),
        stages=len(stages),
        clean=bool(rng is None or noise is None),
    ) as span:
        exits = _simulate_stages_batch(
            truth, stages, runs, payload_bytes, rng, noise, entry_times,
            provenance, tele,
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
    rng,
    noise: NoiseModel | None,
    entry_times: np.ndarray | None,
    provenance: EngineProvenance | None,
    tele,
) -> np.ndarray:
    if runs < 1:
        raise ValueError("runs must be >= 1")
    p = truth.nprocs
    groups = _row_groups(rng, runs)
    node_key = truth.placement.nodes.tobytes()

    # Every non-empty stage's plan and noise bases, before any draw.
    work, bases, per_row = [], [], False
    for s_idx, stage in enumerate(stages):
        stage = np.asarray(stage, dtype=bool)
        if stage.shape != (p, p):
            raise ValueError(f"stage {s_idx} has wrong shape {stage.shape}")
        plan = _stage_plan(stage.tobytes(), node_key)
        if plan is None:
            # A stage with receivers but no senders cannot occur in a valid
            # pattern; a fully empty stage just costs nothing.
            continue
        src, dst = plan.src, plan.dst
        n_msg = src.size
        latency = truth.latency[src, dst]
        transit = latency
        if payload_bytes is not None:
            payload = stage_payload_matrix(payload_bytes, s_idx, p, runs)
            per_msg = payload[..., src, dst]  # (n_msg,) or (runs, n_msg)
            transit = latency + per_msg * truth.inv_bandwidth[src, dst]
            per_row = per_row or transit.ndim == 2
        work.append((s_idx, plan))
        bases.append((
            (truth.invocation_overhead, plan.participants.size),
            (truth.start_overhead[src, dst], n_msg),
            (transit, n_msg),
            (truth.recv_overhead, n_msg),
            (latency, n_msg),
        ))

    # Clean replications are identical unless their payloads or entry
    # times differ: simulate one and broadcast it to the ``requested``
    # rows.  Provenance then keeps single-row arrays (``rep_row`` clamps),
    # tagged with the requested replication count.
    requested = runs
    if (groups is None or noise is None) and not per_row and (
        entry_times is None or np.asarray(entry_times).ndim == 1
    ):
        runs = 1
    rows = np.arange(runs)
    draws = _draw_stages(noise, groups, bases, runs)

    t = _batch_entry_times(entry_times, runs, p)

    capture = provenance is not None
    if capture:
        provenance.runs = int(requested)
        provenance.nprocs = int(p)
        provenance.nic_gap = float(truth.nic_gap)
        provenance.initial_entry = t.copy()

    for (s_idx, plan), stage_draws in zip(work, draws):
        src, dst = plan.src, plan.dst
        participants, senders = plan.participants, plan.senders
        receivers = plan.receivers
        n_msg = src.size
        # Entry snapshot only when provenance is recorded: the hot path
        # must not allocate per-stage (R, P) copies.
        stage_entry = t.copy() if capture else None
        entry_min = float(t.min()) if tele is not None else 0.0
        inv_vals, start_vals, transit_vals, recv_vals, ack_vals = stage_draws

        # 1. Initiation: departure cursors are per-sender cumulative sums
        # seeded with entry + invocation overhead; padding with zeros keeps
        # the prefix sums bit-identical to the reference scalar chain.
        busy_end = t.copy()
        after_inv = t[:, participants] + inv_vals
        busy_end[:, participants] = after_inv
        pad = np.zeros((runs, senders.size, plan.pad_width))
        pad[:, :, 0] = after_inv[:, plan.sender_pos]
        flat = pad.reshape(runs, -1)
        flat[:, plan.start_slots] = start_vals
        cursors = np.cumsum(flat.reshape(pad.shape), axis=2).reshape(runs, -1)
        departs = cursors[:, plan.start_slots]
        busy_end[:, senders] = cursors[:, plan.last_slots]

        # 2./3. NIC FIFOs and wire transit: remote messages queue at the
        # source node's transmit NIC in departure order and at the
        # destination node's receive NIC in arrival order.  Each FIFO
        # chain is sequential only within its node, so the scans walk node
        # slots, every node and replication at once.
        wire, tx_fifo = departs, None
        if plan.tx.size:
            wire, tx_fifo = _nic_scan(departs, plan.tx_fifo, truth.nic_gap)
        arrivals = wire + transit_vals
        deliver, rx_fifo = arrivals, None
        if plan.tx.size:
            deliver, rx_fifo = _nic_scan(
                arrivals, plan.rx_fifo, truth.nic_gap
            )

        # 4./5. Consumption and acknowledgement: each receiver handles its
        # messages in arrival order, starting at its own initiation end;
        # the scan walks receiver slots.
        recv_fifo = _fifo_slots(arrivals, plan.recv_fifo)
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
        # non-participants pass through untouched, as they do in
        # ``busy_end``.
        new_t = busy_end.copy()
        ack_max = np.maximum.reduceat(acks, plan.offsets[:-1], axis=1)
        new_t[:, senders] = np.maximum(new_t[:, senders], ack_max)
        cons_max = np.maximum.reduceat(
            handles[:, plan.recv_perm], plan.recv_offsets, axis=1
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
                    sender_of_msg=plan.sender_of_msg,
                    offsets=plan.offsets,
                    msg_remote=plan.msg_remote,
                    src_nodes=plan.src_nodes,
                    dst_nodes=plan.dst_nodes,
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
        if tele is not None:
            exit_max = t.max(axis=1)
            tele.emit_span(
                "engine.stage",
                entry_min,
                float(exit_max.max()) - entry_min,
                time_base="sim",
                stage=s_idx,
                messages=int(n_msg),
                runs=int(requested),
                sim_exit_mean_s=float(exit_max.mean()),
            )
    if requested > runs:
        return np.broadcast_to(t[0], (requested, p)).copy()
    return t

