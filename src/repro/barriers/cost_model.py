"""Analytic barrier cost model (§5.6.5, Fig. 6.2).

Given benchmark-extracted parameter matrices, the cost a sending process
``i`` adds to every path through its stage ``s`` is Eq. 5.4:

    cost(s, i) = 2 * sum_j L_ij * S_s[i, j]  +  max_j (O_ij * S_s[i, j])

extended here with the Chapter 6 payload term ``sum_j M_s * B_ij * S_s[i,j]``
for synchronisations that carry data.  Two side conditions apply (§5.6.5):

1. the minimal stage cost is the invocation overhead ``O_ii``, and
2. if the receiver ``j`` is known to be awaiting the signal — its last
   action was a send to ``i`` followed by at least one idle stage — its
   term in the maximisation is replaced by ``O_jj``.

The predicted barrier time is the maximal accumulated cost over every path
through the layered stage graph.  ``predict_barrier_cost`` computes it by
stage-wise dynamic programming; ``critical_path_recursive`` is the thesis's
recursive search (Fig. 6.2), kept as an independently coded cross-check.
:func:`stage_terms` returns the terms themselves, per stage and process;
``stage_costs`` and the DP read its ``cost``.

**The plan.**  Everything the pattern alone fixes is built once, as a
``_CostPlan`` of flat arrays that run across all stages: the messages
``(src, dst)`` in stage-major order with each stage's offset (the DP's
scatter), each stage's participant mask, the §5.6.5 posted-receive
messages, and the senders grouped by their number of destinations ``k``.
Sorting senders by ``k`` makes the messages of all ``m`` senders with
``k`` destinations one contiguous ``(m, k)`` block, so a call gathers the
parameter matrices once (``links``, flat ``src * P + dst`` in that
order) and reduces one block per distinct ``k`` — a handful of numpy
calls however many stages and processes the pattern has.  The DP keeps
one short loop over stages (``np.maximum.at`` per stage): stage ``s``
reads the exits of stage ``s - 1``.

**Bit identity.**  For finite parameters the results are the bytes of the
per-process loop kept in :mod:`repro.barriers.reference`.  That rests on
three choices:

* Latency and payload sums are row sums of a contiguous ``(m, k)``
  block.  numpy sums each row exactly as it sums the loop's 1-D
  ``latency[i, dests]``; ``np.add.reduceat``, which adds sequentially,
  is *not* bit-identical from three destinations up.
* The order of operations is the loop's: ``(lat + pay) + ov``, and a
  sender whose messages carry no bytes gets an exact ``0.0`` payload
  term.  The invocation floor and the DP's own-path update keep Python's
  ``max(a, b)`` tie rule through ``np.where(b > a, b, a)``.
* The posted mask takes each sender's *last* destination explicitly
  (the last ``True`` of its row), never the survivor of a repeated
  fancy-index assignment.

The overhead maximum is a block ``max``, which breaks a tie between
``0.0`` and ``-0.0`` as numpy does, not as Python's ``max``: with
negative zeros among the overheads, a zero term can differ in sign.

**The cache.**  Plans are keyed by ``(P, blake2b-128 of the stage
bytes)`` and kept in a least-recently-used map of at most
:data:`PLAN_CACHE_SIZE` entries.  A plan is a pure function of the
pattern's stages, so a served plan is the cold build and nothing needs
invalidating; its arrays are read-only because every later call shares
them.  The bound keeps sweeps that never repeat a pattern, such as
``fig-5-6-to-5-9``, from growing the map.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.barriers.patterns import BarrierPattern
from repro.simmpi.engine import stage_payload_matrix
from repro.util.validation import require_matrix


@dataclass(frozen=True)
class CommParameters:
    """Pairwise communication parameters as seen by the model.

    ``overhead[i, j]`` is the marginal request-start cost O_ij with the
    invocation cost O_ii on the diagonal; ``latency[i, j]`` the one-way
    latency estimate L_ij; ``inv_bandwidth`` the per-byte cost used only by
    payload-carrying synchronisation.  In the reproduction pipeline these
    come from ``repro.bench.comm_bench``, never from ground truth.  All
    three are ``(P, P)`` float matrices.
    """

    overhead: np.ndarray
    latency: np.ndarray
    inv_bandwidth: np.ndarray | None = None

    def __post_init__(self):
        overhead = require_matrix(self.overhead, "overhead")
        shape = (overhead.shape[0],) * 2
        object.__setattr__(
            self, "overhead", require_matrix(overhead, "overhead", shape)
        )
        object.__setattr__(
            self, "latency", require_matrix(self.latency, "latency", shape)
        )
        if self.inv_bandwidth is not None:
            object.__setattr__(
                self,
                "inv_bandwidth",
                require_matrix(self.inv_bandwidth, "inv_bandwidth", shape),
            )

    @property
    def nprocs(self) -> int:
        return self.overhead.shape[0]


#: Most pattern plans :func:`_plan` keeps.  The `barrier-cost` campaigns
#: of the end-to-end benchmark use at most 40 (pattern, P) pairs; a sweep
#: that never repeats one, such as ``fig-5-6-to-5-9``, never hits the
#: cache, so the bound is all that limits the memory it holds there.
PLAN_CACHE_SIZE = 64


@dataclass(frozen=True)
class _CostPlan:
    """Everything about one pattern that its stage matrices fix.

    Messages are in two orders.  ``src``/``dst`` are stage-major, in the
    ``np.nonzero`` order of each stage, and ``bounds[s]:bounds[s + 1]``
    are stage ``s``'s messages.  ``links`` is *count order*: senders
    sorted stably by their number of destinations ``k``, each sender's
    messages by destination; ``order`` maps count order to stage-major
    (``None`` when they coincide).  ``blocks`` holds ``(k, g0, g1, m0)``
    per distinct ``k``: senders ``g0:g1`` of ``sender_cells`` own the
    contiguous ``(g1 - g0, k)`` message block from ``links[m0]``.
    ``posted_at`` are the count-order positions of the §5.6.5 posted
    messages and ``posted_links`` their receivers' ``dst * P + dst``.
    """

    nprocs: int
    num_stages: int
    src: np.ndarray
    dst: np.ndarray
    bounds: tuple[int, ...]
    active: np.ndarray
    links: np.ndarray
    order: np.ndarray | None
    sender_cells: np.ndarray
    blocks: tuple[tuple[int, int, int, int], ...]
    posted_at: np.ndarray
    posted_links: np.ndarray


def _build_plan(stages: tuple[np.ndarray, ...], p: int) -> _CostPlan:
    num_stages = len(stages)
    grid = np.array(stages, dtype=bool).reshape(num_stages, p, p)
    stage_of, src, dst = np.nonzero(grid)
    n = src.size
    sends = grid.any(axis=2)
    active = sends | grid.any(axis=1)

    # §5.6.5 condition 2, from each receiver's state before the stage:
    # the last stage it was active in, the last stage it sent in, and the
    # last destination of that send (the last True of its row).
    steps = np.arange(num_stages)[:, None]

    def before(mask):
        last = np.maximum.accumulate(np.where(mask, steps, -1), axis=0)
        return np.vstack([np.full((1, p), -1), last[:-1]])[stage_of, dst]

    prev_active = before(active)
    prev_send = before(sends)
    last_dst = np.where(sends, p - 1 - grid[:, :, ::-1].argmax(axis=2), -1)
    prev_target = np.where(prev_send >= 0, last_dst[prev_send, dst], -1)
    posted = (
        (prev_target == src)
        & (prev_send == prev_active)
        & (prev_send <= stage_of - 2)
    )

    # Senders in stage-major order, then stably sorted by their count.
    cells = stage_of * p + src
    first = np.flatnonzero(np.diff(cells, prepend=-1))
    counts = np.diff(first, append=n)
    by_count = np.argsort(counts, kind="stable")
    counts = counts[by_count]
    offsets = np.cumsum(counts) - counts
    order = np.repeat(first[by_count] - offsets, counts) + np.arange(n)
    ks, g0 = np.unique(counts, return_index=True)
    g1 = np.append(g0[1:], counts.size)
    blocks = tuple(
        (int(k), int(a), int(b), int(offsets[a])) for k, a, b in zip(ks, g0, g1)
    )
    if np.array_equal(order, np.arange(n)):
        order = None
    perm = slice(None) if order is None else order
    posted_at = np.flatnonzero(posted[perm])
    return _CostPlan(
        nprocs=p,
        num_stages=num_stages,
        src=_shared(src),
        dst=_shared(dst),
        bounds=tuple(np.searchsorted(stage_of, np.arange(num_stages + 1)).tolist()),
        active=_shared(active),
        links=_shared((src * p + dst)[perm]),
        order=None if order is None else _shared(order),
        sender_cells=_shared(cells[first[by_count]]),
        blocks=blocks,
        posted_at=_shared(posted_at),
        posted_links=_shared(dst[perm][posted_at] * (p + 1)),
    )


def _shared(array: np.ndarray) -> np.ndarray:
    """A read-only copy for a plan every later call shares.  Indices are
    stored as int32: half the bytes a cached plan holds, and enough for
    any P whose (P, P) stage fits in memory."""
    out = array.astype(np.int32 if array.dtype.kind == "i" else array.dtype)
    out.setflags(write=False)
    return out


_plans: OrderedDict[tuple[int, bytes], _CostPlan] = OrderedDict()
_plans_lock = threading.Lock()


def _plan(pattern: BarrierPattern) -> _CostPlan:
    """The plan of ``pattern``, from the cache or built cold."""
    digest = hashlib.blake2b(digest_size=16)
    for stage in pattern.stages:
        digest.update(np.ascontiguousarray(stage))
    key = (pattern.nprocs, digest.digest())
    with _plans_lock:
        plan = _plans.get(key)
        if plan is not None:
            _plans.move_to_end(key)
            return plan
    plan = _build_plan(pattern.stages, pattern.nprocs)
    with _plans_lock:
        _plans[key] = plan
        while len(_plans) > PLAN_CACHE_SIZE:
            _plans.popitem(last=False)
    return plan


@dataclass(frozen=True)
class StageTerms:
    """Eq. 5.4 term by term: row ``s`` of each ``(S, P)`` array holds every
    process's share of stage ``s``.

    ``latency`` is ``2 * sum_j L_ij``, ``payload`` ``sum_j M_s[i, j] *
    B_ij`` (exactly 0 for a sender whose messages carry no bytes) and
    ``overhead`` ``max_j O_ij`` with the posted receivers' ``O_jj``; all
    three are zero except at senders.  ``floor`` is the invocation
    overhead ``O_ii`` of every participant, zero elsewhere.  ``cost`` is
    what each process adds to every path through the stage:
    ``max((latency + payload) + overhead, floor)`` at a sender, ``floor``
    at a pure receiver and 0 at a non-participant.
    """

    latency: np.ndarray
    payload: np.ndarray
    overhead: np.ndarray
    floor: np.ndarray
    cost: np.ndarray


def _message_payloads(payload_bytes, plan: _CostPlan) -> np.ndarray | None:
    """Each message's bytes in count order (``None`` for pure signals),
    checked by the engine's :func:`stage_payload_matrix` rule."""
    if payload_bytes is None:
        return None
    if np.isscalar(payload_bytes):
        # A 1 x 1 matrix puts the scalar through the engine's check once.
        checked = stage_payload_matrix(payload_bytes, 0, 1)[0, 0]
        return np.full(plan.links.size, checked)
    p = plan.nprocs
    values = np.empty(plan.src.size)
    for s in range(plan.num_stages):
        a, b = plan.bounds[s], plan.bounds[s + 1]
        matrix = stage_payload_matrix(payload_bytes, s, p)
        values[a:b] = matrix[plan.src[a:b], plan.dst[a:b]]
    return values if plan.order is None else values[plan.order]


def _terms(
    plan: _CostPlan,
    params: CommParameters,
    payload_bytes,
    use_posted_condition: bool,
) -> StageTerms:
    p = plan.nprocs
    if params.nprocs != p:
        raise ValueError("parameter matrices do not match the pattern size")
    carried = _message_payloads(payload_bytes, plan)
    inv_bandwidth = params.inv_bandwidth
    if inv_bandwidth is None and carried is not None:
        if carried.any():
            raise ValueError(
                "payload_bytes needs an inv_bandwidth matrix to be priced"
            )
        carried = None
    links = plan.links
    ov_links = links
    if use_posted_condition and plan.posted_at.size:
        ov_links = links.copy()
        ov_links[plan.posted_at] = plan.posted_links
    lat_msgs = params.latency.take(links)
    ov_msgs = params.overhead.take(ov_links)
    senders = plan.sender_cells.size
    lat = np.empty(senders)
    ov = np.empty(senders)
    pay = np.zeros(senders)
    if carried is not None:
        # 0 bytes over an inf link is nan here, but a bytes-free sender's
        # term is set to 0.0 below, as the loop never multiplies it.
        with np.errstate(invalid="ignore"):
            byte_cost = carried * inv_bandwidth.take(links)
    for k, g0, g1, m0 in plan.blocks:
        m1 = m0 + (g1 - g0) * k
        lat[g0:g1] = lat_msgs[m0:m1].reshape(-1, k).sum(axis=1)
        ov[g0:g1] = ov_msgs[m0:m1].reshape(-1, k).max(axis=1)
        if carried is not None:
            pay[g0:g1] = np.where(
                carried[m0:m1].reshape(-1, k).any(axis=1),
                byte_cost[m0:m1].reshape(-1, k).sum(axis=1),
                0.0,
            )
    lat *= 2.0
    diag = params.overhead.diagonal()
    floor = np.where(plan.active, diag, 0.0)
    total = (lat + pay) + ov
    at_floor = diag[plan.sender_cells % p]
    cost = floor.copy()
    cost.reshape(-1)[plan.sender_cells] = np.where(
        at_floor > total, at_floor, total
    )

    def spread(values: np.ndarray) -> np.ndarray:
        out = np.zeros(floor.shape)
        out.reshape(-1)[plan.sender_cells] = values
        return out

    return StageTerms(
        latency=spread(lat),
        payload=spread(pay),
        overhead=spread(ov),
        floor=floor,
        cost=cost,
    )


def stage_terms(
    pattern: BarrierPattern,
    params: CommParameters,
    payload_bytes=None,
    use_posted_condition: bool = True,
) -> StageTerms:
    """Each process's Eq. 5.4 terms in every stage (see :class:`StageTerms`).

    ``payload_bytes`` is ``None``, a scalar for every stage or a per-stage
    sequence of scalars or ``(P, P)`` matrices; pricing a non-zero payload
    needs ``params.inv_bandwidth``.  ``use_posted_condition=False``
    disables §5.6.5's condition 2 (for ablation studies of the model).
    """
    return _terms(_plan(pattern), params, payload_bytes, use_posted_condition)


def stage_costs(
    pattern: BarrierPattern,
    params: CommParameters,
    payload_bytes=None,
    use_posted_condition: bool = True,
) -> list[np.ndarray]:
    """Per-stage vector of each process's Eq. 5.4 path contribution.

    Pure receivers and senders alike pay at least the invocation floor;
    non-participants contribute zero.
    """
    return list(
        stage_terms(pattern, params, payload_bytes, use_posted_condition).cost
    )


def predict_barrier_timeline(
    pattern: BarrierPattern,
    params: CommParameters,
    payload_bytes=None,
    use_posted_condition: bool = True,
) -> np.ndarray:
    """Stage-wise DP over the layered graph: per-process predicted exits."""
    plan = _plan(pattern)
    cost = _terms(plan, params, payload_bytes, use_posted_condition).cost
    t = np.zeros(plan.nprocs)
    for s in range(plan.num_stages):
        # A non-participant's cost is 0.0, so its ``t + 0.0`` keeps t.
        reach = t + cost[s]
        new_t = np.where(reach > t, reach, t)
        a, b = plan.bounds[s], plan.bounds[s + 1]
        np.maximum.at(new_t, plan.dst[a:b], reach[plan.src[a:b]])
        t = new_t
    return t


def predict_barrier_cost(
    pattern: BarrierPattern,
    params: CommParameters,
    payload_bytes=None,
    use_posted_condition: bool = True,
) -> float:
    """Worst-case path prediction — the §5.6.6 reported value."""
    if pattern.nprocs == 1 or not pattern.stages:
        return 0.0
    return float(
        predict_barrier_timeline(
            pattern, params, payload_bytes,
            use_posted_condition=use_posted_condition,
        ).max()
    )


def critical_path_recursive(
    pattern: BarrierPattern,
    params: CommParameters,
    payload_bytes=None,
) -> float:
    """Fig. 6.2's recursive path search; exponential, for small-P checks."""
    p = pattern.nprocs
    if p == 1 or not pattern.stages:
        return 0.0
    costs = stage_costs(pattern, params, payload_bytes)
    stages = pattern.stages
    num_stages = len(stages)
    best = 0.0

    def walk(stage_idx: int, proc: int, acc: float) -> None:
        nonlocal best
        if stage_idx == num_stages:
            best = max(best, acc)
            return
        stage = stages[stage_idx]
        participates = stage[proc].any() or stage[:, proc].any()
        own = costs[stage_idx][proc] if participates else 0.0
        walk(stage_idx + 1, proc, acc + own)
        if stage[proc].any():
            for j in np.flatnonzero(stage[proc]):
                walk(stage_idx + 1, int(j), acc + costs[stage_idx][proc])

    for start in range(p):
        walk(0, start, 0.0)
    return best
