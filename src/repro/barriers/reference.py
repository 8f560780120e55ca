"""Reference (per-process loop) Eq. 5.4 cost model — the pre-plan code.

This is the stage-by-stage, process-by-process loop that
:mod:`repro.barriers.cost_model` ran before it was rebuilt on a cached
per-pattern plan, kept unchanged as the behavioural oracle — the role
:mod:`repro.simmpi.reference` plays for the event engine.  The contract:
for finite parameters (negative-zero overheads aside, see the
``cost_model`` docstring), :func:`repro.barriers.cost_model.stage_costs` and
:func:`repro.barriers.cost_model.predict_barrier_timeline` return
exactly the bytes of :func:`stage_costs` and
:func:`predict_barrier_timeline` below, for every pattern, with the
posted-receive condition on or off and with or without payloads
(``tests/barriers/test_cost_model_plan.py``).  The one behaviour the
oracle does not share: without an ``inv_bandwidth`` matrix it prices a
non-zero payload at zero, where the production model raises.

Keep this implementation dumb and obvious: its value is that it is easy to
audit against §5.6.5, not that it is fast.  Only tests and benchmarks
import this module.
"""

from __future__ import annotations

import numpy as np

from repro.barriers.cost_model import CommParameters
from repro.barriers.patterns import BarrierPattern
from repro.simmpi.engine import stage_payload_matrix


def posted_receive_pairs(pattern: BarrierPattern) -> list[set[tuple[int, int]]]:
    """Per stage, the signals ``(i, j)`` whose receiver is very probably
    already waiting (§5.6.5 condition 2): process j's last action was a
    send to i, with at least one fully idle stage in between."""
    p = pattern.nprocs
    last_send_stage = np.full(p, -1)
    last_send_target = np.full(p, -1)
    last_activity = np.full(p, -1)
    posted: list[set[tuple[int, int]]] = []
    for s, stage in enumerate(pattern.stages):
        stage_posted: set[tuple[int, int]] = set()
        srcs, dsts = np.nonzero(stage)
        for i, j in zip(srcs, dsts):
            if (
                last_send_target[j] == i
                and last_send_stage[j] == last_activity[j]
                and last_send_stage[j] <= s - 2
            ):
                stage_posted.add((int(i), int(j)))
        posted.append(stage_posted)
        for i, j in zip(srcs, dsts):
            last_send_stage[i] = s
            last_send_target[i] = j
            last_activity[i] = s
            last_activity[j] = s
    return posted


def stage_costs(
    pattern: BarrierPattern,
    params: CommParameters,
    payload_bytes=None,
    use_posted_condition: bool = True,
) -> list[np.ndarray]:
    """Per-stage vector of each process's Eq. 5.4 path contribution.

    Pure receivers and senders alike pay at least the invocation floor;
    non-participants contribute zero.  ``use_posted_condition=False``
    disables §5.6.5's condition 2 (for ablation studies of the model).
    """
    p = pattern.nprocs
    if params.nprocs != p:
        raise ValueError("parameter matrices do not match the pattern size")
    posted = (
        posted_receive_pairs(pattern)
        if use_posted_condition
        else [set() for _ in pattern.stages]
    )
    overhead = params.overhead
    latency = params.latency
    costs: list[np.ndarray] = []
    for s, stage in enumerate(pattern.stages):
        payload = stage_payload_matrix(payload_bytes, s, p)
        cost = np.zeros(p)
        sends = stage.any(axis=1)
        recvs = stage.any(axis=0)
        for i in range(p):
            if not (sends[i] or recvs[i]):
                continue
            if not sends[i]:
                cost[i] = overhead[i, i]
                continue
            dests = np.flatnonzero(stage[i])
            lat_term = 2.0 * float(latency[i, dests].sum())
            pay_term = 0.0
            if params.inv_bandwidth is not None and payload[i, dests].any():
                pay_term = float(
                    (payload[i, dests] * params.inv_bandwidth[i, dests]).sum()
                )
            ov_candidates = [
                overhead[j, j] if (i, int(j)) in posted[s] else overhead[i, j]
                for j in dests
            ]
            ov_term = max(ov_candidates)
            cost[i] = max(lat_term + pay_term + ov_term, overhead[i, i])
        costs.append(cost)
    return costs


def predict_barrier_timeline(
    pattern: BarrierPattern,
    params: CommParameters,
    payload_bytes=None,
    use_posted_condition: bool = True,
) -> np.ndarray:
    """Stage-wise DP over the layered graph: per-process predicted exits."""
    p = pattern.nprocs
    costs = stage_costs(
        pattern, params, payload_bytes, use_posted_condition=use_posted_condition
    )
    t = np.zeros(p)
    for stage, cost in zip(pattern.stages, costs):
        new_t = t.copy()
        participants = stage.any(axis=1) | stage.any(axis=0)
        for i in np.flatnonzero(participants):
            new_t[i] = max(new_t[i], t[i] + cost[i])
        srcs, dsts = np.nonzero(stage)
        for i, j in zip(srcs, dsts):
            new_t[j] = max(new_t[j], t[i] + cost[i])
        t = new_t
    return t
