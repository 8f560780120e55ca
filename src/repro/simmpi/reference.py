"""Reference (scalar) discrete-event engine — the pre-batching implementation.

This module preserves the original per-message Python implementation of
the event engine, as the behavioural oracle for the vectorized
replication-batched :func:`repro.simmpi.engine.simulate_stages_batch`
that replaced it.  The contract between the two:

* **Clean path** (``rng=None`` or ``noise=None``): the batched engine is
  *bit-identical* to this reference for every registered pattern family —
  the vectorized recurrences apply the same floating-point operations in
  the same order (tested in ``tests/simmpi/test_engine_batch.py``).
* **Noisy path**: the engines draw the same noise terms from the same
  distributions but in a different (replication-major, bulk) order, so
  individual runs differ while statistics agree distributionally.

Keep this implementation dumb and obvious: its value is that it is easy to
audit against the §5.6.1 event semantics, not that it is fast.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.noise import NoiseModel
from repro.machine.simmachine import CommTruth
from repro.simmpi.engine import stage_payload_matrix


def _noisy(noise: NoiseModel | None, rng, values: np.ndarray) -> np.ndarray:
    if rng is None or noise is None:
        return values
    return noise.sample(rng, values)


def simulate_stages(
    truth: CommTruth,
    stages,
    payload_bytes=None,
    rng: np.random.Generator | None = None,
    noise: NoiseModel | None = None,
    entry_times: np.ndarray | None = None,
) -> np.ndarray:
    """Execute stage matrices over the ground truth; return exit times.

    ``payload_bytes`` may be ``None`` (pure signals), a scalar, or a
    per-stage sequence of scalars/matrices.  ``entry_times`` lets callers
    model skewed arrival at the synchronisation point.
    """
    p = truth.nprocs
    stages = list(stages)
    nodes = np.array([truth.placement.node_of(r) for r in range(p)])
    n_nodes = int(nodes.max()) + 1 if p else 0
    remote = nodes[:, None] != nodes[None, :]

    t = np.zeros(p) if entry_times is None else np.array(entry_times, dtype=float)
    if t.shape != (p,):
        raise ValueError(f"entry_times must have shape ({p},)")

    for s_idx, stage in enumerate(stages):
        stage = np.asarray(stage, dtype=bool)
        if stage.shape != (p, p):
            raise ValueError(f"stage {s_idx} has wrong shape {stage.shape}")
        payload = stage_payload_matrix(payload_bytes, s_idx, p)

        sends_of = [np.flatnonzero(stage[i]) for i in range(p)]
        participants = stage.any(axis=1) | stage.any(axis=0)

        # 1. Initiation: busy time and sequential departures per sender.
        busy_end = t.copy()
        departs: dict[tuple[int, int], float] = {}
        for i in range(p):
            if not participants[i]:
                continue
            cursor = t[i] + float(
                _noisy(noise, rng, np.asarray(truth.invocation_overhead))
            )
            for j in sends_of[i]:
                cursor += float(
                    _noisy(noise, rng, np.asarray(truth.start_overhead[i, j]))
                )
                departs[(i, j)] = cursor
            busy_end[i] = cursor

        if not departs:
            # A stage with receivers but no senders cannot occur in a valid
            # pattern; a fully empty stage just costs nothing.
            continue

        msg_list = sorted(departs.items(), key=lambda kv: (kv[1], kv[0]))

        # 2./3. NIC serialisation and wire transit.
        tx_free = np.zeros(n_nodes)
        arrivals: list[tuple[float, int, int]] = []
        for (i, j), depart in msg_list:
            if remote[i, j]:
                wire_entry = max(depart, tx_free[nodes[i]])
                tx_free[nodes[i]] = wire_entry + truth.nic_gap
            else:
                wire_entry = depart
            transit = truth.latency[i, j] + payload[i, j] * truth.inv_bandwidth[i, j]
            arrive = wire_entry + float(_noisy(noise, rng, np.asarray(transit)))
            arrivals.append((arrive, i, j))

        arrivals.sort()
        rx_free = np.zeros(n_nodes)
        recv_cursor = busy_end.copy()  # receiver consumes after own initiation
        consumed_of = [[] for _ in range(p)]
        acks_of = [[] for _ in range(p)]
        for arrive, i, j in arrivals:
            if remote[i, j]:
                deliver = max(arrive, rx_free[nodes[j]])
                rx_free[nodes[j]] = deliver + truth.nic_gap
            else:
                deliver = arrive
            handle = max(deliver, recv_cursor[j]) + float(
                _noisy(noise, rng, np.asarray(truth.recv_overhead))
            )
            recv_cursor[j] = handle
            consumed_of[j].append(handle)
            ack = handle + float(_noisy(noise, rng, np.asarray(truth.latency[i, j])))
            acks_of[i].append(ack)

        # 5. Stage exit: Waitall returns when sends are acked and receives
        # consumed; non-participants pass through untouched.
        new_t = t.copy()
        for i in range(p):
            if not participants[i]:
                continue
            exit_time = busy_end[i]
            if acks_of[i]:
                exit_time = max(exit_time, max(acks_of[i]))
            if consumed_of[i]:
                exit_time = max(exit_time, max(consumed_of[i]))
            new_t[i] = exit_time
        t = new_t
    return t
