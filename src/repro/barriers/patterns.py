"""Matrix representation of barrier communication patterns (§5.5).

A barrier is a sequence of boolean P x P incidence matrices
``S_0, ..., S_{s-1}`` with the thesis's interpretation

    ``S_k[i, j] == 1``  <=>  "process i signals process j in stage k".

The layered-DAG view makes the patterns machine-manipulable: the same
encoding feeds the correctness test (Eq. 5.1-5.2), the event simulator
("measured" timings), the analytic cost model (Eq. 5.4), and the Chapter 7
generators of customized patterns.

Provided constructors span the thesis's design space: the 2-stage linear
barrier, the dissemination barrier, pairwise-combining k-ary trees
(Fig. 5.4 is the binary case), plus the extremities discussed in §5.6.6 —
the single-stage all-to-all and the one-signal-per-stage sequential linear
barrier — and the ring pattern used to exercise the correctness checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.util.validation import require_int


@dataclass(frozen=True)
class BarrierPattern:
    """An ordered sequence of stage incidence matrices."""

    name: str
    nprocs: int
    stages: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        require_int(self.nprocs, "nprocs")
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if not self.stages and self.nprocs > 1:
            raise ValueError("multi-process barrier needs at least one stage")
        normalized = []
        for k, stage in enumerate(self.stages):
            arr = np.asarray(stage)
            if arr.shape != (self.nprocs, self.nprocs):
                raise ValueError(
                    f"stage {k} has shape {arr.shape}, expected "
                    f"({self.nprocs}, {self.nprocs})"
                )
            arr = arr.astype(bool)
            if arr.diagonal().any():
                raise ValueError(f"stage {k} contains self-signals")
            arr.setflags(write=False)
            normalized.append(arr)
        object.__setattr__(self, "stages", tuple(normalized))

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def total_messages(self) -> int:
        return int(sum(stage.sum() for stage in self.stages))

    def messages_per_stage(self) -> list[int]:
        return [int(stage.sum()) for stage in self.stages]

    def senders(self, stage: int) -> np.ndarray:
        """Ranks transmitting at least one signal in ``stage``."""
        return np.flatnonzero(self.stages[stage].any(axis=1))

    def receivers(self, stage: int) -> np.ndarray:
        """Ranks awaiting at least one signal in ``stage``."""
        return np.flatnonzero(self.stages[stage].any(axis=0))

    def participants(self, stage: int) -> np.ndarray:
        s = self.stages[stage]
        return np.flatnonzero(s.any(axis=1) | s.any(axis=0))

    def with_name(self, name: str) -> "BarrierPattern":
        return BarrierPattern(name, self.nprocs, self.stages)


def _empty(p: int) -> np.ndarray:
    return np.zeros((p, p), dtype=bool)


def linear_barrier(nprocs: int, root: int = 0) -> BarrierPattern:
    """Naive arrival count: everyone signals the master, master releases all
    (2 stages; §5.3, Fig. 5.2)."""
    p = require_int(nprocs, "nprocs")
    root = require_int(root, "root")
    if not 0 <= root < p:
        raise ValueError("root out of range")
    if p == 1:
        return BarrierPattern("linear", 1, ())
    arrive = _empty(p)
    arrive[:, root] = True
    arrive[root, root] = False
    release = arrive.T.copy()
    return BarrierPattern("linear", p, (arrive, release))


def dissemination_barrier(nprocs: int) -> BarrierPattern:
    """Cyclic-shift pattern: stage s sends p -> (p + 2^s) mod P
    (ceil(log2 P) stages; §5.3, Fig. 5.3)."""
    p = require_int(nprocs, "nprocs")
    if p == 1:
        return BarrierPattern("dissemination", 1, ())
    stages = []
    num_stages = math.ceil(math.log2(p))
    ranks = np.arange(p)
    for s in range(num_stages):
        stage = _empty(p)
        stage[ranks, (ranks + (1 << s)) % p] = True
        stages.append(stage)
    return BarrierPattern("dissemination", p, tuple(stages))


def tree_barrier(nprocs: int, arity: int = 2) -> BarrierPattern:
    """Pairwise-combining k-ary tree rooted at rank 0 (Fig. 5.4 for k=2).

    Arrival stage s: ranks with ``p mod k^(s+1) == j * k^s`` (1 <= j < k)
    signal ``p - j * k^s``.  Release stages are the transposed arrival
    stages in reverse order — the property the thesis notes holds for any
    hierarchical barrier.
    """
    p = require_int(nprocs, "nprocs")
    arity = require_int(arity, "arity")
    if arity < 2:
        raise ValueError("arity must be >= 2")
    if p == 1:
        return BarrierPattern(f"tree{arity}", 1, ())
    arrive_stages = []
    span = 1
    while span < p:
        stage = _empty(p)
        group = span * arity
        for rank in range(p):
            rem = rank % group
            if rem != 0 and rem % span == 0:
                stage[rank, rank - rem] = True
        if stage.any():
            arrive_stages.append(stage)
        span = group
    release_stages = [stage.T.copy() for stage in reversed(arrive_stages)]
    name = "tree" if arity == 2 else f"tree{arity}"
    return BarrierPattern(name, p, tuple(arrive_stages + release_stages))


def all_to_all_barrier(nprocs: int) -> BarrierPattern:
    """Single-stage complete exchange: every pair signals (§5.6.6 extremity)."""
    p = require_int(nprocs, "nprocs")
    if p == 1:
        return BarrierPattern("all-to-all", 1, ())
    stage = ~np.eye(p, dtype=bool)
    return BarrierPattern("all-to-all", p, (stage,))


def sequential_linear_barrier(nprocs: int, root: int = 0) -> BarrierPattern:
    """The 2P-stage variant with one signal per stage (§5.6.6 extremity)."""
    p = require_int(nprocs, "nprocs")
    root = require_int(root, "root")
    if not 0 <= root < p:
        raise ValueError("root out of range")
    if p == 1:
        return BarrierPattern("sequential-linear", 1, ())
    stages = []
    others = [r for r in range(p) if r != root]
    for rank in others:
        stage = _empty(p)
        stage[rank, root] = True
        stages.append(stage)
    for rank in others:
        stage = _empty(p)
        stage[root, rank] = True
        stages.append(stage)
    return BarrierPattern("sequential-linear", p, tuple(stages))


def ring_pattern(nprocs: int, rounds: int = 2) -> BarrierPattern:
    """Token passed around a ring ``rounds`` times, one hop per stage.

    A single round is *not* a correct barrier (only the last receiver can
    know everyone arrived); two rounds are.  Used to exercise the
    knowledge-matrix correctness test (§5.5).
    """
    p = require_int(nprocs, "nprocs")
    rounds = require_int(rounds, "rounds")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if p == 1:
        return BarrierPattern("ring", 1, ())
    stages = []
    hops = rounds * p - 1 if rounds > 1 else p - 1
    for h in range(hops):
        stage = _empty(p)
        stage[h % p, (h + 1) % p] = True
        stages.append(stage)
    name = f"ring-x{rounds}" if rounds != 1 else "ring"
    return BarrierPattern(name, p, tuple(stages))


def pairwise_exchange_barrier(nprocs: int) -> BarrierPattern:
    """Hypercube pairwise exchange: stage s pairs p with p XOR 2^s.

    Requires a power-of-two process count; each stage is a symmetric
    exchange, so knowledge doubles per stage and ``log2 P`` stages suffice
    — the butterfly structure behind recursive-doubling collectives.
    """
    p = require_int(nprocs, "nprocs")
    if p == 1:
        return BarrierPattern("pairwise-exchange", 1, ())
    if p & (p - 1):
        raise ValueError("pairwise exchange requires a power-of-two nprocs")
    stages = []
    ranks = np.arange(p)
    for s in range(p.bit_length() - 1):
        stage = _empty(p)
        stage[ranks, ranks ^ (1 << s)] = True
        stages.append(stage)
    return BarrierPattern("pairwise-exchange", p, tuple(stages))


def kary_dissemination_barrier(nprocs: int, radix: int = 3) -> BarrierPattern:
    """Radix-k dissemination: stage s sends to (p + j * k^s) mod P for
    j = 1..k-1, completing in ``ceil(log_k P)`` stages at the price of
    k-1 signals per process per stage — the latency/injection trade-off
    knob the Chapter 7 generators can explore."""
    p = require_int(nprocs, "nprocs")
    radix = require_int(radix, "radix")
    if radix < 2:
        raise ValueError("radix must be >= 2")
    if p == 1:
        return BarrierPattern(f"dissemination-k{radix}", 1, ())
    stages = []
    ranks = np.arange(p)
    span = 1
    while span < p:
        stage = _empty(p)
        for j in range(1, radix):
            offset = j * span
            if offset < p:
                stage[ranks, (ranks + offset) % p] = True
        stages.append(stage)
        span *= radix
    return BarrierPattern(f"dissemination-k{radix}", p, tuple(stages))


def from_stages(name: str, stages) -> BarrierPattern:
    """Build a pattern from raw stage matrices (used by Chapter 7 generators)."""
    stages = [np.asarray(s) for s in stages]
    if not stages:
        raise ValueError("need at least one stage")
    return BarrierPattern(name, stages[0].shape[0], tuple(stages))
