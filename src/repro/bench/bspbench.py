"""Classic bspbench emulation (§3.1, Table 3.1, Fig. 4.2).

Reproduces Bisseling's benchmark against the simulated platform:

* the computation rate ``r`` comes from timing growing DAXPY problem sizes
  up to 1024 elements and taking the gradient of the least-square line
  (machine words are double precision);
* the router parameters ``g`` (gradient, flop per word) and ``l``
  (intercept, flops) come from timing full h-relations for h = 0..255 —
  here executed as a total exchange plus a dissemination synchronisation on
  the event engine, the same structure BSPonMPI uses over MPI.

The oscillating per-size rates that precede the plateau (Fig. 4.2) fall out
of the invocation overhead in the compute model, just as warm-up effects
shape the real benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.barriers.patterns import all_to_all_barrier, dissemination_barrier
from repro.bench.stats import linear_regression, median
from repro.core.bsp_classic import ClassicBSPParams
from repro.kernels.numeric import DAXPY
from repro.machine.simmachine import SimMachine
from repro.simmpi.engine import row_batches, simulate_stages_batch
from repro.util.validation import require_int

WORD_BYTES = 8  # double-precision machine words


@dataclass(frozen=True)
class RatePoint:
    """One vector-size measurement of the DAXPY rate (Fig. 4.2)."""

    n: int
    mean_seconds: float
    rate_flops: float


#: DAXPY applications per rate timing (§4.1).
RATE_ITERATIONS = 64


def measure_rate_points(
    machine: SimMachine,
    core: int,
    sizes=None,
    samples: int = 8,
) -> list[RatePoint]:
    """Time DAXPY at growing vector sizes, ``RATE_ITERATIONS`` applications
    per timing; report mean time and rate."""
    if sizes is None:
        sizes = tuple(2**k for k in range(0, 11))  # 1 .. 1024
    rng = machine.rng("bspbench-rate", core)
    points = []
    for n in sizes:
        times = [
            machine.kernel_time(
                core, DAXPY, n, reps=RATE_ITERATIONS, rng=rng
            )
            for _ in range(samples)
        ]
        t = float(np.median(times))
        per_app = t / RATE_ITERATIONS
        points.append(
            RatePoint(n=int(n), mean_seconds=t,
                      rate_flops=DAXPY.flops(int(n)) / per_app)
        )
    return points


#: Most noise draws (rows x messages of the total-exchange stage) that one
#: engine call of :func:`measure_h_relations` takes on.  Every stage's
#: draws are held at once, and the exchange carries P(P-1) messages, so a
#: P's whole sweep in one call would grow the process's peak memory.
H_RELATION_DRAW_CELLS = 1 << 13


def _h_relation_stages(nprocs: int):
    """An h-relation superstep as BSPonMPI realises it: one total-exchange
    stage carrying the payload, then the synchronisation pattern."""
    exchange = all_to_all_barrier(nprocs)
    sync = dissemination_barrier(nprocs)
    return list(exchange.stages) + list(sync.stages)


def measure_h_relations(
    machine: SimMachine,
    nprocs: int,
    h_values=None,
    samples: int = 9,
) -> tuple[list[int], list[float]]:
    """Median superstep time for each h (words) — the g/l extraction data.

    Every (h, sample) superstep is one replication row, in h-then-sample
    order, each a one-row group on the P's one stream: the draws of
    separate ``runs=1`` calls in that order, taken in as few engine calls
    as :data:`H_RELATION_DRAW_CELLS` allows.
    """
    if h_values is None:
        h_values = tuple(range(0, 256, 17)) + (255,)
    nprocs = require_int(nprocs, "nprocs")
    truth = machine.comm_truth(machine.placement(nprocs))
    rng = machine.rng("bspbench-h", nprocs)
    stages = _h_relation_stages(nprocs)
    hs = sorted(set(int(v) for v in h_values))
    # Each process sends each other process h / (P - 1) words.
    per_pair = [
        h * WORD_BYTES / (nprocs - 1) if h > 0 and nprocs > 1 else 0.0
        for h in hs
    ]
    rows = [(size, 1) for size in per_pair for _ in range(samples)]
    widest = max((int(stage.sum()) for stage in stages), default=0)
    worst = []
    for batch in row_batches(rows, widest, H_RELATION_DRAW_CELLS):
        sizes = np.array([size for size, _ in batch])
        exits = simulate_stages_batch(
            truth, stages, runs=len(batch),
            payload_bytes=[sizes] + [0.0] * (len(stages) - 1),
            rng=[(rng, 1)] * len(batch), noise=machine.noise,
        )
        worst.extend(exits.max(axis=1).tolist())
    times = [
        median(worst[i * samples:(i + 1) * samples]) for i in range(len(hs))
    ]
    return hs, times


def run_bspbench(
    machine: SimMachine,
    nprocs: int,
    samples: int = 9,
) -> ClassicBSPParams:
    """Produce the (p, r, g, l) row of Table 3.1 for one process count."""
    nprocs = require_int(nprocs, "nprocs")
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    core = machine.placement(nprocs).core_of(0)
    rate_points = measure_rate_points(machine, core, samples=samples)
    # r from the regression gradient over (elements, seconds-per-pass).
    ns = np.array([pt.n for pt in rate_points], dtype=float)
    per_pass = np.array(
        [pt.mean_seconds for pt in rate_points], dtype=float
    ) / 64.0
    line = linear_regression(ns, per_pass)
    r_flops = DAXPY.flops_per_element / line.gradient

    if nprocs == 1:
        g_flops, l_flops = 0.0, 0.0
    else:
        hs, times = measure_h_relations(machine, nprocs, samples=samples)
        flop_times = np.asarray(times) * r_flops
        h_line = linear_regression(np.asarray(hs, dtype=float), flop_times)
        g_flops = max(h_line.gradient, 0.0)
        l_flops = max(h_line.intercept, 0.0)

    return ClassicBSPParams(p=nprocs, r=r_flops, g=g_flops, l=l_flops)
