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
from repro.simmpi.engine import simulate_stages_batch
from repro.util.validation import require_int

WORD_BYTES = 8  # double-precision machine words


@dataclass(frozen=True)
class RatePoint:
    """One vector-size measurement of the DAXPY rate (Fig. 4.2)."""

    n: int
    mean_seconds: float
    rate_flops: float


@dataclass(frozen=True)
class BSPBenchResult:
    """Full bspbench output for one process count."""

    params: ClassicBSPParams
    rate_points: tuple[RatePoint, ...]
    h_values: tuple[int, ...]
    h_times_seconds: tuple[float, ...]


def measure_rate_points(
    machine: SimMachine,
    core: int,
    sizes=None,
    iterations: int = 64,
    samples: int = 8,
) -> list[RatePoint]:
    """Time DAXPY at growing vector sizes; report mean time and rate."""
    if sizes is None:
        sizes = tuple(2**k for k in range(0, 11))  # 1 .. 1024
    iterations = require_int(iterations, "iterations")
    rng = machine.rng("bspbench-rate", core)
    points = []
    for n in sizes:
        times = [
            machine.kernel_time(core, DAXPY, n, reps=iterations, rng=rng)
            for _ in range(samples)
        ]
        t = float(np.median(times))
        per_app = t / iterations
        points.append(
            RatePoint(n=int(n), mean_seconds=t,
                      rate_flops=DAXPY.flops(int(n)) / per_app)
        )
    return points


def _h_relation_stages(nprocs: int, h_words: int):
    """An h-relation superstep as BSPonMPI realises it: one total-exchange
    stage carrying the payload, then the synchronisation pattern."""
    exchange = all_to_all_barrier(nprocs)
    sync = dissemination_barrier(nprocs)
    stages = list(exchange.stages) + list(sync.stages)
    p = nprocs
    per_pair = 0.0
    if h_words > 0 and p > 1:
        per_pair = h_words * WORD_BYTES / (p - 1)
    payloads = [per_pair] + [0.0] * len(sync.stages)
    return stages, payloads


def measure_h_relations(
    machine: SimMachine,
    nprocs: int,
    h_values=None,
    samples: int = 9,
) -> tuple[list[int], list[float]]:
    """Median superstep time for each h (words) — the g/l extraction data."""
    if h_values is None:
        h_values = tuple(range(0, 256, 17)) + (255,)
    nprocs = require_int(nprocs, "nprocs")
    truth = machine.comm_truth(machine.placement(nprocs))
    rng = machine.rng("bspbench-h", nprocs)
    hs, times = [], []
    for h in sorted(set(int(v) for v in h_values)):
        stages, payloads = _h_relation_stages(nprocs, h)
        # One replication per sample, in turn: a single runs=samples call
        # would draw the same values in another order.
        runs = []
        for _ in range(samples):
            exits = simulate_stages_batch(
                truth, stages, payload_bytes=payloads, rng=rng,
                noise=machine.noise,
            )[0]
            runs.append(float(exits.max()) if exits.size else 0.0)
        hs.append(h)
        times.append(median(runs))
    return hs, times


def run_bspbench(
    machine: SimMachine,
    nprocs: int,
    samples: int = 9,
) -> BSPBenchResult:
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
        hs, times = [0], [0.0]
    else:
        hs, times = measure_h_relations(machine, nprocs, samples=samples)
        flop_times = np.asarray(times) * r_flops
        h_line = linear_regression(np.asarray(hs, dtype=float), flop_times)
        g_flops = max(h_line.gradient, 0.0)
        l_flops = max(h_line.intercept, 0.0)

    params = ClassicBSPParams(p=nprocs, r=r_flops, g=g_flops, l=l_flops)
    return BSPBenchResult(
        params=params,
        rate_points=tuple(rate_points),
        h_values=tuple(hs),
        h_times_seconds=tuple(float(t) for t in times),
    )
