"""Pairwise communication benchmarks (§5.6.3).

Extracts the three statistics of the barrier cost model from simulated
measurements, exactly as the thesis isolates them:

* ``O_i`` — pure invocation overhead, the median of repeated empty
  ``Startall`` calls;
* ``O_ij`` — marginal cost per started request, the gradient of a
  regression over growing simultaneous-request counts;
* ``L_ij`` — the "wire latency of a zero-length message": the intercept of
  a regression of one-way transmission time over message size (whose
  gradient doubles as the inverse-bandwidth estimate ``B_ij``).

The benchmark only ever observes noisy end-to-end timings; truth matrices
never leak into the result.  All P^2 pairs are measured with vectorised
sampling and a batched least-squares solve, keeping the protocol faithful
while staying fast for P up to a few hundred.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.barriers.cost_model import CommParameters
from repro.bench.stats import batched_regression
from repro.cluster.topology import Placement
from repro.machine.simmachine import SimMachine
from repro.util.validation import require_int

DEFAULT_SIZES = tuple(2**k for k in range(0, 21))  # 1 B .. 1 MiB (§5.6.4)
DEFAULT_REQUEST_COUNTS = tuple(range(1, 9))
DEFAULT_STREAM = "comm-bench"
DEFAULT_INTERCEPT_MAX_SIZE = 4096


@dataclass(frozen=True)
class CommBenchReport:
    """Benchmark output: model parameters plus measurement provenance."""

    params: CommParameters
    placement: Placement
    samples: int
    sizes: tuple[int, ...]
    request_counts: tuple[int, ...]
    invocation_overheads: np.ndarray  # per-process O_i medians


def _ensemble_medians(
    machine: SimMachine, rng, clean: np.ndarray, samples: int, runs: int
):
    """Per-run medians over ``samples`` noisy observations of each clean
    duration, for ``runs`` independent replications in one bulk draw.

    ``clean`` may carry leading sweep axes (e.g. one slice per request
    count or message size): the whole replication ensemble is observed
    with a single draw of ``runs * samples`` leading replications —
    draws fill replication-major, sweep-slice next, so ``runs=1``
    consumes the stream exactly as the un-replicated benchmark always
    has — and reduced over the sample axis to ``(runs, *clean.shape)``.
    """
    draws = machine.noise.sample_matrix(rng, clean, runs * samples)
    return np.median(draws.reshape(runs, samples, *np.shape(clean)), axis=1)


def benchmark_comm_ensemble(
    machine: SimMachine,
    placement: Placement,
    samples: int = 25,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    request_counts: tuple[int, ...] = DEFAULT_REQUEST_COUNTS,
    stream: str = DEFAULT_STREAM,
    intercept_max_size: int = DEFAULT_INTERCEPT_MAX_SIZE,
    runs: int = 1,
) -> list[CommBenchReport]:
    """``runs`` independent P x P parameter extractions in one bulk pass.

    The replication dimension of the benchmark: every noisy observation
    matrix is drawn once with a ``runs``-major leading axis and each
    replication's medians/regressions are reduced by one vectorised
    solve, so a whole parameter ensemble — the cheap large ensembles
    stable analytic extraction wants — costs barely more than a single
    report.  ``runs=1`` is bit-identical to the historical single-report
    benchmark (same stream consumption, same estimators), which is what
    :func:`benchmark_comm` returns.
    """
    samples = require_int(samples, "samples")
    if samples < 3:
        raise ValueError("samples must be >= 3 for a stable median")
    if len(sizes) < 2 or len(request_counts) < 2:
        raise ValueError("need at least two sizes and two request counts")
    runs = require_int(runs, "runs")
    if runs < 1:
        raise ValueError("runs must be >= 1")

    truth = machine.comm_truth(placement)
    p = placement.nprocs
    rng = machine.rng(stream, p)
    diag = np.arange(p)

    # --- O_i: empty Startall calls --------------------------------------
    clean_invocation = np.full(p, truth.invocation_overhead)
    o_self = _ensemble_medians(machine, rng, clean_invocation, samples, runs)

    # --- O_ij: gradient over simultaneous request counts ----------------
    # The timed quantity is a Startall of c minimal requests: each extra
    # request adds its start overhead plus, for remote pairs, one NIC
    # serialisation slot — so the extracted gradient absorbs the stack's
    # per-message injection cost exactly as a real benchmark would.
    nodes = np.array([placement.node_of(r) for r in range(p)])
    remote = (nodes[:, None] != nodes[None, :]).astype(float)
    per_request = truth.start_overhead + remote * truth.nic_gap
    counts = np.asarray(request_counts, dtype=float)
    clean_counts = (
        truth.invocation_overhead
        + truth.start_overhead
        + (counts[:, None, None] - 1.0) * per_request
    )
    count_medians = _ensemble_medians(machine, rng, clean_counts, samples, runs)
    grads, _ = batched_regression(
        counts, np.moveaxis(count_medians, 1, -1).reshape(runs * p * p, -1)
    )
    overhead = grads.reshape(runs, p, p)
    overhead[:, diag, diag] = o_self

    # --- L_ij / B_ij: size sweep of one-way transmissions ---------------
    size_arr = np.asarray(sizes, dtype=float)
    one_way_const = (
        truth.invocation_overhead
        + truth.start_overhead
        + truth.latency
        + truth.recv_overhead
    )
    clean_sizes = one_way_const + size_arr[:, None, None] * truth.inv_bandwidth
    size_medians = _ensemble_medians(machine, rng, clean_sizes, samples, runs)
    betas, _ = batched_regression(
        size_arr, np.moveaxis(size_medians, 1, -1).reshape(runs * p * p, -1)
    )
    small = size_arr <= intercept_max_size
    if small.sum() < 2:
        small = np.zeros_like(size_arr, dtype=bool)
        small[np.argsort(size_arr)[:2]] = True
    _, intercepts = batched_regression(
        size_arr[small],
        np.moveaxis(size_medians[:, small], 1, -1).reshape(runs * p * p, -1),
    )
    latency = np.maximum(intercepts.reshape(runs, p, p), 0.0)
    inv_bandwidth = np.maximum(betas.reshape(runs, p, p), 0.0)
    latency[:, diag, diag] = 0.0
    inv_bandwidth[:, diag, diag] = 0.0

    return [
        CommBenchReport(
            params=CommParameters(
                overhead=overhead[r],
                latency=latency[r],
                inv_bandwidth=inv_bandwidth[r],
            ),
            placement=placement,
            samples=samples,
            sizes=tuple(int(s) for s in sizes),
            request_counts=tuple(int(c) for c in request_counts),
            invocation_overheads=o_self[r],
        )
        for r in range(runs)
    ]


def benchmark_comm(
    machine: SimMachine,
    placement: Placement,
    samples: int = 25,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    request_counts: tuple[int, ...] = DEFAULT_REQUEST_COUNTS,
    stream: str = DEFAULT_STREAM,
    intercept_max_size: int = DEFAULT_INTERCEPT_MAX_SIZE,
) -> CommBenchReport:
    """Measure the full P x P parameter set for one placement.

    The inverse bandwidth is the gradient over the full size range; the
    zero-length latency is the intercept of a regression restricted to
    ``intercept_max_size`` bytes, where transmission time is latency-
    dominated.  (A single all-sizes regression — the naive reading of
    §5.6.3 — lets the timing jitter of megabyte transfers swamp the
    microsecond-scale intercept; anchoring the intercept in the small-size
    regime is what keeps the estimate stable, which is exactly the
    stability-versus-protocol tuning the thesis describes in §5.6.4.)

    The single-replication view of :func:`benchmark_comm_ensemble`.
    """
    return benchmark_comm_ensemble(
        machine,
        placement,
        samples=samples,
        sizes=sizes,
        request_counts=request_counts,
        stream=stream,
        intercept_max_size=intercept_max_size,
        runs=1,
    )[0]
