"""The thesis figure/table catalogue: every artifact as a suite spec.

Each :class:`~repro.explore.suites.SuiteSpec` below regenerates one thesis
figure or table through the campaign engine — the design space produces the
sweep, the experiment adapter evaluates each point, the series name the
curves a plot would draw, and the claims are the shape statements the
figure exists to demonstrate, ported verbatim from the bespoke benchmark
modules this catalogue replaced.

Sampling depth is owned *here*, by the specs, not by test fixtures: the
``COMM_SIZES`` / ``COMM_SAMPLES`` / ``BARRIER_RUNS`` constants are the
single source of truth the bench wrappers and any future spec import.
"""

from __future__ import annotations

import numpy as np

from repro.explore.space import DesignSpace
from repro.explore.suites import (
    Claim,
    SeriesSpec,
    SuiteResult,
    SuiteSpec,
    register_suite,
)

# --------------------------------------------------------------- constants
#
# Suite sweeps trade sampling depth for wall time; these knobs keep every
# suite in the seconds-to-a-minute range while preserving the shapes.

#: Message sizes profiled by ``benchmark_comm`` in suite experiments.
COMM_SIZES = tuple(2**k for k in range(0, 17, 4))

#: Samples per communication measurement.
COMM_SAMPLES = 7

#: Barrier measurement repetitions.
BARRIER_RUNS = 16

#: The goldened artifacts checked on every push (see CI and
#: ``benchmarks/goldens/``).  The three Chapter 8 suites have goldens
#: too, checked by their own CI step; they stay out of this tuple, which
#: also defines the ``golden-cold`` benchmark workload.
GOLDEN_SUITES = (
    "fig-4-2",
    "fig-5-6-to-5-9",
    "fig-6-3",
    "table-7-1",
    "table-7-2",
)


def _np(result: SuiteResult, series: str) -> np.ndarray:
    return np.asarray(result.series_values(series), dtype=float)


def _claim(name: str, description: str = ""):
    """Decorator sugar: turn a checker function into a Claim."""

    def deco(fn) -> Claim:
        return Claim(name=name, check=fn, description=description)

    return deco


# ------------------------------------------------------------- Chapter 3


@_claim("strong-scaling-floor", "measured inner product decreases with P")
def _fig32_scaling(result: SuiteResult) -> None:
    measured = _np(result, "measured")
    assert measured[1] < measured[0]


@_claim("classic-model-diverges",
        "the four-scalar estimate mispredicts increasingly with P")
def _fig32_divergence(result: SuiteResult) -> None:
    ratios = _np(result, "ratio")
    assert ratios[-1] > 2.0 * ratios[0] or ratios[-1] < 0.5 * ratios[0], (
        "classic model should mispredict increasingly with P"
    )


register_suite(SuiteSpec(
    name="fig-3-2",
    title="Fig. 3.2: inner product timings vs classic BSP estimates",
    experiment="inner-product",
    space=DesignSpace.from_dict({
        "axes": {"nprocs": [8, 16, 32, 64]},
        "constants": {
            "preset": "xeon-8x2x4", "n_total": 10_000_000, "samples": 5,
        },
    }),
    columns=("nprocs", "measured_s", "estimate_s", "estimate_ratio"),
    series=(
        SeriesSpec("measured", y="measured_s", x="nprocs"),
        SeriesSpec("estimate", y="estimate_s", x="nprocs"),
        SeriesSpec("ratio", y="estimate_ratio", x="nprocs"),
    ),
    claims=(_fig32_scaling, _fig32_divergence),
))


@_claim("rate-roughly-constant", "r stays near 1 Gflop/s for every P")
def _table31_rate(result: SuiteResult) -> None:
    rates = _np(result, "r")
    assert rates.max() / rates.min() < 1.5, "r should be roughly constant"
    assert 0.5e9 < rates[0] < 2.0e9, "r should be ~1 Gflop/s"


@_claim("l-spans-orders-of-magnitude",
        "the intercept l grows by orders of magnitude with scale")
def _table31_l(result: SuiteResult) -> None:
    ls = _np(result, "l")
    assert ls[-1] > 10 * ls[0], (
        "l must span orders of magnitude with scale"
    )


register_suite(SuiteSpec(
    name="table-3-1",
    title="Table 3.1: BSPBench parameter values (8-way 2x4-core cluster)",
    experiment="bspbench-params",
    space=DesignSpace.from_dict({
        "axes": {"nprocs": [8, 16, 24, 32, 40, 48, 56, 64]},
        "constants": {"preset": "xeon-8x2x4", "samples": 5},
    }),
    columns=("nprocs", "r_flops", "g_flop", "l_flop"),
    series=(
        SeriesSpec("r", y="r_flops", x="nprocs"),
        SeriesSpec("g", y="g_flop", x="nprocs"),
        SeriesSpec("l", y="l_flop", x="nprocs"),
    ),
    claims=(_table31_rate, _table31_l),
))


# ------------------------------------------------------------- Chapter 4


@_claim("small-sizes-overhead-bound",
        "the rate at the smallest vector is far below the plateau")
def _fig42_overhead(result: SuiteResult) -> None:
    rates = _np(result, "rate")
    assert rates[0] < 0.8 * rates[-1], "small sizes must be overhead-bound"


@_claim("plateau-near-1gflops", "the largest sizes sustain ~1 Gflop/s")
def _fig42_plateau(result: SuiteResult) -> None:
    rates = _np(result, "rate")
    assert 0.5e9 < rates[-1] < 2.0e9, "plateau near 1 Gflop/s"


register_suite(SuiteSpec(
    name="fig-4-2",
    title="Fig. 4.2: bspbench computation rates (vector size sweep)",
    experiment="bspbench-rate",
    space=DesignSpace.from_dict({
        "axes": {"n": [2**k for k in range(0, 11)]},
        "constants": {"preset": "xeon-8x2x4", "core": 0, "samples": 8},
    }),
    columns=("n", "rate_flops", "mean_s"),
    series=(SeriesSpec("rate", y="rate_flops", x="n"),),
    claims=(_fig42_overhead, _fig42_plateau),
))

_FIG43_COUNTS = (1, 16, 256, 4096, 65536, 1048576)


@_claim("own-profile-beats-mflops",
        "the stencil's own profile outpredicts the DAXPY Mflops line")
def _fig43_profiles(result: SuiteResult) -> None:
    stencil = result.results.filter(kernel="stencil5")
    own = sum(
        abs(r.value("predicted_s") - r.value("measured_s")) for r in stencil
    )
    naive = sum(
        abs(r.value("mflops_predicted_s") - r.value("measured_s"))
        for r in stencil
    )
    assert own < naive


register_suite(SuiteSpec(
    name="fig-4-3",
    title="Fig. 4.3: kernel rates and predictions (DAXPY vs 5-point stencil)",
    experiment="kernel-extrapolation",
    space=DesignSpace.from_dict({
        "axes": {
            "kernel": ["daxpy", "stencil5"],
            "applications": list(_FIG43_COUNTS),
        },
        "constants": {"preset": "xeon-8x2x4", "profile_n": 1024, "samples": 15},
    }),
    columns=("kernel", "applications", "measured_s", "predicted_s",
             "mflops_predicted_s"),
    claims=(_fig43_profiles,),
))


@_claim("misprediction-bounded",
        "relative error stays under ~60% across seven orders of magnitude")
def _fig44_bounded(result: SuiteResult) -> None:
    worst = max(result.results.values("rel_error"))
    assert worst < 0.6, "misprediction must stay bounded (thesis: < ~60%)"


register_suite(SuiteSpec(
    name="fig-4-4",
    title="Fig. 4.4: relative misprediction vs kernel applications",
    experiment="kernel-extrapolation",
    space=DesignSpace.from_dict({
        "axes": {
            "kernel": ["daxpy", "stencil5"],
            "applications": list(_FIG43_COUNTS) + [16777216],
        },
        "constants": {"preset": "xeon-8x2x4", "profile_n": 1024, "samples": 15},
    }),
    columns=("kernel", "applications", "rel_error"),
    claims=(_fig44_bounded,),
))

_L1_BYTES = 64 * 1024
_BLAS_LIMIT = 512 * 1024


def _blas_points(in_cache: bool) -> list[dict]:
    from repro.bench.blas_profile import beyond_cache_sizes, in_cache_sizes
    from repro.kernels import BLAS_L1_KERNELS

    points = []
    for kernel in BLAS_L1_KERNELS:
        sizes = (
            in_cache_sizes(kernel, _L1_BYTES, points=12) if in_cache
            else beyond_cache_sizes(kernel, _BLAS_LIMIT, points=20)
        )
        points.extend({"kernel": kernel.name, "n": int(n)} for n in sizes)
    return points


def _kernel_gradient(records, lo: float, hi: float) -> float:
    """:func:`repro.bench.blas_profile.segment_gradient` over ``records``."""
    from repro.bench.blas_profile import segment_gradient

    return segment_gradient(
        [r.value("memory_bytes") for r in records],
        [r.value("median_s") for r in records],
        lo, hi,
    )


@_claim("linear-in-cache", "time is linear in memory use inside L1")
def _fig45_linear(result: SuiteResult) -> None:
    for (kernel,), sub in result.results.group_by("kernel").items():
        mem = np.asarray(sub.values("memory_bytes"), dtype=float)
        t = np.asarray(sub.values("median_s"), dtype=float)
        fit = np.polyfit(mem, t, 1)
        residual = np.abs(t - np.polyval(fit, mem)).max()
        assert residual < 0.15 * t.max(), f"{kernel} nonlinear in-cache"


@_claim("kernel-specific-gradients",
        "saxpy and sdot differ by far more than measurement noise (§4.2)")
def _fig45_gradients(result: SuiteResult) -> None:
    groups = result.results.group_by("kernel")
    g_axpy = _kernel_gradient(groups[("saxpy",)], 0, _L1_BYTES)
    g_dot = _kernel_gradient(groups[("sdot",)], 0, _L1_BYTES)
    assert abs(g_axpy - g_dot) / max(g_axpy, g_dot) > 0.15


register_suite(SuiteSpec(
    name="fig-4-5",
    title="Fig. 4.5: L1 BLAS in-cache sweep (Athlon X2)",
    experiment="blas-sweep",
    space=DesignSpace.from_dict({
        "points": _blas_points(in_cache=True),
        "constants": {"preset": "athlon-x2", "batch": 24},
    }),
    columns=("kernel", "n", "memory_bytes", "median_s"),
    claims=(_fig45_linear, _fig45_gradients),
))


@_claim("l1-gradient-break",
        "every kernel's seconds-per-byte gradient breaks upward past L1")
def _fig46_knees(result: SuiteResult) -> None:
    for (kernel,), sub in result.results.group_by("kernel").items():
        inside = _kernel_gradient(sub.records, 0, _L1_BYTES)
        outside = _kernel_gradient(sub.records, 2 * _L1_BYTES, _BLAS_LIMIT)
        assert outside > 1.15 * inside, (
            f"{kernel} must show the L1 gradient break"
        )


register_suite(SuiteSpec(
    name="fig-4-6",
    title="Fig. 4.6: L1 BLAS sweep past the 64 KB L1 boundary (Athlon X2)",
    experiment="blas-sweep",
    space=DesignSpace.from_dict({
        "points": _blas_points(in_cache=False),
        "constants": {"preset": "athlon-x2", "batch": 24},
    }),
    columns=("kernel", "n", "memory_bytes", "median_s"),
    claims=(_fig46_knees,),
))


# ------------------------------------------------------------- Chapter 5

_BARRIER_PATTERNS = ("dissemination", "tree", "linear")


def _barrier_series() -> tuple[SeriesSpec, ...]:
    series = []
    for key, pattern in (("D", "dissemination"), ("T", "tree"), ("L", "linear")):
        series.append(SeriesSpec(
            f"measured:{key}", y="measured_s", x="nprocs",
            where={"pattern": pattern},
        ))
        series.append(SeriesSpec(
            f"predicted:{key}", y="predicted_s", x="nprocs",
            where={"pattern": pattern},
        ))
        series.append(SeriesSpec(
            f"rel_error:{key}", y="rel_error", x="nprocs",
            where={"pattern": pattern},
        ))
    return tuple(series)


@_claim("linear-worst-at-scale",
        "L is the most expensive family at 64 and grows linearly")
def _fig56_linear_worst(result: SuiteResult) -> None:
    counts = np.asarray(result.series("measured:L")[0])
    l_meas = _np(result, "measured:L")
    at64 = counts == 64
    assert l_meas[at64] > _np(result, "measured:D")[at64]
    assert l_meas[at64] > _np(result, "measured:T")[at64]
    big = counts >= 32
    assert np.polyfit(counts[big], l_meas[big], 1)[0] > 0


@_claim("dissemination-parity-oscillation",
        "D oscillates between odd and even counts in the two-node range, "
        "in both the measured and predicted series")
def _fig56_oscillation(result: SuiteResult) -> None:
    counts = np.asarray(result.series("measured:D")[0])
    for name in ("measured:D", "predicted:D"):
        series = _np(result, name)
        odd = [series[counts == p][0] for p in (9, 11, 13, 15)]
        even = [series[counts == p][0] for p in (10, 12, 14, 16)]
        assert min(odd) > max(even), "D odd/even oscillation missing"


@_claim("dissemination-full-machine-dips",
        "D dips at the full-machine-friendly counts 28 and 32")
def _fig56_dips(result: SuiteResult) -> None:
    counts = np.asarray(result.series("measured:D")[0])
    d_meas = _np(result, "measured:D")
    for dip, ref in ((28, 27), (32, 31)):
        assert d_meas[counts == dip][0] < d_meas[counts == ref][0], (
            f"D dip at {dip} missing"
        )


@_claim("linear-relative-error-improves",
        "relative L error shrinks as the barrier cost itself grows")
def _fig56_rel_error(result: SuiteResult) -> None:
    counts = np.asarray(result.series("rel_error:L")[0])
    l_rel = np.abs(_np(result, "rel_error:L"))
    assert l_rel[counts >= 48].mean() < l_rel[counts <= 16].mean()


register_suite(SuiteSpec(
    name="fig-5-6-to-5-9",
    title="Figs. 5.6-5.9: barrier timings and prediction errors (8x2x4)",
    experiment="barrier-cost",
    space=DesignSpace.from_dict({
        "axes": {
            "pattern": list(_BARRIER_PATTERNS),
            "nprocs": list(range(2, 65)),
        },
        "constants": {
            "preset": "xeon-8x2x4",
            "runs": BARRIER_RUNS,
            "comm_samples": COMM_SAMPLES,
        },
    }),
    columns=("pattern", "nprocs", "measured_s", "predicted_s",
             "abs_error_s", "rel_error"),
    series=_barrier_series(),
    claims=(_fig56_linear_worst, _fig56_oscillation, _fig56_dips,
            _fig56_rel_error),
))

_OPTERON_CORES_PER_NODE = 12


@_claim("tree-wins-multi-node",
        "T outperforms D in every multi-node count whose node allocation "
        "is not a power of two")
def _fig510_tree_wins(result: SuiteResult) -> None:
    counts = np.asarray(result.series("measured:D")[0])
    d_meas = _np(result, "measured:D")
    t_meas = _np(result, "measured:T")
    nodes_used = -(-counts // _OPTERON_CORES_PER_NODE)
    pow2 = (nodes_used & (nodes_used - 1)) == 0
    multi = (counts >= 36) & ~pow2
    assert (t_meas[multi] < d_meas[multi]).all(), "T must win multi-node"
    lucky = (counts >= 36) & pow2
    assert lucky.sum() >= 1  # the explained exception exists


@_claim("linear-worst-and-millisecond-scale",
        "L stays worst at scale and reaches the ~2 ms magnitude window")
def _fig510_linear(result: SuiteResult) -> None:
    counts = np.asarray(result.series("measured:L")[0])
    l_meas = _np(result, "measured:L")
    t_meas = _np(result, "measured:T")
    nodes_used = -(-counts // _OPTERON_CORES_PER_NODE)
    pow2 = (nodes_used & (nodes_used - 1)) == 0
    multi = (counts >= 36) & ~pow2
    assert (l_meas[multi] > t_meas[multi]).all()
    assert 0.5e-3 < l_meas[counts == 144][0] < 5e-3


@_claim("absolute-errors-sub-millisecond",
        "D/T absolute errors stay within fractions of a millisecond")
def _fig510_abs_error(result: SuiteResult) -> None:
    for key in ("D", "T"):
        abs_err = (
            _np(result, f"predicted:{key}") - _np(result, f"measured:{key}")
        )
        assert np.abs(abs_err).max() < 0.5e-3


register_suite(SuiteSpec(
    name="fig-5-10-to-5-13",
    title="Figs. 5.10-5.13: barrier timings and prediction errors (12x2x6)",
    experiment="barrier-cost",
    space=DesignSpace.from_dict({
        "axes": {
            "pattern": list(_BARRIER_PATTERNS),
            "nprocs": list(range(6, 145, 6)),
        },
        "constants": {
            "preset": "opteron-12x2x6",
            "runs": 12,
            "comm_samples": COMM_SAMPLES,
        },
    }),
    columns=("pattern", "nprocs", "measured_s", "predicted_s",
             "abs_error_s", "rel_error"),
    series=_barrier_series(),
    claims=(_fig510_tree_wins, _fig510_linear, _fig510_abs_error),
))


# ------------------------------------------------------------- Chapter 6


def _sync_claims(
    ratio_lo: float, payload_claim: bool, payload_from: int = 24
) -> tuple[Claim, ...]:
    @_claim("payload-costs",
            "the payload raises cost above the bare barrier: point-for-"
            "point once the map is large enough to resolve, and in "
            "aggregate over the sweep")
    def payload_costs(result: SuiteResult) -> None:
        measured = _np(result, "measured")
        bare = _np(result, "bare")
        nprocs = np.asarray(
            [rec.point["nprocs"] for rec in result.results], dtype=int
        )
        # At small P the few-byte message-count map costs less than the
        # per-run jitter of the mean-of-worst statistic (outlier spikes
        # dominate the worst cases), so — like the thesis reading of
        # Fig. 6.3 — the point-for-point ordering is only claimed where
        # the payload is resolvable; the sweep as a whole must still pay.
        resolvable = nprocs >= payload_from
        assert (measured[resolvable] >= bare[resolvable]).all(), (
            "payload must cost at multi-node scale"
        )
        assert measured.sum() >= bare.sum(), "payload must cost in aggregate"

    @_claim("sync-cost-grows", "the P x P map makes the sync grow with P")
    def sync_grows(result: SuiteResult) -> None:
        measured = _np(result, "measured")
        assert measured[-1] > measured[0], "sync cost grows with P"

    @_claim("estimate-tracks-measurement",
            "the Ch. 6 estimate stays within a small factor throughout")
    def estimate_tracks(result: SuiteResult) -> None:
        measured = _np(result, "measured")
        predicted = _np(result, "predicted")
        ratios = predicted / measured
        assert ((ratio_lo < ratios) & (ratios < 2.5)).all(), ratios

    # The payload>=bare comparison is only claimed on the Xeon platform;
    # on the Opteron the two sit within the per-run noise at small P
    # (the thesis, too, only reads the ordering off Fig. 6.3).
    if payload_claim:
        return (payload_costs, sync_grows, estimate_tracks)
    return (sync_grows, estimate_tracks)


def _sync_suite(name: str, title: str, preset: str, counts, ratio_lo: float,
                payload_claim: bool = True):
    register_suite(SuiteSpec(
        name=name,
        title=title,
        experiment="sync-cost",
        space=DesignSpace.from_dict({
            "axes": {"nprocs": list(counts)},
            "constants": {
                "preset": preset,
                "runs": BARRIER_RUNS,
                "comm_samples": COMM_SAMPLES,
            },
        }),
        columns=("nprocs", "bare_s", "measured_s", "predicted_s"),
        series=(
            SeriesSpec("bare", y="bare_s", x="nprocs"),
            SeriesSpec("measured", y="measured_s", x="nprocs"),
            SeriesSpec("predicted", y="predicted_s", x="nprocs"),
        ),
        claims=_sync_claims(ratio_lo, payload_claim),
    ))


_sync_suite(
    "fig-6-3", "Fig. 6.3: BSP sync measured vs estimate (8x2x4)",
    "xeon-8x2x4", (8, 16, 24, 32, 48, 64), ratio_lo=0.2,
)
_sync_suite(
    "fig-6-4", "Fig. 6.4: BSP sync measured vs estimate (12x2x6)",
    "opteron-12x2x6", (24, 48, 72, 96, 120, 144), ratio_lo=0.15,
    payload_claim=False,
)


# ------------------------------------------------------------- Chapter 7


def _cluster_claims(node_sizes: list[int]) -> tuple[Claim, ...]:
    @_claim("node-level-recovers-nodes",
            "the node level's subsets are exactly the physical nodes")
    def recovers_nodes(result: SuiteResult) -> None:
        record = result.results[0]
        assert record.value("node_sizes") == node_sizes, (
            "node level must recover the physical nodes"
        )
        assert record.value("nodes_pure"), (
            "every node-level subset must sit on one physical node"
        )

    @_claim("hierarchy-closes", "the coarsest level is one global subset")
    def closes(result: SuiteResult) -> None:
        assert result.results[0].value("top_subsets") == 1

    return (recovers_nodes, closes)


register_suite(SuiteSpec(
    name="table-7-1",
    title="Table 7.1: 60-process SSS clustering on the 8x2x4 configuration",
    experiment="sss-cluster",
    space=DesignSpace.from_dict({
        "points": [{"nprocs": 60}],
        "constants": {
            "preset": "xeon-8x2x4",
            "gap_ratio": 1.25,  # resolve the socket/node intercept strata
            "samples": 9,
            "comm_sizes": list(COMM_SIZES),
        },
    }),
    columns=("nprocs", "levels", "node_sizes", "nodes_pure", "top_subsets"),
    claims=_cluster_claims([7, 7, 7, 7, 8, 8, 8, 8]),
))

register_suite(SuiteSpec(
    name="table-7-2",
    title="Table 7.2: 115-process SSS clustering on the 10x2x6 configuration",
    experiment="sss-cluster",
    space=DesignSpace.from_dict({
        "points": [{"nprocs": 115}],
        "constants": {
            "preset": "cluster-10x2x6",
            "gap_ratio": 1.25,
            "samples": 9,
            "comm_sizes": list(COMM_SIZES),
        },
    }),
    columns=("nprocs", "levels", "node_sizes", "nodes_pure", "top_subsets"),
    claims=_cluster_claims([11] * 5 + [12] * 5),
))


def _hybrid_claims(min_wins: int) -> tuple[Claim, ...]:
    @_claim("hybrid-beats-defaults",
            "the hybrid equals/outperforms flat defaults at nearly every P")
    def hybrid_wins(result: SuiteResult) -> None:
        wins = sum(1 for r in result.results if r.value("win"))
        assert wins >= min_wins, (
            "hybrid must equal/beat defaults at nearly every scale"
        )

    return (hybrid_wins,)


def _hybrid_suite(name, title, preset, counts, min_wins):
    register_suite(SuiteSpec(
        name=name,
        title=title,
        experiment="hybrid-barrier",
        space=DesignSpace.from_dict({
            "axes": {"nprocs": list(counts)},
            "constants": {
                "preset": preset,
                "runs": BARRIER_RUNS,
                "comm_samples": COMM_SAMPLES,
            },
        }),
        columns=("nprocs", "hybrid_s", "linear_s", "tree_s",
                 "dissemination_s"),
        claims=_hybrid_claims(min_wins),
    ))


_hybrid_suite(
    "fig-7-4", "Fig. 7.4: hybrid vs flat barrier performance (8x2x4)",
    "xeon-8x2x4", (16, 32, 48, 64), min_wins=3,
)
_hybrid_suite(
    "fig-7-5", "Fig. 7.5: hybrid vs flat barrier performance (12x2x6)",
    "opteron-12x2x6", (24, 72, 144), min_wins=2,
)


def _adapt_claims(max_losses: int) -> tuple[Claim, ...]:
    @_claim("adaptation-beats-defaults",
            "the greedy-adapted barrier equals/outperforms the predicted-"
            "best default when measured")
    def adaptation_wins(result: SuiteResult) -> None:
        losses = sum(
            1 for r in result.results
            if r.value("adapted_measured_s")
            > 1.10 * r.value("default_measured_s")
        )
        assert losses <= max_losses, (
            "adapted must equal/outperform defaults"
        )

    return (adaptation_wins,)


def _adapt_suite(name, title, preset, counts):
    register_suite(SuiteSpec(
        name=name,
        title=title,
        experiment="barrier-adapt",
        space=DesignSpace.from_dict({
            "axes": {"nprocs": list(counts)},
            "constants": {
                "preset": preset,
                "runs": BARRIER_RUNS,
                "comm_samples": COMM_SAMPLES,
            },
        }),
        columns=("nprocs", "adapted_pattern", "adapted_predicted_s",
                 "adapted_measured_s", "best_default",
                 "default_measured_s", "measured_speedup"),
        claims=_adapt_claims(max_losses=1),
    ))


_adapt_suite(
    "fig-7-6", "Fig. 7.6: greedy-adapted barrier vs defaults (8x2x4)",
    "xeon-8x2x4", (16, 32, 60, 64),
)
_adapt_suite(
    "fig-7-7", "Fig. 7.7: greedy-adapted barrier vs defaults (12x2x6)",
    "opteron-12x2x6", (24, 72, 144),
)


# ------------------------------------------------------------- Chapter 8

_A_SERIES_COUNTS = (4, 8, 16, 32, 64)
_STENCIL_LARGE, _STENCIL_SMALL = 2048, 512


def _mean_iter(result: SuiteResult, **where) -> dict[int, float]:
    sub = result.results.filter(**where)
    return {
        int(r.value("nprocs")): float(r.value("mean_iteration_s"))
        for r in sub
    }


@_claim("all-implementations-strong-scale",
        "every implementation scales down with P on the large problem")
def _fig84_scales(result: SuiteResult) -> None:
    for impl in ("BSP", "MPI", "MPI+R", "Hybrid"):
        series = _mean_iter(result, impl=impl, n=_STENCIL_LARGE, noisy=True)
        assert series[64] < series[4], f"{impl} must strong-scale"


@_claim("bsp-sync-overhead",
        "noise-free BSP carries a visible overhead over raw MPI at scale")
def _fig84_bsp_overhead(result: SuiteResult) -> None:
    clean = result.results.filter(noisy=False)
    bsp = clean.filter(impl="BSP")[0].value("mean_iteration_s")
    mpi = clean.filter(impl="MPI")[0].value("mean_iteration_s")
    assert bsp > mpi, "BSP carries sync overhead over raw MPI"


@_claim("overlap-pays-at-scale", "MPI+R beats plain MPI at 64 processes")
def _fig84_overlap(result: SuiteResult) -> None:
    # Claimed on the noise-free points: at 64 processes the restructured
    # code's ~20% win sits inside the spread of a 5-iteration noisy mean
    # (outlier spikes dominate per-iteration maxima), so — like the
    # BSP-overhead claim above — the ordering is read off the clean runs.
    clean = result.results.filter(noisy=False)
    mpi_r = clean.filter(impl="MPI+R")[0].value("mean_iteration_s")
    mpi = clean.filter(impl="MPI")[0].value("mean_iteration_s")
    assert mpi_r < mpi, "restructured overlap must pay at scale"


@_claim("small-problem-saturates-earlier",
        "the small problem's relative gain 32->64 trails the large one's")
def _fig85_saturation(result: SuiteResult) -> None:
    large = _mean_iter(result, impl="BSP", n=_STENCIL_LARGE, noisy=True)
    small = _mean_iter(result, impl="BSP", n=_STENCIL_SMALL, noisy=True)
    gain_large = large[32] / large[64]
    gain_small = small[32] / small[64]
    assert gain_large > gain_small, "small problem must saturate earlier"


@_claim("overlap-pair-comparable",
        "the two overlap-capable implementations land within 2x at scale")
def _fig86_overlap_pair(result: SuiteResult) -> None:
    hybrid = _mean_iter(result, impl="Hybrid", n=_STENCIL_LARGE, noisy=True)
    mpi_r = _mean_iter(result, impl="MPI+R", n=_STENCIL_LARGE, noisy=True)
    ratio = hybrid[64] / mpi_r[64]
    assert 0.4 < ratio < 2.0, "the overlap pair must be comparable"


@_claim("bsp-overhead-relatively-larger-when-small",
        "the BSP/MPI overhead ratio grows from P=4 to P=64 at 512^2")
def _fig87_overhead(result: SuiteResult) -> None:
    bsp = _mean_iter(result, impl="BSP", n=_STENCIL_SMALL, noisy=True)
    mpi = _mean_iter(result, impl="MPI", n=_STENCIL_SMALL, noisy=True)
    assert bsp[64] / mpi[64] > bsp[4] / mpi[4]


register_suite(SuiteSpec(
    name="fig-8-4-to-8-7",
    title="Figs. 8.4-8.7 (A1-A4): stencil strong scalability",
    experiment="stencil-run",
    space=DesignSpace.from_dict({
        "axes": {
            "impl": ["BSP", "MPI", "MPI+R", "Hybrid"],
            "n": [_STENCIL_LARGE, _STENCIL_SMALL],
            "nprocs": list(_A_SERIES_COUNTS),
        },
        # Noise-free points: at 2048^2 the BSP-vs-MPI gap and the
        # MPI-vs-MPI+R overlap win are close to the per-iteration noise
        # floor, so both orderings are claimed clean.
        "points": [
            {"impl": "BSP", "n": _STENCIL_LARGE, "nprocs": 64,
             "iterations": 3, "noisy": False},
            {"impl": "MPI", "n": _STENCIL_LARGE, "nprocs": 64,
             "iterations": 3, "noisy": False},
            {"impl": "MPI+R", "n": _STENCIL_LARGE, "nprocs": 64,
             "iterations": 3, "noisy": False},
        ],
        "constants": {"preset": "xeon-8x2x4", "iterations": 5, "noisy": True},
    }),
    columns=("impl", "n", "nprocs", "noisy", "mean_iteration_s"),
    claims=(_fig84_scales, _fig84_bsp_overhead, _fig84_overlap,
            _fig85_saturation, _fig86_overlap_pair, _fig87_overhead),
))


@_claim("every-configuration-runs",
        "each implementation completes a tiny sanity configuration")
def _table81_runs(result: SuiteResult) -> None:
    for record in result.results:
        assert record.value("mean_iteration_s") > 0, record.value("impl")


register_suite(SuiteSpec(
    name="table-8-1",
    title="Table 8.1: experimental configurations (sanity runs)",
    experiment="stencil-run",
    space=DesignSpace.from_dict({
        "axes": {"impl": ["BSP", "MPI", "MPI+R", "Hybrid"]},
        "constants": {
            "preset": "xeon-8x2x4", "n": 256, "nprocs": 8, "iterations": 2,
        },
    }),
    columns=("impl", "n", "nprocs", "mean_iteration_s"),
    claims=(_table81_runs,),
))


@_claim("parity-while-compute-dominates",
        "MPI and MPI+R wall times are near parity at P=4")
def _table82_parity(result: SuiteResult) -> None:
    mpi = _mean_iter(result, impl="MPI")
    mpi_r = _mean_iter(result, impl="MPI+R")
    assert mpi[4] / mpi_r[4] < 1.25


@_claim("restructuring-pays-at-scale",
        "MPI+R wins visibly once communication is a real fraction")
def _table82_wins(result: SuiteResult) -> None:
    mpi = _mean_iter(result, impl="MPI")
    mpi_r = _mean_iter(result, impl="MPI+R")
    assert mpi[64] / mpi_r[64] > 1.2


register_suite(SuiteSpec(
    name="table-8-2",
    title="Table 8.2: MPI and MPI+R wall times (1024^2, 6 iterations)",
    experiment="stencil-run",
    space=DesignSpace.from_dict({
        "axes": {
            "impl": ["MPI", "MPI+R"],
            "nprocs": list(_A_SERIES_COUNTS),
        },
        "constants": {"preset": "xeon-8x2x4", "n": 1024, "iterations": 6},
    }),
    columns=("impl", "nprocs", "mean_iteration_s", "total_s"),
    claims=(_table82_parity, _table82_wins),
))


@_claim("predictions-track-strong-scaling",
        "predicted and measured series both scale down for every case")
def _fig810_tracks(result: SuiteResult) -> None:
    for (impl, n), sub in result.results.group_by("impl", "n").items():
        measured = np.asarray(sub.values("measured_s"), dtype=float)
        predicted = np.asarray(sub.values("predicted_s"), dtype=float)
        assert measured[-1] < measured[0], (impl, n)
        assert predicted[-1] < predicted[0], (impl, n)


@_claim("predictions-within-small-factor",
        "every prediction stays within a small factor of measurement")
def _fig810_factor(result: SuiteResult) -> None:
    ratios = np.asarray(result.results.values("ratio"), dtype=float)
    assert ((0.25 < ratios) & (ratios < 2.5)).all(), ratios


register_suite(SuiteSpec(
    name="fig-8-10-to-8-15",
    title="Figs. 8.10-8.15 (B1-B6): stencil prediction vs measurement",
    experiment="stencil-accuracy",
    space=DesignSpace.from_dict({
        "axes": {
            "impl": ["BSP", "MPI", "MPI+R"],
            "n": [_STENCIL_LARGE, _STENCIL_SMALL],
            "nprocs": list(_A_SERIES_COUNTS),
        },
        "constants": {
            "preset": "xeon-8x2x4",
            "iterations": 5,
            "comm_samples": COMM_SAMPLES,
        },
    }),
    columns=("impl", "n", "nprocs", "predicted_s", "measured_s", "ratio"),
    claims=(_fig810_tracks, _fig810_factor),
))


@_claim("amortising-sync-pays", "depth 1 is never the measured optimum")
def _fig818_depth1(result: SuiteResult) -> None:
    measured = _np(result, "measured")
    depths = np.asarray(result.series("measured")[0])
    assert depths[int(np.argmin(measured))] > 1
    assert measured[depths == 1][0] > 1.5 * measured.min()


@_claim("model-choice-near-optimum",
        "the model's chosen depth lands at or adjacent to the measured one")
def _fig818_choice(result: SuiteResult) -> None:
    depths = np.asarray(result.series("measured")[0])
    measured = _np(result, "measured")
    predicted = _np(result, "predicted")
    chosen = depths[int(np.argmin(predicted))]
    best = depths[int(np.argmin(measured))]
    assert abs(int(chosen) - int(best)) <= 3


register_suite(SuiteSpec(
    name="fig-8-18",
    title="Fig. 8.18 (C1): adapted superstep, halo depth sweep (P=64, 512^2)",
    experiment="halo-depth",
    space=DesignSpace.from_dict({
        "axes": {"depth": list(range(1, 13))},
        "constants": {
            "preset": "xeon-8x2x4",
            "nprocs": 64,
            "n": _STENCIL_SMALL,
            "cycles": 5,
            "comm_samples": COMM_SAMPLES,
        },
    }),
    columns=("depth", "predicted_s", "measured_s"),
    series=(
        SeriesSpec("predicted", y="predicted_s", x="depth"),
        SeriesSpec("measured", y="measured_s", x="depth"),
    ),
    claims=(_fig818_depth1, _fig818_choice),
))


# ------------------------------------------------------------- ablations


@_claim("posted-condition-lowers-tree-predictions",
        "disabling the O_jj substitution raises (never lowers) the tree "
        "prediction, visibly at scale")
def _ablation_posted(result: SuiteResult) -> None:
    trees = result.results.filter(pattern="tree")
    on = np.asarray(trees.values("predicted_s"), dtype=float)
    off = np.asarray(trees.values("predicted_no_posted_s"), dtype=float)
    assert (off >= on).all()
    assert off[-1] > 1.01 * on[-1]


@_claim("posted-condition-inert-for-dissemination",
        "every process acts every stage, so nothing is ever posted")
def _ablation_posted_diss(result: SuiteResult) -> None:
    diss = result.results.filter(pattern="dissemination")[0]
    assert diss.value("predicted_s") == diss.value("predicted_no_posted_s")


@_claim("single-latency-underpredicts",
        "charging latency once systematically underpredicts measurement")
def _ablation_latency(result: SuiteResult) -> None:
    trees = result.results.filter(pattern="tree")
    measured = np.asarray(trees.values("measured_s"), dtype=float)
    single = np.asarray(
        trees.values("predicted_single_latency_s"), dtype=float
    )
    assert (single < 0.85 * measured).all()


register_suite(SuiteSpec(
    name="ablation-model",
    title="Ablations: posted-receive condition and latency doubling "
          "(tree barrier, 8x2x4)",
    experiment="barrier-prediction-variants",
    space=DesignSpace.from_dict({
        "axes": {"nprocs": [16, 32, 64]},
        "points": [{"pattern": "dissemination", "nprocs": 64}],
        "constants": {
            "preset": "xeon-8x2x4",
            "pattern": "tree",
            "runs": BARRIER_RUNS,
            "comm_samples": COMM_SAMPLES,
        },
    }),
    columns=("pattern", "nprocs", "measured_s", "predicted_s",
             "predicted_no_posted_s", "predicted_single_latency_s"),
    claims=(_ablation_posted, _ablation_posted_diss, _ablation_latency),
))


@_claim("payload-term-adds-cost-and-accuracy",
        "dropping the bandwidth term underpredicts the payload sync")
def _ablation_payload(result: SuiteResult) -> None:
    for record in result.results:
        measured = record.value("measured_s")
        pred_with = record.value("predicted_s")
        pred_bare = record.value("predicted_bare_s")
        assert pred_bare < pred_with, "payload term must add cost"
        assert abs(pred_with - measured) <= abs(pred_bare - measured)


register_suite(SuiteSpec(
    name="ablation-payload",
    title="Ablation: the §6.5 payload term in the sync estimate (8x2x4)",
    experiment="sync-cost",
    space=DesignSpace.from_dict({
        "axes": {"nprocs": [16, 32, 64]},
        "constants": {
            "preset": "xeon-8x2x4",
            "runs": BARRIER_RUNS,
            "comm_samples": COMM_SAMPLES,
        },
    }),
    columns=("nprocs", "measured_s", "predicted_s", "predicted_bare_s"),
    claims=(_ablation_payload,),
))


def _fabric(result: SuiteResult, preset: str):
    return result.results.filter(preset=preset)[0]


@_claim("fabric-change-visible",
        "everything gets much cheaper on the InfiniBand-class links")
def _ablation_fabric_cheaper(result: SuiteResult) -> None:
    gig = _fabric(result, "xeon-8x2x4")
    ib = _fabric(result, "xeon-8x2x4-ib")
    assert ib.value("dissemination_s") < 0.4 * gig.value("dissemination_s")
    assert ib.value("linear_s") < 0.4 * gig.value("linear_s")


@_claim("benchmark-sees-the-fabric",
        "profiled remote latencies drop with the interconnect swap")
def _ablation_fabric_profiled(result: SuiteResult) -> None:
    gig = _fabric(result, "xeon-8x2x4")
    ib = _fabric(result, "xeon-8x2x4-ib")
    assert ib.value("max_latency_s") < 0.5 * gig.value("max_latency_s")


@_claim("adaptation-follows-the-fabric",
        "the greedy generator still equals/beats the defaults on both")
def _ablation_fabric_adapts(result: SuiteResult) -> None:
    for record in result.results:
        best_default = min(
            record.value("dissemination_s"),
            record.value("tree_s"),
            record.value("linear_s"),
        )
        assert record.value("adapted_s") <= 1.10 * best_default


register_suite(SuiteSpec(
    name="ablation-interconnect",
    title="Ablation: the same nodes on a different interconnect (P=60)",
    experiment="fabric-study",
    space=DesignSpace.from_dict({
        "axes": {"preset": ["xeon-8x2x4", "xeon-8x2x4-ib"]},
        "constants": {
            "nprocs": 60,
            "runs": BARRIER_RUNS,
            "comm_samples": COMM_SAMPLES,
        },
    }),
    columns=("preset", "dissemination_s", "tree_s", "linear_s",
             "adapted_pattern", "adapted_s", "max_latency_s"),
    claims=(_ablation_fabric_cheaper, _ablation_fabric_profiled,
            _ablation_fabric_adapts),
))


@_claim("early-commit-never-slower",
        "committing puts early never slows the superstep down")
def _ablation_overlap_sign(result: SuiteResult) -> None:
    early = _np(result, "early")
    late = _np(result, "late")
    assert ((late - early) >= -1e-9).all()


@_claim("multi-node-overlap-visible",
        "the multi-node run saves a real fraction by committing early")
def _ablation_overlap_size(result: SuiteResult) -> None:
    early = _np(result, "early")
    late = _np(result, "late")
    savings = (late - early) / late
    assert savings[-1] > 0.02, "multi-node run must show real overlap"


register_suite(SuiteSpec(
    name="ablation-overlap",
    title="Ablation: early vs late communication commit (BSP runtime)",
    experiment="overlap-commit",
    space=DesignSpace.from_dict({
        "axes": {
            "commit": ["early", "late"],
            "nprocs": [8, 16, 32],
        },
        "constants": {"preset": "xeon-8x2x4"},
    }),
    columns=("commit", "nprocs", "total_s"),
    series=(
        SeriesSpec("early", y="total_s", x="nprocs",
                   where={"commit": "early"}),
        SeriesSpec("late", y="total_s", x="nprocs",
                   where={"commit": "late"}),
    ),
    claims=(_ablation_overlap_sign, _ablation_overlap_size),
))


# ------------------------------------------------------------ extensions


@_claim("queue-lock-degrades-gracefully",
        "the test-and-set storm grows much faster than MCS handoff")
def _spinlock_growth(result: SuiteResult) -> None:
    tas = _np(result, "test_and_set")
    mcs = _np(result, "mcs")
    assert tas[-1] / tas[0] > 2.0 * (mcs[-1] / mcs[0])


@_claim("mcs-cheapest-under-contention",
        "at the highest contention MCS hands off cheapest")
def _spinlock_mcs(result: SuiteResult) -> None:
    assert _np(result, "mcs")[-1] < _np(result, "test_and_set")[-1]


@_claim("single-signal-bounds-barriers",
        "the cheapest atomic arrival bounds any measured barrier below")
def _spinlock_bound(result: SuiteResult) -> None:
    record = result.results.filter(lock="bound")[0]
    assert 0 < record.value("bound_s") < record.value("barrier_s")


register_suite(SuiteSpec(
    name="extension-spinlocks",
    title="Extension (§5.1): spinlock handoff cost vs contention",
    experiment="spinlock",
    space=DesignSpace.from_dict({
        "axes": {
            "lock": ["test_and_set", "ticket", "mcs"],
            "nprocs": [2, 4, 8, 16],
        },
        "points": [{"lock": "bound", "nprocs": 16, "runs": BARRIER_RUNS}],
        # runs=8: each handoff cell is an 8-replication batched ensemble
        # (one bulk draw through the spinlock runs axis), so the growth
        # claims rest on ensemble means rather than a single noisy roll.
        "constants": {"preset": "xeon-8x2x4", "acquisitions": 12, "runs": 8},
    }),
    columns=("lock", "nprocs", "mean_handoff_s", "bound_s", "barrier_s"),
    series=(
        SeriesSpec("test_and_set", y="mean_handoff_s", x="nprocs",
                   where={"lock": "test_and_set"}),
        SeriesSpec("ticket", y="mean_handoff_s", x="nprocs",
                   where={"lock": "ticket"}),
        SeriesSpec("mcs", y="mean_handoff_s", x="nprocs",
                   where={"lock": "mcs"}),
    ),
    claims=(_spinlock_growth, _spinlock_mcs, _spinlock_bound),
))


@_claim("weak-mode-at-least-as-accurate",
        "weak-mode predictions keep the rate profile in its regime")
def _weak_accuracy(result: SuiteResult) -> None:
    weak = np.asarray(
        result.results.filter(mode="weak").values("rel_error"), dtype=float
    )
    strong = np.asarray(
        result.results.filter(mode="strong").values("rel_error"), dtype=float
    )
    assert weak.mean() <= strong.mean() + 0.05


@_claim("weak-iteration-roughly-flat",
        "weak-mode iteration time stays near the classic plateau")
def _weak_flat(result: SuiteResult) -> None:
    times = np.asarray(
        result.results.filter(mode="weak").values("measured_s"), dtype=float
    )
    assert times.max() < 3.0 * times.min()


register_suite(SuiteSpec(
    name="extension-weak-scaling",
    title="Extension: weak-mode vs strong-mode prediction accuracy (BSP)",
    experiment="stencil-mode-accuracy",
    space=DesignSpace.from_dict({
        "axes": {
            "mode": ["weak", "strong"],
            "nprocs": [4, 16, 64],
        },
        "constants": {
            "preset": "xeon-8x2x4",
            "local_side": 256,
            "strong_n": 1024,
            "comm_samples": COMM_SAMPLES,
        },
    }),
    columns=("mode", "nprocs", "n", "predicted_s", "measured_s", "rel_error"),
    claims=(_weak_accuracy, _weak_flat),
))


@_claim("per-rank-predictions-track",
        "R/C per-rank predictions match per-rank measured compute")
def _hetero_track(result: SuiteResult) -> None:
    record = result.results[0]
    predicted = np.asarray(record.value("predicted_s"), dtype=float)
    measured = np.asarray(record.value("measured_s"), dtype=float)
    np.testing.assert_allclose(predicted, measured, rtol=0.25)


@_claim("heterogeneity-visible-and-predicted",
        "fast-socket ranks measure clearly faster; imbalance is predicted")
def _hetero_imbalance(result: SuiteResult) -> None:
    record = result.results[0]
    measured = np.asarray(record.value("measured_s"), dtype=float)
    fast = np.asarray(record.value("fast_socket"), dtype=bool)
    assert measured[fast].mean() < 0.8 * measured[~fast].mean()
    imb_pred = record.value("imbalance_predicted_s")
    imb_meas = record.value("imbalance_measured_s")
    assert abs(imb_pred - imb_meas) <= 0.4 * abs(imb_meas)


@_claim("model-driven-rebalance-pays",
        "proportional rebalancing shrinks the predicted superstep")
def _hetero_rebalance(result: SuiteResult) -> None:
    record = result.results[0]
    assert (
        record.value("rebalanced_superstep_s")
        < 0.85 * record.value("superstep_s")
    )


register_suite(SuiteSpec(
    name="extension-heterogeneous",
    title="Extension (§3.3): heterogeneous sockets through the R/C matrices",
    experiment="hetero-compute",
    space=DesignSpace.from_dict({
        "points": [{"nprocs": 16, "n": 1024}],
        "constants": {"preset": "xeon-8x2x4-fma"},
    }),
    columns=("nprocs", "n", "imbalance_predicted_s", "imbalance_measured_s",
             "superstep_s", "rebalanced_superstep_s"),
    claims=(_hetero_track, _hetero_imbalance, _hetero_rebalance),
))
