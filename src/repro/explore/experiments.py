"""Experiment registry and the built-in thesis experiment adapters.

An *experiment* maps one design point (a plain parameter dict) to a flat
metrics dict.  Experiments are registered by name so design-space specs —
and worker processes of the parallel executor — can reference them as
strings.  The built-ins wrap the repository's evaluate APIs, one thesis
figure or table each.

Each registration declares its point parameters once (name, cast,
default).  :func:`run_point` binds a point against that table, raising
on an unknown key, and hands the adapter every declared parameter, cast,
with defaults filled in; the stored point and its record key stay the
point as given.  ``python -m repro.explore experiments`` lists the
experiments with their tables.

An experiment may also register a ``prefetch(points)`` hook: the
campaign layer hands it each chunk's bound points before evaluating
them one by one, so it can compute what several points share in one
pass.  ``barrier-cost`` measures the points that share a pattern and
platform in one engine pass, and each point's evaluation is served its
bit-identical measurement.

Every adapter builds its platform from the named preset registry
(:mod:`repro.cluster.presets`), so a campaign spec is pure data.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any

import numpy as np

from repro.barriers.patterns import (
    all_to_all_barrier,
    dissemination_barrier,
    kary_dissemination_barrier,
    linear_barrier,
    pairwise_exchange_barrier,
    sequential_linear_barrier,
    tree_barrier,
)
from repro.util.validation import require_int

#: Barrier families referenceable by name from design points.
PATTERN_FAMILIES: dict[str, Callable[[int], Any]] = {
    "linear": linear_barrier,
    "tree": tree_barrier,
    "dissemination": dissemination_barrier,
    "pairwise": pairwise_exchange_barrier,
    "all-to-all": all_to_all_barrier,
    "sequential": sequential_linear_barrier,
    "kary-dissemination": kary_dissemination_barrier,
}

#: The default of a parameter every point must give.
REQUIRED = object()


class BoundPoint(dict):
    """Every declared parameter, cast, with defaults filled in; ``given``
    names the keys the point itself set, for output that depends on
    whether a key was given rather than on its value."""

    def __init__(self, given: Iterable[str]):
        super().__init__()
        self.given = frozenset(given)


@dataclass(frozen=True)
class Experiment:
    """A named design-point evaluator and its parameter table: for each
    parameter, the cast applied to a given value and the default for a
    point that leaves it out."""

    name: str
    fn: Callable[[BoundPoint], dict]
    description: str
    params: Mapping[str, tuple[Callable[[Any], Any], Any]]
    prefetch: Callable[[list[BoundPoint]], None] | None = None

    def check(self, names: Iterable[str]) -> None:
        """Raise ``ValueError`` on any name the table does not declare."""
        unknown = sorted(set(names) - self.params.keys())
        if unknown:
            raise ValueError(
                f"experiment {self.name!r} has no parameter "
                f"{', '.join(map(repr, unknown))} "
                f"(known: {', '.join(self.params)})"
            )

    def bind(self, point: Mapping[str, Any]) -> BoundPoint:
        self.check(point)
        bound = BoundPoint(point)
        for name, (cast, default) in self.params.items():
            if name in point:
                bound[name] = cast(point[name])
            elif default is REQUIRED:
                raise KeyError(
                    f"experiment {self.name!r} needs the parameter {name!r}"
                )
            else:
                bound[name] = default
        return bound


EXPERIMENTS: dict[str, Experiment] = {}


def register_experiment(name: str, description: str, /, *, prefetch=None,
                        **params):
    """Decorator registering ``fn`` as the experiment called ``name``;
    ``description`` says what it measures, and each keyword declares a
    point parameter as a cast (required) or a ``(cast, default)`` pair.
    ``prefetch``, when given, takes a list of bound points about to be
    evaluated and computes ahead what they share; it must not change
    what ``fn`` returns for any of them."""
    table = MappingProxyType({
        key: spec if isinstance(spec, tuple) else (spec, REQUIRED)
        for key, spec in params.items()
    })

    def deco(fn: Callable[[BoundPoint], dict]):
        EXPERIMENTS[name] = Experiment(
            name, fn, description, table, prefetch
        )
        return fn

    return deco


def get_experiment(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r} (known: {known})") from None


def run_point(experiment: str, point: Mapping[str, Any]) -> dict:
    """Evaluate one design point — the unit of work both executors run —
    after binding it, so an unknown key raises before anything runs."""
    exp = get_experiment(experiment)
    return exp.fn(exp.bind(point))


# ----------------------------------------------------------------- adapters

def _int_or_none(value):
    return None if value is None else require_int(value, "an optional count")


def _ints(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


#: The parameters every adapter's machine is built from.
_MACHINE = {"preset": str, "nodes": (_int_or_none, None), "seed": (int, 2012)}


def _machine_from_point(point: BoundPoint, noise=None):
    """The point's preset machine; ``noise=QUIET`` runs it noise-free."""
    from repro.cluster.presets import make_preset_machine

    return make_preset_machine(
        point["preset"], nodes=point["nodes"], seed=point["seed"], noise=noise,
    )


def _pattern_from_point(point: Mapping[str, Any]):
    name = point["pattern"]
    try:
        factory = PATTERN_FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(PATTERN_FAMILIES))
        raise KeyError(
            f"unknown barrier pattern {name!r} (known: {known})"
        ) from None
    return factory(point["nprocs"])


def _critpath_metrics(report) -> dict:
    """Flatten an :class:`repro.obs.ExplainReport` into the derived
    ``attribution_*_s`` / ``critpath_*`` result fields."""
    metrics = {
        f"attribution_{name}_s": row["mean_s"]
        for name, row in report.categories.items()
    }
    top = report.top_edge
    if top is not None:
        metrics["critpath_top_edge"] = top["edge"]
        metrics["critpath_top_edge_frequency"] = top["frequency"]
    return metrics


def _prefetch_barrier_costs(points: list[BoundPoint]) -> None:
    """Measure the ``barrier-cost`` points that share their structural
    parameters (preset, nodes, pattern, nprocs), and differ only in seed,
    runs or comm samples, as row groups of one engine pass each
    (:func:`repro.barriers.simulate.prefetch_barriers`), so that each
    point's own evaluation is served its measurement.  A point alone in
    its group, and a ``critpath`` point, measures as it would anyway."""
    from repro.barriers.simulate import prefetch_barriers

    groups: dict[tuple, list[BoundPoint]] = {}
    for point in points:
        if not point["critpath"]:
            key = tuple(point[k] for k in ("preset", "nodes", "pattern",
                                           "nprocs"))
            groups.setdefault(key, []).append(point)
    batches = []
    for members in groups.values():
        # An unknown pattern is left for each point's own error.
        if len(members) < 2 or members[0]["pattern"] not in PATTERN_FAMILIES:
            continue
        pattern = _pattern_from_point(members[0])
        machines = [_machine_from_point(point) for point in members]
        batches.append((
            [(m, point["runs"]) for m, point in zip(machines, members)],
            pattern,
            machines[0].placement(pattern.nprocs),
        ))
    prefetch_barriers(batches)


@register_experiment(
    "barrier-cost",
    "measured vs predicted cost of one barrier (§5.6.6, Figs. 5.6-5.13)",
    prefetch=_prefetch_barrier_costs,
    **_MACHINE, pattern=str, nprocs=int, runs=(int, 16),
    comm_samples=(int, 5), critpath=(bool, False),
)
def barrier_cost(point: BoundPoint) -> dict:
    from repro.barriers.evaluate import evaluate_barrier

    machine = _machine_from_point(point)
    pattern = _pattern_from_point(point)
    runs = point["runs"]
    ev = evaluate_barrier(
        machine, pattern, runs=runs, comm_samples=point["comm_samples"],
    )
    metrics = {
        "measured_s": ev.measured,
        "predicted_s": ev.predicted,
        "abs_error_s": ev.absolute_error,
        "rel_error": ev.relative_error,
        "num_stages": ev.num_stages,
        "total_messages": ev.total_messages,
    }
    # Critical-path fields only appear when requested, so existing
    # campaigns/goldens without the key stay byte-identical.  The rng
    # stream is deterministic, so the provenance-enabled re-measure
    # replays exactly the noise of the measurement above.
    if point["critpath"]:
        from repro.barriers.simulate import measure_barrier
        from repro.obs import EngineProvenance, emit_report, explain

        prov = EngineProvenance()
        measure_barrier(
            machine, pattern, machine.placement(pattern.nprocs),
            runs=runs, provenance=prov,
        )
        report = explain(
            prov, label=f"barrier-{pattern.name}-{pattern.nprocs}"
        )
        emit_report(report)  # no-op unless telemetry is on
        metrics.update(_critpath_metrics(report))
    return metrics


@register_experiment(
    "barrier-adapt",
    "greedy adaptation vs the best flat default (Figs. 7.6-7.7)",
    **_MACHINE, nprocs=int, runs=(int, 16), comm_samples=(int, 5),
)
def barrier_adapt(point: BoundPoint) -> dict:
    from repro.adapt.evaluate import evaluate_adaptation

    ev = evaluate_adaptation(
        _machine_from_point(point),
        point["nprocs"],
        runs=point["runs"],
        comm_samples=point["comm_samples"],
    )
    return {
        "adapted_pattern": ev.pattern_name,
        "top_kind": ev.top_kind,
        "levels": ev.levels,
        "adapted_predicted_s": ev.adapted_predicted,
        "adapted_measured_s": ev.adapted_measured,
        "best_default": ev.best_default_name,
        "default_predicted_s": ev.best_default_predicted,
        "default_measured_s": ev.best_default_measured,
        "measured_speedup": ev.measured_speedup,
    }


@register_experiment(
    "stencil-predict",
    "predicted stencil iteration cost of one implementation model (§8.5)",
    **_MACHINE, n=int, nprocs=int, kind=(str, "bsp"), comm_samples=(int, 5),
)
def stencil_predict(point: BoundPoint) -> dict:
    from repro.stencil.predictor import predict_iteration

    prediction = predict_iteration(
        _machine_from_point(point),
        point["n"],
        point["nprocs"],
        kind=point["kind"],
        comm_samples=point["comm_samples"],
    )
    return {
        "model": prediction.name,
        "per_iteration_s": prediction.per_iteration,
        "per_iteration_no_overlap_s": prediction.per_iteration_no_overlap,
        "overlap_saving_s": prediction.predicted_overlap_saving,
        "sync_s": prediction.t_sync,
    }


# ------------------------------------------------------- suite adapters
#
# The adapters below back the thesis figure/table suites in
# :mod:`repro.explore.figures`.  Each wraps one already-tested evaluate or
# bench API as a (point dict) -> (metrics dict) callable, so the suites'
# sweeps run through the campaign cache instead of bespoke loops.


def _profiled(point: BoundPoint):
    """The point's machine, the placement of its ``nprocs`` ranks, and
    that placement's comm profile."""
    from repro.barriers.evaluate import profile_placement

    machine = _machine_from_point(point)
    placement = machine.placement(point["nprocs"])
    return machine, placement, profile_placement(
        machine, placement, comm_samples=point["comm_samples"]
    )


@register_experiment(
    "bspbench-params",
    "classic bspbench (P, r, g, l) row",
    **_MACHINE, nprocs=int, samples=(int, 9),
)
def bspbench_params(point: BoundPoint) -> dict:
    from repro.bench.bspbench import run_bspbench

    params = run_bspbench(
        _machine_from_point(point), point["nprocs"], samples=point["samples"]
    )
    return {"r_flops": params.r, "g_flop": params.g, "l_flop": params.l}


@register_experiment(
    "bspbench-rate",
    "DAXPY rate at one vector size (Fig. 4.2)",
    **_MACHINE, n=int, core=(int, 0), samples=(int, 8),
)
def bspbench_rate(point: BoundPoint) -> dict:
    from repro.bench.bspbench import measure_rate_points

    pt = measure_rate_points(
        _machine_from_point(point),
        point["core"],
        sizes=(point["n"],),
        samples=point["samples"],
    )[0]
    return {"rate_flops": pt.rate_flops, "mean_s": pt.mean_seconds}


@register_experiment(
    "inner-product",
    "measured BSP inner product vs the classic Eq. 3.7 estimate (Fig. 3.2)",
    **_MACHINE, nprocs=int, n_total=int, samples=(int, 5), runs=(int, 1),
)
def inner_product(point: BoundPoint) -> dict:
    from repro.bsplib import bsp_run
    from repro.bench.bspbench import run_bspbench
    from repro.core.bsp_classic import inner_product_cost_seconds
    from repro.kernels import DOT_PRODUCT

    machine = _machine_from_point(point)
    nprocs, n_total = point["nprocs"], point["n_total"]

    def program(ctx):
        p, pid = ctx.nprocs, ctx.pid
        local_n = n_total // p
        sums = np.zeros(p)
        ctx.push_reg(sums)
        ctx.sync()
        ctx.charge_kernel(DOT_PRODUCT, local_n)
        local = np.array([1.0])
        for q in range(p):
            ctx.put(q, local, sums, offset=pid)
        ctx.sync()
        ctx.charge_kernel(DOT_PRODUCT, p)
        ctx.sync()

    measured = bsp_run(
        machine, nprocs, program, label=f"fig32-{nprocs}", runs=point["runs"],
    ).total_seconds
    params = run_bspbench(machine, nprocs, samples=point["samples"])
    estimate = inner_product_cost_seconds(params, n_total)
    return {
        "measured_s": measured,
        "estimate_s": estimate,
        "estimate_ratio": estimate / measured,
    }


@register_experiment(
    "kernel-extrapolation",
    "one routine's benchmarked profile extrapolated vs measurement and "
    "the naive Mflops line (Figs. 4.3-4.4)",
    **_MACHINE, kernel=str, applications=int, profile_n=(int, 1024),
    samples=(int, 15),
)
def kernel_extrapolation(point: BoundPoint) -> dict:
    from repro.bench.kernel_bench import (
        benchmark_kernel,
        extrapolate_with_rate,
        validate_profile,
    )
    from repro.kernels import DAXPY, get_kernel

    machine = _machine_from_point(point)
    kernel = get_kernel(point["kernel"])
    profile_n, samples = point["profile_n"], point["samples"]
    iteration_counts = tuple(2**k for k in range(1, 11))
    profile = benchmark_kernel(
        machine, 0, kernel, profile_n,
        iteration_counts=iteration_counts, samples=samples,
    )
    # The naive "Mflops" line always extrapolates from the DAXPY rate, the
    # thesis's stand-in for a single-figure machine rating (§4.1).
    if kernel is DAXPY:
        mflops_rate = profile.rate_flops
    else:
        mflops_rate = benchmark_kernel(
            machine, 0, DAXPY, profile_n,
            iteration_counts=iteration_counts, samples=samples,
        ).rate_flops
    pt = validate_profile(
        machine, 0, kernel, profile,
        application_counts=(point["applications"],),
    )[0]
    naive = float(
        extrapolate_with_rate(mflops_rate, kernel, profile_n, pt.applications)
    )
    return {
        "measured_s": pt.measured_seconds,
        "predicted_s": pt.predicted_seconds,
        "mflops_predicted_s": naive,
        "rel_error": pt.relative_error,
    }


@register_experiment(
    "blas-sweep",
    "median batched time of one BLAS L1 routine at one problem size "
    "(Figs. 4.5-4.6)",
    **_MACHINE, kernel=str, n=int, batch=(int, 24),
)
def blas_sweep(point: BoundPoint) -> dict:
    from repro.bench.blas_profile import sweep_kernel
    from repro.kernels import get_kernel

    sweep = sweep_kernel(
        _machine_from_point(point), 0, get_kernel(point["kernel"]),
        [point["n"]], batch=point["batch"],
    )
    pt = sweep.points[0]
    return {
        "median_s": pt.median_seconds,
        "memory_bytes": pt.memory_use_bytes,
    }


@register_experiment(
    "sync-cost",
    "payload-carrying BSP sync vs bare barrier and the Ch. 6 estimate "
    "(Figs. 6.3-6.4)",
    **_MACHINE, nprocs=int, runs=(int, 16), comm_samples=(int, 5),
)
def sync_cost(point: BoundPoint) -> dict:
    from repro.barriers import measure_barrier
    from repro.barriers.cost_model import predict_barrier_cost
    from repro.bsplib.sync_model import (
        measure_sync_cost,
        predict_sync_cost,
        sync_pattern,
    )

    machine, placement, params = _profiled(point)
    nprocs, runs = point["nprocs"], point["runs"]
    pattern = sync_pattern(nprocs)
    return {
        "bare_s": measure_barrier(
            machine, pattern, placement, runs=runs
        ).mean_worst,
        "measured_s": measure_sync_cost(
            machine, placement, runs=runs
        ).mean_worst,
        "predicted_s": predict_sync_cost(params, nprocs),
        "predicted_bare_s": predict_barrier_cost(pattern, params),
    }


@register_experiment(
    "sss-cluster",
    "SSS latency clustering of one placement (Tables 7.1/7.2)",
    **_MACHINE, nprocs=int, gap_ratio=(float, 2.0), samples=(int, 9),
    comm_sizes=(_ints, None),
)
def sss_cluster_experiment(point: BoundPoint) -> dict:
    from repro.adapt import sss_cluster
    from repro.bench import benchmark_comm

    machine = _machine_from_point(point)
    placement = machine.placement(point["nprocs"])
    sizes = point["comm_sizes"]
    report = benchmark_comm(
        machine,
        placement,
        samples=point["samples"],
        **({"sizes": sizes} if sizes else {}),
    )
    levels = sss_cluster(report.params.latency, gap_ratio=point["gap_ratio"])
    node_level = levels[-2] if len(levels) >= 2 else levels[-1]
    nodes_pure = all(
        len({placement.node_of(r) for r in subset}) == 1
        for subset in node_level.subsets
    )
    return {
        "levels": [
            {
                "threshold_s": level.threshold,
                "subset_count": level.subset_count,
                "sizes": sorted(level.subset_sizes),
            }
            for level in levels
        ],
        "node_sizes": sorted(node_level.subset_sizes),
        "nodes_pure": nodes_pure,
        "top_subsets": levels[-1].subset_count,
    }


@register_experiment(
    "hybrid-barrier",
    "SSS-hierarchy hybrid barrier vs the flat defaults (Figs. 7.4/7.5)",
    **_MACHINE, nprocs=int, runs=(int, 16), comm_samples=(int, 5),
)
def hybrid_barrier(point: BoundPoint) -> dict:
    from repro.adapt import hierarchical_barrier, sss_cluster
    from repro.adapt.greedy import _useful_levels
    from repro.adapt.hybrid import flat_defaults
    from repro.barriers import measure_barrier

    machine, placement, params = _profiled(point)
    nprocs, runs = point["nprocs"], point["runs"]
    levels = _useful_levels(sss_cluster(params.latency))
    gather = levels[:-1] if len(levels) > 1 else levels
    hybrid = hierarchical_barrier(
        nprocs, gather, local_kind="tree2", top_kind="dissemination"
    )
    metrics = {
        "hybrid_s": measure_barrier(
            machine, hybrid, placement, runs=runs
        ).mean_worst,
    }
    for name, pattern in flat_defaults(nprocs).items():
        metrics[f"{name}_s"] = measure_barrier(
            machine, pattern, placement, runs=runs
        ).mean_worst
    metrics["win"] = metrics["hybrid_s"] <= 1.05 * min(
        v for k, v in metrics.items() if k not in ("hybrid_s", "win")
    )
    return metrics


@register_experiment(
    "barrier-prediction-variants",
    "measured barrier vs Eq. 5.4 prediction and its ablated variants "
    "(DESIGN.md §6)",
    **_MACHINE, pattern=str, nprocs=int, runs=(int, 16),
    comm_samples=(int, 5),
)
def barrier_prediction_variants(point: BoundPoint) -> dict:
    from repro.barriers import CommParameters, measure_barrier
    from repro.barriers.cost_model import predict_barrier_cost

    machine, placement, params = _profiled(point)
    pattern = _pattern_from_point(point)
    halved = CommParameters(
        overhead=params.overhead,
        latency=params.latency * 0.5,  # turns 2L into 1L in Eq. 5.4
        inv_bandwidth=params.inv_bandwidth,
    )
    return {
        "measured_s": measure_barrier(
            machine, pattern, placement, runs=point["runs"]
        ).mean_worst,
        "predicted_s": predict_barrier_cost(pattern, params),
        "predicted_no_posted_s": predict_barrier_cost(
            pattern, params, use_posted_condition=False
        ),
        "predicted_single_latency_s": predict_barrier_cost(pattern, halved),
    }


@register_experiment(
    "fabric-study",
    "default barriers, profiled latency, and greedy adaptation on one "
    "fabric (§9.2.4)",
    **_MACHINE, nprocs=int, runs=(int, 16), comm_samples=(int, 5),
)
def fabric_study(point: BoundPoint) -> dict:
    from repro.adapt import flat_defaults, greedy_adapt
    from repro.barriers import measure_barrier

    machine, placement, params = _profiled(point)
    nprocs, runs = point["nprocs"], point["runs"]
    metrics = {
        f"{name}_s": measure_barrier(
            machine, pattern, placement, runs=runs
        ).mean_worst
        for name, pattern in flat_defaults(nprocs).items()
    }
    adapted = greedy_adapt(params)
    metrics["adapted_pattern"] = adapted.pattern.name
    metrics["adapted_s"] = measure_barrier(
        machine, adapted.pattern, placement, runs=runs
    ).mean_worst
    metrics["max_latency_s"] = float(params.latency.max())
    return metrics


def _require_bsp(point: BoundPoint) -> None:
    """Replications and provenance exist only on the BSP runtime; an
    MPI-family request is an error rather than a silent single run."""
    impl = point["impl"]
    if impl != "BSP" and "runs" in point.given:
        raise ValueError(
            f"runs is only supported for the BSP implementation; "
            f"got runs={point['runs']} with impl={impl!r}"
        )
    if impl != "BSP" and point.get("critpath"):
        raise ValueError(
            f"critpath is only supported for the BSP implementation; "
            f"got critpath with impl={impl!r}"
        )


def _ensemble_fields(point: BoundPoint, result) -> dict:
    """Ensemble fields only appear when runs is given, so existing
    campaigns/goldens without the key stay byte-identical."""
    if "runs" not in point.given:
        return {}
    per_run = result.run_mean_iterations
    return {
        "ensemble_runs": point["runs"],
        "ensemble_mean_iteration_s": float(per_run.mean()),
        "ensemble_spread_iteration_s": float(np.std(per_run)),
    }


@register_experiment(
    "stencil-run",
    "one stencil implementation run (A-series, Figs. 8.4-8.7)",
    **_MACHINE, impl=str, n=int, nprocs=int, iterations=(int, 6),
    noisy=(bool, True), runs=(int, 1), critpath=(bool, False),
)
def stencil_run(point: BoundPoint) -> dict:
    from repro.cluster.noise import QUIET
    from repro.stencil.experiments import run_strong_scaling

    # A ``noisy: false`` point runs on the same preset with QUIET noise.
    machine = _machine_from_point(point, None if point["noisy"] else QUIET)
    impl, n, nprocs, runs = (point[k] for k in ("impl", "n", "nprocs", "runs"))
    _require_bsp(point)
    result = run_strong_scaling(
        machine, [impl], n, (nprocs,), iterations=point["iterations"],
        runs=runs,
    )[impl][nprocs]
    metrics = {
        "mean_iteration_s": result.mean_iteration,
        "total_s": result.total_seconds,
        **_ensemble_fields(point, result),
    }
    if point["critpath"]:
        from repro.obs import emit_report, explain
        from repro.stencil.impls import run_bsp_stencil

        # Replay the exact A-series run (same label → same noise draws)
        # with provenance recording enabled.
        replay = run_bsp_stencil(
            machine, nprocs, n, point["iterations"],
            execute_numerics=False,
            label=f"a-series-{nprocs}-{n}",
            runs=runs,
            provenance=True,
        )
        report = explain(
            replay.provenance, label=f"stencil-bsp-{nprocs}-{n}"
        )
        emit_report(report)  # no-op unless telemetry is on
        metrics.update(_critpath_metrics(report))
    return metrics


@register_experiment(
    "stencil-accuracy",
    "stencil per-iteration prediction vs measurement (B-series, "
    "Figs. 8.10-8.15)",
    **_MACHINE, impl=str, n=int, nprocs=int, iterations=(int, 5),
    comm_samples=(int, 5), runs=(int, 1),
)
def stencil_accuracy(point: BoundPoint) -> dict:
    from repro.stencil import (
        decompose,
        predict_bsp_iteration,
        predict_mpi_iteration,
        run_bsp_stencil,
        run_mpi_r_stencil,
        run_mpi_stencil,
        stencil_sec_per_cell,
    )

    machine, placement, params = _profiled(point)
    impl, n, nprocs, runs = (point[k] for k in ("impl", "n", "nprocs", "runs"))
    iterations = point["iterations"]
    blocks = decompose(n, nprocs)
    spc = stencil_sec_per_cell(machine, placement.core_of(0), blocks[0])
    _require_bsp(point)
    ensemble = {}
    if impl == "BSP":
        predicted = predict_bsp_iteration(blocks, spc, params).per_iteration
        result = run_bsp_stencil(
            machine, nprocs, n, iterations, execute_numerics=False,
            label=f"b-{impl}-{n}-{nprocs}", runs=runs,
        )
        measured = result.mean_iteration
        ensemble = _ensemble_fields(point, result)
    elif impl == "MPI":
        predicted = predict_mpi_iteration(blocks, spc, params).per_iteration
        measured = run_mpi_stencil(
            machine, nprocs, n, iterations
        ).mean_iteration
    elif impl == "MPI+R":
        predicted = predict_mpi_iteration(
            blocks, spc, params, overlap=True
        ).per_iteration
        measured = run_mpi_r_stencil(
            machine, nprocs, n, iterations
        ).mean_iteration
    else:
        raise ValueError(f"unknown prediction implementation {impl!r}")
    return {
        "predicted_s": predicted,
        "measured_s": measured,
        "ratio": predicted / measured,
        **ensemble,
    }


@register_experiment(
    "halo-depth",
    "adapted-superstep prediction and charge-model measurement at one "
    "halo width (Fig. 8.18)",
    **_MACHINE, nprocs=int, n=int, depth=int, cycles=(int, 6),
    comm_samples=(int, 5), runs=(int, 1),
)
def halo_depth(point: BoundPoint) -> dict:
    from repro.stencil import (
        decompose,
        measure_halo_iteration,
        stencil_sec_per_cell,
    )
    from repro.stencil.optimizer import predict_halo_iteration

    machine, placement, params = _profiled(point)
    nprocs, n, depth, runs = (point[k] for k in ("nprocs", "n", "depth", "runs"))
    spc = stencil_sec_per_cell(
        machine, placement.core_of(0), decompose(n, nprocs)[0]
    )
    metrics = {
        "predicted_s": predict_halo_iteration(
            nprocs, n, depth, spc, params
        ).per_iteration,
    }
    ensemble = measure_halo_iteration(
        machine, nprocs, n, depth, cycles=point["cycles"], runs=runs,
    )
    metrics["measured_s"] = float(ensemble.mean())
    # Ensemble fields only appear when runs is requested, so existing
    # campaigns/goldens without the key stay byte-identical.
    if "runs" in point.given:
        metrics["ensemble_runs"] = runs
        metrics["measured_spread_s"] = float(np.std(ensemble))
    return metrics


@register_experiment(
    "overlap-commit",
    "identical superstep workload with puts committed early vs late, on a "
    "QUIET machine (Fig. 1.2 ablation)",
    **_MACHINE, nprocs=int, commit=str,
)
def overlap_commit(point: BoundPoint) -> dict:
    from repro.bsplib import bsp_run
    from repro.cluster.noise import QUIET
    from repro.kernels import DAXPY

    machine = _machine_from_point(point, QUIET)
    nprocs, commit = point["nprocs"], point["commit"]
    if commit not in ("early", "late"):
        raise ValueError("commit must be 'early' or 'late'")
    # Elements each put carries, DAXPY repetitions of the bulk
    # computation, and supersteps per run.
    payload_elems, compute_reps, supersteps = 40_000, 220, 3

    def program(ctx):
        data = np.zeros(payload_elems)
        ctx.push_reg(data)
        ctx.sync()
        src = np.ones(payload_elems)
        for _ in range(supersteps):
            if commit == "early":
                ctx.put((ctx.pid + 1) % ctx.nprocs, src, data)
                ctx.charge_kernel(DAXPY, 4096, reps=compute_reps)
            else:
                ctx.charge_kernel(DAXPY, 4096, reps=compute_reps)
                ctx.put((ctx.pid + 1) % ctx.nprocs, src, data)
            ctx.sync()

    result = bsp_run(
        machine, nprocs, program,
        label=f"ov-{commit}-{nprocs}",
    )
    return {"total_s": result.total_seconds}


@register_experiment(
    "spinlock",
    "spinlock handoff under contention (§5.1), or the single-signal "
    "barrier lower bound against a measured dissemination barrier",
    **_MACHINE, lock=str, nprocs=int, acquisitions=(int, 12), runs=(int, 1),
)
def spinlock(point: BoundPoint) -> dict:
    from repro.barriers import dissemination_barrier, measure_barrier
    from repro.spinlocks import barrier_lower_bound, simulate_spinlock

    machine = _machine_from_point(point)
    nprocs, lock = point["nprocs"], point["lock"]
    if lock == "bound":
        placement = machine.placement(nprocs)
        return {
            "bound_s": barrier_lower_bound(machine, placement),
            "barrier_s": measure_barrier(
                machine,
                dissemination_barrier(nprocs),
                placement,
                runs=point["runs"],
            ).mean_worst,
        }
    # Contending threads pack onto sockets/nodes ("block"), the locality
    # setup the §5.1 study is about — round-robin would interleave nodes
    # and measure a different experiment.
    result = simulate_spinlock(
        machine, lock, machine.placement(nprocs, policy="block"),
        acquisitions_per_thread=point["acquisitions"],
        runs=point["runs"],
    )
    return {"mean_handoff_s": result.mean_handoff}


@register_experiment(
    "stencil-mode-accuracy",
    "BSP stencil prediction error under weak vs strong scaling (§4.3)",
    **_MACHINE, nprocs=int, mode=str, local_side=(int, 256),
    strong_n=(int, 1024), comm_samples=(int, 5),
)
def stencil_mode_accuracy(point: BoundPoint) -> dict:
    from repro.stencil import (
        decompose,
        predict_bsp_iteration,
        run_bsp_stencil,
        stencil_sec_per_cell,
    )

    nprocs, mode = point["nprocs"], point["mode"]
    if mode == "weak":
        side = point["local_side"]
        n = int(round((side * side * nprocs) ** 0.5))
    elif mode == "strong":
        n = point["strong_n"]
    else:
        raise ValueError("mode must be 'weak' or 'strong'")
    machine, placement, params = _profiled(point)
    blocks = decompose(n, nprocs)
    spc = stencil_sec_per_cell(machine, placement.core_of(0), blocks[0])
    predicted = predict_bsp_iteration(blocks, spc, params).per_iteration
    measured = run_bsp_stencil(
        machine, nprocs, n, 5, execute_numerics=False,
        label=f"ws-{nprocs}-{n}",
    ).mean_iteration
    return {
        "n": n,
        "predicted_s": predicted,
        "measured_s": measured,
        "rel_error": abs(predicted - measured) / measured,
    }


@register_experiment(
    "hetero-compute",
    "per-rank compute prediction vs measurement on the FMA-heterogeneous "
    "cluster (§3.3)",
    **_MACHINE, nprocs=int, n=int,
)
def hetero_compute(point: BoundPoint) -> dict:
    from repro.core.matrix_model import ComputationModel
    from repro.kernels import STENCIL5
    from repro.stencil import decompose

    machine = _machine_from_point(point)
    nprocs, n = point["nprocs"], point["n"]
    placement = machine.placement(nprocs)
    blocks = decompose(n, nprocs)

    # R/C matrices: requirements = cells per rank; costs = profiled
    # seconds/cell per rank (medians of noisy timings).
    cells = np.array([float(b.interior_cells) for b in blocks])
    costs = np.empty(nprocs)
    rng = machine.rng("hetero-profile")
    for rank, block in enumerate(blocks):
        samples = [
            machine.kernel_time(
                placement.core_of(rank), STENCIL5, block.interior_cells,
                rng=rng, footprint_bytes=block.working_set_bytes,
            )
            for _ in range(9)
        ]
        costs[rank] = np.median(samples) / block.interior_cells
    model = ComputationModel(
        cells.reshape(-1, 1), costs.reshape(-1, 1),
        kernel_names=("stencil5",),
    )
    predicted = model.superstep_times()
    measured = np.array([
        machine.kernel_time_clean(
            placement.core_of(rank), STENCIL5, b.interior_cells,
            footprint_bytes=b.working_set_bytes,
        )
        for rank, b in enumerate(blocks)
    ])
    fast = np.array([
        machine.topology.socket_of(placement.core_of(r)) % 2 == 0
        for r in range(nprocs)
    ])
    weights = (1.0 / costs) / (1.0 / costs).sum()
    balanced = ComputationModel(
        (weights * cells.sum()).reshape(-1, 1), costs.reshape(-1, 1)
    )
    return {
        "predicted_s": [float(v) for v in predicted],
        "measured_s": [float(v) for v in measured],
        "fast_socket": [bool(v) for v in fast],
        "imbalance_predicted_s": model.load_imbalance(),
        "imbalance_measured_s": float(measured.max() - measured.min()),
        "superstep_s": float(predicted.max()),
        "rebalanced_superstep_s": float(balanced.superstep_times().max()),
    }
