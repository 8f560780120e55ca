"""Experiment registry and the built-in thesis experiment adapters.

An *experiment* maps one design point (a plain parameter dict) to a flat
metrics dict.  Experiments are registered by name so design-space specs —
and worker processes of the parallel executor — can reference them as
strings.  The built-ins wrap the repository's evaluate APIs:

* ``barrier-cost``     — measured vs predicted cost of one barrier pattern
                         (§5.6.6; the Figs. 5.6-5.13 points),
* ``barrier-adapt``    — the greedy adaptation pipeline vs the best system
                         default (Figs. 7.6-7.7),
* ``stencil-predict``  — predicted per-iteration stencil cost for one
                         implementation model (§8.5, Figs. 8.8-8.9).

Every adapter builds its platform from the named preset registry
(:mod:`repro.cluster.presets`), so a campaign spec is pure data.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.barriers.patterns import (
    all_to_all_barrier,
    dissemination_barrier,
    kary_dissemination_barrier,
    linear_barrier,
    pairwise_exchange_barrier,
    sequential_linear_barrier,
    tree_barrier,
)

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


@dataclass(frozen=True)
class Experiment:
    """A named design-point evaluator."""

    name: str
    fn: Callable[[Mapping[str, Any]], dict]
    description: str = ""

    def __call__(self, point: Mapping[str, Any]) -> dict:
        return self.fn(point)


EXPERIMENTS: dict[str, Experiment] = {}


def register_experiment(name: str, description: str = ""):
    """Decorator registering ``fn`` as the experiment called ``name``."""

    def deco(fn: Callable[[Mapping[str, Any]], dict]):
        EXPERIMENTS[name] = Experiment(name=name, fn=fn, description=description)
        return fn

    return deco


def get_experiment(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r} (known: {known})") from None


def run_point(experiment: str, point: Mapping[str, Any]) -> dict:
    """Evaluate one design point — the unit of work both executors run."""
    return get_experiment(experiment)(point)


# ----------------------------------------------------------------- adapters

def _machine_from_point(point: Mapping[str, Any]):
    from repro.cluster.presets import make_preset_machine

    return make_preset_machine(
        point["preset"],
        nodes=point.get("nodes"),
        seed=int(point.get("seed", 2012)),
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
    return factory(int(point["nprocs"]))


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


@register_experiment(
    "barrier-cost",
    "measured vs predicted barrier cost: preset, pattern, nprocs "
    "[runs, comm_samples, nodes, seed, critpath]",
)
def barrier_cost(point: Mapping[str, Any]) -> dict:
    from repro.barriers.evaluate import evaluate_barrier

    machine = _machine_from_point(point)
    pattern = _pattern_from_point(point)
    runs = int(point.get("runs", 16))
    ev = evaluate_barrier(
        machine,
        pattern,
        runs=runs,
        comm_samples=int(point.get("comm_samples", 5)),
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
    if point.get("critpath"):
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
    "greedy adaptation vs best flat default: preset, nprocs "
    "[runs, gap_ratio, comm_samples, comm_runs, nodes, seed]",
)
def barrier_adapt(point: Mapping[str, Any]) -> dict:
    from repro.adapt.evaluate import evaluate_adaptation

    machine = _machine_from_point(point)
    comm_runs = point.get("comm_runs")
    ev = evaluate_adaptation(
        machine,
        int(point["nprocs"]),
        runs=int(point.get("runs", 16)),
        gap_ratio=float(point.get("gap_ratio", 2.0)),
        comm_samples=int(point.get("comm_samples", 5)),
        comm_runs=None if comm_runs is None else int(comm_runs),
    )
    metrics = {
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
    if ev.ensemble_runs is not None:
        metrics["ensemble_predicted_s"] = ev.ensemble_predicted_mean
        metrics["ensemble_predicted_spread"] = ev.ensemble_predicted_spread
        metrics["choice_stability"] = ev.choice_stability
    return metrics


@register_experiment(
    "stencil-predict",
    "predicted stencil iteration cost: preset, n, nprocs "
    "[kind=bsp|mpi|mpi+r, comm_samples, nodes, seed]",
)
def stencil_predict(point: Mapping[str, Any]) -> dict:
    from repro.stencil.predictor import predict_iteration

    machine = _machine_from_point(point)
    prediction = predict_iteration(
        machine,
        int(point["n"]),
        int(point["nprocs"]),
        kind=str(point.get("kind", "bsp")),
        comm_samples=int(point.get("comm_samples", 5)),
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


def _profile_from_point(machine, placement, point: Mapping[str, Any]):
    from repro.barriers.evaluate import profile_placement

    return profile_placement(
        machine, placement, comm_samples=int(point.get("comm_samples", 5))
    )


@register_experiment(
    "bspbench-params",
    "classic bspbench (P, r, g, l) row: preset, nprocs [samples, seed]",
)
def bspbench_params(point: Mapping[str, Any]) -> dict:
    from repro.bench.bspbench import run_bspbench

    machine = _machine_from_point(point)
    result = run_bspbench(
        machine, int(point["nprocs"]), samples=int(point.get("samples", 9))
    )
    return {
        "r_flops": result.params.r,
        "g_flop": result.params.g,
        "l_flop": result.params.l,
    }


@register_experiment(
    "bspbench-rate",
    "DAXPY rate at one vector size (Fig. 4.2): preset, n "
    "[core, samples, iterations, seed]",
)
def bspbench_rate(point: Mapping[str, Any]) -> dict:
    from repro.bench.bspbench import measure_rate_points

    machine = _machine_from_point(point)
    pt = measure_rate_points(
        machine,
        int(point.get("core", 0)),
        sizes=(int(point["n"]),),
        iterations=int(point.get("iterations", 64)),
        samples=int(point.get("samples", 8)),
    )[0]
    return {"rate_flops": pt.rate_flops, "mean_s": pt.mean_seconds}


@register_experiment(
    "inner-product",
    "measured BSP inner product vs classic Eq. 3.7 estimate: preset, "
    "nprocs, n_total [samples, runs, seed]; runs=R measures a batched "
    "R-replication ensemble in one bsp_run",
)
def inner_product(point: Mapping[str, Any]) -> dict:
    import numpy as np

    from repro.bsplib import bsp_run
    from repro.bench.bspbench import run_bspbench
    from repro.core.bsp_classic import inner_product_cost_seconds
    from repro.kernels import DOT_PRODUCT

    machine = _machine_from_point(point)
    nprocs = int(point["nprocs"])
    n_total = int(point["n_total"])

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
        machine, nprocs, program, label=f"fig32-{nprocs}",
        runs=int(point.get("runs", 1)),
    ).total_seconds
    params = run_bspbench(
        machine, nprocs, samples=int(point.get("samples", 5))
    ).params
    estimate = inner_product_cost_seconds(params, n_total)
    return {
        "measured_s": measured,
        "estimate_s": estimate,
        "estimate_ratio": estimate / measured,
    }


@register_experiment(
    "kernel-extrapolation",
    "kernel profile extrapolated to one application count vs measurement "
    "and the naive Mflops line: preset, kernel, applications "
    "[profile_n, samples, seed]",
)
def kernel_extrapolation(point: Mapping[str, Any]) -> dict:
    from repro.bench.kernel_bench import (
        benchmark_kernel,
        extrapolate_with_rate,
        validate_profile,
    )
    from repro.kernels import DAXPY, get_kernel

    machine = _machine_from_point(point)
    kernel = get_kernel(str(point["kernel"]))
    profile_n = int(point.get("profile_n", 1024))
    samples = int(point.get("samples", 15))
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
        application_counts=(int(point["applications"]),),
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
    "median batch time of one BLAS L1 kernel at one problem size: preset, "
    "kernel, n [batch, seed]",
)
def blas_sweep(point: Mapping[str, Any]) -> dict:
    from repro.bench.blas_profile import sweep_kernel
    from repro.kernels import get_kernel

    machine = _machine_from_point(point)
    kernel = get_kernel(str(point["kernel"]))
    sweep = sweep_kernel(
        machine, 0, kernel, [int(point["n"])],
        batch=int(point.get("batch", 24)),
    )
    pt = sweep.points[0]
    return {
        "median_s": pt.median_seconds,
        "memory_bytes": pt.memory_use_bytes,
    }


@register_experiment(
    "sync-cost",
    "payload-carrying BSP sync vs bare barrier and the Ch. 6 estimate: "
    "preset, nprocs [runs, comm_samples, seed]",
)
def sync_cost(point: Mapping[str, Any]) -> dict:
    from repro.barriers import measure_barrier
    from repro.barriers.cost_model import predict_barrier_cost
    from repro.bsplib.sync_model import (
        measure_sync_cost,
        predict_sync_cost,
        sync_pattern,
    )

    machine = _machine_from_point(point)
    nprocs = int(point["nprocs"])
    runs = int(point.get("runs", 16))
    placement = machine.placement(nprocs)
    params = _profile_from_point(machine, placement, point)
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
    "SSS latency clustering of one placement (Tables 7.1/7.2): preset, "
    "nprocs [gap_ratio, samples, seed]",
)
def sss_cluster_experiment(point: Mapping[str, Any]) -> dict:
    from repro.adapt import sss_cluster
    from repro.bench import benchmark_comm

    machine = _machine_from_point(point)
    nprocs = int(point["nprocs"])
    placement = machine.placement(nprocs)
    sizes = point.get("comm_sizes")
    report = benchmark_comm(
        machine,
        placement,
        samples=int(point.get("samples", 9)),
        **({"sizes": tuple(int(s) for s in sizes)} if sizes else {}),
    )
    levels = sss_cluster(
        report.params.latency, gap_ratio=float(point.get("gap_ratio", 2.0))
    )
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
    "SSS-hierarchy hybrid barrier vs the flat defaults (Figs. 7.4/7.5): "
    "preset, nprocs [runs, comm_samples, seed]",
)
def hybrid_barrier(point: Mapping[str, Any]) -> dict:
    from repro.adapt import hierarchical_barrier, sss_cluster
    from repro.adapt.greedy import _useful_levels
    from repro.adapt.hybrid import flat_defaults
    from repro.barriers import measure_barrier

    machine = _machine_from_point(point)
    nprocs = int(point["nprocs"])
    runs = int(point.get("runs", 16))
    placement = machine.placement(nprocs)
    params = _profile_from_point(machine, placement, point)
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
    "(DESIGN.md §6): preset, pattern, nprocs [runs, comm_samples, seed]",
)
def barrier_prediction_variants(point: Mapping[str, Any]) -> dict:
    from repro.barriers import CommParameters, measure_barrier
    from repro.barriers.cost_model import predict_barrier_cost

    machine = _machine_from_point(point)
    pattern = _pattern_from_point(point)
    placement = machine.placement(pattern.nprocs)
    params = _profile_from_point(machine, placement, point)
    halved = CommParameters(
        overhead=params.overhead,
        latency=params.latency * 0.5,  # turns 2L into 1L in Eq. 5.4
        inv_bandwidth=params.inv_bandwidth,
    )
    return {
        "measured_s": measure_barrier(
            machine, pattern, placement, runs=int(point.get("runs", 16))
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
    "fabric (§9.2.4): preset, nprocs [runs, comm_samples, seed]",
)
def fabric_study(point: Mapping[str, Any]) -> dict:
    from repro.adapt import flat_defaults, greedy_adapt
    from repro.barriers import measure_barrier

    machine = _machine_from_point(point)
    nprocs = int(point["nprocs"])
    runs = int(point.get("runs", 16))
    placement = machine.placement(nprocs)
    params = _profile_from_point(machine, placement, point)
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


@register_experiment(
    "stencil-run",
    "one stencil implementation run (A-series): preset, impl, n, nprocs "
    "[iterations, noisy, runs, seed, critpath]",
)
def stencil_run(point: Mapping[str, Any]) -> dict:
    import numpy as np

    from repro.stencil.experiments import run_strong_scaling

    machine = _machine_from_point(point)
    impl = str(point["impl"])
    n = int(point["n"])
    nprocs = int(point["nprocs"])
    iterations = int(point.get("iterations", 6))
    noisy = bool(point.get("noisy", True))
    runs = int(point.get("runs", 1))
    critpath = bool(point.get("critpath", False))
    # Replications and provenance exist only on the BSP runtime; an
    # MPI-family request is an error rather than a silent single run.
    if "runs" in point and impl != "BSP":
        raise ValueError(
            f"runs is only supported for the BSP implementation; "
            f"got runs={runs} with impl={impl!r}"
        )
    if critpath and impl != "BSP":
        raise ValueError(
            f"critpath is only supported for the BSP implementation; "
            f"got critpath with impl={impl!r}"
        )
    result = run_strong_scaling(
        machine,
        [impl],
        n,
        (nprocs,),
        iterations=iterations,
        noisy=noisy,
        runs=runs,
    )[impl][nprocs]
    metrics = {
        "mean_iteration_s": result.mean_iteration,
        "total_s": result.total_seconds,
    }
    # Ensemble fields only appear when runs is requested, so existing
    # campaigns/goldens without the key stay byte-identical.
    if "runs" in point:
        per_run = result.run_mean_iterations
        metrics["ensemble_runs"] = runs
        metrics["ensemble_mean_iteration_s"] = float(per_run.mean())
        metrics["ensemble_spread_iteration_s"] = float(np.std(per_run))
    if critpath:
        from repro.obs import emit_report, explain
        from repro.stencil.impls import run_bsp_stencil

        # Replay the exact A-series run (same label → same noise draws)
        # with provenance recording enabled.
        replay = run_bsp_stencil(
            machine, nprocs, n, iterations,
            execute_numerics=False, noisy=noisy,
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
    "stencil per-iteration prediction vs measurement (B-series): preset, "
    "impl, n, nprocs [iterations, comm_samples, runs, seed]",
)
def stencil_accuracy(point: Mapping[str, Any]) -> dict:
    import numpy as np

    from repro.stencil import (
        decompose,
        predict_bsp_iteration,
        predict_mpi_iteration,
        run_bsp_stencil,
        run_mpi_r_stencil,
        run_mpi_stencil,
        stencil_sec_per_cell,
    )
    from repro.stencil.impls import WORD

    machine = _machine_from_point(point)
    impl = str(point["impl"])
    n = int(point["n"])
    nprocs = int(point["nprocs"])
    iterations = int(point.get("iterations", 5))
    blocks = decompose(n, nprocs)
    placement = machine.placement(nprocs)
    params = _profile_from_point(machine, placement, point)
    block = blocks[0]
    spc = stencil_sec_per_cell(
        machine,
        placement.core_of(0),
        block.interior_cells,
        2.0 * (block.height + 2) * (block.width + 2) * WORD,
    )
    runs = int(point.get("runs", 1))
    if "runs" in point and impl != "BSP":
        raise ValueError(
            f"runs is only supported for the BSP implementation; "
            f"got runs={runs} with impl={impl!r}"
        )
    ensemble = None
    if impl == "BSP":
        predicted = predict_bsp_iteration(blocks, spc, params).per_iteration
        result = run_bsp_stencil(
            machine, nprocs, n, iterations, execute_numerics=False,
            label=f"b-{impl}-{n}-{nprocs}", runs=runs,
        )
        measured = result.mean_iteration
        if "runs" in point:
            ensemble = result.run_mean_iterations
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
    metrics = {
        "predicted_s": predicted,
        "measured_s": measured,
        "ratio": predicted / measured,
    }
    if ensemble is not None:
        metrics["ensemble_runs"] = runs
        metrics["ensemble_mean_iteration_s"] = float(ensemble.mean())
        metrics["ensemble_spread_iteration_s"] = float(np.std(ensemble))
    return metrics


@register_experiment(
    "halo-depth",
    "adapted-superstep prediction and charge-model measurement at one "
    "shadow-cell depth (Fig. 8.18): preset, nprocs, n, depth "
    "[cycles, comm_samples, runs, seed]",
)
def halo_depth(point: Mapping[str, Any]) -> dict:
    import numpy as np

    from repro.stencil import (
        decompose,
        measure_halo_iteration,
        stencil_sec_per_cell,
    )
    from repro.stencil.impls import WORD
    from repro.stencil.optimizer import predict_halo_iteration

    machine = _machine_from_point(point)
    nprocs = int(point["nprocs"])
    n = int(point["n"])
    depth = int(point["depth"])
    placement = machine.placement(nprocs)
    params = _profile_from_point(machine, placement, point)
    block = decompose(n, nprocs)[0]
    spc = stencil_sec_per_cell(
        machine,
        placement.core_of(0),
        block.interior_cells,
        2.0 * (block.height + 2) * (block.width + 2) * WORD,
    )
    metrics = {
        "predicted_s": predict_halo_iteration(
            nprocs, n, depth, spc, params
        ).per_iteration,
    }
    runs = int(point.get("runs", 1))
    ensemble = measure_halo_iteration(
        machine, nprocs, n, depth, cycles=int(point.get("cycles", 6)),
        runs=runs,
    )
    metrics["measured_s"] = float(ensemble.mean())
    # Ensemble fields only appear when runs is requested, so existing
    # campaigns/goldens without the key stay byte-identical.
    if "runs" in point:
        metrics["ensemble_runs"] = runs
        metrics["measured_spread_s"] = float(np.std(ensemble))
    return metrics


@register_experiment(
    "overlap-commit",
    "identical superstep workload with puts committed early vs late "
    "(Fig. 1.2 ablation): preset, nprocs, commit=early|late [seed]",
)
def overlap_commit(point: Mapping[str, Any]) -> dict:
    import numpy as np

    from repro.bsplib import bsp_run
    from repro.kernels import DAXPY

    machine = _machine_from_point(point)
    nprocs = int(point["nprocs"])
    commit = str(point["commit"])
    if commit not in ("early", "late"):
        raise ValueError("commit must be 'early' or 'late'")
    payload_elems = int(point.get("payload_elems", 40_000))
    compute_reps = int(point.get("compute_reps", 220))
    supersteps = int(point.get("supersteps", 3))

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
        label=f"ov-{commit}-{nprocs}", noisy=False,
    )
    return {"total_s": result.total_seconds}


@register_experiment(
    "spinlock",
    "spinlock handoff under contention (§5.1): preset, lock, nprocs "
    "[acquisitions, placement=block, runs, seed]; lock='bound' reports the "
    "single-signal lower bound against a measured dissemination barrier "
    "on the round-robin placement instead; runs=R re-rolls the handoff "
    "noise over R batched replications",
)
def spinlock(point: Mapping[str, Any]) -> dict:
    from repro.barriers import dissemination_barrier, measure_barrier
    from repro.spinlocks import barrier_lower_bound, simulate_spinlock

    machine = _machine_from_point(point)
    nprocs = int(point["nprocs"])
    lock = str(point["lock"])
    if lock == "bound":
        placement = machine.placement(nprocs)
        return {
            "bound_s": barrier_lower_bound(machine, placement),
            "barrier_s": measure_barrier(
                machine,
                dissemination_barrier(nprocs),
                placement,
                runs=int(point.get("runs", 16)),
            ).mean_worst,
        }
    # Contending threads pack onto sockets/nodes ("block"), the locality
    # setup the §5.1 study is about — round-robin would interleave nodes
    # and measure a different experiment.
    placement = machine.placement(
        nprocs, policy=str(point.get("placement", "block"))
    )
    result = simulate_spinlock(
        machine, lock, placement,
        acquisitions_per_thread=int(point.get("acquisitions", 12)),
        runs=int(point.get("runs", 1)),
    )
    return {"mean_handoff_s": result.mean_handoff}


@register_experiment(
    "stencil-mode-accuracy",
    "BSP stencil prediction error in weak vs strong mode (§4.3): preset, "
    "nprocs, mode=weak|strong [local_side, strong_n, comm_samples, seed]",
)
def stencil_mode_accuracy(point: Mapping[str, Any]) -> dict:
    from repro.stencil import (
        decompose,
        predict_bsp_iteration,
        run_bsp_stencil,
        stencil_sec_per_cell,
    )
    from repro.stencil.impls import WORD

    machine = _machine_from_point(point)
    nprocs = int(point["nprocs"])
    mode = str(point["mode"])
    if mode == "weak":
        side = int(point.get("local_side", 256))
        n = int(round((side * side * nprocs) ** 0.5))
    elif mode == "strong":
        n = int(point.get("strong_n", 1024))
    else:
        raise ValueError("mode must be 'weak' or 'strong'")
    blocks = decompose(n, nprocs)
    placement = machine.placement(nprocs)
    params = _profile_from_point(machine, placement, point)
    block = blocks[0]
    spc = stencil_sec_per_cell(
        machine, placement.core_of(0), block.interior_cells,
        2.0 * (block.height + 2) * (block.width + 2) * WORD,
    )
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
    "preset (§3.3): preset, nprocs, n [seed]",
)
def hetero_compute(point: Mapping[str, Any]) -> dict:
    import numpy as np

    from repro.core.matrix_model import ComputationModel
    from repro.kernels import STENCIL5
    from repro.stencil import decompose
    from repro.stencil.impls import WORD

    machine = _machine_from_point(point)
    nprocs = int(point["nprocs"])
    n = int(point["n"])
    placement = machine.placement(nprocs)
    blocks = decompose(n, nprocs)

    # R/C matrices: requirements = cells per rank; costs = profiled
    # seconds/cell per rank (medians of noisy timings).
    cells = np.array([float(b.interior_cells) for b in blocks])
    costs = np.empty(nprocs)
    rng = machine.rng("hetero-profile")
    for rank, block in enumerate(blocks):
        fp = 2.0 * (block.height + 2) * (block.width + 2) * WORD
        samples = [
            machine.kernel_time(
                placement.core_of(rank), STENCIL5, block.interior_cells,
                rng=rng, footprint_bytes=fp,
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
            footprint_bytes=2.0 * (b.height + 2) * (b.width + 2) * WORD,
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
