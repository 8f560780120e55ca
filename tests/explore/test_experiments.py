"""Built-in experiment adapters and the thin evaluate APIs they wrap."""

import pytest

from repro.barriers import dissemination_barrier, evaluate_barrier
from repro.cluster.presets import make_preset_machine
from repro.explore.experiments import run_point

FAST = {"runs": 3, "comm_samples": 3}


def test_barrier_cost_adapter_matches_direct_evaluation():
    metrics = run_point("barrier-cost", {
        "preset": "xeon-8x2x4", "pattern": "dissemination", "nprocs": 8, **FAST,
    })
    machine = make_preset_machine("xeon-8x2x4")
    direct = evaluate_barrier(
        machine, dissemination_barrier(8), runs=3, comm_samples=3
    )
    assert metrics["measured_s"] == pytest.approx(direct.measured)
    assert metrics["predicted_s"] == pytest.approx(direct.predicted)
    assert metrics["total_messages"] == direct.total_messages
    assert metrics["rel_error"] == pytest.approx(direct.relative_error)


def test_barrier_cost_adapter_is_deterministic():
    point = {"preset": "xeon-8x2x4-ib", "pattern": "tree", "nprocs": 8, **FAST}
    assert run_point("barrier-cost", point) == run_point("barrier-cost", point)


def test_barrier_cost_rejects_unknown_pattern():
    with pytest.raises(KeyError, match="unknown barrier pattern"):
        run_point("barrier-cost", {
            "preset": "xeon-8x2x4", "pattern": "quantum", "nprocs": 8,
        })


def test_barrier_adapt_adapter_reports_speedup():
    metrics = run_point("barrier-adapt", {
        "preset": "xeon-8x2x4", "nprocs": 16, **FAST,
    })
    assert metrics["adapted_measured_s"] > 0
    assert metrics["default_measured_s"] > 0
    assert metrics["measured_speedup"] == pytest.approx(
        metrics["default_measured_s"] / metrics["adapted_measured_s"]
    )
    assert metrics["levels"] >= 1


def test_stencil_predict_adapter_models_overlap():
    bsp = run_point("stencil-predict", {
        "preset": "xeon-8x2x4", "n": 128, "nprocs": 4, "kind": "bsp",
        "comm_samples": 3,
    })
    mpi = run_point("stencil-predict", {
        "preset": "xeon-8x2x4", "n": 128, "nprocs": 4, "kind": "mpi",
        "comm_samples": 3,
    })
    assert bsp["model"] == "BSP" and mpi["model"] == "MPI"
    assert bsp["per_iteration_s"] > 0
    assert mpi["overlap_saving_s"] == 0.0  # fully exposed exchange
    assert bsp["per_iteration_no_overlap_s"] >= bsp["per_iteration_s"]


def test_scaled_preset_point_changes_capacity():
    # Placement packs ranks onto the fewest nodes that fit (§5.6.6), so the
    # nodes axis shows up as a capacity bound, not a placement change.
    small = run_point("barrier-cost", {
        "preset": "xeon-8x2x4", "pattern": "dissemination", "nprocs": 8,
        "nodes": 1, **FAST,
    })
    assert small["measured_s"] > 0
    with pytest.raises(ValueError, match="nprocs"):
        run_point("barrier-cost", {
            "preset": "xeon-8x2x4", "pattern": "dissemination", "nprocs": 16,
            "nodes": 1, **FAST,
        })


def test_barrier_cost_critpath_fields_are_opt_in():
    base_point = {
        "preset": "xeon-8x2x4", "pattern": "dissemination", "nprocs": 8,
        **FAST,
    }
    base = run_point("barrier-cost", base_point)
    explained = run_point("barrier-cost", {**base_point, "critpath": True})
    # Opt-in fields never perturb the existing metrics.
    for key, value in base.items():
        assert explained[key] == value
    assert explained["critpath_top_edge"]
    assert 0 < explained["critpath_top_edge_frequency"] <= 1.0
    attribution = {
        k: v for k, v in explained.items() if k.startswith("attribution_")
    }
    assert attribution
    # Category means telescope along the path, so they sum to the mean
    # of the per-replication makespans — which is exactly the measured
    # mean-worst statistic (the rng stream replays deterministically).
    assert sum(attribution.values()) == pytest.approx(
        explained["measured_s"], rel=1e-12
    )


def test_stencil_run_critpath_fields_are_opt_in():
    base_point = {
        "preset": "xeon-8x2x4", "impl": "BSP", "n": 96, "nprocs": 4,
        "runs": 2,
    }
    base = run_point("stencil-run", base_point)
    explained = run_point("stencil-run", {**base_point, "critpath": True})
    for key, value in base.items():
        assert explained[key] == value
    assert explained["critpath_top_edge"]
    assert explained["attribution_compute_s"] > 0


def test_stencil_run_critpath_rejects_mpi_family():
    with pytest.raises(ValueError, match="critpath is only supported"):
        run_point("stencil-run", {
            "preset": "xeon-8x2x4", "impl": "MPI", "n": 96, "nprocs": 4,
            "critpath": True,
        })
