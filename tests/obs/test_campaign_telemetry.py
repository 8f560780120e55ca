"""Telemetry wired through campaigns, executors, engines, and the profile
cache — and the hard constraint that it never perturbs a result."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.barriers.patterns import dissemination_barrier
from repro.bsplib.runtime import bsp_run
from repro.cluster import presets
from repro.explore.campaign import run_campaign
from repro.explore.cli import main
from repro.explore.experiments import register_experiment
from repro.explore.space import DesignSpace
from repro.machine.simmachine import SimMachine
from repro.simmpi.engine import simulate_stages_batch
from tests.obs.test_telemetry import assert_well_formed

register_experiment("test-obs-cube", "cube the n parameter (test only)")(
    lambda point: {"cube": point["n"] ** 3}
)

#: A small real-engine campaign: exercises the comm benchmark, the
#: profile cache, and the batched engine under each executor.
BARRIER_SPACE = {
    "axes": {"pattern": ["linear", "dissemination"], "nprocs": [4, 8]},
    "constants": {"preset": "xeon-8x2x4", "runs": 3, "comm_samples": 3},
}


def space_of(ns):
    return DesignSpace.from_dict({"axes": {"n": list(ns)}})


def records_fingerprint(outcome):
    return [
        (r.key, json.dumps(r.metrics, sort_keys=True))
        for r in outcome.results.records
    ]


def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=7
    )


# ------------------------------------------------- results are untouched

class TestTelemetryNeverPerturbsResults:
    def test_engine_batch_bit_identical_with_telemetry_on(self):
        m = machine()
        pattern = dissemination_barrier(8)
        truth = m.comm_truth(m.placement(8))
        rng_off, rng_on = (np.random.default_rng(3) for _ in range(2))
        off = simulate_stages_batch(
            truth, pattern.stages, runs=8, rng=rng_off, noise=m.noise
        )
        obs.enable()
        on = simulate_stages_batch(
            truth, pattern.stages, runs=8, rng=rng_on, noise=m.noise
        )
        assert np.array_equal(off, on)
        names = {e["name"] for e in obs.current().events()}
        assert {"engine.simulate_stages_batch", "engine.stage"} <= names

    def test_bsp_run_bit_identical_with_telemetry_on(self):
        from repro.bsplib.collectives import broadcast

        def program(ctx):
            value = np.array([1.0, 2.0]) if ctx.pid == 0 else np.zeros(2)
            return broadcast(ctx, value, root=0).tolist()

        m = machine()
        off = bsp_run(m, 4, program, runs=2)
        obs.enable()
        on = bsp_run(m, 4, program, runs=2)
        assert np.array_equal(off.final_times, on.final_times)
        assert any(
            e["name"] == "bsp.superstep" and e["time"] == "sim"
            for e in obs.current().events()
        )

    @pytest.mark.parametrize("executor", ["serial", "process", "chunked"])
    def test_campaign_bit_identical_with_telemetry_on(
        self, tmp_path, executor
    ):
        baseline = run_campaign(
            "t-off", space_of([1, 2, 3]), "test-obs-cube",
            store_dir=tmp_path / "off", executor=executor,
        )
        obs.enable()
        with_tele = run_campaign(
            "t-on", space_of([1, 2, 3]), "test-obs-cube",
            store_dir=tmp_path / "on", executor=executor,
        )
        assert (
            [f[1] for f in records_fingerprint(with_tele)]
            == [f[1] for f in records_fingerprint(baseline)]
        )

    def test_real_campaign_identical_across_executors(self, tmp_path):
        """Executor equivalence holds with telemetry on for a campaign
        that exercises the engines and the profile cache."""
        baseline = run_campaign(
            "real-off", BARRIER_SPACE, "barrier-cost",
            store_dir=tmp_path / "off", executor="serial",
        )
        obs.enable()
        for executor in ("serial", "process", "chunked"):
            outcome = run_campaign(
                "real-on", BARRIER_SPACE, "barrier-cost",
                store_dir=tmp_path / f"on-{executor}", executor=executor,
            )
            assert (
                records_fingerprint(outcome)
                == records_fingerprint(baseline)
            ), f"telemetry perturbed the {executor} executor"


# ----------------------------------------------- the recorded event model

class TestRecordedCampaignTelemetry:
    def run_with_sink(self, tmp_path, executor, name="obs"):
        obs.enable()
        outcome = run_campaign(
            name, space_of([1, 2, 3, 4]), "test-obs-cube",
            store_dir=tmp_path, executor=executor,
        )
        return outcome, obs.read_events(obs.telemetry_dir_for(tmp_path))

    def test_serial_campaign_records_expected_spans(self, tmp_path):
        outcome, events = self.run_with_sink(tmp_path, "serial")
        spans = assert_well_formed(events)
        names = [s["name"] for s in spans]
        assert names.count("campaign.point") == 4
        assert names.count("campaign.serve") == 1
        assert names.count("executor.map") == 1
        by_name = {s["name"]: s for s in spans}
        serve = by_name["campaign.serve"]
        assert serve["attrs"]["computed"] == 4
        # Nesting: point under map under serve (same process, serial).
        point = by_name["campaign.point"]
        assert point["parent"] == by_name["executor.map"]["id"]
        assert by_name["executor.map"]["parent"] == serve["id"]
        metrics = obs.merged_metrics(events)
        assert metrics["counters"]["campaign.points.computed"]["total"] == 4
        assert metrics["gauges"]["executor.queued"]["value"] == 4

    @pytest.mark.parametrize("executor", ["process", "chunked"])
    def test_worker_spans_merge_and_nest_well(self, tmp_path, executor):
        """Multiprocessing workers stream their own event files; the
        merged stream stays well-formed and the worker spans carry
        worker (not parent) pids."""
        outcome, events = self.run_with_sink(tmp_path, executor)
        spans = assert_well_formed(events)
        points = [s for s in spans if s["name"] == "campaign.point"]
        assert len(points) == 4
        assert all(s["pid"] != os.getpid() for s in points)
        keys = {s["attrs"]["key"] for s in points}
        assert keys == {r.key for r in outcome.results.records}

    def test_chrome_export_of_multiprocessing_campaign(self, tmp_path):
        outcome, events = self.run_with_sink(tmp_path, "process")
        doc = obs.chrome_trace(events)
        complete = obs.validate_chrome_trace(doc)
        assert doc["displayTimeUnit"] in ("ms", "ns")
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == complete
        pids = {e["pid"] for e in xs if e["name"] == "campaign.point"}
        assert pids and os.getpid() not in pids
        # Worker lanes are named via metadata events.
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["pid"] for e in metas} >= pids
        json.dumps(doc)  # serialisable as-is

    def test_summary_persisted_with_cache_split_and_deltas(self, tmp_path):
        self.run_with_sink(tmp_path, "serial")
        first = obs.load_summary(tmp_path, "obs")
        assert first.stats["evaluated"] == 4
        assert first.stats["cached"] == 0
        assert len(first.top_slowest) == 4
        assert first.changes_since_previous() is None
        self.run_with_sink(tmp_path, "serial")  # all cached now
        second = obs.load_summary(tmp_path, "obs")
        assert second.stats["cached"] == 4
        deltas = second.changes_since_previous()
        assert deltas["evaluated"] == -4
        assert deltas["cached"] == 4

    def test_worker_utilization_reports_lanes(self, tmp_path):
        _, events = self.run_with_sink(tmp_path, "serial")
        (lane,) = obs.worker_utilization(events)
        assert lane["spans"] == 4
        assert 0.0 < lane["utilization"] <= 1.0


# --------------------------------------------------------- profile cache

class TestProfileCacheTelemetry:
    def run_barrier_campaign(self, store):
        obs.enable()
        run_campaign(
            "pc", BARRIER_SPACE, "barrier-cost",
            store_dir=store, executor="serial",
        )
        return obs.merged_metrics(
            obs.read_events(obs.telemetry_dir_for(store))
        )["counters"]

    @staticmethod
    def served(counters, name):
        return int(counters.get(name, {}).get("total", 0))

    def test_per_run_stats_persisted_and_counters_recorded(self, tmp_path):
        """The store's sink is the one persisted record of profile-cache
        hits and misses: one lookup per point lands in its counters."""
        counters = self.run_barrier_campaign(tmp_path)
        hits = self.served(counters, "profile_cache.hits")
        misses = self.served(counters, "profile_cache.misses")
        assert hits + misses >= 4  # one profile lookup per point

    def test_stats_cli_reports_the_sink_counters(self, tmp_path, capsys):
        counters = self.run_barrier_campaign(tmp_path)
        hits = self.served(counters, "profile_cache.hits")
        misses = self.served(counters, "profile_cache.misses")
        assert hits + misses >= 4
        capsys.readouterr()
        assert main(["stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"profile cache: {hits} hits, {misses} misses" in out


# ------------------------------------------------ no environment hand-off

SRC = Path(__file__).resolve().parents[2] / "src"

#: One small profile campaign: it fills the store's profile cache and,
#: with telemetry on, its sink.
PROFILE_SPACE = {
    "axes": {"pattern": ["linear"]},
    "constants": {
        "preset": "xeon-8x2x4", "nprocs": 4, "runs": 2, "comm_samples": 3,
    },
}

#: An unrelated process: profiles an opteron placement no campaign used.
UNRELATED_PROFILE = """
from repro.barriers.evaluate import profile_placement
from repro.cluster import presets
from repro.machine.simmachine import SimMachine

m = SimMachine(
    presets.opteron_12x2x6_topology(), presets.opteron_12x2x6_params(),
    seed=3,
)
profile_placement(m, m.placement(8), comm_samples=3)
"""


def repro_environment():
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


def file_tree(root):
    """Every file under ``root`` with its bytes."""
    tree = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


class TestNoEnvironmentHandOff:
    """Forked workers inherit campaign state; nothing goes through the
    environment, so nothing reaches processes the campaign never made."""

    def test_campaign_leaves_the_environment_untouched(self, tmp_path):
        before = repro_environment()
        obs.enable()
        run_campaign(
            "leak", PROFILE_SPACE, "barrier-cost",
            store_dir=tmp_path, executor="process", workers=1,
        )
        assert repro_environment() == before

    def test_later_process_leaves_the_store_alone(self, tmp_path):
        obs.enable()
        run_campaign(
            "leak", PROFILE_SPACE, "barrier-cost", store_dir=tmp_path,
        )
        before = file_tree(tmp_path)
        assert any(p.startswith(".profile-cache") for p in before)
        assert any(p.startswith(obs.TELEMETRY_DIRNAME) for p in before)
        subprocess.run(
            [sys.executable, "-c", UNRELATED_PROFILE],
            check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert file_tree(tmp_path) == before


# ------------------------------------------------- engine trace opt-in

class TestEngineTraceGating:
    def test_untraced_path_skips_per_stage_entry_copies(self):
        """The untraced hot path must not allocate per-stage ``(R, P)``
        snapshots.  Measured as allocation peaks: with single-message
        stages the working set is a handful of ``(R, P)`` clocks arrays,
        while each traced stage *retains* two more — so the traced peak
        must sit well above the untraced one, and the untraced peak below
        what an unconditional entry copy would need."""
        p, runs, n_stages = 64, 512, 4
        stage = np.zeros((p, p), dtype=bool)
        stage[0, 1] = True  # one message: temporaries stay tiny
        stages = [stage] * n_stages
        m = machine()
        truth = m.comm_truth(m.placement(p))
        rng = np.random.default_rng(0)

        def peak(trace):
            tracemalloc.start()
            simulate_stages_batch(
                truth, stages, runs=runs, rng=rng, noise=m.noise,
                trace=trace,
            )
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak_bytes

        peak(None)  # warm-up: import-time and first-call allocations
        clocks = runs * p * 8  # one (R, P) float64 array
        untraced = peak(None)
        traced = peak([])
        # Traced retains entry+exit per stage on top of the working set.
        assert traced - untraced >= (2 * n_stages - 2) * clocks
        # The untraced peak measures ~5 clocks arrays (t, busy_end,
        # recv_cursor, new_t plus one rebinding overlap); an unconditional
        # entry snapshot would push it to ~6.  Split the difference.
        assert untraced < 5.5 * clocks
