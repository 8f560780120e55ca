"""Critical-path extraction from engine provenance (repro.obs.critpath).

The acceptance contract: for every registered pattern family the
extracted path is a valid event chain (connected, time-monotone, ends at
the makespan event), per-category attribution sums *exactly* (Fraction
arithmetic) to the simulated makespan per replication, recording is
strictly opt-in (untraced results bit-identical), and the Chrome export
of a report renders flow arrows that pass the trace validator.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro import obs
from repro.barriers.patterns import (
    dissemination_barrier,
    linear_barrier,
    pairwise_exchange_barrier,
    tree_barrier,
)
from repro.cluster import presets
from repro.machine.simmachine import SimMachine
from repro.obs.critpath import CATEGORIES
from repro.simmpi.engine import simulate_stages_batch

FAMILIES = {
    "linear": linear_barrier,
    "tree": tree_barrier,
    "dissemination": dissemination_barrier,
    "pairwise": pairwise_exchange_barrier,
}


def make_pattern(name: str, p: int):
    if name == "pairwise":
        p = 1 << (p.bit_length() - 1)
    return FAMILIES[name](p)


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=77
    )


def run_with_provenance(machine, pattern, runs=3, noisy=True, seed=11,
                        entry_times=None):
    truth = machine.comm_truth(machine.placement(pattern.nprocs))
    prov = obs.EngineProvenance()
    rng = np.random.default_rng(seed) if noisy else None
    exits = simulate_stages_batch(
        truth, pattern.stages, runs=runs, rng=rng, noise=machine.noise,
        entry_times=entry_times, provenance=prov,
    )
    return prov, exits


class TestEngineCriticalPath:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("p", [4, 8])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_path_is_valid_and_sums_to_makespan(
        self, machine, family, p, noisy
    ):
        pattern = make_pattern(family, p)
        prov, exits = run_with_provenance(
            machine, pattern, runs=3, noisy=noisy
        )
        paths = obs.extract_paths(prov)
        assert len(paths) == 3
        for r, path in enumerate(paths):
            assert obs.validate_path(path) == []
            # Bitwise: the path ends exactly at the simulated makespan.
            assert path.makespan == exits[r].max()
            total = sum(
                path.category_totals().values(), Fraction(0)
            )
            assert total == Fraction(path.makespan)
            assert set(path.category_totals()) <= set(CATEGORIES)

    def test_hops_are_connected_and_monotone(self, machine):
        pattern = make_pattern("dissemination", 8)
        prov, _ = run_with_provenance(machine, pattern, runs=1)
        (path,) = obs.extract_paths(prov)
        assert path.hops[0].t0 == 0.0
        for prev, hop in zip(path.hops, path.hops[1:]):
            assert prev.t1 == hop.t0  # exact float equality: connected
            assert hop.t1 >= hop.t0

    def test_entry_skew_still_valid(self, machine):
        pattern = make_pattern("tree", 8)
        entry = np.random.default_rng(3).uniform(0, 1e-3, pattern.nprocs)
        prov, exits = run_with_provenance(
            machine, pattern, runs=2, entry_times=entry
        )
        for r, path in enumerate(obs.extract_paths(prov)):
            assert obs.validate_path(path) == []
            assert path.makespan == exits[r].max()

    def test_recording_is_bit_identical_off_and_on(self, machine):
        pattern = make_pattern("pairwise", 8)
        truth = machine.comm_truth(machine.placement(pattern.nprocs))
        base = simulate_stages_batch(
            truth, pattern.stages, runs=8, rng=np.random.default_rng(5)
        )
        traced = simulate_stages_batch(
            truth, pattern.stages, runs=8, rng=np.random.default_rng(5),
            provenance=obs.EngineProvenance(),
        )
        assert base.tolist() == traced.tolist()

    def test_clean_broadcast_shares_one_replication(self, machine):
        # The clean batched path computes one replication and broadcasts;
        # provenance must replay identically for every requested row.
        pattern = make_pattern("linear", 6)
        prov, exits = run_with_provenance(
            machine, pattern, runs=4, noisy=False
        )
        assert prov.runs == 4
        paths = obs.extract_paths(prov)
        assert len(paths) == 4
        assert len({p.makespan for p in paths}) == 1
        assert paths[0].hops == paths[3].hops

    def test_critical_resources_have_zero_slack(self, machine):
        pattern = make_pattern("dissemination", 8)
        prov, _ = run_with_provenance(machine, pattern, runs=1)
        graph = obs.event_graph(prov, 0)
        (path,) = obs.extract_paths(prov)
        slacks = graph.resource_slacks()
        assert slacks and all(s >= 0 for s in slacks.values())
        # Every process the critical path blames has no slack at all.
        for hop in path.hops:
            key = f"proc:{hop.process}"
            if key in slacks:
                assert slacks[key] == 0


def fifo_links(times, queues, members) -> list[int]:
    """Each member's predecessor on its FIFO, serving in ``(time, index)``
    order; ``-1`` for the first of a FIFO and for non-members."""
    pred = [-1] * len(queues)
    last: dict[int, int] = {}
    for m in sorted(members, key=lambda m: (times[m], m)):
        pred[m] = last.get(int(queues[m]), -1)
        last[int(queues[m])] = m
    return pred


class TestFifoPredecessorLinks:
    """The scans' predecessor links against a per-message walk over the
    provenance's own event times, on multi-node noisy replications."""

    @pytest.mark.parametrize("family", ["dissemination", "pairwise", "tree"])
    @pytest.mark.parametrize("policy", ["round_robin", "block"])
    def test_links_match_walk_and_blame_sums(self, machine, family, policy):
        pattern = make_pattern(family, 16)
        placement = machine.placement(pattern.nprocs, policy=policy)
        assert len({placement.node_of(r) for r in range(16)}) > 1
        truth = machine.comm_truth(placement)
        prov = obs.EngineProvenance()
        exits = simulate_stages_batch(
            truth, pattern.stages, runs=4, rng=np.random.default_rng(9),
            noise=machine.noise, provenance=prov,
        )
        for sp in prov.stages:
            remote = np.flatnonzero(sp.msg_remote)
            for r in range(4):
                assert sp.tx_pred[r].tolist() == fifo_links(
                    sp.departs[r], sp.src_nodes, remote
                )
                assert sp.rx_pred[r].tolist() == fifo_links(
                    sp.arrivals[r], sp.dst_nodes, remote
                )
                assert sp.recv_pred[r].tolist() == fifo_links(
                    sp.arrivals[r], sp.dst, range(sp.messages)
                )
        for r, path in enumerate(obs.extract_paths(prov)):
            assert obs.validate_path(path) == []
            assert path.makespan == exits[r].max()
            makespan = Fraction(path.makespan)
            for table in (
                path.category_totals(),
                path.process_totals(),
                path.scope_totals(),
            ):
                assert sum(table.values(), Fraction(0)) == makespan


class TestExplainReport:
    def test_report_round_trips_through_record(self, machine):
        pattern = make_pattern("tree", 8)
        prov, _ = run_with_provenance(machine, pattern, runs=4)
        report = obs.explain(prov, label="tree-8")
        assert report.problems == []
        assert report.runs == 4 and report.nprocs == 8
        shares = [row["share"] for row in report.categories.values()]
        assert sum(shares) == pytest.approx(1.0)
        record = report.to_record()
        import json

        json.dumps(record)  # JSON-safe by construction
        text = obs.render_record(record)
        assert "tree-8" in text and "category attribution" in text

    def test_edge_criticality_frequencies(self, machine):
        pattern = make_pattern("dissemination", 8)
        prov, _ = run_with_provenance(machine, pattern, runs=16)
        edges = obs.edge_criticality(obs.extract_paths(prov))
        assert edges
        assert all(0 < e["frequency"] <= 1.0 for e in edges)
        # Sorted most-critical-first.
        freqs = [e["frequency"] for e in edges]
        assert freqs == sorted(freqs, reverse=True)

    def test_emit_and_read_back(self, machine, tmp_path):
        pattern = make_pattern("linear", 4)
        prov, _ = run_with_provenance(machine, pattern, runs=2)
        report = obs.explain(prov, label="linear-4")
        telemetry = obs.enable(str(tmp_path))
        assert obs.emit_report(report) is True
        telemetry.flush()
        records = obs.critpath_records(obs.read_events(str(tmp_path)))
        assert len(records) == 1
        assert records[0]["label"] == "linear-4"
        assert records[0]["type"] == obs.CRITPATH_EVENT


class TestChromeFlowArrows:
    def test_flow_lane_validates_and_pairs(self, machine):
        pattern = make_pattern("dissemination", 8)
        prov, _ = run_with_provenance(machine, pattern, runs=2)
        record = obs.explain(prov, label="d8").to_record()
        doc = obs.chrome_trace([], critpath=record)
        assert obs.validate_chrome_trace(doc) > 0
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        ends = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert slices and starts
        # Arrows pair start/finish ids one to one.
        assert sorted(e["id"] for e in starts) == sorted(
            e["id"] for e in ends
        )
        # Slices cover the path in time order with no overlap.
        times = [(e["ts"], e["ts"] + e["dur"]) for e in slices]
        for (_, t1), (t0, _) in zip(times, times[1:]):
            assert t0 >= t1 - 1e-9

    def test_zero_length_path_renders_empty_lane(self):
        record = {"kind": "engine", "label": "empty", "path": []}
        doc = obs.chrome_trace([], critpath=record)
        assert obs.validate_chrome_trace(doc) == 0

    def test_validator_rejects_flow_event_without_id(self):
        doc = {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"name": "x", "ph": "s", "pid": 1, "tid": 0, "ts": 0.0}
            ],
        }
        with pytest.raises(ValueError, match="lacks 'id'"):
            obs.validate_chrome_trace(doc)
