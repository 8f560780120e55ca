"""``repro.obs`` core: spans, metrics, sinks, Chrome export, run reports."""

import json
import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.chrome import SIM_LANE_PID
from repro.obs.summary import RUN_SPAN
from repro.obs.telemetry import Telemetry


def assert_well_formed(events):
    """Every recorded host span nests correctly: its parent is a span of
    the same process and thread whose interval encloses it."""
    spans = [
        e for e in events
        if e.get("type") == "span" and e.get("time") == "host"
    ]
    by_proc = {}
    for s in spans:
        by_proc.setdefault(s["pid"], {})[s["id"]] = s
    eps = 1e-6
    for s in spans:
        parent = s.get("parent")
        if parent is None:
            continue
        table = by_proc[s["pid"]]
        assert parent in table, f"span {s['id']} orphaned in pid {s['pid']}"
        ps = table[parent]
        assert ps["tid"] == s["tid"]
        assert ps["ts"] <= s["ts"] + eps
        assert ps["ts"] + ps["dur"] >= s["ts"] + s["dur"] - eps
    return spans


# ------------------------------------------------------------------ spans

class TestSpans:
    def test_nested_spans_record_parent_links(self):
        t = Telemetry()
        with t.span("outer", layer=1) as outer:
            with t.span("inner") as inner:
                assert inner.parent == outer.id
            outer.set("note", "done")
        events = t.events()
        assert [e["name"] for e in events] == ["inner", "outer"]
        inner_e, outer_e = events
        assert inner_e["parent"] == outer_e["id"]
        assert outer_e["parent"] is None
        assert outer_e["attrs"] == {"layer": 1, "note": "done"}
        assert_well_formed(events)

    def test_exception_stamps_error_attr_and_closes(self):
        t = Telemetry()
        with pytest.raises(ValueError):
            with t.span("risky"):
                raise ValueError("boom")
        (event,) = t.events()
        assert event["attrs"]["error"] == "ValueError"
        assert event["dur"] >= 0.0
        # The stack unwound: the next span is a root again.
        with t.span("after"):
            pass
        assert t.events()[-1]["parent"] is None

    def test_emit_span_sim_timebase(self):
        t = Telemetry()
        t.emit_span("engine.stage", 0.5, 0.25, time_base="sim", stage=3)
        (event,) = t.events()
        assert event["time"] == "sim"
        assert (event["ts"], event["dur"]) == (0.5, 0.25)
        with pytest.raises(ValueError):
            t.emit_span("x", 0.0, 1.0, time_base="galactic")

    def test_threads_get_distinct_tids_and_independent_stacks(self):
        t = Telemetry()
        # OS thread ids recycle after joins; the barrier keeps all four
        # alive at once so each must get a distinct tid.
        barrier = threading.Barrier(4)

        def work():
            with t.span("thread.outer"):
                barrier.wait(timeout=10)
                with t.span("thread.inner"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        spans = assert_well_formed(t.events())
        outer_tids = {s["tid"] for s in spans if s["name"] == "thread.outer"}
        assert len(outer_tids) == 4
        # No cross-thread parentage: every inner's parent is its own
        # thread's outer (checked by assert_well_formed), and every outer
        # is a root.
        assert all(
            s["parent"] is None for s in spans if s["name"] == "thread.outer"
        )

    @given(
        tree=st.recursive(
            st.just([]),
            lambda children: st.lists(children, max_size=3),
            max_leaves=12,
        )
    )
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_arbitrary_nesting_is_well_formed(self, tree):
        t = Telemetry()

        def walk(node, depth):
            with t.span("node", depth=depth):
                for child in node:
                    walk(child, depth + 1)

        walk(tree, 0)
        spans = assert_well_formed(t.events())

        def count(node):
            return 1 + sum(count(c) for c in node)

        assert len(spans) == count(tree)
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 1


# ---------------------------------------------------------------- metrics

class TestMetrics:
    def test_counter_gauge_histogram_snapshot(self):
        t = Telemetry()
        t.count("points", 3)
        t.count("points")
        t.gauge("queued", 7)
        t.gauge("queued", 2)
        t.observe("latency", 0.5)
        t.observe("latency", 2.0)
        snap = obs.merged_metrics(t.events())
        assert snap["counters"]["points"]["total"] == 4.0
        assert snap["gauges"]["queued"]["value"] == 2.0
        assert snap["gauges"]["queued"]["max"] == 7.0
        hist = snap["histograms"]["latency"]
        assert hist["count"] == 2
        assert hist["total"] == 2.5
        assert sum(hist["counts"]) == 2

    def test_histogram_rejects_bad_edges(self):
        for edges in ([1.0, 1.0, 2.0], []):
            t = Telemetry()
            t.observe("h", 0.5, edges=edges)
            with pytest.raises(ValueError):
                obs.merged_metrics(t.events())

    def test_histogram_overflow_bucket(self):
        t = Telemetry()
        for v in (0.5, 5.0, 50.0):
            t.observe("h", v, edges=[1.0, 10.0])
        snap = obs.merged_metrics(t.events())["histograms"]["h"]
        assert snap["counts"] == [1, 1, 1]

    def test_event_replay_reproduces_snapshot(self):
        """The wire form is lossless: folding a context's metric events,
        after a JSON round trip, yields the exact snapshot of the updates
        — the basis of deterministic cross-process merges.  Key order is
        checked too, since the snapshot is persisted as JSON."""
        t = Telemetry()
        t.count("c", 2)
        t.gauge("g", 9)
        t.observe("h", 0.01)
        t.observe("h", 3.3)
        replayed = obs.merged_metrics(json.loads(json.dumps(t.events())))
        counts = [0] * 10
        counts[4] = counts[7] = 1  # 0.01 <= 1e-2, 3.3 <= 10.0
        expected = {
            "counters": {"c": {"total": 2.0, "updates": 1}},
            "gauges": {
                "g": {"value": 9.0, "min": 9.0, "max": 9.0, "updates": 1},
            },
            "histograms": {"h": {
                "edges": [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
                          100.0],
                "counts": counts,
                "count": 2,
                "total": 3.3099999999999996,
                "mean": 1.6549999999999998,
                "min": 0.01,
                "max": 3.3,
            }},
        }
        assert replayed == expected
        assert json.dumps(replayed) == json.dumps(expected)


# ---------------------------------------------------------- sinks + merge

class TestSink:
    def test_flush_appends_jsonl_and_read_events_merges(self, tmp_path):
        t = Telemetry()
        t.attach_sink(tmp_path)
        with t.span("a"):
            pass
        t.count("n", 1)
        assert t.flush() == 2
        assert t.flush() == 0  # nothing buffered twice
        events = obs.read_events(tmp_path)
        assert [e["type"] for e in events] == ["span", "metric"]

    def test_merge_order_is_sorted_by_filename(self, tmp_path):
        for pid, name in [(222, "late"), (111, "early")]:
            path = tmp_path / f"events-{pid:08d}.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(
                    {"type": "metric", "kind": "counter",
                     "name": name, "value": 1.0, "pid": pid}
                ) + "\n")
        events = obs.read_events(tmp_path)
        assert [e["name"] for e in events] == ["early", "late"]

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "events-00000001.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"type": "metric", "kind": "counter",
                 "name": "ok", "value": 1.0, "pid": 1}
            ) + "\n")
            fh.write('{"type": "metric", "kind": "cou')  # torn write
        events = obs.read_events(tmp_path)
        assert [e["name"] for e in events] == ["ok"]

    def test_enable_is_idempotent_and_disable_detaches(self, tmp_path):
        first = obs.enable(tmp_path)
        second = obs.enable()
        assert first is second
        assert obs.current() is first
        obs.disable()
        assert obs.current() is None
        assert obs.ENV_VAR not in os.environ

    def test_env_var_activates_on_first_current(self, tmp_path, monkeypatch):
        from repro.obs import telemetry as telemetry_mod

        monkeypatch.setattr(telemetry_mod._STATE, "active", None)
        monkeypatch.setattr(telemetry_mod._STATE, "env_checked", False)
        monkeypatch.setenv(obs.ENV_VAR, str(tmp_path))
        tele = obs.current()
        assert tele is not None
        assert tele.sink_dir == str(tmp_path)


# ----------------------------------------------------------- chrome trace

class TestChromeTrace:
    def _events(self):
        t = Telemetry()
        with t.span("campaign.point", key="abc"):
            pass
        t.emit_span("engine.stage", 0.0, 1e-4, time_base="sim", stage=0)
        return t.events()

    def test_export_validates_and_separates_sim_lane(self):
        doc = obs.chrome_trace(self._events())
        assert obs.validate_chrome_trace(doc) == 2
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        host = [e for e in xs if e["name"] == "campaign.point"]
        sim = [e for e in xs if e["name"] == "engine.stage"]
        assert host[0]["pid"] == os.getpid()
        assert sim[0]["pid"] == SIM_LANE_PID
        # Host timestamps are rebased to zero and scaled to microseconds.
        assert host[0]["ts"] >= 0.0
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(m["name"] == "process_name" for m in metas)

    def test_validator_rejects_malformed_documents(self):
        with pytest.raises(ValueError):
            obs.validate_chrome_trace({"traceEvents": []})  # no unit
        with pytest.raises(ValueError):
            obs.validate_chrome_trace(
                {"displayTimeUnit": "ms",
                 "traceEvents": [{"ph": "X", "name": "x"}]}
            )

    def test_non_jsonable_attrs_are_coerced(self):
        t = Telemetry()
        with t.span("s", obj=object()):
            pass
        doc = obs.chrome_trace(t.events())
        json.dumps(doc)  # must not raise


# ------------------------------------------------------------ run reports

class TestCampaignRuns:
    @staticmethod
    def _run(ts, campaign, **attrs):
        return {
            "type": "span", "time": "host", "name": RUN_SPAN, "ts": ts,
            "dur": 1.0, "pid": 1, "tid": 0, "id": 0, "parent": None,
            "attrs": {"campaign": campaign, **attrs},
        }

    def test_runs_grouped_by_campaign_in_start_order(self):
        """Streams merge by file name, so a later process's run can come
        first in the merged stream; runs order by their start time."""
        events = [
            self._run(20.0, "a", total=2),
            self._run(15.0, "b", total=3),
            self._run(10.0, "a", total=1),
        ]
        runs = obs.campaign_runs(events)
        assert sorted(runs) == ["a", "b"]
        assert [s["attrs"]["total"] for s in runs["a"]] == [1, 2]
        assert [s["attrs"]["total"] for s in runs["b"]] == [3]

    def test_runs_that_raised_are_left_out(self):
        events = [
            self._run(10.0, "a", total=1),
            self._run(20.0, "a", error="CampaignPointError"),
            self._run(30.0, "b", error="KeyboardInterrupt"),
        ]
        runs = obs.campaign_runs(events)
        assert list(runs) == ["a"]
        assert [s["ts"] for s in runs["a"]] == [10.0]
