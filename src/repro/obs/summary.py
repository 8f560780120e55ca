"""Merging telemetry sinks and folding them into run reports.

A telemetry sink directory holds one ``events-<pid>.jsonl`` stream per
process that recorded anything — the campaign parent plus every executor
worker.  This module merges those streams (sorted by filename; torn
lines are quarantined by the :mod:`repro.util.jsonl` reader), folds the
metric events into one deterministic snapshot, and derives the run
reports the CLI prints: each campaign's runs and what changed between
them, top-k slowest points, cache rates, per-worker utilization.  The
spans are the only record: no report is persisted beside them.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Mapping
from typing import Any

from repro.util import jsonl

#: Telemetry artifacts live here, next to a campaign's result store.
TELEMETRY_DIRNAME = ".telemetry"

#: The span each campaign point is evaluated under.
POINT_SPAN = "campaign.point"

#: The span an experiment's prefetch hook runs under: the work a chunk's
#: points share, computed before their own ``campaign.point`` spans.
GROUP_SPAN = "campaign.group"

#: The span each ``Campaign.run`` and ``AdaptiveCampaign.run`` records.
RUN_SPAN = "campaign.run"

#: The final counts a ``campaign.run`` span carries, in report order.
RUN_COUNTS = ("total", "evaluated", "cached", "failed", "quarantined")


def telemetry_dir_for(store_dir: str | os.PathLike) -> str:
    """Canonical sink directory alongside a campaign result store."""
    return os.path.join(os.fspath(store_dir), TELEMETRY_DIRNAME)


def read_events(sink_dir: str | os.PathLike) -> list[dict]:
    """Merge every event stream under ``sink_dir``.

    Files merge in sorted-name order with per-file order preserved, so
    the fold is deterministic for a given set of files; unreadable
    (torn) lines are quarantined and skipped (:func:`repro.util.jsonl.read`).
    """
    sink_dir = os.fspath(sink_dir)
    if not os.path.isdir(sink_dir):
        return []
    events: list[dict] = []
    for fname in sorted(os.listdir(sink_dir)):
        if fname.startswith("events-") and fname.endswith(".jsonl"):
            events.extend(jsonl.read(os.path.join(sink_dir, fname),
                                     accept=lambda event: "type" in event))
    return events


def describe_empty_sink(sink_dir: str | os.PathLike) -> str:
    """Why :func:`read_events` returned nothing, as a one-line diagnosis.

    Distinguishes a missing sink, a sink with no event streams, and a
    sink whose ``events-*.jsonl`` files exist but hold no parseable
    events (empty or torn-tail-only files — e.g. a run killed before its
    first flush completed).  The CLI uses this to fail with a clear
    message instead of a traceback.
    """
    sink_dir = os.fspath(sink_dir)
    if not os.path.isdir(sink_dir):
        return f"no telemetry sink at {sink_dir}"
    files = [
        fname
        for fname in sorted(os.listdir(sink_dir))
        if fname.startswith("events-") and fname.endswith(".jsonl")
    ]
    if not files:
        return (
            f"telemetry sink {sink_dir} holds no events-*.jsonl streams"
            " (was the run telemetry-enabled?)"
        )
    return (
        f"telemetry sink {sink_dir} has {len(files)} event stream(s) but"
        " no readable events — the files are empty or hold only torn"
        " lines (interrupted run?); re-run with --telemetry to record"
        " a fresh stream"
    )


#: Default histogram bucket edges, in seconds: geometric decades from a
#: microsecond to 100 s.  Fixed (not adaptive) so merges across processes
#: and runs are deterministic.
DEFAULT_SECONDS_EDGES: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0
)

_SECTIONS = {"counter": "counters", "gauge": "gauges", "hist": "histograms"}


def merged_metrics(events: Iterable[Mapping[str, Any]]) -> dict:
    """Fold the metric events of a merged stream into one snapshot.

    The snapshot groups metrics by kind, names sorted: a ``counter``
    accumulates a total and an update count; a ``gauge`` keeps the last
    value plus its min/max; a ``hist`` counts values into the bucket
    edges its name's first event declares (``DEFAULT_SECONDS_EDGES``
    unless given; strictly increasing), with one overflow bucket above
    the last edge, plus count/total/mean/min/max.  Counters and
    histograms merge commutatively; gauges resolve last-write-wins in
    stream order, deterministic because worker files merge in sorted
    filename order.  A name reused across kinds is a ``TypeError``.
    """
    kinds: dict[str, str] = {}
    metrics: dict[str, dict] = {}
    for event in events:
        if event.get("type") != "metric":
            continue
        kind = event.get("kind")
        name = event["name"]
        value = float(event["value"])
        if kind not in _SECTIONS:
            raise ValueError(f"unknown metric kind {kind!r}")
        first = kinds.setdefault(name, kind)
        if first != kind:
            raise TypeError(f"metric {name!r} is a {first}, not a {kind}")
        m = metrics.get(name)
        if m is None:
            m = metrics[name] = _new_metric(kind, event.get("edges"))
        if kind == "counter":
            m["total"] += value
            m["updates"] += 1
            continue
        if kind == "gauge":
            m["value"] = value
            m["updates"] += 1
        else:
            edges = m["edges"]
            bucket = next(
                (i for i, edge in enumerate(edges) if value <= edge),
                len(edges),
            )
            m["counts"][bucket] += 1
            m["count"] += 1
            m["total"] += value
            m["mean"] = m["total"] / m["count"]
        m["min"] = value if m["min"] is None else min(m["min"], value)
        m["max"] = value if m["max"] is None else max(m["max"], value)
    out: dict[str, dict] = {section: {} for section in _SECTIONS.values()}
    for name in sorted(metrics):
        out[_SECTIONS[kinds[name]]][name] = metrics[name]
    return out


def _new_metric(kind: str, edges) -> dict:
    """The empty state of a metric, keys in snapshot order; a histogram
    takes the ``edges`` of the event that first names it."""
    if kind == "counter":
        return {"total": 0.0, "updates": 0}
    if kind == "gauge":
        return {"value": None, "min": None, "max": None, "updates": 0}
    edges = [float(e) for e in (DEFAULT_SECONDS_EDGES if edges is None
                                else edges)]
    if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("histogram edges must be strictly increasing")
    return {
        "edges": edges, "counts": [0] * (len(edges) + 1), "count": 0,
        "total": 0.0, "mean": None, "min": None, "max": None,
    }


def spans(events: Iterable[Mapping[str, Any]], name: str) -> list[dict]:
    """The host-time span events called ``name`` of a merged stream."""
    return [
        event for event in events
        if event.get("type") == "span" and event.get("name") == name
        and event.get("time") == "host"
    ]


def campaign_runs(
    events: Iterable[Mapping[str, Any]]
) -> dict[str, list[dict]]:
    """The finished ``campaign.run`` spans of a merged stream, grouped by
    campaign name, each group oldest first.

    Streams merge by file name, not by time, so runs recorded by
    different processes are ordered by their start ``ts``.  A run that
    raised carries an ``error`` attr instead of final counts and is left
    out.
    """
    runs: dict[str, list[dict]] = {}
    for span in sorted(spans(events, RUN_SPAN), key=lambda s: s["ts"]):
        attrs = span.get("attrs", {})
        if "error" not in attrs:
            runs.setdefault(str(attrs.get("campaign")), []).append(span)
    return runs


def top_spans(events: Iterable[Mapping[str, Any]], k: int = 10) -> list[dict]:
    """The ``k`` slowest ``campaign.point`` host spans, longest first."""
    matched = spans(events, POINT_SPAN)
    matched.sort(key=lambda s: (-s.get("dur", 0.0), s.get("ts", 0.0)))
    return matched[:k]


def worker_utilization(events: Iterable[Mapping[str, Any]]) -> list[dict]:
    """Per-(pid, tid) busy time under ``campaign.point`` and
    ``campaign.group`` spans (the two never overlap) over the shared run
    window — the worker utilization timeline ``stats`` prints.  ``spans``
    counts the lane's points."""
    events = list(events)
    matched = spans(events, POINT_SPAN) + spans(events, GROUP_SPAN)
    if not matched:
        return []
    window_start = min(s["ts"] for s in matched)
    window_end = max(s["ts"] + s["dur"] for s in matched)
    window = max(window_end - window_start, 1e-12)
    lanes: dict[tuple[int, int], dict] = {}
    for s in matched:
        lane = lanes.setdefault(
            (int(s["pid"]), int(s.get("tid", 0))),
            {"spans": 0, "busy_s": 0.0, "first_ts": s["ts"],
             "last_end": s["ts"] + s["dur"]},
        )
        lane["spans"] += s["name"] == POINT_SPAN
        lane["busy_s"] += max(s["dur"], 0.0)
        lane["first_ts"] = min(lane["first_ts"], s["ts"])
        lane["last_end"] = max(lane["last_end"], s["ts"] + s["dur"])
    return [
        {
            "pid": pid,
            "tid": tid,
            "spans": lane["spans"],
            "busy_s": lane["busy_s"],
            "utilization": lane["busy_s"] / window,
            "start_offset_s": lane["first_ts"] - window_start,
            "end_offset_s": lane["last_end"] - window_start,
        }
        for (pid, tid), lane in sorted(lanes.items())
    ]
