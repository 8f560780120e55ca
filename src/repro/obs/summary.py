"""Merging telemetry sinks and the persisted per-campaign summary.

A telemetry sink directory holds one ``events-<pid>.jsonl`` stream per
process that recorded anything — the campaign parent plus every executor
worker.  This module merges those streams (sorted by filename; torn
lines are quarantined by the :mod:`repro.util.jsonl` reader), folds the
metric events into one deterministic snapshot, and derives the run
reports the CLI prints: top-k slowest points, cache rates, per-worker
utilization.

:class:`TelemetrySummary` is the artifact persisted next to each
campaign store (``<store>/.telemetry/summary-<campaign>.json``): a small
JSON digest of one run.  Because the previous run's digest is embedded
on rewrite, a re-run can always report *what changed* — wall seconds,
cache hit rate, evaluated counts — without any external tooling.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.util import jsonl

#: Telemetry artifacts live here, next to a campaign's result store.
TELEMETRY_DIRNAME = ".telemetry"

SUMMARY_FORMAT_VERSION = 1


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


def spans(
    events: Iterable[Mapping[str, Any]],
    name: str | None = None,
    time_base: str | None = "host",
) -> list[dict]:
    """The span events of a merged stream, optionally filtered."""
    out = []
    for event in events:
        if event.get("type") != "span":
            continue
        if name is not None and event.get("name") != name:
            continue
        if time_base is not None and event.get("time") != time_base:
            continue
        out.append(event)
    return out


def top_spans(
    events: Iterable[Mapping[str, Any]],
    name: str = "campaign.point",
    k: int = 10,
    keys: Sequence[str] | None = None,
) -> list[dict]:
    """The ``k`` slowest host spans called ``name``, longest first.

    ``keys`` restricts to spans whose ``attrs.key`` is in the set — how a
    campaign filters the merged stream down to the points *it* served.
    """
    matched = spans(events, name=name)
    if keys is not None:
        wanted = set(keys)
        matched = [
            s for s in matched if s.get("attrs", {}).get("key") in wanted
        ]
    matched.sort(key=lambda s: (-s.get("dur", 0.0), s.get("ts", 0.0)))
    return matched[:k]


def worker_utilization(
    events: Iterable[Mapping[str, Any]],
    name: str = "campaign.point",
) -> list[dict]:
    """Per-(pid, tid) busy time under ``name`` spans over the shared
    run window — the worker utilization timeline ``stats`` prints."""
    matched = spans(events, name=name)
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
        lane["spans"] += 1
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


# ----------------------------------------------------------------- summary

@dataclass(frozen=True)
class TelemetrySummary:
    """One campaign run's digest, persisted next to its store."""

    campaign: str
    experiment: str
    unix_time: float
    wall_seconds: float
    stats: Mapping[str, Any]  # total/evaluated/cached/failed/quarantined
    top_slowest: Sequence[Mapping[str, Any]] = ()
    metrics: Mapping[str, Any] = field(default_factory=dict)
    workers: Sequence[Mapping[str, Any]] = ()
    failures: Sequence[Mapping[str, Any]] = ()
    previous: Mapping[str, Any] | None = None

    def to_dict(self) -> dict:
        return {
            "format_version": SUMMARY_FORMAT_VERSION,
            "campaign": self.campaign,
            "experiment": self.experiment,
            "unix_time": self.unix_time,
            "wall_seconds": self.wall_seconds,
            "stats": dict(self.stats),
            "top_slowest": [dict(s) for s in self.top_slowest],
            "metrics": dict(self.metrics),
            "workers": [dict(w) for w in self.workers],
            "failures": [dict(f) for f in self.failures],
            "previous": None if self.previous is None else dict(self.previous),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TelemetrySummary":
        return cls(
            campaign=data["campaign"],
            experiment=data.get("experiment", ""),
            unix_time=data.get("unix_time", 0.0),
            wall_seconds=data.get("wall_seconds", 0.0),
            stats=dict(data.get("stats", {})),
            top_slowest=tuple(data.get("top_slowest", ())),
            metrics=dict(data.get("metrics", {})),
            workers=tuple(data.get("workers", ())),
            failures=tuple(data.get("failures", ())),
            previous=data.get("previous"),
        )

    def changes_since_previous(self) -> dict | None:
        """Deltas vs the embedded previous run, or ``None`` on a first
        run — the "what changed" report."""
        if not self.previous:
            return None
        prev = self.previous
        deltas: dict[str, Any] = {
            "wall_seconds": self.wall_seconds
            - float(prev.get("wall_seconds", 0.0)),
        }
        for key in ("total", "evaluated", "cached", "failed", "quarantined"):
            now = int(self.stats.get(key, 0))
            before = int(prev.get("stats", {}).get(key, 0))
            deltas[key] = now - before
        return deltas


def summary_path(store_dir: str | os.PathLike, campaign: str) -> str:
    return os.path.join(
        telemetry_dir_for(store_dir), f"summary-{campaign}.json"
    )


def load_summary(
    store_dir: str | os.PathLike, campaign: str
) -> TelemetrySummary | None:
    path = summary_path(store_dir, campaign)
    try:
        with open(path, encoding="utf-8") as fh:
            return TelemetrySummary.from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError):
        return None


def list_summaries(store_dir: str | os.PathLike) -> list[TelemetrySummary]:
    """Every persisted campaign summary under a store directory."""
    tdir = telemetry_dir_for(store_dir)
    if not os.path.isdir(tdir):
        return []
    out = []
    for fname in sorted(os.listdir(tdir)):
        if fname.startswith("summary-") and fname.endswith(".json"):
            name = fname[len("summary-"):-len(".json")]
            summary = load_summary(store_dir, name)
            if summary is not None:
                out.append(summary)
    return out


def write_summary(
    store_dir: str | os.PathLike, summary: TelemetrySummary
) -> str:
    """Persist ``summary``, embedding the prior run's digest (sans its own
    ``previous``, so the file stays one-deep rather than a full chain)."""
    prior = load_summary(store_dir, summary.campaign)
    if prior is not None:
        embedded = prior.to_dict()
        embedded.pop("previous", None)
        embedded.pop("top_slowest", None)
        embedded.pop("metrics", None)
        embedded.pop("workers", None)
        embedded.pop("failures", None)
        summary = TelemetrySummary(
            campaign=summary.campaign,
            experiment=summary.experiment,
            unix_time=summary.unix_time,
            wall_seconds=summary.wall_seconds,
            stats=summary.stats,
            top_slowest=summary.top_slowest,
            metrics=summary.metrics,
            workers=summary.workers,
            failures=summary.failures,
            previous=embedded,
        )
    path = summary_path(store_dir, summary.campaign)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def summarize_run(
    store_dir: str | os.PathLike,
    campaign: str,
    experiment: str,
    stats: Mapping[str, Any],
    wall_seconds: float,
    keys: Sequence[str] | None = None,
    started: float | None = None,
    k: int = 10,
    failures: Sequence[Mapping[str, Any]] = (),
) -> TelemetrySummary:
    """Assemble and persist one run's :class:`TelemetrySummary`.

    Reads the store's merged event stream; ``started`` (epoch seconds)
    windows the span-derived reports (top-k, worker lanes) to this run,
    since the sink directory accumulates across runs.  The metrics
    snapshot is the store-lifetime fold — counters in it are cumulative
    over every telemetry-enabled run against this store.  ``failures``
    is the campaign's structured failure digest for this run (error,
    attempts, quarantine flag per failed point).
    """
    events = read_events(telemetry_dir_for(store_dir))
    if started is not None:
        # Small slack: worker processes anchor their own clocks.
        cutoff = started - 0.5
        window = [
            e for e in events
            if e.get("type") != "span" or float(e.get("ts", 0.0)) >= cutoff
        ]
    else:
        window = events
    summary = TelemetrySummary(
        campaign=campaign,
        experiment=experiment,
        unix_time=time.time(),
        wall_seconds=wall_seconds,
        stats=dict(stats),
        top_slowest=[
            {
                "key": s.get("attrs", {}).get("key"),
                "point": s.get("attrs", {}).get("point"),
                "dur_s": s.get("dur"),
                "pid": s.get("pid"),
            }
            for s in top_spans(window, keys=keys, k=k)
        ],
        metrics=merged_metrics(events),
        workers=worker_utilization(window),
        failures=[dict(f) for f in failures],
    )
    write_summary(store_dir, summary)
    return summary
