"""Attribution tables, edge criticality, and explain reports.

:mod:`repro.obs.critpath` turns one replication's provenance into a
critical path; this module aggregates paths across a batched run's
``runs=R`` replications into the answers a bottleneck investigation
actually asks for:

* **category / process / scope tables** — how much of the makespan each
  blame category (compute, send overhead, NIC queueing, wire, receive,
  sync wait), process, and stage/superstep carries.  Per replication the
  category totals sum *exactly* (in :class:`fractions.Fraction`
  arithmetic) to that replication's makespan; the tables report
  mean/min/max seconds and the mean share.
* **edge criticality** — how often each structural edge (stable across
  replications) appears on the critical path: "the P0→P3 dissemination
  hop is critical in 94% of replications".
* **resource slack** — per NIC/wire/process: how much any single event
  on that resource could slip before the makespan moves (replication 0's
  graph; exactly 0 on critical resources).

An :class:`ExplainReport` bundles these and serialises to a JSON-safe
``type="critpath"`` telemetry event (:meth:`Telemetry.emit_event`), so
``python -m repro.explore explain <store>`` can read reports back from a
store's sink.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from repro.obs.critpath import (
    CriticalPath,
    event_graph,
    extract_paths,
    validate_path,
)

#: Telemetry event type carrying a serialised :class:`ExplainReport`.
CRITPATH_EVENT = "critpath"

REPORT_FORMAT_VERSION = 1

#: How many of the most critical edges an :class:`ExplainReport` keeps.
MAX_EDGES = 25


def _stat_table(per_rep: list[dict], makespans: list[Fraction]) -> dict:
    """Fold per-replication {key -> Fraction seconds} dicts into
    {key -> mean/min/max seconds + mean share-of-makespan}."""
    keys = sorted({k for totals in per_rep for k in totals}, key=str)
    runs = len(per_rep)
    total_makespan = sum(makespans, Fraction(0))
    out = {}
    for key in keys:
        vals = [totals.get(key, Fraction(0)) for totals in per_rep]
        total = sum(vals, Fraction(0))
        out[key] = {
            "mean_s": float(total / runs),
            "min_s": float(min(vals)),
            "max_s": float(max(vals)),
            "share": float(total / total_makespan) if total_makespan else 0.0,
        }
    return out


def edge_criticality(paths: Iterable[CriticalPath]) -> list[dict]:
    """Structural-edge frequency across replications, most critical
    first (frequency, then mean duration, then edge id)."""
    paths = list(paths)
    runs = len(paths)
    seen: dict[str, dict] = {}
    for path in paths:
        for hop in path.hops:
            rec = seen.get(hop.edge_id)
            if rec is None:
                rec = seen[hop.edge_id] = {
                    "edge": hop.edge_id,
                    "category": hop.category,
                    "process": hop.process,
                    "scope": hop.scope,
                    "detail": hop.detail,
                    "count": 0,
                    "_total": Fraction(0),
                }
            rec["count"] += 1
            rec["_total"] += hop.duration
    out = []
    for rec in seen.values():
        total = rec.pop("_total")
        rec["frequency"] = rec["count"] / runs if runs else 0.0
        rec["mean_duration_s"] = (
            float(total / rec["count"]) if rec["count"] else 0.0
        )
        out.append(rec)
    out.sort(
        key=lambda r: (-r["frequency"], -r["mean_duration_s"], r["edge"])
    )
    return out


@dataclass
class ExplainReport:
    """Aggregated critical-path explanation of one simulated run."""

    kind: str  # "engine" | "bsp"
    label: str
    runs: int
    nprocs: int
    makespans: list[float]
    categories: dict[str, dict]
    processes: dict[int, dict]
    scopes: dict[str, dict]
    edges: list[dict]
    slack: dict[str, float]
    path: list[dict]  # representative hops (replication 0)
    problems: list[str] = field(default_factory=list)

    @property
    def top_edge(self) -> dict | None:
        return self.edges[0] if self.edges else None

    def to_record(self) -> dict:
        """JSON-safe ``type="critpath"`` telemetry event payload."""
        return {
            "type": CRITPATH_EVENT,
            "format_version": REPORT_FORMAT_VERSION,
            "kind": self.kind,
            "label": self.label,
            "runs": int(self.runs),
            "nprocs": int(self.nprocs),
            "makespans": [float(m) for m in self.makespans],
            "categories": {str(k): dict(v) for k, v in
                           self.categories.items()},
            "processes": {str(k): dict(v) for k, v in
                          self.processes.items()},
            "scopes": {str(k): dict(v) for k, v in self.scopes.items()},
            "edges": [dict(e) for e in self.edges],
            "slack": {str(k): float(v) for k, v in self.slack.items()},
            "path": [dict(h) for h in self.path],
            "problems": list(self.problems),
        }


def explain(prov, label: str = "") -> ExplainReport:
    """Extract, validate, and aggregate every replication's critical
    path of an engine or BSP provenance record; the report keeps the
    ``MAX_EDGES`` most critical edges."""
    paths = extract_paths(prov)
    problems = [
        f"replication {path.replication}: {problem}"
        for path in paths
        for problem in validate_path(path)
    ]
    makespans = [Fraction(p.makespan) for p in paths]
    rep0 = event_graph(prov, 0)
    slack = {
        resource: float(s)
        for resource, s in sorted(rep0.resource_slacks().items())
    }
    problems.extend(f"inexact: {msg}" for msg in rep0.inexact)
    return ExplainReport(
        kind="bsp" if hasattr(prov, "supersteps") else "engine",
        label=label,
        runs=len(paths),
        nprocs=int(prov.nprocs),
        makespans=[float(m) for m in makespans],
        categories=_stat_table(
            [p.category_totals() for p in paths], makespans
        ),
        processes=_stat_table(
            [p.process_totals() for p in paths], makespans
        ),
        scopes=_stat_table([p.scope_totals() for p in paths], makespans),
        edges=edge_criticality(paths)[:MAX_EDGES],
        slack=slack,
        path=[
            {
                "edge": hop.edge_id,
                "t0": hop.t0,
                "t1": hop.t1,
                "duration_s": float(hop.duration),
                "category": hop.category,
                "process": hop.process,
                "scope": hop.scope,
                "detail": hop.detail,
            }
            for hop in paths[0].hops
        ] if paths else [],
        problems=problems,
    )


def emit_report(report: ExplainReport) -> bool:
    """Record ``report`` on the active telemetry context as one
    ``critpath`` event; returns whether anything was recorded."""
    from repro.obs import current

    telemetry = current()
    if telemetry is None:
        return False
    record = report.to_record()
    record.pop("type")
    telemetry.emit_event(CRITPATH_EVENT, **record)
    return True


def critpath_records(events: Iterable[Mapping[str, Any]]) -> list[dict]:
    """The ``critpath`` reports of a merged telemetry event stream."""
    return [
        dict(event)
        for event in events
        if event.get("type") == CRITPATH_EVENT
    ]


def render_record(record: Mapping[str, Any]) -> str:
    """Human-readable rendering of one ``critpath`` event (CLI output)."""
    lines = []
    label = record.get("label") or "(unlabelled)"
    makespans = record.get("makespans", [])
    mean_ms = float(np.mean(makespans)) * 1e3 if makespans else 0.0
    lines.append(
        f"critical path: {record.get('kind', '?')} run {label} — "
        f"{record.get('runs', 0)} replication(s), "
        f"{record.get('nprocs', 0)} processes, "
        f"mean makespan {mean_ms:.6f} ms"
    )
    categories = record.get("categories", {})
    if categories:
        lines.append("  category attribution (mean over replications):")
        for name, row in sorted(
            categories.items(), key=lambda kv: -kv[1].get("mean_s", 0.0)
        ):
            lines.append(
                f"    {name:<14} {row.get('mean_s', 0.0) * 1e6:12.3f} us"
                f"  ({row.get('share', 0.0) * 100:5.1f}%)"
            )
    edges = record.get("edges", [])
    if edges:
        lines.append("  most critical edges (frequency across replications):")
        for edge in edges[:8]:
            detail = edge.get("detail") or edge.get("category", "")
            lines.append(
                f"    {edge.get('frequency', 0.0) * 100:5.1f}%  "
                f"{edge.get('scope', '?'):<18} {detail:<22} "
                f"p{edge.get('process', '?')}  "
                f"{edge.get('mean_duration_s', 0.0) * 1e6:10.3f} us"
            )
    slack = record.get("slack", {})
    if slack:
        tight = sorted(slack.items(), key=lambda kv: kv[1])[:6]
        lines.append("  tightest resources (slack before makespan moves):")
        for resource, s in tight:
            lines.append(f"    {resource:<14} {s * 1e6:12.3f} us")
    problems = record.get("problems", [])
    if problems:
        lines.append(f"  problems ({len(problems)}):")
        lines.extend(f"    {p}" for p in problems[:5])
    return "\n".join(lines)
