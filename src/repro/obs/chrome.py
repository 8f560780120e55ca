"""Chrome ``trace_event`` export of telemetry span streams.

Produces the JSON object format consumed by ``chrome://tracing`` and
Perfetto (https://ui.perfetto.dev): a ``traceEvents`` list of complete
(``ph: "X"``) events with microsecond timestamps, plus metadata events
naming the process/thread lanes.

Two lanes families exist:

* **host lanes** — one Chrome "process" per real OS process that wrote
  spans (the campaign parent and every executor worker), timestamps
  normalised so the earliest host span starts at 0;
* **one sim lane** — spans recorded in *simulated* seconds (engine stage
  and superstep summaries) land in a synthetic process named
  ``simulated time``, so simulated durations are never visually summed
  with host wall-clock.

:func:`validate_chrome_trace` is the (self-)check the test suite and the
``trace`` CLI run over exported documents.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from typing import Any

#: Synthetic Chrome pid for the simulated-time lane; real pids are OS
#: pids, far below this.
SIM_LANE_PID = 999_999_999

#: Synthetic Chrome pid for critical-path lanes (one thread-lane per
#: ``critpath`` record rendered).
CRITPATH_LANE_PID = 999_999_998


def _jsonable_args(attrs: Mapping[str, Any]) -> dict:
    """Chrome ``args`` must be JSON; coerce anything exotic to repr."""
    out = {}
    for key, value in attrs.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            value = repr(value)
        out[key] = value
    return out


def _critpath_lane(record: Mapping[str, Any], lane: int) -> list[dict]:
    """Trace events for one ``critpath`` report: an X slice per
    nonzero-duration hop plus flow arrows (``ph: "s"/"f"``) where the
    path hands off between processes."""
    label = record.get("label") or record.get("kind") or "critpath"
    out: list[dict] = [{
        "name": "thread_name", "ph": "M",
        "pid": CRITPATH_LANE_PID, "tid": lane,
        "args": {"name": f"critical path: {label}"},
    }]
    prev_drawn: Mapping[str, Any] | None = None
    for index, hop in enumerate(record.get("path", [])):
        t0, t1 = float(hop["t0"]), float(hop["t1"])
        if t1 <= t0:
            continue  # MAX redirects / zero hops do not advance time
        if (
            prev_drawn is not None
            and hop.get("process") != prev_drawn.get("process")
        ):
            # A process handoff: arrow from the end of the previous
            # slice to the start of this one (equal timestamps — the
            # path is connected, so the arrow marks the blame switch).
            flow_id = lane * 1_000_000 + index
            common = {
                "name": "critical path", "cat": "critpath",
                "pid": CRITPATH_LANE_PID, "tid": lane, "id": flow_id,
            }
            out.append({
                **common, "ph": "s",
                "ts": float(prev_drawn["t1"]) * 1e6,
            })
            out.append({**common, "ph": "f", "bp": "e", "ts": t0 * 1e6})
        out.append({
            "name": hop.get("detail") or hop.get("category", "hop"),
            "cat": "critpath",
            "ph": "X",
            "ts": t0 * 1e6,
            "dur": (t1 - t0) * 1e6,
            "pid": CRITPATH_LANE_PID,
            "tid": lane,
            "args": _jsonable_args({
                "edge": hop.get("edge"),
                "category": hop.get("category"),
                "process": hop.get("process"),
                "scope": hop.get("scope"),
            }),
        })
        prev_drawn = hop
    return out


def chrome_trace(
    events: Iterable[Mapping[str, Any]],
    critpath: Mapping[str, Any] | Iterable[Mapping[str, Any]] | None = None,
) -> dict:
    """Build a Chrome trace document from telemetry events.

    Only ``type == "span"`` events contribute; metric events are carried
    by the metrics snapshot instead.  Host timestamps are rebased so the
    earliest span is ``ts=0``; simulated timestamps already start near 0.

    ``critpath`` takes one or more ``critpath`` report records (see
    :mod:`repro.obs.attribution`); each gets a dedicated lane in a
    synthetic "critical path" process, with flow arrows at every
    process handoff along the path.
    """
    spans = [e for e in events if e.get("type") == "span"]
    host = [e for e in spans if e.get("time") == "host"]
    sim = [e for e in spans if e.get("time") == "sim"]
    base = min((e["ts"] for e in host), default=0.0)

    trace_events: list[dict] = []
    seen_lanes: set[tuple[int, int]] = set()
    for event in host:
        pid, tid = int(event["pid"]), int(event.get("tid", 0))
        if (pid, -1) not in seen_lanes:
            seen_lanes.add((pid, -1))
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"pid {pid}"},
            })
        if (pid, tid) not in seen_lanes:
            seen_lanes.add((pid, tid))
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": f"thread {tid}"},
            })
        trace_events.append({
            "name": event["name"],
            "cat": "host",
            "ph": "X",
            "ts": (event["ts"] - base) * 1e6,
            "dur": max(event["dur"], 0.0) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": _jsonable_args(event.get("attrs", {})),
        })

    if sim:
        trace_events.append({
            "name": "process_name", "ph": "M", "pid": SIM_LANE_PID, "tid": 0,
            "args": {"name": "simulated time"},
        })
        # One sim thread-lane per originating (pid, tid) so concurrent
        # engine calls do not overlap on a single lane.
        sim_lanes: dict[tuple[int, int], int] = {}
        for event in sim:
            origin = (int(event["pid"]), int(event.get("tid", 0)))
            if origin not in sim_lanes:
                sim_lanes[origin] = len(sim_lanes)
                trace_events.append({
                    "name": "thread_name", "ph": "M",
                    "pid": SIM_LANE_PID, "tid": sim_lanes[origin],
                    "args": {"name": f"sim (pid {origin[0]}/t{origin[1]})"},
                })
            lane = sim_lanes[origin]
            trace_events.append({
                "name": event["name"],
                "cat": "sim",
                "ph": "X",
                "ts": event["ts"] * 1e6,
                "dur": max(event["dur"], 0.0) * 1e6,
                "pid": SIM_LANE_PID,
                "tid": lane,
                "args": _jsonable_args(event.get("attrs", {})),
            })

    if critpath is not None:
        records = (
            [critpath] if isinstance(critpath, Mapping) else list(critpath)
        )
        if records:
            trace_events.append({
                "name": "process_name", "ph": "M",
                "pid": CRITPATH_LANE_PID, "tid": 0,
                "args": {"name": "critical path (simulated)"},
            })
        for lane, record in enumerate(records):
            trace_events.extend(_critpath_lane(record, lane))

    return {"displayTimeUnit": "ms", "traceEvents": trace_events}


def validate_chrome_trace(doc: Mapping[str, Any]) -> int:
    """Check a document against the Chrome ``trace_event`` JSON shape.

    Raises :class:`ValueError` on the first violation; returns the number
    of ``X`` (complete) events otherwise.  This is the schema gate the
    acceptance tests run: the object form with ``displayTimeUnit``, a
    ``traceEvents`` list, and per-event ``name``/``ph``/``pid``/``tid``
    (plus numeric ``ts``/``dur`` for ``X`` events).
    """
    if not isinstance(doc, Mapping):
        raise ValueError("trace must be a JSON object")
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        raise ValueError("displayTimeUnit must be 'ms' or 'ns'")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    complete = 0
    for i, event in enumerate(events):
        if not isinstance(event, Mapping):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                raise ValueError(f"traceEvents[{i}] lacks {field!r}")
        ph = event["ph"]
        if ph not in ("X", "B", "E", "M", "i", "C", "s", "t", "f"):
            raise ValueError(f"traceEvents[{i}] has unknown ph {ph!r}")
        if ph in ("s", "t", "f"):
            if "id" not in event:
                raise ValueError(f"traceEvents[{i}] flow event lacks 'id'")
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(
                    f"traceEvents[{i}].ts must be a non-negative number"
                )
        if ph == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ValueError(
                        f"traceEvents[{i}].{field} must be a non-negative "
                        f"number"
                    )
            complete += 1
        if "args" in event and not isinstance(event["args"], Mapping):
            raise ValueError(f"traceEvents[{i}].args must be an object")
    return complete
