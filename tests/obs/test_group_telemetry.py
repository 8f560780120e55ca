"""Telemetry of grouped evaluation: one ``campaign.group`` span per list
adapter call, a ``campaign.point`` span per point, and results that do
not depend on whether any of it is recorded."""

import hashlib
import json

import pytest

from repro import obs
from repro.explore.campaign import run_campaign

SPACE = {
    "axes": {
        "pattern": ["tree", "linear"],
        "seed": [1, 2, 3],
        "runs": [2, 3],
    },
    "constants": {"preset": "xeon-8x2x4", "nprocs": 8, "comm_samples": 3},
}


def digest(outcome) -> str:
    rows = [(r.key, r.metrics) for r in outcome.results.records]
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("executor", ["serial", "chunked"])
def test_digest_identical_with_telemetry_on_and_off(tmp_path, executor):
    off = run_campaign(
        "g-off", SPACE, "barrier-cost", store_dir=tmp_path / "off",
        executor=executor, workers=2,
    )
    obs.enable()
    on = run_campaign(
        "g-on", SPACE, "barrier-cost", store_dir=tmp_path / "on",
        executor=executor, workers=2,
    )
    assert digest(on) == digest(off)


def test_group_and_point_spans(tmp_path):
    obs.enable()
    outcome = run_campaign(
        "g", SPACE, "barrier-cost", store_dir=tmp_path, executor="serial"
    )
    events = obs.read_events(obs.telemetry_dir_for(tmp_path))
    groups = obs.spans(events, "campaign.group")
    points = obs.spans(events, "campaign.point")
    # The serial map is one chunk: one list adapter call for all points.
    assert [g["attrs"] for g in groups] == [
        {"experiment": "barrier-cost", "points": 12}
    ]
    assert sorted(p["attrs"]["key"] for p in points) == sorted(
        r.key for r in outcome.results.records
    )
    assert all(p["attrs"]["ok"] for p in points)
    assert all(p["attrs"]["point"] for p in points)
    # The engine ran under the group span, once per (pattern, P) group.
    engine = obs.spans(events, "engine.simulate_stages_batch")
    measured = [e for e in engine if e["parent"] == groups[0]["id"]]
    assert [e["attrs"]["runs"] for e in measured] == [15, 15]
    # Busy time counts the group span and the point spans.
    (lane,) = obs.worker_utilization(events)
    assert lane["spans"] == 12
    busy = groups[0]["dur"] + sum(p["dur"] for p in points)
    assert lane["busy_s"] == pytest.approx(busy)
