"""Property tests (S3): metric merges are order-independent.

A merged snapshot is a fold of per-worker event streams; worker files
arrive in sorted-filename order, but *which* worker got which name is an
accident of pid assignment.  Counters and histograms must therefore
merge to the same snapshot under any permutation of the worker files
(gauges are documented last-write-wins and excluded).  Values are drawn
integer-valued so float accumulation is exact and the comparison can be
``==`` rather than approximate.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs

# Each name has one fixed kind, as in real instrumented code (a name
# reused across kinds is a TypeError at merge time by design).
KINDS = {"points": "counter", "cache.hits": "counter", "wall.s": "hist"}

metric_events = st.lists(
    st.sampled_from(sorted(KINDS)).flatmap(
        lambda name: st.fixed_dictionaries({
            "type": st.just("metric"),
            "kind": st.just(KINDS[name]),
            "name": st.just(name),
            # Integer-valued floats: addition commutes exactly below 2**53.
            "value": st.integers(0, 10**6).map(float),
        })
    ),
    max_size=12,
)

worker_files = st.lists(metric_events, min_size=1, max_size=5)


def fold(files) -> dict:
    return obs.merged_metrics(event for events in files for event in events)


@given(files=worker_files, data=st.data())
@settings(max_examples=60, deadline=None)
def test_counter_and_histogram_fold_is_order_independent(files, data):
    shuffled = data.draw(st.permutations(files))
    assert fold(files) == fold(shuffled)


def _write_sink(root, name, files):
    sink = os.path.join(root, name)
    os.makedirs(sink)
    for index, events in enumerate(files):
        path = os.path.join(sink, f"events-{index}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(e) + "\n" for e in events)
    return sink


@given(files=worker_files, data=st.data())
@settings(max_examples=20, deadline=None)
def test_on_disk_merge_is_worker_order_independent(files, data):
    """Same event streams, different pid→filename assignment: the merged
    snapshot read back from disk must not change."""
    shuffled = data.draw(st.permutations(files))
    with tempfile.TemporaryDirectory() as root:
        a = obs.merged_metrics(
            obs.read_events(_write_sink(root, "a", files))
        )
        b = obs.merged_metrics(
            obs.read_events(_write_sink(root, "b", shuffled))
        )
    a.pop("gauges", None)
    b.pop("gauges", None)
    assert a == b


def test_histogram_merge_uses_fixed_edges():
    snap = obs.merged_metrics([
        {"type": "metric", "kind": "hist", "name": "wall.s", "value": 0.5}
    ])["histograms"]["wall.s"]
    assert tuple(snap["edges"]) == obs.DEFAULT_SECONDS_EDGES


def test_first_event_fixes_histogram_edges():
    """Edges are declared at a name's first use; later events' edges do
    not re-bin it."""
    snap = obs.merged_metrics([
        {"type": "metric", "kind": "hist", "name": "h", "value": 0.5,
         "edges": [1.0, 10.0]},
        {"type": "metric", "kind": "hist", "name": "h", "value": 5.0,
         "edges": [0.1, 0.2, 0.3]},
    ])["histograms"]["h"]
    assert snap["edges"] == [1.0, 10.0]
    assert snap["counts"] == [1, 1, 0]


def test_name_reused_across_kinds_is_a_type_error():
    with pytest.raises(TypeError, match="counter"):
        obs.merged_metrics([
            {"type": "metric", "kind": "counter", "name": "x", "value": 1.0},
            {"type": "metric", "kind": "hist", "name": "x", "value": 1.0},
        ])
