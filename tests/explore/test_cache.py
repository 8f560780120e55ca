"""Result-cache round-trips, durability, and key stability."""

import hashlib
import json
import os
import warnings

import pytest

import repro.explore.cache as cache_module
from repro.explore.cache import CorruptStoreWarning, ResultCache, record_key
from repro.explore.campaign import Campaign
from repro.explore.experiments import register_experiment
from repro.explore.resilience import FaultPlan, FaultSpec, activate, deactivate
from repro.explore.space import DesignPoint, DesignSpace, canonical_json


@register_experiment("test-keyed", "n + 1 (test only)", n=int)
def _plus_one(point):
    return {"value": point["n"] + 1}


def test_record_key_is_stable_and_content_addressed():
    a = record_key("barrier-cost", {"nprocs": 8, "preset": "xeon-8x2x4"})
    b = record_key("barrier-cost", {"preset": "xeon-8x2x4", "nprocs": 8})
    assert a == b
    assert record_key("other-exp", {"nprocs": 8, "preset": "xeon-8x2x4"}) != a
    assert record_key("barrier-cost", {"nprocs": 16, "preset": "xeon-8x2x4"}) != a


def _canonical_key(experiment, point):
    payload = canonical_json({"experiment": experiment, "point": dict(point)})
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


@pytest.fixture
def json_calls(monkeypatch):
    """Every ``canonical_json`` call the record-key code makes."""
    calls = []

    def counted(value):
        calls.append(value)
        return canonical_json(value)

    monkeypatch.setattr(cache_module, "canonical_json", counted)
    return calls


def test_design_point_key_is_memoised_and_canonical(json_calls):
    point = DesignPoint({"preset": "xeon-8x2x4", "nprocs": 8})
    first = record_key("barrier-cost", point)
    assert first == _canonical_key("barrier-cost", point)
    assert first == record_key("barrier-cost", dict(point))
    json_calls.clear()
    assert record_key("barrier-cost", point) == first
    assert json_calls == []


def test_one_point_keyed_for_two_experiments_gets_two_keys():
    point = DesignPoint({"nprocs": 8})
    a = record_key("exp-a", point)
    b = record_key("exp-b", point)
    assert a != b
    assert a == _canonical_key("exp-a", point)
    assert b == _canonical_key("exp-b", point)
    assert record_key("exp-a", point) == a  # switching back recomputes


def test_plain_dicts_are_hashed_on_every_call(json_calls):
    point = {"nprocs": 8}
    assert record_key("barrier-cost", point) == _canonical_key(
        "barrier-cost", point
    )
    record_key("barrier-cost", point)
    assert len(json_calls) == 2
    assert point == {"nprocs": 8}


def test_warm_serve_of_memoised_points_hashes_no_point_key(
    tmp_path, json_calls
):
    space = DesignSpace.from_dict({"axes": {"n": [1, 2, 3, 4]}})
    points = space.expand()
    Campaign("warm", space, "test-keyed", store_dir=tmp_path).serve(points)
    json_calls.clear()
    records, stats = Campaign(
        "warm", space, "test-keyed", store_dir=tmp_path
    ).serve(points)
    assert stats.cached == 4
    assert json_calls == []
    assert [r.key for r in records] == [
        _canonical_key("test-keyed", p) for p in points
    ]


def test_store_bytes_do_not_depend_on_the_memo(tmp_path):
    """A store written from points first keyed for another experiment is
    byte-identical to one written from fresh points, and every entry's
    key is the canonical one."""
    space = DesignSpace.from_dict({"axes": {"n": [5, 6, 7]}})
    fresh = [DesignPoint(p) for p in space.expand()]
    rekeyed = [DesignPoint(p) for p in space.expand()]
    for point in rekeyed:
        record_key("another-experiment", point)
    stores = []
    for name, points in (("fresh", fresh), ("rekeyed", rekeyed)):
        Campaign("bytes", space, "test-keyed",
                 store_dir=tmp_path / name).serve(points)
        (store,) = (tmp_path / name).glob("*.jsonl")
        stores.append(store.read_bytes())
        entries = [json.loads(line) for line in stores[-1].splitlines()]
        assert [e["key"] for e in entries] == [
            _canonical_key("test-keyed", e["record"]["point"]) for e in entries
        ]
    assert stores[0] == stores[1]


def test_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "c.jsonl")
    record = {"metrics": {"cost": 1.25e-5, "stages": 3}, "point": {"n": 8}}
    assert cache.get("k1") is None
    cache.put("k1", record)
    assert "k1" in cache
    assert cache.get("k1") == record
    assert len(cache) == 1


def test_cache_survives_reload(tmp_path):
    path = tmp_path / "c.jsonl"
    first = ResultCache(path)
    first.put("a", {"v": 1})
    first.put("b", {"v": 0.1 + 0.2})  # float round-trip must be exact
    reloaded = ResultCache(path)
    assert len(reloaded) == 2
    assert reloaded.get("a") == {"v": 1}
    assert reloaded.get("b") == {"v": 0.1 + 0.2}


def test_later_puts_override_and_torn_tail_is_ignored(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = ResultCache(path)
    cache.put("a", {"v": 1})
    cache.put("a", {"v": 2})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "torn", "rec')  # interrupted write
    reloaded = ResultCache(path)
    assert reloaded.get("a") == {"v": 2}
    assert "torn" not in reloaded


def test_clean_put_after_torn_put_survives_reload(tmp_path):
    """A torn put and a clean put in one session: the clean record must
    not be spliced onto the fragment and lost with it."""
    path = tmp_path / "c.jsonl"
    cache = ResultCache(path)
    activate(FaultPlan(
        faults=(FaultSpec(kind="torn-append", site="cache.put"),),
        state_dir=str(tmp_path / "faults"),
    ))
    try:
        cache.put("a", {"v": 1})  # torn
    finally:
        deactivate()
    cache.put("b", {"v": 2})
    with pytest.warns(CorruptStoreWarning, match="1 unreadable line"):
        reloaded = ResultCache(path)
    assert reloaded.get("b") == {"v": 2}
    assert "a" not in reloaded  # lost only its own record; re-evaluates


def test_mid_file_corruption_is_quarantined_and_reported_once(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = ResultCache(path)
    cache.put("a", {"v": 1})
    with open(path, "ab") as fh:
        fh.write(b'["not", "an", "entry"]\n{"key": "x"}\n')
    cache.put("b", {"v": 2})
    with pytest.warns(CorruptStoreWarning, match=r"2 unreadable line\(s\) \(2, 3\)"):
        reloaded = ResultCache(path)
    assert list(reloaded.keys()) == ["a", "b"]
    sidecar = tmp_path / "c.jsonl.corrupt"
    assert sidecar.read_text().splitlines() == [
        '["not", "an", "entry"]', '{"key": "x"}'
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # already quarantined: no re-warn
        assert len(ResultCache(path)) == 2
    assert len(sidecar.read_text().splitlines()) == 2  # deduplicated


def test_clear_removes_file(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = ResultCache(path)
    cache.put("a", {"v": 1})
    cache.clear()
    assert len(cache) == 0
    assert not os.path.exists(path)


def test_file_is_line_oriented_json(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = ResultCache(path)
    cache.put("a", {"v": 1})
    cache.put("b", {"v": 2})
    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert [entry["key"] for entry in lines] == ["a", "b"]


def test_durable_cache_round_trips(tmp_path):
    """The fsync path writes the same bytes as the default path."""
    fast = ResultCache(tmp_path / "fast.jsonl")
    durable = ResultCache(tmp_path / "durable.jsonl", durable=True)
    record = {"metrics": {"cost": 0.1 + 0.2}}
    fast.put("k", record)
    durable.put("k", record)
    assert (
        (tmp_path / "fast.jsonl").read_bytes()
        == (tmp_path / "durable.jsonl").read_bytes()
    )


def _append_worker(path, worker_id, count):
    cache = ResultCache(path)
    payload = {"blob": "x" * 512, "worker": worker_id}
    for i in range(count):
        cache.put(f"w{worker_id}-{i}", payload)


def test_concurrent_appends_never_tear_records(tmp_path):
    """Four processes hammering one store file: every line must parse —
    O_APPEND single-write appends cannot interleave mid-record, which is
    what lets parallel campaigns share a store without a lock."""
    import multiprocessing

    path = str(tmp_path / "shared.jsonl")
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    workers = [
        ctx.Process(target=_append_worker, args=(path, w, 40))
        for w in range(4)
    ]
    for p in workers:
        p.start()
    for p in workers:
        p.join()
        assert p.exitcode == 0
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    assert len(lines) == 160
    keys = set()
    for line in lines:  # strict: no torn or interleaved bytes anywhere
        entry = json.loads(line)
        keys.add(entry["key"])
        assert entry["record"]["blob"] == "x" * 512
    assert len(keys) == 160
    assert len(ResultCache(path)) == 160
