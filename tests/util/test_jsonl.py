"""Every persistent log survives a torn append: the record written after
the tear is read back, whether the tear came from a killed writer or a
``torn-append`` fault at the log's own site."""

import warnings
from pathlib import Path

import pytest

from repro.bench.profile_cache import ProfileCache, read_run_stats, store_path_for
from repro.explore.cache import CorruptStoreWarning, ResultCache
from repro.explore.resilience import (
    FaultPlan,
    FaultSpec,
    activate,
    append_quarantine,
    deactivate,
    read_quarantine,
)
from repro.obs import Telemetry, read_events


@pytest.fixture(autouse=True)
def _no_active_plan():
    deactivate()
    yield
    deactivate()


# Each log: (log file, write record i through its real writer, read the
# record numbers back through its real reader).  Writers are built once,
# so a tear and the next append happen in one session.

def _result_store(tmp_path):
    path = tmp_path / "store.jsonl"
    cache = ResultCache(path)

    def read():
        reloaded = ResultCache(path)
        return [reloaded.get(key)["i"] for key in reloaded.keys()]

    return path, lambda i: cache.put(f"k{i}", {"experiment": "e", "i": i}), read


def _quarantine_sidecar(tmp_path):
    path = tmp_path / "camp.quarantine.jsonl"

    def write(i):
        append_quarantine(path, {"key": f"k{i}", "experiment": "e", "i": i})

    return path, write, lambda: [r["i"] for r in read_quarantine(path)]


def _event_stream(tmp_path):
    sink = tmp_path / "sink"
    tele = Telemetry(sink)

    def write(i):
        tele.emit_event("probe", i=i)
        tele.flush()

    return Path(tele._sink_path()), write, lambda: [e["i"] for e in read_events(sink)]


def _run_stats(tmp_path):
    store = tmp_path / "store"
    cache = ProfileCache()
    cache.configure(store_path_for(store))

    def write(i):
        cache._run_hits = i
        cache.flush_run_stats()

    path = store / ".profile-cache" / "stats.jsonl"
    return path, write, lambda: [r["hits"] for r in read_run_stats(store)]


LOGS = {
    "cache.put": _result_store,
    "quarantine.append": _quarantine_sidecar,
    "telemetry.flush": _event_stream,
    "profile_cache.stats": _run_stats,
}


def _read_after_tear(read):
    with pytest.warns(CorruptStoreWarning):
        first = read()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # quarantined once, reported once
        assert read() == first
    return first


@pytest.mark.parametrize("site", sorted(LOGS))
def test_record_after_a_killed_writer_survives(tmp_path, site):
    path, write, read = LOGS[site](tmp_path)
    write(1)
    with open(path, "ab") as fh:
        fh.write(b'{"i": 2, "experiment": "e", "ke')  # writer killed
    write(3)
    assert _read_after_tear(read) == [1, 3]
    assert b'{"i": 2, "experiment": "e", "ke' in (
        path.parent / f"{path.name}.corrupt"
    ).read_bytes()


@pytest.mark.parametrize("site", sorted(LOGS))
def test_record_after_a_torn_append_fault_survives(tmp_path, site):
    path, write, read = LOGS[site](tmp_path)
    write(1)
    activate(FaultPlan(
        faults=(FaultSpec(kind="torn-append", site=site),),
        state_dir=str(tmp_path / "faults"),
    ), export_env=False)
    write(2)
    deactivate()
    assert not path.read_bytes().endswith(b"\n")  # the fault tore it
    write(3)
    assert _read_after_tear(read) == [1, 3]


def test_clean_appends_frame_one_record_per_line(tmp_path):
    path, write, read = _quarantine_sidecar(tmp_path)
    for i in range(3):
        write(i)
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b"" and all(lines[:-1])  # no blank lines added
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read() == [0, 1, 2]
    assert not (tmp_path / "camp.quarantine.jsonl.corrupt").exists()
