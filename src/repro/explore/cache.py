"""Append-only JSONL result cache keyed by content hash.

The cache is what makes campaigns resumable and cheap to re-run: a record
is stored under ``sha256(experiment, point)`` the first time its point is
evaluated, and every later campaign — same process or a fresh one — is
served from disk.  The store is a :mod:`repro.util.jsonl` log: appending
a line per result keeps writes crash-safe (a torn line costs only its own
record, which re-evaluates) and lets several campaigns share one store
directory.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterator, Mapping
from typing import Any

from repro.explore.space import DesignPoint, canonical_json
from repro.util import jsonl
from repro.util.jsonl import CorruptStoreWarning  # noqa: F401  (re-exported)


def record_key(experiment: str, point: Mapping[str, Any]) -> str:
    """Stable cache key for one (experiment, design-point) evaluation.

    A :class:`DesignPoint` computes its key once per experiment and keeps
    it (:meth:`DesignPoint.keyed`), so re-serving memoised points hashes
    nothing; any other mapping is hashed on every call.
    """
    if isinstance(point, DesignPoint):
        return point.keyed(experiment, _record_key)
    return _record_key(experiment, point)


def _record_key(experiment: str, point: Mapping[str, Any]) -> str:
    payload = canonical_json({"experiment": experiment, "point": dict(point)})
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _is_entry(entry: dict) -> bool:
    return isinstance(entry.get("key"), str) and "record" in entry


class ResultCache:
    """A dict-like view over one append-only JSONL log
    (:mod:`repro.util.jsonl`); a key put again supersedes its record.

    ``durable=True`` adds an ``fsync`` after every append, trading write
    throughput for the guarantee that an acknowledged record survives a
    machine crash, not just a process crash.
    """

    def __init__(self, path: str | os.PathLike, durable: bool = False):
        self.path = os.fspath(path)
        self.durable = durable
        self._records: dict[str, dict] = {
            entry["key"]: entry["record"]
            for entry in jsonl.read(self.path, accept=_is_entry)
        }

    # ------------------------------------------------------------- queries

    def get(self, key: str) -> dict | None:
        return self._records.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    # ------------------------------------------------------------- updates

    def put(self, key: str, record: Mapping[str, Any]) -> None:
        """Store one record, appending it to the backing log in a single
        crash-safe write (:func:`repro.util.jsonl.append`)."""
        record = dict(record)
        payload = jsonl.append(
            self.path, [{"key": key, "record": record}], site="cache.put",
            experiment=str(record.get("experiment", "")), key=key,
            durable=self.durable,
        )
        # The in-memory record is the decoded line, so it is bit-identical
        # to what a later session will load from disk.
        self._records[key] = json.loads(payload)["record"]

    def clear(self) -> None:
        self._records.clear()
        if os.path.exists(self.path):
            os.remove(self.path)
