"""The one crash-safe append-only JSONL log behind every persistent
record stream: result stores (and the profile cache on them), quarantine
sidecars, telemetry event streams and profile-cache run stats.  A record
is one ``json.dumps(..., sort_keys=True)`` object per ``\\n``-terminated
line.

*Terminate on write*: each append is one ``os.write`` on an ``O_APPEND``
descriptor.  Under an exclusive ``flock`` the writer first checks that
the log ends in ``\\n``; a dangling torn fragment gets a ``\\n`` of its
own, so it cannot swallow the new record; readers take a shared lock,
so an append in flight never reads as torn.  *Never truncate on read*:
each unreadable line is copied once to ``<log>.corrupt``, reported once
with :class:`CorruptStoreWarning`, and skipped.
"""

from __future__ import annotations

import fcntl
import json
import os
import warnings
from collections.abc import Callable, Iterable, Mapping


class CorruptStoreWarning(UserWarning):
    """A log carried unreadable lines; they were quarantined to
    ``<log>.corrupt`` and skipped (a result store re-evaluates them)."""


def _open(path: str, flags: int) -> int:
    flags |= os.O_CREAT | os.O_APPEND
    try:
        return os.open(path, flags, 0o644)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return os.open(path, flags, 0o644)


def write(path: str | os.PathLike, payload: bytes) -> None:
    """Append raw bytes in one ``os.write``, with no framing or tail check
    (``.corrupt`` sidecars; fault ledgers, whose size is their count)."""
    fd = _open(os.fspath(path), os.O_WRONLY)
    try:
        os.write(fd, payload)
    finally:
        os.close(fd)


def append(path: str | os.PathLike, records: Iterable[Mapping],
           site: str, experiment: str = "", key: str | None = None,
           durable: bool = False) -> bytes:
    """Append ``records`` in one write; returns the encoded payload.
    ``durable`` adds an ``fsync``; ``site``, ``experiment`` and ``key``
    (default: the file name) address ``torn-append`` faults."""
    path = os.fspath(path)
    payload = "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in records
    ).encode("utf-8")
    # Imported lazily so loading repro.util never imports repro.explore.
    from repro.explore.resilience import maybe_tear

    torn = maybe_tear(site, experiment, key or os.path.basename(path),
                      payload)
    fd = _open(path, os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)  # released by close
        size = os.fstat(fd).st_size
        tail = os.pread(fd, 1, size - 1) if size else b"\n"
        data = (b"" if tail == b"\n" else b"\n") + (
            payload if torn is None else torn  # torn: a simulated crash
        )
        written = os.write(fd, data)
        if torn is None and written != len(data):
            # Disk full or quota: fail loudly rather than acknowledge a
            # record the file does not carry.
            raise OSError(f"short append to {path!r}: wrote {written} of "
                          f"{len(data)} bytes")
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)
    return payload


def read(path: str | os.PathLike,
         accept: Callable[[dict], bool] | None = None) -> list[dict]:
    """The log's readable records in append order (a missing log reads
    empty).  A line is readable when it parses to a JSON object that
    ``accept`` admits; blank lines are skipped, the rest quarantined."""
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8", errors="replace", newline="") as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)  # never read an append in flight
            lines = fh.read().split("\n")
    except FileNotFoundError:
        return []
    records, unreadable = [], {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if isinstance(record, dict) and (accept is None or accept(record)):
            records.append(record)
        else:
            unreadable.setdefault(line.strip(), number)
    if unreadable:
        _quarantine(path, unreadable)
    return records


def _quarantine(path: str, unreadable: dict[str, int]) -> None:
    sidecar = f"{path}.corrupt"
    try:
        with open(sidecar, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                unreadable.pop(line.strip(), None)
    except FileNotFoundError:
        pass
    if not unreadable:
        return  # quarantined and reported by an earlier read
    try:
        write(sidecar, ("\n".join(unreadable) + "\n").encode("utf-8"))
        action = f"quarantined to {sidecar!r}"
    except OSError:
        action = "left in place (sidecar not writable)"
    numbers = ", ".join(map(str, unreadable.values()))
    warnings.warn(
        f"JSONL log {path!r}: {len(unreadable)} unreadable line(s) "
        f"({numbers}) {action}; their records are skipped",
        CorruptStoreWarning, stacklevel=3,
    )
