"""Message records of the BSPlib runtime (§6.2).

Every one-sided operation is described by a header — the thesis's tuple of
six integers — followed by an optional payload.  Tagged ``bsp_send``
messages carry a fixed-size tag plus an arbitrary payload and are delivered
into the destination's queue at synchronisation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

HEADER_BYTES = 6 * 4  # six 32-bit integers (§6.2)


class SignalType(enum.IntEnum):
    """Cause of an internal control message (§6.2 header field 1)."""

    PUT = 0
    HPPUT = 1
    GET_REQUEST = 2
    GET_REPLY = 3
    SEND = 4
    SYNC = 5


@dataclass(frozen=True)
class Header:
    """The thesis's 6-integer control header."""

    signal: SignalType
    source_pid: int
    reg_index: int
    offset: int
    length: int
    sequence: int


@dataclass
class PutRecord:
    """A buffered or high-performance put committed during a superstep."""

    header: Header
    dest_pid: int
    payload: np.ndarray | None  # buffered copy (put) or None (hpput)
    source_view: np.ndarray | None  # read at sync time for hpput
    commit_time: float

    @property
    def nbytes(self) -> int:
        data = self.payload if self.payload is not None else self.source_view
        return int(data.nbytes)


@dataclass
class GetRecord:
    """A buffered or high-performance get committed during a superstep."""

    header: Header
    requester_pid: int
    target_pid: int
    dest_array: np.ndarray  # written at sync time
    dest_offset: int
    commit_time: float

    @property
    def nbytes(self) -> int:
        """Reply payload: ``header.length`` counts elements of the
        destination array."""
        return int(self.header.length) * self.dest_array.itemsize


@dataclass
class SendRecord:
    """A tagged message queued for delivery next superstep."""

    header: Header
    dest_pid: int
    tag: bytes
    payload: bytes
    commit_time: float

    @property
    def nbytes(self) -> int:
        return len(self.tag) + len(self.payload)


@dataclass(frozen=True)
class DeliveredMessage:
    """One entry of a process's incoming tagged-message queue."""

    source_pid: int
    tag: bytes
    payload: bytes

    @property
    def payload_bytes(self) -> int:
        return len(self.payload)
