"""The BSPlib programming interface (Table 6.1).

:class:`BSPContext` exposes all twenty primitives of Hill et al.'s BSPlib
to SPMD programs running under :class:`repro.bsplib.runtime.BSPRuntime`:

====================  ===============================================
``init``/``begin``    lifecycle bracketing (validated, idempotent here)
``end``/``abort``     termination, global abort
``nprocs``/``pid``    SPMD identity
``time``              per-process virtual wall clock
``sync``              superstep fence + communication resolution
``push_reg/pop_reg``  one-sided registration (stacked per buffer)
``put/hpput``         buffered / unbuffered remote write
``get/hpget``         buffered / unbuffered remote read
``set_tagsize``       collective tag size (next superstep)
``send``              tagged message into the destination queue
``qsize``             (message count, payload bytes) of the queue
``get_tag``           (payload length | -1, tag) of the head message
``move``              consume head payload (bounded copy)
``hpmove``            consume head message zero-copy: (tag, payload)
====================  ===============================================

Beyond the standard, ``charge_kernel``/``run_kernel``/``charge_seconds``
advance the virtual clock through the machine's compute model — the hook by
which programs acquire realistic computation time on the simulated platform.
"""

from __future__ import annotations

import numpy as np

from repro.bsplib.errors import BSPAbort, BSPError, CommunicationError, TagSizeError
from repro.bsplib.messages import (
    GetRecord,
    Header,
    PutRecord,
    SendRecord,
    SignalType,
)
from repro.kernels.base import Kernel
from repro.util.validation import require_int, require_nonnegative


def _as_1d(array, name: str) -> np.ndarray:
    if not isinstance(array, np.ndarray):
        raise CommunicationError(f"{name} must be a numpy array")
    if array.ndim != 1:
        raise CommunicationError(f"{name} must be 1-D (use .ravel() views)")
    return array


class BSPContext:
    """Per-process handle passed to SPMD programs."""

    def __init__(self, runtime, pid: int):
        self._runtime = runtime
        self._state = runtime.states[pid]
        self._pid = pid

    # ------------------------------------------------------------ identity

    @property
    def pid(self) -> int:
        """bsp_pid: index of this process."""
        return self._pid

    @property
    def nprocs(self) -> int:
        """bsp_nprocs: number of SPMD processes."""
        return self._runtime.nprocs

    def time(self):
        """bsp_time: elapsed virtual seconds on this process.

        The ``(R,)`` vector of per-replication clocks (``R = 1`` unless
        the run was started with ``runs=R``).
        Program *control flow* must not depend on this value — it is the
        only quantity that differs between replications.
        """
        return self._state.clock.now

    # ----------------------------------------------------------- lifecycle

    def init(self, program=None) -> None:
        """bsp_init: a no-op hook kept for interface completeness (the
        runtime already owns program startup)."""

    def begin(self, maxprocs: int | None = None) -> None:
        """bsp_begin: mark the start of SPMD execution."""
        if self._state.begun:
            raise BSPError("bsp_begin called twice")
        if maxprocs is not None and require_int(maxprocs, "maxprocs") < 1:
            raise ValueError("maxprocs must be >= 1")
        self._state.begun = True

    def end(self) -> None:
        """bsp_end: mark the end of SPMD execution."""
        if self._state.ended:
            raise BSPError("bsp_end called twice")
        self._state.ended = True

    def abort(self, message: str = "") -> None:
        """bsp_abort: halt all processes with an error state."""
        exc = BSPAbort(self._pid, message)
        self._runtime._collective.fail(exc)
        raise exc

    # ---------------------------------------------------------------- sync

    def sync(self) -> None:
        """bsp_sync: end the superstep; all communication becomes visible."""
        if self._state.ended:
            raise BSPError("bsp_sync after bsp_end")
        self._runtime.sync_from(self._pid)

    # --------------------------------------------------------- registration

    def push_reg(self, array: np.ndarray) -> None:
        """bsp_push_reg: register a buffer for one-sided access (effective
        after the next sync)."""
        self._runtime.charge_op(self._state)
        self._state.regs.queue_push(_as_1d(array, "array"))

    def pop_reg(self, array: np.ndarray) -> None:
        """bsp_pop_reg: unregister the most recent registration of a buffer
        (effective after the next sync)."""
        self._runtime.charge_op(self._state)
        self._state.regs.queue_pop(_as_1d(array, "array"))

    # ------------------------------------------------------------- one-sided

    def _put_impl(self, pid, src, dst, offset, high_performance: bool) -> None:
        pid = self._runtime.check_pid(pid)
        src = _as_1d(src, "src")
        dst = _as_1d(dst, "dst")
        offset = require_int(offset, "offset")
        if offset < 0:
            raise CommunicationError("offset must be >= 0")
        reg_index = self._state.regs.index_of(dst)
        commit = self._runtime.charge_op(self._state, pid)
        header = Header(
            signal=SignalType.HPPUT if high_performance else SignalType.PUT,
            source_pid=self._pid,
            reg_index=reg_index,
            offset=offset,
            length=int(src.shape[0]),
            sequence=self._state.next_seq(),
        )
        self._state.ops.append((
            "put",
            PutRecord(
                header=header,
                dest_pid=pid,
                payload=None if high_performance else src.copy(),
                source_view=src if high_performance else None,
                commit_time=commit,
            ),
        ))

    def put(self, pid: int, src: np.ndarray, dst: np.ndarray, offset: int = 0) -> None:
        """bsp_put: buffered remote write.  ``src`` is safe to reuse
        immediately; ``dst`` names the registered variable; ``offset`` is
        in elements of the destination."""
        self._put_impl(pid, src, dst, offset, high_performance=False)

    def hpput(self, pid: int, src: np.ndarray, dst: np.ndarray, offset: int = 0) -> None:
        """bsp_hpput: unbuffered remote write — ``src`` must stay untouched
        until after the next sync (its value is read at transfer time)."""
        self._put_impl(pid, src, dst, offset, high_performance=True)

    def get(self, pid: int, src: np.ndarray, offset: int, dst: np.ndarray,
            nelems: int | None = None, dst_offset: int = 0) -> None:
        """bsp_get: buffered remote read of the source's end-of-superstep
        value into ``dst`` at the next sync."""
        pid = self._runtime.check_pid(pid)
        src = _as_1d(src, "src")
        dst = _as_1d(dst, "dst")
        offset = require_int(offset, "offset")
        dst_offset = require_int(dst_offset, "dst_offset")
        if nelems is None:
            nelems = dst.shape[0] - dst_offset
        nelems = require_int(nelems, "nelems")
        if offset < 0 or dst_offset < 0 or nelems < 0:
            raise CommunicationError("offsets and lengths must be >= 0")
        if dst_offset + nelems > dst.shape[0]:
            raise CommunicationError("get overruns the local destination")
        reg_index = self._state.regs.index_of(src)
        commit = self._runtime.charge_op(self._state, pid)
        header = Header(
            signal=SignalType.GET_REQUEST,
            source_pid=self._pid,
            reg_index=reg_index,
            offset=offset,
            length=nelems,
            sequence=self._state.next_seq(),
        )
        self._state.ops.append((
            "get",
            GetRecord(
                header=header,
                requester_pid=self._pid,
                target_pid=pid,
                dest_array=dst,
                dest_offset=dst_offset,
                commit_time=commit,
            ),
        ))

    def hpget(self, pid: int, src: np.ndarray, offset: int, dst: np.ndarray,
              nelems: int | None = None, dst_offset: int = 0) -> None:
        """bsp_hpget: unbuffered remote read (same visibility here; kept
        distinct for interface fidelity)."""
        self.get(pid, src, offset, dst, nelems, dst_offset)

    # --------------------------------------------------------------- BSMP

    def set_tagsize(self, nbytes: int) -> int:
        """bsp_set_tagsize: collectively set the tag size; returns the
        previous value; effective from the next superstep."""
        nbytes = require_int(nbytes, "nbytes")
        if nbytes < 0:
            raise TagSizeError("tag size must be >= 0")
        self._runtime.charge_op(self._state)
        previous = self._state.tag_size
        self._state.tag_size_request = nbytes
        return previous

    def send(self, pid: int, tag: bytes, payload) -> None:
        """bsp_send: queue a tagged message for delivery next superstep."""
        pid = self._runtime.check_pid(pid)
        tag = bytes(tag)
        if len(tag) != self._state.tag_size:
            raise TagSizeError(
                f"tag is {len(tag)} bytes but the superstep tag size is "
                f"{self._state.tag_size}"
            )
        if isinstance(payload, np.ndarray):
            payload = payload.tobytes()
        else:
            payload = bytes(payload)
        commit = self._runtime.charge_op(self._state, pid)
        header = Header(
            signal=SignalType.SEND,
            source_pid=self._pid,
            reg_index=-1,
            offset=0,
            length=len(payload),
            sequence=self._state.next_seq(),
        )
        self._state.ops.append((
            "send",
            SendRecord(
                header=header,
                dest_pid=pid,
                tag=tag,
                payload=payload,
                commit_time=commit,
            ),
        ))

    def qsize(self) -> tuple[int, int]:
        """bsp_qsize: (number of queued messages, total payload bytes)."""
        remaining = self._state.incoming[self._state.move_cursor :]
        return len(remaining), sum(m.payload_bytes for m in remaining)

    def get_tag(self) -> tuple[int, bytes | None]:
        """bsp_get_tag: (payload length of head message or -1, its tag)."""
        if self._state.move_cursor >= len(self._state.incoming):
            return -1, None
        message = self._state.incoming[self._state.move_cursor]
        return message.payload_bytes, message.tag

    def move(self, max_bytes: int | None = None) -> bytes:
        """bsp_move: consume the head message, returning at most
        ``max_bytes`` of its payload."""
        if self._state.move_cursor >= len(self._state.incoming):
            raise CommunicationError("bsp_move on an empty queue")
        message = self._state.incoming[self._state.move_cursor]
        self._state.move_cursor += 1
        if max_bytes is None:
            return message.payload
        max_bytes = require_int(max_bytes, "max_bytes")
        return message.payload[:max_bytes]

    def hpmove(self) -> tuple[bytes, bytes]:
        """bsp_hpmove: consume the head message zero-copy, returning
        ``(tag, payload)`` references."""
        if self._state.move_cursor >= len(self._state.incoming):
            raise CommunicationError("bsp_hpmove on an empty queue")
        message = self._state.incoming[self._state.move_cursor]
        self._state.move_cursor += 1
        return message.tag, message.payload

    # ------------------------------------------------------ virtual compute

    def charge_seconds(self, seconds: float) -> None:
        """Advance this process's clock by raw (already-costed) work."""
        seconds = require_nonnegative(seconds, "seconds")
        self._state.clock.advance(seconds)
        self._state.compute_accum += seconds

    def charge_kernel(self, kernel: Kernel, n: int, reps: int = 1,
                      footprint_bytes: float | None = None):
        """Charge the machine-model cost of ``reps`` kernel applications
        without executing them; returns the ``(R,)`` per-replication
        charged seconds (one bulk draw from this process's compute stream
        per call)."""
        runtime = self._runtime
        core = runtime.placement.core_of(self._pid)
        dt = runtime.machine.kernel_time_runs(
            core, kernel, n, runtime.runs, reps=reps, rng=self._state.rng,
            footprint_bytes=footprint_bytes,
        )
        self._state.clock.advance(dt)
        self._state.compute_accum = self._state.compute_accum + dt
        return dt

    def run_kernel(self, kernel: Kernel, operands: tuple, n: int):
        """Execute one kernel application for real *and* charge its modelled
        cost; returns the kernel's result."""
        result = kernel.run(operands)
        self.charge_kernel(kernel, n)
        return result
