"""Threaded BSPlib runtime with virtual-time accounting (Ch. 6).

Each BSP process is a Python thread running the user's SPMD program against
a :class:`BSPContext`.  Real data moves (puts, gets, tagged sends are
actually applied to NumPy buffers), while *time* is virtual: computation
advances a per-process clock through the machine's kernel-time model, and
``bsp_sync`` resolves the superstep's communication schedule on the
simulated platform.

The processing model is the thesis's revision (Fig. 1.2): communication is
*committed as early as possible* — each operation's transfer becomes ready
at its commit time and streams in the background, overlapping the rest of
the superstep's computation.  At synchronisation the runtime:

1. validates collective state (registrations, tag sizes),
2. schedules all transfers over the ground-truth links with per-node NIC
   serialisation (get requests travel as headers; replies leave once the
   owner reaches the superstep's end),
3. runs the payload-carrying dissemination sync (§6.4-6.5) from each
   process's compute-end time,
4. releases each process at max(sync completion, its last inbound arrival),
5. applies gets (reading pre-put values), then puts, then delivers tagged
   messages — all in deterministic (pid, sequence) order.

Thread scheduling (§6.3) is abstracted: the cooperative sched_yield dance
of the real implementation appears here as a fixed per-operation software
overhead (``OP_OVERHEAD``), which is exactly the BSP-vs-MPI overhead the
Chapter 8 experiments observe.

Replications (``runs=R``)
-------------------------
``bsp_run(..., runs=R)`` executes all ``R`` noisy replications of a
program in one pass (``R = 1`` by default): the SPMD threads run *once*
(data movement is noise-independent), while every virtual-time quantity
— clocks, commit times, superstep records — carries a leading
replication axis as ``(R, ...)`` ndarray state.  This requires the
program's control flow not to depend on ``ctx.time()`` (the only
quantity that differs between replications); all bundled programs and
experiments satisfy this.

Noise is drawn in bulk under the engine's replication-major contract
(``docs/engine.md``), per superstep in this fixed order:

1. compute charges: each ``charge_kernel`` call draws ``(R,)`` from its
   process's own compute stream at call time;
2. pass-1 transfer transits: one ``(R, M1)`` matrix over the superstep's
   puts/sends/get-request headers in canonical ``(pid, sequence)`` commit
   order;
3. pass-2 get-reply transits: one ``(R, M2)`` matrix in the same
   canonical order of the requesting gets;
4. the payload-carrying sync's stage draws, per the event-engine
   contract.

Noise is a property of the machine: every draw comes from
``machine.rng(...)`` through ``machine.noise``, and a noise-free run is a
run on a machine built with ``noise=QUIET``
(:data:`repro.cluster.noise.QUIET`).

The scalar per-message scheduler survives only as the test oracle
:func:`repro.bsplib.reference.reference_transfers`: on a QUIET machine
every replication's arrivals are bit-identical to it (hypothesis-tested);
noisy ensembles agree distributionally (KS-checked), since the oracle
draws transits in processing rather than canonical order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.bsplib.errors import (
    BSPError,
    CommunicationError,
    RegistrationError,
    TagSizeError,
)
from repro.bsplib.messages import (
    HEADER_BYTES,
    DeliveredMessage,
    GetRecord,
    PutRecord,
    SendRecord,
)
from repro.bsplib.registration import RegistrationTable
from repro.bsplib.sync_model import dissemination_payloads, sync_pattern
from repro.machine.clock import BatchClock
from repro.machine.simmachine import CommTruth, SimMachine
from repro.obs import current as _telemetry
from repro.obs.provenance import (
    BSPProvenance,
    EngineProvenance,
    SuperstepProvenance,
    TransferPassProvenance,
)
from repro.simmpi.engine import simulate_stages_batch
from repro.util.validation import require_int

_COLLECTIVE_TIMEOUT = 120.0  # wall-clock guard against deadlocked programs

#: Software cost of one BSPlib call [s]: §6.3's queue/yield overhead, the
#: BSP-vs-MPI overhead the Chapter 8 experiments observe.  The stencil
#: predictor charges the same constant per put.
OP_OVERHEAD = 1.5e-6


def _transfer_endpoints(kind: str, rec) -> tuple[int, int, int]:
    """Wire (source, destination, bytes) of one pass-1 outbound record —
    get request headers travel requester -> owner; everything else carries
    its payload plus a header."""
    if kind == "get":
        return rec.requester_pid, rec.target_pid, HEADER_BYTES
    return rec.header.source_pid, rec.dest_pid, rec.nbytes + HEADER_BYTES


def _reply_endpoints(rec: GetRecord) -> tuple[int, int, int]:
    """Wire (source, destination, bytes) of one pass-2 get reply."""
    return rec.target_pid, rec.requester_pid, rec.nbytes + HEADER_BYTES


@dataclass
class SuperstepRecord:
    """Virtual-time accounting of one superstep (the Ch. 8 measurables).

    Every time array is ``(R, P)``: replications first, process axis
    last.
    """

    index: int
    entry_times: np.ndarray  # compute-end per process [s]
    compute_seconds: np.ndarray  # kernel time charged this superstep
    last_arrival: np.ndarray  # per-process last inbound payload arrival
    sync_exit: np.ndarray  # dissemination sync completion per process
    exit_times: np.ndarray  # superstep end per process
    messages: int
    payload_bytes: int


@dataclass
class BSPRunResult:
    """Outcome of one SPMD execution.

    ``final_times`` is ``(R, P)`` (``bsp_run(..., runs=R)``, ``R = 1``
    by default); ``return_values`` and the delivered data are identical
    across replications, since only time is noisy.
    """

    nprocs: int
    return_values: list
    supersteps: list[SuperstepRecord]
    final_times: np.ndarray
    provenance: BSPProvenance | None = None

    @property
    def runs(self) -> int:
        """Replication count."""
        return int(self.final_times.shape[0])

    @property
    def run_seconds(self) -> np.ndarray:
        """Per-replication virtual wall times, ``(R,)``."""
        return self.final_times.max(axis=1)

    @property
    def total_seconds(self) -> float:
        """Ensemble mean of per-replication virtual wall times (the run's
        wall time when ``R = 1``)."""
        return float(self.run_seconds.mean())

    @property
    def superstep_count(self) -> int:
        return len(self.supersteps)


class _ProcessState:
    """Mutable per-process runtime state (touched by its own thread, and by
    the resolving thread while all others are blocked in the collective)."""

    def __init__(self, pid: int, rng, runs: int):
        self.pid = pid
        self.clock = BatchClock(runs)
        self.rng = rng
        self.regs = RegistrationTable()
        # This superstep's puts, gets and sends as ``(kind, record)``
        # pairs; each append takes one sequence number, so the log is in
        # sequence order.
        self.ops: list[tuple[str, PutRecord | GetRecord | SendRecord]] = []
        self.sequence = 0
        self.compute_accum = 0.0
        self.tag_size = 0
        self.tag_size_request: int | None = None
        self.incoming: list[DeliveredMessage] = []
        self.move_cursor = 0
        self.begun = False
        self.ended = False
        self.return_value = None

    def next_seq(self) -> int:
        self.sequence += 1
        return self.sequence


class _Collective:
    """Rendezvous of all P threads with a mismatch check and a single
    resolver action — the runtime's internal barrier."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.cond = threading.Condition()
        self.kinds: list[str | None] = [None] * nprocs
        self.arrived = 0
        self.generation = 0
        self.failure: BaseException | None = None

    def fail(self, exc: BaseException) -> None:
        with self.cond:
            if self.failure is None:
                self.failure = exc
            self.cond.notify_all()

    def arrive(self, pid: int, kind: str, action=None) -> None:
        with self.cond:
            if self.failure is not None:
                raise self.failure
            gen = self.generation
            self.kinds[pid] = kind
            self.arrived += 1
            if self.arrived == self.nprocs:
                if len(set(self.kinds)) != 1:
                    self.failure = BSPError(
                        f"collective mismatch: processes disagree on "
                        f"{sorted(set(str(k) for k in self.kinds))}"
                    )
                elif action is not None:
                    try:
                        action()
                    except BaseException as exc:  # propagate to every thread
                        self.failure = exc
                self.arrived = 0
                self.kinds = [None] * self.nprocs
                self.generation += 1
                self.cond.notify_all()
            else:
                while (
                    self.generation == gen
                    and self.failure is None
                ):
                    if not self.cond.wait(timeout=_COLLECTIVE_TIMEOUT):
                        self.failure = BSPError(
                            "collective timed out: a process failed to reach "
                            "bsp_sync (non-collective synchronisation?)"
                        )
                        self.cond.notify_all()
                        break
            if self.failure is not None:
                raise self.failure


class BSPRuntime:
    """Executes SPMD programs over a simulated machine."""

    def __init__(
        self,
        machine: SimMachine,
        nprocs: int,
        placement_policy: str = "round_robin",
        label: str = "bsp-run",
        runs: int = 1,
        provenance: bool = False,
    ):
        self.machine = machine
        self.nprocs = require_int(nprocs, "nprocs")
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.runs = require_int(runs, "runs")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        self.placement = machine.placement(nprocs, policy=placement_policy)
        self.truth: CommTruth = machine.comm_truth(self.placement)
        self.label = label
        self._sync_rng = machine.rng("bsplib-sync", label, nprocs)
        self.states = [
            _ProcessState(
                pid, machine.rng("bsplib-compute", label, nprocs, pid),
                runs=runs,
            )
            for pid in range(nprocs)
        ]
        self._collective = _Collective(nprocs)
        self._next_reg_index = 0
        self._superstep = 0
        self._records: list[SuperstepRecord] = []
        self._sync_stages = sync_pattern(nprocs).stages
        self._sync_payloads = dissemination_payloads(nprocs)
        self._nodes = self.placement.nodes
        self._n_nodes = int(self._nodes.max()) + 1
        # Event provenance (repro.obs.provenance) is strictly opt-in:
        # recording stores the arrays the schedulers compute anyway plus
        # FIFO predecessor links, draws no randomness, and never changes
        # a clock.
        self.provenance: BSPProvenance | None = (
            BSPProvenance(
                nprocs=self.nprocs,
                runs=self.runs,
                nic_gap=float(self.truth.nic_gap),
                recv_overhead=float(self.truth.recv_overhead),
            )
            if provenance
            else None
        )

    # ------------------------------------------------------------- running

    def run(self, program, *args, **kwargs) -> BSPRunResult:
        """Run ``program(ctx, *args, **kwargs)`` on every BSP process.

        With telemetry enabled (:mod:`repro.obs`) the run is wrapped in
        one host span and each superstep's virtual-time accounting is
        emitted as a *simulated-time* span summary — reading only the
        :class:`SuperstepRecord` state the runtime keeps anyway, so the
        execution (and every virtual clock) is unchanged.
        """
        tele = _telemetry()
        if tele is None:
            return self._run(program, *args, **kwargs)
        with tele.span(
            "bsp.run",
            label=self.label,
            nprocs=int(self.nprocs),
            runs=self.runs,
        ) as span:
            result = self._run(program, *args, **kwargs)
            for rec in result.supersteps:
                entry_min = float(rec.entry_times.min())
                exit_max = float(rec.exit_times.max())
                tele.emit_span(
                    "bsp.superstep",
                    entry_min,
                    exit_max - entry_min,
                    time_base="sim",
                    superstep=int(rec.index),
                    messages=int(rec.messages),
                    payload_bytes=int(rec.payload_bytes),
                    sim_sync_exit_max_s=float(rec.sync_exit.max()),
                    sim_compute_mean_s=float(rec.compute_seconds.mean()),
                )
            span.set("supersteps", result.superstep_count)
            span.set("sim_total_s", result.total_seconds)
        return result

    def _run(self, program, *args, **kwargs) -> BSPRunResult:
        from repro.bsplib.api import BSPContext

        errors: list[BaseException] = []
        threads = []

        def thread_main(pid: int) -> None:
            ctx = BSPContext(self, pid)
            try:
                self.states[pid].return_value = program(ctx, *args, **kwargs)
                self._collective.arrive(pid, "exit", action=None)
            except BaseException as exc:
                self._collective.fail(exc)
                errors.append(exc)

        for pid in range(self.nprocs):
            t = threading.Thread(
                target=thread_main, args=(pid,), name=f"bsp-{self.label}-{pid}"
            )
            threads.append(t)
            t.start()
        for t in threads:
            t.join()
        if errors or self._collective.failure is not None:
            raise errors[0] if errors else self._collective.failure
        final_times = np.stack(
            [state.clock.now for state in self.states], axis=-1
        )
        if self.provenance is not None:
            self.provenance.final_times = final_times
        return BSPRunResult(
            nprocs=self.nprocs,
            return_values=[state.return_value for state in self.states],
            supersteps=self._records,
            final_times=final_times,
            provenance=self.provenance,
        )

    # --------------------------------------------------- superstep resolve

    def sync_from(self, pid: int) -> None:
        self._collective.arrive(pid, "sync", action=self._resolve_superstep)

    def _resolve_superstep(self) -> None:
        states = self.states
        # (R, P): replication-major, process axis last.
        entries = np.stack([state.clock.now for state in states], axis=-1)

        self._commit_registrations()
        self._commit_tag_sizes()

        ss_prov: SuperstepProvenance | None = None
        if self.provenance is not None:
            ss_prov = SuperstepProvenance(index=self._superstep, entries=entries)
            self.provenance.supersteps.append(ss_prov)

        ordered = self._canonical_outbound()
        if self.nprocs > 1:
            last_arrival, messages, payload_total = self._resolve_transfers(
                entries, ordered, ss_prov
            )
            sync_prov = None if ss_prov is None else EngineProvenance()
            sync_exit = simulate_stages_batch(
                self.truth,
                self._sync_stages,
                runs=self.runs,
                payload_bytes=self._sync_payloads,
                rng=self._sync_rng,
                noise=self.machine.noise,
                entry_times=entries,
                provenance=sync_prov,
            )
            if ss_prov is not None:
                ss_prov.sync = sync_prov
        else:
            last_arrival, messages, payload_total = entries.copy(), 0, 0
            sync_exit = entries.copy()

        exits = np.maximum(sync_exit, last_arrival)
        if ss_prov is not None:
            ss_prov.exits = exits
        self._apply_data(ordered)
        compute = np.empty_like(entries)
        for pid, state in enumerate(states):
            state.clock.advance_to(exits[:, pid])
            compute[:, pid] = state.compute_accum
        record = SuperstepRecord(
            index=self._superstep,
            entry_times=entries,
            compute_seconds=compute,
            last_arrival=last_arrival,
            sync_exit=sync_exit,
            exit_times=exits,
            messages=messages,
            payload_bytes=payload_total,
        )
        self._records.append(record)
        self._superstep += 1
        for state in states:
            state.compute_accum = 0.0
            state.ops.clear()

    def _commit_registrations(self) -> None:
        push_counts = {state.regs.pending_pushes for state in self.states}
        if len(push_counts) != 1:
            raise RegistrationError(
                "bsp_push_reg must be called collectively: push counts differ"
            )
        pop_counts = {state.regs.pending_pops for state in self.states}
        if len(pop_counts) != 1:
            raise RegistrationError(
                "bsp_pop_reg must be called collectively: pop counts differ"
            )
        count = push_counts.pop()
        indices = list(range(self._next_reg_index, self._next_reg_index + count))
        self._next_reg_index += count
        for state in self.states:
            state.regs.commit(indices)

    def _commit_tag_sizes(self) -> None:
        requests = {state.tag_size_request for state in self.states}
        if requests == {None}:
            return
        if None in requests or len(requests) != 1:
            raise TagSizeError(
                "bsp_set_tagsize must be called collectively with one value"
            )
        new_size = requests.pop()
        for state in self.states:
            state.tag_size = new_size
            state.tag_size_request = None

    # ----------------------------------------------------------- transfers

    def _canonical_outbound(self) -> list[tuple[str, object]]:
        """The superstep's outbound ``(kind, record)`` pairs in canonical
        ``(pid, sequence)`` order: the per-pid concatenation of the op
        logs, each already in sequence order."""
        return [op for state in self.states for op in state.ops]

    def _resolve_transfers(self, entries: np.ndarray, ordered, prov=None):
        """FIFO-schedule the superstep's transfers over the ground truth.

        ``entries`` is ``(R, P)`` and ``ordered`` the canonical outbound
        ``(kind, record)`` list; returns ``((R, P) last arrivals,
        messages, payload bytes)``.  Messages are enumerated in the
        canonical ``(pid, sequence)`` commit order (replication-invariant,
        and the bulk draw order), while each transmit-NIC FIFO processes
        its replication's messages in commit-time order via a stable
        argsort — ties fall back to the canonical order, which is the
        ``(commit_time, pid, sequence)`` processing order of the scalar
        oracle :func:`repro.bsplib.reference.reference_transfers`.  On a
        QUIET machine every replication is bit-identical to that oracle.

        ``prov`` (a :class:`SuperstepProvenance`) optionally captures the
        per-transfer event times and NIC predecessor links; capture reads
        the values this scheduler computes anyway and draws no noise.
        """
        truth = self.truth
        nodes = self._nodes
        runs = self.runs
        last_arrival = entries.copy()
        if not ordered:
            return last_arrival, 0, 0
        rows = np.arange(runs)
        tx_free = np.zeros((runs, self._n_nodes))
        capture = prov is not None
        # NIC predecessor links use superstep-global transfer ids (pass-1
        # message k -> k, pass-2 message m -> M1 + m): the transmit FIFOs
        # persist from pass 1 into pass 2.
        tx_last = (
            np.full((runs, self._n_nodes), -1, dtype=np.intp)
            if capture else None
        )

        def ship_pass(endpoints, ready, order_key, base_gid):
            """FIFO-schedule one pass of ``(source, destination, bytes)``
            wire endpoints; returns ``(dst, arrivals, pass provenance)``,
            the provenance ``None`` unless capturing.

            ``order_key`` is the per-replication processing order of the
            shared transmit NICs (commit times in pass 1, request-header
            arrivals in pass 2).
            """
            src, dst, nbytes = np.array(endpoints, dtype=np.intp).T
            wire_all = nbytes * truth.inv_bandwidth[src, dst]
            node_src = nodes[src]
            remote_mask = node_src != nodes[dst]
            # One (R, M) bulk transit draw in canonical order.
            base = truth.latency[src, dst] + wire_all
            transits = self.machine.noise.sample_matrix(
                self._sync_rng, base, runs
            )
            wire_entries = ready.copy()
            txp = np.full(ready.shape, -1, dtype=np.intp) if capture else None
            remote = np.flatnonzero(remote_mask)
            if remote.size:
                # Remote messages in per-replication NIC processing order;
                # the scan walks its columns.
                order = np.argsort(order_key[:, remote], axis=1, kind="stable")
                g_sorted = remote[order]
                node_sorted = node_src[g_sorted]
                ready_sorted = ready[rows[:, None], g_sorted]
                wire_sorted = wire_all[g_sorted]
                entry_sorted = np.empty_like(ready_sorted)
                for k in range(remote.size):
                    node = node_sorted[:, k]
                    wire_entry = np.maximum(
                        ready_sorted[:, k], tx_free[rows, node]
                    )
                    # (wire_entry + nic_gap) + nbytes * inv_bandwidth, the
                    # oracle's association.
                    tx_free[rows, node] = (
                        wire_entry + truth.nic_gap + wire_sorted[:, k]
                    )
                    entry_sorted[:, k] = wire_entry
                    if capture:
                        g = g_sorted[:, k]
                        txp[rows, g] = tx_last[rows, node]
                        tx_last[rows, node] = base_gid + g
                wire_entries[rows[:, None], g_sorted] = entry_sorted
            arrivals = wire_entries + transits + truth.recv_overhead
            pass_prov = None
            if capture:
                pass_prov = TransferPassProvenance(
                    src=src, dst=dst, remote=remote_mask, node_src=node_src,
                    wire_cost=wire_all, ready=ready, wire_entry=wire_entries,
                    tx_pred=txp,
                    transits=np.array(transits, dtype=float, copy=True),
                    arrivals=arrivals,
                )
            return dst, arrivals, pass_prov

        def fold_arrivals(dst, arrivals) -> None:
            """Max arrivals into ``last_arrival`` per destination (the max
            is order-independent)."""
            np.maximum.at(last_arrival, (rows[:, None], dst), arrivals)

        ends1 = [_transfer_endpoints(kind, rec) for kind, rec in ordered]
        is_get = np.array([kind == "get" for kind, _ in ordered])
        ready1 = np.stack([rec.commit_time for _, rec in ordered], axis=-1)
        dst1, arrivals1, pass1 = ship_pass(
            ends1, ready1, order_key=ready1, base_gid=0
        )
        payload = ~is_get
        fold_arrivals(dst1[payload], arrivals1[:, payload])
        if capture:
            prov.pass1 = pass1
            prov.is_get = is_get

        ends2 = [_reply_endpoints(rec) for kind, rec in ordered if kind == "get"]
        if ends2:
            # Pass 2: replies leave once the owner has both received the
            # request header and finished its superstep computation (§6.2:
            # the value transferred is the one at the end of the step);
            # the owner's NIC serves replies in request-arrival order.
            request_arrivals = arrivals1[:, is_get]
            owners = np.array([e[0] for e in ends2], dtype=np.intp)
            ready2 = np.maximum(request_arrivals, entries[:, owners])
            dst2, arrivals2, pass2 = ship_pass(
                ends2, ready2, order_key=request_arrivals,
                base_gid=len(ends1),
            )
            fold_arrivals(dst2, arrivals2)
            if capture:
                prov.pass2 = pass2
        messages = len(ends1) + len(ends2)
        payload_total = sum(e[2] for e in ends1) + sum(e[2] for e in ends2)
        return last_arrival, messages, payload_total

    # ------------------------------------------------------- data movement

    def _apply_data(self, ordered) -> None:
        # Gets first: they read source values from the end of the computing
        # phase, before any put lands (BSPlib ordering).
        get_values = []
        for kind, rec in ordered:
            if kind != "get":
                continue
            source = self.states[rec.target_pid].regs.array_at(
                rec.header.reg_index
            )
            start, length = rec.header.offset, rec.header.length
            if start + length > source.shape[0]:
                raise CommunicationError(
                    f"get overruns registered buffer on process "
                    f"{rec.target_pid}: offset {start} + {length} > "
                    f"{source.shape[0]}"
                )
            get_values.append((rec, source[start : start + length].copy()))

        for kind, rec in ordered:
            if kind != "put":
                continue
            dest = self.states[rec.dest_pid].regs.array_at(rec.header.reg_index)
            data = rec.payload if rec.payload is not None else rec.source_view
            start = rec.header.offset
            if start + data.shape[0] > dest.shape[0]:
                raise CommunicationError(
                    f"put overruns registered buffer on process "
                    f"{rec.dest_pid}: offset {start} + {data.shape[0]} > "
                    f"{dest.shape[0]}"
                )
            dest[start : start + data.shape[0]] = data

        for rec, value in get_values:
            rec.dest_array[
                rec.dest_offset : rec.dest_offset + value.shape[0]
            ] = value

        for state in self.states:
            state.incoming = []
            state.move_cursor = 0
        for kind, rec in ordered:
            if kind == "send":
                self.states[rec.dest_pid].incoming.append(
                    DeliveredMessage(
                        source_pid=rec.header.source_pid,
                        tag=rec.tag,
                        payload=rec.payload,
                    )
                )

    # -------------------------------------------------------------- helper

    def check_pid(self, pid: int) -> int:
        pid = require_int(pid, "pid")
        if not 0 <= pid < self.nprocs:
            raise CommunicationError(
                f"process id {pid} out of range for nprocs={self.nprocs}"
            )
        return pid

    def charge_op(self, state: _ProcessState, dest_pid: int | None = None) -> float:
        """Advance a process clock by the software cost of one BSPlib call
        (§6.3's queue/yield overhead plus the request start cost)."""
        cost = OP_OVERHEAD + self.truth.invocation_overhead
        if dest_pid is not None and dest_pid != state.pid:
            cost += float(self.truth.start_overhead[state.pid, dest_pid])
        return state.clock.advance(cost)


def bsp_run(
    machine: SimMachine,
    nprocs: int,
    program,
    *args,
    label: str = "bsp-run",
    runs: int = 1,
    provenance: bool = False,
    **kwargs,
) -> BSPRunResult:
    """Convenience entry point: build a runtime and execute ``program``.

    ``runs=R`` executes all ``R`` noisy replications in one batched pass
    (see the module docstring); the returned result carries ``(R, ...)``
    time arrays and a per-replication ``run_seconds`` view.
    ``provenance=True`` records event provenance
    (:mod:`repro.obs.provenance`) on the result for critical-path
    extraction; recording draws no randomness and leaves every clock
    bit-identical.
    """
    runtime = BSPRuntime(
        machine, nprocs, label=label, runs=runs, provenance=provenance
    )
    return runtime.run(program, *args, **kwargs)
