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
overhead (``op_overhead``), which is exactly the BSP-vs-MPI overhead the
Chapter 8 experiments observe.

Replication batching (``runs=R``)
---------------------------------
``bsp_run(..., runs=R)`` executes all ``R`` noisy replications of a
program in one pass: the SPMD threads run *once* (data movement is
noise-independent), while every virtual-time quantity — clocks, commit
times, superstep records — carries a leading replication axis as
``(R, ...)`` ndarray state.  This requires the program's control flow not
to depend on ``ctx.time()`` (the only quantity that differs between
replications); all bundled programs and experiments satisfy this.

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

The scalar path (``runs=None``) is untouched and serves as the reference:
on the clean path (``noisy=False``) every replication of a batched run is
bit-identical to it (hypothesis-tested); noisy ensembles agree
distributionally (KS-checked) while individual draws land in a different
stream order.

Transfer-plan cache
-------------------
A BSP program's transfer *schedule* is deterministic: which process puts
how many bytes where is fixed by the program, and only commit times and
noise vary across supersteps and replications.  Repeated-schedule
programs (the stencil family's iteration supersteps being the canonical
case) therefore re-derive the same structural plan every superstep.  The
runtime caches that plan — canonical ``(pid, sequence)`` record order,
endpoint/byte arrays, clean wire-transit bases, NIC wire costs, and the
remote masks the stable-argsort FIFO skeleton runs over — keyed by the
superstep's per-process ``(kind, destination, nbytes)`` record structure,
and replays it in both the scalar and the batched scheduler.  Replays are
bit-identical to a fresh build (the cache stores only deterministic
quantities and changes no draw order), enforced by
``tests/bsplib/test_plan_cache.py``; disable with
``bsp_run(..., plan_cache=False)``.  See ``docs/engine.md``,
"Transfer-plan cache".
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
from repro.machine.clock import BatchClock, VirtualClock
from repro.machine.simmachine import CommTruth, SimMachine
from repro.obs import current as _telemetry
from repro.obs.provenance import (
    BSPProvenance,
    EngineProvenance,
    SuperstepProvenance,
    TransferPassProvenance,
)
from repro.simmpi.engine import simulate_stages, simulate_stages_batch
from repro.util.validation import require_int, require_nonnegative

_COLLECTIVE_TIMEOUT = 120.0  # wall-clock guard against deadlocked programs


def _transfer_endpoints(kind: str, rec) -> tuple[int, int, int]:
    """Wire (source, destination, bytes) of one pass-1 outbound record —
    get request headers travel requester -> owner; everything else carries
    its payload plus a header.  Shared by the scalar and batched
    schedulers so endpoint/size logic exists exactly once."""
    if kind == "get":
        return rec.requester_pid, rec.target_pid, HEADER_BYTES
    return rec.header.source_pid, rec.dest_pid, rec.nbytes + HEADER_BYTES


def _reply_endpoints(rec: GetRecord) -> tuple[int, int, int]:
    """Wire (source, destination, bytes) of one pass-2 get reply."""
    return rec.target_pid, rec.requester_pid, rec.nbytes + HEADER_BYTES


@dataclass(frozen=True)
class _TransferPlan:
    """The deterministic skeleton of one superstep's transfer schedule.

    Everything here is a pure function of the superstep's record
    *structure* (who sends what where) and the runtime's fixed ground
    truth — commit times and noise are the only quantities that vary
    across supersteps/replications, and they stay outside the plan.
    Arrays are in canonical ``(pid, sequence)`` order; pass 2 covers the
    get replies in the canonical order of their requesting gets.
    """

    src1: np.ndarray  # pass-1 wire sources (intp)
    dst1: np.ndarray  # pass-1 wire destinations (intp)
    base1: np.ndarray  # clean wire transits: latency + bytes/bandwidth
    wire1: np.ndarray  # transmit-NIC occupancy: bytes/bandwidth
    node_src1: np.ndarray  # source node per message
    remote1: np.ndarray  # bool: crosses a node boundary
    is_get: np.ndarray  # bool: pass-1 record is a get request header
    src2: np.ndarray  # pass-2 (get reply) counterparts of the above
    dst2: np.ndarray
    base2: np.ndarray
    wire2: np.ndarray
    node_src2: np.ndarray
    remote2: np.ndarray
    messages: int  # total wire messages (pass 1 + pass 2)
    payload_total: int  # total wire bytes (pass 1 + pass 2)


@dataclass
class SuperstepRecord:
    """Virtual-time accounting of one superstep (the Ch. 8 measurables).

    Every time array is ``(P,)`` for a scalar run and ``(R, P)`` for a
    replication-batched run (process axis last).
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

    ``final_times`` is ``(P,)`` for a scalar run and ``(R, P)`` for a
    replication-batched one (``bsp_run(..., runs=R)``); ``return_values``
    and the delivered data are identical across replications, since only
    time is noisy.
    """

    nprocs: int
    return_values: list
    supersteps: list[SuperstepRecord]
    final_times: np.ndarray
    provenance: BSPProvenance | None = None

    @property
    def runs(self) -> int | None:
        """Replication count, or ``None`` for a scalar run."""
        return None if self.final_times.ndim == 1 else int(
            self.final_times.shape[0]
        )

    @property
    def run_seconds(self) -> np.ndarray:
        """Per-replication virtual wall times: ``(R,)`` (``(1,)`` scalar)."""
        return np.atleast_2d(self.final_times).max(axis=1)

    @property
    def total_seconds(self) -> float:
        """Virtual wall time of the run (scalar), or the ensemble mean of
        per-replication wall times (batched)."""
        return float(self.run_seconds.mean())

    @property
    def superstep_count(self) -> int:
        return len(self.supersteps)


class _ProcessState:
    """Mutable per-process runtime state (touched by its own thread, and by
    the resolving thread while all others are blocked in the collective)."""

    def __init__(self, pid: int, rng, runs: int | None = None):
        self.pid = pid
        self.clock = VirtualClock() if runs is None else BatchClock(runs)
        self.rng = rng
        self.regs = RegistrationTable()
        self.puts: list[PutRecord] = []
        self.gets: list[GetRecord] = []
        self.sends: list[SendRecord] = []
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
        op_overhead: float = 1.5e-6,
        label: str = "bsp-run",
        noisy: bool = True,
        runs: int | None = None,
        plan_cache: bool = True,
        provenance: bool = False,
    ):
        self.machine = machine
        self.nprocs = require_int(nprocs, "nprocs")
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if runs is not None:
            runs = require_int(runs, "runs")
            if runs < 1:
                raise ValueError("runs must be >= 1")
        self.runs = runs
        self.placement = machine.placement(nprocs, policy=placement_policy)
        self.truth: CommTruth = machine.comm_truth(self.placement)
        self.op_overhead = require_nonnegative(op_overhead, "op_overhead")
        self.label = label
        self.noisy = noisy
        self._noise = machine.noise if noisy else None
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
        self._nodes = np.array(
            [self.placement.node_of(r) for r in range(nprocs)], dtype=np.intp
        )
        self._n_nodes = int(self._nodes.max()) + 1
        # superstep shape -> _TransferPlan; the schedule of a repeated-
        # schedule program is deterministic, so one structural build per
        # distinct shape serves every later superstep and replication.
        self._plan_cache: dict | None = {} if plan_cache else None
        # Event provenance (repro.obs.provenance) is strictly opt-in:
        # recording stores the arrays the schedulers compute anyway plus
        # FIFO predecessor links, draws no randomness, and never changes
        # a clock.
        self.provenance: BSPProvenance | None = (
            BSPProvenance(
                nprocs=self.nprocs,
                runs=1 if runs is None else int(runs),
                scalar=runs is None,
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
            runs=None if self.runs is None else int(self.runs),
            noisy=bool(self.noisy),
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
            [np.asarray(state.clock.now, dtype=float)
             for state in self.states],
            axis=-1,
        )
        if self.provenance is not None:
            self.provenance.final_times = np.atleast_2d(final_times)
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
        p = self.nprocs
        batched = self.runs is not None
        if batched:
            # (R, P): replication-major, process axis last.
            entries = np.stack([state.clock.now for state in states], axis=-1)
        else:
            entries = np.array([state.clock.now for state in states])

        self._commit_registrations()
        self._commit_tag_sizes()

        ss_prov: SuperstepProvenance | None = None
        if self.provenance is not None:
            prev = (
                self._records[-1].exit_times
                if self._records
                else np.zeros_like(entries)
            )
            ss_prov = SuperstepProvenance(
                index=self._superstep,
                prev_exit=np.atleast_2d(prev),
                entries=np.atleast_2d(entries),
            )
            self.provenance.supersteps.append(ss_prov)

        last_arrival = entries.copy()
        messages = 0
        payload_total = 0
        if p > 1:
            last_arrival, messages, payload_total = (
                self._schedule_transfers_batch(entries, ss_prov) if batched
                else self._schedule_transfers(entries, ss_prov)
            )

        if p > 1:
            sync_prov = None if ss_prov is None else EngineProvenance()
            if batched:
                sync_exit = simulate_stages_batch(
                    self.truth,
                    self._sync_stages,
                    runs=self.runs,
                    payload_bytes=self._sync_payloads,
                    rng=self._sync_rng if self.noisy else None,
                    noise=self._noise,
                    entry_times=entries,
                    provenance=sync_prov,
                )
            else:
                sync_exit = simulate_stages(
                    self.truth,
                    self._sync_stages,
                    payload_bytes=self._sync_payloads,
                    rng=self._sync_rng if self.noisy else None,
                    noise=self._noise,
                    entry_times=entries,
                    provenance=sync_prov,
                )
            if ss_prov is not None:
                ss_prov.sync = sync_prov
        else:
            sync_exit = entries.copy()

        exits = np.maximum(sync_exit, last_arrival)
        if ss_prov is not None:
            ss_prov.sync_exit = np.atleast_2d(sync_exit)
            ss_prov.last_arrival = np.atleast_2d(last_arrival)
            ss_prov.exits = np.atleast_2d(exits)
        self._apply_data()
        for pid, state in enumerate(states):
            if batched:
                state.clock.advance_to(exits[:, pid])
            else:
                state.clock.advance_to(float(exits[pid]))

        if batched:
            compute = np.stack([
                np.broadcast_to(
                    np.asarray(state.compute_accum, dtype=float), (self.runs,)
                )
                for state in states
            ], axis=-1)
        else:
            compute = np.array([state.compute_accum for state in states])
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
            state.puts.clear()
            state.gets.clear()
            state.sends.clear()

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

    def _noisy_transits(self, base: np.ndarray) -> np.ndarray:
        """Bulk-perturb a vector of wire transits in schedule order.

        One vector draw per scheduling pass replaces the deprecated
        per-transfer ``sample_scalar`` round trips; draws fill in the
        deterministic ship-call order of each pass.
        """
        if self._noise is None or base.size == 0:
            return base
        return self._noise.sample(self._sync_rng, base)

    def _canonical_outbound(self):
        """Enumerate the superstep's outbound records in canonical
        ``(pid, sequence)`` order, plus the structural cache key.

        The key strips sequence numbers (they keep counting across
        supersteps) and keeps the per-process ``(kind, destination,
        nbytes)`` shape — exactly the inputs :class:`_TransferPlan` is a
        function of; a ``None`` marker separates processes.
        """
        ordered: list[tuple[str, object]] = []
        key: list = []
        for state in self.states:
            items = (
                [(rec.header.sequence, "put", rec.dest_pid, rec)
                 for rec in state.puts]
                + [(rec.header.sequence, "send", rec.dest_pid, rec)
                   for rec in state.sends]
                + [(rec.header.sequence, "get", rec.target_pid, rec)
                   for rec in state.gets]
            )
            items.sort(key=lambda item: item[0])  # sequences unique per pid
            for _seq, kind, dst, rec in items:
                ordered.append((kind, rec))
                key.append((kind, dst, rec.nbytes))
            key.append(None)
        return ordered, tuple(key)

    def _build_transfer_plan(self, ordered) -> _TransferPlan:
        truth = self.truth
        nodes = self._nodes

        def pass_arrays(endpoints):
            src = np.array([e[0] for e in endpoints], dtype=np.intp)
            dst = np.array([e[1] for e in endpoints], dtype=np.intp)
            nbytes = np.array([e[2] for e in endpoints], dtype=float)
            wire = nbytes * truth.inv_bandwidth[src, dst]
            base = truth.latency[src, dst] + wire
            return src, dst, nbytes, base, wire

        ends1 = [_transfer_endpoints(kind, rec) for kind, rec in ordered]
        src1, dst1, nbytes1, base1, wire1 = pass_arrays(ends1)
        gets = [rec for kind, rec in ordered if kind == "get"]
        ends2 = [_reply_endpoints(rec) for rec in gets]
        src2, dst2, nbytes2, base2, wire2 = pass_arrays(ends2)
        return _TransferPlan(
            src1=src1, dst1=dst1, base1=base1, wire1=wire1,
            node_src1=nodes[src1], remote1=nodes[src1] != nodes[dst1],
            is_get=np.array([kind == "get" for kind, _ in ordered]),
            src2=src2, dst2=dst2, base2=base2, wire2=wire2,
            node_src2=nodes[src2], remote2=nodes[src2] != nodes[dst2],
            messages=len(ordered) + len(gets),
            payload_total=int(nbytes1.sum()) + int(nbytes2.sum()),
        )

    def _transfer_plan(self):
        """The superstep's canonical records and (possibly cached) plan."""
        ordered, key = self._canonical_outbound()
        if not ordered:
            return None, ordered
        if self._plan_cache is None:
            return self._build_transfer_plan(ordered), ordered
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = self._build_transfer_plan(ordered)
            self._plan_cache[key] = plan
        return plan, ordered

    def _schedule_transfers(self, entries: np.ndarray, prov=None):
        """Scalar transfer scheduler, replaying the cached plan.

        Event semantics are unchanged from the pre-cache implementation:
        pass 1 processes messages in ``(commit_time, pid, sequence)``
        order — recovered here as a stable argsort of commit times over
        the canonical order, since commit times ascend with sequence
        within a process — and noise is drawn in that processing order,
        so noisy streams are bit-identical to the un-cached scheduler.

        ``prov`` (a :class:`SuperstepProvenance`) optionally captures the
        per-transfer event times and NIC predecessor links; capture reads
        the values this scheduler computes anyway and draws no noise.
        """
        truth = self.truth
        last_arrival = entries.copy()
        plan, ordered = self._transfer_plan()
        if plan is None:
            return last_arrival, 0, 0
        tx_free: dict[int, float] = {}
        capture = prov is not None
        tx_last: dict[int, int] = {}

        def ship(k, remote, node_src, wire, ready, transit, gid, cap):
            """Schedule canonical message ``k`` of one pass (pre-drawn
            noisy ``transit``); returns its arrival time.  ``gid`` is the
            superstep-global transfer id; ``cap`` the optional capture
            triple ``(wire_entry, tx_pred, transits)``."""
            if remote[k]:
                node = int(node_src[k])
                free = tx_free.get(node, 0.0)
                wire_entry = max(ready, free)
                tx_free[node] = wire_entry + truth.nic_gap + wire[k]
                if cap is not None:
                    cap[1][k] = tx_last.get(node, -1)
                    tx_last[node] = gid
            else:
                wire_entry = ready
            if cap is not None:
                cap[0][k] = wire_entry
                cap[2][k] = transit
            return wire_entry + transit + truth.recv_overhead

        # Pass 1: puts, hpputs, sends, and get request headers, in global
        # deterministic commit order.
        ready1 = np.array([rec.commit_time for _, rec in ordered])
        order1 = np.argsort(ready1, kind="stable")
        transits1 = self._noisy_transits(plan.base1[order1])
        request_arrival = np.empty(len(ordered))
        m1 = len(ordered)
        cap1 = (
            (np.empty(m1), np.full(m1, -1, dtype=np.intp), np.empty(m1))
            if capture else None
        )
        arrivals1 = np.empty(m1) if capture else None
        for pos in range(order1.size):
            k = int(order1[pos])
            arrival = ship(
                k, plan.remote1, plan.node_src1, plan.wire1,
                ready1[k], transits1[pos], k, cap1,
            )
            if capture:
                arrivals1[k] = arrival
            if plan.is_get[k]:  # request header: reply follows in pass 2
                request_arrival[k] = arrival
            else:
                d = int(plan.dst1[k])
                last_arrival[d] = max(last_arrival[d], arrival)
        if capture:
            prov.pass1 = TransferPassProvenance(
                src=plan.src1, dst=plan.dst1, remote=plan.remote1,
                node_src=plan.node_src1, wire_cost=plan.wire1,
                ready=np.atleast_2d(ready1),
                wire_entry=np.atleast_2d(cap1[0]),
                tx_pred=np.atleast_2d(cap1[1]),
                transits=np.atleast_2d(cap1[2]),
                arrivals=np.atleast_2d(arrivals1),
            )
            prov.is_get = plan.is_get

        # Pass 2: get replies leave once the owner has both received the
        # request and finished its superstep computation (§6.2: the value
        # transferred is the one at the end of the step); the NIC serves
        # replies in (request arrival, requester) order.
        if plan.src2.size:
            req = request_arrival[plan.is_get]
            ready2 = np.maximum(req, entries[plan.src2])
            order2 = np.array(
                sorted(range(req.size),
                       key=lambda m: (req[m], int(plan.dst2[m]))),
                dtype=np.intp,
            )
            transits2 = self._noisy_transits(plan.base2[order2])
            m2 = int(plan.src2.size)
            cap2 = (
                (np.empty(m2), np.full(m2, -1, dtype=np.intp), np.empty(m2))
                if capture else None
            )
            arrivals2 = np.empty(m2) if capture else None
            for pos in range(order2.size):
                m = int(order2[pos])
                arrival = ship(
                    m, plan.remote2, plan.node_src2, plan.wire2,
                    ready2[m], transits2[pos], m1 + m, cap2,
                )
                if capture:
                    arrivals2[m] = arrival
                d = int(plan.dst2[m])
                last_arrival[d] = max(last_arrival[d], arrival)
            if capture:
                prov.pass2 = TransferPassProvenance(
                    src=plan.src2, dst=plan.dst2, remote=plan.remote2,
                    node_src=plan.node_src2, wire_cost=plan.wire2,
                    ready=np.atleast_2d(ready2),
                    wire_entry=np.atleast_2d(cap2[0]),
                    tx_pred=np.atleast_2d(cap2[1]),
                    transits=np.atleast_2d(cap2[2]),
                    arrivals=np.atleast_2d(arrivals2),
                )
        return last_arrival, plan.messages, plan.payload_total

    def _schedule_transfers_batch(self, entries: np.ndarray, prov=None):
        """Replication-batched counterpart of :meth:`_schedule_transfers`.

        ``entries`` is ``(R, P)``; returns ``((R, P) last arrivals,
        messages, payload bytes)``.  Per replication the event semantics
        are exactly the scalar pass: messages are enumerated in the
        canonical ``(pid, sequence)`` commit order (replication-invariant,
        and the bulk draw order), while each transmit-NIC FIFO processes
        its replication's messages in commit-time order via a stable
        argsort — ties fall back to the canonical order, matching the
        scalar sort key ``(commit_time, pid, sequence)``.  On the clean
        path every replication is bit-identical to the scalar scheduler.

        ``prov`` (a :class:`SuperstepProvenance`) optionally captures the
        per-transfer event times and NIC predecessor links; capture reads
        the values this scheduler computes anyway and draws no noise.
        """
        truth = self.truth
        runs = self.runs
        last_arrival = entries.copy()
        # Canonical commit order: (pid, sequence).  Unlike the scalar
        # pass's (commit_time, pid, sequence) sort this is replication-
        # invariant; per-process sequences are commit-ordered already, so
        # a stable argsort by commit time recovers the scalar order
        # inside every replication.
        plan, ordered = self._transfer_plan()
        if plan is None:
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

        def draw_transits(base) -> np.ndarray:
            """One ``(R, M)`` bulk transit draw in canonical order."""
            if self._noise is None or base.size == 0:
                return np.broadcast_to(base, (runs, base.size))
            return self._noise.sample_matrix(self._sync_rng, base, runs)

        def ship_pass(src, dst, base, wire_all, node_src, remote_mask,
                      ready, order_key, base_gid):
            """FIFO-schedule one pass; returns ``(arrivals, transits,
            wire_entry, tx_pred)`` — the last two ``None`` unless
            capturing.

            ``order_key`` is the per-replication processing order of the
            shared transmit NICs (commit times in pass 1, request-header
            arrivals in pass 2, mirroring the scalar sort keys).
            """
            transits = draw_transits(base)
            arrivals = ready + transits + truth.recv_overhead
            wire_entries = txp = None
            if capture:
                wire_entries = np.array(ready, dtype=float, copy=True)
                txp = np.full(ready.shape, -1, dtype=np.intp)
            remote = np.flatnonzero(remote_mask)
            if remote.size:
                # Association matches the scalar ship() expression
                # (wire_entry + nic_gap) + nbytes * inv_bandwidth, so the
                # clean path is bit-identical.
                wire_cost = wire_all[remote]
                src_node = node_src[remote]
                order = np.argsort(order_key[:, remote], axis=1, kind="stable")
                for k in range(remote.size):
                    m = order[:, k]
                    g = remote[m]
                    wire_entry = np.maximum(
                        ready[rows, g], tx_free[rows, src_node[m]]
                    )
                    tx_free[rows, src_node[m]] = (
                        wire_entry + truth.nic_gap + wire_cost[m]
                    )
                    arrivals[rows, g] = (
                        wire_entry + transits[rows, g] + truth.recv_overhead
                    )
                    if capture:
                        wire_entries[rows, g] = wire_entry
                        txp[rows, g] = tx_last[rows, src_node[m]]
                        tx_last[rows, src_node[m]] = base_gid + g
            return arrivals, transits, wire_entries, txp

        def fold_arrivals(dst, arrivals, mask) -> None:
            """Max arrivals into ``last_arrival`` per destination (the
            scalar max chain is order-independent)."""
            for d in np.unique(dst[mask]):
                sel = mask & (dst == d)
                last_arrival[:, d] = np.maximum(
                    last_arrival[:, d], arrivals[:, sel].max(axis=1)
                )

        ready1 = np.stack(
            [np.asarray(rec.commit_time, dtype=float) for _, rec in ordered],
            axis=-1,
        )
        arrivals1, transits1, we1, txp1 = ship_pass(
            plan.src1, plan.dst1, plan.base1, plan.wire1, plan.node_src1,
            plan.remote1, ready1, order_key=ready1, base_gid=0,
        )
        fold_arrivals(plan.dst1, arrivals1, ~plan.is_get)
        if capture:
            prov.pass1 = TransferPassProvenance(
                src=plan.src1, dst=plan.dst1, remote=plan.remote1,
                node_src=plan.node_src1, wire_cost=plan.wire1,
                ready=ready1, wire_entry=we1, tx_pred=txp1,
                transits=np.array(transits1, dtype=float, copy=True),
                arrivals=arrivals1,
            )
            prov.is_get = plan.is_get

        if plan.src2.size:
            # Pass 2: replies leave once the owner has both received the
            # request header and finished its superstep computation; the
            # owner's NIC serves replies in request-arrival order.
            request_arrivals = arrivals1[:, plan.is_get]
            ready2 = np.maximum(request_arrivals, entries[:, plan.src2])
            arrivals2, transits2, we2, txp2 = ship_pass(
                plan.src2, plan.dst2, plan.base2, plan.wire2, plan.node_src2,
                plan.remote2, ready2, order_key=request_arrivals,
                base_gid=int(plan.src1.size),
            )
            fold_arrivals(
                plan.dst2, arrivals2, np.ones(plan.src2.size, dtype=bool)
            )
            if capture:
                prov.pass2 = TransferPassProvenance(
                    src=plan.src2, dst=plan.dst2, remote=plan.remote2,
                    node_src=plan.node_src2, wire_cost=plan.wire2,
                    ready=ready2, wire_entry=we2, tx_pred=txp2,
                    transits=np.array(transits2, dtype=float, copy=True),
                    arrivals=arrivals2,
                )
        return last_arrival, plan.messages, plan.payload_total

    # ------------------------------------------------------- data movement

    def _apply_data(self) -> None:
        # Gets first: they read source values from the end of the computing
        # phase, before any put lands (BSPlib ordering).
        get_values = []
        for state in self.states:
            for rec in sorted(state.gets, key=lambda r: r.header.sequence):
                source = self.states[rec.target_pid].regs.array_at(
                    rec.header.reg_index
                )
                length = rec.dest_array[
                    rec.dest_offset : rec.dest_offset + rec.header.length
                ].shape[0]
                start = rec.header.offset
                value = source[start : start + length].copy()
                get_values.append((rec, value))

        for state in self.states:
            for rec in sorted(state.puts, key=lambda r: r.header.sequence):
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
        deliveries = []
        for state in self.states:
            for rec in state.sends:
                deliveries.append(rec)
        deliveries.sort(key=lambda r: (r.header.source_pid, r.header.sequence))
        for rec in deliveries:
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
        cost = self.op_overhead + self.truth.invocation_overhead
        if dest_pid is not None and dest_pid != state.pid:
            cost += float(self.truth.start_overhead[state.pid, dest_pid])
        return state.clock.advance(cost)


def bsp_run(
    machine: SimMachine,
    nprocs: int,
    program,
    *args,
    placement_policy: str = "round_robin",
    op_overhead: float = 1.5e-6,
    label: str = "bsp-run",
    noisy: bool = True,
    runs: int | None = None,
    plan_cache: bool = True,
    provenance: bool = False,
    **kwargs,
) -> BSPRunResult:
    """Convenience entry point: build a runtime and execute ``program``.

    ``runs=R`` executes all ``R`` noisy replications in one batched pass
    (see the module docstring); the returned result then carries
    ``(R, ...)`` time arrays and a per-replication ``run_seconds`` view.
    ``plan_cache=False`` disables the per-superstep transfer-plan cache
    (results are bit-identical either way; the flag exists for
    benchmarking the cache itself).  ``provenance=True`` records event
    provenance (:mod:`repro.obs.provenance`) on the result for
    critical-path extraction; recording draws no randomness and leaves
    every clock bit-identical.
    """
    runtime = BSPRuntime(
        machine,
        nprocs,
        placement_policy=placement_policy,
        op_overhead=op_overhead,
        label=label,
        noisy=noisy,
        runs=runs,
        plan_cache=plan_cache,
        provenance=provenance,
    )
    return runtime.run(program, *args, **kwargs)
