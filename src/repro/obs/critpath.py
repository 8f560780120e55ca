"""Critical-path extraction over recorded event provenance.

:mod:`repro.obs.provenance` records, per replication, every event time
the engines computed plus the FIFO predecessor links.  This module
rebuilds the full event DAG from those records and walks it backward
from the makespan event, producing the longest (critical) path with
per-hop category blame, plus per-node and per-resource slack.

Exactness model
---------------
The graph has exactly two node kinds:

* **ADD** nodes — one predecessor; the node's time is either captured
  verbatim from the simulation or recomputed with the *identical*
  floating-point expression the engine evaluated (same operands, same
  association), so it is bit-equal to what the engine used.
* **MAX** nodes — several predecessors; the node's time is the maximum
  of its predecessors' times.  The *binding* predecessor is the first
  whose time equals the node's time as an exact float comparison.  A MAX
  node is a pure redirection: it passes time through unchanged and emits
  no hop, so consecutive hops on the walked path always satisfy
  ``hops[i].t1 == hops[i + 1].t0`` as exact float equality.

Hop durations, attribution sums, and slacks are computed in
:class:`fractions.Fraction` (every float is exactly representable), so
the telescoping sum of hop durations along the path equals
``Fraction(makespan)`` *exactly* — no epsilon anywhere.  Any float-level
inconsistency found while building (a captured MAX time matching none of
its predecessors, a recomputed ADD disagreeing with a captured check
value) is recorded in ``EventGraph.inexact`` instead of being papered
over; validation surfaces it.

Categories
----------
``entry`` (skewed arrival at the pattern), ``compute`` (BSP local work
and op overheads), ``send_overhead`` (invocation + per-request start
overheads), ``nic_queueing`` (NIC FIFO gap/occupancy charges),
``wire`` (transit; acknowledgement latency carries ``detail="ack"``),
``receive`` (receive/consumption overheads), and ``sync_wait`` (every
hop inside a BSP dissemination sync, mechanical category preserved in
``detail``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from repro.obs.provenance import (
    BSPProvenance,
    EngineProvenance,
    rep_row,
)

ORIGIN = ("origin",)
END = ("end",)

CATEGORIES = (
    "entry",
    "compute",
    "send_overhead",
    "nic_queueing",
    "wire",
    "receive",
    "sync_wait",
)


def node_id(node: tuple) -> str:
    """Stable, replication-independent string id for a graph node."""
    return ".".join(str(part) for part in node)


@dataclass(frozen=True)
class Hop:
    """One ADD edge on a walked critical path (forward orientation)."""

    src: tuple
    dst: tuple
    t0: float
    t1: float
    category: str
    process: int
    scope: str
    detail: str | None = None

    @property
    def duration(self) -> Fraction:
        """Exact duration; telescopes exactly over a connected path."""
        return Fraction(self.t1) - Fraction(self.t0)

    @property
    def edge_id(self) -> str:
        """Structural edge identity, stable across replications."""
        return f"{node_id(self.src)}->{node_id(self.dst)}"


@dataclass
class CriticalPath:
    """The longest event chain of one replication, origin to makespan."""

    replication: int
    makespan: float
    hops: list[Hop]

    def category_totals(self) -> dict[str, Fraction]:
        totals: dict[str, Fraction] = {}
        for hop in self.hops:
            totals[hop.category] = (
                totals.get(hop.category, Fraction(0)) + hop.duration
            )
        return totals

    def process_totals(self) -> dict[int, Fraction]:
        totals: dict[int, Fraction] = {}
        for hop in self.hops:
            totals[hop.process] = (
                totals.get(hop.process, Fraction(0)) + hop.duration
            )
        return totals

    def scope_totals(self) -> dict[str, Fraction]:
        """Per-stage / per-superstep totals along the path."""
        totals: dict[str, Fraction] = {}
        for hop in self.hops:
            totals[hop.scope] = (
                totals.get(hop.scope, Fraction(0)) + hop.duration
            )
        return totals


@dataclass
class EventGraph:
    """Event DAG with exact times; see the module docstring."""

    times: dict = field(default_factory=dict)
    entries: dict = field(default_factory=dict)
    resources: dict = field(default_factory=dict)
    inexact: list = field(default_factory=list)

    # -- construction -------------------------------------------------
    def source(self, node: tuple, time: float) -> tuple:
        self.times[node] = float(time)
        self.entries[node] = ("source",)
        return node

    def add(
        self,
        node: tuple,
        time: float,
        pred: tuple,
        category: str,
        process: int,
        scope: str,
        detail: str | None = None,
        resource: str | None = None,
        check: float | None = None,
    ) -> tuple:
        """Register an ADD node at a captured/recomputed ``time``.

        ``check`` optionally cross-checks ``time`` against a second
        captured value; a mismatch is recorded as inexact (and the
        checked value wins, since it is what downstream events saw).
        """
        if check is not None and check != time:
            self.inexact.append(
                f"add {node_id(node)}: recomputed {time!r} != captured"
                f" {check!r}"
            )
            time = check
        if time < self.times[pred]:
            self.inexact.append(
                f"add {node_id(node)}: time {time!r} precedes predecessor"
                f" {node_id(pred)} at {self.times[pred]!r}"
            )
        self.times[node] = float(time)
        self.entries[node] = (
            "add", pred, (category, int(process), scope, detail),
        )
        if resource is not None:
            self.resources[node] = resource
        return node

    def maxi(
        self,
        node: tuple,
        preds,
        time: float | None = None,
        resource: str | None = None,
    ) -> tuple:
        """Register a MAX node; binding = first pred matching its time.

        With ``time=None`` the node's time is computed as the maximum of
        the predecessors' times — valid whenever the engine evaluated
        exactly that maximum of exactly those floats.  With a captured
        ``time``, a predecessor must match bit-exactly; otherwise the
        mismatch is recorded and the largest predecessor binds.
        """
        preds = tuple(preds)
        if not preds:
            raise ValueError(f"max node {node_id(node)} needs predecessors")
        pred_times = [self.times[q] for q in preds]
        computed = max(pred_times)
        if time is None:
            time = computed
        binding = None
        for q, qt in zip(preds, pred_times):
            if qt == time:
                binding = q
                break
        if binding is None:
            self.inexact.append(
                f"max {node_id(node)}: captured {time!r} matches no"
                f" predecessor (max of preds is {computed!r})"
            )
            binding = preds[int(np.argmax(pred_times))]
        self.times[node] = float(time)
        self.entries[node] = ("max", preds, binding)
        if resource is not None:
            self.resources[node] = resource
        return node

    # -- extraction ---------------------------------------------------
    def walk(self) -> list[Hop]:
        """Backward walk from ``END`` to a source, forward-ordered hops.

        MAX nodes redirect through their binding predecessor and emit
        nothing; every ADD traversed emits one :class:`Hop`.
        """
        hops: list[Hop] = []
        node = END
        guard = len(self.entries) + 1
        while guard:
            guard -= 1
            entry = self.entries[node]
            if entry[0] == "source":
                break
            if entry[0] == "max":
                node = entry[2]
                continue
            _, pred, (category, process, scope, detail) = entry
            hops.append(
                Hop(
                    src=pred,
                    dst=node,
                    t0=self.times[pred],
                    t1=self.times[node],
                    category=category,
                    process=process,
                    scope=scope,
                    detail=detail,
                )
            )
            node = pred
        else:
            raise RuntimeError("event graph walk did not terminate")
        hops.reverse()
        return hops

    def critical_path(self, replication: int = 0) -> CriticalPath:
        return CriticalPath(
            replication=int(replication),
            makespan=self.times[END],
            hops=self.walk(),
        )

    # -- slack --------------------------------------------------------
    def _successors(self) -> dict:
        succ: dict = {node: [] for node in self.entries}
        for node, entry in self.entries.items():
            if entry[0] == "add":
                succ[entry[1]].append(node)
            elif entry[0] == "max":
                for q in entry[1]:
                    succ[q].append(node)
        return succ

    def _reverse_topological(self, succ: dict) -> list:
        # Kahn over the successor relation: insertion order is *not*
        # topological (a NIC predecessor can carry a later index), so an
        # explicit indegree pass is required.
        indeg = {node: 0 for node in self.entries}
        for node, entry in self.entries.items():
            if entry[0] == "add":
                indeg[node] = 1
            elif entry[0] == "max":
                indeg[node] = len(entry[1])
        ready = [node for node, d in indeg.items() if d == 0]
        topo: list = []
        while ready:
            node = ready.pop()
            topo.append(node)
            for v in succ[node]:
                indeg[v] -= 1
                if not indeg[v]:
                    ready.append(v)
        if len(topo) != len(self.entries):
            raise RuntimeError("event graph has a cycle")
        topo.reverse()
        return topo

    def node_slacks(self) -> dict:
        """Exact slack per node: how much later it could occur without
        moving ``END``.  ``None`` marks nodes that do not constrain
        ``END`` at all (e.g. the last event on an otherwise idle NIC);
        critical nodes have slack exactly 0.
        """
        succ = self._successors()
        latest: dict = {END: Fraction(self.times[END])}
        for node in self._reverse_topological(succ):
            if node == END:
                continue
            bound = None
            for v in succ[node]:
                lv = latest.get(v)
                if lv is None:
                    continue
                entry = self.entries[v]
                if entry[0] == "add":
                    dur = Fraction(self.times[v]) - Fraction(self.times[node])
                    cand = lv - dur
                else:
                    cand = lv
                if bound is None or cand < bound:
                    bound = cand
            latest[node] = bound
        return {
            node: (
                None
                if latest.get(node) is None
                else latest[node] - Fraction(self.times[node])
            )
            for node in self.entries
        }

    def resource_slacks(self) -> dict:
        """Exact slack per tagged resource: the largest uniform delay any
        single event on that resource tolerates before ``END`` moves.
        """
        slacks = self.node_slacks()
        out: dict = {}
        for node, resource in self.resources.items():
            s = slacks.get(node)
            if s is None:
                continue
            cur = out.get(resource)
            if cur is None or s < cur:
                out[resource] = s
        return out


def validate_path(path: CriticalPath):
    """Structural + exactness checks; returns a list of problem strings.

    Empty list == the path is a connected, time-monotone event chain
    whose hop durations telescope exactly to the makespan measured from
    the path origin (time 0 for both engines).
    """
    problems: list[str] = []
    hops = path.hops
    if not hops:
        if path.makespan != 0.0:
            problems.append("empty path with nonzero makespan")
        return problems
    if hops[0].t0 != 0.0:
        problems.append(f"path origin at {hops[0].t0!r}, expected 0.0")
    for i, hop in enumerate(hops):
        if hop.t1 < hop.t0:
            problems.append(f"hop {i} ({hop.edge_id}) not time-monotone")
        if hop.category not in CATEGORIES:
            problems.append(f"hop {i} has unknown category {hop.category!r}")
        if i and hops[i - 1].t1 != hop.t0:
            problems.append(
                f"hop {i} disconnected: starts at {hop.t0!r}, previous"
                f" ended at {hops[i - 1].t1!r}"
            )
    if hops[-1].t1 != path.makespan:
        problems.append("path does not end at the makespan event")
    total = sum((h.duration for h in hops), Fraction(0))
    expected = Fraction(path.makespan) - Fraction(hops[0].t0)
    if total != expected:
        problems.append(
            f"hop durations sum to {float(total)!r}, makespan is"
            f" {path.makespan!r}"
        )
    return problems


# ---------------------------------------------------------------------
# Engine graph
# ---------------------------------------------------------------------


def _add_engine_stages(
    g: EventGraph,
    prov: EngineProvenance,
    r: int,
    cur: dict,
    ns: tuple = (),
    wrap=None,
    scope_of=None,
):
    """Add every stage of an engine provenance record to ``g``.

    ``cur`` maps pid -> its latest event node and is updated in place;
    ``ns`` prefixes node ids (used to embed sync subgraphs);
    ``wrap`` maps mechanical hop categories (e.g. everything ->
    ``sync_wait``); ``scope_of`` maps a stage index to a scope label.
    """
    if wrap is None:
        def wrap(category):  # noqa: E731 - trivial default
            return category
    if scope_of is None:
        def scope_of(stage):
            return f"stage:{stage}"

    def n(*parts):
        return ns + parts

    gap = prov.nic_gap
    for sp in prov.stages:
        s = sp.stage
        scope = scope_of(s)
        after_inv = rep_row(sp.after_inv, r)
        departs = rep_row(sp.departs, r)
        we = rep_row(sp.wire_entry, r)
        txp = rep_row(sp.tx_pred, r)
        arr = rep_row(sp.arrivals, r)
        dlv = rep_row(sp.deliver, r)
        rxp = rep_row(sp.rx_pred, r)
        hdl = rep_row(sp.handles, r)
        rcvp = rep_row(sp.recv_pred, r)
        acks = rep_row(sp.acks, r)
        exits = rep_row(sp.exit, r)
        sender_set = set(int(x) for x in sp.senders)
        offsets = sp.offsets

        # Busy-end node per participant: a sender's initiation ends at
        # its last departure (the engine's cumsum makes them the same
        # float element); a pure receiver's at its invocation end.
        def be_node(pid):
            if pid in sender_set:
                si = int(np.searchsorted(sp.senders, pid))
                return n("dep", s, int(offsets[si + 1]) - 1)
            return n("ainv", s, pid)

        for i, pid in enumerate(sp.participants):
            pid = int(pid)
            g.add(
                n("ainv", s, pid), after_inv[i], cur[pid],
                wrap("send_overhead"), pid, scope, detail="invocation",
                resource=f"proc:{pid}",
            )
        n_msg = sp.messages
        for m in range(n_msg):
            src_pid = int(sp.src[m])
            si = int(sp.sender_of_msg[m])
            pred = (
                n("ainv", s, src_pid)
                if m == int(offsets[si])
                else n("dep", s, m - 1)
            )
            g.add(
                n("dep", s, m), departs[m], pred,
                wrap("send_overhead"), src_pid, scope,
                detail=f"start {src_pid}->{int(sp.dst[m])}",
                resource=f"proc:{src_pid}",
            )
        # Transmit NICs and wire transits.  Messages are registered in
        # canonical order; a NIC predecessor always has an earlier
        # canonical index only per sender, not globally, so remote nodes
        # are registered via a worklist that waits for predecessors.
        pending = list(range(n_msg))
        done: set = set()
        while pending:
            rest = []
            for m in pending:
                src_pid = int(sp.src[m])
                dst_pid = int(sp.dst[m])
                link = f"wire:{int(sp.src_nodes[m])}->{int(sp.dst_nodes[m])}"
                if sp.msg_remote[m]:
                    tp = int(txp[m])
                    if tp >= 0 and tp not in done:
                        rest.append(m)
                        continue
                    nic = f"nic_tx:{int(sp.src_nodes[m])}"
                    preds = [n("dep", s, m)]
                    if tp >= 0:
                        preds.append(n("txfree", s, tp))
                    g.maxi(n("txq", s, m), preds, time=we[m], resource=nic)
                    g.add(
                        n("txfree", s, m), we[m] + gap, n("txq", s, m),
                        wrap("nic_queueing"), src_pid, scope,
                        detail="tx gap", resource=nic,
                    )
                    base = n("txq", s, m)
                else:
                    base = n("dep", s, m)
                g.add(
                    n("arr", s, m), arr[m], base,
                    wrap("wire"), dst_pid, scope,
                    detail=f"transit {src_pid}->{dst_pid}", resource=link,
                )
                done.add(m)
            if len(rest) == len(pending):
                raise RuntimeError("tx predecessor links form a cycle")
            pending = rest
        # Receive NICs, consumption, acknowledgements — same worklist
        # treatment for the receive-NIC FIFO chains; the consumption
        # chain (recv_pred) additionally orders handles per receiver.
        pending = list(range(n_msg))
        done = set()
        while pending:
            rest = []
            for m in pending:
                src_pid = int(sp.src[m])
                dst_pid = int(sp.dst[m])
                pc = int(rcvp[m])
                if pc >= 0 and pc not in done:
                    rest.append(m)
                    continue
                if sp.msg_remote[m]:
                    rp = int(rxp[m])
                    if rp >= 0 and rp not in done:
                        rest.append(m)
                        continue
                    nic = f"nic_rx:{int(sp.dst_nodes[m])}"
                    preds = [n("arr", s, m)]
                    if rp >= 0:
                        preds.append(n("rxfree", s, rp))
                    g.maxi(n("rxq", s, m), preds, time=dlv[m], resource=nic)
                    g.add(
                        n("rxfree", s, m), dlv[m] + gap, n("rxq", s, m),
                        wrap("nic_queueing"), dst_pid, scope,
                        detail="rx gap", resource=nic,
                    )
                    ready = n("rxq", s, m)
                else:
                    ready = n("arr", s, m)
                prev = n("hdl", s, pc) if pc >= 0 else be_node(dst_pid)
                g.maxi(n("hstart", s, m), (ready, prev))
                g.add(
                    n("hdl", s, m), hdl[m], n("hstart", s, m),
                    wrap("receive"), dst_pid, scope,
                    detail=f"consume {src_pid}->{dst_pid}",
                    resource=f"proc:{dst_pid}",
                )
                g.add(
                    n("ack", s, m), acks[m], n("hdl", s, m),
                    wrap("wire"), src_pid, scope, detail="ack",
                    resource=f"wire:{int(sp.dst_nodes[m])}"
                             f"->{int(sp.src_nodes[m])}",
                )
                done.add(m)
            if len(rest) == len(pending):
                raise RuntimeError("consumption links form a cycle")
            pending = rest
        # Waitall exits.
        for pid in sp.participants:
            pid = int(pid)
            preds = [be_node(pid)]
            if pid in sender_set:
                si = int(np.searchsorted(sp.senders, pid))
                preds.extend(
                    n("ack", s, m)
                    for m in range(int(offsets[si]), int(offsets[si + 1]))
                )
            preds.extend(
                n("hdl", s, m)
                for m in range(n_msg)
                if int(sp.dst[m]) == pid
            )
            g.maxi(
                n("pexit", s, pid), preds, time=exits[pid],
                resource=f"proc:{pid}",
            )
            cur[pid] = n("pexit", s, pid)
    return cur


def engine_event_graph(prov: EngineProvenance, r: int = 0) -> EventGraph:
    """Event graph of replication ``r`` of an engine provenance record."""
    g = EventGraph()
    g.source(ORIGIN, 0.0)
    entry = rep_row(prov.initial_entry, r)
    cur = {}
    for pid in range(prov.nprocs):
        cur[pid] = g.add(
            ("entry", pid), entry[pid], ORIGIN, "entry", pid, "entry",
            resource=f"proc:{pid}",
        )
    _add_engine_stages(g, prov, r, cur)
    g.maxi(END, tuple(cur.values()))
    return g


# ---------------------------------------------------------------------
# BSP graph
# ---------------------------------------------------------------------


def _add_transfer_pass(
    g: EventGraph,
    prov: BSPProvenance,
    tp,
    r: int,
    ss: int,
    base_gid: int,
    gid_nodes: dict,
    ready_nodes,
    scope: str,
):
    """Register one transfer pass; ``ready_nodes[m]`` is the node the
    transfer waits on before touching the NIC.  Fills ``gid_nodes``
    (global transfer id -> its barr/bfree nodes) and returns the list of
    arrival nodes in pass order.
    """
    gap = prov.nic_gap
    ro = prov.recv_overhead
    ready = rep_row(tp.ready, r)
    we = rep_row(tp.wire_entry, r)
    txp = rep_row(tp.tx_pred, r)
    transits = rep_row(tp.transits, r)
    arrivals = rep_row(tp.arrivals, r)
    n_msg = int(tp.src.size)
    arr_nodes = [None] * n_msg
    pending = list(range(n_msg))
    while pending:
        rest = []
        for m in pending:
            gid = base_gid + m
            src_pid = int(tp.src[m])
            dst_pid = int(tp.dst[m])
            if tp.remote[m]:
                tg = int(txp[m])
                if tg >= 0 and ("bfree", tg) not in gid_nodes:
                    rest.append(m)
                    continue
                nic = f"nic_tx:{int(tp.node_src[m])}"
                preds = [ready_nodes[m]]
                if tg >= 0:
                    preds.append(gid_nodes[("bfree", tg)])
                bwe = g.maxi(
                    ("bwe", ss, gid), preds, time=we[m], resource=nic,
                )
                gid_nodes[("bfree", gid)] = g.add(
                    ("bfree", ss, gid),
                    we[m] + gap + float(tp.wire_cost[m]),
                    bwe, "nic_queueing", src_pid, scope,
                    detail="nic occupancy", resource=nic,
                )
                base, base_t = bwe, we[m]
            else:
                base, base_t = ready_nodes[m], ready[m]
            bwx = g.add(
                ("bwx", ss, gid), base_t + transits[m], base,
                "wire", dst_pid, scope,
                detail=f"transit {src_pid}->{dst_pid}",
                resource=f"wire:{src_pid}->{dst_pid}",
            )
            arr_nodes[m] = g.add(
                ("barr", ss, gid), (base_t + transits[m]) + ro, bwx,
                "receive", dst_pid, scope, detail="recv overhead",
                resource=f"proc:{dst_pid}", check=arrivals[m],
            )
            gid_nodes[("barr", gid)] = arr_nodes[m]
        if len(rest) == len(pending):
            raise RuntimeError("BSP tx predecessor links form a cycle")
        pending = rest
    return arr_nodes


def bsp_event_graph(prov: BSPProvenance, r: int = 0) -> EventGraph:
    """Event graph of replication ``r`` of a BSP provenance record."""
    g = EventGraph()
    g.source(ORIGIN, 0.0)
    p = prov.nprocs
    cur = {
        pid: g.add(
            ("bstart", pid), 0.0, ORIGIN, "entry", pid, "entry",
            resource=f"proc:{pid}",
        )
        for pid in range(p)
    }
    for sp in prov.supersteps:
        ss = sp.index
        scope = f"superstep:{ss}"
        entries = rep_row(sp.entries, r)
        # Local compute: per-pid chains prev exit -> commits -> sync
        # entry.  Canonical transfer order is (pid, sequence), so each
        # pid's commits are contiguous with nondecreasing clock times.
        last = dict(cur)
        commit_of_msg: list = []
        if sp.pass1 is not None:
            ready1 = rep_row(sp.pass1.ready, r)
            for k in range(int(sp.pass1.src.size)):
                pid = int(sp.pass1.src[k])
                node = g.add(
                    ("commit", ss, k), ready1[k], last[pid],
                    "compute", pid, scope, detail="op commit",
                    resource=f"proc:{pid}",
                )
                last[pid] = node
                commit_of_msg.append(node)
        sentry = {
            pid: g.add(
                ("sentry", ss, pid), entries[pid], last[pid],
                "compute", pid, scope, detail="local compute",
                resource=f"proc:{pid}",
            )
            for pid in range(p)
        }
        gid_nodes: dict = {}
        arrivals_by_dst: dict = {pid: [] for pid in range(p)}
        m1 = int(sp.pass1.src.size) if sp.pass1 is not None else 0
        if sp.pass1 is not None:
            arr1 = _add_transfer_pass(
                g, prov, sp.pass1, r, ss, 0, gid_nodes,
                commit_of_msg, scope,
            )
            for m in range(m1):
                if sp.is_get is None or not sp.is_get[m]:
                    arrivals_by_dst[int(sp.pass1.dst[m])].append(arr1[m])
        if sp.pass2 is not None:
            # Get replies: ready when the request header has arrived at
            # the target *and* the target entered the sync (reached its
            # memory), matching the runtime's max(request, entries[src]).
            k_gets = np.flatnonzero(sp.is_get)
            ready2 = rep_row(sp.pass2.ready, r)
            ready_nodes2 = []
            for m in range(int(sp.pass2.src.size)):
                src2 = int(sp.pass2.src[m])
                req = gid_nodes[("barr", int(k_gets[m]))]
                ready_nodes2.append(
                    g.maxi(
                        ("brdy", ss, m1 + m), (req, sentry[src2]),
                        time=ready2[m],
                    )
                )
            arr2 = _add_transfer_pass(
                g, prov, sp.pass2, r, ss, m1, gid_nodes,
                ready_nodes2, scope,
            )
            for m in range(int(sp.pass2.src.size)):
                arrivals_by_dst[int(sp.pass2.dst[m])].append(arr2[m])
        # Dissemination sync as an embedded engine subgraph, every hop
        # categorised sync_wait (mechanical category kept in detail).
        if sp.sync is not None:
            sync_cur = dict(sentry)
            _add_engine_stages(
                g, sp.sync, r, sync_cur, ns=("sync", ss),
                wrap=lambda category: "sync_wait",
                scope_of=lambda stage: f"superstep:{ss}/sync",
            )
        else:
            sync_cur = sentry
        exits = rep_row(sp.exits, r)
        for pid in range(p):
            preds = [sync_cur[pid]] + arrivals_by_dst[pid]
            cur[pid] = g.maxi(
                ("bexit", ss, pid), preds, time=exits[pid],
                resource=f"proc:{pid}",
            )
    final = rep_row(prov.final_times, r)
    finals = [
        g.add(
            ("final", pid), final[pid], cur[pid], "compute", pid,
            "final", detail="trailing compute", resource=f"proc:{pid}",
        )
        for pid in range(p)
    ]
    g.maxi(END, finals)
    return g


# ---------------------------------------------------------------------
# Batched extraction
# ---------------------------------------------------------------------


def _graph_builder(prov):
    if isinstance(prov, EngineProvenance):
        return engine_event_graph
    if isinstance(prov, BSPProvenance):
        return bsp_event_graph
    raise TypeError(f"unsupported provenance record {type(prov).__name__}")


def extract_paths(prov) -> list[CriticalPath]:
    """Critical paths of every replication of a provenance record."""
    build = _graph_builder(prov)
    return [build(prov, r).critical_path(r) for r in range(int(prov.runs))]


def event_graph(prov, r: int = 0) -> EventGraph:
    """Event graph of one replication of any provenance record."""
    return _graph_builder(prov)(prov, r)
