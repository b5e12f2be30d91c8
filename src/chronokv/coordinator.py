"""Transaction coordination and commit recording.

A coordinator runs transactions for co-located clients: it takes one
timestamp up front (which doubles as the read snapshot and the commit
timestamp), executes reads one at a time against the data nodes and
each run of consecutive writes concurrently, then — after the commit
wait tied to that timestamp has elapsed on its local clock — asks the
transaction's recorder for a single durable decision. The recorder is
the data node that received the lead write of the transaction's first
write run; its answer is the commit point. A run sends one write per
distinct key, carrying that key's last value, so no two writes of one
transaction to one key are ever in flight together. Everything after
(finalize messages installing or discarding intents) is asynchronous
cleanup that readers can force at any time by pushing the recorder.

Recorders also guarantee progress for everyone else's transactions: they
watch coordinator heartbeats and durably abort the in-progress records of
coordinators that have gone quiet, answering any readers parked on them.
Losing a role is discovered the hard way — a durable append bounces with
a fence — after which the old recorder redirects traffic to the successor
named by the membership register.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import OracleUnavailable
from .messages import (
    ABORT,
    ABORTED,
    COMMIT,
    COMMITTED,
    DecideReq,
    DecideResp,
    FinalizeReq,
    Heartbeat,
    IN_PROGRESS,
    NotOwner,
    PushResp,
    RecordCreate,
    RecordCreated,
    ReadReq,
    WriteReq,
)
from .replication import RecordEntry, recorder_role
from .simnet import MS, RPC_TIMEOUT, Future, Node
from .tsbatch import Timestamp, TsProxy

DEFAULT_HB_INTERVAL_NS = 100 * MS
DEFAULT_HB_TIMEOUT_NS = 500 * MS


@dataclass(slots=True)
class TxnRecord:
    status: str
    epoch: Optional[int]
    coordinator: str


class _RoleState:
    __slots__ = ("records", "pending", "deciding")

    def __init__(self, records=None):
        self.records: dict[str, TxnRecord] = records or {}
        # txn -> [(envelope, arrived_local_ns)] readers parked until a decision
        self.pending: dict[str, list] = {}
        # txn -> Future guarding a decision append already in flight
        self.deciding: dict[str, Future] = {}


class RecorderState:
    """The recorder component hosted by a data node. May own several roles
    (its own from birth, others adopted through takeover)."""

    def __init__(self, node, hb_timeout_local_ns: int = DEFAULT_HB_TIMEOUT_NS,
                 sweep_interval_ns: int = 100 * MS):
        self.node = node
        self.hb_timeout = hb_timeout_local_ns
        self.sweep_interval = sweep_interval_ns
        self.roles: dict[str, _RoleState] = {}
        self.adopting: dict[str, list] = {}  # role -> envelopes held during adoption
        self.last_heard: dict[str, int] = {}
        self._grace = node.k.local_now()

    def start(self) -> None:
        self._grace = self.node.k.local_now()
        self.node.k.spawn(self._sweep_loop())

    def claim_initial(self, role: str) -> None:
        self.roles[role] = _RoleState()

    def owns(self, role: str) -> bool:
        return role in self.roles

    # -- liveness of coordinators -------------------------------------------

    def on_heartbeat(self, coordinator: str) -> None:
        self.last_heard[coordinator] = self.node.k.local_now()

    def _coordinator_stale(self, coordinator: str) -> bool:
        heard = self.last_heard.get(coordinator, self._grace)
        return self.node.k.local_now() - heard > self.hb_timeout

    # -- wire entry points ----------------------------------------------------

    def _owned(self, env, role: str) -> Optional[_RoleState]:
        """The state of ``role`` if this recorder owns it. Otherwise the
        request in ``env`` is held while the role is being adopted, or
        refused with NotOwner."""
        rs = self.roles.get(role)
        if rs is None:
            if role in self.adopting:
                self.adopting[role].append(env)
            else:
                self.node.k.reply(env, NotOwner(role))
        return rs

    def handle_decide(self, env, req: DecideReq) -> None:
        if self._owned(env, req.role) is None:
            return
        self.node.k.spawn(self._decide_task(req.role, req.txn, req.decision,
                                            req.proposals, req.coordinator, env))

    def handle_push(self, env, req) -> None:
        rs = self._owned(env, req.role)
        if rs is None:
            return
        rec = rs.records.get(req.txn)
        if rec is not None and rec.status != IN_PROGRESS:
            decision = COMMIT if rec.status == COMMITTED else ABORT
            self.node.k.reply(env, PushResp(req.txn, decision, rec.epoch))
            return
        rs.pending.setdefault(req.txn, []).append((env, self.node.k.local_now()))

    def handle_record_create(self, env, req: RecordCreate) -> None:
        if self._owned(env, req.role) is None:
            return

        def task():
            ok = yield from self.create_in_progress(req.role, req.txn, req.coordinator)
            self.node.k.reply(env, RecordCreated(ok) if ok else NotOwner(req.role))

        self.node.k.spawn(task())

    # -- record creation -------------------------------------------------------

    def create_in_progress(self, role: str, txn: str, coordinator: str):
        """Generator -> bool. Durably registers the transaction before the
        lead write of its first write run acks, so pushes have something
        to park on. Writes sent alongside the lead may ack first; a push
        that arrives before the record parks all the same, until the
        decision."""
        rs = self.roles.get(role)
        if rs is None:
            return False
        if txn in rs.records:
            return True
        rs.records[txn] = TxnRecord(IN_PROGRESS, None, coordinator)
        res = yield self.node.storage.append(
            role, [RecordEntry(txn, IN_PROGRESS, None, coordinator)],
            writer=self.node.node_id, role=role,
        )
        if res[0] != "ok":
            self._fence_lost(role)
            return False
        self.node.ship_stream(role, res[1], [RecordEntry(txn, IN_PROGRESS, None, coordinator)])
        return True

    # -- deciding ----------------------------------------------------------------

    def _decide_task(self, role, txn, decision, proposals, coordinator, env):
        resp = yield from self._decide_core(role, txn, decision, proposals, coordinator)
        if env is not None:
            self.node.k.reply(env, resp)

    def _decide_core(self, role, txn, decision, proposals, coordinator):
        """Generator -> DecideResp | NotOwner. At most one durable decision
        per transaction; every later call answers from the record."""
        rs = self.roles.get(role)
        if rs is None:
            return NotOwner(role)
        rec = rs.records.get(txn)
        if rec is not None and rec.status != IN_PROGRESS:
            return DecideResp(rec.status, rec.epoch)
        inflight = rs.deciding.get(txn)
        if inflight is not None:
            yield inflight
            rs2 = self.roles.get(role)
            if rs2 is None:
                return NotOwner(role)
            rec = rs2.records.get(txn)
            if rec is None or rec.status == IN_PROGRESS:
                return NotOwner(role)
            return DecideResp(rec.status, rec.epoch)

        gate = Future(self.node.sim)
        rs.deciding[txn] = gate
        if decision == COMMIT:
            from .epochs import assign_commit_epoch

            epoch = assign_commit_epoch(proposals, self.node.epoch_now())
            status = COMMITTED
        else:
            epoch = None
            status = ABORTED
        entry = RecordEntry(txn, status, epoch, coordinator)
        res = yield self.node.storage.append(role, [entry],
                                             writer=self.node.node_id, role=role)
        rs_now = self.roles.get(role)
        if res[0] != "ok":
            self._fence_lost(role)
            gate.resolve()
            return NotOwner(role)
        if rs_now is not rs:  # adopted away and back? treat as fenced
            gate.resolve()
            return NotOwner(role)
        rs.records[txn] = TxnRecord(status, epoch, coordinator)
        rs.deciding.pop(txn, None)
        # Parked readers learn the outcome before the coordinator does.
        for penv, _ in rs.pending.pop(txn, ()):
            self.node.k.reply(penv, PushResp(txn, decision, epoch))
        self.node.ship_stream(role, res[1], [entry])
        gate.resolve()
        return DecideResp(status, epoch)

    # -- fencing / takeover --------------------------------------------------------

    def _fence_lost(self, role: str) -> None:
        rs = self.roles.pop(role, None)
        if rs is None:
            return
        self.node.k.trace("fenced", node=self.node.node_id, role=role)
        for txn, waiters in rs.pending.items():
            for penv, _ in waiters:
                self.node.k.reply(penv, NotOwner(role))
        for gate in rs.deciding.values():
            gate.resolve()

    def adopt_role(self, role: str, expected_owner: str):
        """Generator task run on the successor: fence the old owner via a
        membership CAS, reload the role's records from its durable stream,
        then serve whatever arrived while we were loading."""
        if role in self.roles or role in self.adopting:
            return
        self.adopting[role] = []
        won = yield self.node.storage.cas_membership(role, expected_owner,
                                                     self.node.node_id)
        if not won:
            held = self.adopting.pop(role, [])
            for env in held:
                self.node.k.reply(env, NotOwner(role))
            return
        yield from self.load_role(role)
        self._grace = self.node.k.local_now()
        self.node.k.trace("takeover", role=role, node=self.node.node_id)
        held = self.adopting.pop(role, [])
        for env in held:
            self.node.on_envelope(env)

    def load_role(self, role: str):
        """Generator: rebuild the records of ``role`` from its durable
        stream and serve the role from them."""
        entries = yield self.node.storage.read_stream(role)
        records: dict[str, TxnRecord] = {}
        for e in entries:
            if isinstance(e, RecordEntry):
                records[e.txn] = TxnRecord(e.status, e.epoch, e.coordinator)
        self.roles[role] = _RoleState(records)

    # -- progress sweep -------------------------------------------------------------

    def _sweep_loop(self):
        while True:
            yield self.node.k.sleep_local(self.sweep_interval)
            now_local = self.node.k.local_now()
            for role in list(self.roles.keys()):
                rs = self.roles.get(role)
                if rs is None:
                    continue
                doomed = []
                for txn, rec in rs.records.items():
                    if rec.status == IN_PROGRESS and txn not in rs.deciding \
                            and self._coordinator_stale(rec.coordinator):
                        doomed.append((txn, rec.coordinator))
                # Readers parked on a transaction nobody ever registered:
                # the record creation was fenced away or lost with a crash.
                # Age them into an abort so pushes always terminate.
                for txn, waiters in rs.pending.items():
                    if txn in rs.records or txn in rs.deciding:
                        continue
                    if waiters and now_local - waiters[0][1] > self.hb_timeout:
                        doomed.append((txn, "?"))
                for txn, coord in doomed:
                    self.node.k.spawn(
                        self._decide_task(role, txn, ABORT, [], coord, None)
                    )


@dataclass(slots=True)
class TxnResult:
    txn: str
    status: str
    ts: Optional[Timestamp]
    reads: list
    writes: list
    reason: Optional[str] = None


class TxnHandle:
    __slots__ = (
        "txn", "ts", "cwt_deadline_local", "status", "reads", "write_buf",
        "write_order", "intent_nodes", "proposals", "role", "first_done",
        "reason", "op_idx",
    )

    def __init__(self, txn: str, ts: Timestamp, cwt_deadline_local: int):
        self.txn = txn
        self.ts = ts
        self.cwt_deadline_local = cwt_deadline_local
        self.status = "active"
        self.reads: list = []
        self.write_buf: dict[str, str] = {}
        self.write_order: list = []
        self.intent_nodes: dict[str, bool] = {}
        self.proposals: list[int] = []
        self.role: Optional[str] = None
        self.first_done = False
        self.reason: Optional[str] = None
        self.op_idx = 0


class Coordinator(Node):
    """Runs transactions on behalf of co-located clients."""

    kind = "coord"

    def __init__(self, sim, net, node_id, region, drift_ppm, tsproxy_args,
                 router, membership, recorder_nodes: list[str],
                 hb_interval_ns: int = DEFAULT_HB_INTERVAL_NS):
        super().__init__(sim, net, node_id, region, drift_ppm)
        self._tsproxy_args = tsproxy_args
        self.tsproxy = TsProxy(self.k, **tsproxy_args)
        self.router = router
        self.membership = membership
        self.recorder_nodes = recorder_nodes
        self.hb_interval = hb_interval_ns
        self._txn_n = 0
        self.aborts_by_reason: dict[str, int] = {}

    def handle(self, env) -> None:  # coordinators receive only rpc replies
        pass

    def start(self) -> None:
        self.k.spawn(self._heartbeat_loop())

    def on_restart(self) -> None:
        # In-flight transactions died with the process; their recorders
        # sweep the orphaned records once heartbeats go stale. The txn
        # counter survives so ids never repeat across incarnations.
        self.tsproxy = TsProxy(self.k, **self._tsproxy_args)
        self.alive = True
        self.k.spawn(self._heartbeat_loop())

    def _heartbeat_loop(self):
        while True:
            for nid in self.recorder_nodes:
                self.k.send(nid, Heartbeat(self.node_id))
            yield self.k.sleep_local(self.hb_interval)

    # -- transaction verbs ------------------------------------------------------

    def begin(self):
        """Generator -> TxnHandle. The commit wait starts now, at timestamp
        acquisition, so execution time is absorbed into it."""
        self._txn_n += 1
        txn = f"{self.node_id}:{self._txn_n}"
        self.k.trace("txn_begin", txn=txn, coord=self.node_id)
        ts = yield from self.tsproxy.acquire()
        # Traced now, not only in txn_end: a recorder can commit the
        # transaction after this coordinator has crashed.
        self.k.trace("txn_ts", txn=txn, ts=list(ts))
        h = TxnHandle(txn, ts, self.k.local_now() + self.tsproxy.cwt_ns)
        return h

    def execute_read(self, h: TxnHandle, key: str):
        idx = h.op_idx
        h.op_idx += 1
        if key in h.write_buf:
            value = h.write_buf[key]
            h.reads.append((idx, key, h.ts, value))
            self.k.trace("op", txn=h.txn, i=idx, op="r", key=key,
                         vts=list(h.ts), val=value)
            return value
        node = self.router.primary(key)
        resp = yield from self._data_rpc(node, ReadReq(key, h.ts, h.txn))
        if resp is RPC_TIMEOUT:
            h.status = "failed"
            h.reason = "unreachable"
            return None
        vts = Timestamp(*resp.version_ts) if resp.version_ts else None
        h.reads.append((idx, key, vts, resp.value))
        self.k.trace("op", txn=h.txn, i=idx, op="r", key=key,
                     vts=list(vts) if vts else None, val=resp.value)
        return resp.value

    def execute_write(self, h: TxnHandle, key: str, ops: list, first: bool):
        """Generator -> bool. Install this transaction's intent on ``key``.

        ``run_txn`` sends one write per distinct key of a run of
        consecutive writes, all at once (``_execute_write_run``): ``ops``
        is the ``(index, value)`` of every op of the run on ``key``, and
        the write carries the last value; ``first`` says whether it
        creates the record. Each op is traced with its own index once the
        write is acknowledged. A write that fails ends the transaction;
        writes of the same run still in flight finish, so their intents
        are known to the abort."""
        node = self.router.primary(key)
        req = WriteReq(key, h.txn, h.ts, ops[-1][1], h.role, first,
                       self.node_id)
        resp = yield from self._data_rpc(node, req)
        if resp is RPC_TIMEOUT or not resp.ok:
            if h.status == "active":
                if resp is RPC_TIMEOUT:
                    h.status, h.reason = "failed", "unreachable"
                else:
                    h.status, h.reason = "aborted", "rt_conflict"
            return False
        h.first_done = True
        h.intent_nodes[node] = True
        if resp.proposal is not None:
            h.proposals.append(resp.proposal)
        for idx, value in ops:
            h.write_buf[key] = value
            h.write_order.append((idx, key, value))
            self.k.trace("op", txn=h.txn, i=idx, op="w", key=key, val=value)
        return True

    def _execute_write_run(self, h: TxnHandle, writes: list):
        """Generator: send a run of consecutive ``(key, value)`` writes at
        once and wait for them all. Repeated keys are coalesced into one
        write: two writes to one key must not race, since the later intent
        wins whichever lands last. The recorder role is fixed before any
        write is sent; only the run's lead write creates the record, and
        only if no write has acked yet."""
        carried: dict[str, list] = {}
        for key, value in writes:
            carried.setdefault(key, []).append((h.op_idx, value))
            h.op_idx += 1
        if h.role is None:  # the abort path may need to reach this recorder
            lead_node = self.router.primary(writes[0][0])
            h.role = recorder_role(lead_node)
        first = not h.first_done
        plan = [(key, ops, first and n == 0)
                for n, (key, ops) in enumerate(carried.items())]
        if len(plan) == 1:
            # Inline, as a lone write always ran: a task would add an event
            # and reorder same-instant sends.
            yield from self.execute_write(h, *plan[0])
            return
        tasks = [self.k.spawn(self.execute_write(h, *w)) for w in plan]
        for task in tasks:
            yield task

    def commit(self, h: TxnHandle):
        """Generator -> final status string. Blocks until the commit wait
        for h.ts has elapsed on the local clock, then (for writers) asks the
        recorder for the one durable decision."""
        if h.status != "active":
            return (yield from self._abandon(h))
        remaining = h.cwt_deadline_local - self.k.local_now()
        if remaining > 0:
            yield self.k.sleep_local(remaining)
        if not h.write_order:
            h.status = "committed"
            self._finish(h, None)
            return "committed"
        resp = yield from self._decide(h, COMMIT)
        if resp is None:
            h.status = "unknown"
            h.reason = "decide_unreachable"
            self._finish(h, None)
            return "unknown"
        if resp.status == COMMITTED:
            h.status = "committed"
            self._broadcast_finalize(h, COMMIT, resp.epoch)
            self._finish(h, resp.epoch)
            return "committed"
        h.status = "aborted"
        h.reason = h.reason or "swept"
        self._broadcast_finalize(h, ABORT, None)
        self._finish(h, None)
        return "aborted"

    def abort(self, h: TxnHandle):
        h.status = "aborted"
        h.reason = h.reason or "client"
        return (yield from self._abandon(h))

    # -- helpers -----------------------------------------------------------------

    def _data_rpc(self, node_id: str, payload, attempts: int = 30):
        for i in range(attempts):
            resp = yield self.k.rpc(node_id, payload, self.k.rpc_timeout_for(node_id))
            if resp is not RPC_TIMEOUT:
                return resp
            yield self.k.sleep_local(min(2 * MS * (i + 1), 50 * MS))
        return RPC_TIMEOUT

    def _decide(self, h: TxnHandle, decision: str, attempts: int = 30):
        for i in range(attempts):
            owner = yield from self.membership.lookup(h.role)
            if owner is None:
                yield self.k.sleep_local(5 * MS)
                continue
            req = DecideReq(h.role, h.txn, decision, list(h.proposals), self.node_id)
            resp = yield self.k.rpc(owner, req, self.k.rpc_timeout_for(owner))
            if resp is RPC_TIMEOUT:
                self.membership.invalidate(h.role)
                yield self.k.sleep_local(min(2 * MS * (i + 1), 50 * MS))
                continue
            if isinstance(resp, NotOwner):
                self.membership.invalidate(h.role)
                continue
            return resp
        return None

    def _abandon(self, h: TxnHandle):
        """Abort path: make the abort durable if a record or an intent may
        exist (any write acked, even when its run's lead did not), then
        sweep intents. Failures here are tolerable — the recorder sweep and
        reader pushes finish the job."""
        if h.role is not None and (h.first_done or h.status == "failed"):
            yield from self._decide(h, ABORT, attempts=5)
        if h.intent_nodes:
            self._broadcast_finalize(h, ABORT, None)
        status = "aborted" if h.status != "failed" else "failed"
        self._finish(h, None)
        return status

    def _broadcast_finalize(self, h: TxnHandle, decision: str, epoch) -> None:
        for nid in h.intent_nodes:
            self.k.send(nid, FinalizeReq(h.txn, decision, epoch))

    def _finish(self, h: TxnHandle, epoch) -> None:
        status = h.status
        if status in ("aborted", "failed", "unknown"):
            self.aborts_by_reason[h.reason or "?"] = \
                self.aborts_by_reason.get(h.reason or "?", 0) + 1
        self.k.trace("txn_end", txn=h.txn, status=status, ts=list(h.ts),
                     epoch=epoch, reason=h.reason)

    # -- one full transaction ------------------------------------------------------

    def run_txn(self, program):
        """Generator -> TxnResult. ``program`` is a list of ops:
        ("r", key) | ("w", key, value) | ("hold", local_ns).

        Reads and holds run one at a time. Each run of consecutive writes
        is sent at once, one write per distinct key (see
        ``execute_write``), and the next op starts when all of them are
        answered: a run pays one round trip, not one per write."""
        try:
            h = yield from self.begin()
        except OracleUnavailable:
            self.aborts_by_reason["oracle"] = self.aborts_by_reason.get("oracle", 0) + 1
            self.k.trace("txn_end", txn=f"{self.node_id}:{self._txn_n}",
                         status="failed", ts=None, epoch=None, reason="oracle")
            return TxnResult(f"{self.node_id}:{self._txn_n}", "failed", None, [], [],
                             reason="oracle")
        i = 0
        while i < len(program):
            op = program[i]
            i += 1
            if op[0] == "r":
                yield from self.execute_read(h, op[1])
            elif op[0] == "w":
                run = [op[1:]]
                while i < len(program) and program[i][0] == "w":
                    run.append(program[i][1:])
                    i += 1
                yield from self._execute_write_run(h, run)
            elif op[0] == "hold":
                yield self.k.sleep_local(op[1])
            else:
                raise ValueError(f"unknown op {op!r}")
            if h.status != "active":
                break
        status = yield from self.commit(h)
        return TxnResult(h.txn, status, h.ts, list(h.reads),
                         sorted(h.write_order), reason=h.reason)
