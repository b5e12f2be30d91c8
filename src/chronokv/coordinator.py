"""Transaction coordination and commit recording.

A coordinator runs transactions for co-located clients: it takes one
timestamp up front, which doubles as the read snapshot and the commit
timestamp, so what an op returns depends on that timestamp and not on
when the op is sent. The ops between two holds therefore leave at once,
one chain per key: a chain keeps its key's ops in program order, and
consecutive writes in it are coalesced into one write carrying the last
value, so no two writes of one transaction to one key are ever in flight
together. After the commit wait tied to the timestamp has elapsed on its
local clock, the coordinator asks the transaction's recorder for a
single durable decision. The recorder is the data node that receives the
transaction's first write in program order; its answer is the commit
point. Everything after (finalize messages installing or discarding
intents) is asynchronous cleanup that readers can force at any time by
pushing the recorder.

Recorders also guarantee progress for everyone else's transactions: they
watch coordinator heartbeats and durably abort the in-progress records of
coordinators that have gone quiet, answering any readers parked on them.
A coordinator that is alive but gave up reaching a recorder keeps asking
it to abort in the background until it answers. Losing a role is
discovered the hard way — a durable append bounces with a fence — after
which the old recorder answers NotOwner and the sender looks up the
successor named by the membership register.

Retries: a decide goes to whoever owns the recorder role, through
``RoleDirectory.call``, which re-reads the owner after a timeout or a
NotOwner. An op goes to the key's fixed primary and is simply re-sent.
Both back off by ``retry_backoff_ns`` before the try after a timeout.
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
from .simnet import MS, RPC_TIMEOUT, Future, Node, retry_backoff_ns
from .tsbatch import Timestamp, TsProxy

HB_INTERVAL_NS = 100 * MS
HB_TIMEOUT_NS = 500 * MS  # silence after which the sweep aborts records
SWEEP_INTERVAL_NS = 100 * MS


@dataclass(slots=True)
class TxnRecord:
    status: str
    epoch: Optional[int]
    coordinator: str


class _RoleState:
    __slots__ = ("records", "in_progress", "pending", "deciding")

    def __init__(self, records=None):
        self.records: dict[str, TxnRecord] = records or {}
        # The in-progress subset of ``records``, in the same order, so the
        # sweep scans only what it may abort.
        self.in_progress: dict[str, TxnRecord] = {
            txn: rec for txn, rec in self.records.items()
            if rec.status == IN_PROGRESS}
        # txn -> [(envelope, arrived_local_ns)] readers parked until a decision
        self.pending: dict[str, list] = {}
        # txn -> Future guarding a decision append already in flight
        self.deciding: dict[str, Future] = {}


class RecorderState:
    """The recorder component hosted by a data node. May own several roles
    (its own from birth, others adopted through takeover)."""

    def __init__(self, node):
        self.node = node
        self.roles: dict[str, _RoleState] = {}
        self.adopting: dict[str, list] = {}  # role -> envelopes held during adoption
        self.last_heard: dict[str, int] = {}
        self._grace = node.k.local_now()

    def start(self) -> None:
        self._grace = self.node.k.local_now()
        self.node.k.spawn(self._sweep_loop())

    def claim_initial(self, role: str) -> None:
        self.roles[role] = _RoleState()

    # -- liveness of coordinators -------------------------------------------

    def on_heartbeat(self, coordinator: str) -> None:
        self.last_heard[coordinator] = self.node.k.local_now()

    def _coordinator_stale(self, coordinator: str) -> bool:
        heard = self.last_heard.get(coordinator, self._grace)
        return self.node.k.local_now() - heard > HB_TIMEOUT_NS

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
            self.node.k.reply(env, RecordCreated() if ok else NotOwner(req.role))

        self.node.k.spawn(task())

    # -- record creation -------------------------------------------------------

    def create_in_progress(self, role: str, txn: str, coordinator: str):
        """Generator -> bool. Durably registers the transaction before its
        first write acks, so pushes have something to park on. Writes sent
        alongside it may ack first; a push that arrives before the record
        parks all the same, until the decision."""
        rs = self.roles.get(role)
        if rs is None:
            return False
        if txn in rs.records:
            return True
        rs.records[txn] = rs.in_progress[txn] = \
            TxnRecord(IN_PROGRESS, None, coordinator)
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
        rs.in_progress.pop(txn, None)
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
            yield self.node.k.sleep_local(SWEEP_INTERVAL_NS)
            now_local = self.node.k.local_now()
            for role in list(self.roles.keys()):
                rs = self.roles.get(role)
                if rs is None:
                    continue
                doomed = []
                for txn, rec in rs.in_progress.items():
                    if txn not in rs.deciding \
                            and self._coordinator_stale(rec.coordinator):
                        doomed.append((txn, rec.coordinator))
                # Readers parked on a transaction nobody ever registered:
                # the record creation was fenced away or lost with a crash.
                # Age them into an abort so pushes always terminate.
                for txn, waiters in rs.pending.items():
                    if txn in rs.records or txn in rs.deciding:
                        continue
                    if waiters and now_local - waiters[0][1] > HB_TIMEOUT_NS:
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
        "write_order", "intent_nodes", "proposals", "role", "may_have_written",
        "reason",
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
        # A write acked or timed out: an intent, and the record, may exist.
        self.may_have_written = False
        self.reason: Optional[str] = None


class Coordinator(Node):
    """Runs transactions on behalf of co-located clients."""

    kind = "coord"

    def __init__(self, sim, net, node_id, region, drift_ppm, tsproxy_args,
                 router, membership, recorder_nodes: list[str]):
        super().__init__(sim, net, node_id, region, drift_ppm)
        self._tsproxy_args = tsproxy_args
        self.tsproxy = TsProxy(self.k, **tsproxy_args)
        self.router = router
        self.membership = membership
        self.recorder_nodes = recorder_nodes
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
            yield self.k.sleep_local(HB_INTERVAL_NS)

    # -- transaction verbs ------------------------------------------------------

    def begin(self):
        """Generator -> TxnHandle. The commit wait starts now, at timestamp
        acquisition, so execution time is absorbed into it. If the oracle
        is unavailable, the handle has failed and has no timestamp."""
        self._txn_n += 1
        txn = f"{self.node_id}:{self._txn_n}"
        self.k.trace("txn_begin", txn=txn, coord=self.node_id)
        try:
            ts = yield from self.tsproxy.acquire()
        except OracleUnavailable:
            h = TxnHandle(txn, None, None)
            h.status, h.reason = "failed", "oracle"
            return h
        # Traced now, not only in txn_end: a recorder can commit the
        # transaction after this coordinator has crashed.
        self.k.trace("txn_ts", txn=txn, ts=list(ts))
        h = TxnHandle(txn, ts, self.k.local_now() + self.tsproxy.cwt_ns)
        return h

    def execute_read(self, h: TxnHandle, key: str, idx: int):
        """Generator -> value. Read ``key`` at ``h.ts`` as op ``idx``; a key
        this transaction has written is read from its own write buffer."""
        if key in h.write_buf:
            value = h.write_buf[key]
            h.reads.append((idx, key, h.ts, value))
            self.k.trace("op", txn=h.txn, i=idx, op="r", key=key,
                         vts=list(h.ts), val=value)
            return value
        node = self.router.primary(key)
        resp = yield from self._data_rpc(node, ReadReq(key, h.ts, h.txn))
        if resp is RPC_TIMEOUT:
            if h.status == "active":
                h.status, h.reason = "failed", "unreachable"
            return None
        vts = Timestamp(*resp.version_ts) if resp.version_ts else None
        h.reads.append((idx, key, vts, resp.value))
        self.k.trace("op", txn=h.txn, i=idx, op="r", key=key,
                     vts=list(vts) if vts else None, val=resp.value)
        return resp.value

    def execute_write(self, h: TxnHandle, key: str, ops: list, first: bool):
        """Generator -> bool. Install this transaction's intent on ``key``.

        ``ops`` is the ``(index, value)`` of every op of a run of
        consecutive writes to ``key`` in its chain (see ``_run_chain``); the
        write carries the last value, and each op is traced with its own
        index once the write is acknowledged. ``first`` says whether the
        write creates the record. A write that fails ends the transaction;
        ops of other chains already in flight finish, so their intents are
        known to the abort."""
        node = self.router.primary(key)
        req = WriteReq(key, h.txn, h.ts, ops[-1][1], h.role, first,
                       self.node_id)
        resp = yield from self._data_rpc(node, req)
        if resp is RPC_TIMEOUT:
            h.may_have_written = True
            if h.status == "active":
                h.status, h.reason = "failed", "unreachable"
            return False
        if not resp.ok:
            if h.status == "active":
                h.status, h.reason = "aborted", "rt_conflict"
            return False
        h.may_have_written = True
        h.intent_nodes[node] = True
        if resp.proposal is not None:
            h.proposals.append(resp.proposal)
        for idx, value in ops:
            h.write_buf[key] = value
            h.write_order.append((idx, key, value))
            self.k.trace("op", txn=h.txn, i=idx, op="w", key=key, val=value)
        return True

    def _run_segment(self, h: TxnHandle, chains: dict, lead: Optional[int]):
        """Generator: start every chain at once and wait for them all."""
        if not chains:
            return
        first, *rest = chains.values()
        tasks = [self.k.spawn(self._run_chain(h, c, lead)) for c in rest]
        yield from self._run_chain(h, first, lead)  # inline: one task fewer
        # Hold no task while waiting on it: a frame holding the future it
        # waits on forms a cycle with the future's callback, and a task
        # killed by a crash would then be freed, and its client's finally
        # run, whenever the cycle collector happens to run.
        while tasks:
            yield tasks.pop(0)

    def _run_chain(self, h: TxnHandle, chain: list, lead: Optional[int]):
        """Generator: the ``(index, op)`` of one key, in program order.
        Reads go one at a time; each run of consecutive writes is one
        write, and the write carrying op ``lead`` creates the record. No
        op is sent once the transaction has failed."""
        i = 0
        while i < len(chain) and h.status == "active":
            idx, op = chain[i]
            i += 1
            if op[0] == "r":
                yield from self.execute_read(h, op[1], idx)
                continue
            ops = [(idx, op[2])]
            while i < len(chain) and chain[i][1][0] == "w":
                ops.append((chain[i][0], chain[i][1][2]))
                i += 1
            yield from self.execute_write(h, op[1], ops, ops[0][0] == lead)

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
            self.k.spawn(self._abort_in_background(h))
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
        timeout = self.k.rpc_timeout_for(node_id)
        for i in range(attempts):
            if i:
                yield self.k.sleep_local(retry_backoff_ns(i - 1))
            resp = yield self.k.rpc(node_id, payload, timeout)
            if resp is not RPC_TIMEOUT:
                return resp
        return RPC_TIMEOUT

    def _decide(self, h: TxnHandle, decision: str, attempts: int = 30):
        """Generator -> the recorder's DecideResp, or None."""
        req = DecideReq(h.role, h.txn, decision, list(h.proposals), self.node_id)
        return (yield from self.membership.call(self.k, h.role, req, attempts))

    def _abandon(self, h: TxnHandle):
        """Abort path: make the abort durable if a record or an intent may
        exist, then sweep intents. An abort the recorder does not answer
        is retried in the background."""
        if h.may_have_written:
            resp = yield from self._decide(h, ABORT, attempts=5)
            if resp is None:
                self.k.spawn(self._abort_in_background(h))
        if h.intent_nodes:
            self._broadcast_finalize(h, ABORT, None)
        status = "aborted" if h.status != "failed" else "failed"
        self._finish(h, None)
        return status

    def _abort_in_background(self, h: TxnHandle):
        """Generator task: ask the recorder to abort ``h`` until it answers,
        then finalize the intents with the outcome it holds, which is a
        commit if the lost decide landed first. The sweep aborts only for
        coordinators gone quiet, so without this the record would stay in
        progress and readers of the keys would park on it."""
        resp = None
        while resp is None:
            resp = yield from self._decide(h, ABORT)
        decision = COMMIT if resp.status == COMMITTED else ABORT
        self._broadcast_finalize(h, decision, resp.epoch)

    def _broadcast_finalize(self, h: TxnHandle, decision: str, epoch) -> None:
        for nid in h.intent_nodes:
            self.k.send(nid, FinalizeReq(h.txn, decision, epoch))

    def _finish(self, h: TxnHandle, epoch) -> None:
        status = h.status
        if status in ("aborted", "failed", "unknown"):
            self.aborts_by_reason[h.reason or "?"] = \
                self.aborts_by_reason.get(h.reason or "?", 0) + 1
        self.k.trace("txn_end", txn=h.txn, status=status,
                     ts=h.ts and list(h.ts), epoch=epoch, reason=h.reason)

    # -- one full transaction ------------------------------------------------------

    def run_txn(self, program):
        """Generator -> TxnResult. ``program`` is a list of ops:
        ("r", key) | ("w", key, value) | ("hold", local_ns). Each op's index
        is its position in the program.

        A hold is a barrier. The ops between two holds are split into one
        chain per key, in program order, and every chain starts at once
        (see ``_run_chain``): the snapshot is ``ts`` whenever an op is
        sent, and a chain keeps each key's ops ordered, because a read
        must not overtake the transaction's own write to its key. So a
        segment pays about one round trip per op on its busiest key, not
        one per op. The recorder role is fixed before any op is sent, from
        the first write in program order."""
        h = yield from self.begin()
        if h.ts is None:
            self._finish(h, None)
            return TxnResult(h.txn, h.status, None, [], [], reason=h.reason)
        lead = next((i for i, op in enumerate(program) if op[0] == "w"), None)
        if lead is not None:  # the abort path may need to reach this recorder
            h.role = recorder_role(self.router.primary(program[lead][1]))
        chains: dict[str, list] = {}
        for idx, op in enumerate(program):
            if op[0] in ("r", "w"):
                chains.setdefault(op[1], []).append((idx, op))
            elif op[0] == "hold":
                yield from self._run_segment(h, chains, lead)
                chains = {}
                if h.status != "active":
                    break
                yield self.k.sleep_local(op[1])
            else:
                raise ValueError(f"unknown op {op!r}")
        else:
            yield from self._run_segment(h, chains, lead)
        status = yield from self.commit(h)
        return TxnResult(h.txn, status, h.ts, sorted(h.reads),
                         sorted(h.write_order), reason=h.reason)
