"""Transaction coordination and commit recording.

A coordinator runs transactions for co-located clients: it takes one
timestamp up front, which doubles as the read snapshot and the commit
timestamp, so what an op returns depends on that timestamp and not on
when the op is sent. The timestamp leads: it is moved later by the
one-way delay to the farthest primary of the program's first segment,
rounded up to a multiple of the proxy's TTL (``Coordinator.lead``). So
each op lands at its primary before its own timestamp, and ops from
every region reach a primary in timestamp order. Without the lead, an op
from a far region lands one one-way delay after its timestamp, often
after a nearer transaction with a later timestamp has read the key, and
its write is refused. This is the
use of synchronized clocks that Tiga (SOSP 2025) and Nezha's
deadline-ordered multicast (VLDB 2023) make: a request is stamped with
its send time plus its expected one-way delay. The ops between two
holds leave at once, one chain per key, by these rules (see
``Coordinator._run_chain``):

- a chain keeps its key's ops in program order, and consecutive writes
  in it are coalesced into one write carrying the last value, so no two
  writes of one transaction to one key are ever in flight together;
- a read of a key the transaction has written is answered from its own
  write buffer;
- a read at the primary carries the run of writes that follows it, so a
  read-modify-write is one round trip: the primary applies the read
  rule and then the write rule in one event, leaving the intent for
  later readers to wait on where a reader with a later timestamp would
  otherwise have refused the write. An op that must wait behind an
  undecided intent does the same when it wakes, but only if it is the
  highest bidder for the key: once a read above it has been served or
  is parked, the write rule would refuse its write when that read
  lands, so the primary refuses it then and there, and the op reads
  nothing (``mvto.DataNode._read_task``). So only the highest of the
  ops parked on a key takes it, the ones below it abort without
  sending a write, and no convoy forms of waiters that each become the
  next holder. A run of writes after a read goes on its own only when
  that read was served from the write buffer;
- reads are held back so that they land together with the segment's
  farthest op; as the lead covers that op's delay, they all land about
  a TTL before their timestamp.

The commit wait is the proxy's 2(ttl+eps)(1+D) plus the lead times
(1+D), counted from the timestamp's acquisition. It stays hidden behind
execution: ops to the farthest primary take a round trip, about twice
the lead.

Every writing transaction's record lives at the coordinator's home role:
the recorder role of the data node nearest to it, fixed when the
coordinator is built. Nothing is recorded up front. Once the commit wait
tied to the timestamp has elapsed on its local clock, the coordinator
asks the recorder for a single durable decision, an intra-region round
trip; the answer is the commit point, and usually the record's only
entry. Everything after (finalize messages installing or discarding
intents) is asynchronous cleanup that readers can force at any time by
pushing the recorder. A replica's push may instead get an epoch floor
that the commit will meet (see ``mvto.Settler``); the floor is the one
thing written to a record before its decision.

Recorders also guarantee progress for everyone else's transactions. A
transaction's id names its coordinator and its number there
(``Coordinator.coordinator_of``), and only the owner of that
coordinator's home role judges it, so the coordinator heartbeats that
owner alone, read from the membership register before each beat. The
sweep judges a transaction by the incarnation of its coordinator that
began it: once that incarnation is gone, because the coordinator has
gone quiet or because it has restarted since (each beat carries the last
number an earlier incarnation gave, ``messages.Heartbeat.since``), the
sweep durably aborts the transaction if it holds a floored record or
has readers parked on it, answering those readers. A coordinator that is
alive asks its recorder for each of its decisions until it answers.
Losing a role is discovered the hard way — a durable append bounces with
a fence — after which the old recorder answers NotOwner and the sender
looks up the successor named by the membership register.

Retries: every request goes through one retry loop,
``replication.request``, and is asked until it is answered. A try waits
1.25 round trips to its destination, at least 5 ms, and a try after an
unanswered one first backs off by ``retry_backoff_ns``. An op goes to
the key's fixed primary. A decide, to commit or to abort, goes to
whoever owns the home role, read from the membership register again
after a try that heard nothing or a NotOwner. Every server that parks a
request says so at once (``messages.Pending``): a read behind an
undecided intent, a push or a decide waiting for a decision, and any
re-ask of a request still being served. From then on the request is
only asked again every ``LONG_POLL_NS`` in case its answer is lost. A
timestamp the oracle cannot give is asked for again by
``TsProxy.acquire_waiting`` until it comes. So a transaction ends
committed or aborted, or dies with its coordinator in a crash; a fault
that never heals leaves it waiting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .epochs import assign_commit_epoch
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
    PushReq,
    PushResp,
    ReadReq,
    WriteReq,
    WriteResp,
)
from .replication import (
    RecordEntry,
    recorder_role,
    request,
    serve,
    tell_parked,
)
from .simnet import MS, Future, Node
from .tsbatch import Timestamp, TsProxy, lead_ns, led

HB_INTERVAL_NS = 100 * MS
HB_TIMEOUT_NS = 500 * MS  # silence after which the sweep aborts txns
SWEEP_INTERVAL_NS = 100 * MS


@dataclass(slots=True)
class TxnRecord:
    status: str
    epoch: Optional[int]


class _RoleState:
    __slots__ = ("records", "in_progress", "pending", "deciding")

    def __init__(self, records=None):
        self.records: dict[str, TxnRecord] = records or {}
        # The in-progress subset of ``records``, in the same order, so the
        # sweep scans only what it may abort.
        self.in_progress: dict[str, TxnRecord] = {
            txn: rec for txn, rec in self.records.items()
            if rec.status == IN_PROGRESS}
        # txn -> the Future that requests parked until its decision wait
        # on: readers' pushes, and decides that arrived while it was in
        # flight. It resolves with the decided record, or with None when
        # the role is lost.
        self.pending: dict[str, Future] = {}
        # txns whose decision append is in flight
        self.deciding: set[str] = set()


class RecorderState:
    """The recorder component hosted by a data node. May own several roles
    (its own from birth, others adopted through takeover)."""

    def __init__(self, node):
        self.node = node
        self.roles: dict[str, _RoleState] = {}
        self.last_heard: dict[str, int] = {}
        self.since: dict[str, int] = {}  # coordinator -> Heartbeat.since
        self._grace = node.k.local_now()

    def start(self) -> None:
        self._grace = self.node.k.local_now()
        self.node.k.spawn(self._sweep_loop())

    def claim_initial(self, role: str) -> None:
        self.roles[role] = _RoleState()

    # -- liveness of coordinators -------------------------------------------

    def on_heartbeat(self, hb: Heartbeat) -> None:
        self.last_heard[hb.coordinator] = self.node.k.local_now()
        # A beat of an earlier incarnation can arrive late: keep the max.
        self.since[hb.coordinator] = max(hb.since,
                                         self.since.get(hb.coordinator, 0))

    def _orphaned(self, txn: str) -> bool:
        """Whether ``txn``'s coordinator can no longer end it: it began
        ``txn`` in an earlier incarnation, or it has gone quiet."""
        coordinator, n = Coordinator.coordinator_of(txn)
        if n <= self.since.get(coordinator, 0):
            return True
        heard = self.last_heard.get(coordinator, self._grace)
        return self.node.k.local_now() - heard > HB_TIMEOUT_NS

    # -- wire entry points ----------------------------------------------------

    def handle_decide(self, env, req: DecideReq) -> None:
        serve(self.node, env, self._decide_core(
            req.role, req.txn, req.decision, req.proposals, env))

    def handle_push(self, env, req: PushReq) -> None:
        serve(self.node, env, self._push_task(env, req))

    def _park(self, env, rs: _RoleState, txn: str):
        """Generator -> the decided record of ``txn``, or None if the role
        is lost first. ``env`` is told so at once."""
        tell_parked(self.node, env)
        fut = rs.pending.get(txn)
        if fut is None:
            fut = rs.pending[txn] = Future(self.node.sim)
        return (yield fut)

    def _push_task(self, env, req: PushReq):
        """Generator task -> the answer to a push: a decided transaction's
        verdict at once. A replica's push (``req.above`` set) for a
        transaction that is not being decided gets an epoch floor, which
        creates its in-progress record if there is none; any other push
        parks until the decision."""
        role, txn = req.role, req.txn
        rs = self.roles.get(role)
        if rs is None:
            return NotOwner(role)
        rec = rs.records.get(txn)
        if rec is None or rec.status == IN_PROGRESS:
            if req.above is not None and txn not in rs.deciding:
                return (yield from self._floor(rs, req))
            rec = yield from self._park(env, rs, txn)
            if rec is None:
                return NotOwner(role)
        return PushResp(COMMIT if rec.status == COMMITTED else ABORT,
                        rec.epoch)

    def _floor(self, rs: _RoleState, req: PushReq):
        """Generator -> an epoch floor above ``req``'s replayed epoch,
        durable in the transaction's in-progress record."""
        rec = rs.records.get(req.txn)
        if rec is None:
            rec = rs.records[req.txn] = rs.in_progress[req.txn] = \
                TxnRecord(IN_PROGRESS, None)
        # Raised and appended now, so a decision that starts later commits
        # at or above the floor, and its entry lands after this one.
        rec.epoch = floor = max(rec.epoch or 0, req.above + 1)
        res = yield self.node.storage.append(
            req.role, [RecordEntry(req.txn, IN_PROGRESS, floor)],
            writer=self.node.node_id, role=req.role)
        if res[0] != "ok":
            self._fence_lost(req.role)
            return NotOwner(req.role)
        return PushResp(None, floor)

    # -- deciding ----------------------------------------------------------------

    def _decide_core(self, role, txn, decision, proposals, env):
        """Generator task -> a DecideResp or NotOwner: at most one durable
        decision per transaction. A decide that arrives while the decision
        is in flight parks with the pushes until it lands, unless ``env``
        is None (the sweep's); every later one answers from the record."""
        rs = self.roles.get(role)
        if rs is None:
            return NotOwner(role)
        rec = rs.records.get(txn)
        if txn in rs.deciding:
            if env is None:
                return None
            rec = yield from self._park(env, rs, txn)
            if rec is None:
                return NotOwner(role)
        if rec is not None and rec.status != IN_PROGRESS:
            return DecideResp(rec.status, rec.epoch)

        rs.deciding.add(txn)
        if decision == COMMIT:
            floor = rec.epoch if rec is not None else None
            epoch = assign_commit_epoch(proposals, self.node.epoch_now(), floor)
            status = COMMITTED
        else:
            epoch = None
            status = ABORTED
        entry = RecordEntry(txn, status, epoch)
        res = yield self.node.storage.append(role, [entry],
                                             writer=self.node.node_id, role=role)
        if res[0] != "ok":
            self._fence_lost(role)
            return NotOwner(role)
        if self.roles.get(role) is not rs:  # adopted away and back?
            return NotOwner(role)
        rec = rs.records[txn] = TxnRecord(status, epoch)
        rs.in_progress.pop(txn, None)
        rs.deciding.discard(txn)
        fut = rs.pending.pop(txn, None)
        if fut is not None:
            fut.resolve(rec)
        return DecideResp(status, epoch)

    # -- fencing / takeover --------------------------------------------------------

    def _fence_lost(self, role: str) -> None:
        rs = self.roles.pop(role, None)
        if rs is None:
            return
        self.node.k.trace("fenced", node=self.node.node_id, role=role)
        for fut in rs.pending.values():
            fut.resolve(None)

    def adopt_role(self, role: str, expected_owner: str):
        """Generator task run on the successor: fence the old owner via a
        membership CAS, then reload the role's records from its durable
        stream and serve the role from them."""
        if role in self.roles:
            return
        won = yield self.node.storage.cas_membership(role, expected_owner,
                                                     self.node.node_id)
        if not won:
            return
        yield from self.load_role(role)
        self._grace = self.node.k.local_now()
        self.node.k.trace("takeover", role=role, node=self.node.node_id)

    def load_role(self, role: str):
        """Generator: rebuild the records of ``role`` from its durable
        stream and serve the role from them. A transaction's last entry
        wins, which restores its highest epoch floor: no in-progress entry
        is appended once a decision has started."""
        entries = yield self.node.storage.read_stream(role)
        records: dict[str, TxnRecord] = {}
        for e in entries:
            if isinstance(e, RecordEntry):
                records[e.txn] = TxnRecord(e.status, e.epoch)
        self.roles[role] = _RoleState(records)

    # -- progress sweep -------------------------------------------------------------

    def _sweep_loop(self):
        while True:
            yield self.node.k.sleep_local(SWEEP_INTERVAL_NS)
            for role, rs in self.roles.items():  # spawning runs nothing yet
                # Floored records first, then the transactions that readers
                # are parked on but that have no record yet.
                unrecorded = [txn for txn in rs.pending
                              if txn not in rs.records]
                for txn in [*rs.in_progress, *unrecorded]:
                    if txn not in rs.deciding and self._orphaned(txn):
                        self.node.k.spawn(
                            self._decide_core(role, txn, ABORT, [], None))


class TxnHandle:
    __slots__ = (
        "txn", "ts", "cwt_deadline_local", "status", "reads", "write_buf",
        "writes", "intent_nodes", "proposals", "role", "reason",
    )

    def __init__(self, txn: str, ts: Timestamp, cwt_deadline_local: int):
        self.txn = txn
        self.ts = ts
        self.cwt_deadline_local = cwt_deadline_local
        self.status = "active"
        self.reads: list = []
        self.write_buf: dict[str, str] = {}
        self.writes: list = []
        self.intent_nodes: dict[str, bool] = {}
        self.proposals: list[int] = []
        # A writer's recorder role, set before its first op is sent: from
        # then on intents, and a record, may exist.
        self.role: Optional[str] = None
        self.reason: Optional[str] = None


class Coordinator(Node):
    """Runs transactions on behalf of co-located clients."""

    kind = "coord"

    def __init__(self, sim, net, node_id, region, drift_ppm, tsproxy_args,
                 router, membership):
        super().__init__(sim, net, node_id, region, drift_ppm)
        self.tsproxy = TsProxy(self.k, **tsproxy_args)
        self.router = router
        self.membership = membership
        # The recorder role of the nearest data node (ties go to the first
        # in router order) holds the record of every writing transaction.
        self.home_role = recorder_role(min(router.ids, key=self.k.one_way_ns))
        self._txn_n = 0
        self._since = 0  # Heartbeat.since
        self.aborts_by_reason: dict[str, int] = {}

    def handle(self, env) -> None:  # coordinators receive only rpc replies
        pass

    def start(self) -> None:
        self.k.spawn(self._heartbeat_loop())

    def on_restart(self) -> None:
        # In-flight transactions died with the process. The txn counter
        # survives, so ids never repeat across incarnations, and each beat
        # now tells the owner of the home role to sweep every id up to
        # where it stood. The timestamp proxy keeps its counters.
        self._since = self._txn_n
        self.tsproxy.forget()
        self.alive = True
        self.k.spawn(self._heartbeat_loop())

    def _heartbeat_loop(self):
        # The owner is read afresh: the cached one changes only after a
        # decide fails, and an adopter sweeps a coordinator it never hears.
        while True:
            owner = yield from self.membership.refresh(self.home_role)
            if owner is not None:
                self.k.send(owner, Heartbeat(self.node_id, self._since))
            yield self.k.sleep_local(HB_INTERVAL_NS)

    # -- transaction verbs ------------------------------------------------------

    def begin(self, lead: int):
        """Generator -> TxnHandle. The timestamp acquired is moved
        ``lead`` nanoseconds later (``tsbatch.led``), a multiple of the
        proxy's TTL, and the commit wait grows by the lead. The wait
        starts now, at timestamp acquisition, so execution time is
        absorbed into it. A timestamp the oracle cannot give is asked for
        again until it comes."""
        self._txn_n += 1
        txn = f"{self.node_id}:{self._txn_n}"
        self.k.trace("txn_begin", txn=txn)
        ts = led((yield from self.tsproxy.acquire_waiting()), lead)
        # Traced now, not at txn_end: a recorder can commit the
        # transaction after this coordinator has crashed.
        self.k.trace("txn_ts", txn=txn, ts=ts)
        return TxnHandle(txn, ts, self.k.local_now() +
                         self.tsproxy.commit_wait(lead))

    @staticmethod
    def coordinator_of(txn: str) -> tuple[str, int]:
        """The coordinator that began ``txn`` and the number it gave it,
        read back from the id that ``begin`` minted."""
        coordinator, n = txn.rsplit(":", 1)
        return coordinator, int(n)

    def execute_read(self, h: TxnHandle, key: str, idx: int, ops=None):
        """Generator -> value. Read ``key`` at ``h.ts`` as op ``idx``; a key
        this transaction has written is read from its own write buffer.

        ``ops``, if given, is the run of writes to ``key`` that follows the
        read in its chain, as ``execute_write`` takes it. The read then
        carries their write, and the primary answers its ack too (see
        ``execute_write``), or answers only a refused write if it refused
        that write before the read was served: no op is traced then, and
        the value is None."""
        if key in h.write_buf:
            value = h.write_buf[key]
            h.reads.append((idx, key, h.ts, value))
            self.k.trace("op", txn=h.txn, i=idx, op="r", key=key,
                         vts=h.ts, val=value)
            return value
        node = self.router.primary(key)
        write = self._write_req(h, key, ops) if ops else None
        resp = yield from request(self.k, node,
                                  ReadReq(key, h.ts, h.txn, write))
        if isinstance(resp, WriteResp):
            self._wrote(h, node, key, ops, resp)
            return None
        vts = Timestamp(*resp.version_ts) if resp.version_ts else None
        h.reads.append((idx, key, vts, resp.value))
        self.k.trace("op", txn=h.txn, i=idx, op="r", key=key,
                     vts=vts, val=resp.value)
        if resp.write is not None:
            self._wrote(h, node, key, ops, resp.write)
        return resp.value

    def execute_write(self, h: TxnHandle, key: str, ops: list, idx=None):
        """Generator -> bool. Install this transaction's intent on ``key``.

        ``ops`` is the ``(index, value)`` of every op of a run of
        consecutive writes to ``key`` in its chain (see ``_run_chain``); the
        write carries the last value, and each op is traced with its own
        index once the write is acknowledged. A write that fails ends the
        transaction; ops of other chains already in flight finish, so
        their intents are known to the abort.

        Given ``idx``, the run follows a read of ``key`` as op ``idx``: the
        write rides on that read, and is sent on its own only if the read
        came back without its ack (it was served from the write buffer)."""
        if idx is not None:
            rides = key not in h.write_buf
            yield from self.execute_read(h, key, idx, ops)
            if rides and key in h.write_buf:
                return True
            if h.status != "active":
                return False
        node = self.router.primary(key)
        resp = yield from request(self.k, node, self._write_req(h, key, ops))
        return self._wrote(h, node, key, ops, resp)

    @staticmethod
    def _write_req(h: TxnHandle, key: str, ops: list) -> WriteReq:
        return WriteReq(key, h.txn, h.ts, ops[-1][1], h.role, ops[-1][0])

    def _wrote(self, h: TxnHandle, node: str, key: str, ops: list,
               resp) -> bool:
        """Fold a write's ack into ``h``: a refusal aborts the
        transaction, and an accepted intent is noted for the finalize."""
        if not resp.ok:
            if h.status == "active":
                h.status, h.reason = "aborted", "rt_conflict"
            return False
        h.intent_nodes[node] = True
        if resp.proposal is not None:
            h.proposals.append(resp.proposal)
        for idx, value in ops:
            h.write_buf[key] = value
            h.writes.append((idx, key, value))
            self.k.trace("op", txn=h.txn, i=idx, op="w", key=key, val=value)
        return True

    def _run_segment(self, h: TxnHandle, chains: dict):
        """Generator: start every chain at once and wait for them all. The
        segment cannot end before its farthest primary has answered, so
        reads are held back to land no sooner than that primary is
        reached (see ``_run_chain``)."""
        if not chains:
            return
        horizon = self.k.local_now() + max(
            self.k.one_way_ns(self.router.primary(key)) for key in chains)
        first, *rest = chains.values()
        tasks = [self.k.spawn(self._run_chain(h, c, horizon)) for c in rest]
        yield from self._run_chain(h, first, horizon)  # inline: one task fewer
        for task in tasks:
            yield task

    def _run_chain(self, h: TxnHandle, chain: list, horizon: int):
        """Generator: the ``(index, op)`` of one key, in program order.
        Each run of consecutive writes is one write, and a read at the
        primary carries the run that follows it, so a read-modify-write
        costs one round trip (``execute_write`` with the read's index).
        No op is sent once the transaction has aborted.

        Aligned reads: a read sets its key's read timestamp when it lands,
        and a primary refuses the writes below that timestamp still on
        their way from farther regions. So a read sent to a primary waits
        on the local clock until it would land at ``horizon``, the local
        instant the segment's farthest primary is reached. Writes, and
        reads served from the write buffer, never wait."""
        i = 0
        while i < len(chain) and h.status == "active":
            idx, op = chain[i]
            i += 1
            key = op[1]
            ops = [(idx, op[2])] if op[0] == "w" else []
            while i < len(chain) and chain[i][1][0] == "w":
                ops.append((chain[i][0], chain[i][1][2]))
                i += 1
            if op[0] == "r" and key not in h.write_buf:
                wait = (horizon - self.k.local_now()
                        - self.k.one_way_ns(self.router.primary(key)))
                if wait > 0:
                    yield self.k.sleep_local(wait)
                    if h.status != "active":
                        break
            if op[0] == "w":
                yield from self.execute_write(h, key, ops)
            elif ops:
                yield from self.execute_write(h, key, ops, idx)
            else:
                yield from self.execute_read(h, key, idx)

    def commit(self, h: TxnHandle):
        """Generator -> final status string; every transaction ends here.
        An active one waits out the commit wait for h.ts on the local
        clock, and a writer then asks its recorder for the one durable
        decision. An aborted one that may hold an intent, or a floored
        record, makes its abort durable. Then the intents are finalized."""
        epoch = None
        if h.status == "active":
            remaining = h.cwt_deadline_local - self.k.local_now()
            if remaining > 0:
                yield self.k.sleep_local(remaining)
            h.status = "committed"
            if h.writes:
                resp = yield from self._decide(h, COMMIT)
                if resp.status == COMMITTED:
                    epoch = resp.epoch
                else:
                    h.status, h.reason = "aborted", "swept"
        elif h.role is not None:
            yield from self._decide(h, ABORT)
        decision = COMMIT if h.status == "committed" else ABORT
        for nid in h.intent_nodes:
            self.k.send(nid, FinalizeReq(h.txn, decision, epoch))
        self._finish(h, epoch)
        return h.status

    # -- helpers -----------------------------------------------------------------

    def _decide(self, h: TxnHandle, decision: str):
        """Generator -> the recorder's DecideResp."""
        req = DecideReq(h.role, h.txn, decision, list(h.proposals))
        return (yield from request(self.k, h.role, req, roles=self.membership))

    def _finish(self, h: TxnHandle, epoch) -> None:
        if h.status == "aborted":
            self.aborts_by_reason[h.reason] = \
                self.aborts_by_reason.get(h.reason, 0) + 1
        self.k.trace("txn_end", txn=h.txn, status=h.status, epoch=epoch,
                     reason=h.reason)

    # -- one full transaction ------------------------------------------------------

    def lead(self, program) -> int:
        """How far ``program``'s timestamp leads: the one-way delay to the
        farthest primary of its first segment, rounded up to a multiple
        of the proxy's TTL; 0 if that segment is empty."""
        far = 0
        for op in program:
            if op[0] not in ("r", "w"):
                break
            far = max(far, self.k.one_way_ns(self.router.primary(op[1])))
        return lead_ns(far, self.tsproxy.ttl_ns)

    def run_txn(self, program):
        """Generator -> TxnHandle, with ``reads`` and ``writes`` sorted by
        op index. ``program`` is a list of ops:
        ("r", key) | ("w", key, value) | ("hold", local_ns). Each op's index
        is its position in the program.

        A hold is a barrier. The ops between two holds are split into one
        chain per key, in program order, and every chain starts at once
        (see ``_run_chain``): the snapshot is ``ts`` whenever an op is
        sent, and a chain keeps each key's ops ordered, because a read
        must not overtake the transaction's own write to its key. So a
        segment pays at most one round trip per op on its busiest key
        (one per read-modify-write), not one per op. A
        writer's record will be at the home role.

        The timestamp leads by the one-way delay to the first segment's
        farthest primary, rounded up to the proxy's TTL (``lead``)."""
        h = yield from self.begin(self.lead(program))
        if any(op[0] == "w" for op in program):
            h.role = self.home_role
        chains: dict[str, list] = {}
        for idx, op in enumerate(program):
            if op[0] in ("r", "w"):
                chains.setdefault(op[1], []).append((idx, op))
            elif op[0] == "hold":
                yield from self._run_segment(h, chains)
                chains = {}
                if h.status != "active":
                    break
                yield self.k.sleep_local(op[1])
            else:
                raise ValueError(f"unknown op {op!r}")
        else:
            yield from self._run_segment(h, chains)
        yield from self.commit(h)
        h.reads.sort()
        h.writes.sort()
        return h
