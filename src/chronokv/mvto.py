"""Multi-version timestamp-ordered storage and the primary data node.

Each key keeps a chain of committed versions plus at most a handful of
undecided write intents. An intent is the ``replication.IntentEntry``
that its primary logs: a primary's chain holds the very entry it
appended and shipped, and a replica's, or a recovered primary's, the
entry it replayed. Entries are frozen, so a rule that changes an
intent's proposal holds a copy. The rules of multi-version timestamp
ordering (Bernstein & Goodman, TODS 1983) live once each on the store,
free of any node, message or clock:

- the read-wait rule, ``KeyChain.blocker``: a read at ``ts`` must not
  answer while an undecided intent below ``ts`` may commit into what it
  reads. Instead of guessing, the reader waits while ``Settler`` pushes
  the writer's recorder for the verdict, then asks again. Primaries and
  replicas both wait through ``Settler.settle_below``;
- the read rule, ``KeyChain.read``: raise the key's read timestamp, then
  answer the newest committed version at or below ``ts``. Primaries
  serve reads by it; a replica never raises a read timestamp and reads
  ``KeyChain.visible`` in its view;
- the write rule, ``KeyStore.write``: refuse a write below the key's read
  timestamp (a reader already took a snapshot the write would
  retroactively invalidate) or below a restarted node's floor, and
  accept everything else optimistically as an intent. Only a later op
  (a larger ``idx``) replaces it, and the primary logs only an intent
  that changed. Only primaries write;
- the read-modify-write rule, which orders the three above on the
  primary, in ``DataNode._read_task``: a read that carries a write
  applies the read rule and then the write rule in the same event, and
  answers both;
- the wake rule, ``KeyChain.outbid``: a read-modify-write that must
  wait is doomed once a read above its timestamp has been served or is
  parked, since the write rule will refuse its write once that read
  lands. It is applied as soon as it becomes true: such an op is
  refused with nothing read instead of parking, and one that parks
  (``KeyChain.park``) refuses each read-modify-write parked below it on
  the key. So only the highest of the ops parked on a key installs, and
  none holds the key against a reader queued behind it;
- the settle rule, ``KeyStore.resolve`` with ``KeyStore.insert_intent``:
  a verdict promotes or drops a transaction's intents, and an intent
  whose verdict is already known applies it at once. Primaries settle
  on finalizes, and both node kinds on the verdicts their pushes bring
  back; ``apply_log_entry`` replays the data log by the same two
  methods for crash recovery and for replicas, handing each intent
  entry itself to ``insert_intent``. ``KeyStore.raise_floor``
  lifts the proposals of a replica's intents when a push answers with
  an epoch floor instead.

The nodes keep only what the rules leave out: the waiting, the log
appends, the replies and the traces.

A parked read tells its sender at once with ``Pending``, and its answer
follows under the same request id when the verdict is in, as every
parked request's does (see ``replication``). So a read stays parked for
as long as its writer takes to be decided, not for as long as the
sender's retries last.

The node's durable state is a single ordered log per node (intents,
finalizes, epoch cut markers) in region-local shared storage, plus one
record stream per recorder role; only the data log ships to the node's
replicas. Recovery is a replay of those streams;
the read-timestamp cache is intentionally not logged, so a restarted node
refuses writes below a conservative floor instead (the last promised cut
boundary or a fresh timestamp led as far as any coordinator leads one,
whichever is higher).
"""

from __future__ import annotations

import bisect
from dataclasses import replace
from typing import Callable, Optional

from .coordinator import RecorderState
from .epochs import EpochCutter, promised_end_ns
from .messages import (
    ABORTED,
    COMMITTED,
    CatchUp,
    DecideReq,
    FinalizeReq,
    Heartbeat,
    LogShip,
    PushReq,
    ReadReq,
    ReadResp,
    WriteReq,
    WriteResp,
)
from .replication import (
    CutEntry,
    FinalizeEntry,
    IntentEntry,
    recorder_role,
    request,
    serve,
    tell_parked,
)
from .simnet import Future, Node
from .tsbatch import Timestamp, TsProxy, lead_ns


class KeyChain:
    __slots__ = ("versions", "order", "intents", "rt", "waiters")

    def __init__(self):
        self.versions: dict[Timestamp, tuple] = {}  # ts -> (value, epoch)
        self.order: list[Timestamp] = []
        # txn -> the log entry of its undecided write of this key
        self.intents: dict[str, IntentEntry] = {}
        self.rt: Optional[Timestamp] = None
        # reader -> (ts, handle) of each read parked on this key at a
        # primary, in park order. The handle refuses the read's write, if
        # it carries one and is not refused yet, else it is None. Like
        # ``rt``, the waiters are volatile: a crash replaces the whole
        # store.
        self.waiters: dict[str, tuple[Timestamp, Optional[Callable]]] = {}

    def visible(self, ts: Timestamp, view: Optional[int] = None):
        """Newest committed version at or below ts -> (vts, value). Given
        a replica's ``view``, versions committed into a later epoch are
        skipped."""
        i = bisect.bisect_right(self.order, ts) - 1
        while i >= 0:
            vts = self.order[i]
            value, epoch = self.versions[vts]
            if view is None or epoch <= view:
                return vts, value
            i -= 1
        return None, None

    def blocker(self, ts: Timestamp, reader: str,
                view: Optional[int] = None) -> Optional[IntentEntry]:
        """The read-wait rule: the first undecided intent below ``ts``
        that a read by ``reader`` must wait for, or None. A reader never
        waits for its own intent. A replica passes its ``view``: an
        intent commits into its proposal's epoch or a later one, so one
        proposed beyond the view cannot reach the read."""
        for intent in self.intents.values():
            if intent.ts < ts and intent.txn != reader and \
                    (view is None or intent.proposal <= view):
                return intent
        return None

    def read(self, ts: Timestamp):
        """The read rule, once nothing blocks it: raise the read
        timestamp to ``ts``, then return ``visible(ts)``."""
        if self.rt is None or ts > self.rt:
            self.rt = ts
        return self.visible(ts)

    def outbid(self, ts: Timestamp) -> bool:
        """The wake rule: whether a write at ``ts`` by a read-modify-write
        that was parked here is doomed. It is if a read above ``ts`` has
        been served, or is still parked and will be: ``rt`` only rises,
        so the write rule would refuse the write then."""
        return (self.rt is not None and self.rt > ts) or \
            any(at > ts for at, _ in self.waiters.values())

    def park(self, reader: str, ts: Timestamp, refuse=None) -> None:
        """Register a read parked at ``ts``; ``refuse``, given if it
        carries a write, refuses that write. The wake rule, applied as it
        becomes true: every read-modify-write parked below ``ts`` is
        doomed from now on, so its handle is called, once. A refused read
        stays registered at its ts, which ``outbid`` counts, until its
        own task unparks it."""
        for other, (at, refusal) in list(self.waiters.items()):
            if refusal is not None and at < ts:
                self.waiters[other] = (at, None)
                refusal()
        self.waiters[reader] = (ts, refuse)

    def unpark(self, reader: str) -> None:
        del self.waiters[reader]


class KeyStore:
    """Version chains plus transaction bookkeeping shared by primaries,
    replicas and recovery replay."""

    def __init__(self):
        self.chains: dict[str, KeyChain] = {}
        # txn -> its commit epoch, or ABORTED: an aborted transaction
        # has no epoch
        self.decided: dict[str, object] = {}
        self.txn_keys: dict[str, dict] = {}  # txn -> {key: True}

    def touch(self, key: str) -> KeyChain:
        chain = self.chains.get(key)
        if chain is None:
            chain = self.chains[key] = KeyChain()
        return chain

    def insert_version(self, key: str, ts: Timestamp, value, epoch) -> None:
        # Last write wins: one transaction's later intent for the same key
        # supersedes the earlier one even when they fold in separately
        # (e.g. the outcome was settled before the intents were replayed).
        chain = self.touch(key)
        if ts not in chain.versions:
            bisect.insort(chain.order, ts)
        chain.versions[ts] = (value, epoch)

    def insert_intent(self, intent: IntentEntry) -> None:
        """Hold ``intent`` until its transaction is decided, or apply the
        outcome at once if it is already known (a replica may learn the
        verdict by a push before the intent's ship arrives)."""
        if intent.txn in self.decided:
            epoch = self.decided[intent.txn]
            if epoch != ABORTED:
                self.insert_version(intent.key, intent.ts, intent.value,
                                    epoch)
            return
        self.touch(intent.key).intents[intent.txn] = intent
        self.txn_keys.setdefault(intent.txn, {})[intent.key] = True

    def write(self, intent: IntentEntry, floor: Optional[int] = None):
        """The write rule -> ``(held, changed)``: the intent its key now
        holds for the transaction, or None if the write is refused, and
        whether the write changed it. A transaction's first write of a
        key is refused below the key's read timestamp or below ``floor``,
        a restarted node's bound in nanoseconds. Only a later op (a
        larger ``idx``) replaces the held intent, by a copy of ``intent``
        with the held one's proposal."""
        chain = self.touch(intent.key)
        held = chain.intents.get(intent.txn)
        if held is None:
            if (chain.rt is not None and intent.ts < chain.rt) or \
                    (floor is not None and intent.ts.nanos < floor):
                return None, False
            self.insert_intent(intent)
            return intent, True
        if intent.idx <= held.idx:
            return held, False
        held = chain.intents[intent.txn] = replace(intent,
                                                   proposal=held.proposal)
        return held, True

    def raise_floor(self, txn: str, floor: int) -> None:
        """An epoch floor for ``txn``: it commits into epoch ``floor`` or
        later, so lift its intents' proposals to at least that."""
        for key in self.txn_keys.get(txn, ()):
            intents = self.chains[key].intents
            if intents[txn].proposal < floor:
                intents[txn] = replace(intents[txn], proposal=floor)

    def resolve(self, txn: str, decision: str, epoch) -> bool:
        """Settle a transaction on its ``decision``, COMMITTED or
        ABORTED: promote or drop its intents. ``epoch`` is the commit
        epoch; every caller passes None with ABORTED, since an aborted
        record has none. Idempotent; works even when the outcome arrives
        before any intent has."""
        if txn in self.decided:
            return False
        self.decided[txn] = epoch if decision == COMMITTED else ABORTED
        for key in self.txn_keys.pop(txn, ()):
            intent = self.chains[key].intents.pop(txn, None)
            if intent is not None and decision == COMMITTED:
                self.insert_version(key, intent.ts, intent.value, epoch)
        return True


def apply_log_entry(store: KeyStore, entry) -> Optional[int]:
    """Replay one durable log entry into a store. Returns the epoch number
    when the entry is a cut marker, else None. Used verbatim by crash
    recovery and by replicas."""
    if isinstance(entry, IntentEntry):
        store.insert_intent(entry)
        return None
    if isinstance(entry, FinalizeEntry):
        store.resolve(entry.txn, entry.decision, entry.epoch)
        return None
    if isinstance(entry, CutEntry):
        return entry.epoch
    raise TypeError(f"unknown log entry {entry!r}")


class Settler:
    """Settles undecided intents for the readers parked on them.

    A reader that meets an undecided intent below its timestamp waits for
    the writer's verdict instead of guessing, and one push task per
    transaction asks the writer's recorder for it. A push is one request
    that asks until it is answered: the recorder says ``Pending`` while
    the transaction is undecided and answers once it is decided, so the
    push is a long poll that lasts as long as the transaction stays
    undecided. Primaries and replicas settle alike; each hands in
    ``apply(txn, decision, epoch)``, which folds a pushed verdict into its
    own state. Verdicts that arrive by other means (a finalize, or one
    shipped to a replica) wake the waiters through ``wake``.

    A replica also hands in ``above()``, its replayed epoch, and its
    pushes carry it. The recorder may then answer an undecided
    transaction with an epoch floor above that instead of a verdict: the
    floor is durable in the record, and the transaction commits into the
    floor's epoch or a later one, so it cannot land in a view the replica
    has already served. The settler raises the proposals of the
    transaction's intents to the floor and wakes the waiters. A waiter
    whose view the intent no longer reaches goes on; the others wait
    again, and a later push raises the floor further once the replica
    has replayed it.
    """

    def __init__(self, node: Node, store: KeyStore, apply, above=None):
        self.node = node
        self.store = store
        self.apply = apply
        self.above = above
        # txn -> the Future its waiters park on. The txn's push task runs
        # while it is here, or waits on for its answer after a finalize's
        # wake, when the txn is decided and no waiter looks here.
        self._decided: dict[str, Future] = {}

    def settle_below(self, env, chain: KeyChain, ts: Timestamp, reader: str,
                     view: Optional[int] = None,
                     refused: Optional[Future] = None):
        """Generator: wait until ``chain.blocker(ts, reader, view)`` finds
        nothing, or until ``refused`` is resolved. Before each wait the
        sender of ``env``, the request being served, is told that it is
        parked (``replication.tell_parked``, which tells it once)."""
        while refused is None or not refused.done:
            intent = chain.blocker(ts, reader, view)
            if intent is None:
                return
            tell_parked(self.node, env)
            yield from self.wait(intent.txn, intent.role, reader, refused)

    def wait(self, txn: str, role: str, reader: str,
             refused: Optional[Future] = None):
        """Generator: park ``reader`` until ``txn`` is decided or gets an
        epoch floor, or until ``refused`` is resolved, if that comes
        first."""
        if txn in self.store.decided:
            return
        k = self.node.k
        k.trace("push_wait", node=self.node.node_id, reader=reader, txn=txn)
        fut = self._decided.get(txn)
        if fut is None:
            fut = self._decided[txn] = Future(self.node.sim)
            k.spawn(self._push_task(txn, role))
        if refused is not None:
            first = Future(self.node.sim)
            fut.add_done(first.resolve)
            refused.add_done(first.resolve)
            fut = first
        yield fut
        k.trace("push_done", node=self.node.node_id, reader=reader, txn=txn)

    def settle(self, txn: str, decision: str, epoch) -> None:
        """Apply a verdict and wake whoever waits on it."""
        self.apply(txn, decision, epoch)
        self.wake(txn)

    def wake(self, txn: str) -> None:
        """Release the readers parked on ``txn``, which is decided or has
        an epoch floor; each re-checks what still blocks it."""
        fut = self._decided.pop(txn, None)
        if fut is not None:
            fut.resolve()

    def _push_task(self, txn: str, role: str):
        """Push until the recorder answers: a verdict settles ``txn``, and
        a floor, which answers a replica's push, lifts its intents'
        proposals; either way the waiters wake, and those the floor
        leaves blocked push again."""
        above = self.above() if self.above is not None else None
        resp = yield from request(self.node.k, role, PushReq(role, txn, above),
                                  roles=self.node.membership)
        if resp.decision is None:
            self.store.raise_floor(txn, resp.epoch)
            self.wake(txn)
        else:
            self.settle(txn, resp.decision, resp.epoch)


class DataNode(Node):
    """Primary for a key range; also hosts a recorder and an epoch cutter."""

    kind = "data"

    def __init__(self, sim, net, node_id, region, drift_ppm, storage, directory,
                 tsproxy_args, replicas, interval_ns):
        super().__init__(sim, net, node_id, region, drift_ppm)
        self.storage = storage
        self.stream = node_id  # this node's data log
        self.role_self = recorder_role(node_id)
        self.replicas = replicas  # where the data log ships
        self.tsproxy = TsProxy(self.k, **tsproxy_args)
        self.membership = directory
        self.cutter = EpochCutter(self, interval_ns)
        self._volatile_state()
        self.rt_floor: Optional[int] = None
        self.ready = True

    def _volatile_state(self) -> None:
        """What a crash loses; a restart rebuilds it from storage. The
        timestamp proxy drops its batch and keeps its counters."""
        self.tsproxy.forget()
        self.recorder = RecorderState(self)
        self.store = KeyStore()
        self.settler = Settler(self, self.store, self._apply_finalize)
        self.serving: dict[tuple, object] = {}  # see replication.serve

    def epoch_now(self) -> int:
        return self.cutter.epoch_now()

    def start(self) -> None:
        self.recorder.claim_initial(self.role_self)
        self.recorder.start()
        self.cutter.start()

    # -- wire dispatch ---------------------------------------------------------

    def handle(self, env) -> None:
        p = env.payload
        if isinstance(p, Heartbeat):
            self.recorder.on_heartbeat(p)
            return
        if isinstance(p, CatchUp):
            self.k.spawn(self._serve_catchup(env, p))
            return
        if not self.ready:
            return  # recovering: stay silent, senders retry
        if isinstance(p, ReadReq):
            serve(self, env, self._read_task(env, p))
        elif isinstance(p, WriteReq):
            serve(self, env, self._write_task(p))
        elif isinstance(p, FinalizeReq):
            self.settler.settle(p.txn, p.decision, p.epoch)
        elif isinstance(p, DecideReq):
            self.recorder.handle_decide(env, p)
        elif isinstance(p, PushReq):
            self.recorder.handle_push(env, p)

    # -- reads -------------------------------------------------------------------

    def _read_task(self, env, r: ReadReq):
        """Generator -> ReadResp, or a refused WriteResp alone. A read
        that carries a write applies the write rule in the same event,
        right after the read rule, and answers its ack too.

        A read that must park behind an undecided intent waits in the
        key's ``waiters``. One that carries a write is answered its
        write refused, with nothing read, as soon as the wake rule
        (``KeyChain.outbid``) dooms it: before it parks, or while it is
        parked, once a read above it parks. A parked op always reads when
        it wakes, so this is the refusal it would get then, without the
        wait."""
        chain = self.store.touch(r.key)
        parked = chain.blocker(r.ts, r.reader) is not None
        if parked:
            if r.write is not None and chain.outbid(r.ts):
                return WriteResp(False, None)
            refused = None if r.write is None else Future(self.sim)
            # Left in place if a crash kills the task: the crash replaces
            # the store, and with it the key's waiters.
            chain.park(r.reader, r.ts,
                       None if refused is None else refused.resolve)
            yield from self.settler.settle_below(
                env, chain, r.ts, r.reader, refused=refused)
            chain.unpark(r.reader)
            if refused is not None and refused.done:
                return WriteResp(False, None)
        vts, value = chain.read(r.ts)
        if r.write is None:
            ack = None
        else:
            ack = yield from self._write_task(r.write)
        return ReadResp(value, vts, ack)

    # -- writes -------------------------------------------------------------------

    def _write_task(self, w: WriteReq):
        if w.txn in self.store.decided:
            # Late retry of a settled transaction; nothing left to promise.
            return WriteResp(True, None)
        intent, changed = self.store.write(IntentEntry(
            w.txn, w.key, w.ts, w.value, w.role, self.epoch_now(), w.idx),
            floor=self.rt_floor)
        if intent is None:
            return WriteResp(False, None)
        if changed:  # else a re-ask or a late try: nothing to log
            yield self.append_log([intent])
        return WriteResp(True, intent.proposal)

    # -- settling -----------------------------------------------------------------

    def _apply_finalize(self, txn: str, decision: str, epoch) -> None:
        if self.store.resolve(txn, decision, epoch):
            self.append_log([FinalizeEntry(txn, decision, epoch)])

    # -- durable log ----------------------------------------------------------------

    def append_log(self, entries: list) -> Future:
        fut = self.storage.append(self.stream, entries, writer=self.node_id)

        def shipped(res):
            if res[0] == "ok":
                for dst in self.replicas:
                    self.k.send(dst, LogShip(res[1], entries))

        fut.add_done(shipped)
        return fut

    def _serve_catchup(self, env, req: CatchUp):
        entries = yield self.storage.read_stream(self.stream, req.have)
        if entries:
            self.k.send(env.src, LogShip(req.have, entries))

    # -- crash recovery ---------------------------------------------------------------

    def on_restart(self) -> None:
        # alive: the network delivers again (and our own tasks may run);
        # ready stays False so data-plane requests are ignored until the
        # durable streams have been replayed.
        self.alive = True
        self.ready = False
        self._volatile_state()
        self.k.spawn(self._recover())

    def _recover(self):
        entries = yield self.storage.read_stream(self.stream)
        cuts = 0
        for e in entries:
            ep = apply_log_entry(self.store, e)
            if ep is not None and ep > cuts:
                cuts = ep
        self.cutter.resume_at(cuts)
        # Reload whichever record streams the membership register still
        # assigns to this node (its own role, plus any it had adopted).
        roles = yield self.storage.list_roles_owned(self.node_id)
        for role in roles:
            yield from self.recorder.load_role(role)
        # The read-timestamp cache died with the process. Refuse writes
        # below a floor no pre-crash read can have exceeded: the next
        # timestamp the oracle hands out, led as far as any coordinator
        # leads one, or the last promised cut end.
        fresh = yield from self.tsproxy.acquire_waiting()
        self.rt_floor = max(promised_end_ns(cuts, self.cutter.interval_ns),
                            fresh.nanos + self._farthest_lead())
        self.recorder.start()
        self.cutter.start()
        self.ready = True
        self.k.trace("recovered", node=self.node_id, cuts=cuts,
                     rt_floor=self.rt_floor)

    def _farthest_lead(self) -> int:
        """The largest lead a coordinator gives a timestamp: the one-way
        delay from the farthest coordinator to the farthest data node,
        rounded up as ``Coordinator.lead`` rounds it."""
        nodes = self.net.nodes.values()
        coords = {n.region for n in nodes if n.kind == "coord"}
        primaries = {n.region for n in nodes if n.kind == "data"}
        far = max((self.net.latency.one_way_ns(a, b)
                   for a in coords for b in primaries), default=0)
        return lead_ns(far, self.tsproxy.ttl_ns)
