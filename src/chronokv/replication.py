"""Durable logs, the shared storage layer beneath them, and the retry
loops every request is sent through.

Each data node owns an append-only stream of log entries (write intents,
finalizations, epoch cut markers) and each recorder role owns a stream of
transaction-record updates: a decision, sometimes preceded by an epoch
floor. Streams live in a per-region SharedStorage
that survives every crash. Appends become durable after a configurable
flush latency and are applied atomically in event order, which makes the
membership registers linearizable and lets fencing be checked at the
moment an append lands: a recorder that lost its role gets a fence instead
of a commit point.

Transaction records are traced when their append lands, not when the
recorder learns that it did: the stream outlives the recorder, so a
record whose writer crashed mid-append is still durable, and still
traced. A fenced append lands nothing and traces nothing.

Every request that may be sent again goes through one of two retry
loops, one per kind of destination. A request to a fixed node (a data
op, a replica read, an oracle fetch) goes through ``call_node``. A
request to a recorder role (a decide or a push) goes to the owner its
membership register names, through ``RoleDirectory.call``, which
re-reads the owner when a try times out or is refused. Consecutive
tries to one node are tries of one ``simnet.Call``, so a reply to any
of them is heard (the hedged-request rule of Dean and Barroso, "The
Tail at Scale", CACM 2013). ``serve`` is the server half: a re-ask of a
request still being served gets ``messages.Pending`` and starts no
second task (the at-most-once rule of Birrell and Nelson, TOCS 1984).

Log positions double as replication sequence numbers: primaries ship
their data log's durable entries to replicas, which apply them strictly
in order and repair gaps go-back-N style by asking for everything from
the first missing position. Record streams are not shipped: a replica
learns outcomes from its primary's finalizes, or by pushing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .messages import NotOwner, Pending
from .simnet import MS, RPC_TIMEOUT, Future, Simulation, retry_backoff_ns

FENCED = "fenced"

#: The shortest wait of a long poll: a push for a verdict, or a request
#: answered ``Pending``, is asked again no sooner than this.
LONG_POLL_NS = 30 * MS


def call_node(k, node_id: str, payload, timeout_ns: Optional[int] = None,
              attempts: int = 30):
    """Generator -> ``node_id``'s reply to ``payload`` sent from kernel
    ``k``, or None after ``attempts`` tries, each after the first backed
    off by ``retry_backoff_ns``. A try waits ``timeout_ns``; by default
    1.25 round trips to ``node_id``, which cover its two ±10% jittered
    legs and a write's flush, and at least 5 ms. A try answered by
    ``Pending`` waits for the answer that follows, and asks again every
    ``LONG_POLL_NS`` (or try timeout, if longer) while the request is
    still being served; only a try that hears nothing at all counts
    against ``attempts``."""
    if timeout_ns is None:
        timeout_ns = max(k.one_way_ns(node_id) * 5 // 2, 5 * MS)
    reask = max(timeout_ns, LONG_POLL_NS)
    call = k.call(node_id, payload)
    try:
        for i in range(attempts):
            if i:
                yield k.sleep_local(retry_backoff_ns(i - 1))
            resp = yield call.ask(timeout_ns)
            while isinstance(resp, Pending):
                resp = yield call.listen(reask)
                if resp is RPC_TIMEOUT:
                    resp = yield call.ask(timeout_ns)
            if resp is not RPC_TIMEOUT:
                return resp
        return None
    finally:
        call.close()


def serve(node, env, task) -> None:
    """Spawn ``task``, which answers ``env``, unless ``node.serving`` holds
    its ``(sender, request id)``: a try of the same call is being served,
    and its answer answers this one too, which gets ``Pending``."""
    call_id = (env.src, env.rid)
    serving = node.serving
    if call_id in serving:
        return node.k.reply(env, Pending())
    serving.add(call_id)

    def run():
        yield from task
        serving.discard(call_id)

    node.k.spawn(run())


# -- log entries -------------------------------------------------------------


@dataclass(slots=True, frozen=True)
class IntentEntry:
    txn: str
    key: str
    ts: tuple
    value: str
    role: str  # recorder role that will decide this transaction
    proposal: int  # epoch in force when the intent was logged
    idx: int = 0  # the WriteReq's idx


@dataclass(slots=True, frozen=True)
class FinalizeEntry:
    txn: str
    decision: str
    epoch: Optional[int]


@dataclass(slots=True, frozen=True)
class CutEntry:
    epoch: int


@dataclass(slots=True, frozen=True)
class RecordEntry:
    txn: str
    status: str
    epoch: Optional[int]


class SharedStorage:
    """Region-local durable layer: fenced append streams plus a linearizable
    membership register per recorder role."""

    def __init__(self, sim: Simulation, flush_ns: int = MS // 2):
        self.sim = sim
        self.flush_ns = max(1, flush_ns)
        self.read_ns = max(1, flush_ns // 2)
        self.streams: dict[str, list] = {}
        self.membership: dict[str, str] = {}

    # Initial ownership is cluster wiring, not a runtime event.
    def set_initial_owner(self, role: str, node_id: str) -> None:
        self.membership[role] = node_id

    def append(self, stream: str, entries: list, writer: str,
               role: Optional[str] = None) -> Future:
        """Durably append after the flush latency. Resolves with
        ``("ok", start_pos)`` or ``("fenced",)`` if ``role`` is given and the
        writer no longer owns it at flush time. Each transaction record
        that lands is traced here, at the flush, so it reaches the trace
        even when the writer crashed while the append was in flight."""
        fut = Future(self.sim)

        def flush():
            if role is not None and self.membership.get(role) != writer:
                fut.resolve((FENCED,))
                return
            log = self.streams.setdefault(stream, [])
            start = len(log)
            log.extend(entries)
            for e in entries:
                if isinstance(e, RecordEntry):
                    self.sim.trace.emit("record", role=stream, txn=e.txn,
                                        status=e.status, epoch=e.epoch)
            fut.resolve(("ok", start))

        self.sim.after(self.flush_ns, flush)
        return fut

    def _after_read(self, compute) -> Future:
        """A future resolved with ``compute()`` after the read latency."""
        fut = Future(self.sim)
        self.sim.after(self.read_ns, lambda: fut.resolve(compute()))
        return fut

    def read_stream(self, stream: str, start: int = 0) -> Future:
        return self._after_read(
            lambda: list(self.streams.get(stream, ())[start:]))

    def cas_membership(self, role: str, expected: str, new: str) -> Future:
        """Compare-and-swap the role owner; resolves with True iff it won."""

        def apply():
            if self.membership.get(role) != expected:
                return False
            self.membership[role] = new
            return True

        return self._after_read(apply)

    def get_owner(self, role: str) -> Future:
        return self._after_read(lambda: self.membership.get(role))

    def list_roles_owned(self, node_id: str) -> Future:
        """Roles the register currently assigns to ``node_id`` (used by a
        restarting node to find which record streams to reload)."""
        return self._after_read(
            lambda: [r for r, o in self.membership.items() if o == node_id])


def recorder_role(node_id: str) -> str:
    """The recorder role a data node owns from birth. Its name ends with
    the node's region, which ``RoleDirectory.home_region`` reads back."""
    return f"rec/{node_id}"


class RoleDirectory:
    """A node's cache of recorder role owners, and the one way to send a
    request to a role's owner.

    The truth is the membership register in the storage of the role's
    home region, which ends its name (``rec/d0.SH`` lives in SH) and never
    changes: takeover moves the owner, not the stream. A cached lookup
    costs nothing; a miss, or one after ``invalidate``, reads the register
    through ``refresh``.
    """

    def __init__(self, storages: dict[str, SharedStorage]):
        self._storages = storages
        self._owners: dict[str, str] = {}

    @staticmethod
    def home_region(role: str) -> str:
        return role.rsplit(".", 1)[1]

    def invalidate(self, role: str) -> None:
        self._owners.pop(role, None)

    def lookup(self, role: str):
        """Generator -> current owner (may yield one storage read)."""
        owner = self._owners.get(role)
        if owner is not None:
            return owner
        return (yield from self.refresh(role))

    def refresh(self, role: str):
        """Generator -> the owner the register names now, read from
        storage, which the cache then holds."""
        owner = yield self._storages[self.home_region(role)].get_owner(role)
        if owner is not None:
            self._owners[role] = owner
        return owner

    def call(self, k, role: str, payload, attempts: Optional[int] = 1,
             floor_ns: int = 5 * MS):
        """Generator -> the reply of ``role``'s owner to ``payload`` sent
        from kernel ``k``, or None after ``attempts`` tries (never, if
        ``attempts`` is None). With no owner registered a try sleeps 5 ms.
        A timeout (at least ``floor_ns``) drops the cached owner, and the
        next try first backs off by ``retry_backoff_ns``; a NotOwner drops
        it and the next try starts at once. Tries in a row to one owner
        listen for each other's replies (see ``simnet.Call``)."""
        call = None
        try:
            for i in itertools.count():
                if i == attempts:
                    return None
                owner = yield from self.lookup(role)
                if owner is None:
                    yield k.sleep_local(5 * MS)
                    continue
                if call is None or call.dst != owner:
                    if call is not None:
                        call.close()
                    call = k.call(owner, payload)
                resp = yield call.ask(k.rpc_timeout_for(owner, floor_ns))
                if resp is RPC_TIMEOUT:
                    self.invalidate(role)
                    if i + 1 != attempts:
                        yield k.sleep_local(retry_backoff_ns(i))
                elif isinstance(resp, NotOwner):
                    self.invalidate(role)
                else:
                    return resp
        finally:
            if call is not None:
                call.close()
