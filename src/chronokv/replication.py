"""Durable logs, the shared storage layer beneath them, and the retry
loop every request is sent through.

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

Every request that may be sent again goes through one retry loop,
``request``, to a fixed node (a data op, a replica read, an oracle
fetch) or to a recorder role (a decide or a push). A role's request goes
to the owner its membership register names, looked up before each try
and read again after a try that heard nothing or was refused. Every try
waits by one rule (``try_timeout_ns``) and backs off by one rule
(``retry_backoff_ns``). Consecutive tries to one node are tries of one
``simnet.Call``, so a reply to any of them is heard (the hedged-request
rule of Dean and Barroso, "The Tail at Scale", CACM 2013). ``serve`` is
the server half: a re-ask of a request still being served gets
``messages.Pending`` and starts no second task (the at-most-once rule of
Birrell and Nelson, TOCS 1984), and every server that parks a request
says ``Pending`` at once. The sender then only asks again every
``LONG_POLL_NS``, in case the answer is lost.

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
from .simnet import MS, RPC_TIMEOUT, SEC, Future, Simulation, retry_backoff_ns

FENCED = "fenced"

#: The shortest wait of a long poll: a request answered ``Pending`` is
#: asked again no sooner than this.
LONG_POLL_NS = 30 * MS

#: How long a server keeps an answer for a late try of its call: a try
#: crosses the answer in flight, or follows it once it is lost, well
#: within this.
REPLY_KEEP_NS = SEC


def try_timeout_ns(k, node_id: str) -> int:
    """The one try rule: a try to ``node_id`` from kernel ``k`` waits 1.25
    round trips, which cover its two ±10% jittered legs and a flush, and
    at least 5 ms."""
    return max(k.one_way_ns(node_id) * 5 // 2, 5 * MS)


def request(k, dst: str, payload, attempts: Optional[int] = 30,
            timeout_ns: Optional[int] = None,
            roles: Optional[RoleDirectory] = None):
    """Generator -> the reply to ``payload`` sent from kernel ``k`` to node
    ``dst`` or, given ``roles``, to the owner of recorder role ``dst``,
    which ``roles`` looks up before each try; or None after ``attempts``
    tries (never, if ``attempts`` is None).

    A try waits ``timeout_ns``, by default ``try_timeout_ns``. A try that
    hears nothing drops the role's cached owner, and the next try first
    backs off by ``retry_backoff_ns``. A NotOwner drops it too and ends
    the call: the next try starts at once, as a new call. With no owner
    registered a try sleeps 5 ms. A try answered ``Pending`` waits for
    the answer that follows, and asks again every ``LONG_POLL_NS`` (or
    timeout, if longer) while the request is still being served: those
    re-asks are not tries, and they keep the cached owner."""
    call = resp = None
    try:
        for i in itertools.count():
            if i == attempts:
                return None
            owner = dst if roles is None else (yield from roles.lookup(dst))
            if owner is None:
                yield k.sleep_local(5 * MS)
                continue
            if call is None or call.dst != owner or \
                    isinstance(resp, NotOwner):
                if call is not None:
                    call.close()
                call = k.call(owner, payload)
            timeout = timeout_ns or try_timeout_ns(k, owner)
            resp = yield call.ask(timeout)
            while isinstance(resp, Pending):
                resp = yield call.listen(max(timeout, LONG_POLL_NS))
                if resp is RPC_TIMEOUT:
                    resp = yield call.ask(timeout)
            if resp is not RPC_TIMEOUT and not isinstance(resp, NotOwner):
                return resp
            if roles is not None:
                roles.invalidate(dst)
            if resp is RPC_TIMEOUT and i + 1 != attempts:
                yield k.sleep_local(retry_backoff_ns(i))
    finally:
        if call is not None:
            call.close()


def serve(node, env, task) -> None:
    """Run ``task``, a generator that returns the answer to ``env``, and
    send that answer. ``node.serving`` holds the last reply to each call
    it serves, by ``(sender, request id)``: a try of the same call starts
    no second task, and gets that reply again, or ``Pending`` if there is
    none yet. An answer is kept for ``REPLY_KEEP_NS``."""
    call_id = (env.src, env.rid)
    serving = node.serving
    if call_id in serving:
        return node.k.reply(env, serving[call_id] or Pending())
    serving[call_id] = None

    def run():
        answer = serving[call_id] = yield from task
        node.k.reply(env, answer)
        node.k.set_local_timer(REPLY_KEEP_NS,
                               lambda: serving.pop(call_id, None))

    node.k.spawn(run())


def tell_parked(node, env) -> None:
    """Tell the sender of ``env``, which ``node`` serves, that its request
    is parked: at once, and once."""
    call_id = (env.src, env.rid)
    if node.serving.get(call_id) is None:
        node.serving[call_id] = Pending()
        node.k.reply(env, Pending())


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
    """A node's cache of recorder role owners, which ``request`` reads
    before each try to a role.

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
