"""Deterministic discrete-event core: virtual clock, seeded RNG streams,
cooperative generator tasks, and a multi-region message network with fault
injection.

A single event heap drives a whole run. Events are ordered by
``(virtual time, global sequence number)``, so two runs with the same seed
and scenario fire the same events in the same order and produce
byte-identical traces. Randomness is never drawn from a shared pool:
every consumer asks the simulation for a named stream
(``sim.rng("net")``, ``sim.rng("oracle/3")``, ...) seeded from the run
seed plus the name, which keeps one component's draws from perturbing
another's.

Capability split: protocol code acts through a :class:`NodeKernel`, which
exposes the node's *drifting* local clock, local timers, messaging,
calls (requests that may be sent again, see :class:`Call`) and tasks --
and nothing that reveals ground truth. ``Simulation.true_now()`` is held
by the simulator itself, the trace log, and the offline checkers only.
A crash ends the node's work at once (``Node.crash``): it drops the replies
to the node's calls, closes its tasks and stops its timers.
"""

from __future__ import annotations

import heapq
import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Optional

from .errors import LivelockGuard

US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

#: Sentinel a call's wait resolves with when no reply arrived in time.
RPC_TIMEOUT = object()


def retry_backoff_ns(attempt: int) -> int:
    """Local-clock pause before retrying a request whose try number
    ``attempt``, counted from 0, timed out: 2 ms per try, at most 50 ms."""
    return min(2 * MS * (attempt + 1), 50 * MS)


# ---------------------------------------------------------------------------
# clock drift arithmetic
#
# A node's drift is a signed ppm value d with |d| <= the configured maximum.
# Positive d is a slow clock: a local duration L takes L*(1+d) of true time.
# Negative d is a fast clock: L takes L/(1+|d|) of true time. Integer
# rounding is chosen so a fired timer always lands inside the envelope
# [L/(1+D), L*(1+D)] for |d| <= D.
# ---------------------------------------------------------------------------


def local_interval_to_true(local_ns: int, drift_ppm: int) -> int:
    """True-time duration consumed while this node's clock advances local_ns."""
    if drift_ppm >= 0:
        return local_ns * (1_000_000 + drift_ppm) // 1_000_000
    num = local_ns * 1_000_000
    den = 1_000_000 - drift_ppm  # drift_ppm < 0, so den > 1e6
    return -(-num // den)  # ceil, keeps fast clocks inside the envelope


def true_interval_to_local(true_ns: int, drift_ppm: int) -> int:
    """Local-clock reading accumulated over a true-time duration."""
    if drift_ppm >= 0:
        return true_ns * 1_000_000 // (1_000_000 + drift_ppm)
    return true_ns * (1_000_000 - drift_ppm) // 1_000_000


#: Events a run may execute before it is taken for livelocked.
EVENT_CAP = 200_000_000


class Simulation:
    """Virtual time, the event heap, and named deterministic RNG streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now = 0
        self.events_run = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._rngs: dict[str, random.Random] = {}
        self.trace = TraceLog(self)

    # Ground truth. Protocol code must never call this; it reaches nodes
    # only through NodeKernel, which does not re-export it.
    def true_now(self) -> int:
        return self.now

    def rng(self, name: str) -> random.Random:
        r = self._rngs.get(name)
        if r is None:
            r = self._rngs[name] = random.Random(f"{self.seed}/{name}")
        return r

    def at(self, when: int, fn: Callable[[], None]) -> None:
        if when < self.now:
            when = self.now
        heapq.heappush(self._heap, (when, self._seq, fn))
        self._seq += 1

    def after(self, delay: int, fn: Callable[[], None]) -> None:
        self.at(self.now + delay, fn)

    def run_until(self, deadline: int, stop: Optional[Callable[[], bool]] = None) -> int:
        """Run events with time <= deadline; returns events executed.

        ``stop`` is polled after each event; when it turns true the loop
        exits early (used to end a run once every client finished).
        """
        ran = 0
        heap = self._heap
        while heap:
            when, _, fn = heap[0]
            if when > deadline:
                break
            heapq.heappop(heap)
            self.now = when
            fn()
            ran += 1
            self.events_run += 1
            if self.events_run > EVENT_CAP:
                raise LivelockGuard(
                    f"event budget exceeded ({EVENT_CAP}) at t={self.now}ns"
                )
            if stop is not None and stop():
                return ran
        if self.now < deadline:
            self.now = deadline
        return ran


class Future:
    """One-shot value produced later in virtual time.

    Callbacks run as their own scheduled events (same instant, later
    sequence number), which keeps resolution order deterministic and
    avoids re-entrancy into whatever resolved the future.
    """

    __slots__ = ("sim", "done", "value", "_cbs")

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.done = False
        self.value = None
        self._cbs: list | None = []

    def add_done(self, cb) -> None:
        if self.done:
            self.sim.after(0, lambda: cb(self.value))
        else:
            self._cbs.append(cb)

    def resolve(self, value=None) -> None:
        if self.done:
            return
        self.done = True
        self.value = value
        cbs, self._cbs = self._cbs, None
        for cb in cbs:
            self.sim.after(0, lambda cb=cb: cb(value))


class _Task:
    """Drives one generator task (see ``spawn``) while ``tasks`` lists
    it."""

    __slots__ = ("gen", "tasks", "result")

    def __init__(self, gen, tasks: dict, result: Future):
        self.gen = gen
        self.tasks = tasks
        self.result = result

    def step(self, value=None) -> None:
        if self not in self.tasks:
            return
        try:
            fut = self.gen.send(value)
        except StopIteration as stop:
            del self.tasks[self]
            self.result.resolve(stop.value)
            return
        fut.add_done(self.step)


def spawn(sim: Simulation, gen, tasks: Optional[dict] = None) -> Future:
    """Drive a generator task that yields Futures; returns a Future for its
    StopIteration value. The task is listed in ``tasks`` until it returns,
    and is resumed only while listed there: a node passes its kernel's
    dict of running tasks, which its crash empties (see ``Node.crash``)."""
    task = _Task(gen, {} if tasks is None else tasks, Future(sim))
    task.tasks[task] = None
    sim.after(0, task.step)
    return task.result


class TraceLog:
    """Append-only run log, which stamps ground-truth time so emitters
    never need to see it.

    The log is columnar and keeps no object per event. An event's shape
    is its kind and its tuple of field names. Each shape keeps one flat
    list of values, ``[t, v1, ..., vn, t, v1, ...]`` with stride n + 1,
    and ``_ids`` holds each event's shape id in emission order. ``t`` is
    the loop's own int and the values are the emitter's own objects, not
    copies (a ``Timestamp`` stays the tuple the protocol holds).
    ``events`` reads the log back as ``(true_ns, kind, fields)`` tuples
    with a fresh ``fields`` dict on each read."""

    __slots__ = ("sim", "events", "_ids", "_shapes", "_index")

    def __init__(self, sim: Optional[Simulation] = None):
        self.sim = sim
        self._ids = array("I")
        # shape id -> (kind, names, values)
        self._shapes: list[tuple[str, tuple, list]] = []
        # (kind, *names) -> (shape id, values)
        self._index: dict[tuple, tuple[int, list]] = {}
        self.events = TraceEvents(self._ids, self._shapes)

    def emit(self, kind: str, **fields) -> None:
        self.add(self.sim.now, kind, fields)

    def add(self, t: int, kind: str, fields: dict) -> None:
        """Append an event stamped ``t``; the log keeps ``fields``'
        values, not the dict."""
        shape = self._index.get((kind, *fields))
        if shape is None:
            shape = self._index[(kind, *fields)] = (len(self._shapes), [])
            self._shapes.append((kind, tuple(fields), shape[1]))
        self._ids.append(shape[0])
        values = shape[1]
        values.append(t)
        values += fields.values()


class TraceEvents(Sequence):
    """A read-only view of a ``TraceLog``: ``len``, iteration, indexes
    and slices, each event read as a ``(true_ns, kind, fields)`` tuple
    whose ``fields`` dict is built for that read, so changing it changes
    nothing in the log.

    Iteration, either way, keeps one cursor per shape and reads the
    events logged when it began. An index counts the events of its
    shape before it, and a slice iterates up to where it ends."""

    __slots__ = ("_ids", "_shapes")

    def __init__(self, ids: array, shapes: list):
        self._ids = ids
        self._shapes = shapes

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            start, stop, step = i.indices(n)
            if step > 0:
                return list(islice(self, start, stop, step))
            return list(islice(reversed(self), n - 1 - start, n - 1 - stop,
                               -step))
        j = i + n if i < 0 else i
        if not 0 <= j < n:
            raise IndexError("trace index out of range")
        s = self._ids[j]
        kind, names, values = self._shapes[s]
        o = self._ids[:j].count(s) * (len(names) + 1)
        end = o + 1 + len(names)
        return values[o], kind, dict(zip(names, values[o + 1:end]))

    def __iter__(self):
        # Each shape's iterator over its values is its cursor. zip takes
        # a name before each value, so it stops at the event's last one.
        shapes = [(kind, names, iter(values))
                  for kind, names, values in self._shapes]
        for s in islice(self._ids, len(self)):
            kind, names, it = shapes[s]
            yield next(it), kind, dict(zip(names, it))

    def __reversed__(self):
        shapes = self._shapes
        cursors = [len(values) for _kind, _names, values in shapes]
        for s in reversed(self._ids):
            kind, names, values = shapes[s]
            end = cursors[s]
            o = cursors[s] = end - 1 - len(names)
            yield values[o], kind, dict(zip(names, values[o + 1:end]))


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


class LatencyMatrix:
    """Region-to-region round-trip times; one-way delay is rtt/2 plus jitter."""

    def __init__(self, regions: list[str], rtt_ms: dict[tuple[str, str], float]):
        self.regions = list(regions)
        self._oneway_ns: dict[tuple[str, str], int] = {}
        for a in regions:
            for b in regions:
                key = (a, b) if (a, b) in rtt_ms else (b, a)
                if key not in rtt_ms:
                    raise KeyError(f"no rtt configured for {a}<->{b}")
                self._oneway_ns[(a, b)] = int(rtt_ms[key] * MS / 2)

    def one_way_ns(self, src_region: str, dst_region: str) -> int:
        return self._oneway_ns[(src_region, dst_region)]


@dataclass(slots=True)
class PartitionWindow:
    regions: frozenset  # isolated group; messages crossing the cut are dropped
    start_ns: int
    end_ns: int

    def cuts(self, a: str, b: str, t: int) -> bool:
        if not (self.start_ns <= t < self.end_ns):
            return False
        return (a in self.regions) != (b in self.regions)


@dataclass(slots=True)
class CrashDirective:
    """Crash ``node`` at ``at_ns``, and restart it at ``restart_at_ns``.
    With no restart the node stays down: requests to it are asked until
    the run ends, so the clients that need it wait rather than fail."""

    node: str
    at_ns: int
    restart_at_ns: Optional[int] = None


@dataclass(slots=True)
class OracleOutage:
    server_id: int
    start_ns: int
    end_ns: int


@dataclass(slots=True)
class TakeoverDirective:
    """Move a recorder role to another node at a virtual instant (the old
    owner is not told -- a 'fake crash' from the cluster's point of view)."""

    role: str
    to_node: str
    at_ns: int


@dataclass(slots=True)
class MsgFilter:
    """Drop a fraction of messages of specific payload kinds in a window."""

    kinds: frozenset
    prob: float
    start_ns: int = 0
    end_ns: int = 1 << 62


@dataclass
class FaultSchedule:
    drop_prob: float = 0.0
    reorder_prob: float = 0.0
    duplicate_prob: float = 0.0
    partitions: list[PartitionWindow] = field(default_factory=list)
    crashes: list[CrashDirective] = field(default_factory=list)
    oracle_outages: list[OracleOutage] = field(default_factory=list)
    takeovers: list[TakeoverDirective] = field(default_factory=list)
    msg_filters: list[MsgFilter] = field(default_factory=list)


class Envelope:
    __slots__ = ("src", "dst", "rid", "is_reply", "payload")

    def __init__(self, src, dst, rid, is_reply, payload):
        self.src = src
        self.dst = dst
        self.rid = rid
        self.is_reply = is_reply
        self.payload = payload


#: One-way delay between a node and its region's time oracle: an in-rack
#: path, so a batch fetch costs microseconds, well under the batch TTL.
ORACLE_ONE_WAY_NS = 9 * US


class Network:
    """Delivers envelopes between nodes with per-link latency, jitter, and
    the run's fault schedule (drops, reorders, duplicates, partitions)."""

    def __init__(
        self,
        sim: Simulation,
        latency: LatencyMatrix,
        faults: FaultSchedule,
        jitter_pct: float = 10.0,
    ):
        self.sim = sim
        self.latency = latency
        self.faults = faults
        self.jitter = jitter_pct / 100.0
        self.nodes: dict[str, Node] = {}
        self._rng = sim.rng("net")
        self.dropped = 0

    def register(self, node: "Node") -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node

    def _partitioned(self, a: str, b: str, t: int) -> bool:
        for w in self.faults.partitions:
            if w.cuts(a, b, t):
                return True
        return False

    def _filtered(self, payload, t: int) -> bool:
        for f in self.faults.msg_filters:
            if f.start_ns <= t < f.end_ns and type(payload).__name__ in f.kinds:
                if self._rng.random() < f.prob:
                    return True
        return False

    def one_way_ns(self, src: "Node", dst: "Node") -> int:
        """The configured one-way delay from ``src`` to ``dst``, before
        jitter. Time-oracle traffic stays inside the rack: it does not
        ride the inter-node latency matrix."""
        if src.kind == "oracle" or dst.kind == "oracle":
            return ORACLE_ONE_WAY_NS
        return self.latency.one_way_ns(src.region, dst.region)

    def _base_delay(self, src: "Node", dst: "Node") -> int:
        base = self.one_way_ns(src, dst)
        if self.jitter:
            base = int(base * (1.0 + self._rng.uniform(-self.jitter, self.jitter)))
        return max(base, 1)

    def send(self, src: "Node", dst_id: str, payload, rid: int = 0, is_reply: bool = False) -> None:
        if not src.alive:
            return
        dst = self.nodes[dst_id]
        now = self.sim.now
        if self._partitioned(src.region, dst.region, now):
            self.dropped += 1
            return
        if self.faults.drop_prob and self._rng.random() < self.faults.drop_prob:
            self.dropped += 1
            return
        if self._filtered(payload, now):
            self.dropped += 1
            return
        delay = self._base_delay(src, dst)
        if self.faults.reorder_prob and self._rng.random() < self.faults.reorder_prob:
            # Hold the message back long enough to overtake later traffic.
            delay = int(delay * self._rng.uniform(1.5, 3.0))
        env = Envelope(src.node_id, dst_id, rid, is_reply, payload)
        self.sim.after(delay, lambda: self._deliver(env))
        if self.faults.duplicate_prob and self._rng.random() < self.faults.duplicate_prob:
            dup_delay = int(delay * self._rng.uniform(1.0, 2.0))
            self.sim.after(dup_delay, lambda: self._deliver(env))

    def _deliver(self, env: Envelope) -> None:
        dst = self.nodes[env.dst]
        if not dst.alive:
            self.dropped += 1
            return
        if self._partitioned(self.nodes[env.src].region, dst.region,
                             self.sim.now):
            self.dropped += 1
            return
        dst.on_envelope(env)


class Node:
    """A simulated process: id, region, liveness, and a kernel that is the
    only window protocol code has onto the simulation."""

    kind = "node"

    def __init__(self, sim: Simulation, net: Network, node_id: str, region: str,
                 drift_ppm: int = 0):
        self.sim = sim
        self.net = net
        self.node_id = node_id
        self.region = region
        self.alive = True
        self.incarnation = 0
        self.k = NodeKernel(self, drift_ppm)
        net.register(self)

    def on_envelope(self, env: Envelope) -> None:
        if env.is_reply:
            self.k._complete_rpc(env.rid, env.payload)
        else:
            self.handle(env)

    def handle(self, env: Envelope) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- liveness -----------------------------------------------------------

    def crash(self) -> None:
        """Stop the process: the node hears nothing more, replies to its
        calls are dropped, its local timers do not fire, and every task it
        runs is closed, in spawn order, so each task's ``finally`` blocks
        run now. A restart starts from none of them.

        Those ``finally`` blocks must stay local bookkeeping (closing a
        call, counting a client out): one that sent, traced or scheduled
        would make the close order part of the run."""
        if not self.alive:
            return
        self.alive = False
        self.incarnation += 1
        self.k._pending_rpc.clear()
        tasks = list(self.k._tasks)
        self.k._tasks.clear()
        for task in tasks:
            task.gen.close()
        self.sim.trace.emit("crash", node=self.node_id)

    def restart(self) -> None:
        # Subclasses rebuild volatile state (possibly asynchronously from
        # durable storage) and flip `alive` back on when ready to serve.
        self.incarnation += 1
        self.sim.trace.emit("restart", node=self.node_id)
        self.on_restart()

    def on_restart(self) -> None:
        self.alive = True


class NodeKernel:
    """Per-node capability handle: drifting local clock, local timers,
    messaging, requests that may be sent again (``call``), task spawning
    and tracing. No ground truth."""

    __slots__ = ("_node", "drift_ppm", "_offset", "_pending_rpc", "_next_rid",
                 "_tasks")

    def __init__(self, node: Node, drift_ppm: int):
        self._node = node
        self.drift_ppm = drift_ppm
        # Arbitrary epoch offset so absolute local readings are meaningless
        # across nodes; only intervals carry information.
        self._offset = node.sim.rng("clock-offsets").randrange(0, SEC)
        # request id -> the Call that sent it, until the call closes
        self._pending_rpc: dict[int, Call] = {}
        self._next_rid = 1
        # the running tasks, in spawn order
        self._tasks: dict[_Task, None] = {}

    # -- clock ---------------------------------------------------------------

    def local_now(self) -> int:
        return self._offset + true_interval_to_local(self._node.sim.now, self.drift_ppm)

    def set_local_timer(self, local_duration_ns: int, fn) -> None:
        """Fire ``fn`` once the node's own clock has advanced the duration,
        unless the node crashes first. A dead node sets no timer."""
        node = self._node
        if not node.alive:
            return
        true_delay = max(1, local_interval_to_true(local_duration_ns, self.drift_ppm))
        inc = node.incarnation

        def fire():
            if node.incarnation == inc:
                fn()

        node.sim.after(true_delay, fire)

    def sleep_local(self, local_duration_ns: int) -> Future:
        fut = Future(self._node.sim)
        self.set_local_timer(local_duration_ns, fut.resolve)
        return fut

    # -- messaging -----------------------------------------------------------

    def send(self, dst_id: str, payload) -> None:
        self._node.net.send(self._node, dst_id, payload)

    def reply(self, env: Envelope, payload) -> None:
        self._node.net.send(self._node, env.src, payload, rid=env.rid, is_reply=True)

    def call(self, dst_id: str, payload) -> "Call":
        """A request to ``dst_id`` that may be sent several times, every
        try listening for the replies to all of them (see ``Call``)."""
        return Call(self, dst_id, payload)

    def _complete_rpc(self, rid: int, payload) -> None:
        call = self._pending_rpc.get(rid)
        if call is not None:
            call.hear(payload)

    # -- tasks / trace ---------------------------------------------------------

    def spawn(self, gen) -> Future:
        """Run ``gen`` as one of this node's tasks. A dead node runs
        nothing."""
        node = self._node
        if not node.alive:
            return Future(node.sim)
        return spawn(node.sim, gen, self._tasks)

    def trace(self, kind: str, **fields) -> None:
        sim = self._node.sim
        sim.trace.add(sim.now, kind, fields)

    def one_way_ns(self, dst_id: str) -> int:
        """The configured one-way delay to ``dst_id``, before jitter."""
        node = self._node
        return node.net.one_way_ns(node, node.net.nodes[dst_id])


class Call:
    """One request to one destination, sent once per try.

    Every try goes out under the call's one request id, which stays
    pending until ``close``: a re-send never discards an earlier try, so
    the first reply to any try is heard, however late it comes. That is
    the hedged-request rule of "The Tail at Scale" (Dean and Barroso,
    CACM 2013): under drops and reordering a late reply to the first try
    often lands before the reply to the second. A destination may answer
    one try more than once (an interim reply first, see
    ``messages.Pending``), and replies are taken in arrival order.
    """

    __slots__ = ("_k", "dst", "_payload", "_rid", "queue", "waiting")

    def __init__(self, k: NodeKernel, dst: str, payload):
        self._k = k
        self.dst = dst
        self._payload = payload
        self._rid = k._next_rid
        k._next_rid += 1
        self.queue: list = []  # replies heard and not yet taken
        self.waiting: Optional[Future] = None  # the wait for the next one

    def hear(self, payload) -> None:
        waiting = self.waiting
        if waiting is None:
            self.queue.append(payload)
        else:
            self.waiting = None
            waiting.resolve(payload)

    def ask(self, timeout_local_ns: int) -> Future:
        """Send one more try, unless a reply is already waiting to be
        taken; resolves with the next reply, or with RPC_TIMEOUT if none
        came within the local-clock timeout."""
        if not self.queue:
            k = self._k
            k._pending_rpc[self._rid] = self
            k._node.net.send(k._node, self.dst, self._payload, rid=self._rid)
        return self.listen(timeout_local_ns)

    def listen(self, timeout_local_ns: int) -> Future:
        """Like ``ask``, without sending."""
        fut = Future(self._k._node.sim)
        if self.queue:
            fut.resolve(self.queue.pop(0))
            return fut
        self.waiting = fut

        def on_timeout():
            if self.waiting is fut:
                self.waiting = None
                fut.resolve(RPC_TIMEOUT)

        self._k.set_local_timer(timeout_local_ns, on_timeout)
        return fut

    def close(self) -> None:
        """Stop listening: later replies to any try are dropped."""
        self._k._pending_rpc.pop(self._rid, None)
