"""Host-time attribution for a traced pass, from outside the program.

``Tracer.installed()`` wraps the program's public entry points for the
duration of a ``with`` block and restores them after:

* every callback handed to ``Simulation.at`` runs inside a span named
  for the module its code lives in;
* every task handed to ``simnet.spawn`` is resumed inside a span named
  for the module of its generator function;
* the layer verbs (message handlers, storage calls, timestamp acquires,
  the coordinator's transaction phases, ``Network.send``) are wrapped
  directly, and the generator verbs also record their span in virtual
  time.

A span's self time is its duration minus the spans nested in it, so each
host nanosecond of a run lands in exactly one module. The wrappers only
observe: they schedule nothing, draw no randomness and change no order,
which the benchmark proves by comparing trace digests with an untraced
pass.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from chronokv import simnet
from chronokv.clock import OracleServer
from chronokv.coordinator import Coordinator, RecorderState
from chronokv.errors import OracleUnavailable
from chronokv.mvto import DataNode
from chronokv.replica import ReplicaNode
from chronokv.replication import SharedStorage
from chronokv.tsbatch import TsProxy

PREFIX = "chronokv."


def _label(module) -> str:
    if module and module.startswith(PREFIX):
        return module[len(PREFIX):]
    return "other"


class _TimedIter:
    """Stands in for a generator: each resume runs inside a span, and the
    virtual time from creation to return is recorded under ``vspan``."""

    __slots__ = ("_tr", "_label", "_gen", "_vspan", "_t0")

    def __init__(self, tracer, label, gen, vspan=None):
        self._tr = tracer
        self._label = label
        self._gen = gen
        self._vspan = vspan
        self._t0 = tracer.sim.now if vspan is not None else 0

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        try:
            return self._tr.span(self._label, self._gen.send, value)
        except StopIteration:
            if self._vspan is not None:
                self._tr.vspans[self._vspan].append(self._tr.sim.now - self._t0)
            raise

    def throw(self, *exc):
        return self._tr.span(self._label, self._gen.throw, *exc)

    def close(self):
        self._gen.close()


class Tracer:
    """Span self times by module, call counts and virtual phase spans."""

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.vspans: dict = defaultdict(list)
        self.proxies: list = []
        self.sim = None  # set once the cluster exists
        self._children = [0]

    def span(self, label, fn, *args, **kwargs):
        children = self._children
        children.append(0)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            d = perf_counter_ns() - t0
            self.self_ns[label] += d - children.pop()
            children[-1] += d

    # -- wrapper factories -------------------------------------------------------

    def _plain(self, label, orig, count=None):
        span = self.span
        counts = self.counts

        def wrapper(*args, **kwargs):
            if count is not None:
                count(counts, args)
            return span(label, orig, *args, **kwargs)

        return wrapper

    def _genfn(self, label, orig, vspan=None):
        tracer = self

        def wrapper(*args):
            return _TimedIter(tracer, label, orig(*args), vspan)

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, name, new in self._replacements():
                saved.append((owner, name, owner.__dict__[name]))
                setattr(owner, name, new)
            yield self
        finally:
            for owner, name, value in reversed(saved):
                setattr(owner, name, value)

    def _replacements(self):
        span = self.span
        counts = self.counts
        orig_at = simnet.Simulation.at

        def at(sim, when, fn):
            counts["at"] += 1
            if when <= sim.now:
                counts["at_zero"] += 1
            label = _label(getattr(fn, "__module__", None))
            return span("simnet", orig_at, sim, when,
                        lambda: span(label, fn))

        orig_spawn = simnet.spawn

        def spawn(sim, gen, guard=None):
            frame = getattr(gen, "gi_frame", None)
            module = frame.f_globals.get("__name__") if frame else None
            return orig_spawn(sim, _TimedIter(self, _label(module), gen), guard)

        def on_send(c, args):
            c["send"] += 1
            c["msg." + type(args[3]).__name__] += 1

        def on_data(c, args):
            node, env = args
            if node.ready:
                c["data." + type(env.payload).__name__] += 1

        def on_replica(c, args):
            c["replica." + type(args[1].payload).__name__] += 1

        def on_append(c, args):
            c["appends"] += 1
            c["entries"] += len(args[2])

        def on_read_stream(c, args):
            c["stream_reads"] += 1

        def on_decide(c, args):
            c["decides"] += 1

        orig_proxy_init = TsProxy.__init__

        def proxy_init(proxy, *args, **kwargs):
            orig_proxy_init(proxy, *args, **kwargs)
            self.proxies.append(proxy)

        orig_acquire = TsProxy.acquire

        def acquire(proxy):
            return _TimedIter(self, "tsbatch", self._acquire(orig_acquire, proxy),
                              "acquire")

        plain = self._plain
        yield simnet.Simulation, "at", at
        yield simnet.Simulation, "run_until", plain(
            "simnet", simnet.Simulation.run_until)
        yield simnet, "spawn", spawn
        yield simnet.Network, "send", plain(
            "simnet.send", simnet.Network.send, on_send)
        yield OracleServer, "handle", plain("clock", OracleServer.handle)
        yield DataNode, "handle", plain("mvto", DataNode.handle, on_data)
        yield ReplicaNode, "handle", plain(
            "replica", ReplicaNode.handle, on_replica)
        yield SharedStorage, "append", plain(
            "replication", SharedStorage.append, on_append)
        yield SharedStorage, "read_stream", plain(
            "replication", SharedStorage.read_stream, on_read_stream)
        yield RecorderState, "handle_decide", plain(
            "coordinator", RecorderState.handle_decide, on_decide)
        yield TsProxy, "__init__", proxy_init
        yield TsProxy, "acquire", acquire
        for verb, phase in (("run_txn", None), ("begin", None),
                            ("execute_read", "read"),
                            ("execute_write", "write"), ("commit", "commit")):
            yield Coordinator, verb, self._genfn(
                "coordinator", getattr(Coordinator, verb), phase)

    def _acquire(self, orig_acquire, proxy):
        """The acquire generator, counting the OracleUnavailable it raises."""
        try:
            return (yield from orig_acquire(proxy))
        except OracleUnavailable:
            self.counts["unavailable"] += 1
            raise
