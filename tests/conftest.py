"""Shared scaffolding: a one-region simulation, a generator driver and
the horizon every wait is bounded by.

Most tests build their own scenario; these helpers only cover the common
case of poking a single node or proxy without a full cluster.
"""

from chronokv.messages import Pending
from chronokv.simnet import (
    FaultSchedule,
    LatencyMatrix,
    Network,
    Node,
    SEC,
    Simulation,
)

#: How much virtual time a test lets pass while it waits for a task.
#: Requests are asked until they are answered, so a task that can never
#: end would run forever: past this horizon it fails instead.
HORIZON_NS = 3600 * SEC


class Host(Node):
    """Inert node that remembers every request envelope it receives."""

    kind = "host"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.inbox = []

    def handle(self, env):
        self.inbox.append(env)


def one_region(seed=1, faults=None, region="R0", rtt_ms=0.2, jitter_pct=10.0):
    sim = Simulation(seed)
    net = Network(sim, LatencyMatrix([region], {(region, region): rtt_ms}),
                  faults or FaultSchedule(), jitter_pct=jitter_pct)
    return sim, net


def run_until_done(sim, done, horizon_ns=HORIZON_NS):
    """Run ``sim`` until ``done()`` holds, for at most ``horizon_ns`` of
    virtual time from now."""
    sim.run_until(sim.now + horizon_ns, stop=done)
    assert done(), "did not finish within the horizon"


def drive(sim, kernel, gen, horizon_ns=HORIZON_NS):
    """Run a generator task on a node's kernel to completion, within
    ``horizon_ns`` of virtual time."""
    fut = kernel.spawn(gen)
    run_until_done(sim, lambda: fut.done, horizon_ns)
    return fut.value


def ask_once(kernel, dst, payload, timeout_ns):
    """Generator -> ``dst``'s reply to one try of ``payload`` sent from
    ``kernel``, or RPC_TIMEOUT."""
    call = kernel.call(dst, payload)
    resp = yield call.ask(timeout_ns)
    call.close()
    return resp


def replies_to_one_try(kernel, dst, payload, timeout_ns):
    """Generator -> the replies to one try of ``payload`` sent from
    ``kernel``, each heard within ``timeout_ns`` of the last, up to the
    first that is not ``Pending`` (RPC_TIMEOUT, if none came)."""
    call = kernel.call(dst, payload)
    replies = [(yield call.ask(timeout_ns))]
    while isinstance(replies[-1], Pending):
        replies.append((yield call.listen(timeout_ns)))
    call.close()
    return replies
