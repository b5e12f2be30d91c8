"""Shared scaffolding: a one-region simulation and a generator driver.

Most tests build their own scenario; these helpers only cover the common
case of poking a single node or proxy without a full cluster.
"""

from chronokv.simnet import (
    FaultSchedule,
    LatencyMatrix,
    Network,
    Node,
    Simulation,
)


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


def drive(sim, kernel, gen, deadline=1 << 62):
    """Run a generator task on a node's kernel to completion."""
    fut = kernel.spawn(gen)
    sim.run_until(deadline, stop=lambda: fut.done)
    assert fut.done, "task did not finish before the deadline"
    return fut.value


def ask_once(kernel, dst, payload, timeout_ns):
    """Generator -> ``dst``'s reply to one try of ``payload`` sent from
    ``kernel``, or RPC_TIMEOUT."""
    call = kernel.call(dst, payload)
    resp = yield call.ask(timeout_ns)
    call.close()
    return resp
