"""Time oracles: servers that answer a time request with an interval of
half-width epsilon guaranteed to contain the true instant.

Ground truth lives on the simulation; the oracle is the clock hardware,
so it reads it directly, while every other node sees only its own
drifting local clock (see ``simnet.NodeKernel``). Where the true instant
falls inside the interval is adversarial: drawn uniformly per call from a
seeded stream, so sweeps exercise the worst placements.
"""

from __future__ import annotations

from typing import Optional

from .messages import TsErr, TsReq, TsResp
from .simnet import Network, Node, Simulation


class TTCOracle:
    """The sampling core of one oracle server, separated from the wire so it
    can be driven directly in tests. A reading is the server's reply, a
    ``TsResp``.

    Guarantees, per server:
      * containment: earliest <= true <= latest, with latest-earliest == 2*eps;
      * strictly increasing ``latest`` across calls.

    Both confine ``latest`` to the window
    ``[max(last_latest + 1, true_now), true_now + 2*eps]``; the drawn value
    is bumped up to the window's low end when it falls below it. A call
    raises only when the window is empty.
    """

    def __init__(self, server_id: int, epsilon_ns: int, rng):
        self.server_id = server_id
        self.epsilon_ns = epsilon_ns
        self.rng = rng
        self._last_latest = -1

    def sample(self, true_now: int) -> TsResp:
        eps = self.epsilon_ns
        skew = self.rng.randrange(0, 2 * eps + 1)
        lo = max(self._last_latest + 1, true_now)
        hi = true_now + 2 * eps
        if lo > hi:
            raise RuntimeError(
                "oracle cannot satisfy monotonic unique bounds at this rate"
            )
        latest = max(true_now + (2 * eps - skew), lo)
        self._last_latest = latest
        return TsResp(latest - 2 * eps, latest, self.server_id)


class OracleServer(Node):
    """Wire wrapper for one TTCOracle; unavailable inside outage windows."""

    kind = "oracle"

    def __init__(self, sim: Simulation, net: Network, node_id: str, region: str,
                 server_id: int, epsilon_ns: int,
                 outages: Optional[list] = None):
        super().__init__(sim, net, node_id, region, drift_ppm=0)
        self.server_id = server_id
        self.core = TTCOracle(server_id, epsilon_ns,
                              sim.rng(f"oracle/{server_id}"))
        self.outages = outages or []

    def _out(self) -> bool:
        t = self.sim.now
        for o in self.outages:
            if o.server_id == self.server_id and o.start_ns <= t < o.end_ns:
                return True
        return False

    def handle(self, env) -> None:
        if not isinstance(env.payload, TsReq):
            return
        if self._out():
            self.k.reply(env, TsErr())
            return
        # The oracle *is* the clock hardware: it reads ground truth.
        reading = self.core.sample(self.sim.true_now())
        self.sim.trace.emit(
            "oracle", srv=self.server_id, lo=reading.earliest, hi=reading.latest
        )
        self.k.reply(env, reading)
