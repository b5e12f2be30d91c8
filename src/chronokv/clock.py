"""Time oracles: servers that answer a time request with an interval of
half-width epsilon guaranteed to contain the true instant.

Ground truth lives on the simulation; the oracle is the clock hardware,
so it reads it directly, while every other node sees only its own
drifting local clock (see ``simnet.NodeKernel``). Where the true instant
falls inside the interval is adversarial: drawn uniformly per call from a
seeded stream, so sweeps exercise the worst placements.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .messages import TsErr, TsReq, TsResp
from .simnet import US, Network, Node, Simulation


class UncertainTime(NamedTuple):
    """An oracle reading: true time is somewhere in [earliest, latest]."""

    earliest: int
    latest: int
    server_id: int


class TTCOracle:
    """The sampling core of one oracle server, separated from the wire so it
    can be driven directly in tests.

    Guarantees, per server:
      * containment: earliest <= true <= latest, with latest-earliest == 2*eps;
      * strictly increasing ``latest`` across calls;
      * no two ``latest`` values less than ``ttl_ns`` apart are congruent
        modulo ``step_ns``. Batches derive every issued timestamp from
        ``latest`` on a fixed step grid, so same-server grid collisions --
        two batches whose windows overlap and align -- would mint duplicate
        timestamps. Monotonicity alone does not rule that out; spacing the
        bounds off each other's grid residue does.

    The first two confine ``latest`` to the window
    ``[max(last_latest + 1, true_now), true_now + 2*eps]``. The drawn value
    is nudged upward off occupied residues; if that would leave the window,
    the search continues over the whole window, upward from the drawn value
    and then wrapping to its low end. A call raises only when the window is
    empty or holds no value on a free residue.
    """

    def __init__(self, server_id: int, epsilon_ns: int, rng, step_ns: int = 10,
                 ttl_ns: int = 100 * US):
        self.server_id = server_id
        self.epsilon_ns = epsilon_ns
        self.rng = rng
        self.step_ns = max(1, step_ns)
        self.ttl_ns = ttl_ns
        self._last_latest = -1
        self._recent: list[int] = []  # recent latest values, for grid spacing

    def sample(self, true_now: int, grid: bool = True) -> UncertainTime:
        eps = self.epsilon_ns
        skew = self.rng.randrange(0, 2 * eps + 1)
        lo = max(self._last_latest + 1, true_now)
        hi = true_now + 2 * eps
        if lo > hi:
            raise RuntimeError(
                "oracle cannot satisfy monotonic unique bounds at this rate"
            )
        latest = max(true_now + (2 * eps - skew), lo)
        if grid:
            latest = self._off_occupied_residues(latest, lo, hi)
            self._recent.append(latest)
        self._last_latest = latest
        return UncertainTime(latest - 2 * eps, latest, self.server_id)

    def _off_occupied_residues(self, start: int, lo: int, hi: int) -> int:
        """A value in [lo, hi] on a grid residue that no earlier ``latest``
        less than one TTL below it holds, preferring ``start``."""
        # Two batch bases can mint the same timestamp only when their
        # issue windows overlap (bases less than TTL apart) and they
        # agree modulo the grid step; nudge off occupied residues.
        step, ttl = self.step_ns, self.ttl_ns
        self._recent = [v for v in self._recent if v > lo - ttl]
        occupied = {v % step for v in self._recent if v > start - ttl}
        for latest in range(start, min(start + step, hi + 1)):
            if latest % step not in occupied:
                return latest
        # The nudge ran out of window: take the first free value upward
        # from start, else from the window's low end. A residue frees up
        # one TTL after the newest latest that holds it.
        newest: dict[int, int] = {}
        for v in self._recent:
            newest[v % step] = max(v, newest.get(v % step, v))
        for first, last in ((start, hi), (lo, start - 1)):
            found = []
            for r in range(step):
                value = max(first, newest[r] + ttl) if r in newest else first
                value += (r - value) % step
                if value <= last:
                    found.append(value)
            if found:
                return min(found)
        raise RuntimeError(
            "all grid residues occupied: more than step_ns batch fetches "
            "within one TTL window"
        )


class OracleServer(Node):
    """Wire wrapper for one TTCOracle; unavailable inside outage windows."""

    kind = "oracle"

    def __init__(self, sim: Simulation, net: Network, node_id: str, region: str,
                 server_id: int, epsilon_ns: int, step_ns: int, ttl_ns: int,
                 outages: Optional[list] = None):
        super().__init__(sim, net, node_id, region, drift_ppm=0)
        self.server_id = server_id
        self.core = TTCOracle(
            server_id, epsilon_ns, sim.rng(f"oracle/{server_id}"),
            step_ns=step_ns, ttl_ns=ttl_ns,
        )
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
        reading = self.core.sample(self.sim.true_now(), grid=env.payload.grid)
        self.sim.trace.emit(
            "oracle", srv=self.server_id, lo=reading.earliest, hi=reading.latest
        )
        self.k.reply(env, TsResp(reading.earliest, reading.latest, self.server_id))
