"""Builds a full simulated deployment from a Scenario and runs it.

Creation order is fixed (oracles, data nodes, standbys, replicas,
coordinators) so seeded drift assignment and node ids are reproducible.
Standby nodes are full data nodes that the key router simply never picks:
they cut epochs, host their own recorder role, and can adopt someone
else's — which is exactly what the takeover fault injects.

A run's result is the cluster itself, and what it says is its trace.
Transaction outcomes are read from the history built over the trace, so
a transaction that a crash killed before it ended counts as unknown.
The clients add to the cluster's ``pending`` count and ``replica_reads``
list, and ``run`` stops once ``pending`` is back at zero. Only the
timestamp proxies' counters, which the trace does not hold, are read
from the nodes (``metrics.run_summary``).
"""

from __future__ import annotations

import zlib
from collections import Counter

from . import workload
from .clock import OracleServer
from .coordinator import Coordinator
from .mvto import DataNode
from .replica import ReplicaNode
from .replication import RoleDirectory, SharedStorage
from .scenario import Scenario, full_rtt_table
from .simnet import MS, LatencyMatrix, Network, Simulation


class Router:
    """Static hash partitioning of the keyspace over the data nodes."""

    __slots__ = ("ids",)

    def __init__(self, data_node_ids):
        self.ids = list(data_node_ids)

    def primary(self, key: str) -> str:
        return self.ids[zlib.crc32(key.encode()) % len(self.ids)]

    def written_primaries(self, t) -> set:
        """Primaries of the keys a traced transaction wrote."""
        return {self.primary(op[2]) for op in t.ops if op[1] == "w"}


class Cluster:
    def __init__(self, sc: Scenario):
        self.scenario = sc
        self.sim = Simulation(sc.seed)
        self.latency = LatencyMatrix(sc.regions, full_rtt_table(sc.regions))
        self.net = Network(self.sim, self.latency, sc.faults)
        self.storage = {r: SharedStorage(self.sim) for r in sc.regions}
        self._drift_rng = self.sim.rng("drift") if sc.drift_spread else None

        self.oracles = [
            OracleServer(self.sim, self.net, f"ts.{region}", region,
                         server_id=i, epsilon_ns=sc.epsilon_ns,
                         outages=sc.faults.oracle_outages)
            for i, region in enumerate(sc.regions)]

        data_ids = sc.data_node_ids()
        self.router = Router(data_ids)

        replicas_of = sc.replica_ids()
        self.data_nodes = [self._data_node(nid, region,
                                           replicas_of.get(nid, []))
                           for nid, region in zip(data_ids, sc.data_nodes)]
        self.standby_nodes = [self._data_node(nid, region, [])
                              for nid, region in zip(sc.standby_ids(),
                                                     sc.standbys)]

        self.replicas = []
        for nid, rids in replicas_of.items():
            for rid, rr in zip(rids, sc.replicate_to):
                self.replicas.append(ReplicaNode(
                    self.sim, self.net, rid, rr, self.drift(rid),
                    primary_id=nid, directory=RoleDirectory(self.storage),
                    interval_ns=sc.interval_ns,
                ))

        self.coordinators = []
        for nid, region in zip(sc.coordinator_ids(), sc.coordinators):
            self.coordinators.append(Coordinator(
                self.sim, self.net, nid, region, self.drift(nid),
                tsproxy_args=self.proxy_args(region), router=self.router,
                membership=RoleDirectory(self.storage),
            ))

        self._started = False
        #: Clients still running, and each answered replica read as
        #: ``(reader, ts, mode, replica, response)``; ``workload`` keeps both.
        self.pending = 0
        self.replica_reads: list = []
        self.end_ns = 0
        self._history = None

    def proxy_args(self, region: str) -> dict:
        sc = self.scenario
        return dict(oracle_id=f"ts.{region}", ttl_ns=sc.ttl_ns,
                    epsilon_ns=sc.epsilon_ns, max_drift_ppm=sc.max_drift_ppm,
                    mode=sc.ts_mode)

    def _data_node(self, nid: str, region: str, replicas: list) -> DataNode:
        """A data node owning its own recorder role, whose data log ships
        to ``replicas``. Standbys are built the same way, with none; the
        router just never picks them."""
        sc = self.scenario
        node = DataNode(
            self.sim, self.net, nid, region, self.drift(nid),
            storage=self.storage[region],
            directory=RoleDirectory(self.storage),
            tsproxy_args=self.proxy_args(region),
            replicas=replicas,
            interval_ns=sc.interval_ns,
        )
        self.storage[region].set_initial_owner(node.role_self, nid)
        return node

    def drift(self, node_id: str) -> int:
        """A node's drift: as the scenario lists it, else seeded in
        [-D, D] with ``drift_spread``, else none."""
        sc = self.scenario
        if node_id in sc.node_drift_ppm:
            return sc.node_drift_ppm[node_id]
        if self._drift_rng is not None:
            d = sc.max_drift_ppm
            return self._drift_rng.randrange(-d, d + 1)
        return 0

    # -- orchestration ------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for n in self.data_nodes + self.standby_nodes:
            n.start()
        for n in self.coordinators:
            n.start()
        sc = self.scenario
        for c in sc.faults.crashes:
            node = self.net.nodes[c.node]
            self.sim.at(c.at_ns, node.crash)
            if c.restart_at_ns is not None:
                self.sim.at(c.restart_at_ns, node.restart)
        for t in sc.faults.takeovers:
            self.sim.at(t.at_ns, self._takeover_fn(t))
        workload.spawn_clients(self)

    def _takeover_fn(self, t):
        def fire():
            home = RoleDirectory.home_region(t.role)
            old = self.storage[home].membership.get(t.role)
            new = self.net.nodes[t.to_node]
            new.k.spawn(new.recorder.adopt_role(t.role, old))

        return fire

    def run(self) -> Cluster:
        """Run the workload until every client is done or ``duration_ms``
        is up, then ``drain_ms`` more; returns the cluster."""
        sc = self.scenario
        self.start()
        self.sim.run_until(sc.duration_ms * MS, stop=lambda: self.pending == 0)
        self.sim.run_until(self.sim.now + sc.drain_ms * MS)
        self.end_ns = self.sim.now
        return self

    # -- the run's result ---------------------------------------------------------

    @property
    def trace(self):
        """The run's events, read as ``(true_ns, kind, fields)`` tuples: a
        read-only view over the trace log's columns of values
        (``simnet.TraceLog``). Timestamps in ``fields`` are the
        ``Timestamp`` tuples the protocol traced, where a written trace
        holds lists."""
        return self.sim.trace.events

    def history(self):
        from .history import build_history
        if self._history is None:
            self._history = build_history(self.trace)
        return self._history

    def outcomes(self) -> Counter:
        """Status -> number of transactions begun in the trace; one that
        never ended counts as unknown."""
        return Counter(t.status or "unknown"
                       for t in self.history().txns.values())

    def replicas_of(self) -> dict:
        """Primary node id -> replica node ids, a fresh mapping on each
        call (``Scenario.replica_ids``)."""
        return self.scenario.replica_ids()

    def written_primaries(self, t) -> set:
        return self.router.written_primaries(t)


def run_scenario(sc: Scenario) -> Cluster:
    return Cluster(sc).run()
