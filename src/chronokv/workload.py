"""Synthetic clients: transaction mixes and replica readers.

Clients are closed-loop generator tasks, each with its own named RNG
stream, so a run is a pure function of the scenario seed. Transaction
clients run on their home coordinator's kernel. Replica readers are
clients of the replicas, not of the coordinator: each coordinator's
readers share one client host in its region, with its own timestamp
proxy, so they outlive a crash of the coordinator. A replica read is
sent through ``replication.request`` like any request, and waits as
long as its view takes to replay: the replica says ``Pending`` at once,
and the read is only asked again every ``LONG_POLL_NS``. A read whose
every try goes unanswered is not recorded. A stale read asks for a view
``STALE_LAG_NS`` older than a fresh timestamp. Written values are
globally unique (``client.txnseq.opidx``) which lets the checkers match
every read to the exact write that produced it.

The client set keeps no transaction outcomes: the trace holds every
transaction, one whose client a crash killed included.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .messages import ReplicaReadReq
from .replication import request
from .simnet import MS, Node
from .tsbatch import Timestamp, TsProxy

# How far behind a fresh timestamp a stale replica read asks to read.
STALE_LAG_NS = 300 * MS


class ZipfKeys:
    """Zipfian popularity over a fixed keyspace (rank 1 hottest)."""

    def __init__(self, n: int, theta: float):
        weights = [1.0 / (rank ** theta) for rank in range(1, n + 1)]
        total = sum(weights)
        acc = 0.0
        self._cdf = []
        for w in weights:
            acc += w
            self._cdf.append(acc / total)
        self._names = [f"k{rank:05d}" for rank in range(n)]

    def sample(self, rng) -> str:
        i = bisect.bisect_left(self._cdf, rng.random())
        return self._names[min(i, len(self._names) - 1)]


def build_program(rng, spec, interval_ns: int, tag: str, zipf: ZipfKeys):
    """One transaction's ops. ``tag`` uniquifies written values."""
    kind = spec.kind
    if kind == "mix":
        kind = "slow_commit" if rng.random() < spec.slow_fraction else "ycsb"
    ops = []
    if kind == "ycsb" or kind == "blind":
        for i in range(spec.ops_per_txn):
            key = zipf.sample(rng)
            if kind == "blind" or rng.random() < spec.write_ratio:
                ops.append(("w", key, f"{tag}.{i}"))
            else:
                ops.append(("r", key))
    elif kind == "rmw":
        i = 0
        while len(ops) < spec.ops_per_txn:
            key = zipf.sample(rng)
            ops.append(("r", key))
            ops.append(("w", key, f"{tag}.{i}"))
            i += 1
    elif kind == "slow_commit":
        # Stay open across epoch cuts: the late writes land with higher
        # epoch proposals and replicas must honor them.
        hold = max(1, int(spec.hold_intervals * interval_ns))
        key = zipf.sample(rng)
        ops.append(("w", key, f"{tag}.0"))
        ops.append(("hold", hold))
        ops.append(("w", zipf.sample(rng), f"{tag}.1"))
    else:  # pragma: no cover - validated at scenario load
        raise ValueError(kind)
    return ops


@dataclass
class ClientSet:
    replica_reads: list = field(default_factory=list)
    pending: int = 0

    def all_done(self) -> bool:
        return self.pending == 0


def spawn_clients(cluster) -> ClientSet:
    sc = cluster.scenario
    cs = ClientSet()
    zipf = ZipfKeys(sc.workload.keys, sc.workload.zipf_theta)
    for coord in cluster.coordinators:
        for j in range(sc.clients_per_coordinator):
            cid = f"{coord.node_id}/{j}"
            rng = cluster.sim.rng(f"client/{cid}")
            cs.pending += 1
            coord.k.spawn(_txn_client(coord, cluster, cs, rng, cid, zipf))
    if not sc.replicate_to:
        return cs
    # Built after every cluster node, so no earlier seeded draw moves.
    hosts: dict = {}
    for j in range(sc.replica_readers):
        i = j % len(cluster.coordinators)
        host = hosts.get(i)
        if host is None:
            region = cluster.coordinators[i].region
            hid = f"r{i}.{region}"
            host = hosts[i] = ClientHost(cluster.sim, cluster.net, hid, region,
                                         cluster.drift(hid),
                                         cluster.proxy_args(region))
        rng = cluster.sim.rng(f"rreader/{j}")
        cs.pending += 1
        host.k.spawn(_replica_reader(host, cluster, cs, rng, j, zipf))
    return cs


class ClientHost(Node):
    """A client machine: it sends requests and takes timestamps from its
    own proxy, and serves nothing."""

    kind = "client"

    def __init__(self, sim, net, node_id: str, region: str, drift_ppm: int,
                 tsproxy_args: dict):
        super().__init__(sim, net, node_id, region, drift_ppm)
        self.tsproxy = TsProxy(self.k, **tsproxy_args)

    def handle(self, env) -> None:
        pass


def _txn_client(coord, cluster, cs, rng, cid, zipf):
    sc = cluster.scenario
    try:
        for i in range(sc.txns_per_client):
            program = build_program(rng, sc.workload, sc.interval_ns,
                                    f"{cid}.{i}", zipf)
            yield from coord.run_txn(program)
    finally:
        cs.pending -= 1


def _replica_reader(host, cluster, cs, rng, idx, zipf):
    sc = cluster.scenario
    try:
        for i in range(sc.replica_reads_per_reader):
            mode = sc.replica_read_mode
            if mode == "mixed":
                mode = "fresh" if rng.random() < 0.5 else "stale"
            fresh = yield from host.tsproxy.acquire_waiting()
            if mode == "fresh":
                ts = fresh
            else:
                ts = Timestamp(max(1, fresh.nanos - STALE_LAG_NS),
                               fresh.server_id)
            region = sc.replicate_to[rng.randrange(len(sc.replicate_to))]
            keys = sorted({zipf.sample(rng), zipf.sample(rng)})
            # A key is readable only at replicas of its own primary.
            by_replica: dict = {}
            for key in keys:
                target = f"{cluster.router.primary(key)}@{region}"
                by_replica.setdefault(target, []).append(key)
            reader = f"rr{idx}.{i}"
            for n, (target, group) in enumerate(sorted(by_replica.items())):
                req = ReplicaReadReq(group, ts, f"{reader}.{n}", mode)
                resp = yield from request(host.k, target, req)
                if resp is not None:
                    cs.replica_reads.append(
                        (f"{reader}.{n}", ts, mode, target, resp))
            yield host.k.sleep_local(5 * MS)
    finally:
        cs.pending -= 1
