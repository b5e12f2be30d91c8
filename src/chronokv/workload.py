"""Synthetic clients: transaction mixes, replica readers, and a
timestamp-service micro-benchmark.

Clients are closed-loop generator tasks, each with its own named RNG
stream, so a run is a pure function of the scenario seed. Transaction
clients run on their home coordinator's kernel. Replica readers are
clients of the replicas, not of the coordinator: each coordinator's
readers share one client host in its region, with its own timestamp
proxy, so they outlive a crash of the coordinator. A replica read is
sent through ``replication.call_node`` like any request to a fixed
node, with a try timeout long enough to wait out a fresh read's view;
a read whose every try goes unanswered is not recorded. A stale read
asks for a view ``STALE_LAG_NS`` older than a fresh timestamp. Written
values are globally unique (``client.txnseq.opidx``) which lets the
checkers match every read to the exact write that produced it.

The client set keeps no transaction outcomes: the trace holds every
transaction, one whose client a crash killed included.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .clock import OracleServer
from .errors import OracleUnavailable
from .messages import ReplicaReadReq
from .metrics import percentile
from .replication import call_node
from .simnet import (
    MS,
    FaultSchedule,
    LatencyMatrix,
    Network,
    Node,
    Simulation,
)
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


def generate(spec, seed: int, count: int, interval_ns: int = 100 * MS):
    """Standalone stream of transaction programs — what the clients would
    run, without a cluster. Deterministic in (spec, seed)."""
    import random

    spec.validate()
    rng = random.Random(seed)
    zipf = ZipfKeys(spec.keys, spec.zipf_theta)
    return [build_program(rng, spec, interval_ns, f"gen.{i}", zipf)
            for i in range(count)]


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
                # Fresh reads may legitimately block for a whole epoch
                # interval before the needed cut replays; time out well
                # beyond that.
                timeout = max(host.k.rpc_timeout_for(target),
                              3 * sc.interval_ns + 100 * MS)
                resp = yield from call_node(host.k, target, req, timeout)
                if resp is not None:
                    cs.replica_reads.append(
                        (f"{reader}.{n}", ts, mode, target, resp))
            yield host.k.sleep_local(5 * MS)
    finally:
        cs.pending -= 1


# ---------------------------------------------------------------------------
# timestamp service micro-benchmark


def _oracle_region(seed: int, epsilon_ns: int, ttl_ns: int,
                   max_drift_ppm: int):
    """One region holding one time oracle, for hosts that only take
    timestamps. Returns the simulation and ``add_host(idx, drift_ppm,
    mode)``, which adds host ``h<idx>`` with its own timestamp proxy."""
    region = "R0"
    sim = Simulation(seed)
    net = Network(sim, LatencyMatrix([region], {(region, region): 0.2}),
                  FaultSchedule())
    OracleServer(sim, net, f"ts.{region}", region, server_id=0,
                 epsilon_ns=epsilon_ns)

    def add_host(idx: int, drift_ppm: int, mode: str = "batched"):
        host = ClientHost(sim, net, f"h{idx}.{region}", region, drift_ppm,
                          dict(oracle_id=f"ts.{region}", ttl_ns=ttl_ns,
                               epsilon_ns=epsilon_ns,
                               max_drift_ppm=max_drift_ppm, mode=mode))
        return host, host.tsproxy

    return sim, add_host


def timestamp_property_sweep(seed: int, txns: int = 10_000, hosts: int = 10,
                             streams_per_host: int = 2,
                             epsilon_ns: int = 100_000, ttl_ns: int = 100_000,
                             max_drift_ppm: int = 200):
    """The timestamp guarantee, measured against ground truth: for every
    transaction-shaped cycle (acquire, commit-wait on the local clock),
    the true instant before acquisition < ts < the true instant after the
    wait. Hosts alternate between +D and -D drift — the worst legal
    clocks — and the oracle places true time adversarially within its
    interval. Returns counters and the (hopefully empty) violation list.
    """
    sim, add_host = _oracle_region(seed, epsilon_ns, ttl_ns, max_drift_ppm)
    state = {"done": 0, "issued": 0, "fetches": 0, "oracle_failures": 0}
    violations = []
    total_streams = hosts * streams_per_host

    def stream(host, proxy, cwt_ns, quota, rng):
        for _ in range(quota):
            start = sim.true_now()
            try:
                ts = yield from proxy.acquire()
            except OracleUnavailable:
                state["oracle_failures"] += 1
                continue
            yield host.k.sleep_local(cwt_ns)
            end = sim.true_now()
            state["issued"] += 1
            if not (start < ts.nanos < end):
                if len(violations) < 50:
                    violations.append((host.node_id, start, ts.nanos, end))
            # jitter the inter-txn gap so hosts fall out of lockstep
            yield host.k.sleep_local(rng.randrange(1, 10_000))
        state["done"] += 1

    idx = 0
    for hi in range(hosts):
        drift = max_drift_ppm if hi % 2 == 0 else -max_drift_ppm
        # one proxy per host: its streams share the batch
        host, proxy = add_host(hi, drift)
        for si in range(streams_per_host):
            quota = txns // total_streams + (1 if idx < txns % total_streams
                                             else 0)
            rng = sim.rng(f"p1/{hi}/{si}")
            host.k.spawn(stream(host, proxy, proxy.cwt_ns, quota, rng))
            idx += 1

    sim.run_until(1 << 62, stop=lambda: state["done"] == total_streams)
    return {
        "seed": seed,
        "txns": state["issued"],
        "violations": violations,
        "oracle_failures": state["oracle_failures"],
        "commit_wait_ns": proxy.cwt_ns,
    }


def bench_timestamp_service(seed: int, mode: str, n: int = 20_000,
                            spacing_ns: int = 50, epsilon_ns: int = 100_000,
                            ttl_ns: int = 100_000, max_drift_ppm: int = 200):
    """Drive a single proxy with ``n`` acquisitions ``spacing_ns`` apart.

    Returns counters and acquisition-latency stats. An acquisition served
    from the live batch completes in the same instant (latency 0); only
    fetch initiators pay the oracle round trip.
    """
    sim, add_host = _oracle_region(seed, epsilon_ns, ttl_ns, max_drift_ppm)
    host, proxy = add_host(0, 0, mode)
    lats = []
    state = {"done": False, "failures": 0, "last": None}

    def driver():
        for _ in range(n):
            t0 = sim.now
            try:
                ts = yield from proxy.acquire()
                state["last"] = ts
                lats.append(sim.now - t0)
            except OracleUnavailable:
                state["failures"] += 1
            yield host.k.sleep_local(spacing_ns)
        state["done"] = True

    host.k.spawn(driver())
    sim.run_until(1 << 60, stop=lambda: state["done"])
    return {
        "mode": mode,
        "requests": proxy.requests,
        "fetches": proxy.fetches,
        "served_local": proxy.served_local,
        "local_ratio": proxy.served_local / max(1, proxy.requests),
        "failures": state["failures"],
        "latency_p50_ns": percentile(lats, 50) if lats else 0,
        "latency_p99_ns": percentile(lats, 99) if lats else 0,
        "latency_max_ns": max(lats, default=0),
        "commit_wait_ns": proxy.cwt_ns,
    }
