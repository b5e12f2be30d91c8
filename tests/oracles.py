"""Reference oracles and harnesses that only the tests use.

Nothing in ``chronokv`` calls what is here: a brute-force serializability
search with a synthesizer of small histories of known ground truth, a
delta-debugger, a standalone stream of transaction programs, and a
region of hosts that only take timestamps, with the two drivers that
measure the timestamp guarantee and batching against it.
"""

import random

from conftest import one_region, run_until_done

from chronokv.clock import OracleServer
from chronokv.errors import OracleUnavailable
from chronokv.history import History, TxnInfo
from chronokv.simnet import MS
from chronokv.tsbatch import Timestamp
from chronokv.workload import ClientHost, ZipfKeys, build_program

# ---------------------------------------------------------------------------
# serializability by brute force


def _replay_values_only(txn: TxnInfo, store: dict) -> bool:
    """Replay against ``store`` (key -> value), then apply writes in place.
    The brute-force oracle compares values only: version timestamps are an
    implementation detail the definition of serializability doesn't see."""
    buf: dict = {}
    for _i, kind, key, _vts, val in sorted(txn.ops):
        if kind == "w":
            buf[key] = val
        elif buf.get(key, store.get(key)) != val:
            return False
    store.update(buf)
    return True


def brute_force_serializable(txns: list, initial: dict = None):
    """Search for any total order that respects real time and reproduces
    all reads (values only). Returns a witness order or None. Factorial:
    only sensible for small histories."""
    txns = [t for t in txns if t.committed]
    store0 = dict(initial or {})

    def extend(order, remaining, store):
        if not remaining:
            return order
        for idx, t in enumerate(remaining):
            # t may go next only if nothing unscheduled released before
            # t began (such a transaction must precede t in real time).
            if any(u.end_ns < t.begin_ns for u in remaining if u is not t):
                continue
            trial = dict(store)
            if not _replay_values_only(t, trial):
                continue
            found = extend(order + [t],
                           remaining[:idx] + remaining[idx + 1:], trial)
            if found is not None:
                return found
        return None

    return extend([], list(txns), store0)


def synthesize_history(rng, txn_count: int = 5, key_count: int = 3,
                       corrupt: str = "none") -> History:
    """Build a small history with known ground truth.

    ``corrupt="none"`` yields a genuinely serializable run: overlapping
    intervals, each containing its commit point, reads filled in from the
    serial order (interval containment makes real-time order agree with
    commit order automatically). ``"fabricate"`` rewrites one read to a
    value no write ever produced; ``"stale_chain"`` builds a strictly
    sequential run — a unique admissible order — and points one read at
    an outdated version. Both corruptions are unserializable by
    construction, so the fast checker and the brute-force oracle must
    agree on every output of this generator."""
    keys = [f"x{i}" for i in range(key_count)]
    sequential = corrupt == "stale_chain"
    h = History()
    store: dict = {}
    t_cursor = 1000
    for n in range(txn_count):
        if sequential:
            begin = t_cursor + rng.randrange(5, 20)
            dur = rng.randrange(10, 30)
            end = begin + dur
            commit_at = begin + dur // 2
            t_cursor = end
        else:
            commit_at = t_cursor
            begin = commit_at - rng.randrange(5, 400)
            end = commit_at + rng.randrange(5, 400)
            t_cursor += rng.randrange(20, 120)
        ts = Timestamp(commit_at, 0)
        txn = TxnInfo(f"t{n}", begin_ns=begin, end_ns=end,
                      status="committed", ts=ts)
        buf: dict = {}
        for i in range(rng.randrange(1, 4)):
            key = keys[rng.randrange(len(keys))]
            if rng.random() < 0.5:
                val = f"t{n}.{i}"
                txn.ops.append((i, "w", key, None, val))
                buf[key] = val
            else:
                if key in buf:
                    vts, val = ts, buf[key]
                else:
                    vts, val = store.get(key, (None, None))
                txn.ops.append((i, "r", key, vts, val))
        for key, val in buf.items():
            store[key] = (ts, val)
        h.txns[txn.txn] = txn
    if corrupt == "fabricate":
        _corrupt_fabricate(rng, h)
    elif corrupt == "stale_chain":
        _corrupt_stale(rng, h)
    return h


def _corrupt_fabricate(rng, h: History) -> None:
    reads = [(txn, op) for txn in h.txns.values()
             for op in txn.ops if op[1] == "r"]
    if not reads:
        txn = next(iter(h.txns.values()))
        txn.ops.append((len(txn.ops), "r", "x0", Timestamp(1, 0),
                        "value-from-nowhere"))
        return
    txn, op = reads[rng.randrange(len(reads))]
    i, _kind, key, _vts, _val = op
    txn.ops[txn.ops.index(op)] = (i, "r", key, Timestamp(1, 0),
                                  "value-from-nowhere")


def _corrupt_stale(rng, h: History) -> None:
    """In a sequential history, point the last transaction's read at a
    version one writer too old (planting the two writes if needed)."""
    txns = sorted(h.txns.values(), key=lambda t: t.ts)
    if len(txns) < 3:
        return _corrupt_fabricate(rng, h)
    w1, w2, victim = txns[0], txns[1], txns[-1]
    key = "x0"
    for t in (w1, w2, victim):
        t.ops = [op for op in t.ops if op[2] != key]
    w1.ops.append((len(w1.ops), "w", key, None, "old-version"))
    w2.ops.append((len(w2.ops), "w", key, None, "new-version"))
    victim.ops.append((len(victim.ops), "r", key, w1.ts, "old-version"))


def shrink_counterexample(items: list, still_fails, budget: int = 1000) -> list:
    """Greedy delta-debugger: drop items while the predicate keeps
    failing. ``still_fails(subset) -> bool``."""
    current = list(items)
    spent = 0
    improved = True
    while improved and spent < budget:
        improved = False
        for i in range(len(current) - 1, -1, -1):
            if spent >= budget:
                break
            trial = current[:i] + current[i + 1:]
            spent += 1
            if still_fails(trial):
                current = trial
                improved = True
    return current


# ---------------------------------------------------------------------------
# transaction programs without a cluster


def generate(spec, seed: int, count: int, interval_ns: int = 100 * MS):
    """Standalone stream of transaction programs — what the clients would
    run, without a cluster. Deterministic in (spec, seed)."""
    spec.validate()
    rng = random.Random(seed)
    zipf = ZipfKeys(spec.keys, spec.zipf_theta)
    return [build_program(rng, spec, interval_ns, f"gen.{i}", zipf)
            for i in range(count)]


# ---------------------------------------------------------------------------
# the timestamp service alone


def _oracle_region(seed: int, epsilon_ns: int, ttl_ns: int,
                   max_drift_ppm: int):
    """One region holding one time oracle, for hosts that only take
    timestamps. Returns the simulation and ``add_host(idx, drift_ppm,
    mode)``, which adds host ``h<idx>`` with its own timestamp proxy."""
    region = "R0"
    sim, net = one_region(seed, region=region)
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
    interval. Returns the cycles completed, the (hopefully empty)
    violation list and the acquisitions the oracle failed.
    """
    sim, add_host = _oracle_region(seed, epsilon_ns, ttl_ns, max_drift_ppm)
    state = {"done": 0, "issued": 0, "oracle_failures": 0}
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
            host.k.spawn(stream(host, proxy, proxy.commit_wait(0), quota, rng))
            idx += 1

    run_until_done(sim, lambda: state["done"] == total_streams)
    return {
        "txns": state["issued"],
        "violations": violations,
        "oracle_failures": state["oracle_failures"],
    }


def bench_timestamp_service(seed: int, mode: str, n: int = 20_000,
                            spacing_ns: int = 50, epsilon_ns: int = 100_000,
                            ttl_ns: int = 100_000, max_drift_ppm: int = 200):
    """Drive a single proxy with ``n`` acquisitions ``spacing_ns`` apart.
    Returns the proxy's counters, the acquisitions that failed and the
    commit wait of ``mode``."""
    sim, add_host = _oracle_region(seed, epsilon_ns, ttl_ns, max_drift_ppm)
    host, proxy = add_host(0, 0, mode)
    state = {"done": False, "failures": 0}

    def driver():
        for _ in range(n):
            try:
                yield from proxy.acquire()
            except OracleUnavailable:
                state["failures"] += 1
            yield host.k.sleep_local(spacing_ns)
        state["done"] = True

    host.k.spawn(driver())
    run_until_done(sim, lambda: state["done"])
    return {
        "requests": proxy.requests,
        "fetches": proxy.fetches,
        "served_local": proxy.served_local,
        "failures": state["failures"],
        "commit_wait_ns": proxy.commit_wait(0),
    }
