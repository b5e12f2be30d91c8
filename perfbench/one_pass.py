"""One pass of one workload: build the cluster, run it, check it, measure.

Run as a script, it performs a single pass in this fresh process and
prints the result as one JSON line; ``run.py`` starts one process per
pass so that peak memory belongs to that pass alone. Every metric is a
``[value, unit, samples]`` triple. Host metrics carry the unit ``s`` or
``MB``; all others are counts or virtual-time figures that repeat
exactly at a fixed seed.

    python3 perfbench/one_pass.py --workload steady --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter, perf_counter_ns

import numpy as np

from workloads import WORKLOADS

from chronokv import checkers, metrics
from chronokv.checkers import run_all_checks
from chronokv.cluster import Cluster
from chronokv.history import build_history

MS = 1_000_000
SEC = 1_000 * MS

SETUP_REPEATS = 20
CHECK_REPEATS = 5
SLICE_NS = 10 * MS  # virtual time per timed slice of Cluster.run()
REGIONS = ("SH", "BJ", "GZ", "GY", "SG")
MSG_TYPES = ("TsReq", "ReadReq", "WriteReq", "RecordCreate", "DecideReq",
             "FinalizeReq", "PushReq", "Heartbeat", "LogShip", "CatchUp")
# Printed in the readable report but not declared in BENCHMARK.json:
# hot-rmw has no replicas; checks_failed is 0 on most runs; the result
# line carries ops_total and ops_failed as attempted and failed; and
# run_s and check_s swing by up to 34% (quartile spread over median,
# ten seeds) with the load other tenants put on a shared machine, too
# much for any bound a regression gate can have.
REPORT_ONLY = {"vis_p50_ms", "vis_p99_ms", "rread_p50_ms", "rread_p99_ms",
               "checks_failed", "ops_total", "ops_failed", "run_s", "check_s"}


def percentile(values, q: float):
    """The q-quantile (0 < q < 1) of ``values``, or None when fewer than
    ten samples lie beyond it: such a figure is refused, not reported."""
    n = len(values)
    if n - math.ceil(q * n) < 10:
        return None
    return float(np.percentile(np.asarray(values, dtype=float), q * 100))


class Report:
    """Metric triples plus the names of refused percentiles."""

    def __init__(self):
        self.metrics: dict = {}
        self.refused: list = []

    def put(self, name, value, unit, samples=None):
        self.metrics[name] = [value, unit, samples]

    def pct_ms(self, name, samples_ns, q):
        v = percentile(samples_ns, q)
        if v is None:
            self.refused.append(name)
        else:
            self.put(name, v / MS, "ms", len(samples_ns))


def trace_digest(events) -> str:
    """SHA-256 of the trace as JSONL, one event per line, the format
    ``history.write_trace`` writes below its header."""
    h = hashlib.sha256()
    for t, kind, fields in events:
        h.update(json.dumps([t, kind, fields], separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def outcome_metrics(rep: Report, result, h, verdicts) -> list:
    """End-to-end virtual metrics and the failure accounting; returns the
    names of the violated properties."""
    txns = list(h.txns.values())
    committed = [t for t in txns if t.committed]
    lat = [t.end_ns - t.begin_ns for t in committed]
    rep.pct_ms("txn_p50_ms", lat, 0.50)
    rep.pct_ms("txn_p99_ms", lat, 0.99)
    # Not committed: aborted, failed, unknown, and begun but never ended.
    rep.put("abort_rate", (len(txns) - len(committed)) / len(txns), "share",
            len(txns))
    first = min(t.begin_ns for t in txns)
    last = max(t.end_ns for t in txns if t.end_ns is not None)
    rep.put("goodput_tps", len(committed) / ((last - first) / SEC), "1/s",
            len(committed))

    replicas_of = result.replicas_of()
    if replicas_of:
        vis = metrics.visibility_delays(
            h, replicas_of=replicas_of,
            written_primaries=result.written_primaries)
        delays = [d for _t, d in vis["series"]]
        rep.pct_ms("vis_p50_ms", delays, 0.50)
        rep.pct_ms("vis_p99_ms", delays, 0.99)
        rread = [r.end_ns - r.start_ns for r in h.rreads]
        rep.pct_ms("rread_p50_ms", rread, 0.50)
        rep.pct_ms("rread_p99_ms", rread, 0.99)

    violated = sorted(v.name for v in verdicts if not v.ok)
    rep.put("checks_failed", len(violated), "count", len(verdicts))

    # A replica read counts as attempted once a replica saw it, and as
    # failed when its client never got the answer.
    answered = {rr[0] for rr in result.replica_reads}
    seen = {f["reader"] for _t, kind, f in result.trace
            if kind == "rread_start"} | answered
    txn_failed = sum(1 for t in txns
                     if t.status in ("failed", "unknown", None))
    rep.put("ops_total", len(txns) + len(seen), "count")
    rep.put("ops_failed", txn_failed + len(seen - answered), "count")
    return violated


def layer_metrics(rep: Report, tracer, cluster, result, h) -> None:
    """Per-module counts, virtual spans and host self times."""
    c = tracer.counts
    trace = result.trace
    self_s = {k: v / 1e9 for k, v in tracer.self_ns.items()}
    committed = sum(1 for t in h.txns.values() if t.committed)

    rep.put("simnet.events", cluster.sim.events_run, "count")
    rep.put("simnet.zero_delay_share", c["at_zero"] / c["at"], "share", c["at"])
    rep.put("simnet.loop_self_s", self_s.get("simnet", 0.0), "s")
    rep.put("simnet.send_s", self_s.get("simnet.send", 0.0), "s")
    rep.put("simnet.msgs_sent", c["send"], "count")
    rep.put("simnet.msgs_dropped", cluster.net.dropped, "count")
    for t in MSG_TYPES:
        rep.put(f"simnet.msgs.{t}", c["msg." + t], "count")
    rep.put("simnet.msgs_per_commit", c["send"] / committed, "count", committed)

    rep.put("clock.oracle_samples",
            sum(1 for e in trace if e[1] == "oracle"), "count")
    rep.put("clock.oracle_errors", c["msg.TsErr"], "count")

    requests = sum(p.requests for p in tracer.proxies)
    rep.put("tsbatch.requests", requests, "count")
    rep.put("tsbatch.fetches", sum(p.fetches for p in tracer.proxies), "count")
    rep.put("tsbatch.local_ratio",
            sum(p.served_local for p in tracer.proxies) / requests, "share",
            requests)
    rep.pct_ms("tsbatch.acquire_p50_ms", tracer.vspans["acquire"], 0.50)
    rep.pct_ms("tsbatch.acquire_p99_ms", tracer.vspans["acquire"], 0.99)
    rep.put("tsbatch.unavailable", c["unavailable"], "count")

    for phase in ("read", "write", "commit"):
        rep.pct_ms(f"coordinator.{phase}_p50_ms", tracer.vspans[phase], 0.50)
        rep.pct_ms(f"coordinator.{phase}_p99_ms", tracer.vspans[phase], 0.99)
    by_region = {r: [] for r in REGIONS}
    for t in h.txns.values():
        if t.committed:
            # txn ids are "<coordinator>:<n>", coordinators "c<i>.<region>"
            by_region[t.txn.split(":")[0].split(".")[1]].append(
                t.end_ns - t.begin_ns)
    for region, lat in by_region.items():
        rep.pct_ms(f"coordinator.txn_p50_ms.{region}", lat, 0.50)
        rep.pct_ms(f"coordinator.txn_p90_ms.{region}", lat, 0.90)
    recorders = cluster.data_nodes + cluster.standby_nodes
    rep.put("coordinator.decides", c["decides"], "count")
    rep.put("coordinator.records_held",
            sum(len(rs.records) for n in recorders
                for rs in n.recorder.roles.values()), "count")

    waits, open_waits = [], {}
    for t, kind, node, reader, txn in h.pushes:
        if "@" in node:
            continue
        if kind == "push_wait":
            open_waits[(node, reader, txn)] = t
        elif (node, reader, txn) in open_waits:
            waits.append(t - open_waits.pop((node, reader, txn)))
    rep.put("mvto.reads", c["data.ReadReq"], "count")
    rep.put("mvto.writes", c["data.WriteReq"], "count")
    rep.put("mvto.rt_conflicts",
            sum(co.aborts_by_reason.get("rt_conflict", 0)
                for co in cluster.coordinators), "count")
    rep.put("mvto.push_waits", sum(1 for p in h.pushes
                                   if p[1] == "push_wait" and "@" not in p[2]),
            "count")
    rep.pct_ms("mvto.push_wait_p50_ms", waits, 0.50)
    rep.put("mvto.versions_held",
            sum(len(ch.order) for n in recorders
                for ch in n.store.chains.values()), "count")

    rep.put("epochs.cuts", len(h.cuts), "count")
    rep.pct_ms("epochs.cut_lag_p50_ms",
               [t - promised for t, _n, _e, promised in h.cuts], 0.50)

    rep.put("replication.appends", c["appends"], "count")
    rep.put("replication.entries", c["entries"], "count")
    rep.put("replication.stream_reads", c["stream_reads"], "count")
    rep.put("replication.entries_held",
            sum(len(log) for st in cluster.storage.values()
                for log in st.streams.values()), "count")

    rep.put("replica.ships", c["replica.LogShip"], "count")
    rep.put("replica.catchups", c["msg.CatchUp"], "count")
    rep.put("replica.reads", c["replica.ReplicaReadReq"], "count")
    rep.put("replica.push_waits", sum(1 for p in h.pushes
                                      if p[1] == "push_wait" and "@" in p[2]),
            "count")

    for module in SELF_TIMED:
        rep.put(f"{module}.self_s", self_s.get(module, 0.0), "s")
    rep.put("history.trace_events", len(trace), "count")


# Modules whose host self time is reported as <module>.self_s; simnet's
# is split into loop_self_s and send_s. Self time of anything else is
# part of trace.unattributed_s.
SELF_TIMED = ("clock", "tsbatch", "coordinator", "mvto", "epochs",
              "replication", "replica", "workload")


def run_pass(workload: str, seed: int, traced: bool, tiny: bool = False) -> dict:
    wl = WORKLOADS[workload]
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
    with tracer.installed() if tracer else nullcontext():
        setup_slices = []
        for _ in range(SETUP_REPEATS):
            sc = wl.build(seed, tiny)
            t0 = perf_counter_ns()
            cluster = Cluster(sc)
            setup_slices.append(perf_counter_ns() - t0)
        if tracer:
            tracer.sim = cluster.sim
            tracer.self_ns.clear()

        run_slices = _time_slices(cluster.sim)

        # Start the run with no garbage from set-up, and keep the run's
        # objects out of the checks' collections: otherwise whether a full
        # collection of the run's heap lands inside check_s depends on
        # the seed.
        gc.collect()
        t0 = perf_counter()
        result = cluster.run()
        run_s = perf_counter() - t0
        gc.freeze()

        h, verdicts, check_slices = _timed_checks(result, sc)
        gc.unfreeze()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        rep = Report()
        rep.put("setup_s", statistics.median(setup_slices) / 1e9, "s",
                SETUP_REPEATS)
        rep.put("run_s", run_s, "s")
        rep.put("check_s", sum(check_slices) / 1e9, "s")
        rep.put("peak_rss_mb", peak_rss_mb, "MB")
        violated = outcome_metrics(rep, result, h, verdicts)
        if tracer:
            layer_metrics(rep, tracer, cluster, result, h)
            rep.put("history.build_s", check_slices[0] / 1e9, "s")
            for v, ns in zip(verdicts, check_slices[1:]):
                rep.put(f"checkers.{v.name}_s", ns / 1e9, "s")
            rep.put("checkers.violated", len(violated), "count")
            t0 = perf_counter()
            metrics.run_summary(result)
            rep.put("metrics.summary_s", perf_counter() - t0, "s")
            attributed = sum(v for k, v in tracer.self_ns.items()
                             if k in SELF_TIMED or k.startswith("simnet"))
            rep.put("trace.unattributed_s", run_s - attributed / 1e9, "s")
    return {
        "metrics": rep.metrics,
        "refused": rep.refused,
        "violated": violated,
        "digest": trace_digest(result.trace),
        "slices": {"setup_s": setup_slices, "run_s": run_slices,
                   "check_s": check_slices},
    }


def _timed_checks(result, sc):
    """``build_history`` plus ``run_all_checks``, CHECK_REPEATS times.

    Returns the history, the verdicts and, as slices, the fastest repeat
    of the build and of each checker, in ``run_all_checks`` order. The
    checks are pure functions of the trace, so every repeat does the
    same work."""
    timings: dict = {}
    saved = {n: f for n, f in vars(checkers).items() if n.startswith("check_")}

    def timed(fn):
        def call(*args, **kwargs):
            t0 = perf_counter_ns()
            verdict = fn(*args, **kwargs)
            timings[verdict.name] = perf_counter_ns() - t0
            return verdict
        return call

    best = None
    for name, fn in saved.items():
        setattr(checkers, name, timed(fn))
    try:
        for _ in range(CHECK_REPEATS):
            t0 = perf_counter_ns()
            h = build_history(result.trace)
            build_ns = perf_counter_ns() - t0
            verdicts = run_all_checks(h, sc.interval_ns, sc.epsilon_ns,
                                      end_ns=result.end_ns)
            times = [build_ns] + [timings[v.name] for v in verdicts]
            best = times if best is None else list(map(min, best, times))
    finally:
        for name, fn in saved.items():
            setattr(checkers, name, fn)
    return h, verdicts, best


def _time_slices(sim) -> list:
    """Make ``sim.run_until`` advance in steps of SLICE_NS of virtual time
    and record the host nanoseconds of each step in the returned list.
    The same events run in the same order; only the clock reads are new.
    Slices are identical work in every pass at one seed, which lets the
    caller take each slice's fastest pass."""
    orig = sim.run_until
    slices = []

    def run_until(deadline, stop=None):
        ran = 0
        while True:
            step = min(deadline, sim.now + SLICE_NS)
            t0 = perf_counter_ns()
            ran += orig(step, stop)
            slices.append(perf_counter_ns() - t0)
            if step >= deadline or (stop is not None and stop()):
                return ran

    sim.run_until = run_until
    return slices


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = run_pass(args.workload, args.seed, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
