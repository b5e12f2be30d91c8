"""Post-run measurement: visibility delay, latency, batching efficiency.

Everything here is analysis over a History or a cluster that has run —
floats are fine, nothing feeds back into the simulation.
"""

from __future__ import annotations

import math
from collections import Counter

from .checkers import terminal_records
from .history import History
from .messages import COMMITTED

MS = 1_000_000


def visibility_delays(h: History, replicas_of: dict,
                      written_primaries) -> dict:
    """Per committed transaction: time from its durable commit record to
    the first instant every relevant replica can serve a read view
    covering its commit epoch (replayed_epoch >= commit_epoch).

    The relevant replicas are those of the primaries the transaction
    wrote: ``written_primaries(txn)`` gives the set of primary ids, and
    ``replicas_of`` maps a primary id to its replica ids.

    Returns {"series": [(commit_ns, delay_ns)], "unresolved": n}; the
    series is sorted by commit time. Transactions whose epoch never got
    replayed everywhere before the trace ended are counted unresolved.
    """
    # first time each replica reached each epoch, as a step function
    reach: dict = {}  # replica -> [(epoch, t)] in replay order
    for t, node, _src, epoch in h.replays:
        reach.setdefault(node, []).append((epoch, t))

    def first_at(node, epoch):
        for e, t in reach.get(node, ()):
            if e >= epoch:
                return t
        return None

    records = terminal_records(h)
    series = []
    unresolved = 0
    for t in h.txns.values():
        if not t.committed or t.epoch is None:
            continue
        has_write = any(op[1] == "w" for op in t.ops)
        rec = records.get(t.txn)
        if not has_write or rec is None or rec[0] != COMMITTED:
            continue
        commit_ns = rec[2]
        targets = [r for p in written_primaries(t)
                   for r in replicas_of.get(p, ())]
        if not targets:
            continue
        instants = [first_at(r, t.epoch) for r in targets]
        if any(i is None for i in instants):
            unresolved += 1
            continue
        series.append((commit_ns, max(0, max(instants) - commit_ns)))
    series.sort()
    return {"series": series, "unresolved": unresolved}


def measure_visibility(h: History, replicas_of: dict, written_primaries,
                       interval_ns: int = None) -> dict:
    """Delay series plus its summary in one call: {"series", "summary",
    "unresolved"}, over the replicas that ``visibility_delays`` waits on.
    The series is the primary signal (the shape lives there); the summary
    carries max/p50/p90/p99 and the unresolved count, and, given the
    epoch ``interval_ns``, the sawtooth period the series shows. ``run``
    and ``check`` both measure visibility here."""
    vis = visibility_delays(h, replicas_of=replicas_of,
                            written_primaries=written_primaries)
    summary = summarize_delays([d for _t, d in vis["series"]])
    summary["unresolved"] = vis["unresolved"]
    if interval_ns is not None and vis["series"]:
        shape = sawtooth_period_ns(vis["series"], interval_ns)
        if shape.get("ok"):
            summary["sawtooth_period_ms"] = shape["period_ns"] / MS
    return {
        "series": vis["series"],
        "summary": summary,
        "unresolved": vis["unresolved"],
    }


def percentile(values, q) -> float:
    """The ``q``-th percentile (0 <= q <= 100) of ``values``, interpolated
    linearly between the two nearest ranks. This is numpy's default
    ("linear") method, computed in the same float steps, so the two agree
    bit for bit."""
    s = sorted(map(float, values))
    idx = (len(s) - 1) * (q / 100)
    if idx >= len(s) - 1:
        return s[-1]
    lo = math.floor(idx)
    a, b = s[lo], s[lo + 1]
    g = idx - lo
    # interpolate from the nearer rank, as numpy does
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def summarize_delays(delays: list) -> dict:
    if not delays:
        return {"count": 0}
    return {
        "count": len(delays),
        "max_ns": int(max(delays)),
        "p50_ns": int(percentile(delays, 50)),
        "p90_ns": int(percentile(delays, 90)),
        "p99_ns": int(percentile(delays, 99)),
        "mean_ns": sum(delays) / len(delays),
    }


def sawtooth_period_ns(series: list, interval_ns: int) -> dict:
    """Estimate the dominant period of the delay-vs-commit-time signal.

    The series is resampled onto a grid of bins one twentieth of the
    interval wide (empty bins carry the previous value forward),
    mean-removed, and autocorrelated; the strongest lag in [0.4, 1.6] x
    the expected interval is reported. A sawtooth of period P shows its
    first autocorrelation peak at P. A strongest lag on either edge of
    that window is no peak: the correlation only falls (or rises) across
    the window, as it does when the delays vary by more than a short
    interval, so no period is reported.
    """
    bin_ns = max(1, interval_ns // 20)
    if len(series) < 8:
        return {"ok": False, "reason": "too few points"}
    t0 = series[0][0]
    span = series[-1][0] - t0
    nbins = span // bin_ns + 1
    if nbins < 3 * (interval_ns // bin_ns):
        return {"ok": False, "reason": "run too short for autocorrelation"}
    sums = [0.0] * nbins
    counts = [0] * nbins
    for t, d in series:
        b = (t - t0) // bin_ns
        sums[b] += d
        counts[b] += 1
    sig = []
    last = 0.0
    for total, n in zip(sums, counts):
        if n:
            last = total / n
        sig.append(last)
    mean = sum(sig) / nbins
    sig = [x - mean for x in sig]
    denom = sum(x * x for x in sig)
    if denom == 0.0:
        return {"ok": False, "reason": "flat signal"}
    lo = max(1, int(0.4 * interval_ns / bin_ns))
    hi = min(nbins - 1, int(1.6 * interval_ns / bin_ns))
    if hi <= lo:
        return {"ok": False, "reason": "grid too coarse"}

    def corr(lag):
        return sum(x * y for x, y in zip(sig, sig[lag:])) / denom

    peak = max(range(lo, hi + 1), key=corr)  # the first, on a tie
    if peak in (lo, hi):
        return {"ok": False, "reason": "no peak inside the window"}
    return {
        "ok": True,
        "period_ns": peak * bin_ns,
        "peak_corr": corr(peak),
        "bin_ns": bin_ns,
    }


def latency_summary(h: History) -> dict:
    """Client-observed transaction latency, split by outcome, plus the
    committed latency by coordinator region (``committed_by_region``).
    A coordinator's id ends with its region (``c0.SH``)."""
    out = {}
    for status in ("committed", "aborted"):
        vals = [t.end_ns - t.begin_ns for t in h.txns.values()
                if t.status == status and t.end_ns is not None]
        if vals:
            out[status] = _latency(vals)
    by_region: dict = {}
    for t in h.txns.values():
        if t.committed:
            by_region.setdefault(t.coord.rsplit(".", 1)[-1], []).append(
                t.end_ns - t.begin_ns)
    if by_region:
        out["committed_by_region"] = {
            region: _latency(vals) for region, vals in sorted(by_region.items())}
    return out


def _latency(vals: list) -> dict:
    return {
        "count": len(vals),
        "p50_ms": percentile(vals, 50) / MS,
        "p99_ms": percentile(vals, 99) / MS,
        "max_ms": max(vals) / MS,
    }


def run_summary(result) -> dict:
    """Flat dict for the CLI over a cluster that has run: outcome counts,
    latency, batching stats. All but the ``ts_*`` figures are read from
    the history, where a transaction that never ended is unknown. The
    trace does not hold those: they are the coordinators' timestamp
    proxies' counters, summed."""
    h = result.history()
    sc = result.scenario
    outcomes = result.outcomes()
    proxies = [c.tsproxy for c in result.coordinators]
    ts_req = sum(p.requests for p in proxies)
    ts_local = sum(p.served_local for p in proxies)
    summary = {
        "seed": sc.seed,
        "txns": len(h.txns),
        **{status: outcomes[status]
           for status in ("committed", "aborted", "unknown")},
        "abort_reasons": dict(Counter(t.reason for t in h.txns.values()
                                      if t.reason is not None)),
        "latency": latency_summary(h),
        "ts_requests": ts_req,
        "ts_fetches": sum(p.fetches for p in proxies),
        "ts_served_local": ts_local,
        "ts_local_ratio": (ts_local / ts_req) if ts_req else None,
        "replica_reads": len(h.rreads),
        "epoch_cuts": len(h.cuts),
    }
    vis = measure_visibility(h, replicas_of=result.replicas_of(),
                             written_primaries=result.written_primaries,
                             interval_ns=sc.interval_ms * MS)
    if vis["series"]:
        summary["visibility"] = vis["summary"]
    return summary
