"""Correctness checkers over run histories.

All checkers are pure functions History -> Verdict. The serializability
argument is split the way the system earns it: committed transactions
applied in timestamp order must reproduce every read (the timestamp
order *is* the serial order), and whenever one transaction releases
before another begins, the earlier one must carry the smaller timestamp
(so the serial order extends real time). Together these are strict
serializability. The tests hold a brute-force oracle that double-checks
the definition on small histories by searching interleavings.

A transaction whose client never learned the outcome (decide reply lost)
is settled here by its durable record when one exists; only truly
unresolved transactions stay wildcards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .epochs import ceiling_epoch, promised_end_ns
from .history import History, TxnInfo
from .messages import COMMITTED, IN_PROGRESS


@dataclass
class Verdict:
    name: str
    ok: bool = True
    checked: int = 0
    violations: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def flag(self, msg: str) -> None:
        self.ok = False
        if len(self.violations) < 50:
            self.violations.append(msg)

    def summary(self) -> str:
        state = "ok" if self.ok else f"FAIL ({len(self.violations)} violations)"
        out = f"{self.name}: {state} [{self.checked} checks]"
        for v in self.violations[:5]:
            out += f"\n  - {v}"
        return out


def _has_writes(t: TxnInfo) -> bool:
    return any(op[1] == "w" for op in t.ops)


def _final_writes(t: TxnInfo) -> dict:
    buf: dict = {}
    for _i, kind, key, _vts, val in sorted(t.ops):
        if kind == "w":
            buf[key] = val
    return buf


def terminal_records(h: History) -> dict:
    """txn -> (status, epoch, t) from the first terminal record."""
    out: dict = {}
    for t, _role, txn, status, epoch in h.records:
        if status != IN_PROGRESS and txn not in out:
            out[txn] = (status, epoch, t)
    return out


def effective_outcomes(h: History) -> dict:
    """txn -> (status, epoch). Client-visible outcome; a transaction that
    never ended (a crash killed it) is settled by its durable record
    where one exists, and is unknown where none does."""
    records = terminal_records(h)
    out: dict = {}
    for t in h.txns.values():
        status, epoch = t.status, t.epoch
        if status is None:
            status, epoch, _t = records.get(t.txn, ("unknown", epoch, None))
        out[t.txn] = (status, epoch)
    return out


# ---------------------------------------------------------------------------
# timestamps


def check_timestamp_property(h: History) -> Verdict:
    """Every committed transaction's timestamp lies strictly inside its
    true begin/release interval."""
    v = Verdict("timestamp-in-lifetime")
    for t in h.txns.values():
        if not t.committed or t.ts is None:
            continue
        v.checked += 1
        if not (t.begin_ns < t.ts.nanos < t.end_ns):
            v.flag(f"{t.txn}: ts={t.ts.nanos} outside "
                   f"({t.begin_ns}, {t.end_ns})")
    return v


def check_oracle_bounds(h: History, epsilon_ns: int) -> Verdict:
    """Oracle readings contain the sampling instant, have exact width
    2*epsilon, and per-server upper bounds strictly increase."""
    v = Verdict("oracle-bounds")
    last_hi: dict = {}
    for t, srv, lo, hi in h.oracle:
        v.checked += 1
        if not (lo <= t <= hi):
            v.flag(f"srv{srv}@{t}: [{lo},{hi}] misses true instant")
        if hi - lo != 2 * epsilon_ns:
            v.flag(f"srv{srv}@{t}: width {hi - lo} != {2 * epsilon_ns}")
        if srv in last_hi and hi <= last_hi[srv]:
            v.flag(f"srv{srv}@{t}: upper bound {hi} <= previous {last_hi[srv]}")
        last_hi[srv] = hi
    return v


# ---------------------------------------------------------------------------
# strict serializability


def _replay_reads(txn: TxnInfo, store: dict, v: Verdict = None) -> bool:
    """Replay one transaction's ops against ``store`` (key -> (ts, value)),
    honoring read-own-writes. Returns True when every traced read matches."""
    buf: dict = {}
    ok = True
    for i, kind, key, vts, val in sorted(txn.ops):
        if kind == "w":
            buf[key] = val
            continue
        if key in buf:
            exp_ts, exp_val = txn.ts, buf[key]
        else:
            exp_ts, exp_val = store.get(key, (None, None))
        if val != exp_val or vts != exp_ts:
            ok = False
            if v is not None:
                v.flag(f"{txn.txn} op{i} read {key}: saw "
                       f"({vts and vts.nanos}, {val!r}), serial order implies "
                       f"({exp_ts and exp_ts.nanos}, {exp_val!r})")
    return ok


def check_strict_serializability(h: History) -> Verdict:
    """Committed transactions, replayed in timestamp order, must reproduce
    every read; and timestamp order must extend real-time order."""
    v = Verdict("strict-serializability")
    outcomes = effective_outcomes(h)
    committed = [t for t in h.txns.values()
                 if t.committed and t.ts is not None]
    # Record-settled commits take effect in the replay but carry no
    # client-visible release, so they impose no real-time edge.
    ghost = [t for t in h.txns.values()
             if not t.committed and t.ts is not None
             and outcomes[t.txn][0] == "committed"]

    # (a) real time: whoever released before I began must order below me.
    by_begin = sorted(committed, key=lambda t: t.begin_ns)
    by_end = sorted(committed, key=lambda t: t.end_ns)
    done_i = 0
    max_done = None
    for t in by_begin:
        while done_i < len(by_end) and by_end[done_i].end_ns < t.begin_ns:
            if max_done is None or by_end[done_i].ts > max_done.ts:
                max_done = by_end[done_i]
            done_i += 1
        v.checked += 1
        if max_done is not None and max_done.ts >= t.ts:
            v.flag(f"real-time order inverted: {max_done.txn} "
                   f"(ts={max_done.ts.nanos}, ended {max_done.end_ns}) vs "
                   f"{t.txn} (ts={t.ts.nanos}, began {t.begin_ns})")

    # (b) reads: timestamp order is the serial order.
    store = {}
    for t in sorted(committed + ghost, key=lambda t: t.ts):
        v.checked += 1
        if t in ghost:
            # Reads of a never-released transaction were never exposed.
            for key, val in _final_writes(t).items():
                store[key] = (t.ts, val)
            continue
        _replay_reads(t, store, v)
        for key, val in _final_writes(t).items():
            store[key] = (t.ts, val)
    return v


# ---------------------------------------------------------------------------
# dirty reads and the single commit point


def check_commit_records(h: History) -> Verdict:
    """Per transaction: at most one terminal record, agreeing with what the
    client was told; and no read anywhere observes a value whose writer
    did not commit."""
    v = Verdict("commit-records")
    terminal: dict = {}
    for _t, _role, txn, status, _epoch in h.records:
        if status == IN_PROGRESS:
            continue
        v.checked += 1
        if txn in terminal and terminal[txn] != status:
            v.flag(f"{txn}: decided both {terminal[txn]} and {status}")
        terminal.setdefault(txn, status)
    for t in h.txns.values():
        if t.status == "committed" and _has_writes(t):
            v.checked += 1
            if terminal.get(t.txn) != COMMITTED:
                v.flag(f"{t.txn}: client saw commit, record says "
                       f"{terminal.get(t.txn)!r}")
        elif t.status == "aborted":
            v.checked += 1
            if terminal.get(t.txn) == COMMITTED:
                v.flag(f"{t.txn}: client saw abort, record says committed")

    outcomes = effective_outcomes(h)
    writer_status: dict = {}
    for t in h.txns.values():
        status = outcomes[t.txn][0]
        for _i, kind, key, _vts, val in t.ops:
            if kind == "w":
                writer_status[(key, val)] = status

    def observed(key, val, where):
        if val is None:
            return
        v.checked += 1
        status = writer_status.get((key, val))
        if status is None:
            v.flag(f"{where}: read {val!r} from {key}, never written")
        elif status not in ("committed", "unknown"):
            v.flag(f"{where}: read {val!r} from {key}, writer was {status}")

    for t in h.txns.values():
        own = {key for _i, kind, key, _vts, _val in t.ops if kind == "w"}
        for _i, kind, key, _vts, val in t.ops:
            if kind == "r" and key not in own:
                observed(key, val, t.txn)
    for rr in h.rreads:
        for key, _vts, val in rr.reads:
            observed(key, val, f"replica-read {rr.reader}")
    return v


# ---------------------------------------------------------------------------
# epochs and replicas


def check_epoch_cuts(h: History, interval_ns: int) -> Verdict:
    """Cut markers are logged strictly after their promised instant, carry
    the right promise, and every node's cut sequence covers 1..max."""
    v = Verdict("epoch-cuts")
    per_node: dict = {}
    for t, node, epoch, promised in h.cuts:
        v.checked += 1
        if promised != promised_end_ns(epoch, interval_ns):
            v.flag(f"{node} cut {epoch}: promised {promised} != "
                   f"{promised_end_ns(epoch, interval_ns)}")
        if t <= promised:
            v.flag(f"{node} cut {epoch}: logged at {t} <= promised {promised}")
        per_node.setdefault(node, []).append(epoch)
    for node, epochs in per_node.items():
        missing = set(range(1, max(epochs) + 1)) - set(epochs)
        if missing:
            v.flag(f"{node}: cut sequence has gaps {sorted(missing)[:5]}")
    return v


def check_replica_consistency(h: History, interval_ns: int) -> Verdict:
    """Every replica read returns, per key, the newest committed version
    with ts <= read-ts whose commit epoch fits inside the read's view."""
    v = Verdict("replica-reads")
    outcomes = effective_outcomes(h)
    versions: dict = {}  # key -> [(ts, epoch, value)] sorted by ts
    maybe: dict = {}     # key -> {value}: outcome genuinely unresolved
    for t in h.txns.values():
        status, epoch = outcomes[t.txn]
        if t.ts is None:
            continue
        if status == "committed":
            for key, val in _final_writes(t).items():
                versions.setdefault(key, []).append((t.ts, epoch, val))
        elif status == "unknown":
            for key, val in _final_writes(t).items():
                maybe.setdefault(key, set()).add(val)
    for chain in versions.values():
        chain.sort()

    for rr in h.rreads:
        expected_view = ceiling_epoch(rr.ts.nanos, interval_ns)
        v.checked += 1
        if rr.view != expected_view:
            v.flag(f"{rr.reader}: view {rr.view} != ceil(ts/interval) "
                   f"{expected_view}")
            continue
        for key, vts, val in rr.reads:
            v.checked += 1
            exp = None
            for ts, epoch, value in reversed(versions.get(key, ())):
                if ts <= rr.ts and epoch is not None and epoch <= rr.view:
                    exp = (ts, value)
                    break
            got = None if vts is None else (vts, val)
            if got == exp:
                continue
            if got is not None and val in maybe.get(key, ()):
                continue
            v.flag(f"{rr.reader} {key}@{rr.ts.nanos}/view{rr.view}: "
                   f"saw {got}, expected {exp}")
    return v


def check_visibility_monotonic(h: History) -> Verdict:
    """Per replica, replayed epochs advance by exactly one."""
    v = Verdict("replay-monotonic")
    per_replica: dict = {}
    for _t, node, _src, epoch in h.replays:
        v.checked += 1
        prev = per_replica.get(node, 0)
        if epoch != prev + 1:
            v.flag(f"{node}: replayed {epoch} after {prev}")
        per_replica[node] = epoch
    return v


# ---------------------------------------------------------------------------
# liveness


def check_deadlock_freedom(h: History) -> Verdict:
    """Waits-for cycle detector over read-blocked-on-intent windows.

    An edge waiter -> writer-txn is live from push_wait to the matching
    push_done. Writers never wait for other transactions (only for their
    own commit wait), so the protocol claims this graph never has a
    cycle; verify it on every edge insertion."""
    v = Verdict("deadlock-freedom")
    out: dict = {}  # waiter -> {writer txn: count}
    active: dict = {}

    def reaches(src, dst, seen):
        if src == dst:
            return True
        if src in seen:
            return False
        seen.add(src)
        return any(reaches(n, dst, seen) for n in out.get(src, ()))

    for t, kind, node, reader, txn in h.pushes:  # already in event order
        key = (node, reader, txn)
        if kind == "push_wait":
            v.checked += 1
            if reaches(txn, reader, set()):
                v.flag(f"waits-for cycle closed by {reader} -> {txn} "
                       f"at {t} on {node}")
            out.setdefault(reader, {})[txn] = \
                out.get(reader, {}).get(txn, 0) + 1
            active[key] = True
        elif active.pop(key, None):
            edges = out.get(reader)
            if edges and txn in edges:
                edges[txn] -= 1
                if edges[txn] == 0:
                    del edges[txn]
                if not edges:
                    del out[reader]
    return v


#: How long before a run's end a wait's outcome may arrive and leave the
#: wait open at the end without a violation.
PUSH_TAIL_GRACE_NS = 500_000_000


def check_push_progress(h: History, end_ns: int = None) -> Verdict:
    """Every reader that suspended on an undecided write eventually got an
    answer, and waits only ever point from a higher-timestamp reader to a
    lower-timestamp writer — the shape that makes cycles impossible.
    Waits still open when the run ends are excused only if the outcome
    arrived within ``PUSH_TAIL_GRACE_NS`` of the end."""
    v = Verdict("push-progress")
    if not h.pushes:
        return v
    if end_ns is None:
        end_ns = max(t for t, *_ in h.pushes)
    records = terminal_records(h)
    open_waits: dict = {}
    for t, kind, node, reader, txn in h.pushes:
        if kind == "push_wait":
            open_waits[(node, reader, txn)] = t
            waiter = h.txns.get(reader)
            writer = h.txns.get(txn)
            if waiter and writer and waiter.ts and writer.ts \
                    and waiter.ts <= writer.ts:
                v.flag(f"{reader} (ts={waiter.ts.nanos}) waited on {txn} "
                       f"(ts={writer.ts.nanos}): wait points up, not down")
        else:
            open_waits.pop((node, reader, txn), None)
            v.checked += 1
    for (node, reader, txn), t in open_waits.items():
        rec = records.get(txn)
        if rec is not None and end_ns - rec[2] > PUSH_TAIL_GRACE_NS:
            v.flag(f"{reader}@{node} still waiting on {txn}, decided "
                   f"{end_ns - rec[2]}ns before the run ended")
    return v


def run_all_checks(h: History, interval_ns: int, epsilon_ns: int,
                   end_ns: int = None, group: str = None) -> list:
    """Every checker's verdict, or only those of one property ``group``:
    "ss" for transactions, records and pushes, "replica" for epoch cuts,
    replays and replica reads."""
    checks = (
        ("ss", lambda: check_timestamp_property(h)),
        ("ss", lambda: check_oracle_bounds(h, epsilon_ns)),
        ("ss", lambda: check_strict_serializability(h)),
        ("ss", lambda: check_commit_records(h)),
        ("replica", lambda: check_epoch_cuts(h, interval_ns)),
        ("replica", lambda: check_replica_consistency(h, interval_ns)),
        ("replica", lambda: check_visibility_monotonic(h)),
        ("ss", lambda: check_deadlock_freedom(h)),
        ("ss", lambda: check_push_progress(h, end_ns=end_ns)),
    )
    return [check() for g, check in checks if group in (None, g)]
