"""End-to-end acceptance battery.

Ten numbered tests, each a pass/fail line for one system-level guarantee:
timestamp correctness under adversarial clocks, strict serializability
under chaos, checker self-validation, abort-freedom for blind writes,
deadlock freedom, epoch-cut promises, replica atomicity and slow-commit
decoupling, the visibility-delay envelope and its sawtooth shape,
batching efficiency, and exactly-once durable outcomes under faults.

Every simulated run in this module registers its waits-for graph; the
deadlock test (physically last, so it runs after the others) sweeps them
all. Tolerances are pinned as constants next to the test they gate.
"""

import random
import time
from collections import Counter

from oracles import (
    bench_timestamp_service,
    brute_force_serializable,
    synthesize_history,
    timestamp_property_sweep,
)

from chronokv.checkers import (
    check_deadlock_freedom,
    check_strict_serializability,
    run_all_checks,
    terminal_records,
)
from chronokv.cluster import run_scenario
from chronokv.messages import TsResp
from chronokv.metrics import measure_visibility, sawtooth_period_ns
from chronokv.scenario import Scenario, WorkloadSpec
from chronokv.simnet import (
    CrashDirective,
    FaultSchedule,
    MsgFilter,
    OracleOutage,
    PartitionWindow,
    TakeoverDirective,
)
from chronokv.tsbatch import build_batch

MS = 1_000_000
SEC = 1_000 * MS

# waits-for verdicts from every run this module produced, swept by the
# deadlock test at the bottom
DEADLOCK_LEDGER: list = []


def _register(tag: str, h) -> None:
    DEADLOCK_LEDGER.append((tag, check_deadlock_freedom(h)))


def _all_checks(r, tag: str):
    sc = r.scenario
    h = r.history()
    _register(tag, h)
    verdicts = run_all_checks(h, sc.interval_ns, sc.epsilon_ns,
                              end_ns=r.end_ns)
    for v in verdicts:
        assert v.ok, (tag, v.name, v.violations[:5])
    return h


# -- 1: commit timestamps sit inside their transaction's true lifetime ---------

SWEEP_SEEDS = range(1, 11)
SWEEP_TXNS = 10_000
SWEEP_BUDGET_S = 120.0


def test_a01_timestamps_inside_true_lifetimes_under_adversarial_clocks():
    t0 = time.monotonic()
    total = 0
    for seed in SWEEP_SEEDS:
        out = timestamp_property_sweep(
            seed, txns=SWEEP_TXNS, epsilon_ns=100_000, ttl_ns=100_000,
            max_drift_ppm=200)
        assert out["violations"] == [], (seed, out["violations"][:3])
        assert out["oracle_failures"] == 0
        assert out["txns"] == SWEEP_TXNS
        total += out["txns"]
    elapsed = time.monotonic() - t0
    assert elapsed < SWEEP_BUDGET_S, f"sweep took {elapsed:.0f}s"
    print(f"a01 PASS: {total} txns x 10 seeds, +/-200ppm drift, "
          f"0 violations in {elapsed:.1f}s")


# -- 2: strict serializability under drops, reorders, crash, takeover ----------

CHAOS_SEEDS = range(1, 21)
CHAOS_BUDGET_S = 300.0


def _chaos_scenario(seed: int) -> Scenario:
    fs = FaultSchedule(drop_prob=0.01, reorder_prob=0.05)
    fs.crashes.append(CrashDirective(
        node="c1.BJ", at_ns=20 * SEC, restart_at_ns=25 * SEC))
    # the recorder role moves while its node stays up: the old owner keeps
    # serving until fenced at the register
    fs.takeovers.append(TakeoverDirective(
        role="rec/d0.SH", to_node="s0.SH", at_ns=40 * SEC))
    return Scenario(
        name="chaos", seed=seed, duration_ms=200_000,
        standbys=["SH"], drift_spread=True,
        clients_per_coordinator=2, txns_per_client=1000,
        workload=WorkloadSpec(kind="ycsb", keys=1000, ops_per_txn=3,
                              write_ratio=0.5, zipf_theta=0.8),
        faults=fs,
    )


def _open_push_waits(h) -> list:
    """(node, reader, txn) of each push wait with no push_done after it."""
    open_waits = Counter()
    for _t, kind, node, reader, txn in h.pushes:
        open_waits[node, reader, txn] += 1 if kind == "push_wait" else -1
    return sorted(w for w, n in open_waits.items() if n)


def test_a02_strict_serializability_survives_chaos_on_twenty_seeds():
    t0 = time.monotonic()
    txns = 0
    for seed in CHAOS_SEEDS:
        sc = _chaos_scenario(seed)
        r = run_scenario(sc)
        h = _all_checks(r, f"chaos-{seed}")
        v = check_strict_serializability(h)
        assert v.ok, (seed, v.violations[:5])
        outcomes = r.outcomes()
        assert outcomes["committed"] > 0
        # progress: every client finishes its quota and every reader's
        # wait ends, though a crash killed transactions holding intents
        assert r.end_ns < sc.duration_ms * MS, (seed, r.end_ns)
        assert _open_push_waits(h) == [], (seed, _open_push_waits(h)[:5])
        txns += sum(outcomes.values())
    elapsed = time.monotonic() - t0
    assert elapsed < CHAOS_BUDGET_S, f"sweep took {elapsed:.0f}s"
    print(f"a02 PASS: 20 seeds, {txns} txns run under "
          f"drop/reorder/crash/takeover in {elapsed:.0f}s")


# -- 3: the fast checker agrees with a brute-force oracle ----------------------

SELFCHECK_HISTORIES = 1_000


def test_a03_replay_verdicts_match_brute_force_on_a_thousand_histories():
    rng = random.Random(2024)
    plans = (["none"] * 400 + ["fabricate"] * 300 + ["stale_chain"] * 300)
    rng.shuffle(plans)
    agreements = 0
    for corrupt in plans:
        h = synthesize_history(rng, txn_count=rng.randrange(2, 7),
                               key_count=rng.randrange(1, 4), corrupt=corrupt)
        fast = bool(check_strict_serializability(h))
        slow = brute_force_serializable(list(h.txns.values())) is not None
        assert fast == slow, (corrupt, fast, slow)
        # the generator's ground truth gives both verdicts teeth
        assert fast == (corrupt == "none")
        agreements += 1
    assert agreements == SELFCHECK_HISTORIES
    print(f"a03 PASS: {agreements} histories, replay == brute force on all")


# -- 4: blind writes never conflict ---------------------------------------------


def test_a04_blind_write_workload_commits_without_a_single_abort():
    sc = Scenario(
        name="blind", seed=5, duration_ms=200_000,
        clients_per_coordinator=2, txns_per_client=1000,
        workload=WorkloadSpec(kind="blind", keys=4, ops_per_txn=3,
                              write_ratio=1.0, zipf_theta=0.99),
    )
    r = run_scenario(sc)
    outcomes = r.outcomes()
    assert sum(outcomes.values()) == 10_000
    assert outcomes["aborted"] == 0, outcomes
    assert outcomes["failed"] == 0 and outcomes["unknown"] == 0
    assert outcomes["committed"] == 10_000
    _all_checks(r, "blind")
    print("a04 PASS: 10000 blind writes on 4 hot keys, 0 aborts")


# -- 6: every epoch cut lands after its promised instant ------------------------

CUT_NODES = 10
CUT_TARGET = 10_000


def test_a06_cut_instants_strictly_exceed_their_promises_at_full_drift():
    regions = ["SH", "BJ", "GZ", "GY", "SG"]
    data_nodes = [regions[i % 5] for i in range(CUT_NODES)]
    drifts = {f"d{i}.{r}": 200 if i % 2 == 0 else -200
              for i, r in enumerate(data_nodes)}
    sc = Scenario(
        name="cuts", seed=11, drain_ms=5_300,
        data_nodes=data_nodes, coordinators=["SH"], node_drift_ppm=drifts,
        clients_per_coordinator=0, interval_ms=5,
    )
    r = run_scenario(sc)
    h = r.history()
    _register("cuts", h)
    assert len({n for _t, n, _e, _p in h.cuts}) == CUT_NODES
    assert len(h.cuts) >= CUT_TARGET
    late = [(t, n, e, p) for t, n, e, p in h.cuts if t <= p]
    assert late == [], late[:5]
    print(f"a06 PASS: {len(h.cuts)} cuts over {CUT_NODES} nodes at "
          f"+/-200ppm, every cut after its promise")


# -- 7: replica atomicity; slow commits never stall unrelated reads -------------

RREAD_TARGET = 10_000
UNTOUCHED_BOUND_NS = 150 * MS  # one interval + ship + decide tail


def test_a07_replica_reads_atomic_and_decoupled_from_slow_commits():
    sc = Scenario(
        name="slowmix", seed=2, duration_ms=120_000,
        regions=["SH", "BJ"], data_nodes=["SH"], replicate_to=["BJ"],
        coordinators=["SH", "BJ"], clients_per_coordinator=2,
        txns_per_client=500, interval_ms=100,
        replica_readers=25, replica_reads_per_reader=400,
        replica_read_mode="fresh",
        workload=WorkloadSpec(kind="mix", keys=256, ops_per_txn=3,
                              write_ratio=0.5, zipf_theta=0.8,
                              slow_fraction=0.02, hold_intervals=3.2),
    )
    r = run_scenario(sc)
    h = _all_checks(r, "slowmix")  # includes replica consistency
    interval = sc.interval_ns
    assert len(h.rreads) >= RREAD_TARGET

    # slow transactions: still holding intents three epochs after begin
    slow = [t for t in h.txns.values()
            if t.end_ns and t.end_ns - t.begin_ns >= 3 * interval]
    spanning = [t for t in slow if t.committed
                and t.end_ns // interval - t.begin_ns // interval >= 3]
    assert spanning, "no committed transaction spanned three epochs"

    def written(t):
        return {op[2] for op in t.ops if op[1] == "w"}

    untouched_max = 0
    untouched = 0
    for rr in h.rreads:
        open_slow = [t for t in slow
                     if t.begin_ns <= rr.end_ns and t.end_ns >= rr.start_ns]
        hot = set().union(*map(written, open_slow)) if open_slow else set()
        if {key for key, _vts, _val in rr.reads} & hot:
            continue
        untouched += 1
        untouched_max = max(untouched_max, rr.end_ns - rr.start_ns)
    assert untouched > 0
    assert untouched_max <= UNTOUCHED_BOUND_NS, untouched_max
    # decoupled: the worst unrelated read finishes well before the
    # shortest slow transaction even reaches its commit point
    assert untouched_max < 3 * interval
    print(f"a07 PASS: {len(h.rreads)} replica reads atomic; "
          f"{len(spanning)} slow txns spanned >=3 epochs; unrelated reads "
          f"suspended at most {untouched_max / MS:.1f}ms (bound 150ms)")


# -- 8: visibility delay envelope and sawtooth shape ----------------------------

VIS_INTERVAL_MS = 100
VIS_ONE_WAY_NS = 38_800_000   # slowest primary->replica link (BJ->SG)
VIS_CUT_SLACK_NS = 1 * MS     # uncertainty wait + flush + scheduling
VIS_TOLERANCE = 1.2
VIS_BOUND_NS = int((VIS_INTERVAL_MS * MS + VIS_ONE_WAY_NS
                    + VIS_CUT_SLACK_NS) * VIS_TOLERANCE)


def test_a08_visibility_delay_bounded_and_sawtoothed():
    sc = Scenario(
        name="vis", seed=1, duration_ms=120_000,
        replicate_to=["SG"], clients_per_coordinator=2, txns_per_client=200,
        interval_ms=VIS_INTERVAL_MS,
        workload=WorkloadSpec(kind="ycsb", keys=512, ops_per_txn=3,
                              write_ratio=0.5, zipf_theta=0.8),
    )
    r = run_scenario(sc)
    h = _all_checks(r, "vis")
    out = measure_visibility(h, replicas_of=r.replicas_of(),
                             written_primaries=r.written_primaries)
    s = out["summary"]
    assert out["unresolved"] == 0
    assert s["count"] > 1000
    assert s["max_ns"] <= VIS_BOUND_NS, \
        f"max {s['max_ns'] / MS:.1f}ms > bound {VIS_BOUND_NS / MS:.1f}ms"
    shape = sawtooth_period_ns(out["series"], sc.interval_ns)
    assert shape["ok"], shape
    assert abs(shape["period_ns"] - sc.interval_ns) <= 0.1 * sc.interval_ns
    assert shape["peak_corr"] > 0
    print(f"a08 PASS: {s['count']} delays, max {s['max_ns'] / MS:.1f}ms "
          f"<= {VIS_BOUND_NS / MS:.1f}ms, sawtooth period "
          f"{shape['period_ns'] / MS:.0f}ms")


# -- 9: almost every timestamp comes from the local batch -----------------------

BATCH_TTL_NS = 100_000
BATCH_STEP_NS = 10
LOCAL_RATIO_FLOOR = 0.999


def test_a09_batched_mode_serves_nearly_all_requests_locally():
    stats = bench_timestamp_service(
        seed=1, mode="batched", n=50_000, spacing_ns=BATCH_STEP_NS,
        ttl_ns=BATCH_TTL_NS)
    assert stats["requests"] == 50_000
    assert stats["failures"] == 0
    ratio = stats["served_local"] / stats["requests"]
    assert ratio >= LOCAL_RATIO_FLOOR, stats
    batch = build_batch(TsResp(800_000, 1_000_000, 0), BATCH_TTL_NS,
                        acquired_local=0, max_drift_ppm=200)
    assert batch.capacity == 10_000
    print(f"a09 PASS: {ratio:.2%} served locally "
          f"({stats['fetches']} fetches / {stats['requests']} requests), "
          f"per-batch capacity {batch.capacity}")


# -- 10: one durable outcome per transaction, under every fault ------------------


def _fault_scenarios():
    base = dict(
        duration_ms=90_000,
        regions=["SH", "BJ", "GZ"],
        data_nodes=["SH", "BJ"],
        standbys=["SH"],
        replicate_to=["GZ"],
        coordinators=["SH", "BJ"],
        clients_per_coordinator=2,
        txns_per_client=400,
        interval_ms=50,
        replica_readers=4,
        replica_reads_per_reader=50,
        workload=WorkloadSpec(kind="ycsb", keys=128, ops_per_txn=3,
                              write_ratio=0.6, zipf_theta=0.8),
    )

    def sc(name, seed, fs):
        return Scenario(name=name, seed=seed, faults=fs, **base)

    fs = FaultSchedule()
    fs.crashes.append(CrashDirective("c0.SH", 10 * SEC, 13 * SEC))
    yield sc("coord-crash", 41, fs)

    fs = FaultSchedule()
    fs.crashes.append(CrashDirective("d1.BJ", 10 * SEC, 14 * SEC))
    yield sc("data-crash", 42, fs)

    fs = FaultSchedule(drop_prob=0.01)
    fs.takeovers.append(TakeoverDirective("rec/d0.SH", "s0.SH", 10 * SEC))
    yield sc("recorder-takeover", 43, fs)

    fs = FaultSchedule(reorder_prob=0.05)
    fs.partitions.append(PartitionWindow(frozenset({"SH", "BJ"}),
                                         10 * SEC, 12 * SEC))
    yield sc("partition", 44, fs)

    fs = FaultSchedule()
    fs.oracle_outages.append(OracleOutage(0, 10 * SEC, int(10.5 * SEC)))
    yield sc("oracle-outage", 45, fs)

    fs = FaultSchedule(duplicate_prob=0.02)
    fs.msg_filters.append(MsgFilter(frozenset({"DecideResp"}), 0.5,
                                    5 * SEC, 20 * SEC))
    yield sc("lost-outcomes", 46, fs)


def test_a10_exactly_one_durable_outcome_per_transaction_under_faults():
    ran = []
    for sc in _fault_scenarios():
        r = run_scenario(sc)
        h = _all_checks(r, sc.name)  # commit-records: no dirty reads,
        #                              client never contradicted
        statuses: dict = {}
        for _t, _role, txn, status, _e in h.records:
            if status != "in_progress":
                statuses.setdefault(txn, set()).add(status)
        multi = {txn: s for txn, s in statuses.items() if len(s) > 1}
        assert multi == {}, multi
        # every commit the client saw is durably recorded as committed
        records = terminal_records(h)
        for t in h.txns.values():
            if t.status == "committed" and any(op[1] == "w" for op in t.ops):
                assert records[t.txn][0] == "committed", t.txn
        outcomes = r.outcomes()
        ran.append((sc.name, sum(outcomes.values()), outcomes["unknown"]))
    assert len(ran) == 6
    print("a10 PASS: " + "; ".join(
        f"{name}: {n} txns ({u} settled by record)" for name, n, u in ran))


# -- 5: no waits-for cycle anywhere (swept last, over every run above) -----------


def test_a05_waits_for_graph_acyclic_across_all_acceptance_runs():
    ledger = list(DEADLOCK_LEDGER)
    if not ledger:  # running this test alone: produce one chaotic run
        r = run_scenario(_chaos_scenario(1))
        ledger.append(("standalone", check_deadlock_freedom(r.history())))
    cycles = 0
    waits = 0
    for tag, v in ledger:
        assert v.ok, (tag, v.violations[:3])
        cycles += len(v.violations)
        waits += v.checked
    assert cycles == 0
    print(f"a05 PASS: {waits} waits across {len(ledger)} runs, 0 cycles")
