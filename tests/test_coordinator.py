"""End-to-end coordinator behaviour on small clusters."""

import gc
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from conftest import ask_once, drive, replies_to_one_try, run_until_done

from chronokv.checkers import (
    check_strict_serializability,
    check_timestamp_property,
    effective_outcomes,
    terminal_records,
)
from chronokv.cluster import Cluster, run_scenario
from chronokv.coordinator import HB_TIMEOUT_NS, SWEEP_INTERVAL_NS
from chronokv.history import build_history
from chronokv.messages import (
    COMMITTED,
    DecideReq,
    DecideResp,
    Heartbeat,
    NotOwner,
    Pending,
    PushReq,
    PushResp,
    ReadReq,
    ReadResp,
    TsReq,
    WriteReq,
    WriteResp,
)
from chronokv.metrics import run_summary
from chronokv.replication import (
    LONG_POLL_NS,
    IntentEntry,
    RoleDirectory,
    request,
    try_timeout_ns,
)
from chronokv.scenario import (
    Scenario,
    WorkloadSpec,
    read_scenario,
    scenario_from_dict,
)
from chronokv.simnet import (
    MS,
    RPC_TIMEOUT,
    SEC,
    CrashDirective,
    FaultSchedule,
    MsgFilter,
    OracleOutage,
    retry_backoff_ns,
)
from chronokv.tsbatch import Timestamp


def small(seed=7, **kw):
    base = dict(
        name="unit",
        seed=seed,
        duration_ms=60_000,
        regions=["SH", "BJ"],
        data_nodes=["SH", "BJ"],
        coordinators=["SH"],
        clients_per_coordinator=2,
        txns_per_client=40,
        workload=WorkloadSpec(kind="ycsb", keys=64, ops_per_txn=3,
                              write_ratio=0.5, zipf_theta=0.8),
    )
    base.update(kw)
    return Scenario(**base)


def traced_ops(sim, h, kind: str) -> list:
    """The ops of kind ``kind`` that the trace holds of the transaction of
    ``h``, by index, as ``build_history`` reads them."""
    ops = build_history(sim.trace.events).txns[h.txn].ops
    return sorted((op for op in ops if op[1] == kind), key=lambda op: op[0])


def reads_of(sim, h) -> list:
    """``(index, key, version timestamp, value)`` of each read that the
    transaction of ``h`` traced, by index."""
    return [(i, key, vts, val)
            for i, _r, key, vts, val in traced_ops(sim, h, "r")]


def writes_of(sim, h) -> list:
    """``(index, key, value)`` of each write that the transaction of ``h``
    traced, by index."""
    return [(i, key, val) for i, _w, key, _vts, val in traced_ops(sim, h, "w")]


def test_small_run_commits_and_accounts_for_every_txn():
    r = run_scenario(small())
    outcomes = r.outcomes()
    assert sum(outcomes.values()) == 80
    assert outcomes["committed"] > 0
    assert outcomes["failed"] == 0 and outcomes["unknown"] == 0
    for t in r.history().txns.values():
        assert t.status in ("committed", "aborted")
        if t.status == "committed":
            assert t.ts is not None
        else:
            assert t.reason


def test_commit_timestamps_are_unique_and_ordered_within_a_client():
    r = run_scenario(small(seed=9))
    stamps = [t.ts for t in r.history().txns.values() if t.committed]
    assert len(stamps) == len(set(stamps))


def test_txn_ids_stay_unique_across_a_coordinator_restart():
    fs = FaultSchedule()
    fs.crashes.append(CrashDirective(node="c0.SH", at_ns=2_000_000_000,
                                     restart_at_ns=2_500_000_000))
    r = run_scenario(small(seed=11, txns_per_client=60, faults=fs))
    ids = [f["txn"] for _t, kind, f in r.trace if kind == "txn_begin"]
    assert len(ids) == len(set(ids))
    # the restarted coordinator keeps issuing txns afterwards
    assert r.outcomes()["committed"] > 0


def test_run_summary_counts_the_txns_a_coordinator_crash_killed():
    # The crash kills c0.SH's clients mid-transaction; the trace holds
    # those transactions, and the restart keeps the proxy's counters.
    fs = FaultSchedule()
    fs.crashes.append(CrashDirective(node="c0.SH", at_ns=500 * MS,
                                     restart_at_ns=1_000 * MS))
    r = run_scenario(small(seed=11, txns_per_client=60, faults=fs))
    s = run_summary(r)
    begins = sum(1 for _t, kind, _f in r.trace if kind == "txn_begin")
    assert s["txns"] == begins == 50
    assert s["unknown"] == 2
    assert s["ts_requests"] == begins


@pytest.mark.parametrize("mode", ["batched", "strawman"])
@pytest.mark.parametrize("ttl_ns", [100_000, 20 * MS])
def test_timestamps_led_to_the_farthest_primary_stay_in_their_lifetimes(
        mode, ttl_ns):
    # Every program's only primary is in BJ, the farthest region from SG,
    # so each timestamp leads by the longest delay there is; read-only
    # programs commit after the same wait.
    r = run_scenario(small(
        regions=["BJ", "SG"], data_nodes=["BJ"], coordinators=["SG"],
        txns_per_client=20, ts_mode=mode, ttl_ns=ttl_ns,
        workload=WorkloadSpec(kind="ycsb", keys=64, ops_per_txn=2,
                              write_ratio=0.3)))
    h = r.history()
    v = check_timestamp_property(h)
    assert v.ok, v.violations[:3]
    lead = -(-38_800_000 // ttl_ns) * ttl_ns
    committed = [t for t in h.txns.values() if t.committed]
    assert v.checked == len(committed) > 20
    assert any(not any(op[1] == "w" for op in t.ops) for t in committed)
    for t in committed:
        assert t.ts.nanos > t.begin_ns + lead


def test_a_restarted_primary_refuses_writes_below_a_far_led_read():
    # With a 30 ms TTL, SG's 34.65 ms to SH rounds up to a 60 ms lead, so
    # a read served just before a crash stands far above the timestamp
    # the restart then reads. The floor covers every lead a coordinator
    # can give, so a write between the two is refused.
    cluster = Cluster(Scenario(
        name="floor", seed=1, duration_ms=60_000, regions=["SH", "SG"],
        data_nodes=["SH"], coordinators=["SG"], clients_per_coordinator=0,
        ttl_ns=30 * MS))
    cluster.start()
    sim, coord, node = cluster.sim, cluster.coordinators[0], \
        cluster.data_nodes[0]
    coord.k.spawn(coord.run_txn([("r", "x")]))
    run_until_done(sim, lambda: "x" in node.store.chains)
    read = node.store.chains["x"].rt
    fresh = []
    acquire = node.tsproxy.acquire_waiting

    def recording():
        fresh.append((yield from acquire()))
        return fresh[-1]

    node.tsproxy.acquire_waiting = recording
    node.crash()
    node.restart()
    run_until_done(sim, lambda: node.ready)
    assert fresh[0].nanos + 20 * MS < read.nanos < node.rt_floor
    ts = Timestamp(read.nanos - MS, read.server_id, read.batch)
    write = WriteReq("x", "c0.SG:99", ts, "v", coord.home_role, 0)
    resp = drive(sim, coord.k, ask_once(coord.k, node.node_id, write, SEC))
    assert resp == WriteResp(False, None)


def test_a_restarted_data_node_keeps_its_timestamp_proxy():
    # A crash drops the proxy's batch, as a coordinator's does; its
    # counters go on across the restart.
    fs = FaultSchedule()
    fs.crashes.append(CrashDirective(node="d0.SH", at_ns=SEC,
                                     restart_at_ns=2 * SEC))
    cluster = Cluster(small(clients_per_coordinator=0, drain_ms=4000,
                            faults=fs))
    node = cluster.data_nodes[0]
    proxy = node.tsproxy
    before = []
    # scheduled before run() schedules the crash at the same instant
    cluster.sim.at(SEC, lambda: before.append(proxy.requests))
    cluster.run()
    assert node.tsproxy is proxy
    assert proxy.requests > before[0]


def faults_yaml_trace():
    path = Path(__file__).resolve().parent.parent / "scenarios/faults.yaml"
    return Cluster(scenario_from_dict(read_scenario(str(path)))).run().trace


def oracle_outage_trace():
    # Both clients of c0.SH begin while its oracle is down, share its
    # fetches, and wait the outage out.
    fs = FaultSchedule(oracle_outages=[OracleOutage(0, 0, 2 * SEC)])
    return run_scenario(small(txns_per_client=3, faults=fs)).trace


@pytest.mark.parametrize("trace", [faults_yaml_trace, oracle_outage_trace])
def test_every_transaction_ends_once(trace):
    events = trace()
    begins = Counter(f["txn"] for _, kind, f in events if kind == "txn_begin")
    ends = Counter(f["txn"] for _, kind, f in events if kind == "txn_end")
    assert begins and ends == begins
    assert set(begins.values()) == {1}


def test_blind_writes_never_abort():
    sc = small(
        seed=3,
        clients_per_coordinator=4,
        txns_per_client=50,
        workload=WorkloadSpec(kind="blind", keys=4, ops_per_txn=3,
                              write_ratio=1.0, zipf_theta=0.99),
    )
    r = run_scenario(sc)
    outcomes = r.outcomes()
    assert sum(outcomes.values()) == 200
    assert outcomes["aborted"] == 0, outcomes
    assert outcomes["committed"] == 200


def test_contended_read_modify_write_aborts_carry_reasons():
    sc = small(
        seed=5,
        clients_per_coordinator=4,
        txns_per_client=50,
        workload=WorkloadSpec(kind="rmw", keys=2, ops_per_txn=2,
                              write_ratio=1.0, zipf_theta=0.0),
    )
    r = run_scenario(sc)
    s = run_summary(r)
    assert s["aborted"] > 0
    assert sum(s["abort_reasons"].values()) == s["aborted"]
    for t in r.history().txns.values():
        if t.status == "aborted":
            assert t.reason in s["abort_reasons"]


def test_timestamp_service_counters_are_consistent():
    r = run_scenario(small(seed=13))
    s = run_summary(r)
    # one timestamp acquisition per transaction
    assert s["ts_requests"] == sum(r.outcomes().values())
    # a request is served from the live batch, by its own fetch, or by
    # piggybacking on a fetch already in flight -- so local + fetches
    # never exceeds requests, and with 100us batches against ~27ms txn
    # gaps nearly every acquisition needs a fresh fetch
    assert s["ts_served_local"] + s["ts_fetches"] <= s["ts_requests"]
    assert s["ts_fetches"] >= s["ts_requests"] // 2


# -- the recorder's waiting list ----------------------------------------------


def ask_recorder_at_once(move_register: bool):
    """Two decides of one transaction and a push of it, sent to its
    recorder at one instant; ``move_register`` hands the role to another
    node while the decision's append is in flight. Returns the replies to
    each of the three and the txns of the trace's ``record`` events."""
    cluster = Cluster(small(clients_per_coordinator=0))
    cluster.start()
    sim, coord = cluster.sim, cluster.coordinators[0]
    node, other = cluster.data_nodes
    role, txn = node.role_self, f"{coord.node_id}:99"
    decide = DecideReq(role, txn, COMMITTED, 1)
    reqs = [decide, decide, PushReq(role, txn)]
    asks = [coord.k.spawn(replies_to_one_try(coord.k, node.node_id, req,
                                             100 * MS))
            for req in reqs]
    if move_register:
        sim.run_until(sim.now + node.storage.flush_ns // 2)
        node.storage.membership[role] = other.node_id
    run_until_done(sim, lambda: all(a.done for a in asks))
    records = [f["txn"] for _t, kind, f in sim.trace.events
               if kind == "record"]
    return [a.value for a in asks], records, txn


def test_decides_of_a_decision_in_flight_wait_for_it_with_the_pushes():
    ([first], [told, second], [told_push, push]), records, txn = \
        ask_recorder_at_once(False)
    assert isinstance(first, DecideResp) and first.status == COMMITTED
    assert told == told_push == Pending()  # parked, and told so at once
    assert second == first
    assert push == PushResp(COMMITTED, first.epoch)
    assert records == [txn]


def test_a_fenced_decision_answers_every_waiting_envelope_not_owner():
    answers, records, _txn = ask_recorder_at_once(True)
    assert answers == [[NotOwner("rec/d0.SH")],
                       [Pending(), NotOwner("rec/d0.SH")],
                       [Pending(), NotOwner("rec/d0.SH")]]
    assert records == []


def test_a_floor_whose_append_is_fenced_answers_not_owner():
    # A replica's push of an undecided transaction gets an epoch floor,
    # made durable in an in-progress record. The role moves to another
    # node while that append is flushing, so the append is fenced.
    cluster = Cluster(small(clients_per_coordinator=0))
    cluster.start()
    sim, coord = cluster.sim, cluster.coordinators[0]
    node, other = cluster.data_nodes
    role, txn = node.role_self, f"{coord.node_id}:99"
    push = coord.k.spawn(ask_once(coord.k, node.node_id,
                                  PushReq(role, txn, above=40), 100 * MS))
    sim.run_until(sim.now + 3 * MS // 10)
    assert 3 * MS // 10 < node.storage.flush_ns
    node.storage.membership[role] = other.node_id
    run_until_done(sim, lambda: push.done)
    assert push.value == NotOwner(role)
    events = sim.trace.events
    assert [(f["node"], f["role"]) for _t, kind, f in events
            if kind == "fenced"] == [(node.node_id, role)]
    assert not [f for _t, kind, f in events if kind == "record"]
    assert role not in node.recorder.roles


def test_a_parked_push_is_told_pending_and_answered_once_under_its_request_id():
    cluster = Cluster(small(clients_per_coordinator=0))
    cluster.start()
    sim, coord = cluster.sim, cluster.coordinators[0]
    node = cluster.data_nodes[0]
    role, txn = node.role_self, f"{coord.node_id}:99"
    roles = RoleDirectory(cluster.storage)
    reads = []
    refresh = roles.refresh

    def counted_refresh(role):
        reads.append(sim.now)
        return (yield from refresh(role))

    roles.refresh = counted_refresh
    sent = []
    send = cluster.net.send

    def recording(src, dst_id, payload, rid=0, is_reply=False):
        if isinstance(payload, (PushReq, PushResp, Pending)):
            sent.append((sim.now, type(payload), rid))
        send(src, dst_id, payload, rid, is_reply)

    cluster.net.send = recording
    push = coord.k.spawn(request(coord.k, role, PushReq(role, txn),
                                 roles=roles))
    sim.run_until(sim.now + 200 * MS)
    decide = coord.k.spawn(ask_once(coord.k, node.node_id,
                                    DecideReq(role, txn, COMMITTED, 1),
                                    100 * MS))
    run_until_done(sim, lambda: push.done and decide.done)
    assert push.value == PushResp(COMMITTED, decide.value.epoch)
    assert len(reads) == 1  # a long poll keeps the owner
    asked = [t for t, kind, _rid in sent if kind is PushReq]
    assert len({rid for _t, _kind, rid in sent}) == 1  # one call
    # every try is told Pending at once, and one answer follows
    assert [kind for _t, kind, _rid in sent] == \
        [PushReq, Pending] * len(asked) + [PushResp]
    assert len(asked) >= 200 * MS // (LONG_POLL_NS + MS)
    assert all(b - a >= LONG_POLL_NS for a, b in zip(asked, asked[1:]))


def test_a_decide_between_an_adopters_cas_and_its_reload_is_refused():
    # the adopter answers NotOwner until the role's records are loaded;
    # the sender re-reads the register and asks again
    cluster, (coord, _reader) = standby_cluster()
    sim, standby = cluster.sim, cluster.standby_nodes[0]
    role, txn = coord.home_role, f"{coord.node_id}:99"
    refused = record_sends(cluster, NotOwner)
    standby.k.spawn(standby.recorder.adopt_role(role, "d0.SH"))
    coord.membership.invalidate(role)
    # the register read lands with the CAS, a storage read before the
    # reload, and the decide reaches the adopter between the two
    resp = drive(sim, coord.k, request(
        coord.k, role, DecideReq(role, txn, COMMITTED, 1),
        roles=coord.membership))
    assert resp.status == COMMITTED
    assert refused == [(refused[0][0], NotOwner(role))]
    assert [f["node"] for _t, kind, f in sim.trace.events
            if kind == "takeover"] == [standby.node_id]
    assert [(f["role"], f["txn"]) for _t, kind, f in sim.trace.events
            if kind == "record"] == [(role, txn)]
    assert standby.recorder.roles[role].records[txn].status == COMMITTED


# -- single transactions driven by hand on an idle cluster -------------------


def idle_cluster(faults=None):
    """Two data nodes (SH, BJ) and one SH coordinator, with no clients."""
    cluster = Cluster(Scenario(
        name="verbs", seed=1, duration_ms=60_000, regions=["SH", "BJ"],
        data_nodes=["SH", "BJ"], coordinators=["SH"],
        clients_per_coordinator=0, faults=faults or FaultSchedule(),
    ))
    cluster.start()
    return cluster, cluster.coordinators[0]


def keys_on(cluster, node_id, n=1):
    keys = (f"k{i}" for i in range(10_000))
    return [k for k in keys if cluster.router.primary(k) == node_id][:n]


def record_sends(cluster, kind):
    """(instant, payload) of every ``kind`` message sent from now on;
    ``kind`` is a class or a tuple of classes."""
    sent = []
    send = cluster.net.send

    def recording(src, dst_id, payload, rid=0, is_reply=False):
        if isinstance(payload, kind):
            sent.append((cluster.sim.now, payload))
        send(src, dst_id, payload, rid, is_reply)

    cluster.net.send = recording
    return sent


@pytest.mark.parametrize("data_nodes, coordinators, homes", [
    # every coordinator shares a region with a data node
    (["SH", "BJ", "GZ", "GY", "SG"], ["SH", "BJ", "GZ", "GY", "SG"],
     ["d0.SH", "d1.BJ", "d2.GZ", "d3.GY", "d4.SG"]),
    # as in a07: BJ has no data node, so its coordinator records in SH
    (["SH"], ["SH", "BJ"], ["d0.SH", "d0.SH"]),
    # the nearest is not the first in router order; SG is 23.4 ms from
    # GZ, 30 ms from GY, 34.65 ms from SH; ties go to the first
    (["SH", "GY", "GZ", "SH"], ["SG", "SH"], ["d2.GZ", "d0.SH"]),
])
def test_each_coordinator_records_at_its_nearest_data_node(
        data_nodes, coordinators, homes):
    cluster = Cluster(Scenario(name="homes", seed=1, data_nodes=data_nodes,
                               coordinators=coordinators,
                               clients_per_coordinator=0))
    assert [c.home_role for c in cluster.coordinators] == \
        [f"rec/{h}" for h in homes]


def test_a_writer_records_only_its_decision_at_home():
    cluster, coord = idle_cluster()
    [b] = keys_on(cluster, "d1.BJ")
    decides = record_sends(cluster, DecideReq)
    res = drive(cluster.sim, coord.k, coord.run_txn([("w", b, "v")]))
    assert res.status == "committed"
    assert [p.role for _t, p in decides] == ["rec/d0.SH"]
    # the record is written once, in SH, though the only write went to BJ
    h = build_history(cluster.sim.trace.events)
    assert [(role, status) for _t, role, txn, status, _e in h.records
            if txn == res.txn] == [("rec/d0.SH", "committed")]


def test_a_commit_asks_for_the_highest_write_proposal():
    # Three writes to BJ, acked while d1.BJ proposes epochs 3, 5 and 4,
    # all above the recorder's own epoch: the decide carries the highest,
    # and the transaction commits into it.
    cluster, coord = idle_cluster()
    sim, bj = cluster.sim, cluster.data_nodes[1]
    decides = record_sends(cluster, DecideReq)
    acks = record_sends(cluster, WriteResp)
    h = drive(sim, coord.k, coord.begin(0))
    h.role = coord.home_role
    for i, (key, cuts) in enumerate(zip(keys_on(cluster, "d1.BJ", 3),
                                        (2, 4, 3))):
        bj.cutter.cuts_done = cuts
        assert drive(sim, coord.k, coord.execute_write(h, key, [(i, "v")]))
    assert [p.proposal for _t, p in acks] == [3, 5, 4]
    assert h.proposal == 5
    assert cluster.data_nodes[0].epoch_now() < 5
    assert drive(sim, coord.k, coord.commit(h)) == COMMITTED
    assert [p.proposal for _t, p in decides] == [5]
    assert [(f["txn"], f["epoch"]) for _t, kind, f in sim.trace.events
            if kind == "record"] == [(h.txn, 5)]


def test_a_txn_begun_during_a_short_oracle_outage_commits():
    fs = FaultSchedule(oracle_outages=[OracleOutage(0, 0, 200 * MS)])
    cluster, coord = idle_cluster(fs)
    [a] = keys_on(cluster, "d0.SH")
    res = drive(cluster.sim, coord.k, coord.run_txn([("w", a, "v")]))
    assert res.status == "committed", res.reason
    assert res.ts.nanos > 200 * MS


def test_a_begin_in_a_long_outage_asks_the_oracle_until_it_ends():
    outage_end = 2 * SEC
    fs = FaultSchedule(oracle_outages=[OracleOutage(0, 0, outage_end)])
    cluster, coord = idle_cluster(fs)
    fetches = []
    send = cluster.net.send

    def recording(src, dst_id, payload, rid=0, is_reply=False):
        if src is coord and isinstance(payload, TsReq):
            fetches.append(cluster.sim.now)
        send(src, dst_id, payload, rid, is_reply)

    cluster.net.send = recording
    h = drive(cluster.sim, coord.k, coord.begin(0))
    assert h.status == "active"
    assert h.ts.nanos > outage_end > fetches[-2]
    # the outage outlasts 40 fetches and their back-offs
    assert len(fetches) > 40
    # each refused fetch is followed by a back-off of 2, 4, ..., 50 ms,
    # the rule every request follows, and an in-rack round trip
    gaps = [b - a for a, b in zip(fetches, fetches[1:])]
    for i, gap in enumerate(gaps):
        assert retry_backoff_ns(i) < gap < retry_backoff_ns(i) + MS


def test_a_write_run_is_sent_at_once_coalesced_with_one_lead_write():
    cluster, coord = idle_cluster()
    a, c = keys_on(cluster, "d0.SH", 2)
    [b] = keys_on(cluster, "d1.BJ")
    sent = record_sends(cluster, WriteReq)
    program = [("w", a, "v0"), ("w", b, "v1"), ("w", a, "v2"), ("r", b),
               ("w", c, "v4"), ("w", a, "v5")]
    res = drive(cluster.sim, coord.k, coord.run_txn(program))
    assert res.status == "committed"

    # one write per distinct key, all in one instant; a key's consecutive
    # writes carry its last value
    assert [(p.key, p.value) for _t, p in sent] == [
        (a, "v5"), (b, "v1"), (c, "v4")]
    assert len({t for t, _p in sent}) == 1
    assert {p.role for _t, p in sent} == {"rec/d0.SH"}

    # every op keeps its own index and value
    assert writes_of(cluster.sim, res) == [
        (0, a, "v0"), (1, b, "v1"), (2, a, "v2"), (4, c, "v4"), (5, a, "v5")]
    assert reads_of(cluster.sim, res) == [(3, b, res.ts, "v1")]
    ops = build_history(cluster.sim.trace.events).txns[res.txn].ops
    assert sorted(op for op in ops if op[1] == "w") == [
        (0, "w", a, None, "v0"), (1, "w", b, None, "v1"),
        (2, "w", a, None, "v2"), (4, "w", c, None, "v4"),
        (5, "w", a, None, "v5")]

    after = drive(cluster.sim, coord.k,
                  coord.run_txn([("r", a), ("r", b), ("r", c)]))
    assert [r[3] for r in reads_of(cluster.sim, after)] == ["v5", "v1", "v4"]


def test_reads_of_distinct_keys_leave_in_one_instant():
    cluster, coord = idle_cluster()
    a, c = keys_on(cluster, "d0.SH", 2)
    [b] = keys_on(cluster, "d1.BJ")
    drive(cluster.sim, coord.k, coord.run_txn([("w", b, "old")]))
    sent = record_sends(cluster, ReadReq)
    res = drive(cluster.sim, coord.k,
                coord.run_txn([("r", a), ("r", b), ("r", c)]))
    # aligned: the reads land in one instant, so the far read of b leaves
    # as soon as the timestamp is taken and the near ones wait for it
    [ts_at] = [t for t, kind, f in cluster.sim.trace.events
               if kind == "txn_ts" and f["txn"] == res.txn]
    assert [(t, p.key) for t, p in sent][0] == (ts_at, b)
    assert sorted(p.key for _t, p in sent) == sorted([a, b, c])
    landed = {t + coord.k.one_way_ns(cluster.router.primary(p.key))
              for t, p in sent}
    assert len(landed) == 1
    assert [r[:2] for r in reads_of(cluster.sim, res)] == \
        [(0, a), (1, b), (2, c)]
    assert reads_of(cluster.sim, res)[1][3] == "old"


def test_a_read_carries_the_writes_after_it_and_later_ones_wait_for_it():
    cluster, coord = idle_cluster()
    [b] = keys_on(cluster, "d1.BJ")
    sent = record_sends(cluster, (ReadReq, ReadResp, WriteReq))
    res = drive(cluster.sim, coord.k, coord.run_txn(
        [("r", b), ("w", b, "v1"), ("w", b, "v2"), ("r", b), ("w", b, "v4")]))
    assert res.status == "committed"
    # the read carries the run of writes after it, coalesced; the read
    # after them is served from the write buffer, and the last write
    # leaves on its own once the reply has crossed back from BJ
    assert [type(p) for _t, p in sent] == [ReadReq, ReadResp, WriteReq]
    read, reply, write = (p for _t, p in sent)
    assert (read.write.key, read.write.value, read.write.idx) == (b, "v2", 2)
    assert reply.write.ok
    assert (write.value, write.idx) == ("v4", 4)
    assert sent[0][0] < sent[1][0] < sent[2][0]
    assert writes_of(cluster.sim, res) == \
        [(1, b, "v1"), (2, b, "v2"), (4, b, "v4")]
    assert reads_of(cluster.sim, res) == \
        [(0, b, None, None), (3, b, res.ts, "v2")]


def test_a_late_try_of_an_earlier_write_does_not_overwrite_a_later_one():
    # w(a) r(a) w(a): the first write's re-send can land after the
    # second write, once the first try's reply has let the chain go on
    cluster, coord = idle_cluster()
    sim = cluster.sim
    node = cluster.data_nodes[0]
    [a] = keys_on(cluster, node.node_id)
    txn = f"{coord.node_id}:99"
    ts = drive(sim, coord.k, coord.tsproxy.acquire())

    def write(idx, value):
        def task():
            req = WriteReq(a, txn, ts, value, coord.home_role, idx)
            return (yield from ask_once(coord.k, node.node_id, req, 100 * MS))
        return drive(sim, coord.k, task())

    assert write(0, "v0").ok
    assert write(2, "v2").ok
    assert write(0, "v0").ok  # the late try
    assert node.store.chains[a].intents[txn].value == "v2"
    # nor is it logged, so a replay keeps the later value too
    node.crash()
    node.restart()
    sim.run_until(sim.now + 1 * SEC)
    assert node.store.chains[a].intents[txn].value == "v2"


def test_a_write_reasked_in_and_after_its_flush_is_logged_once():
    cluster, coord = idle_cluster()
    sim = cluster.sim
    node = cluster.data_nodes[0]
    [a] = keys_on(cluster, node.node_id)
    txn = f"{coord.node_id}:99"
    ts = drive(sim, coord.k, coord.tsproxy.acquire())
    req = WriteReq(a, txn, ts, "v0", coord.home_role, 0)

    def writer():
        call = coord.k.call(node.node_id, req)
        first = yield call.ask(node.storage.flush_ns // 4)  # in the flush
        again = yield call.ask(SEC)
        answer = yield call.listen(SEC)
        after = yield call.ask(SEC)  # once answered
        call.close()
        return first, again, answer, after

    first, again, answer, after = drive(sim, coord.k, writer())
    assert first is RPC_TIMEOUT
    assert again == Pending()
    assert answer.ok and after == answer
    entries = [e for e in node.storage.streams[node.node_id]
               if isinstance(e, IntentEntry)]
    assert [(e.txn, e.key, e.idx) for e in entries] == [(txn, a, 0)]


def test_a_read_after_a_write_of_its_key_is_served_from_the_write():
    cluster, coord = idle_cluster()
    [b] = keys_on(cluster, "d1.BJ")
    reads = record_sends(cluster, ReadReq)
    res = drive(cluster.sim, coord.k,
                coord.run_txn([("w", b, "v0"), ("r", b)]))
    assert res.status == "committed"
    assert reads == []
    assert reads_of(cluster.sim, res) == [(1, b, res.ts, "v0")]


def test_a_hold_is_a_barrier():
    cluster, coord = idle_cluster()
    [a] = keys_on(cluster, "d0.SH")
    b, c = keys_on(cluster, "d1.BJ", 2)
    sent = record_sends(cluster, (ReadReq, WriteReq))
    replies = record_sends(cluster, ReadResp)
    hold = 20 * MS
    res = drive(cluster.sim, coord.k, coord.run_txn(
        [("r", b), ("w", a, "v1"), ("hold", hold), ("r", c), ("w", b, "v4")]))
    assert res.status == "committed"
    assert [(type(p), p.key) for _t, p in sent] == [
        (ReadReq, b), (WriteReq, a), (ReadReq, c), (WriteReq, b)]
    assert sent[0][0] == sent[1][0] and sent[2][0] == sent[3][0]
    # the hold starts only once the read of b, across the WAN, is answered
    assert sent[2][0] >= replies[0][0] + hold * 0.99 > sent[0][0] + hold
    assert writes_of(cluster.sim, res) == [(1, a, "v1"), (4, b, "v4")]
    assert [r[:2] for r in reads_of(cluster.sim, res)] == [(0, b), (3, c)]


def test_an_rt_conflict_stops_other_chains_and_finalizes_their_intents():
    cluster, coord = idle_cluster()
    sim = cluster.sim
    [a] = keys_on(cluster, "d0.SH")
    b, c = keys_on(cluster, "d1.BJ", 2)
    sent = record_sends(cluster, WriteReq)
    reads = record_sends(cluster, ReadReq)
    writer = coord.k.spawn(coord.run_txn(
        [("hold", 100 * MS), ("w", a, "w.0"), ("w", c, "w.1"), ("r", b),
         ("w", b, "w.3"), ("r", b), ("w", b, "w.5")]))
    sim.run_until(sim.now + 10 * MS)
    drive(sim, coord.k, coord.run_txn([("r", a)]))
    run_until_done(sim, lambda: writer.done)
    res = writer.value
    assert (res.status, res.reason) == ("aborted", "rt_conflict")
    # a's write is refused at once, in SH; b's read, carrying its first
    # write, is still on the wire to BJ then, and lands; so does c's
    # write. b's second write would follow b's reply, and is never sent
    assert [p.key for _t, p in sent if p.txn == res.txn] == [a, c]
    [read] = [p for _t, p in reads if p.reader == res.txn]
    assert (read.key, read.write.value) == (b, "w.3")
    assert writes_of(sim, res) == [(2, c, "w.1"), (4, b, "w.3")]

    sim.run_until(sim.now + 1 * SEC)
    h = build_history(sim.trace.events)
    assert terminal_records(h)[res.txn][0] == "aborted"
    for node in cluster.data_nodes:
        for chain in node.store.chains.values():
            assert res.txn not in chain.intents


def test_a_read_modify_write_of_a_free_key_costs_one_read_and_no_write():
    cluster, coord = idle_cluster()
    sim = cluster.sim
    node = cluster.data_nodes[1]
    [b] = keys_on(cluster, node.node_id)
    sent = record_sends(cluster, (ReadReq, ReadResp, WriteReq, WriteResp))
    res = drive(sim, coord.k, coord.run_txn([("r", b), ("w", b, "v1")]))
    assert (res.status, res.reason) == ("committed", None)
    assert [type(p) for _t, p in sent] == [ReadReq, ReadResp]
    assert sent[1][1].write.ok
    assert reads_of(sim, res) == [(0, b, None, None)]
    assert writes_of(sim, res) == [(1, b, "v1")]
    # the intent is logged once, with the write's index and value
    entries = [e for e in node.storage.streams[node.node_id]
               if isinstance(e, IntentEntry)]
    assert [(e.txn, e.key, e.value, e.idx) for e in entries] == \
        [(res.txn, b, "v1", 1)]
    after = drive(sim, coord.k, coord.run_txn([("r", b)]))
    assert reads_of(sim, after)[0][3] == "v1"


def parked_behind_an_intent():
    """Two SH coordinators on one SH data node: c0.SH has committed
    ``old`` to x and holds an undecided intent of ``new`` there for
    100 ms, so every op on x that c1.SH sends parks until it commits.
    Returns the cluster, both coordinators, the writer's task and the
    payloads c1.SH sends and hears from now on."""
    cluster, (writer, reader) = two_coordinator_cluster()
    sim = cluster.sim
    drive(sim, writer.k, writer.run_txn([("w", "x", "old")]))
    w = writer.k.spawn(writer.run_txn([("w", "x", "new"),
                                       ("hold", 100 * MS)]))
    sim.run_until(sim.now + 10 * MS)  # the intent on x is installed
    sent = []
    send = cluster.net.send

    def recording(src, dst_id, payload, rid=0, is_reply=False):
        if reader in (src, cluster.net.nodes.get(dst_id)):
            sent.append(payload)
        send(src, dst_id, payload, rid, is_reply)

    cluster.net.send = recording
    return cluster, writer, reader, w, sent


def test_a_read_modify_write_parked_behind_an_intent_installs_as_it_wakes():
    # the parked op is answered once the older writer is decided, with
    # its read and its ack: no write goes on its own
    cluster, writer, reader, w, sent = parked_behind_an_intent()
    sim = cluster.sim
    node = cluster.data_nodes[0]
    res = drive(sim, reader.k, reader.run_txn([("r", "x"), ("w", "x", "rmw")]))
    assert w.value.status == "committed"
    assert (res.status, res.reason) == ("committed", None)
    assert reads_of(sim, res)[0][3] == "new"
    assert writes_of(sim, res) == [(1, "x", "rmw")]
    ops = [p for p in sent
           if isinstance(p, (ReadReq, Pending, ReadResp, WriteReq, WriteResp))]
    # told it is parked, and re-asking every long poll; then answered
    # with both the read and the write
    kinds = [type(p) for p in ops]
    assert kinds[:2] == [ReadReq, Pending]
    assert set(kinds[:-1]) == {ReadReq, Pending} and kinds[-1] == ReadResp
    assert ops[-1].write.ok
    assert node.store.chains["x"].waiters == {}
    after = drive(sim, reader.k, reader.run_txn([("r", "x")]))
    assert reads_of(sim, after)[0][3] == "rmw"
    assert node.store.chains["x"].intents == {}


@pytest.mark.parametrize("first", ["low", "high"])
def test_of_two_read_modify_writes_parked_on_a_key_the_lower_never_reads(
        first):
    # The lower is refused with nothing read as soon as the higher is
    # parked: at the higher's park if it parked first, or as it arrives.
    cluster, writer, reader, w, sent = parked_behind_an_intent()
    sim = cluster.sim
    node = cluster.data_nodes[0]
    delay = {"low": [], "high": []}
    delay["high" if first == "low" else "low"] = [("hold", 5 * MS)]
    low = reader.k.spawn(reader.run_txn(
        delay["low"] + [("r", "x"), ("w", "x", "low")]))
    sim.run_until(sim.now + MS)
    high = reader.k.spawn(reader.run_txn(
        delay["high"] + [("r", "x"), ("w", "x", "high")]))
    run_until_done(sim, lambda: low.done and high.done)
    assert low.value.ts < high.value.ts
    sent_first = [p.reader for p in sent if isinstance(p, ReadReq)][0]
    assert sent_first == (low if first == "low" else high).value.txn
    assert w.value.status == "committed"
    assert (low.value.status, low.value.reason) == ("aborted", "rt_conflict")
    assert (high.value.status, high.value.reason) == ("committed", None)
    assert reads_of(sim, low.value) == []
    assert reads_of(sim, high.value)[0][3] == "new"
    assert not [p for p in sent if isinstance(p, WriteReq)]
    # the refusal alone answers the lower, before the higher wakes
    refusal, answer = [p for p in sent
                       if isinstance(p, (ReadResp, WriteResp))]
    assert refusal == WriteResp(False, None) and answer.write.ok
    events = sim.trace.events
    ops = [f["txn"] for _t, kind, f in events if kind == "op"]
    assert low.value.txn not in ops
    # only one that parks traces a wait, and its wait ends at the refusal
    waits = [(t, kind) for t, kind, f in events
             if kind in ("push_wait", "push_done")
             and f["reader"] == low.value.txn]
    [high_parks] = [t for t, kind, f in events if kind == "push_wait"
                    and f["reader"] == high.value.txn]
    if first == "low":
        assert [kind for _t, kind in waits] == ["push_wait", "push_done"]
        assert waits[1][0] == high_parks
    else:
        assert waits == []
    assert node.store.chains["x"].waiters == {}
    after = drive(sim, reader.k, reader.run_txn([("r", "x")]))
    assert reads_of(sim, after)[0][3] == "high"


def test_a_plain_read_that_parks_above_a_read_modify_write_refuses_it():
    cluster, writer, reader, w, sent = parked_behind_an_intent()
    sim = cluster.sim
    rmw = reader.k.spawn(reader.run_txn([("r", "x"), ("w", "x", "rmw")]))
    sim.run_until(sim.now + MS)
    read = reader.k.spawn(reader.run_txn([("r", "x")]))
    sim.run_until(sim.now + MS)
    # refused while the writer that blocks both is still undecided
    assert rmw.done and not w.done
    run_until_done(sim, lambda: read.done)
    assert rmw.value.ts < read.value.ts
    assert (rmw.value.status, rmw.value.reason) == ("aborted", "rt_conflict")
    assert reads_of(sim, rmw.value) == []
    assert read.value.status == "committed"
    assert reads_of(sim, read.value)[0][3] == "new"
    assert not [p for p in sent if isinstance(p, WriteReq)]
    assert [p for p in sent if isinstance(p, WriteResp)] == \
        [WriteResp(False, None)]


def test_a_crash_forgets_the_ops_parked_at_a_primary():
    # A plain read parks below a read-modify-write, so neither dooms the
    # other. Both die with the primary's process; the restarted primary
    # holds no waiter from before, and a new op on the key installs as
    # on a free key, with no park and no write of its own.
    cluster, writer, reader, w, sent = parked_behind_an_intent()
    sim = cluster.sim
    node = cluster.data_nodes[0]
    read = reader.k.spawn(reader.run_txn([("r", "x")]))
    sim.run_until(sim.now + MS)
    rmw = reader.k.spawn(reader.run_txn([("r", "x"), ("w", "x", "a")]))
    sim.run_until(sim.now + MS)
    old = node.store.chains["x"]
    assert not read.done and not rmw.done
    assert list(old.waiters) == ["c1.SH:1", "c1.SH:2"]
    assert [reader for reader, (_ts, refuse) in old.waiters.items()
            if refuse is not None] == ["c1.SH:2"]
    node.crash()
    sim.run_until(sim.now + 100 * MS)
    node.restart()
    run_until_done(sim, lambda: node.ready and w.done)
    assert node.store.chains["x"] is not old
    assert node.store.chains["x"].waiters == {}
    sim.run_until(sim.now + SEC)  # the writer's intent is finalized
    del sent[:]
    res = drive(sim, reader.k, reader.run_txn([("r", "x"), ("w", "x", "c")]))
    assert (res.status, res.reason) == ("committed", None)
    kinds = [type(p) for p in sent
             if isinstance(p, (ReadReq, Pending, ReadResp, WriteReq))]
    assert kinds == [ReadReq, ReadResp]
    assert node.store.chains["x"].waiters == {}


@pytest.mark.parametrize("programs", [
    [[("r", "x")]],
    [[("r", "x"), ("w", "x", "a")]],
    [[("r", "x")], [("r", "x"), ("w", "x", "a")]],
], ids=["read", "rmw", "both"])
def test_ops_parked_at_a_crashed_primary_are_freed_at_the_crash(
        monkeypatch, programs):
    # Parked reads, read-modify-writes and the push they started all wait
    # on futures the crashed node holds. They are freed at the crash, so
    # the cycle collector later finds nothing of theirs to finalize.
    cluster, writer, reader, w, sent = parked_behind_an_intent()
    sim = cluster.sim
    node = cluster.data_nodes[0]
    parked = []

    def tracked(owner, name):
        def task(*args):
            gen = getattr(type(owner), name)(owner, *args)
            parked.append(weakref.ref(gen))
            return gen

        setattr(owner, name, task)

    tracked(node, "_read_task")
    tracked(node.recorder, "_push_task")
    reported = []
    monkeypatch.setattr(sys, "unraisablehook", reported.append)
    gc.collect()
    gc.disable()
    try:
        for program in programs:
            reader.k.spawn(reader.run_txn(program))
            sim.run_until(sim.now + MS)
        assert len(node.store.chains["x"].waiters) == len(programs)
        assert len(parked) == len(programs) + 1  # and one push
        node.crash()
        sim.run_until(sim.now + 100 * MS)
        assert [task() for task in parked] == [None] * len(parked)
    finally:
        gc.enable()
    node.restart()
    run_until_done(sim, lambda: node.ready)
    gc.collect()
    assert reported == []


def test_a_refused_read_modify_write_logs_nothing_nor_does_a_late_one():
    cluster, coord = idle_cluster()
    sim = cluster.sim
    node = cluster.data_nodes[0]
    [a] = keys_on(cluster, node.node_id)

    def intents_logged():
        return [(e.txn, e.value)
                for e in node.storage.streams.get(node.node_id, [])
                if isinstance(e, IntentEntry)]

    # a later reader raises a's read timestamp before the op lands
    writer = coord.k.spawn(coord.run_txn(
        [("hold", 100 * MS), ("r", a), ("w", a, "refused")]))
    sim.run_until(sim.now + 10 * MS)
    drive(sim, coord.k, coord.run_txn([("r", a)]))
    replies = record_sends(cluster, ReadResp)
    run_until_done(sim, lambda: writer.done)
    res = writer.value
    assert (res.status, res.reason) == ("aborted", "rt_conflict")
    assert [p.write for _t, p in replies] == [WriteResp(False, None)]
    assert writes_of(sim, res) == []
    assert reads_of(sim, res) == [(1, a, None, None)]
    assert intents_logged() == []
    assert node.store.chains[a].intents == {}

    # a late try of a decided transaction's op installs nothing
    done = drive(sim, coord.k, coord.run_txn([("w", a, "v")]))
    sim.run_until(sim.now + 100 * MS)  # its finalize lands
    assert done.txn in node.store.decided
    late = ReadReq(a, done.ts, done.txn,
                   WriteReq(a, done.txn, done.ts, "late", coord.home_role, 5))
    resp = drive(sim, coord.k, ask_once(coord.k, node.node_id, late, SEC))
    assert resp == ReadResp("v", done.ts, WriteResp(True, None))
    assert intents_logged() == [(done.txn, "v")]
    assert node.store.chains[a].intents == {}
    assert node.store.chains[a].visible(done.ts) == (done.ts, "v")


def test_a_client_killed_by_a_crash_mid_segment_is_released_at_the_crash():
    # The run ends once every client has ended, so a client that dies with
    # its coordinator must end at the crash, not at the next collection.
    cluster, coord = idle_cluster()
    sim = cluster.sim
    [a] = keys_on(cluster, "d0.SH")
    b, c = keys_on(cluster, "d1.BJ", 2)
    released = []

    def client():
        try:
            yield from coord.run_txn([("r", a), ("r", b), ("w", c, "v")])
        finally:
            released.append(sim.now)

    gc.disable()
    try:
        coord.k.spawn(client())
        sim.run_until(sim.now + 5 * MS)  # the reads of b and c are in flight
        coord.crash()
        assert released == [sim.now]
    finally:
        gc.enable()


def test_a_commit_whose_decides_are_lost_for_five_seconds_commits():
    # every decide is lost for 5 s, which takes dozens of tries; the
    # commit asks until a decide lands
    lost = MsgFilter(kinds=frozenset({"DecideReq"}), prob=1.0,
                     end_ns=5 * SEC)
    cluster, coord = idle_cluster(FaultSchedule(msg_filters=[lost]))
    sim = cluster.sim
    [a] = keys_on(cluster, "d0.SH")
    decides = record_sends(cluster, DecideReq)
    res = drive(sim, coord.k, coord.run_txn([("w", a, "late")]))
    assert (res.status, res.reason) == ("committed", None)
    assert decides[-1][0] >= 5 * SEC > decides[-2][0]
    h = build_history(sim.trace.events)
    assert terminal_records(h)[res.txn][0] == "committed"

    # the coordinator stayed alive and heartbeating, so no sweep raced
    # it, and its finalize installs the write
    sim.run_until(sim.now + SEC)
    for chain in cluster.data_nodes[0].store.chains.values():
        assert res.txn not in chain.intents
    reader = drive(sim, coord.k, coord.run_txn([("r", a)]))
    assert reads_of(sim, reader)[0][3] == "late"
    assert not [p for p in build_history(sim.trace.events).pushes
                if p[3] == reader.txn]


def test_a_write_its_primary_misses_for_two_seconds_commits_once_it_lands():
    # the primary shares the coordinator's region, so each try waits the
    # 5 ms floor: the 2 s take more than 30 tries
    lost = MsgFilter(kinds=frozenset({"WriteReq"}), prob=1.0,
                     end_ns=2 * SEC)
    cluster, coord = idle_cluster(FaultSchedule(msg_filters=[lost]))
    sim = cluster.sim
    [a] = keys_on(cluster, "d0.SH")
    writes = record_sends(cluster, WriteReq)
    res = drive(sim, coord.k, coord.run_txn([("w", a, "v")]))
    assert (res.status, res.reason) == ("committed", None)
    assert len(writes) > 30
    assert writes[-1][0] >= 2 * SEC > writes[-2][0]
    h = build_history(sim.trace.events)
    assert terminal_records(h)[res.txn][0] == "committed"


def test_a_write_to_a_crashed_primary_waits_for_its_restart_floor():
    # A crashed primary is asked until it is back. It lost its read
    # timestamps, so it then refuses writes below its restart floor, as
    # this one is; the refusal is an abort the recorder makes durable.
    down, up = 100 * MS, 2100 * MS
    fs = FaultSchedule(crashes=[CrashDirective("d0.SH", down, up)])
    cluster, coord = idle_cluster(fs)
    sim = cluster.sim
    [a] = keys_on(cluster, "d0.SH")
    sim.run_until(down + MS)
    writes = record_sends(cluster, WriteReq)
    res = drive(sim, coord.k, coord.run_txn([("w", a, "v")]))
    assert (res.status, res.reason) == ("aborted", "rt_conflict")
    assert writes[0][0] < up < writes[-1][0]
    [recovered] = [f for _t, kind, f in sim.trace.events
                   if kind == "recovered"]
    assert res.ts.nanos < recovered["rt_floor"]
    h = build_history(sim.trace.events)
    assert terminal_records(h)[res.txn][0] == "aborted"


@pytest.mark.parametrize("conflict", ["lead", "other"])
def test_an_rt_conflict_on_any_write_of_a_run_aborts_durably(conflict):
    cluster, coord = idle_cluster()
    sim = cluster.sim
    [a] = keys_on(cluster, "d0.SH")
    [b] = keys_on(cluster, "d1.BJ")
    writer = coord.k.spawn(coord.run_txn(
        [("hold", 100 * MS), ("w", a, "w.0"), ("w", b, "w.1")]))
    sim.run_until(sim.now + 10 * MS)
    # a later reader raises one key's read timestamp above the writer's
    hot = a if conflict == "lead" else b
    drive(sim, coord.k, coord.run_txn([("r", hot)]))
    run_until_done(sim, lambda: writer.done)
    res = writer.value
    assert (res.status, res.reason) == ("aborted", "rt_conflict")

    sim.run_until(sim.now + 1 * SEC)
    h = build_history(sim.trace.events)
    assert terminal_records(h)[res.txn][0] == "aborted"
    # the write that did land was finalized away
    for node in cluster.data_nodes:
        for chain in node.store.chains.values():
            assert res.txn not in chain.intents


def test_a_commit_settled_after_its_coordinator_crashed_keeps_its_ts():
    cluster, coord = idle_cluster()
    sim = cluster.sim
    [a] = keys_on(cluster, "d0.SH")
    decides = record_sends(cluster, DecideReq)
    coord.k.spawn(coord.run_txn([("w", a, "orphan")]))
    run_until_done(sim, lambda: bool(decides))
    sim.after(1, coord.crash)  # the decide is already on the wire
    sim.run_until(sim.now + 1 * SEC)
    coord.restart()
    res = drive(sim, coord.k, coord.run_txn([("r", a)]))
    assert reads_of(sim, res)[0][3] == "orphan"

    h = build_history(sim.trace.events)
    orphan = h.txns[decides[0][1].txn]
    assert orphan.status is None  # its txn_end was never traced
    assert orphan.ts is not None
    assert orphan.begin_ns < orphan.ts.nanos
    assert effective_outcomes(h)[orphan.txn][0] == "committed"
    verdict = check_strict_serializability(h)
    assert verdict.ok, verdict.violations
    # the reader's real-time order, then the replay of orphan and reader
    assert verdict.checked == 3


# -- the recorder sweep ------------------------------------------------------


def two_coordinator_cluster():
    """One SH data node and two SH coordinators, with no clients: c0.SH
    writes, c1.SH reads."""
    cluster = Cluster(Scenario(
        name="sweep", seed=1, duration_ms=60_000, regions=["SH", "BJ"],
        data_nodes=["SH"], coordinators=["SH", "SH"],
        clients_per_coordinator=0,
    ))
    cluster.start()
    return cluster, cluster.coordinators


def test_a_reader_parked_on_a_crashed_coordinators_txn_reads_the_old_value():
    cluster, (writer, reader) = two_coordinator_cluster()
    sim = cluster.sim
    drive(sim, writer.k, writer.run_txn([("w", "x", "old")]))
    w = writer.k.spawn(writer.run_txn([("w", "x", "new"), ("hold", SEC)]))
    sim.run_until(sim.now + 10 * MS)  # the intent on x is installed
    [txn] = [i.txn for i in cluster.data_nodes[0].store.chains["x"]
             .intents.values()]
    writer.crash()
    crashed = sim.now
    res = drive(sim, reader.k, reader.run_txn([("r", "x")]))
    assert not w.done
    assert res.status == "committed"
    assert reads_of(sim, res)[0][3] == "old"
    assert sim.now - crashed < HB_TIMEOUT_NS + 2 * SWEEP_INTERVAL_NS + 100 * MS
    h = build_history(sim.trace.events)
    assert [status for _t, _role, t, status, _e in h.records if t == txn] == \
        ["aborted"]


def test_a_reader_parked_on_a_txn_its_restarted_coordinator_lost_reads_old():
    # The writer's coordinator crashes holding an intent and is back, and
    # beating, long before anyone parks on it. So it never goes quiet:
    # only its beats' ``since`` tells the recorder that the transaction
    # died with the earlier incarnation.
    cluster, (writer, reader) = two_coordinator_cluster()
    sim = cluster.sim
    drive(sim, writer.k, writer.run_txn([("w", "x", "old")]))
    w = writer.k.spawn(writer.run_txn([("w", "x", "new"), ("hold", SEC)]))
    sim.run_until(sim.now + 10 * MS)  # the intent on x is installed
    [txn] = [i.txn for i in cluster.data_nodes[0].store.chains["x"]
             .intents.values()]
    writer.crash()
    sim.run_until(sim.now + 100 * MS)
    writer.restart()
    sim.run_until(sim.now + 2 * HB_TIMEOUT_NS)
    start = sim.now
    res = drive(sim, reader.k, reader.run_txn([("r", "x")]), horizon_ns=SEC)
    assert not w.done
    assert (res.status, reads_of(sim, res)[0][3]) == ("committed", "old")
    assert sim.now - start < SEC
    h = build_history(sim.trace.events)
    assert [status for _t, _role, t, status, _e in h.records if t == txn] == \
        ["aborted"]
    # the restarted coordinator's own transactions are not swept
    after = drive(sim, writer.k, writer.run_txn([("w", "x", "again"),
                                                 ("hold", SEC)]))
    assert (after.status, after.reason) == ("committed", None)


def test_a_writer_swept_while_its_beats_are_lost_ends_swept():
    # The writer's coordinator is alive, but its beats are lost for 1.5 s,
    # so the sweep aborts the transaction a reader is parked on. The
    # writer learns it only when it asks to commit, after its hold.
    cluster, (writer, reader) = two_coordinator_cluster()
    sim = cluster.sim
    cluster.net.faults.msg_filters.append(
        MsgFilter(frozenset({"Heartbeat"}), 1.0, end_ns=sim.now + 1500 * MS))
    drive(sim, writer.k, writer.run_txn([("w", "x", "old")]))
    w = writer.k.spawn(writer.run_txn([("w", "x", "new"), ("hold", SEC),
                                       ("w", "y", "z")]))
    sim.run_until(sim.now + 10 * MS)  # the intent on x is installed
    res = drive(sim, reader.k, reader.run_txn([("r", "x")]))
    assert (res.status, reads_of(sim, res)[0][3]) == ("committed", "old")
    run_until_done(sim, lambda: w.done)
    assert (w.value.status, w.value.reason) == ("aborted", "swept")
    h = build_history(sim.trace.events)
    assert [(t, status) for t, _role, txn, status, _e in h.records
            if txn == w.value.txn] == [(600 * MS + MS // 2, "aborted")]
    assert h.txns[w.value.txn].reason == "swept"


def test_a_reader_parked_past_the_heartbeat_timeout_on_a_live_txn_waits():
    cluster, (writer, reader) = two_coordinator_cluster()
    sim = cluster.sim
    drive(sim, writer.k, writer.run_txn([("w", "x", "old")]))
    w = writer.k.spawn(writer.run_txn([("w", "x", "new"),
                                       ("hold", 800 * MS)]))
    sim.run_until(sim.now + 10 * MS)
    start = sim.now
    res = drive(sim, reader.k, reader.run_txn([("r", "x")]))
    assert sim.now - start > HB_TIMEOUT_NS
    assert reads_of(sim, res)[0][3] == "new"
    run_until_done(sim, lambda: w.done)
    assert w.value.status == "committed"


@pytest.mark.parametrize("hold", [2 * SEC, 5 * SEC])
def test_a_read_parked_behind_a_long_hold_commits(hold):
    # the read's retries would have run out after about 1 s; a parked
    # read waits as long as its writer takes to be decided
    cluster, (writer, reader) = two_coordinator_cluster()
    sim = cluster.sim
    drive(sim, writer.k, writer.run_txn([("w", "x", "old")]))
    w = writer.k.spawn(writer.run_txn([("w", "x", "new"), ("hold", hold)]))
    sim.run_until(sim.now + 10 * MS)
    reads = record_sends(cluster, (ReadReq, ReadResp))
    start = sim.now
    res = drive(sim, reader.k, reader.run_txn([("r", "x")]))
    assert (res.status, res.reason) == ("committed", None)
    assert reads_of(sim, res)[0][3] == "new"
    assert sim.now - start > hold - 20 * MS
    # told the read is parked, the reader only asks again every 30 ms
    sent = [t for t, p in reads if isinstance(p, ReadReq)
            and p.reader == res.txn]
    assert all(b - a >= LONG_POLL_NS for a, b in zip(sent, sent[1:]))
    assert len(sent) <= hold // LONG_POLL_NS + 1
    # and a re-ask does not park the read again: one answer comes back
    # (the writer reads nothing, so every ReadResp is the reader's)
    assert sum(isinstance(p, ReadResp) for _t, p in reads) <= 2
    run_until_done(sim, lambda: w.done)
    assert w.value.status == "committed"


def test_a_read_parked_past_a_stuck_push_is_answered_once_a_push_lands():
    # Every push is lost for a while, and every finalize for good, so
    # only a push can tell the primary the writer's verdict. The push
    # task polls until the writer is decided, so the first push past the
    # window brings the verdict: a re-ask of the parked read would not.
    cluster, (writer, reader) = two_coordinator_cluster()
    sim = cluster.sim
    drive(sim, writer.k, writer.run_txn([("w", "x", "old")]))
    filters = cluster.net.faults.msg_filters
    filters.append(MsgFilter(frozenset({"FinalizeReq"}), 1.0))
    lost_until = sim.now + 600 * MS
    filters.append(MsgFilter(frozenset({"PushReq"}), 1.0, end_ns=lost_until))
    w = writer.k.spawn(writer.run_txn([("w", "x", "new"),
                                       ("hold", 200 * MS)]))
    sim.run_until(sim.now + 10 * MS)
    pushes = record_sends(cluster, PushReq)
    res = drive(sim, reader.k, reader.run_txn([("r", "x")]),
                horizon_ns=5 * SEC)
    assert w.value.status == "committed"
    assert reads_of(sim, res)[0][3] == "new"
    assert sim.now > lost_until
    # one push task: each try follows the last by the try timeout, a
    # back-off and a register read, since a try that heard nothing drops
    # the owner
    assert len(pushes) > 1
    sent = [t for t, _p in pushes]
    node = cluster.data_nodes[0]
    timeout = try_timeout_ns(node.k, node.node_id)
    assert [b - a for a, b in zip(sent, sent[1:])] == \
        [timeout + retry_backoff_ns(i) + node.storage.read_ns
         for i in range(len(sent) - 1)]


# -- heartbeats and takeover -------------------------------------------------


def standby_cluster():
    """One SH data node, one SH standby and two SH coordinators, with no
    clients: c0.SH writes, c1.SH reads."""
    cluster = Cluster(Scenario(
        name="standby", seed=1, duration_ms=60_000, regions=["SH", "BJ"],
        data_nodes=["SH"], standbys=["SH"], coordinators=["SH", "SH"],
        clients_per_coordinator=0,
    ))
    cluster.start()
    return cluster, cluster.coordinators


def test_a_coordinator_heartbeats_only_its_home_roles_owner():
    cluster, (c0, c1) = standby_cluster()
    [owner], [standby] = cluster.data_nodes, cluster.standby_nodes
    beats = record_sends(cluster, Heartbeat)
    cluster.sim.run_until(cluster.sim.now + SEC)
    assert c0.home_role == owner.role_self
    assert 9 <= sum(p.coordinator == c0.node_id for _t, p in beats) <= 11
    # every beat went to the owner: the standby heard none
    assert set(owner.recorder.last_heard) == {c0.node_id, c1.node_id}
    assert standby.recorder.last_heard == {}


def test_a_takeover_during_a_live_writers_hold_does_not_sweep_it():
    # The reader parks on the writer's intent and pushes the writer's
    # home role. The standby that adopts the role mid-hold sweeps the
    # parked-on transaction unless it hears the writer's heartbeats,
    # which go to the owner the register names, not the one cached.
    cluster, (writer, reader) = standby_cluster()
    sim = cluster.sim
    standby = cluster.standby_nodes[0]
    drive(sim, writer.k, writer.run_txn([("w", "x", "old")]))
    w = writer.k.spawn(writer.run_txn([("w", "x", "new"),
                                       ("hold", 1500 * MS)]))
    sim.run_until(sim.now + 10 * MS)
    r = reader.k.spawn(reader.run_txn([("r", "x")]))
    sim.run_until(sim.now + 100 * MS)
    assert not r.done  # parked
    standby.k.spawn(standby.recorder.adopt_role(writer.home_role, "d0.SH"))
    run_until_done(sim, lambda: w.done and r.done)
    assert [f["node"] for _t, kind, f in sim.trace.events
            if kind == "takeover"] == [standby.node_id]
    assert (w.value.status, w.value.reason) == ("committed", None)
    assert r.value.status == "committed"
    assert reads_of(sim, r.value)[0][3] == "new"
