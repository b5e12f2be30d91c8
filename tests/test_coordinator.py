"""End-to-end coordinator behaviour on small clusters."""

import gc
from collections import Counter
from pathlib import Path

import pytest
from conftest import ask_once, drive, replies_to_one_try

from chronokv.checkers import (
    check_strict_serializability,
    effective_outcomes,
    terminal_records,
)
from chronokv.cluster import Cluster, run_scenario
from chronokv.coordinator import HB_TIMEOUT_NS, SWEEP_INTERVAL_NS
from chronokv.history import build_history
from chronokv.messages import (
    COMMIT,
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
)
from chronokv.metrics import run_summary
from chronokv.replication import (
    LONG_POLL_NS,
    IntentEntry,
    RoleDirectory,
    request,
    try_timeout_ns,
)
from chronokv.scenario import Scenario, WorkloadSpec, load_scenario
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


def test_a_restarted_data_node_keeps_its_timestamp_proxy():
    # A crash drops the proxy's batch, as a coordinator's does; its
    # counters go on across the restart.
    fs = FaultSchedule()
    fs.crashes.append(CrashDirective(node="d0.SH", at_ns=SEC,
                                     restart_at_ns=2 * SEC))
    cluster = Cluster(small(clients_per_coordinator=0, stop_on_idle=False,
                            duration_ms=3000, faults=fs))
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
    return Cluster(load_scenario(str(path))).run().trace


def oracle_outage_trace():
    # Both clients of c0.SH begin while its oracle is down, and share the
    # fetch that fails them.
    fs = FaultSchedule(oracle_outages=[OracleOutage(0, 0, 1 << 62)])
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
    # one timestamp acquisition per transaction
    assert r.ts_requests == sum(r.outcomes().values())
    # a request is served from the live batch, by its own fetch, or by
    # piggybacking on a fetch already in flight -- so local + fetches
    # never exceeds requests, and with 100us batches against ~27ms txn
    # gaps nearly every acquisition needs a fresh fetch
    assert r.ts_local + r.ts_fetches <= r.ts_requests
    assert r.ts_fetches >= r.ts_requests // 2


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
    decide = DecideReq(role, txn, COMMIT, [1])
    reqs = [decide, decide, PushReq(role, txn)]
    asks = [coord.k.spawn(replies_to_one_try(coord.k, node.node_id, req,
                                             100 * MS))
            for req in reqs]
    if move_register:
        sim.run_until(sim.now + node.storage.flush_ns // 2)
        node.storage.membership[role] = other.node_id
    sim.run_until(1 << 62, stop=lambda: all(a.done for a in asks))
    records = [f["txn"] for _t, kind, f in sim.trace.events
               if kind == "record"]
    return [a.value for a in asks], records, txn


def test_decides_of_a_decision_in_flight_wait_for_it_with_the_pushes():
    ([first], [told, second], [told_push, push]), records, txn = \
        ask_recorder_at_once(False)
    assert isinstance(first, DecideResp) and first.status == COMMITTED
    assert told == told_push == Pending()  # parked, and told so at once
    assert second == first
    assert push == PushResp(COMMIT, first.epoch)
    assert records == [txn]


def test_a_fenced_decision_answers_every_waiting_envelope_not_owner():
    answers, records, _txn = ask_recorder_at_once(True)
    assert answers == [[NotOwner("rec/d0.SH")],
                       [Pending(), NotOwner("rec/d0.SH")],
                       [Pending(), NotOwner("rec/d0.SH")]]
    assert records == []


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
                                 attempts=None, roles=roles))
    sim.run_until(sim.now + 200 * MS)
    decide = coord.k.spawn(ask_once(coord.k, node.node_id,
                                    DecideReq(role, txn, COMMIT, [1]),
                                    100 * MS))
    sim.run_until(1 << 62, stop=lambda: push.done and decide.done)
    assert push.value == PushResp(COMMIT, decide.value.epoch)
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
        coord.k, role, DecideReq(role, txn, COMMIT, [1]), attempts=5,
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


def test_a_txn_begun_during_a_short_oracle_outage_commits():
    fs = FaultSchedule(oracle_outages=[OracleOutage(0, 0, 200 * MS)])
    cluster, coord = idle_cluster(fs)
    [a] = keys_on(cluster, "d0.SH")
    res = drive(cluster.sim, coord.k, coord.run_txn([("w", a, "v")]))
    assert res.status == "committed", res.reason
    assert res.ts.nanos > 200 * MS


def test_a_begin_in_a_permanent_outage_fails_after_thirty_fetches():
    fs = FaultSchedule(oracle_outages=[OracleOutage(0, 0, 1 << 62)])
    cluster, coord = idle_cluster(fs)
    fetches = []
    send = cluster.net.send

    def recording(src, dst_id, payload, rid=0, is_reply=False):
        if src is coord and isinstance(payload, TsReq):
            fetches.append(cluster.sim.now)
        send(src, dst_id, payload, rid, is_reply)

    cluster.net.send = recording
    h = drive(cluster.sim, coord.k, coord.begin())
    assert (h.status, h.reason, h.ts) == ("failed", "oracle", None)
    assert len(fetches) == 30
    # 29 backoffs of 2, 4, ..., 50 ms, the last four capped: 850 ms
    assert 849 * MS < fetches[-1] - fetches[0] < 852 * MS


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
    assert res.writes == [(0, a, "v0"), (1, b, "v1"), (2, a, "v2"),
                          (4, c, "v4"), (5, a, "v5")]
    assert res.reads == [(3, b, res.ts, "v1")]
    ops = build_history(cluster.sim.trace.events).txns[res.txn].ops
    assert sorted(op for op in ops if op[1] == "w") == [
        (0, "w", a, None, "v0"), (1, "w", b, None, "v1"),
        (2, "w", a, None, "v2"), (4, "w", c, None, "v4"),
        (5, "w", a, None, "v5")]

    after = drive(cluster.sim, coord.k,
                  coord.run_txn([("r", a), ("r", b), ("r", c)]))
    assert [r[3] for r in after.reads] == ["v5", "v1", "v4"]


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
    assert [r[:2] for r in res.reads] == [(0, a), (1, b), (2, c)]
    assert res.reads[1][3] == "old"


def test_a_write_after_a_read_of_its_key_waits_for_the_reply():
    cluster, coord = idle_cluster()
    [b] = keys_on(cluster, "d1.BJ")
    sent = record_sends(cluster, (ReadReq, ReadResp, WriteReq))
    res = drive(cluster.sim, coord.k,
                coord.run_txn([("r", b), ("w", b, "v1")]))
    assert res.status == "committed"
    assert [type(p) for _t, p in sent] == [ReadReq, ReadResp, WriteReq]
    # the reply crosses back from BJ before the write leaves SH
    assert sent[0][0] < sent[1][0] < sent[2][0]


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
    assert res.reads == [(1, b, res.ts, "v0")]


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
    assert res.writes == [(1, a, "v1"), (4, b, "v4")]
    assert [r[:2] for r in res.reads] == [(0, b), (3, c)]


def test_an_rt_conflict_stops_other_chains_and_finalizes_their_intents():
    cluster, coord = idle_cluster()
    sim = cluster.sim
    [a] = keys_on(cluster, "d0.SH")
    b, c = keys_on(cluster, "d1.BJ", 2)
    sent = record_sends(cluster, WriteReq)
    writer = coord.k.spawn(coord.run_txn(
        [("hold", 100 * MS), ("w", a, "w.0"), ("w", c, "w.1"), ("r", b),
         ("w", b, "w.3")]))
    sim.run_until(sim.now + 10 * MS)
    drive(sim, coord.k, coord.run_txn([("r", a)]))
    sim.run_until(1 << 62, stop=lambda: writer.done)
    res = writer.value
    assert (res.status, res.reason) == ("aborted", "rt_conflict")
    # a's write is refused at once, in SH; b's read is still on the wire
    # to BJ then, so b's write is never sent; c's write was and landed
    assert [p.key for _t, p in sent if p.txn == res.txn] == [a, c]
    assert res.writes == [(2, c, "w.1")]

    sim.run_until(sim.now + 1 * SEC)
    h = build_history(sim.trace.events)
    assert terminal_records(h)[res.txn][0] == "aborted"
    for node in cluster.data_nodes:
        for chain in node.store.chains.values():
            assert res.txn not in chain.intents


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


def test_a_commit_given_up_as_unknown_is_aborted_once_its_recorder_answers():
    # every decide is lost for 5 s, well past the coordinator's retries
    lost = MsgFilter(kinds=frozenset({"DecideReq"}), prob=1.0,
                     end_ns=5 * SEC)
    cluster, coord = idle_cluster(FaultSchedule(msg_filters=[lost]))
    sim = cluster.sim
    [a] = keys_on(cluster, "d0.SH")
    res = drive(sim, coord.k, coord.run_txn([("w", a, "lost")]))
    assert (res.status, res.reason) == ("unknown", "decide_unreachable")
    assert sim.now < 5 * SEC

    # the coordinator stays alive and keeps heartbeating, so only its own
    # retries can decide the record
    sim.run_until(6 * SEC)
    h = build_history(sim.trace.events)
    assert terminal_records(h)[res.txn][0] == "aborted"
    for chain in cluster.data_nodes[0].store.chains.values():
        assert res.txn not in chain.intents
    reader = drive(sim, coord.k, coord.run_txn([("r", a)]))
    assert reader.reads[0][3] is None
    assert not [p for p in build_history(sim.trace.events).pushes
                if p[3] == reader.txn]


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
    sim.run_until(1 << 62, stop=lambda: writer.done)
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
    sim.run_until(1 << 62, stop=lambda: bool(decides))
    sim.after(1, coord.crash)  # the decide is already on the wire
    sim.run_until(sim.now + 1 * SEC)
    coord.restart()
    res = drive(sim, coord.k, coord.run_txn([("r", a)]))
    assert res.reads[0][3] == "orphan"

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
    assert res.reads[0][3] == "old"
    assert sim.now - crashed < HB_TIMEOUT_NS + 2 * SWEEP_INTERVAL_NS + 100 * MS
    h = build_history(sim.trace.events)
    assert [status for _t, _role, t, status, _e in h.records if t == txn] == \
        ["aborted"]


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
    assert res.reads[0][3] == "new"
    sim.run_until(1 << 62, stop=lambda: w.done)
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
    assert res.reads[0][3] == "new"
    assert sim.now - start > hold - 20 * MS
    # told the read is parked, the reader only asks again every 30 ms
    sent = [t for t, p in reads if isinstance(p, ReadReq)
            and p.reader == res.txn]
    assert all(b - a >= LONG_POLL_NS for a, b in zip(sent, sent[1:]))
    assert len(sent) <= hold // LONG_POLL_NS + 1
    # and a re-ask does not park the read again: one answer comes back
    # (the writer reads nothing, so every ReadResp is the reader's)
    assert sum(isinstance(p, ReadResp) for _t, p in reads) <= 2
    sim.run_until(1 << 62, stop=lambda: w.done)
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
                deadline=sim.now + 5 * SEC)
    assert w.value.status == "committed"
    assert res.reads[0][3] == "new"
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
    sim.run_until(1 << 62, stop=lambda: w.done and r.done)
    assert [f["node"] for _t, kind, f in sim.trace.events
            if kind == "takeover"] == [standby.node_id]
    assert (w.value.status, w.value.reason) == ("committed", None)
    assert r.value.status == "committed"
    assert r.value.reads[0][3] == "new"
