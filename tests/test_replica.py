"""Replica reads: epoch-gated visibility in fresh, stale, and mixed modes."""

import pytest
from conftest import ask_once, drive

from chronokv.checkers import run_all_checks
from chronokv.cluster import Cluster, run_scenario
from chronokv.messages import (
    COMMIT,
    COMMITTED,
    CatchUp,
    DecideReq,
    DecideResp,
    Pending,
    PushReq,
    PushResp,
    ReplicaReadReq,
    ReplicaReadResp,
)
from chronokv.replication import request, try_timeout_ns
from chronokv.scenario import Scenario, WorkloadSpec
from chronokv.simnet import (
    MS,
    RPC_TIMEOUT,
    SEC,
    CrashDirective,
    FaultSchedule,
    retry_backoff_ns,
)
from chronokv.tsbatch import Timestamp


def replica_scenario(seed, mode, **kw):
    base = dict(
        name="replica-unit",
        seed=seed,
        duration_ms=60_000,
        regions=["SH", "BJ"],
        data_nodes=["SH"],
        replicate_to=["BJ"],
        coordinators=["SH"],
        clients_per_coordinator=2,
        txns_per_client=30,
        interval_ms=50,
        replica_readers=3,
        replica_reads_per_reader=25,
        replica_read_mode=mode,
        workload=WorkloadSpec(kind="ycsb", keys=32, ops_per_txn=2,
                              write_ratio=0.7, zipf_theta=0.6),
    )
    base.update(kw)
    return Scenario(**base)


def checks_for(r):
    sc = r.scenario
    return run_all_checks(r.history(), sc.interval_ns, sc.epsilon_ns,
                          end_ns=r.end_ns)


@pytest.mark.parametrize("mode", ["fresh", "stale", "mixed"])
def test_replica_reads_complete_and_pass_all_checks(mode):
    r = run_scenario(replica_scenario(21, mode))
    assert r.outcomes()["committed"] > 0
    h = r.history()
    assert len(h.rreads) == 75
    for v in checks_for(r):
        assert v.ok, (v.name, v.violations[:3])


def test_fresh_replica_reads_see_the_latest_cut_epoch():
    r = run_scenario(replica_scenario(23, "fresh"))
    h = r.history()
    # every fresh read's view must cover its timestamp: the serving
    # replica waited for a cut whose promised end passed the read ts
    for rr in h.rreads:
        assert rr.mode == "fresh"
        assert rr.view >= 1
        assert rr.end_ns >= rr.start_ns


def test_stale_reads_finish_faster_than_fresh_on_average():
    fresh = run_scenario(replica_scenario(29, "fresh"))
    stale = run_scenario(replica_scenario(29, "stale"))

    def mean_latency(r):
        rr = r.history().rreads
        return sum(x.end_ns - x.start_ns for x in rr) / len(rr)

    # a stale view is already replayed almost always; fresh reads must
    # wait out the epoch cut (interval 50ms) before the view exists
    assert mean_latency(stale) < mean_latency(fresh)


def test_replica_reads_only_return_committed_versions():
    r = run_scenario(replica_scenario(31, "mixed"))
    h = r.history()
    stamps = {t.ts for t in h.txns.values() if t.committed}
    seen = 0
    for rr in h.rreads:
        for _key, vts, _val in rr.reads:
            if vts is not None:
                seen += 1
                assert vts in stamps
    assert seen > 0


# -- epoch floors: replica reads decoupled from a slow transaction -------------


def idle_replicated_cluster():
    """One SH data node replicated to BJ, one SH coordinator, no clients."""
    cluster = Cluster(Scenario(
        name="floor", seed=1, duration_ms=60_000, regions=["SH", "BJ"],
        data_nodes=["SH"], replicate_to=["BJ"], coordinators=["SH"],
        clients_per_coordinator=0, interval_ms=50,
    ))
    cluster.start()
    return cluster, cluster.coordinators[0]


def test_a_replica_read_does_not_wait_for_a_txn_parked_behind_a_slow_writer():
    cluster, coord = idle_replicated_cluster()
    sim = cluster.sim
    slow = coord.k.spawn(coord.run_txn([("w", "x", "slow"),
                                        ("hold", 600 * MS)]))
    sim.run_until(sim.now + 10 * MS)  # the slow intent on x is installed
    # t's read of x parks behind the slow writer; its write of y lands
    t = coord.k.spawn(coord.run_txn([("r", "x"), ("w", "y", "t")]))
    sim.run_until(sim.now + 10 * MS)
    assert "t" in [i.value for i in
                   cluster.data_nodes[0].store.chains["y"].intents.values()]

    def replica_read():
        ts = yield from coord.tsproxy.acquire()
        start = sim.now
        resp = yield from request(coord.k, "d0.SH@BJ",
                                  ReplicaReadReq(["y"], ts, "rr", "fresh"))
        return sim.now - start, resp

    took, resp = drive(sim, coord.k, replica_read())
    # a view, a cut and one push round, not the slow writer's hold
    assert took < 200 * MS
    assert not t.done and not slow.done
    assert resp.reads == [("y", None, None)]
    sim.run_until(1 << 62, stop=lambda: t.done)
    assert t.value.status == "committed"
    [epoch] = [f["epoch"] for _t, kind, f in sim.trace.events
               if kind == "txn_end" and f["txn"] == t.value.txn]
    assert epoch > resp.view


def test_a_decide_after_an_epoch_floor_commits_at_or_above_it():
    cluster, coord = idle_replicated_cluster()
    sim = cluster.sim
    node = cluster.data_nodes[0]
    role = node.role_self

    def call(payload):
        def task():
            return (yield from ask_once(coord.k, node.node_id, payload,
                                        100 * MS))
        return drive(sim, coord.k, task())

    # a live coordinator's transaction, so the sweep leaves its record be
    txn = f"{coord.node_id}:99"
    # the push creates the record, with the floor
    assert call(PushReq(role, txn, above=40)) == PushResp(None, 41)
    # the floor is durable: a restarted recorder reloads it
    node.crash()
    node.restart()
    sim.run_until(sim.now + 1 * SEC)
    assert node.epoch_now() < 41
    assert call(DecideReq(role, txn, COMMIT, [1])) == \
        DecideResp(COMMITTED, 41)


def test_a_replica_reader_outlives_its_coordinators_crash():
    # the reader is a client of the replicas, on a host of its own
    sc = dict(clients_per_coordinator=0, replica_readers=1,
              replica_reads_per_reader=10)
    dry = run_scenario(replica_scenario(5, "fresh", **sc))
    start, reader = next((t, f["reader"]) for t, kind, f in dry.trace
                         if kind == "rread_start")
    # the same run, with the coordinator crashed while that read is out
    crash = CrashDirective(node="c0.SH", at_ns=start + 1)
    r = run_scenario(replica_scenario(
        5, "fresh", faults=FaultSchedule(crashes=[crash]), **sc))
    assert ("crash", {"node": "c0.SH"}) in [(k, f) for _t, k, f in r.trace]
    answered = [rr[0] for rr in r.replica_reads]
    assert reader in answered
    assert len(answered) == 10


def test_a_lost_replica_read_is_asked_again_after_a_backoff():
    cluster = Cluster(replica_scenario(
        5, "fresh", clients_per_coordinator=0, replica_readers=1,
        replica_reads_per_reader=1))
    sent = []
    send = cluster.net.send

    def first_read_lost(src, dst_id, payload, rid=0, is_reply=False):
        if isinstance(payload, ReplicaReadReq):
            sent.append(cluster.sim.now)
            if len(sent) == 1:
                return
        send(src, dst_id, payload, rid, is_reply)

    cluster.net.send = first_read_lost
    r = cluster.run()
    # the reader's try waits as long as any other; it has no drift, so
    # its local waits are true ones
    timeout = try_timeout_ns(cluster.net.nodes["r0.SH"].k, "d0.SH@BJ")
    assert len(sent) == 2
    assert sent[1] - sent[0] == timeout + retry_backoff_ns(0)
    assert [rr[0] for rr in r.replica_reads] == ["rr0.0.0"]


# -- one repair path, and one answer per read -----------------------------


def test_an_idle_replica_with_no_gap_sends_no_catch_up():
    # its primary still cuts an epoch every 50 ms, and every cut ships
    cluster, _coord = idle_replicated_cluster()
    sim, replica = cluster.sim, cluster.replicas[0]
    catchups, shipped = [], []
    send = cluster.net.send

    def recording(src, dst_id, payload, rid=0, is_reply=False):
        if isinstance(payload, CatchUp):
            catchups.append(sim.now)
        send(src, dst_id, payload, rid, is_reply)

    cluster.net.send = recording
    applied = replica.applied
    sim.run_until(sim.now + SEC)
    assert replica.applied >= applied + 15  # the cuts arrived
    assert catchups == []


def view_out_of_reach(cluster, coord):
    """A fresh read of ``y`` at a view that replays more than an epoch
    interval from now."""
    fresh = drive(cluster.sim, coord.k, coord.tsproxy.acquire())
    ts = Timestamp(fresh.nanos + cluster.scenario.interval_ns,
                   fresh.server_id)
    return ReplicaReadReq(["y"], ts, "rr", "fresh")


def test_a_replica_read_waiting_for_its_view_is_told_pending_at_once():
    cluster, coord = idle_replicated_cluster()
    sim = cluster.sim
    req = view_out_of_reach(cluster, coord)
    rtt = 2 * coord.k.one_way_ns("d0.SH@BJ")

    def reader():
        call = coord.k.call("d0.SH@BJ", req)
        start = sim.now
        told = yield call.ask(SEC)
        told_after = sim.now - start
        answer = yield call.listen(SEC)
        late = yield call.listen(SEC)
        call.close()
        return told, told_after, answer, late

    told, told_after, answer, late = drive(sim, coord.k, reader())
    assert told == Pending()
    assert told_after < 1.2 * rtt  # one jittered round trip, no more
    assert isinstance(answer, ReplicaReadResp)
    assert late is RPC_TIMEOUT  # no second answer


def test_a_replica_read_reasked_while_it_waits_for_its_view_is_answered_once():
    cluster, coord = idle_replicated_cluster()
    sim = cluster.sim
    req = view_out_of_reach(cluster, coord)
    interval = cluster.scenario.interval_ns

    def reader():
        call = coord.k.call("d0.SH@BJ", req)
        first = yield call.ask(SEC)  # the view is out: told so at once
        again = yield call.ask(SEC)  # the re-ask, answered at once
        answer = yield call.listen(SEC)
        late = yield call.listen(3 * interval)
        call.close()
        return first, again, answer, late

    first, again, answer, late = drive(sim, coord.k, reader())
    assert first == again == Pending()
    assert isinstance(answer, ReplicaReadResp)
    assert late is RPC_TIMEOUT  # no second answer
    assert [f["reader"] for _t, kind, f in sim.trace.events
            if kind == "rread"] == ["rr"]
