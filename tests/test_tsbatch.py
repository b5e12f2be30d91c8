"""Timestamp batches and the per-node proxy."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Host, drive, one_region
from chronokv.checkers import run_all_checks
from chronokv.clock import OracleServer
from chronokv.cluster import run_scenario
from chronokv.errors import InvalidConfig, OracleUnavailable
from chronokv.messages import TsReq, TsErr, TsResp
from chronokv.scenario import Scenario
from chronokv.simnet import MS, FaultSchedule, MsgFilter, OracleOutage
from chronokv.tsbatch import (
    STEP_NS,
    Timestamp,
    TsProxy,
    build_batch,
    commit_wait_ns,
    lead_ns,
    led,
    validate_batch_params,
)

TTL = 100_000
EPS = 100_000
D = 200


def batch(latest=1_000_000, acquired_local=0):
    return build_batch(TsResp(latest - 2 * EPS, latest, 0),
                       TTL, acquired_local, D)


# -- batch construction --------------------------------------------------------


def test_batch_covers_one_ttl_starting_one_ttl_above_the_reading():
    b = batch(latest=1_000_000)
    assert b.low == 1_100_000
    assert b.capacity == 10_000
    assert b.server_id == 0


def test_batch_issues_the_grid_in_order():
    b = batch(latest=1_000_000)
    got = [b.next_timestamp(local_now=0) for _ in range(3)]
    assert got == [Timestamp(1_100_000, 0, 1_100_000),
                   Timestamp(1_100_010, 0, 1_100_000),
                   Timestamp(1_100_020, 0, 1_100_000)]


def test_batch_exhausts_after_capacity():
    b = build_batch(TsResp(0, 100, 7), ttl_ns=50,
                    acquired_local=0, max_drift_ppm=D)
    assert b.capacity == 5
    for i in range(5):
        ts = b.next_timestamp(0)
        assert ts == Timestamp(150 + 10 * i, 7, 150)
    assert b.next_timestamp(0) is None


def test_batch_expiry_boundary_is_drift_compensated():
    b = batch(acquired_local=0)
    # expired once elapsed*(1e6+200) >= ttl*1e6: first failing integer
    assert not b.expired(99_980)
    assert b.expired(99_981)
    assert b.next_timestamp(99_981) is None


def test_ttl_must_be_a_multiple_of_step():
    assert STEP_NS == 10
    with pytest.raises(InvalidConfig):
        validate_batch_params(100_005)
    with pytest.raises(InvalidConfig):
        validate_batch_params(0)
    validate_batch_params(100_000)  # fine


# -- ordering -------------------------------------------------------------------


def test_timestamps_order_by_nanos_then_server():
    assert Timestamp(5, 0) < Timestamp(6, 0)
    assert Timestamp(6, 0) > Timestamp(5, 9)
    assert Timestamp(5, 1) < Timestamp(5, 2)
    assert Timestamp(5, 2) == Timestamp(5, 2)
    assert not Timestamp(5, 2) < Timestamp(5, 2)
    # then the issuing batch, 0 when left out
    assert Timestamp(5, 2) == Timestamp(5, 2, 0)
    assert Timestamp(5, 2, 100) < Timestamp(5, 2, 110)
    assert Timestamp(5, 2, 110) < Timestamp(5, 3, 100)
    assert Timestamp(5, 2, 110) < Timestamp(6, 2, 100)


def test_overlapping_aligned_batches_of_one_server_issue_distinct_timestamps():
    # two readings of one server one step apart: their windows overlap in
    # all but one step and agree modulo the step
    a = build_batch(TsResp(0, 1_000_000, 0), TTL, 0, D)
    b = build_batch(TsResp(STEP_NS, 1_000_000 + STEP_NS, 0), TTL, 0, D)
    issued = [x.next_timestamp(0) for x in (a, b) for _ in range(a.capacity)]
    nanos = {ts.nanos for ts in issued}
    assert len(nanos) == a.capacity + 1
    assert len(set(issued)) == 2 * a.capacity


# -- commit wait ------------------------------------------------------------------


def test_commit_wait_constants():
    assert commit_wait_ns(TTL, EPS, D) == 400_080
    assert commit_wait_ns(TTL, EPS, D, strawman=True) == 200_040
    assert commit_wait_ns(TTL, EPS, 0) == 400_000


def test_commit_wait_rounds_up():
    # 2*(1+0)*1.0002 = 2.0004 -> 3
    assert commit_wait_ns(1, 0, D) == 3


def test_commit_wait_grows_by_the_lead_with_drift():
    assert commit_wait_ns(TTL, EPS, D, lead_ns=3 * TTL) == 700_140
    assert commit_wait_ns(TTL, EPS, D, strawman=True, lead_ns=TTL) == 300_060


# -- leads ------------------------------------------------------------------------


def test_a_lead_is_the_delay_rounded_up_to_the_ttl():
    assert [lead_ns(d, TTL) for d in (0, 1, TTL, TTL + 1)] == \
        [0, TTL, TTL, 2 * TTL]


def test_leads_keep_apart_what_they_would_otherwise_map_onto_one():
    # a batch's steps: only a lead on the TTL grid keeps them apart
    b = batch()
    first, second = b.next_timestamp(0), b.next_timestamp(0)
    assert led(first, STEP_NS) == led(second, 0)
    assert led(first, lead_ns(STEP_NS, TTL)) != led(second, 0)
    # two oracle readings one TTL apart: the tie-break keeps them apart
    early, late = Timestamp(1_000_000, 0), Timestamp(1_000_000 + TTL, 0)
    assert led(early, TTL).nanos == led(late, 0).nanos
    assert led(early, TTL) != led(late, 0)


# One-way delays: a batch's first steps, which only the TTL grid keeps
# apart, or any delay; and pauses within a batch and beyond it.
ONE_WAY = st.one_of(st.sampled_from([0, STEP_NS, 2 * STEP_NS]),
                    st.integers(0, 80 * MS))
PAUSE = st.sampled_from([0, 0, STEP_NS, TTL // 2, 2 * TTL])


@pytest.mark.parametrize("mode", ["batched", "strawman"])
@settings(max_examples=40, deadline=None, database=None)
@given(steps=st.lists(st.tuples(ONE_WAY, PAUSE), min_size=2, max_size=40))
def test_led_timestamps_of_one_proxy_are_pairwise_distinct(mode, steps):
    # each acquire leads by its own one-way delay, after its own pause
    sim, host, proxy = proxy_rig(mode=mode)

    def acquires():
        out = []
        for one_way, pause in steps:
            if pause:
                yield host.k.sleep_local(pause)
            ts = yield from proxy.acquire()
            out.append(led(ts, lead_ns(one_way, TTL)))
        return out

    got = drive(sim, host.k, acquires())
    assert len(set(got)) == len(got)


# -- proxy over the wire ------------------------------------------------------------


def proxy_rig(seed=1, faults=None, mode="batched", drift_ppm=0):
    sim, net = one_region(seed=seed, faults=faults)
    OracleServer(sim, net, "ts.R0", "R0", server_id=0, epsilon_ns=EPS,
                 outages=(faults.oracle_outages if faults else None))
    host = Host(sim, net, "h.R0", "R0", drift_ppm=drift_ppm)
    proxy = TsProxy(host.k, "ts.R0", ttl_ns=TTL,
                    epsilon_ns=EPS, max_drift_ppm=D, mode=mode)
    return sim, host, proxy


def test_proxy_serves_a_burst_from_one_fetch():
    sim, host, proxy = proxy_rig()

    def burst():
        out = []
        for _ in range(50):
            ts = yield from proxy.acquire()
            out.append(ts)
        return out

    got = drive(sim, host.k, burst())
    assert len(got) == 50
    assert got == sorted(got)
    assert len(set(got)) == 50
    assert proxy.fetches == 1
    assert proxy.served_local == 49
    assert proxy.requests == 50


def test_proxy_refetches_once_the_batch_expires():
    sim, host, proxy = proxy_rig()

    def spaced():
        a = yield from proxy.acquire()
        yield host.k.sleep_local(TTL * 2)
        b = yield from proxy.acquire()
        return a, b

    a, b = drive(sim, host.k, spaced())
    assert proxy.fetches == 2
    assert b > a


def test_concurrent_acquirers_share_the_inflight_fetch():
    sim, host, proxy = proxy_rig()
    out = []

    def one():
        ts = yield from proxy.acquire()
        out.append(ts)

    for _ in range(8):
        host.k.spawn(one())
    sim.run_until(50 * MS, stop=lambda: len(out) == 8)
    assert len(out) == 8
    assert len(set(out)) == 8
    assert proxy.fetches == 1


def test_proxy_times_out_to_oracle_unavailable():
    faults = FaultSchedule(oracle_outages=[
        OracleOutage(server_id=0, start_ns=0, end_ns=1 << 62)])
    sim, host, proxy = proxy_rig(faults=faults)

    def attempt():
        try:
            yield from proxy.acquire()
            return "issued"
        except OracleUnavailable:
            return "unavailable"

    assert drive(sim, host.k, attempt()) == "unavailable"


@pytest.mark.parametrize("mode", ["batched", "strawman"])
def test_an_acquire_in_an_outage_asks_the_oracle_once(mode):
    faults = FaultSchedule(oracle_outages=[
        OracleOutage(server_id=0, start_ns=0, end_ns=1 << 62)])
    sim, host, proxy = proxy_rig(faults=faults, mode=mode)
    asked = []
    send = host.net.send

    def recording(src, dst_id, payload, rid=0, is_reply=False):
        if isinstance(payload, TsReq):
            asked.append(dst_id)
        send(src, dst_id, payload, rid, is_reply)

    host.net.send = recording

    def attempt():
        try:
            yield from proxy.acquire()
            return "issued"
        except OracleUnavailable:
            return "unavailable"

    assert drive(sim, host.k, attempt()) == "unavailable"
    assert asked == ["ts.R0"]
    assert proxy.fetches == 1


def test_a_fetch_the_oracle_never_answers_is_one_try_of_one_ms():
    # a probe, not a request: one TsReq, heard for FETCH_TIMEOUT_NS, and
    # no second try; acquire_waiting is the loop that asks again
    lost = MsgFilter(kinds=frozenset({"TsReq"}), prob=1.0)
    sim, host, proxy = proxy_rig(faults=FaultSchedule(msg_filters=[lost]))
    asked = []
    send = host.net.send

    def recording(src, dst_id, payload, rid=0, is_reply=False):
        if isinstance(payload, TsReq):
            asked.append(sim.now)
        send(src, dst_id, payload, rid, is_reply)

    host.net.send = recording

    def attempt():
        try:
            yield from proxy.acquire()
        except OracleUnavailable:
            return sim.now

    assert drive(sim, host.k, attempt()) == TsProxy.FETCH_TIMEOUT_NS == MS
    assert asked == [0]
    assert proxy.fetches == 1


def test_acquire_waiting_outlasts_an_outage_in_five_ms_pauses():
    faults = FaultSchedule(oracle_outages=[
        OracleOutage(server_id=0, start_ns=0, end_ns=20 * MS)])
    sim, host, proxy = proxy_rig(faults=faults)

    def attempt():
        ts = yield from proxy.acquire_waiting()
        return ts, sim.now

    ts, now = drive(sim, host.k, attempt())
    assert ts.nanos > now
    # Each failed acquire is one TsErr reply, and the tries back off by
    # 2, 4, 6 and 8 ms: they go at about 0, 2, 6, 12 and 20 ms, so the
    # fifth is the first after the outage.
    assert 20 * MS < now < 25 * MS
    assert proxy.requests == 5


def test_strawman_mode_pays_a_round_trip_every_time():
    sim, host, proxy = proxy_rig(mode="strawman")

    def burst():
        out = []
        for _ in range(20):
            ts = yield from proxy.acquire()
            out.append(ts)
        return out

    got = drive(sim, host.k, burst())
    assert len(set(got)) == 20
    assert got == sorted(got)
    assert proxy.fetches == 20
    assert proxy.served_local == 0
    assert proxy.commit_wait(0) == 200_040


def test_unknown_mode_rejected():
    sim, host, _ = proxy_rig()
    with pytest.raises(InvalidConfig):
        TsProxy(host.k, "ts.R0", ttl_ns=TTL, epsilon_ns=EPS,
                max_drift_ppm=D, mode="psychic")


# -- many proxies on one oracle ------------------------------------------------


@pytest.mark.parametrize("mode", ["batched", "strawman"])
@pytest.mark.parametrize("coordinators", [15, 50])
def test_many_coordinators_on_one_oracle_keep_timestamps_unique(
        coordinators, mode):
    r = run_scenario(Scenario(
        name="scale", seed=1, coordinators=["SH"] * coordinators,
        clients_per_coordinator=2, txns_per_client=10, ts_mode=mode))
    sc = r.scenario
    h = r.history()
    for v in run_all_checks(h, sc.interval_ns, sc.epsilon_ns, end_ns=r.end_ns):
        assert v.ok, (v.name, v.violations[:5])
    stamps = [t.ts for t in h.txns.values() if t.ts is not None]
    assert len(stamps) == 2 * 10 * coordinators
    assert len(set(stamps)) == len(stamps)
    if mode == "batched":
        # batches of one oracle overlap: some timestamps differ only in
        # their batch
        pairs = Counter((ts.nanos, ts.server_id) for ts in stamps)
        assert max(pairs.values()) > 1
