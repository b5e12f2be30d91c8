"""Simulation substrate: virtual time, drifting clocks, message faults,
and the trace log."""

import gc
import tracemalloc

import pytest

from conftest import Host, ask_once, drive, one_region
from test_trace_digest import SCENARIOS, benchmark_workloads
from chronokv.cluster import Cluster
from chronokv.replication import SharedStorage
from chronokv.scenario import load_scenario
from chronokv.simnet import (
    MS,
    RPC_TIMEOUT,
    US,
    FaultSchedule,
    Future,
    LatencyMatrix,
    Network,
    PartitionWindow,
    Simulation,
    TraceLog,
    local_interval_to_true,
    true_interval_to_local,
)


# -- drift arithmetic ---------------------------------------------------------


def test_slow_clock_stretches_true_time():
    # +200ppm: a local millisecond takes 1_000_200ns of true time
    assert local_interval_to_true(1_000_000, 200) == 1_000_200


def test_fast_clock_compresses_true_time_rounding_up():
    # -200ppm: ceil(1e12 / 1_000_200)
    assert local_interval_to_true(1_000_000, -200) == 999_801


def test_zero_drift_is_identity():
    assert local_interval_to_true(123_456, 0) == 123_456
    assert true_interval_to_local(123_456, 0) == 123_456


def test_drift_round_trip_stays_within_envelope():
    for d in (-200, -37, 0, 1, 199, 200):
        for local in (1, 999, 100_000, 1_000_000_007):
            true = local_interval_to_true(local, d)
            # inside [L/(1+D), L*(1+D)] for D=200ppm
            assert true * 1_000_000 >= local * (1_000_000 - 200) - 1_000_000
            assert true * 1_000_000 <= local * (1_000_000 + 200) + 1_000_000
            back = true_interval_to_local(true, d)
            assert abs(back - local) <= 1


# -- event loop ---------------------------------------------------------------


def test_events_fire_in_time_order_with_fifo_ties():
    sim = Simulation(seed=7)
    seen = []
    sim.at(30, lambda: seen.append("c"))
    sim.at(10, lambda: seen.append("a"))
    sim.at(10, lambda: seen.append("b"))  # same instant: insertion order
    sim.run_until(100)
    assert seen == ["a", "b", "c"]


def test_run_until_advances_clock_to_deadline():
    sim = Simulation(seed=7)
    sim.run_until(5_000)
    assert sim.now == 5_000


def test_stop_predicate_halts_mid_run():
    sim = Simulation(seed=7)
    seen = []
    for t in (10, 20, 30):
        sim.at(t, lambda t=t: seen.append(t))
    sim.run_until(100, stop=lambda: len(seen) == 2)
    assert seen == [10, 20]
    assert sim.now == 20


def test_named_rng_streams_are_independent_and_reproducible():
    a = Simulation(seed=9)
    b = Simulation(seed=9)
    assert a.rng("x").random() == b.rng("x").random()
    # draws on one stream leave the other untouched
    c = Simulation(seed=9)
    c.rng("y").random()
    assert c.rng("x").random() == Simulation(seed=9).rng("x").random()
    assert Simulation(seed=9).rng("x").random() != \
        Simulation(seed=10).rng("x").random()


def test_future_callbacks_run_as_events_not_inline():
    sim = Simulation(seed=1)
    fut = Future(sim)
    seen = []
    fut.add_done(lambda v: seen.append(v))
    fut.resolve(42)
    assert seen == []  # not yet: callback is scheduled, not inline
    sim.run_until(sim.now)
    assert seen == [42]
    # late subscription still fires
    fut.add_done(lambda v: seen.append(v + 1))
    sim.run_until(sim.now)
    assert seen == [42, 43]


def test_resolve_is_one_shot():
    sim = Simulation(seed=1)
    fut = Future(sim)
    fut.resolve("first")
    fut.resolve("second")
    assert fut.value == "first"


# -- local clocks -------------------------------------------------------------


def test_local_timer_on_slow_clock_fires_late_in_true_time():
    sim, net = one_region()
    slow = Host(sim, net, "slow.R0", "R0", drift_ppm=200)
    fired = []
    slow.k.set_local_timer(1_000_000, lambda: fired.append(sim.now))
    sim.run_until(2_000_000)
    assert fired == [1_000_200]


def test_local_timer_on_fast_clock_fires_early_in_true_time():
    sim, net = one_region()
    fast = Host(sim, net, "fast.R0", "R0", drift_ppm=-200)
    fired = []
    fast.k.set_local_timer(1_000_000, lambda: fired.append(sim.now))
    sim.run_until(2_000_000)
    assert fired == [999_801]


def test_local_now_offsets_differ_between_nodes():
    sim, net = one_region()
    a = Host(sim, net, "a.R0", "R0")
    b = Host(sim, net, "b.R0", "R0")
    assert a.k.local_now() != b.k.local_now()


# -- messaging ----------------------------------------------------------------


def test_send_delivers_within_jitter_bounds():
    sim, net = one_region(rtt_ms=10.0)  # one-way 5ms
    a = Host(sim, net, "a.R0", "R0")
    b = Host(sim, net, "b.R0", "R0")
    a.k.send("b.R0", "hello")
    sim.run_until(20 * MS)
    assert len(b.inbox) == 1


def test_rpc_round_trip_and_timeout():
    sim, net = one_region()

    class Echo(Host):
        def handle(self, env):
            self.k.reply(env, ("echo", env.payload))

    echo = Echo(sim, net, "echo.R0", "R0")
    mute = Host(sim, net, "mute.R0", "R0")  # never replies
    caller = Host(sim, net, "caller.R0", "R0")

    def program():
        good = yield from ask_once(caller.k, "echo.R0", "ping", 50 * MS)
        bad = yield from ask_once(caller.k, "mute.R0", "ping", 5 * MS)
        return good, bad

    good, bad = drive(sim, caller.k, program())
    assert good == ("echo", "ping")
    assert bad is RPC_TIMEOUT


def test_a_reply_to_an_earlier_try_completes_the_call():
    # one-way 0.1 ms, no jitter: the first try's reply is held 6 ms, past
    # its 5 ms timeout; the re-send's is held 3 ms
    sim, net = one_region(jitter_pct=0.0)
    holds = [6 * MS, 3 * MS]

    class Slow(Host):
        def handle(self, env):
            try_no = len(self.inbox)
            self.inbox.append(env)
            self.k.set_local_timer(holds[try_no],
                                   lambda: self.k.reply(env, try_no))

    slow = Slow(sim, net, "slow.R0", "R0")
    caller = Host(sim, net, "caller.R0", "R0")

    def program():
        call = caller.k.call("slow.R0", "ping")
        first = yield call.ask(5 * MS)
        second = yield call.ask(5 * MS)
        call.close()
        return first, second, sim.now

    first, second, at = drive(sim, caller.k, program())
    assert first is RPC_TIMEOUT
    assert len(slow.inbox) == 2  # the re-send went out at the timeout
    # the first try's reply, at its own instant: 0.1 + 6 + 0.1 ms, before
    # the re-send's at 5 + 0.1 + 3 + 0.1 ms
    assert (second, at) == (0, 6 * MS + 200 * US)


def test_a_call_takes_a_reply_heard_between_tries_without_sending():
    sim, net = one_region(jitter_pct=0.0)

    class Late(Host):
        def handle(self, env):
            self.inbox.append(env)
            self.k.set_local_timer(6 * MS, lambda: self.k.reply(env, "late"))

    late = Late(sim, net, "late.R0", "R0")
    caller = Host(sim, net, "caller.R0", "R0")

    def program():
        call = caller.k.call("late.R0", "ping")
        first = yield call.ask(5 * MS)
        yield caller.k.sleep_local(2 * MS)  # a back-off; the reply lands
        second = yield call.ask(5 * MS)
        call.close()
        return first, second, sim.now

    first, second, at = drive(sim, caller.k, program())
    assert (first, second, at) == (RPC_TIMEOUT, "late", 7 * MS)
    assert len(late.inbox) == 1


def test_drop_prob_one_loses_everything():
    sim, net = one_region(faults=FaultSchedule(drop_prob=1.0))
    a = Host(sim, net, "a.R0", "R0")
    b = Host(sim, net, "b.R0", "R0")
    for _ in range(20):
        a.k.send("b.R0", "x")
    sim.run_until(10 * MS)
    assert b.inbox == []
    assert net.dropped == 20


def test_partition_window_cuts_cross_region_traffic_only():
    fs = FaultSchedule(partitions=[
        PartitionWindow(frozenset({"R1"}), start_ns=0, end_ns=10 * MS)])
    sim = Simulation(seed=3)
    net = Network(sim, LatencyMatrix(
        ["R0", "R1"],
        {("R0", "R0"): 0.2, ("R1", "R1"): 0.2, ("R0", "R1"): 1.0}), fs)
    a0 = Host(sim, net, "a.R0", "R0")
    b0 = Host(sim, net, "b.R0", "R0")
    a1 = Host(sim, net, "a.R1", "R1")
    a0.k.send("a.R1", "cross")   # cut
    a0.k.send("b.R0", "intra")   # unaffected
    sim.run_until(5 * MS)
    assert [e.payload for e in b0.inbox] == ["intra"]
    assert a1.inbox == []
    # after the window closes, traffic flows again
    sim.run_until(11 * MS)
    a0.k.send("a.R1", "late")
    sim.run_until(20 * MS)
    assert [e.payload for e in a1.inbox] == ["late"]


def test_crash_drops_inbound_and_kills_tasks_and_timers():
    sim, net = one_region()
    a = Host(sim, net, "a.R0", "R0")
    b = Host(sim, net, "b.R0", "R0")
    fired = []
    a.k.set_local_timer(5 * MS, lambda: fired.append("timer"))

    def task():
        yield a.k.sleep_local(5 * MS)
        fired.append("task")

    a.k.spawn(task())
    sim.run_until(1 * MS)
    a.crash()
    b.k.send("a.R0", "for-the-dead")
    sim.run_until(20 * MS)
    assert fired == []
    assert a.inbox == []
    # a fresh incarnation serves again, but old work stays dead
    a.restart()
    b.k.send("a.R0", "for-the-living")
    sim.run_until(40 * MS)
    assert [e.payload for e in a.inbox] == ["for-the-living"]


def _wait_on_a_call(a, released):
    Host(a.sim, a.net, "mute.R0", "R0")  # never replies
    yield from ask_once(a.k, "mute.R0", "ping", 50 * MS)


def _wait_on_a_local_timer(a, released):
    yield a.k.sleep_local(50 * MS)  # a transaction's hold


def _wait_on_a_child_task(a, released):
    def child():
        try:
            yield a.k.sleep_local(50 * MS)
        finally:
            released.append(a.sim.now)

    yield a.k.spawn(child())


def _wait_on_a_storage_append(a, released):
    storage = SharedStorage(a.sim, flush_ns=50 * MS)
    yield storage.append("log", ["entry"], writer=a.node_id)


@pytest.mark.parametrize("wait, tasks", [
    (_wait_on_a_call, 1), (_wait_on_a_local_timer, 1),
    (_wait_on_a_child_task, 2), (_wait_on_a_storage_append, 1),
], ids=["call", "local-timer", "child-task", "storage-append"])
def test_a_task_killed_by_a_crash_is_released_at_the_crash(wait, tasks):
    # A crash closes every task its node runs, whatever each waits on, so
    # each one's finally runs at the crash: with the cycle collector off,
    # and before the wait would have ended.
    sim, net = one_region()
    a = Host(sim, net, "a.R0", "R0")
    released = []

    def task():
        try:
            yield from wait(a, released)
        finally:
            released.append(sim.now)

    gc.disable()
    try:
        a.k.spawn(task())
        sim.run_until(1 * MS)
        a.crash()
        assert released == [1 * MS] * tasks
        assert a.k._tasks == {}
        sim.run_until(100 * MS)
        assert released == [1 * MS] * tasks
    finally:
        gc.enable()


#: The tasks a node still runs once its clients are done: the loops it
#: runs for as long as it lives.
NODE_LOOPS = {
    "data": ["EpochCutter.run", "RecorderState._sweep_loop"],
    "coord": ["Coordinator._heartbeat_loop"],
}


@pytest.mark.parametrize("name", ["steady", "hot-rmw", "chaos", "faults.yaml"])
def test_a_finished_run_leaves_each_node_only_its_loops(name):
    # A task that nothing will resume, and that stays listed, is a leak
    # that grows with the run.
    if name.endswith(".yaml"):
        sc = load_scenario(str(SCENARIOS / name))
    else:
        sc = benchmark_workloads()[name].build(1, True)
    cluster = Cluster(sc)
    cluster.run()
    for node in cluster.net.nodes.values():
        running = sorted(task.gen.__qualname__ for task in node.k._tasks)
        assert running == NODE_LOOPS.get(node.kind, []), node.node_id


def test_reorder_holds_messages_back():
    # with reorder_prob=1 every message is delayed 1.5-3x its base latency;
    # a later send can overtake an earlier one given enough spread
    sim, net = one_region(faults=FaultSchedule(reorder_prob=1.0),
                          rtt_ms=10.0, jitter_pct=0.0)
    a = Host(sim, net, "a.R0", "R0")
    b = Host(sim, net, "b.R0", "R0")
    a.k.send("b.R0", 1)
    sim.run_until(20 * MS)
    assert [e.payload for e in b.inbox] == [1]
    # one-way base is 5ms; reorder stretched it beyond that
    assert sim.now >= int(5 * MS * 1.5) - 1


def test_duplicate_node_id_rejected():
    sim, net = one_region()
    Host(sim, net, "dup.R0", "R0")
    with pytest.raises(ValueError):
        Host(sim, net, "dup.R0", "R0")


# -- trace log ----------------------------------------------------------------


def small_log():
    sim = Simulation(seed=1)
    sim.trace.emit("a", x=1, y=[2])
    sim.now = 5
    sim.trace.emit("b", y=3)
    sim.now = 7
    sim.trace.emit("a", x=4, y=None)
    return sim.trace


def test_trace_events_read_back_as_emitted():
    events = small_log().events
    expected = [(0, "a", {"x": 1, "y": [2]}), (5, "b", {"y": 3}),
                (7, "a", {"x": 4, "y": None})]
    assert list(events) == list(events) == expected
    assert len(events) == 3
    assert events[0] == expected[0] and events[-1] == expected[-1]
    assert events[1:] == expected[1:] and events[::-1] == expected[::-1]
    assert list(reversed(events)) == expected[::-1]
    with pytest.raises(IndexError):
        events[3]


def test_each_read_of_an_event_builds_a_fresh_dict():
    log = small_log()
    events = log.events
    _t, _kind, fields = events[0]
    fields["x"] = 99
    del fields["y"]
    next(iter(events))[2]["z"] = 1
    events[:1][0][2].clear()
    assert events[0] == (0, "a", {"x": 1, "y": [2]})
    assert events[0][2] is not events[0][2]
    # the view has no way to add, remove or replace an event
    with pytest.raises(TypeError):
        events[0] = (0, "c", {})
    assert not hasattr(events, "append")


def test_events_of_one_shape_share_their_field_names():
    log = small_log()
    (_, _, a1, *_), (_, _, b, *_), (_, _, a2, *_) = log._rows
    assert a1 is a2 and a1 == ("x", "y") and b == ("y",)
    # a value is the emitter's own object, not a copy
    value = [2]
    log.add(9, "a", {"x": 1, "y": value})
    assert log._rows[-1][-1] is value


#: Bytes the trace log keeps per event on a tiny steady run, counted by
#: tracemalloc as the log takes the run's events again: about 126, and
#: about 103 on a full-size run, where each field-name tuple is shared by
#: more events. A log that kept a ``(t, kind, fields)`` tuple and its dict
#: per event took about 266.
STORE_BYTES_PER_EVENT = 160


def test_the_trace_log_keeps_little_per_event():
    sc = benchmark_workloads()["steady"].build(1, True)
    events = list(Cluster(sc).run().trace)
    tracemalloc.start()
    try:
        log = TraceLog()
        before = tracemalloc.get_traced_memory()[0]
        for t, kind, fields in events:
            log.add(t, kind, fields)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log.events) == len(events) > 300
    assert list(log.events) == events
    assert kept / len(events) < STORE_BYTES_PER_EVENT
