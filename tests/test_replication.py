"""Durable streams, membership registers, fencing at the flush point, and
the one retry loop for requests to a fixed node and to a recorder role's
owner."""

from conftest import Host, drive, one_region

from chronokv.history import build_history
from chronokv.messages import NotOwner, Pending
from chronokv.replication import (
    FENCED,
    LONG_POLL_NS,
    RecordEntry,
    RoleDirectory,
    SharedStorage,
    request,
    try_timeout_ns,
)
from chronokv.simnet import (
    MS,
    SEC,
    Node,
    Simulation,
    retry_backoff_ns,
    spawn,
)


def rig(flush_ns=500_000):
    sim = Simulation(seed=4)
    return sim, SharedStorage(sim, flush_ns=flush_ns)


def run(sim, fut):
    sim.run_until(1 << 62, stop=lambda: fut.done)
    return fut.value


def test_append_is_durable_after_the_flush_latency():
    sim, st = rig(flush_ns=500_000)
    fut = st.append("log", ["a", "b"], writer="n0")
    assert run(sim, fut) == ("ok", 0)
    assert sim.now == 500_000
    fut = st.append("log", ["c"], writer="n0")
    assert run(sim, fut) == ("ok", 2)  # positions continue across appends
    assert run(sim, st.read_stream("log")) == ["a", "b", "c"]
    assert run(sim, st.read_stream("log", start=2)) == ["c"]


def test_append_without_role_never_fences():
    sim, st = rig()
    st.set_initial_owner("rec/x.R0", "other")
    assert run(sim, st.append("log", ["a"], writer="n0")) == ("ok", 0)


def test_fencing_checked_at_flush_time_not_submit_time():
    sim, st = rig(flush_ns=1_000_000)
    st.set_initial_owner("rec/x.R0", "n0")
    fut = st.append("rec/x.R0", ["entry"], writer="n0", role="rec/x.R0")
    # ownership changes while the append is in flight (cas lands at read_ns,
    # well before the flush), so the append must lose
    won = st.cas_membership("rec/x.R0", "n0", "n1")
    assert run(sim, won) is True
    assert run(sim, fut) == (FENCED,)
    assert run(sim, st.read_stream("rec/x.R0")) == []


def test_record_landing_after_its_writer_crashed_is_traced_at_the_flush():
    sim, net = one_region()
    writer = Host(sim, net, "d0.R0", "R0")
    st = SharedStorage(sim, flush_ns=1_000_000)
    st.set_initial_owner("rec/d0.R0", "d0.R0")
    entry = RecordEntry("c0.R0:1", "committed", 3)

    def recorder():
        yield st.append("rec/d0.R0", [entry], writer="d0.R0",
                        role="rec/d0.R0")

    writer.k.spawn(recorder())
    sim.after(500_000, writer.crash)  # mid-append: the task dies with it
    sim.run_until(10_000_000)
    assert st.streams["rec/d0.R0"] == [entry]  # the append still landed
    assert build_history(sim.trace.events).records == \
        [(1_000_000, "rec/d0.R0", "c0.R0:1", "committed", 3)]


def test_fenced_record_append_is_not_traced():
    sim, st = rig(flush_ns=1_000_000)
    st.set_initial_owner("rec/x.R0", "n0")
    fut = st.append("rec/x.R0", [RecordEntry("c0.R0:1", "aborted", None)],
                    writer="n0", role="rec/x.R0")
    assert run(sim, st.cas_membership("rec/x.R0", "n0", "n1")) is True
    assert run(sim, fut) == (FENCED,)
    assert build_history(sim.trace.events).records == []
    # the new owner's record does land, and is traced
    fut = st.append("rec/x.R0", [RecordEntry("c0.R0:1", "aborted", None)],
                    writer="n1", role="rec/x.R0")
    assert run(sim, fut) == ("ok", 0)
    assert [r[2:] for r in build_history(sim.trace.events).records] == \
        [("c0.R0:1", "aborted", None)]


def test_cas_membership_loses_on_stale_expectation():
    sim, st = rig()
    st.set_initial_owner("r", "n0")
    assert run(sim, st.cas_membership("r", "n0", "n1")) is True
    assert run(sim, st.cas_membership("r", "n0", "n2")) is False  # stale
    assert run(sim, st.get_owner("r")) == "n1"


def test_list_roles_owned():
    sim, st = rig()
    st.set_initial_owner("rec/a.R0", "n0")
    st.set_initial_owner("rec/b.R0", "n0")
    st.set_initial_owner("rec/c.R0", "n1")
    assert sorted(run(sim, st.list_roles_owned("n0"))) == \
        ["rec/a.R0", "rec/b.R0"]


def test_cached_lookup_takes_no_time_and_invalidated_one_reads_storage():
    sim, st = rig()
    st.set_initial_owner("rec/d0.R0", "n0")
    d = RoleDirectory({"R0": st})

    def lookup():
        return (yield from d.lookup("rec/d0.R0"))

    assert run(sim, spawn(sim, lookup())) == "n0"
    assert sim.now == st.read_ns  # a miss reads the register
    # cached: a second lookup completes without advancing time, and does
    # not see an owner change it was not told about
    st.membership["rec/d0.R0"] = "n1"
    assert run(sim, spawn(sim, lookup())) == "n0"
    assert sim.now == st.read_ns
    # invalidation forces a re-read that observes the new owner
    d.invalidate("rec/d0.R0")
    assert run(sim, spawn(sim, lookup())) == "n1"
    assert sim.now == 2 * st.read_ns


def test_role_directory_routes_by_home_region():
    sim = Simulation(seed=1)
    sh = SharedStorage(sim)
    sg = SharedStorage(sim)
    sh.set_initial_owner("rec/d0.SH", "d0.SH")
    sg.set_initial_owner("rec/d4.SG", "s0.SG")
    d = RoleDirectory({"SH": sh, "SG": sg})
    assert RoleDirectory.home_region("rec/d0.SH") == "SH"
    assert RoleDirectory.home_region("rec/s1.BJ") == "BJ"

    assert run(sim, spawn(sim, d.lookup("rec/d0.SH"))) == "d0.SH"
    assert run(sim, spawn(sim, d.lookup("rec/d4.SG"))) == "s0.SG"


# -- request to a role ---------------------------------------------------------

ROLE = "rec/d0.R0"
ONE_WAY = 100_000  # half the 0.2 ms rtt of one_region, without jitter


class Owner(Node):
    """Answers every request with ``answer``, or stays silent when it is
    None, and remembers when each request arrived."""

    kind = "host"

    def __init__(self, sim, net, node_id, answer):
        super().__init__(sim, net, node_id, "R0")
        self.answer = answer
        self.arrivals = []
        self.last = None  # the latest request envelope

    def handle(self, env):
        self.arrivals.append(self.sim.now)
        self.last = env
        if self.answer is not None:
            self.k.reply(env, self.answer)


def call_rig(owner="d0.R0"):
    sim, net = one_region(jitter_pct=0)
    st = SharedStorage(sim)
    if owner is not None:
        st.set_initial_owner(ROLE, owner)
    caller = Host(sim, net, "c0.R0", "R0")
    return sim, net, st, caller, RoleDirectory({"R0": st})


def test_call_follows_not_owner_to_the_new_owner_without_sleeping():
    sim, net, st, caller, d = call_rig()
    old = Owner(sim, net, "d0.R0", NotOwner(ROLE))
    new = Owner(sim, net, "s0.R0", "created")
    drive(sim, caller.k, d.lookup(ROLE))  # warm the cache with the old owner
    st.membership[ROLE] = "s0.R0"  # a takeover the caller has not seen
    start = sim.now
    assert drive(sim, caller.k,
                 request(caller.k, ROLE, "req", 3, roles=d)) == "created"
    assert len(old.arrivals) == len(new.arrivals) == 1
    # a round trip to the old owner, one register read, a round trip to
    # the new owner, and no sleep anywhere
    assert sim.now - start == 2 * ONE_WAY + st.read_ns + 2 * ONE_WAY


def test_call_backs_off_between_timeouts_and_not_after_the_last():
    # a role waits out each try by the same rule as a node does
    sim, net, st, caller, d = call_rig()
    silent = Owner(sim, net, "d0.R0", None)
    attempts = 30
    timeout = try_timeout_ns(caller.k, "d0.R0")
    assert timeout == 5 * MS  # the floor, for a 0.2 ms rtt
    assert drive(sim, caller.k,
                 request(caller.k, ROLE, "req", attempts, roles=d)) is None
    arrivals = silent.arrivals
    assert len(arrivals) == attempts
    # each timeout drops the owner, so the next try re-reads the register
    # after its back-off
    sleeps = [b - a - timeout - st.read_ns
              for a, b in zip(arrivals, arrivals[1:])]
    assert sleeps == [min(2 * (i + 1), 50) * MS for i in range(attempts - 1)]
    assert sleeps[-1] == 50 * MS
    # the call returns when the last try times out
    assert sim.now == arrivals[-1] - ONE_WAY + timeout


def test_call_without_a_limit_asks_until_it_is_answered():
    sim, net, _st, caller, d = call_rig()
    owner = Owner(sim, net, "d0.R0", None)
    sim.at(2 * SEC, lambda: setattr(owner, "answer", "late"))
    got = drive(sim, caller.k,
                request(caller.k, ROLE, "req", attempts=None, roles=d))
    assert got == "late"
    assert len(owner.arrivals) > 30  # past a commit's decide
    assert owner.arrivals[-1] >= 2 * SEC


def test_call_without_an_owner_sleeps_and_gives_up_after_its_attempts():
    sim, net, st, caller, d = call_rig(owner=None)
    assert drive(sim, caller.k, request(caller.k, ROLE, "req", 4, roles=d)) \
        is None
    assert sim.now == 4 * (st.read_ns + 5 * MS)


# -- request to a node ---------------------------------------------------------


def test_node_loop_backs_off_between_unanswered_tries_and_not_after_the_last():
    sim, net, _st, caller, _d = call_rig()
    silent = Owner(sim, net, "d0.R0", None)
    attempts = 6
    timeout = try_timeout_ns(caller.k, "d0.R0")
    assert timeout == 5 * MS  # the floor: 1.25 round trips of 0.2 ms
    assert drive(sim, caller.k,
                 request(caller.k, "d0.R0", "req", attempts)) is None
    arrivals = silent.arrivals
    assert len(arrivals) == attempts
    sleeps = [b - a - timeout for a, b in zip(arrivals, arrivals[1:])]
    assert sleeps == [retry_backoff_ns(i) for i in range(attempts - 1)]
    # the loop returns when the last try times out
    assert sim.now == arrivals[-1] - ONE_WAY + timeout


def test_node_loop_does_not_count_parked_tries_and_reasks_every_long_poll():
    sim, net, _st, caller, _d = call_rig()
    parker = Owner(sim, net, "d0.R0", Pending())
    answer_at = 4 * LONG_POLL_NS
    sim.at(answer_at, lambda: parker.k.reply(parker.last, "value"))
    # one try: a loop that counted the parked ones would give up at the
    # first re-ask, long before the answer
    assert drive(sim, caller.k,
                 request(caller.k, "d0.R0", "req", attempts=1)) == "value"
    assert sim.now == answer_at + ONE_WAY
    # each re-ask leaves LONG_POLL_NS after the parked reply came back
    gaps = [b - a for a, b in zip(parker.arrivals, parker.arrivals[1:])]
    assert gaps == [LONG_POLL_NS + 2 * ONE_WAY] * (len(parker.arrivals) - 1)
    assert len(parker.arrivals) == 4


def test_node_loop_with_one_attempt_sends_exactly_once():
    sim, net, _st, caller, _d = call_rig()
    silent = Owner(sim, net, "d0.R0", None)
    got = drive(sim, caller.k,
                request(caller.k, "d0.R0", "req", attempts=1,
                        timeout_ns=7 * MS))
    assert got is None
    assert len(silent.arrivals) == 1
    assert sim.now == 7 * MS
