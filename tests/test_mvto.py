"""Version chains, intent settlement, and log replay semantics; the
MVTO rules checked as a state machine."""

from collections import Counter

import pytest
from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from chronokv.checkers import check_strict_serializability
from chronokv.history import History, TxnInfo
from chronokv.messages import ABORT, COMMIT, COMMITTED
from chronokv.mvto import KeyStore, WriteIntent, apply_log_entry
from chronokv.replication import (
    CutEntry,
    FinalizeEntry,
    IntentEntry,
    RecordEntry,
)
from chronokv.tsbatch import Timestamp


def ts(n):
    return Timestamp(n, 0)


def intent(txn, t, value="v", role="rec/d0", proposal=1):
    return WriteIntent(txn, ts(t), value, role, proposal)


# -- visibility ---------------------------------------------------------------


def test_visible_returns_newest_version_at_or_below():
    s = KeyStore()
    s.insert_version("k", ts(10), "a", 1)
    s.insert_version("k", ts(30), "c", 1)
    s.insert_version("k", ts(20), "b", 1)
    chain = s.chains["k"]
    assert chain.visible(ts(9)) == (None, None)
    assert chain.visible(ts(10)) == (ts(10), "a")
    assert chain.visible(ts(25)) == (ts(20), "b")
    assert chain.visible(ts(99)) == (ts(30), "c")
    assert chain.order == [ts(10), ts(20), ts(30)]


def test_insert_version_same_ts_last_write_wins_without_duplication():
    s = KeyStore()
    s.insert_version("k", ts(10), "first", 1)
    s.insert_version("k", ts(10), "second", 2)
    chain = s.chains["k"]
    assert chain.order == [ts(10)]
    assert chain.versions[ts(10)] == ("second", 2)


# -- resolution ---------------------------------------------------------------


def test_commit_promotes_intents_to_versions():
    s = KeyStore()
    s.insert_intent("x", intent("t1", 5, "val-x"))
    s.insert_intent("y", intent("t1", 5, "val-y"))
    assert s.resolve("t1", COMMIT, epoch=3) is True
    assert s.chains["x"].visible(ts(5)) == (ts(5), "val-x")
    assert s.chains["y"].versions[ts(5)] == ("val-y", 3)
    assert s.chains["x"].intents == {}
    assert s.decided["t1"] == (COMMIT, 3)


def test_abort_drops_intents_without_a_trace():
    s = KeyStore()
    s.insert_intent("x", intent("t1", 5))
    assert s.resolve("t1", ABORT, None) is True
    assert s.chains["x"].intents == {}
    assert s.chains["x"].visible(ts(99)) == (None, None)


def test_resolve_is_idempotent():
    s = KeyStore()
    s.insert_intent("x", intent("t1", 5))
    assert s.resolve("t1", COMMIT, 1) is True
    assert s.resolve("t1", COMMIT, 1) is False
    assert s.resolve("t1", ABORT, None) is False  # too late to change fate
    assert s.chains["x"].visible(ts(5)) == (ts(5), "v")


def test_outcome_arriving_before_any_intent_still_lands():
    s = KeyStore()
    assert s.resolve("t9", COMMIT, 2) is True
    # the intent shows up later (reordered ship); replay path must promote
    apply_log_entry(s, IntentEntry("t9", "k", ts(7), "late", "rec/d0", 1))
    assert s.chains["k"].visible(ts(7)) == (ts(7), "late")
    assert s.chains["k"].versions[ts(7)] == ("late", 2)  # the record's epoch
    assert s.chains["k"].intents == {}


# -- log replay ---------------------------------------------------------------


def test_replay_intent_then_finalize_commit():
    s = KeyStore()
    apply_log_entry(s, IntentEntry("t1", "k", ts(5), "v5", "rec/d0", 1))
    assert "t1" in s.chains["k"].intents
    apply_log_entry(s, FinalizeEntry("t1", COMMIT, 4))
    assert s.chains["k"].versions[ts(5)] == ("v5", 4)


def test_replay_cut_marker_reports_its_epoch():
    s = KeyStore()
    assert apply_log_entry(s, CutEntry(12)) == 12
    assert apply_log_entry(s, IntentEntry("t", "k", ts(1), "v",
                                          "rec/d0", 1)) is None


def test_replay_rejects_unknown_entries():
    with pytest.raises(TypeError):
        apply_log_entry(KeyStore(), object())
    # records live in recorder streams, never in a data log
    with pytest.raises(TypeError):
        apply_log_entry(KeyStore(), RecordEntry("t1", COMMITTED, 2))


def test_same_txn_writes_two_timestamps_to_one_key_record_first():
    # a transaction wrote the key twice (two intents at different ts);
    # the outcome was settled before either intent was replayed
    s = KeyStore()
    s.resolve("t1", COMMIT, 3)
    apply_log_entry(s, IntentEntry("t1", "k", ts(5), "old", "rec/d0", 1))
    apply_log_entry(s, IntentEntry("t1", "k", ts(5), "new", "rec/d0", 1))
    assert s.chains["k"].versions[ts(5)] == ("new", 3)
    assert s.chains["k"].order == [ts(5)]


# -- the read-wait and write rules' node inputs -------------------------------


def test_blocker_skips_intents_proposed_beyond_a_replicas_view():
    s = KeyStore()
    s.insert_intent("k", intent("t1", 5, proposal=3))
    chain = s.chains["k"]
    assert chain.blocker(ts(9), "r", view=2) is None
    assert chain.blocker(ts(9), "r", view=3).txn == "t1"
    assert chain.blocker(ts(9), "r").txn == "t1"
    assert chain.blocker(ts(9), "t1") is None  # its own intent
    assert chain.blocker(ts(5), "r") is None   # not below the read


def test_write_below_the_restart_floor_is_refused():
    s = KeyStore()
    assert s.write("k", intent("t1", 99), floor=100) is None
    assert s.chains["k"].intents == {}
    held = s.write("k", intent("t2", 100), floor=100)
    assert held is not None
    assert s.chains["k"].intents == {"t2": held}


# -- the rules as a state machine ---------------------------------------------

KEYS = ("x", "y", "z")


class MvtoMachine(RuleBasedStateMachine):
    """Transactions on a few keys, served by the store's rules as a data
    node serves them, with the log the node would append.

    Timestamps are drawn, not read from a clock, so every transaction
    overlaps every other in real time and only the timestamp order is
    checked. A read that ``blocker`` makes wait parks in its key's
    ``waiters``, and every verdict wakes the parked ops it unblocks; a
    read-modify-write that a read above it dooms is refused unread. A
    transaction whose write is refused aborts, as its coordinator would,
    and one with an op parked is not decided otherwise. ``floor`` stands
    for a restarted node's bound, below which every first write is
    refused."""

    def __init__(self):
        super().__init__()
        self.store = KeyStore()
        self.log = []
        self.txns = {}       # txn -> TxnInfo
        self.open = []       # undecided txns, in begin order
        self.read_ts = {}    # key -> highest timestamp a read was served at
        self.epoch = 1
        self.floor = None
        self.floors = 0
        self.logged_at_floor = 0  # log entries when the last floor rose
        self.parked = []     # (txn, key, carries a write), in park order
        self.early = []      # (key, ts) of each write refused unread

    #: Firings of each rule that matters to the machine's reach, counted
    #: over a whole run of the machine (see ``run_counted``).
    fired = Counter()

    def fire(self, rule):
        event(rule)
        self.fired[rule] += 1

    def pick(self, n):
        return self.txns[self.open[n % len(self.open)]]

    def is_parked(self, t, key=None):
        return any(txn == t.txn and key in (None, k)
                   for txn, k, _ in self.parked)

    @rule(nanos=st.integers(1, 40))
    def begin(self, nanos):
        n = len(self.txns)
        txn = f"t{n}"
        self.txns[txn] = TxnInfo(txn, begin_ns=0, end_ns=1,
                                 ts=Timestamp(nanos, 0, n))
        self.open.append(txn)

    @precondition(lambda self: self.open)
    @rule(n=st.integers(0, 7), key=st.sampled_from(KEYS))
    def read(self, n, key):
        t = self.pick(n)
        own = [op for op in t.ops if op[1] == "w" and op[2] == key]
        if own:  # the coordinator answers from the transaction's writes
            t.ops.append((len(t.ops), "r", key, t.ts, own[-1][4]))
            return
        if self.is_parked(t, key):
            return
        if self.store.touch(key).blocker(t.ts, t.txn) is not None:
            self.park(t, key, False)
        else:
            self.serve_read(t, key)

    def serve_read(self, t, key):
        vts, value = self.store.chains[key].read(t.ts)
        self.read_ts[key] = max(self.read_ts.get(key, t.ts), t.ts)
        if t.txn in self.open:
            t.ops.append((len(t.ops), "r", key, vts, value))

    @precondition(lambda self: self.open)
    @rule(n=st.integers(0, 7), key=st.sampled_from(KEYS))
    def write(self, n, key):
        t = self.pick(n)
        if not self.is_parked(t, key):  # its chain waits for the read
            self.write_as(t, key)

    def write_as(self, t, key):
        i = len(t.ops)
        value = f"{t.txn}.{i}"
        first = not any(op[1] == "w" and op[2] == key for op in t.ops)
        below_rt = key in self.read_ts and t.ts < self.read_ts[key]
        below_floor = self.floor is not None and t.ts.nanos < self.floor
        held = self.store.write(
            key, WriteIntent(t.txn, t.ts, value, "rec/d0", self.epoch, i),
            floor=self.floor)
        assert (held is None) == (first and (below_rt or below_floor))
        if held is None:
            self.decide_as(t, ABORT)
            return
        assert (held.value, held.idx) == (value, i)
        self.log.append(IntentEntry(t.txn, key, t.ts, value, "rec/d0",
                                    held.proposal, i))
        t.ops.append((i, "w", key, None, value))

    @precondition(lambda self: self.open)
    @rule(n=st.integers(0, 7), key=st.sampled_from(KEYS))
    def read_modify_write(self, n, key):
        """A read that carries the write after it. One that finds the key
        free applies the write rule in the same step; one that must wait
        parks, and ``wake`` serves it."""
        t = self.pick(n)
        if any(op[1] == "w" and op[2] == key for op in t.ops):
            return  # read from the transaction's writes; the write goes alone
        chain = self.store.touch(key)
        if self.is_parked(t, key):
            return
        if chain.blocker(t.ts, t.txn) is not None:
            self.park(t, key, True)
            return
        before = len(self.log)
        self.serve_read(t, key)
        self.write_as(t, key)
        installed = t.txn in chain.intents
        assert installed == (t.ts >= self.read_ts[key] and (
            self.floor is None or t.ts.nanos >= self.floor))
        # an abort for a refusal may wake parked ops, which log their own
        logged = [e for e in self.log[before:] if isinstance(e, IntentEntry)
                  and (e.txn, e.key) == (t.txn, key)]
        assert len(logged) == installed

    def park(self, t, key, carries_write):
        """A read, or a read-modify-write, that ``blocker`` makes wait
        joins its key's waiters, as ``DataNode._read_task`` parks it. A
        read-modify-write that a read above it already dooms is refused
        instead, and one that parks refuses each parked below it."""
        chain = self.store.chains[key]
        above = [self.txns[other].ts for other, k, _ in self.parked
                 if k == key and self.txns[other].ts > t.ts]
        outbid = chain.outbid(t.ts)
        assert outbid == bool(above or self.read_ts.get(key, t.ts) > t.ts)
        if carries_write and outbid:
            self.refuse(t, key)
            return
        doomed = [parked for parked in self.parked if parked[1] == key
                  and parked[2] and self.txns[parked[0]].ts < t.ts]
        self.called = []
        chain.park(t.txn, t.ts, (lambda txn=t.txn: self.called.append(txn))
                   if carries_write else None)
        assert sorted(self.called) == sorted(txn for txn, _, _ in doomed)
        self.parked.append((t.txn, key, carries_write))
        self.fire("park")
        for parked in doomed:
            self.parked.remove(parked)
            chain.unpark(parked[0])
        for txn, _, _ in doomed:
            self.refuse(self.txns[txn], key)

    def refuse(self, t, key):
        """A read-modify-write refused with nothing read: its transaction
        aborts."""
        self.fire("early refusal")
        self.early.append((key, t.ts))
        if t.txn in self.open:
            self.decide_as(t, ABORT)

    @precondition(lambda self: self.parked)
    @rule(m=st.integers(0, 7), commit=st.booleans())
    def settle(self, m, commit):
        """A push brings back the verdict on what blocks a parked op."""
        txn, key, _ = self.parked[m % len(self.parked)]
        blocker = self.store.chains[key].blocker(self.txns[txn].ts, txn)
        t = self.txns[blocker.txn]
        if not self.is_parked(t):
            self.fire("settle")
            self.decide_as(t, COMMIT if commit else ABORT)

    def wake_unblocked(self):
        """After a verdict, every parked op that ``blocker`` now lets
        through wakes, in the order they parked."""
        for parked in list(self.parked):
            txn, key, _ = parked
            if parked in self.parked and self.store.chains[key].blocker(
                    self.txns[txn].ts, txn) is None:
                self.wake(parked)

    def wake(self, parked):
        """A woken op reads. One that carries a write is the key's top
        bidder: a read above it, served or parked, would have refused it
        already. It applies the write rule. An op of a transaction that
        has since aborted reads and installs nothing, as a late try of a
        decided one."""
        txn, key, carries_write = parked
        self.fire("wake")
        t = self.txns[txn]
        chain = self.store.chains[key]
        self.parked.remove(parked)
        chain.unpark(txn)
        self.serve_read(t, key)
        if not carries_write:
            return
        assert not chain.outbid(t.ts)
        if txn in self.open:
            # the top bidder: no read above it was served or is parked,
            # and only a restart's floor can refuse its write
            self.write_as(t, key)
            assert (txn in chain.intents) == (
                self.floor is None or t.ts.nanos >= self.floor)

    # How many floors an example may draw. The rule is always enabled, so
    # without a bound it takes a third of the steps, and each floor
    # refuses most later first writes, which leaves few intents to park
    # on.
    restarts = 2

    @precondition(lambda self: self.floors < self.restarts)
    @rule(nanos=st.integers(1, 40))
    def restart_floor(self, nanos):
        """A restart's floor: it only ever rises."""
        self.floors += 1
        self.floor = max(self.floor or 0, nanos)
        self.logged_at_floor = len(self.log)

    @precondition(lambda self: any(
        op[1] == "w" for txn in self.open for op in self.txns[txn].ops))
    @rule(n=st.integers(0, 7), m=st.integers(0, 7))
    def retry_a_write(self, n, m):
        """A late try of one of a transaction's writes: only its latest
        write of the key stands."""
        writer = [txn for txn in self.open
                  if any(op[1] == "w" for op in self.txns[txn].ops)]
        t = self.txns[writer[n % len(writer)]]
        writes = [op for op in t.ops if op[1] == "w"]
        i, _, key, _, value = writes[m % len(writes)]
        latest = [op for op in writes if op[2] == key][-1]
        held = self.store.write(
            key, WriteIntent(t.txn, t.ts, value, "rec/d0", self.epoch, i),
            floor=self.floor)
        assert (held.value, held.idx) == (latest[4], latest[0])
        if held.idx == i:
            self.log.append(IntentEntry(t.txn, key, t.ts, value, "rec/d0",
                                        held.proposal, i))

    @precondition(lambda self: self.open)
    @rule(n=st.integers(0, 7), commit=st.booleans())
    def decide(self, n, commit):
        t = self.pick(n)
        if not self.is_parked(t):  # its coordinator waits for every op
            self.decide_as(t, COMMIT if commit else ABORT)

    def decide_as(self, t, decision):
        if t.txn in self.open:  # see HotKeysMachine
            self.open.remove(t.txn)
        t.status = "committed" if decision == COMMIT else "aborted"
        if self.store.resolve(t.txn, decision, self.epoch):
            self.log.append(FinalizeEntry(t.txn, decision, self.epoch))
        self.epoch += 1
        self.wake_unblocked()

    @invariant()
    def replaying_the_log_rebuilds_the_store(self):
        if self.floor is not None and len(self.log) > self.logged_at_floor:
            self.fire("replay after a floor")
        replayed = KeyStore()
        for entry in self.log:
            apply_log_entry(replayed, entry)
        assert durable_state(replayed) == durable_state(self.store)

    @invariant()
    def each_key_holds_the_ops_parked_on_it(self):
        for key, chain in self.store.chains.items():
            assert chain.waiters == {txn: self.txns[txn].ts
                                     for txn, k, _ in self.parked if k == key}
            assert set(chain.refusals) == {
                txn for txn, k, carries_write in self.parked
                if k == key and carries_write}

    @invariant()
    def every_early_refusal_is_one_the_write_rule_makes_later(self):
        """Once every op parked on the key has read, the read timestamp
        is at least the highest of them, and the write rule refuses each
        write that was refused early."""
        for key, at in self.early:
            chain = self.store.chains[key]
            later = KeyStore()
            later.touch(key).rt = max(
                r for r in [chain.rt, *chain.waiters.values()] if r)
            assert later.write(key, WriteIntent("w", at, "v", "rec/d0", 1)) \
                is None

    @invariant()
    def committed_reads_replay_serially_in_timestamp_order(self):
        h = History(txns={txn: t for txn, t in self.txns.items()
                          if t.committed})
        v = check_strict_serializability(h)
        assert v.ok, v.violations


def durable_state(store):
    """What the log must rebuild: versions, intents and decisions; not
    the read timestamps, which a restart replaces by a floor."""
    versions = {key: (chain.order, chain.versions)
                for key, chain in store.chains.items() if chain.versions}
    intents = {(key, txn): (i.ts, i.value, i.role, i.proposal, i.idx)
               for key, chain in store.chains.items()
               for txn, i in chain.intents.items()}
    return versions, intents, store.decided, store.txn_keys


def run_counted(machine, floors, **kwargs):
    """Run ``machine`` derandomized, and fail if a rule in ``floors``
    fired fewer times than its floor over the whole run. The counts move
    with edits that change no rule (an edit of a docstring once took one
    from 16 to 30), so each floor sits well below its count."""
    machine.fired = Counter()
    run_state_machine_as_test(machine, settings=settings(
        derandomize=True, database=None, deadline=None, **kwargs))
    short = {rule: machine.fired[rule] for rule, least in floors.items()
             if machine.fired[rule] < least}
    assert not short, f"fired below their floors {floors}: {short}"


def test_mvto_rules_hold_as_a_state_machine():
    # the run parks 37 ops, wakes 25, settles 16, refuses 3 unread, and
    # replays the log 1828 times over entries written since a floor
    run_counted(MvtoMachine, {"park": 15, "wake": 10, "settle": 6,
                              "early refusal": 1,
                              "replay after a floor": 600},
                max_examples=150, stateful_step_count=40)


class HotKeysMachine(MvtoMachine):
    """The same rules, started with a transaction below every other
    holding an intent on each key. It is not open: no rule sends its ops
    or decides it, and only a ``settle`` brings its verdict, so ops pile
    up behind it and wake together. No restart floor: one drawn early
    refuses most later writes, which leaves few intents to park on."""

    restarts = 0

    @initialize()
    def hold_every_key(self):
        self.begin(0)
        for key in KEYS:
            self.write_as(self.txns["t0"], key)
        self.open.remove("t0")

    @precondition(lambda self: len(self.parked) > 1)
    @rule(m=st.integers(0, 7), commit=st.booleans())
    def settle(self, m, commit):
        """As ``MvtoMachine.settle``, once two ops or more are parked."""
        super().settle(m, commit)


def test_ops_parked_on_one_verdict_wake_by_the_mvto_rules():
    # the run parks 443 ops, wakes 189, settles 76 and refuses 97 unread
    run_counted(HotKeysMachine, {"park": 180, "wake": 75, "settle": 30,
                                 "early refusal": 40},
                max_examples=100, stateful_step_count=100)
