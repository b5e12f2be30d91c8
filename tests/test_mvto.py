"""Version chains, intent settlement, and log replay semantics; the
MVTO rules checked as a state machine."""

import importlib
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import hypothesis
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

import chronokv
from chronokv.checkers import check_strict_serializability
from chronokv.history import History, TxnInfo
from chronokv.messages import ABORTED, COMMITTED
from chronokv.mvto import KeyStore, apply_log_entry
from chronokv.replication import (
    CutEntry,
    FinalizeEntry,
    IntentEntry,
    RecordEntry,
)
from chronokv.tsbatch import Timestamp

ROOT = Path(__file__).resolve().parent.parent


def ts(n):
    return Timestamp(n, 0)


def intent(txn, key, t, value="v", role="rec/d0", proposal=1):
    return IntentEntry(txn, key, ts(t), value, role, proposal)


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
    s.insert_intent(intent("t1", "x", 5, "val-x"))
    s.insert_intent(intent("t1", "y", 5, "val-y"))
    assert s.resolve("t1", COMMITTED, epoch=3) is True
    assert s.chains["x"].visible(ts(5)) == (ts(5), "val-x")
    assert s.chains["y"].versions[ts(5)] == ("val-y", 3)
    assert s.chains["x"].intents == {}
    assert s.decided["t1"] == 3  # the commit epoch


def test_abort_drops_intents_without_a_trace():
    s = KeyStore()
    s.insert_intent(intent("t1", "x", 5))
    assert s.resolve("t1", ABORTED, None) is True
    assert s.chains["x"].intents == {}
    assert s.chains["x"].visible(ts(99)) == (None, None)
    assert s.decided["t1"] == ABORTED  # an aborted transaction has no epoch
    s.insert_intent(intent("t1", "y", 6))  # a late intent of it lands nowhere
    assert "y" not in s.chains


def test_resolve_is_idempotent():
    s = KeyStore()
    s.insert_intent(intent("t1", "x", 5))
    assert s.resolve("t1", COMMITTED, 1) is True
    assert s.resolve("t1", COMMITTED, 1) is False
    assert s.resolve("t1", ABORTED, None) is False  # too late to change fate
    assert s.chains["x"].visible(ts(5)) == (ts(5), "v")


def test_outcome_arriving_before_any_intent_still_lands():
    s = KeyStore()
    assert s.resolve("t9", COMMITTED, 2) is True
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
    apply_log_entry(s, FinalizeEntry("t1", COMMITTED, 4))
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
    s.resolve("t1", COMMITTED, 3)
    apply_log_entry(s, IntentEntry("t1", "k", ts(5), "old", "rec/d0", 1))
    apply_log_entry(s, IntentEntry("t1", "k", ts(5), "new", "rec/d0", 1))
    assert s.chains["k"].versions[ts(5)] == ("new", 3)
    assert s.chains["k"].order == [ts(5)]


# -- the read-wait and write rules' node inputs -------------------------------


def test_blocker_skips_intents_proposed_beyond_a_replicas_view():
    s = KeyStore()
    s.insert_intent(intent("t1", "k", 5, proposal=3))
    chain = s.chains["k"]
    assert chain.blocker(ts(9), "r", view=2) is None
    assert chain.blocker(ts(9), "r", view=3).txn == "t1"
    assert chain.blocker(ts(9), "r").txn == "t1"
    assert chain.blocker(ts(9), "t1") is None  # its own intent
    assert chain.blocker(ts(5), "r") is None   # not below the read


def test_write_below_the_restart_floor_is_refused():
    s = KeyStore()
    assert s.write(intent("t1", "k", 99), floor=100) == (None, False)
    assert s.chains["k"].intents == {}
    held, changed = s.write(intent("t2", "k", 100), floor=100)
    assert changed and s.chains["k"].intents == {"t2": held}


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
    refused.

    Beside the uniform draws of a transaction and a key, some draws aim
    at the states these rules act in: a read above an intent, a
    read-modify-write below a parked op, the verdict a parked op waits
    for, and a verdict that reaches a replica before the intent it
    decides. Each example ends with every parked op woken or refused
    (``teardown``)."""

    def __init__(self):
        super().__init__()
        self.store = KeyStore()
        self.log = []
        self.replayed = KeyStore()  # the log's entries so far, replayed
        self.replayed_n = 0
        self.serial_checked = 0  # committed txns the serial order covers
        self.txns = {}       # txn -> TxnInfo
        self.open = []       # undecided txns, in begin order
        self.read_ts = {}    # key -> highest timestamp a read was served at
        self.epoch = 1
        self.floor = None
        self.floors = 0
        self.verdicts_ahead = 0
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
        self.begin_at(nanos)

    def begin_at(self, nanos):
        """A transaction at ``nanos``, above every one begun before at
        the same nanos -> its TxnInfo."""
        n = len(self.txns)
        txn = f"t{n}"
        t = self.txns[txn] = TxnInfo(txn, begin_ns=0, end_ns=1,
                                     ts=Timestamp(nanos, 0, n))
        self.open.append(txn)
        return t

    @precondition(lambda self: self.open)
    @rule(n=st.integers(0, 7), key=st.sampled_from(KEYS))
    def read(self, n, key):
        self.read_as(self.pick(n), key)

    def read_as(self, t, key):
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
        held, changed = self.store.write(
            IntentEntry(t.txn, key, t.ts, value, "rec/d0", self.epoch, i),
            floor=self.floor)
        assert (held is None) == (first and (below_rt or below_floor))
        if held is None:
            self.decide_as(t, ABORTED)
            return
        assert changed and (held.value, held.idx) == (value, i)
        self.log.append(held)
        t.ops.append((i, "w", key, None, value))

    @precondition(lambda self: self.open)
    @rule(n=st.integers(0, 7), key=st.sampled_from(KEYS))
    def read_modify_write(self, n, key):
        """A read that carries the write after it. One that finds the key
        free applies the write rule in the same step; one that must wait
        parks, and ``wake`` serves it."""
        self.read_modify_write_as(self.pick(n), key)

    def read_modify_write_as(self, t, key):
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

    # The uniform draws above seldom meet a parked op: ``decide`` settles
    # most intents before a read lands on them. These two aim at the
    # states the read-wait and wake rules act in.

    def held_intents(self):
        return [(key, i) for key, chain in self.store.chains.items()
                for i in chain.intents.values()]

    @precondition(lambda self: self.held_intents())
    @rule(m=st.integers(0, 7), gap=st.integers(0, 3),
          carries_write=st.booleans())
    def read_above_an_intent(self, m, gap, carries_write):
        """A read, or a read-modify-write, of a key that holds an intent,
        by a transaction begun above that intent: it must wait."""
        intents = self.held_intents()
        key, held = intents[m % len(intents)]
        t = self.begin_at(held.ts.nanos + gap)
        if carries_write:
            self.read_modify_write_as(t, key)
        else:
            self.read_as(t, key)

    @precondition(lambda self: self.parked)
    @rule(m=st.integers(0, 7), k=st.integers(0, 7))
    def read_modify_write_below_a_parked_op(self, m, k):
        """A read-modify-write of a key with a parked op, between that op
        and the intent it waits for: it must wait too, and the op above
        dooms it. Where no timestamp lies between, it lands just above
        the parked op, which it dooms if that op carries a write."""
        txn, key, _ = self.parked[m % len(self.parked)]
        top = self.txns[txn].ts
        below = self.store.chains[key].blocker(top, txn).ts
        nanos = below.nanos + k % max(1, top.nanos - below.nanos)
        self.read_modify_write_as(self.begin_at(nanos), key)

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
            self.decide_as(t, ABORTED)

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
        write of the key stands, and nothing is logged."""
        writer = [txn for txn in self.open
                  if any(op[1] == "w" for op in self.txns[txn].ops)]
        t = self.txns[writer[n % len(writer)]]
        writes = [op for op in t.ops if op[1] == "w"]
        i, _, key, _, value = writes[m % len(writes)]
        latest = [op for op in writes if op[2] == key][-1]
        held, changed = self.store.write(
            IntentEntry(t.txn, key, t.ts, value, "rec/d0", self.epoch, i),
            floor=self.floor)
        assert not changed and (held.value, held.idx) == (latest[4], latest[0])

    # How many verdicts an example may send ahead of their intents.
    ahead = 2

    @precondition(lambda self: self.verdicts_ahead < self.ahead)
    @rule(nanos=st.integers(1, 40), key=st.sampled_from(KEYS),
          commit=st.booleans())
    def verdict_before_its_intent(self, nanos, key, commit):
        """A transaction's write, then its verdict, which the replayed
        store learns first, as a replica learns it by a push before the
        ship of the write's intent arrives: the intent entry it then
        replays applies the verdict at once (``KeyStore.insert_intent``),
        and the finalize after it changes nothing. The transaction is a
        new one, so no op parked on an open one loses its writer."""
        t = self.begin_at(nanos)
        self.write_as(t, key)
        if t.txn in self.open:  # else the write was refused
            decision = COMMITTED if commit else ABORTED
            self.verdicts_ahead += 1
            self.fire("verdict before its intent")
            self.replayed.resolve(t.txn, decision, self.epoch)
            self.decide_as(t, decision)

    def waited_for(self):
        """The transaction each parked op waits for, in park order; an op
        that a verdict has just unblocked, and is yet to wake, waits for
        none."""
        blockers = [self.store.chains[key].blocker(self.txns[txn].ts, txn)
                    for txn, key, _ in self.parked]
        return [b.txn for b in blockers if b is not None]

    @precondition(lambda self: self.open or self.parked)
    @rule(n=st.integers(0, 7), commit=st.booleans(), push=st.booleans())
    def decide(self, n, commit, push):
        """The verdict on a transaction with no op parked: its coordinator
        waits for every op. With ``push``, and an op parked, it is drawn
        among the transactions that parked ops wait for, as a push brings
        it back; one of them is not parked itself, since each op waits for
        an intent below its own timestamp."""
        if push and self.parked:
            txns = [txn for txn in self.waited_for()
                    if not self.is_parked(self.txns[txn])]
        else:
            txns = [txn for txn in self.open
                    if not self.is_parked(self.txns[txn])]
        if txns:
            self.decide_as(self.txns[txns[n % len(txns)]],
                           COMMITTED if commit else ABORTED)

    def decide_as(self, t, decision):
        """Decide ``t``, and wake what its verdict unblocks: a settle, if
        a parked op waits for it."""
        if t.txn in self.waited_for():
            self.fire("settle")
        if t.txn in self.open:  # see HotKeysMachine
            self.open.remove(t.txn)
        t.status = decision
        if self.store.resolve(t.txn, decision, self.epoch):
            self.log.append(FinalizeEntry(t.txn, decision, self.epoch))
        self.epoch += 1
        self.wake_unblocked()

    def teardown(self):
        """In the end every transaction is decided, so every parked op
        wakes or is refused: commit what the parked ops wait for, one at
        a time, until none is parked, and check the rules after each."""
        while self.parked:
            txn = next(txn for txn in self.waited_for()
                       if not self.is_parked(self.txns[txn]))
            self.decide_as(self.txns[txn], COMMITTED)
            self.replaying_the_log_rebuilds_the_store()
            self.each_key_holds_the_ops_parked_on_it()
            self.every_early_refusal_is_one_the_write_rule_makes_later()
            self.committed_reads_replay_serially_in_timestamp_order()

    @invariant()
    def replaying_the_log_rebuilds_the_store(self):
        """Replay is the same whether the whole log is replayed at once
        or in parts, so the entries are replayed as they are logged."""
        if self.floor is not None and len(self.log) > self.logged_at_floor:
            self.fire("replay after a floor")
        for entry in self.log[self.replayed_n:]:
            apply_log_entry(self.replayed, entry)
        self.replayed_n = len(self.log)
        assert durable_state(self.replayed) == durable_state(self.store)

    @invariant()
    def each_key_holds_the_ops_parked_on_it(self):
        for key, chain in self.store.chains.items():
            assert {txn: (at, refuse is not None)
                    for txn, (at, refuse) in chain.waiters.items()} == {
                txn: (self.txns[txn].ts, carries_write)
                for txn, k, carries_write in self.parked if k == key}

    @invariant()
    def every_early_refusal_is_one_the_write_rule_makes_later(self):
        """Once every op parked on the key has read, the read timestamp
        is at least the highest of them, and the write rule refuses each
        write that was refused early."""
        later = KeyStore()
        for key, chain in self.store.chains.items():
            later.touch(key).rt = max(
                [r for r in [chain.rt, *(at for at, _ in
                                         chain.waiters.values())] if r],
                default=None)
        for key, at in self.early:
            assert later.write(IntentEntry("w", key, at, "v", "rec/d0", 1)) \
                == (None, False)

    @invariant()
    def committed_reads_replay_serially_in_timestamp_order(self):
        """Checked once per commit: a committed transaction's ops are
        final."""
        committed = {txn: t for txn, t in self.txns.items() if t.committed}
        if len(committed) == self.serial_checked:
            return
        self.serial_checked = len(committed)
        v = check_strict_serializability(History(txns=committed))
        assert v.ok, v.violations


def durable_state(store):
    """What the log must rebuild: versions, intents and decisions; not
    the read timestamps, which a restart replaces by a floor."""
    versions = {key: (chain.order, chain.versions)
                for key, chain in store.chains.items() if chain.versions}
    intents = {(key, txn): i for key, chain in store.chains.items()
               for txn, i in chain.intents.items()}
    return versions, intents, store.decided, store.txn_keys


def load_local_modules():
    """Import every module outside the tests that running the suite may
    load: the package's, and the benchmark's scripts. Hypothesis draws
    about one integer in twenty from the literals of the local modules
    loaded at the time, tests left out (``_get_local_constants`` in
    ``hypothesis.internal.conjecture.providers``). With all of them
    loaded, a run draws the same whatever ran before it in the
    process."""
    for module in pkgutil.iter_modules(chronokv.__path__):
        importlib.import_module(f"chronokv.{module.name}")
    bench = ROOT / "perfbench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))  # its scripts import by bare name
    for path in sorted(bench.glob("*.py")):
        if not path.stem.startswith("test_"):
            importlib.import_module(path.stem)


def run_counted(machine, floors, seed=None, **kwargs):
    """Run ``machine`` derandomized, or at hypothesis seed ``seed``, and
    fail, giving every rule's count, if a rule in ``floors`` fired fewer
    times than its floor over the whole run. It first loads the local
    modules (``load_local_modules``), so a run's counts are the same
    when its test file runs alone, in the whole suite and from a script.
    A derandomized run draws from a digest of the machine's source, and
    hypothesis draws from the literals of those modules, so the counts
    still move with edits that change no rule. So each floor sits at
    about a fourth of its fewest count or less, derandomized and at each
    of seeds 1 to 5."""
    load_local_modules()
    machine.fired = Counter()
    factory = machine if seed is None else hypothesis.seed(seed)(
        lambda: machine())
    run_state_machine_as_test(factory, settings=settings(
        derandomize=True, database=None, deadline=None, **kwargs))
    short = sorted(rule for rule, least in floors.items()
                   if machine.fired[rule] < least)
    counts = {rule: machine.fired[rule]
              for rule in sorted({*floors, *machine.fired})}
    assert not short, f"{short} fired below their floors {floors}: {counts}"


# The fewest over the derandomized run and seeds 1 to 5: 223 parks, 200
# wakes, 88 settles, 130 early refusals, 3183 replays over entries
# written since a floor and 152 verdicts before their intents.
MVTO_FLOORS = {"park": 50, "wake": 35, "settle": 20, "early refusal": 35,
               "replay after a floor": 600, "verdict before its intent": 30}
MVTO_RUN = dict(max_examples=150, stateful_step_count=60)


def test_mvto_rules_hold_as_a_state_machine():
    run_counted(MvtoMachine, MVTO_FLOORS, **MVTO_RUN)


def test_mvto_rules_hold_as_a_state_machine_at_seed_3():
    run_counted(MvtoMachine, MVTO_FLOORS, seed=3, **MVTO_RUN)


class HotKeysMachine(MvtoMachine):
    """The same rules, started with a transaction below every other
    holding an intent on each key. It is not open: no rule sends its ops,
    and only a pushed verdict (``decide`` with ``push``) decides it, so
    ops pile up behind it and wake together. No restart floor: one drawn
    early refuses most later writes, which leaves few intents to park
    on."""

    restarts = 0

    @initialize()
    def hold_every_key(self):
        self.begin_at(0)
        for key in KEYS:
            self.write_as(self.txns["t0"], key)
        self.open.remove("t0")


# The fewest over the derandomized run and seeds 1 to 5: 1038 parks, 832
# wakes, 261 settles, 761 early refusals and 126 verdicts before their
# intents.
HOT_KEYS_FLOORS = {"park": 180, "wake": 150, "settle": 55,
                   "early refusal": 150, "verdict before its intent": 25}
HOT_KEYS_RUN = dict(max_examples=100, stateful_step_count=100)


def test_ops_parked_on_one_verdict_wake_by_the_mvto_rules():
    run_counted(HotKeysMachine, HOT_KEYS_FLOORS, **HOT_KEYS_RUN)


def test_ops_parked_on_one_verdict_wake_by_the_mvto_rules_at_seed_1():
    run_counted(HotKeysMachine, HOT_KEYS_FLOORS, seed=1, **HOT_KEYS_RUN)
