"""Checker validation: hand-built violations plus cross-validation of the
timestamp-order replay against a brute-force interleaving search."""

import random

from oracles import (
    brute_force_serializable,
    shrink_counterexample,
    synthesize_history,
)

from chronokv.checkers import (
    check_commit_records,
    check_deadlock_freedom,
    check_epoch_cuts,
    check_oracle_bounds,
    check_push_progress,
    check_replica_consistency,
    check_strict_serializability,
    check_timestamp_property,
    check_visibility_monotonic,
    effective_outcomes,
)
from chronokv.history import History, ReplicaRead, TxnInfo
from chronokv.tsbatch import Timestamp


def ts(n):
    return Timestamp(n, 0)


def committed_txn(name, begin, commit, end, ops):
    return TxnInfo(name, begin_ns=begin, end_ns=end, status="committed",
                   ts=ts(commit), ops=ops)


# -- cross-validation --------------------------------------------------------


def agree(h):
    fast = bool(check_strict_serializability(h))
    slow = brute_force_serializable(list(h.txns.values())) is not None
    return fast == slow, fast


def test_fast_checker_matches_brute_force_on_clean_histories():
    rng = random.Random(100)
    for _ in range(120):
        h = synthesize_history(rng, txn_count=rng.randrange(2, 7),
                               key_count=rng.randrange(1, 4))
        same, fast = agree(h)
        assert same
        assert fast  # clean generator output is serializable by construction


def test_fast_checker_matches_brute_force_on_corrupted_histories():
    rng = random.Random(200)
    for corrupt in ("fabricate", "stale_chain"):
        for _ in range(60):
            h = synthesize_history(rng, txn_count=rng.randrange(3, 7),
                                   key_count=2, corrupt=corrupt)
            same, fast = agree(h)
            assert same
            assert not fast  # both must reject the planted anomaly


def test_strict_serializability_flags_a_real_time_inversion():
    # "late" began after "early" was released, yet orders below it; the
    # two touch no key, so only the real-time half can catch it
    h = History()
    h.txns["early"] = committed_txn("early", 0, 90, 100, [])
    h.txns["late"] = committed_txn("late", 200, 50, 300, [])
    v = check_strict_serializability(h)
    assert not v.ok and len(v.violations) == 1
    assert "real-time order inverted: early" in v.violations[0]
    assert "late" in v.violations[0]


# -- timestamp property -------------------------------------------------------


def test_timestamp_checker_flags_a_commit_outside_its_lifetime():
    h = History()
    h.txns["ok"] = committed_txn("ok", 100, 150, 200, [])
    h.txns["bad"] = committed_txn("bad", 100, 250, 200, [])
    v = check_timestamp_property(h)
    assert not v.ok and len(v.violations) == 1
    assert "bad" in v.violations[0]


def test_oracle_checker_flags_wrong_width_and_regressing_bounds():
    h = History()
    h.oracle = [
        (1000, 0, 900, 1100),   # fine: width 200, contains t
        (1200, 0, 1100, 1250),  # width 150 != 200
        (1400, 0, 1300, 1100),  # hi regressed below previous hi
        (1500, 1, 1600, 1800),  # reading misses the true instant
    ]
    v = check_oracle_bounds(h, epsilon_ns=100)
    assert not v.ok
    # 1200: width; 1400: misses t + width + regressed hi; 1500: misses t
    assert len(v.violations) == 5
    assert v.checked == 4


# -- commit records ------------------------------------------------------------


def test_commit_record_checker_flags_double_decides_and_dirty_reads():
    h = History()
    h.txns["w"] = committed_txn("w", 0, 10, 20, [(0, "w", "k", None, "v1")])
    h.txns["r"] = committed_txn("r", 30, 40, 50,
                                [(0, "r", "k", ts(10), "v1"),
                                 (1, "r", "q", ts(5), "phantom")])
    h.records = [
        (5, "rec/d0.SH", "w", "committed", 1),
        (9, "rec/d0.SH", "w", "aborted", 1),    # second, conflicting decide
        (35, "rec/d0.SH", "r", "committed", 1),
    ]
    v = check_commit_records(h)
    assert not v.ok
    text = "\n".join(v.violations)
    assert "decided both" in text
    assert "never written" in text


def test_commit_record_checker_flags_a_record_contradicting_the_client():
    h = History()
    h.txns["t"] = committed_txn("t", 0, 10, 20, [(0, "w", "k", None, "v")])
    h.records = [(5, "rec/x.SH", "t", "aborted", None)]
    v = check_commit_records(h)
    assert not v.ok
    assert "client saw commit" in v.violations[0]


def test_commit_record_checker_flags_an_abort_the_record_says_committed():
    h = History()
    h.txns["t"] = TxnInfo("t", 0, end_ns=20, status="aborted", ts=ts(10),
                          reason="swept")
    h.records = [(5, "rec/x.SH", "t", "committed", 1)]
    v = check_commit_records(h)
    assert not v.ok and len(v.violations) == 1
    assert "t: client saw abort, record says committed" in v.violations[0]


def test_commit_record_checker_flags_a_read_of_an_aborted_writer():
    h = History()
    h.txns["w"] = TxnInfo("w", 0, end_ns=20, status="aborted", ts=ts(10),
                          reason="rt_conflict",
                          ops=[(0, "w", "k", None, "dirty")])
    h.txns["r"] = committed_txn("r", 30, 40, 50,
                                [(0, "r", "k", ts(10), "dirty")])
    h.records = [(15, "rec/x.SH", "w", "aborted", None)]
    v = check_commit_records(h)
    assert not v.ok and len(v.violations) == 1
    assert "r: read 'dirty' from k, writer was aborted" in v.violations[0]


def test_effective_outcomes_settles_unknowns_by_their_durable_record():
    # a crash killed "c" and "a" before their txn_end; their recorder
    # decided them anyway. "open" was never decided.
    h = History()
    h.txns["c"] = TxnInfo("c", 0, ts=ts(5))
    h.txns["a"] = TxnInfo("a", 0, ts=ts(6))
    h.txns["open"] = TxnInfo("open", 0)
    h.txns["ended"] = TxnInfo("ended", 0, end_ns=10, status="aborted",
                              ts=ts(7), reason="rt_conflict")
    h.records = [(8, "rec/a.SH", "c", "committed", 3),
                 (9, "rec/a.SH", "a", "aborted", None),
                 (12, "rec/a.SH", "ended", "aborted", None)]
    out = effective_outcomes(h)
    assert out["c"] == ("committed", 3)
    assert out["a"] == ("aborted", None)
    assert out["open"] == ("unknown", None)
    assert out["ended"] == ("aborted", None)


# -- epochs and replicas --------------------------------------------------------


def test_epoch_cut_checker_flags_early_cuts_bad_promises_and_gaps():
    interval = 100
    h = History()
    h.cuts = [
        (150, "d0", 1, 100),   # fine
        (190, "d0", 2, 150),   # promised should be 200
        (290, "d0", 3, 300),   # logged before its promised instant
        (520, "d0", 5, 500),   # skips epoch 4
    ]
    v = check_epoch_cuts(h, interval)
    assert not v.ok
    text = "\n".join(v.violations)
    assert "promised" in text
    assert "logged at" in text
    assert "gaps" in text


def test_replica_checker_flags_wrong_views_and_stale_values():
    interval = 100
    h = History()
    h.txns["t1"] = committed_txn("t1", 0, 50, 60, [(0, "w", "k", None, "old")])
    h.txns["t1"].epoch = 1
    h.txns["t2"] = committed_txn("t2", 70, 150, 160,
                                 [(0, "w", "k", None, "new")])
    h.txns["t2"].epoch = 2
    good = ReplicaRead("r0", "d0@BJ", ts(250), view=3, mode="fresh",
                       start_ns=250, end_ns=260, reads=[("k", ts(150), "new")])
    stale = ReplicaRead("r1", "d0@BJ", ts(250), view=3, mode="fresh",
                        start_ns=250, end_ns=260, reads=[("k", ts(50), "old")])
    off_view = ReplicaRead("r2", "d0@BJ", ts(250), view=9, mode="fresh",
                           start_ns=250, end_ns=260, reads=[])
    h.rreads = [good, stale, off_view]
    v = check_replica_consistency(h, interval)
    assert not v.ok
    assert len(v.violations) == 2
    assert any("r1" in x for x in v.violations)
    assert any("r2" in x and "view" in x for x in v.violations)


def replica_read_of(key, vts, val):
    return ReplicaRead("r0", "d0@BJ", ts(250), view=3, mode="fresh",
                       start_ns=250, end_ns=260, reads=[(key, vts, val)])


def test_replica_checker_accepts_a_writer_a_crash_left_unknown_until_aborted():
    # A crash killed "w" before its txn_end, so a replica may have seen
    # its write or not, until its record says it aborted.
    interval = 100
    h = History()
    h.txns["w"] = TxnInfo("w", 0, ts=ts(50),
                          ops=[(0, "w", "k", None, "lost")])
    h.rreads = [replica_read_of("k", ts(50), "lost")]
    v = check_replica_consistency(h, interval)
    assert v.ok, v.violations
    assert v.checked == 2
    h.records = [(80, "rec/d0.SH", "w", "aborted", None)]
    v = check_replica_consistency(h, interval)
    assert v.violations == [
        "r0 k@250/view3: saw (Timestamp(nanos=50, server_id=0, batch=0), "
        "'lost'), expected None"]


def test_replica_checker_skips_a_transaction_with_no_timestamp():
    # "begun" died before its timestamp came, so it sent no write: a
    # replica that shows its value made it up.
    interval = 100
    h = History()
    h.txns["begun"] = TxnInfo("begun", 0, ops=[(0, "w", "k", None, "ghost")])
    h.rreads = [replica_read_of("k", ts(50), "ghost")]
    v = check_replica_consistency(h, interval)
    assert len(v.violations) == 1 and "saw" in v.violations[0]


def test_replay_monotonicity_checker_flags_epoch_jumps():
    h = History()
    h.replays = [(10, "d0@BJ", "d0.SH", 1), (20, "d0@BJ", "d0.SH", 2),
                 (30, "d0@BJ", "d0.SH", 4)]
    v = check_visibility_monotonic(h)
    assert not v.ok
    assert "replayed 4 after 2" in v.violations[0]


# -- liveness -------------------------------------------------------------------


def test_deadlock_checker_flags_a_waits_for_cycle():
    h = History()
    h.pushes = [
        (10, "push_wait", "d0", "a", "b"),
        (20, "push_wait", "d1", "b", "a"),  # closes a <-> b
    ]
    v = check_deadlock_freedom(h)
    assert not v.ok
    assert "cycle" in v.violations[0]


def test_deadlock_checker_accepts_waits_released_before_reversal():
    h = History()
    h.pushes = [
        (10, "push_wait", "d0", "a", "b"),
        (20, "push_done", "d0", "a", "b"),
        (30, "push_wait", "d1", "b", "a"),  # edge a->b already gone
        (40, "push_done", "d1", "b", "a"),
    ]
    v = check_deadlock_freedom(h)
    assert v.ok and v.checked == 2


def test_push_progress_flags_upward_waits_and_abandoned_waiters():
    h = History()
    h.txns["lo"] = committed_txn("lo", 0, 100, 700, [])
    h.txns["hi"] = committed_txn("hi", 0, 200, 300, [])
    h.pushes = [
        # waiter's ts is below the writer's: wait points the wrong way
        (50, "push_wait", "d0", "lo", "hi"),
        (60, "push_done", "d0", "lo", "hi"),
        # never answered although the writer was decided long before the end
        (70, "push_wait", "d0", "r9", "hi"),
    ]
    h.records = [(80, "rec/x.SH", "hi", "committed", 1)]
    v = check_push_progress(h, end_ns=10_000_000_000)
    assert not v.ok
    text = "\n".join(v.violations)
    assert "points up" in text
    assert "still waiting" in text


# -- tooling --------------------------------------------------------------------


def test_shrink_counterexample_reduces_to_the_failing_core():
    items = list(range(20))

    def still_fails(subset):
        return 3 in subset and 11 in subset

    assert shrink_counterexample(items, still_fails) == [3, 11]
