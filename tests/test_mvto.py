"""Version chains, intent settlement, and log replay semantics."""

import pytest

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
