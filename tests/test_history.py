"""Trace persistence and the structured history built from it."""

import pytest

from chronokv.cluster import run_scenario
from chronokv.history import build_history, read_trace, write_trace
from chronokv.scenario import Scenario, WorkloadSpec
from chronokv.tsbatch import Timestamp


def small_run():
    return run_scenario(Scenario(
        name="hist-unit", seed=17, duration_ms=30_000,
        regions=["SH"], data_nodes=["SH"], coordinators=["SH"],
        clients_per_coordinator=1, txns_per_client=15,
        workload=WorkloadSpec(kind="ycsb", keys=16, ops_per_txn=2),
    ))


def test_build_history_reconstructs_transactions_from_a_real_trace():
    r = small_run()
    h = build_history(r.trace)
    assert len(h.txns) == 15
    for t in h.txns.values():
        assert t.end_ns is not None and t.end_ns > t.begin_ns
        assert t.status in ("committed", "aborted")
        if t.committed:
            assert isinstance(t.ts, Timestamp)
            if any(op[1] == "w" for op in t.ops):
                assert t.epoch >= 1  # read-only commits never get an epoch
            # traced ops carry (idx, kind, key, version-ts, value)
            assert len(t.ops) == 2
    assert len(h.cuts) > 0
    assert len(h.oracle) > 0


def test_trace_round_trips_through_jsonl_with_meta(tmp_path):
    r = small_run()
    p = tmp_path / "run.trace"
    write_trace(str(p), r.trace, meta={"scenario": "hist-unit", "seed": 17})
    meta, events = read_trace(str(p))
    assert meta == {"scenario": "hist-unit", "seed": 17}
    assert len(events) == len(r.trace)
    # JSON turns tuples into lists; compare through the structured view
    h0, h1 = build_history(r.trace), build_history(events)
    assert {t.txn: (t.status, t.ts, t.epoch) for t in h0.txns.values()} == \
           {t.txn: (t.status, t.ts, t.epoch) for t in h1.txns.values()}
    assert h0.cuts == h1.cuts
    assert h0.records == h1.records


def test_a_written_and_read_trace_builds_the_history_of_the_run(tmp_path):
    # replica reads too, so rread's timestamps and reads go through JSON
    r = run_scenario(Scenario(
        name="hist-rt", seed=5, duration_ms=30_000,
        regions=["SH", "BJ"], data_nodes=["SH"], replicate_to=["BJ"],
        coordinators=["SH"], clients_per_coordinator=1, txns_per_client=10,
        replica_readers=1, replica_reads_per_reader=5, interval_ms=50,
    ))
    p = tmp_path / "run.trace"
    write_trace(str(p), r.trace)
    _meta, events = read_trace(str(p))
    # a trace in memory holds the Timestamp itself, a written one a list
    def ts_types(trace):
        return {type(f["ts"]) for _t, kind, f in trace
                if kind in ("txn_ts", "rread_start", "rread")}

    assert ts_types(r.trace) == {Timestamp} and ts_types(events) == {list}
    h = build_history(r.trace)
    assert h.rreads and h.txns
    # the history keeps each replica's own list of reads, not a copy
    lists = [f["reads"] for _t, kind, f in r.trace if kind == "rread"]
    assert len(lists) == len(h.rreads)
    assert all(rr.reads is own for rr, own in zip(h.rreads, lists))
    written = build_history(events)
    assert written == h
    assert not any(rr.reads is own for rr, own in zip(written.rreads, lists))


def test_timestamp_comes_from_txn_ts_and_a_later_txn_end_keeps_it():
    events = [
        # the coordinator crashed after acquiring: no txn_end ever came
        (10, "txn_begin", {"txn": "c0.SH:1"}),
        (20, "txn_ts", {"txn": "c0.SH:1", "ts": [500, 0]}),
        (30, "txn_begin", {"txn": "c1.BJ:1"}),
        (40, "txn_ts", {"txn": "c1.BJ:1", "ts": [600, 0]}),
        (50, "txn_end", {"txn": "c1.BJ:1", "status": "committed",
                         "epoch": 2, "reason": None}),
    ]
    h = build_history(events)
    a, b = h.txns["c0.SH:1"], h.txns["c1.BJ:1"]
    assert (a.status, a.ts, a.coord) == (None, Timestamp(500, 0), "c0.SH")
    assert (b.status, b.ts, b.epoch, b.coord) == \
        ("committed", Timestamp(600, 0), 2, "c1.BJ")


def test_two_element_timestamps_of_older_traces_read_as_batch_zero():
    events = [
        (10, "txn_begin", {"txn": "old"}),
        (20, "txn_ts", {"txn": "old", "ts": [500, 1]}),
        (30, "txn_begin", {"txn": "new"}),
        (40, "txn_ts", {"txn": "new", "ts": [500, 1, 400]}),
    ]
    h = build_history(events)
    assert h.txns["old"].ts == Timestamp(500, 1, 0)
    assert h.txns["new"].ts == Timestamp(500, 1, 400)
    assert h.txns["old"].ts < h.txns["new"].ts


def test_read_trace_rejects_unknown_schema_versions(tmp_path):
    # schema 1 traced the timestamp in txn_end too, which is read no more
    p = tmp_path / "bad.trace"
    for schema in (1, 99):
        p.write_text(f'{{"kind": "header", "schema": {schema}}}\n')
        with pytest.raises(ValueError, match="schema"):
            read_trace(str(p))


def test_replica_read_intervals_pair_start_and_finish():
    r = run_scenario(Scenario(
        name="hist-rr", seed=19, duration_ms=30_000,
        regions=["SH", "BJ"], data_nodes=["SH"], replicate_to=["BJ"],
        coordinators=["SH"], clients_per_coordinator=1, txns_per_client=10,
        replica_readers=2, replica_reads_per_reader=10, interval_ms=50,
    ))
    h = r.history()
    assert len(h.rreads) == 20
    for rr in h.rreads:
        assert rr.end_ns >= rr.start_ns
        assert rr.node.endswith("@BJ")
