"""Visibility-delay measurement and the run summary."""

import dataclasses
import random
from pathlib import Path

import pytest

from test_trace_digest import benchmark_workloads
from chronokv.cluster import Cluster, run_scenario
from chronokv.history import History, TxnInfo
from chronokv.metrics import (
    latency_summary,
    measure_visibility,
    percentile,
    run_summary,
    sawtooth_period_ns,
    summarize_delays,
    visibility_delays,
)
from chronokv.scenario import (
    Scenario,
    WorkloadSpec,
    read_scenario,
    scenario_from_dict,
)
from chronokv.tsbatch import Timestamp


def writer(name, commit_ns, epoch):
    t = TxnInfo(name, begin_ns=commit_ns - 10, end_ns=commit_ns + 10,
                status="committed", ts=Timestamp(commit_ns, 0), epoch=epoch,
                ops=[(0, "w", "k", None, f"{name}.0")])
    return t


def test_visibility_delay_is_record_to_last_relevant_replay():
    h = History()
    h.txns["a"] = writer("a", 1000, epoch=1)
    h.txns["b"] = writer("b", 2000, epoch=2)
    h.records = [(1100, "rec/d0.SH", "a", "committed", 1),
                 (2100, "rec/d0.SH", "b", "committed", 2)]
    # two replicas; the slower one sets the delay
    h.replays = [
        (1500, "d0.SH@BJ", "d0.SH", 1),
        (1900, "d0.SH@SG", "d0.SH", 1),
        (2500, "d0.SH@BJ", "d0.SH", 2),
        # SG never replays epoch 2 -> b unresolved
    ]
    vis = visibility_delays(h, replicas_of={"d0.SH": ["d0.SH@BJ",
                                                      "d0.SH@SG"]},
                            written_primaries=lambda t: {"d0.SH"})
    assert vis["series"] == [(1100, 800)]  # a: 1900 - 1100
    assert vis["unresolved"] == 1


def test_visibility_restricted_to_replicas_of_written_primaries():
    h = History()
    h.txns["a"] = writer("a", 1000, epoch=1)
    h.records = [(1100, "rec/d0.SH", "a", "committed", 1)]
    h.replays = [(1500, "d0.SH@BJ", "d0.SH", 1),
                 (9000, "d1.BJ@SG", "d1.BJ", 1)]  # unrelated primary
    replicas_of = {"d0.SH": ["d0.SH@BJ"], "d1.BJ": ["d1.BJ@SG"]}
    vis = visibility_delays(h, replicas_of=replicas_of,
                            written_primaries=lambda t: {"d0.SH"})
    assert vis["series"] == [(1100, 400)]


def test_measure_visibility_returns_series_summary_and_unresolved():
    h = History()
    for i in range(5):
        name = f"t{i}"
        h.txns[name] = writer(name, 1000 * (i + 1), epoch=1)
        h.records.append((1000 * (i + 1) + 50, "rec/x", name, "committed", 1))
    h.replays = [(10_000, "d0@BJ", "d0", 1)]
    out = measure_visibility(h, replicas_of={"d0": ["d0@BJ"]},
                             written_primaries=lambda t: {"d0"})
    assert set(out) == {"series", "summary", "unresolved"}
    assert out["summary"]["count"] == 5
    assert out["summary"]["max_ns"] == 10_000 - 1050
    assert out["unresolved"] == 0


def test_summarize_delays_frozen_percentiles():
    s = summarize_delays(list(range(1, 101)))
    assert s["count"] == 100
    assert s["max_ns"] == 100
    assert s["p50_ns"] == 50
    assert s["p99_ns"] == 99
    assert abs(s["mean_ns"] - 50.5) < 1e-9
    assert summarize_delays([]) == {"count": 0}


def test_percentile_matches_numpy_bit_for_bit():
    np = pytest.importorskip("numpy")
    rng = random.Random(12)
    for case in range(600):
        size = rng.choice([1, 2, 3, 10, rng.randrange(1, 500)])
        if case % 2:
            vals = [rng.randrange(0, 10**12) for _ in range(size)]
        else:
            vals = [rng.uniform(-1e6, 1e9) for _ in range(size)]
        for q in (50, 90, 99):
            assert percentile(vals, q) == \
                float(np.percentile(np.asarray(vals, dtype=float), q))


def sawtooth(interval, period, spans=40):
    """Commits every ~2 ms whose delay ramps down over each ``period``."""
    rng = random.Random(33)
    series = []
    t = 0
    while t < spans * interval:
        delay = period - t % period + rng.randrange(-500_000, 500_000)
        series.append((t, delay))
        t += 2_000_000 + rng.randrange(-300_000, 300_000)
    return series


def test_sawtooth_period_recovered_from_a_synthetic_signal():
    interval = 100 * 1_000_000
    shape = sawtooth_period_ns(sawtooth(interval, interval), interval)
    assert shape["ok"]
    assert abs(shape["period_ns"] - interval) <= 0.1 * interval
    assert shape["peak_corr"] > 0.5


def test_sawtooth_rejects_short_or_flat_series():
    interval = 100
    assert not sawtooth_period_ns([(0, 1)] * 4, interval)["ok"]
    flat = [(i * 10, 7) for i in range(400)]
    assert not sawtooth_period_ns(flat, interval)["ok"]


@pytest.mark.parametrize("period_x10", [25, 17])
def test_sawtooth_reports_no_period_for_a_peak_on_the_windows_edge(
        period_x10):
    # The window is 0.4..1.6 intervals. A period of 2.5 intervals makes
    # the autocorrelation fall across it, and one of 1.7 rise across it.
    interval = 20 * 1_000_000
    series = sawtooth(interval, interval * period_x10 // 10)
    shape = sawtooth_period_ns(series, interval)
    assert shape == {"ok": False, "reason": "no peak inside the window"}
    # the same window finds a period that lies inside it
    inside = sawtooth_period_ns(sawtooth(interval, interval), interval)
    assert inside["ok"] and inside["period_ns"] == interval


def test_steady_at_a_10ms_interval_reports_no_sawtooth_period():
    # The delays (p50 38.5 ms) vary by more than the interval, and the
    # strongest lag is the window's lower edge, once read as a 4 ms period.
    sc = dataclasses.replace(benchmark_workloads()["steady"].build(1, False),
                             interval_ms=10)
    r = Cluster(sc).run()
    vis = visibility_delays(r.history(), replicas_of=r.replicas_of(),
                            written_primaries=r.written_primaries)
    assert len(vis["series"]) > 2000
    assert not sawtooth_period_ns(vis["series"], sc.interval_ns)["ok"]
    assert "sawtooth_period_ms" not in run_summary(r)["visibility"]


def test_latency_summary_splits_committed_latency_by_coordinator_region():
    h = History()
    for n, (coord, ms, status) in enumerate([
            ("c0.SH", 10, "committed"), ("c0.SH", 30, "committed"),
            ("c2.SH", 20, "committed"), ("c1.BJ", 80, "committed"),
            ("c1.BJ", 500, "aborted"), ("c1.BJ", 7, None)]):
        h.txns[f"{coord}:{n}"] = TxnInfo(
            f"{coord}:{n}", begin_ns=0, status=status,
            end_ns=None if status is None else ms * 1_000_000)
    lat = latency_summary(h)
    assert lat["committed"]["count"] == 4
    by_region = lat["committed_by_region"]
    assert list(by_region) == ["BJ", "SH"]
    assert by_region["BJ"]["count"] == 1 and by_region["BJ"]["p50_ms"] == 80
    assert by_region["SH"]["count"] == 3
    assert by_region["SH"]["p50_ms"] == 20
    assert 29 < by_region["SH"]["p99_ms"] <= 30


def test_run_summary_reports_counts_latency_and_batching():
    r = run_scenario(Scenario(
        name="metrics-unit", seed=23, duration_ms=30_000,
        regions=["SH", "BJ"], data_nodes=["SH"], replicate_to=["BJ"],
        coordinators=["SH"], clients_per_coordinator=2, txns_per_client=20,
        interval_ms=50,
        workload=WorkloadSpec(kind="ycsb", keys=16, write_ratio=0.8),
    ))
    s = run_summary(r)
    committed = r.outcomes()["committed"]
    assert s["txns"] == 40
    assert s["committed"] == committed
    assert s["latency"]["committed"]["count"] == committed
    # the regions come from each transaction's id, through the history
    assert {region: v["count"] for region, v in
            s["latency"]["committed_by_region"].items()} == {"SH": committed}
    assert s["ts_requests"] == 40
    assert s["epoch_cuts"] > 0
    assert s["visibility"]["count"] > 0
    assert s["visibility"]["max_ns"] > 0


def test_run_summary_pins_the_coordinators_proxy_tallies_on_baseline():
    # The trace does not hold these counters, so no digest pin guards
    # them. They sum the coordinators' proxies only: the data nodes' and
    # the replica readers' client host's proxies would add 510 requests
    # and 510 fetches.
    path = Path(__file__).resolve().parent.parent / "scenarios/baseline.yaml"
    s = run_summary(run_scenario(scenario_from_dict(read_scenario(
        str(path)))))
    assert (s["ts_requests"], s["ts_fetches"], s["ts_served_local"]) == (
        600, 594, 1)
