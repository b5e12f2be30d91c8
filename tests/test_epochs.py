"""Promised epochs: numbering, read views, and the cutter loop."""

from chronokv.cluster import run_scenario
from chronokv.epochs import assign_commit_epoch, ceiling_epoch, promised_end_ns
from chronokv.scenario import Scenario

I = 100_000_000  # 100ms


def test_promised_end_is_the_schedule():
    assert promised_end_ns(1, I) == I
    assert promised_end_ns(7, I) == 7 * I


def test_ceiling_epoch_boundaries():
    assert ceiling_epoch(1, I) == 1
    assert ceiling_epoch(I, I) == 1          # exactly on the boundary
    assert ceiling_epoch(I + 1, I) == 2
    assert ceiling_epoch(2 * I, I) == 2
    assert ceiling_epoch(0, I) == 1          # degenerate inputs clamp up
    assert ceiling_epoch(-5, I) == 1


def test_commit_epoch_is_max_of_proposals_and_recorder():
    # the highest proposal of a transaction's write acks: see
    # test_coordinator's test_a_commit_asks_for_the_highest_write_proposal
    assert assign_commit_epoch(5, recorder_epoch=2) == 5
    assert assign_commit_epoch(1, recorder_epoch=9) == 9
    assert assign_commit_epoch(0, recorder_epoch=4) == 4
    assert assign_commit_epoch(5, recorder_epoch=2, floor=7) == 7


def test_cutter_never_cuts_before_the_promise_and_covers_every_epoch():
    # two regions, drifts forced to the extremes, short interval so a short
    # run still crosses dozens of boundaries
    sc = Scenario(seed=11, drain_ms=3_200, interval_ms=20,
                  regions=["SH", "BJ"], data_nodes=["SH", "BJ"],
                  coordinators=["SH"],
                  node_drift_ppm={"d0.SH": 200, "d1.BJ": -200},
                  txns_per_client=2)
    res = run_scenario(sc)
    h = res.history()
    assert len(h.cuts) >= 100
    by_node = {}
    for t, node, epoch, promised in h.cuts:
        assert promised == epoch * 20_000_000
        assert t > promised, f"{node} cut epoch {epoch} early"
        by_node.setdefault(node, []).append(epoch)
    assert set(by_node) == {"d0.SH", "d1.BJ"}
    for node, epochs in by_node.items():
        # dense coverage: every epoch up to the last one, exactly once
        assert epochs == list(range(1, len(epochs) + 1))


def test_cutter_resumes_from_durable_cuts_after_a_crash():
    from chronokv.simnet import CrashDirective, FaultSchedule

    fs = FaultSchedule()
    fs.crashes.append(CrashDirective(node="d0.SH", at_ns=1_000_000_000,
                                     restart_at_ns=1_400_000_000))
    sc = Scenario(seed=3, drain_ms=3_200, interval_ms=50,
                  regions=["SH"], data_nodes=["SH"], coordinators=["SH"],
                  txns_per_client=2, faults=fs)
    res = run_scenario(sc)
    assert any(kind == "recovered" for _t, kind, _f in res.trace), \
        "node never recovered"
    h = res.history()
    epochs = [e for _t, _n, e, _p in h.cuts]
    # no epoch is cut twice, and the backlog accumulated while down is
    # cut through without gaps
    assert len(epochs) == len(set(epochs))
    assert sorted(epochs) == list(range(1, max(epochs) + 1))
