"""Self-checks for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import one_pass
import run
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((Path(__file__).resolve().parent
                          / "predictions.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny_passes(request):
    name = request.param
    return name, [one_pass.run_pass(name, 3, traced=False, tiny=True),
                  one_pass.run_pass(name, 3, traced=True, tiny=True),
                  one_pass.run_pass(name, 3, traced=False, tiny=True)]


def test_a_tiny_run_of_each_workload_finishes(tiny_passes):
    _name, (plain, _traced, _again) = tiny_passes
    assert plain["metrics"]["ops_total"][0] > 0
    assert plain["metrics"]["checks_failed"][0] == len(plain["violated"])


def test_repeated_and_traced_passes_reproduce_the_trace(tiny_passes):
    _name, (plain, traced, again) = tiny_passes
    assert traced["digest"] == plain["digest"] == again["digest"]
    merged, unstable = run.aggregate([plain, again])
    assert unstable == []
    for name, triple in plain["metrics"].items():
        if not run.is_host(triple):
            assert traced["metrics"][name] == triple, name


def test_every_emitted_name_is_declared(tiny_passes):
    name, (plain, traced, _again) = tiny_passes
    for out, declared in ((plain, E2E), (traced, E2E | PER_LAYER)):
        emitted = set(out["metrics"]) | set(out["refused"])
        assert emitted - declared <= one_pass.REPORT_ONLY, name
    assert E2E <= set(plain["metrics"]) | set(plain["refused"])
    # trace.overhead_s needs the untraced baseline, so run.py adds it
    assert PER_LAYER - {"trace.overhead_s"} <= \
        set(traced["metrics"]) | set(traced["refused"])


def test_declarations_agree_with_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(PREDICTIONS) == PER_LAYER
    targets = E2E | one_pass.REPORT_ONLY
    for name, p in PREDICTIONS.items():
        assert set(p["moves"]) <= targets, name
        assert set(p["on"]) <= set(WORKLOADS), name
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"]
                                             for m in SPEC["end_to_end"])


def test_a_percentile_needs_ten_samples_beyond_it():
    assert one_pass.percentile(list(range(999)), 0.99) is None
    assert one_pass.percentile(list(range(1000)), 0.99) is not None
    assert one_pass.percentile(list(range(19)), 0.50) is None
    assert one_pass.percentile(list(range(20)), 0.50) == pytest.approx(9.5)
    rep = one_pass.Report()
    rep.pct_ms("x_p99_ms", [1] * 50, 0.99)
    assert rep.refused == ["x_p99_ms"] and "x_p99_ms" not in rep.metrics


def test_more_seeds_add_counts_and_average_the_rest():
    merged = {"run_s": [2.0, "s", 3], "ops_total": [10, "count", None],
              "txn_p50_ms": [100.0, "ms", 40]}
    others = [{"run_s": [9.0, "s", None], "ops_total": [12, "count", None],
               "txn_p50_ms": [120.0, "ms", 50]},
              {"run_s": [9.0, "s", None], "ops_total": [2, "count", None],
               "txn_p50_ms": [140.0, "ms", 10]}]
    run.pool(merged, others)
    assert merged == {"run_s": [2.0, "s", 3], "ops_total": [24, "count", None],
                      "txn_p50_ms": [120.0, "ms", 100]}


def test_a_refused_metric_is_not_printed():
    out = {"metrics": {"ops_total": [5, "count", None],
                       "ops_failed": [0, "count", None]},
           "refused": ["txn_p99_ms"], "violated": [], "unexpected": [],
           "unstable": [], "digests": ["d"], "passes": 3, "extra": "",
           "run_s_per_pass": [1.0, 1.0, 1.0], "correct": True}
    with pytest.raises(SystemExit):
        run.render("steady", 1, out, ["txn_p99_ms"])
