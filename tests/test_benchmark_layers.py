"""The benchmark's per-layer report is complete on every workload.

``perfbench/one_pass.py`` refuses a percentile with fewer than ten
samples beyond it, and ``perfbench/run.py --trace 1`` then stops with
"metrics not measured". A change that makes some span rare (a phase
that most transactions now skip) breaks the report that way, so each
workload's traced pass, at its default seed and full size, must measure
every per-layer metric ``BENCHMARK.json`` declares.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The benchmark is a directory of scripts that import each other by
# their bare names, as they do when run from it.
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))
one_pass = importlib.import_module("one_pass")
WORKLOADS = importlib.import_module("workloads").WORKLOADS

PER_LAYER = {m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_traced_pass_measures_every_per_layer_metric(name):
    out = one_pass.run_pass(name, WORKLOADS[name].default_seed, traced=True)
    assert sorted(PER_LAYER & set(out["refused"])) == []
