"""The trace of each shipped scenario and benchmark workload, pinned by
its SHA-256.

A run is a pure function of its scenario and seed, so a change that only
restructures code must leave every trace byte-identical. The digest
covers the JSONL event lines ``write_trace`` writes below its header; the
header itself carries run metadata and is left out. A change that alters
the trace on purpose re-pins the digests and says why.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from chronokv.cluster import Cluster
from chronokv.history import write_trace
from chronokv.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

PINNED = {
    "baseline.yaml":
        "28ff9399aa1fe477bfbc4bf1e5c347591d6d7af5deb96738b316cf3416c47ab7",
    "faults.yaml":
        "ebec5d7025ed0a0633df42cd6aa8894c7bd0f60591bf92a2b34d9405cc007ec7",
}

# The benchmark's workloads at seed 1, full size.
PINNED_WORKLOADS = {
    "steady":
        "2f7a9c5069e3835a64f0a6e0a18a1230963972eb0f918347f7d8bd3df1796de2",
    "hot-rmw":
        "ebd0f91b45a304c2266cca103747b0c2b88c5c6e84e6b4d4f32464e2ecc972d6",
    "chaos":
        "069612d066f6d795ffbc6a40d7d125261b28d21b4cd0ccb351a3e7e4464a28b6",
}


def trace_digest(tmp_path, events) -> str:
    path = tmp_path / "run.trace"
    write_trace(str(path), events)
    with open(path, "rb") as src:
        src.readline()  # header
        return hashlib.sha256(src.read()).hexdigest()


def benchmark_workloads() -> dict:
    """``perfbench/workloads.py``'s WORKLOADS, loaded by path: the
    benchmark is a directory of scripts, not a package."""
    name = "perfbench_workloads"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_digest_is_pinned(tmp_path, name):
    result = Cluster(load_scenario(str(SCENARIOS / name))).run()
    assert trace_digest(tmp_path, result.trace) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED_WORKLOADS))
def test_benchmark_workload_trace_digest_is_pinned(tmp_path, name):
    sc = benchmark_workloads()[name].build(1, False)
    result = Cluster(sc).run()
    assert trace_digest(tmp_path, result.trace) == PINNED_WORKLOADS[name]
