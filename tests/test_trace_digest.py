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
        "a1ec91807dbdff93e540b79a95f13208842a4c445d7e289675c286e477833f8a",
    "faults.yaml":
        "61c9bb8e3a33b619de22b3700ad5f164090814aab1861d3d9e512cc1fad3c5ab",
}

# The benchmark's workloads at seed 1, full size.
PINNED_WORKLOADS = {
    "steady":
        "fdabd436d539fe8a908be83c9bf52fdee042926806a529406f2a8233d00ebf94",
    "hot-rmw":
        "7a147971533b3d6f4cf7e2fcb03ae6a55c4fcd7ca361dd98a00d8939164a6b8a",
    "chaos":
        "ed5e44293ffb9659a4d0df0507c437df2d65d839487615b1db7d4c94c298c653",
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
