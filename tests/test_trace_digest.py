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
        "5d850cf7d85308a39b9c82cfd3493b035c5c552b53463033baf537d8adaba66d",
    "faults.yaml":
        "6f8c797529a51a4cf2134aee7dd2fdb31dea13a177fd8b503915581f11fcbcaf",
}

# The benchmark's workloads at seed 1, full size.
PINNED_WORKLOADS = {
    "steady":
        "c37c8b110d5ccdc00794f26d32572391934f3451623464fb9fd671f4064b4972",
    "hot-rmw":
        "0ecb776eb97d23b149c553193985ad1222a2a9ff8ea4e557a275e95d5494221f",
    "chaos":
        "4c533af53dc1367f4bd9c2932039e6cf2b9dcb143faf0658d52fca700273fd50",
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
