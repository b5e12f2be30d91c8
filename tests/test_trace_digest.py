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
        "f31e056dadc0d95ba40aaf7f802aa0c8deeb34238d78ef20261e7e0ee4efbf44",
    "faults.yaml":
        "0ef0beed0dcc0c96c9130c80cdbf4cde457f42b558029fa2e48cb7e48d29074a",
}

# The benchmark's workloads at seed 1, full size.
PINNED_WORKLOADS = {
    "steady":
        "138e6fcef3ef92c8f02a76208dfd430fb7aad986fad3c261238edfa0f8ea02af",
    "hot-rmw":
        "6305c37f3b0cc078d40e11f6c753f55cc519ba4c4ff6ed3f107f8af67a904bba",
    "chaos":
        "f51f29d173b2bd1726b12c48757a1cbc460514e0e5660dfd0c95e0e16aa412a8",
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
