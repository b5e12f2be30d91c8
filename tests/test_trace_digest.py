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
from chronokv.scenario import read_scenario, scenario_from_dict

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

PINNED = {
    "baseline.yaml":
        "dd57e3b328bdec57b9ad177485df9abfd7f7676576e80c3791933946326d2205",
    "faults.yaml":
        "9721fce64a0cde2986106d5f189e3a83eea8430103e4b6f1cf4eae5402698eb6",
}

# The benchmark's workloads at seed 1, full size.
PINNED_WORKLOADS = {
    "steady":
        "5571e7cb02267b0d13cef28ea412821490f5be5ee3694ad48f7e27b188f9c11f",
    "hot-rmw":
        "687311a4a8e7eb4159a76612d11724ca6ef85a5f18e12655ba0bc34a533f0d58",
    "chaos":
        "9a84e742626b2e0e8cc35482e1a2ad6502005c764c7ea6d35a0221a409781de8",
}

# The same at seed 1009, the first seed of the held-out seed set.
PINNED_WORKLOADS_1009 = {
    "steady":
        "9d8f4287ad6bead1640b425290809c7142d1ea92638e3045ba4abffd60344878",
    "hot-rmw":
        "e7135ef48c5de7731c50c6020bd86941ad322f896bd802b972989fddc70087f4",
    "chaos":
        "ff69c1f86ab5273d93cb483aeeb96ff0b3b254f8e33f34dc8897ae17968f98aa",
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
    sc = scenario_from_dict(read_scenario(str(SCENARIOS / name)))
    result = Cluster(sc).run()
    assert trace_digest(tmp_path, result.trace) == PINNED[name]


def workload_digest(tmp_path, name: str, seed: int) -> str:
    sc = benchmark_workloads()[name].build(seed, False)
    return trace_digest(tmp_path, Cluster(sc).run().trace)


@pytest.mark.parametrize("name", sorted(PINNED_WORKLOADS))
def test_benchmark_workload_trace_digest_is_pinned(tmp_path, name):
    assert workload_digest(tmp_path, name, 1) == PINNED_WORKLOADS[name]


@pytest.mark.parametrize("name", sorted(PINNED_WORKLOADS_1009))
def test_benchmark_workload_trace_digest_is_pinned_at_seed_1009(tmp_path,
                                                                 name):
    assert (workload_digest(tmp_path, name, 1009)
            == PINNED_WORKLOADS_1009[name])
