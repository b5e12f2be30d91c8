"""The trace of each shipped scenario, pinned by its SHA-256.

A run is a pure function of its scenario and seed, so a change that only
restructures code must leave every trace byte-identical. The digest
covers the JSONL event lines ``write_trace`` writes below its header; the
header itself carries run metadata and is left out. A change that alters
the trace on purpose re-pins the digests and says why.
"""

import hashlib
from pathlib import Path

import pytest

from chronokv.cluster import Cluster
from chronokv.history import write_trace
from chronokv.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

PINNED = {
    "baseline.yaml":
        "05cd7fe9297a82810a7e576cc7ae7612d481439b1939a222cb18fe5300b61020",
    "faults.yaml":
        "8da4c62493936bf3a5f07c95294e5664aac53f60301560b4ae0df909fcf5569d",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_digest_is_pinned(tmp_path, name):
    result = Cluster(load_scenario(str(SCENARIOS / name))).run()
    path = tmp_path / "run.trace"
    write_trace(str(path), result.trace)
    with open(path, "rb") as src:
        src.readline()  # header
        digest = hashlib.sha256(src.read()).hexdigest()
    assert digest == PINNED[name]
