"""The benchmark's named workloads, built from a seed.

Every workload uses the default five-region round-trip table and is a
closed loop: each client starts its next transaction only after the
previous one ended, with no think time, so a slower protocol receives
less load rather than a growing queue. Sizes are fixed here; the seed is
the only input that varies between runs.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and refuses any ``chronokv`` that does not live there, so
the benchmark always measures the tree it sits in.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import chronokv  # noqa: E402

if Path(chronokv.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"chronokv imported from {chronokv.__file__}, not {SRC}")

from chronokv.scenario import Scenario, WorkloadSpec  # noqa: E402
from chronokv.simnet import (  # noqa: E402
    CrashDirective,
    FaultSchedule,
    OracleOutage,
    PartitionWindow,
    TakeoverDirective,
)

MS = 1_000_000
SEC = 1_000 * MS

YCSB = dict(kind="ycsb", keys=1000, ops_per_txn=3, write_ratio=0.5,
            zipf_theta=0.8)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str            # why the workload is in the benchmark
    idle: str           # layers it leaves without work
    no_change: str      # what a change should leave unmoved here
    default_seed: int
    held_out_seed: int  # for confirming a claim; never used while tuning
    # properties the program is known to violate on this workload; they
    # are still counted and named in every report
    known_violations: frozenset
    build: object       # (seed, tiny) -> Scenario


def _steady(seed: int, tiny: bool) -> Scenario:
    return Scenario(
        name="steady", seed=seed, duration_ms=200_000, drift_spread=True,
        replicate_to=["SG"],
        clients_per_coordinator=1 if tiny else 2,
        txns_per_client=4 if tiny else 300,
        replica_readers=1 if tiny else 5,
        replica_reads_per_reader=4 if tiny else 200,
        replica_read_mode="mixed",
        workload=WorkloadSpec(**YCSB),
    )


def _hot_rmw(seed: int, tiny: bool) -> Scenario:
    # ops_per_txn counts reads and writes: 4 ops are 2 read-modify-write
    # pairs, so no transaction issues two writes back to back.
    return Scenario(
        name="hot-rmw", seed=seed, duration_ms=200_000, drift_spread=True,
        clients_per_coordinator=1 if tiny else 4,
        txns_per_client=4 if tiny else 150,
        workload=WorkloadSpec(kind="rmw", keys=256, ops_per_txn=4,
                              zipf_theta=0.9),
    )


def _chaos(seed: int, tiny: bool) -> Scenario:
    fs = FaultSchedule(drop_prob=0.01, reorder_prob=0.05)
    fs.crashes.append(CrashDirective(
        node="c1.BJ", at_ns=20 * SEC, restart_at_ns=25 * SEC))
    fs.takeovers.append(TakeoverDirective(
        role="rec/d0.SH", to_node="s0.SH", at_ns=40 * SEC))
    fs.partitions.append(PartitionWindow(
        regions=frozenset({"SG"}), start_ns=30 * SEC, end_ns=32 * SEC))
    # While GZ's oracle is out, each GZ client fails its transactions at
    # begin, one after another, until its quota is spent; at 15 s that
    # is about half of GZ's work, a count that barely moves with the seed.
    fs.oracle_outages.append(OracleOutage(
        server_id=2, start_ns=15 * SEC, end_ns=15 * SEC + 400 * MS))  # GZ
    return Scenario(
        name="chaos", seed=seed, duration_ms=200_000, drift_spread=True,
        standbys=["SH"], replicate_to=["SG"],
        clients_per_coordinator=1 if tiny else 2,
        txns_per_client=4 if tiny else 260,
        replica_readers=1 if tiny else 5,
        replica_reads_per_reader=4 if tiny else 200,
        replica_read_mode="mixed",
        workload=WorkloadSpec(**YCSB),
        faults=fs,
    )


WORKLOADS = {w.name: w for w in (
    Workload(
        name="steady",
        why="the paper's normal geo-distributed case: YCSB at low "
            "contention with replication and fresh and stale replica "
            "reads busy",
        idle="no faults: Network.send never meets a partition, drop or "
             "filter, and no oracle errors, fences or catch-up repairs",
        no_change="tsbatch.local_ratio is about 0 (acquires sit far more "
                  "than one 100 us TTL apart), so batch sharing should "
                  "move nothing end to end",
        default_seed=1, held_out_seed=1009,
        known_violations=frozenset(),
        build=_steady,
    ),
    Workload(
        name="hot-rmw",
        why="the contention case: read-modify-write on 256 zipf-0.9 keys "
            "with about 35% rt_conflict aborts and thousands of push "
            "waits",
        idle="no replicas: log shipping, catch-ups and replica reads do "
             "no work, so no visibility or replica-read metrics exist",
        no_change="no transaction has two consecutive writes, so write "
                  "pipelining should move nothing here",
        default_seed=1, held_out_seed=1009,
        known_violations=frozenset(),
        build=_hot_rmw,
    ),
    Workload(
        name="chaos",
        why="faults: drops, reorders, a coordinator crash, a recorder "
            "takeover, a 2 s SG partition and a 400 ms GZ oracle outage "
            "drive retries, fencing, catch-ups and the recorder sweep",
        idle="nothing is idle; it is the only workload where "
             "Network.send scans partition windows",
        no_change="a no-fault fast path in Network.send should move "
                  "nothing here",
        default_seed=1, held_out_seed=1009,
        # Transaction and replica reads can observe writes of c1.BJ
        # transactions that were in flight when it crashed; their
        # timestamps never reached the trace (the trace gap in ROADMAP.md,
        # item 1). Counted in checks_failed and named in every report.
        known_violations=frozenset({"strict-serializability",
                                    "replica-reads"}),
        build=_chaos,
    ),
)}
