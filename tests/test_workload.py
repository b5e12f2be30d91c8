"""Workload generator: determinism, mix shapes, key-popularity skew."""

from collections import Counter

import pytest
from oracles import bench_timestamp_service, generate

from chronokv.errors import InvalidConfig
from chronokv.scenario import WorkloadSpec
from chronokv.simnet import MS
from chronokv.workload import ZipfKeys


def test_generate_is_deterministic_in_spec_and_seed():
    spec = WorkloadSpec(kind="ycsb", keys=100, ops_per_txn=4)
    a = generate(spec, seed=42, count=200)
    b = generate(spec, seed=42, count=200)
    c = generate(spec, seed=43, count=200)
    assert a == b
    assert a != c


def test_blind_programs_contain_only_writes():
    spec = WorkloadSpec(kind="blind", keys=8, ops_per_txn=3, write_ratio=1.0)
    for prog in generate(spec, seed=1, count=100):
        assert len(prog) == 3
        assert all(op[0] == "w" for op in prog)


def test_ycsb_respects_the_write_ratio_roughly():
    spec = WorkloadSpec(kind="ycsb", keys=50, ops_per_txn=4, write_ratio=0.3)
    ops = [op for prog in generate(spec, seed=2, count=500) for op in prog]
    writes = sum(1 for op in ops if op[0] == "w")
    assert abs(writes / len(ops) - 0.3) < 0.05


def test_rmw_pairs_every_write_with_a_preceding_read_of_the_same_key():
    spec = WorkloadSpec(kind="rmw", keys=10, ops_per_txn=4)
    for prog in generate(spec, seed=3, count=50):
        for r, w in zip(prog[::2], prog[1::2]):
            assert r[0] == "r" and w[0] == "w"
            assert r[1] == w[1]


def test_slow_commit_holds_across_epochs():
    spec = WorkloadSpec(kind="slow_commit", keys=10, hold_intervals=3.2)
    interval = 100 * MS
    for prog in generate(spec, seed=4, count=20, interval_ns=interval):
        kinds = [op[0] for op in prog]
        assert kinds == ["w", "hold", "w"]
        hold_ns = prog[1][1]
        assert hold_ns == int(3.2 * interval)


def test_mix_contains_both_fast_and_slow_transactions():
    spec = WorkloadSpec(kind="mix", keys=10, slow_fraction=0.3)
    progs = generate(spec, seed=5, count=300)
    slow = sum(1 for p in progs if any(op[0] == "hold" for op in p))
    assert 0.2 < slow / len(progs) < 0.4


def test_written_values_are_globally_unique():
    spec = WorkloadSpec(kind="ycsb", keys=20, ops_per_txn=3, write_ratio=1.0)
    vals = [op[2] for prog in generate(spec, seed=6, count=400)
            for op in prog if op[0] == "w"]
    assert len(vals) == len(set(vals))


def test_zipf_theta_zero_is_close_to_uniform():
    z = ZipfKeys(10, 0.0)
    import random
    rng = random.Random(7)
    counts = Counter(z.sample(rng) for _ in range(20_000))
    assert len(counts) == 10
    for c in counts.values():
        assert abs(c - 2000) < 250


def test_zipf_high_theta_concentrates_on_the_hot_key():
    z = ZipfKeys(100, 1.2)
    import random
    rng = random.Random(8)
    counts = Counter(z.sample(rng) for _ in range(20_000))
    hottest = counts.most_common(1)[0]
    assert hottest[0] == "k00000"
    assert hottest[1] > 20_000 * 0.15


def test_generate_rejects_invalid_specs():
    with pytest.raises(InvalidConfig):
        generate(WorkloadSpec(kind="nope"), seed=1, count=1)
    with pytest.raises(InvalidConfig):
        generate(WorkloadSpec(write_ratio=1.5), seed=1, count=1)


def test_bench_timestamp_service_reports_batching_stats_in_both_modes():
    batched = bench_timestamp_service(seed=1, mode="batched", n=3000)
    strawman = bench_timestamp_service(seed=1, mode="strawman", n=200)
    assert batched["requests"] == 3000
    assert batched["served_local"] / batched["requests"] > 0.99
    assert strawman["served_local"] == 0
    assert strawman["fetches"] == strawman["requests"] == 200
    assert batched["commit_wait_ns"] > strawman["commit_wait_ns"]
