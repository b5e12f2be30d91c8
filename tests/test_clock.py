"""Oracle sampling: containment with exact width, strictly increasing
upper bounds, and adversarial placement of true time. Keeping batches
apart is the timestamp's tie-break (see test_tsbatch.py), not the
oracle's."""

import random

import pytest

from chronokv.clock import TTCOracle

EPS = 100_000


def fresh(seed=1, eps=EPS):
    return TTCOracle(0, eps, random.Random(seed))


def test_reading_contains_true_time_with_exact_width():
    core = fresh()
    t = 0
    rng = random.Random(99)
    for _ in range(2000):
        t += rng.randrange(12_000, 50_000)
        r = core.sample(t)
        assert r.earliest <= t <= r.latest
        assert r.latest - r.earliest == 2 * EPS


def test_latest_strictly_increases_even_when_time_stalls():
    core = fresh()
    prev = -1
    for _ in range(500):
        r = core.sample(1_000_000)  # true time frozen
        assert r.latest > prev
        prev = r.latest


def test_adversarial_skew_sweeps_the_whole_interval():
    # true time should land all over [earliest, latest], not pile up in the
    # middle: within 5000 draws it comes within 1% of each edge
    core = fresh(seed=5)
    t = 0
    gap_low = gap_high = 1 << 60
    for _ in range(5000):
        t += 300_000  # spaced out so monotonic bumps never mask the skew
        r = core.sample(t)
        gap_low = min(gap_low, t - r.earliest)
        gap_high = min(gap_high, r.latest - t)
    assert gap_low < 2 * EPS // 100
    assert gap_high < 2 * EPS // 100


def test_impossible_rate_raises_instead_of_lying():
    core = fresh(eps=10)  # tiny interval: bounds exhaust fast
    with pytest.raises(RuntimeError):
        for _ in range(100):
            core.sample(5)  # frozen true time, monotonic bumps must overrun

