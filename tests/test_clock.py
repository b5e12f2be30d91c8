"""Oracle sampling: containment, monotonicity, and grid spacing."""

import random

import pytest

from chronokv.clock import TTCOracle

EPS = 100_000


def fresh(step_ns=10, ttl_ns=100_000, seed=1, eps=EPS):
    return TTCOracle(0, eps, random.Random(seed), step_ns=step_ns,
                     ttl_ns=ttl_ns)


def test_reading_contains_true_time_with_exact_width():
    core = fresh()
    t = 0
    rng = random.Random(99)
    for _ in range(2000):
        # stay under the grid's fetch-rate cap of step_ns per TTL window
        t += rng.randrange(12_000, 50_000)
        r = core.sample(t)
        assert r.earliest <= t <= r.latest
        assert r.latest - r.earliest == 2 * EPS


def test_latest_strictly_increases_even_when_time_stalls():
    core = fresh()
    prev = -1
    for _ in range(500):
        r = core.sample(1_000_000, grid=False)  # true time frozen
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


def test_grid_spacing_no_two_recent_latests_congruent():
    core = fresh(step_ns=10)
    t = 0
    recent = []
    for _ in range(400):
        t += 25_000  # four samples per TTL window
        r = core.sample(t)
        for v in recent:
            if r.latest - v < 100_000:
                assert (r.latest - v) % 10 != 0
        recent.append(r.latest)


def test_congruent_latests_allowed_once_ttl_apart():
    core = fresh(step_ns=10)
    a = core.sample(0)
    b = core.sample(10_000_000)  # 10ms later: far outside the TTL window
    # nothing forced them apart; equality of residues is permitted
    assert b.latest - a.latest >= 100_000


def test_more_fetches_than_grid_residues_in_one_ttl_is_an_error():
    core = fresh(step_ns=4, eps=100_000)
    with pytest.raises(RuntimeError):
        for _ in range(6):  # 5th/6th call cannot find a free residue mod 4
            core.sample(1_000_000)


class ScriptedSkew:
    """Stands in for the oracle's rng: hands out the given skews in order."""

    def __init__(self, skews):
        self.skews = list(skews)

    def randrange(self, lo, hi):
        skew = self.skews.pop(0)
        assert lo <= skew < hi
        return skew


def test_reading_drawn_at_the_window_top_wraps_to_a_free_residue():
    t = 1_000_000
    # nine readings occupy residues 0..8 at t+150_000 .. t+150_008
    skews = [2 * EPS - 150_000 - r for r in range(9)]
    core = TTCOracle(0, EPS, ScriptedSkew(skews + [0]), step_ns=10,
                     ttl_ns=100_000)
    for r in range(9):
        assert core.sample(t).latest == t + 150_000 + r
    # drawn at the very top, t + 2*eps, whose residue 0 is taken; bumping
    # upward would leave the window, while residue 9 is free lower down
    r = core.sample(t)
    assert r.latest == t + 150_009
    assert r.latest % 10 == 9
    assert r.earliest <= t <= r.latest
    assert r.latest - r.earliest == 2 * EPS


def test_non_grid_sampling_skips_residue_tracking():
    core = fresh(step_ns=4)
    # a strawman-style client may fetch as fast as it likes
    for _ in range(50):
        r = core.sample(2_000_000, grid=False)
    assert core._recent == []
    assert r.latest > 2_000_000 - 1


def test_impossible_rate_raises_instead_of_lying():
    core = fresh(eps=10, step_ns=1)  # tiny interval: bounds exhaust fast
    with pytest.raises(RuntimeError):
        for _ in range(100):
            core.sample(5)  # frozen true time, monotonic bumps must overrun

