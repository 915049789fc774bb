"""Exact path draws: batched Mersenne-Twister reads against per-draw loops.

`sample_path` reads the words of K-1 rng.randrange(N) calls in batches.
The references below are the per-draw loops it replaces; the batch must
give the same values and leave the same generator state, on every
CPython the package supports.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from alpir import PathClass, sample_path, scheme
from alpir.scheme import PathChoice, PathDistribution

SEEDS = st.integers(min_value=0, max_value=2**128)


def loop_draws(n, m, rng):
    """The per-draw reference: m calls rng.randrange(n)."""
    return [rng.randrange(n) for _ in range(m)]


def loop_sample_path(dist, desired, rng):
    """`sample_path` with a randrange call per coordinate."""
    n, k = dist.n_databases, dist.n_messages
    base = [0] * k
    base[desired] = rng.randrange(n)
    if rng.random() < dist.low_total:
        return PathChoice(tuple(base), desired, PathClass.LOW)
    while True:
        others = loop_draws(n, k - 1, rng)
        if any(others):
            break
    it = iter(others)
    for j in range(k):
        if j != desired:
            base[j] = next(it)
    return PathChoice(tuple(base), desired, PathClass.HIGH)


def counting_randrange(monkeypatch):
    """Count rng.randrange calls on every exact random.Random."""
    calls = []
    inner = random.Random.randrange

    def randrange(self, *args):
        calls.append(args)
        return inner(self, *args)

    monkeypatch.setattr(random.Random, "randrange", randrange)
    return calls


class TestDrawBelow:
    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, n=st.integers(2, 255), m=st.integers(1, 254))
    def test_batch_matches_loop(self, seed, n, m):
        """The batch at every draw count, the crossover lowered to 1."""
        a, b = random.Random(seed), random.Random(seed)
        with mock.patch.object(scheme, "_BATCH_MIN_DRAWS", 1):
            got = scheme._draw_below(n, m, a)
        assert isinstance(got, bytes)
        assert list(got) == loop_draws(n, m, b)
        assert a.getstate() == b.getstate()

    def test_tables_match_randrange_rule(self):
        """A word w is kept iff w >> (32 - k) < n, k = n.bit_length()."""
        for n in range(2, 256):
            table, reject = scheme._top_byte_tables(n)
            k = n.bit_length()
            for top in range(256):
                w = top << 24 | 0xFFFFFF
                kept = w >> (32 - k) < n
                assert (top not in reject) == kept
                if kept:
                    assert table[top] == w >> (32 - k)


class TestSamplePathExact:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, n=st.integers(2, 255), k=st.integers(2, 255),
           desired=st.data(), low_total=st.floats(0.0, 1.0))
    def test_matches_loop(self, seed, n, k, desired, low_total):
        """Both classes, on both sides of the crossover: same path, same
        state afterwards."""
        dist = PathDistribution(n, k, low_total / n, 0.0)
        i = desired.draw(st.integers(0, k - 1))
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert sample_path(dist, i, a) == loop_sample_path(dist, i, b)
        assert a.getstate() == b.getstate()

    def test_high_cost_reads_in_batches(self, monkeypatch):
        calls = counting_randrange(monkeypatch)
        dist = PathDistribution(2, 255, 0.0, 1.0)
        assert sample_path(dist, 3, random.Random(1)).path_class is \
            PathClass.HIGH
        assert calls == [(2,)]          # the desired coordinate only

    def test_below_crossover_takes_loop(self, monkeypatch):
        """K-1 = 4 draws, as on every `audit` shape, stay per call."""
        calls = counting_randrange(monkeypatch)
        dist = PathDistribution(2, 5, 0.0, 1.0)
        rng = random.Random(2)
        sample_path(dist, 0, rng)
        assert len(calls) % 4 == 1 and len(calls) >= 5

    def test_n_above_255_takes_loop(self, monkeypatch):
        calls = counting_randrange(monkeypatch)
        dist = PathDistribution(300, 20, 0.0, 1.0)
        a = random.Random(3)
        choice = sample_path(dist, 5, a)
        assert len(calls) == 20
        monkeypatch.undo()
        b = random.Random(3)
        assert choice == loop_sample_path(dist, 5, b)
        assert a.getstate() == b.getstate()

    def test_subclass_takes_loop(self):
        """A subclass may draw differently, so it gets one randrange per
        coordinate, whatever it does with them."""
        class Counting(random.Random):
            calls = 0

            def randrange(self, *args):
                self.calls += 1
                return super().randrange(*args)

        dist = PathDistribution(2, 255, 0.0, 1.0)
        a = Counting(4)
        choice = sample_path(dist, 0, a)
        assert a.calls == 255
        b = random.Random(4)
        assert choice == loop_sample_path(dist, 0, b)
        assert a.getstate() == b.getstate()
