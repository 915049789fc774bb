"""Exact path draws: inlined and batched Mersenne-Twister reads against
per-draw loops.

`sample_bases` reads the words of each rng.randrange(N) call itself, and
those of K-1 such calls in batches. The references below are the
randrange loops it replaces; it must give the same values and leave the
same generator state, on every CPython the package supports.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alpir import PathClass, sample_path, scheme
from alpir.scheme import PathChoice, PathDistribution, sample_bases

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


def counting_getrandbits(monkeypatch):
    """The width of every rng.getrandbits call on every exact
    random.Random, randrange's own calls included."""
    widths = []
    inner = random.Random.getrandbits

    def getrandbits(self, k):
        widths.append(k)
        return inner(self, k)

    monkeypatch.setattr(random.Random, "getrandbits", getrandbits)
    return widths


def loop_reads(monkeypatch, dist, desired, seed):
    """`loop_sample_path`'s path, getrandbits widths and final state."""
    widths = counting_getrandbits(monkeypatch)
    rng = random.Random(seed)
    choice = loop_sample_path(dist, desired, rng)
    monkeypatch.undo()
    return choice, widths, rng.getstate()


class TestDrawBelow:
    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, n=st.integers(2, 255), m=st.integers(1, 254))
    def test_batch_matches_loop(self, seed, n, m):
        """The batch at every draw count, below the crossover too."""
        a, b = random.Random(seed), random.Random(seed)
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
        widths = counting_getrandbits(monkeypatch)
        dist = PathDistribution(2, 255, 0.0, 1.0)
        assert sample_path(dist, 3, random.Random(1)).path_class is \
            PathClass.HIGH
        batch = widths.index(32 * 254)
        assert set(widths[:batch]) == {2}   # the desired coordinate only
        assert all(w % 32 == 0 for w in widths[batch:])

    def test_below_crossover_takes_loop(self, monkeypatch):
        """K-1 = 4 draws, as on every `audit` shape, read one word each,
        as randrange reads them."""
        dist = PathDistribution(2, 5, 0.0, 1.0)
        path, want, state = loop_reads(monkeypatch, dist, 0, 2)
        widths = counting_getrandbits(monkeypatch)
        a = random.Random(2)
        assert sample_path(dist, 0, a) == path
        assert widths == want and set(widths) == {2} and len(widths) >= 5
        assert a.getstate() == state

    def test_n_above_255_takes_loop(self, monkeypatch):
        dist = PathDistribution(300, 20, 0.0, 1.0)
        path, want, state = loop_reads(monkeypatch, dist, 5, 3)
        widths = counting_getrandbits(monkeypatch)
        a = random.Random(3)
        assert sample_path(dist, 5, a) == path
        assert widths == want and set(widths) == {9} and len(widths) >= 20
        assert a.getstate() == state

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


class TestSampleBases:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, n=st.integers(2, 300), k=st.integers(2, 40),
           data=st.data(), low_total=st.floats(0.0, 1.0))
    def test_matches_loop(self, seed, n, k, data, low_total):
        """Many paths from one generator, desired indices mixed: the
        same paths as one `loop_sample_path` each, and the same state."""
        desired = data.draw(st.lists(st.integers(0, k - 1), max_size=12))
        dist = PathDistribution(n, k, low_total / n, 0.0)
        a, b = random.Random(seed), random.Random(seed)
        got = list(sample_bases(dist, desired, a))
        want = [loop_sample_path(dist, i, b) for i in desired]
        assert got == [(c.base, c.path_class is PathClass.LOW) for c in want]
        assert a.getstate() == b.getstate()

    def test_bad_index_stops_before_its_draws(self):
        dist = PathDistribution(3, 4, 0.1, 0.05)
        a, b = random.Random(6), random.Random(6)
        paths = sample_bases(dist, (1, 4, 2), a)
        assert next(paths) == next(sample_bases(dist, (1,), b))
        with pytest.raises(ValueError, match="out of range"):
            next(paths)
        assert a.getstate() == b.getstate()
