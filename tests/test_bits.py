"""Bit-string container and deterministic seed derivation."""

import copy
import pickle
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alpir import BitString, bits, derive_seed, derived_rng
from alpir.scheme import Answer

bitstrings = st.integers(0, 60).flatmap(
    lambda n: st.builds(BitString,
                        st.integers(0, (1 << n) - 1) if n else st.just(0),
                        st.just(n)))


class TestBitString:
    def test_construction_bounds(self):
        BitString(0, 0)
        BitString(7, 3)
        with pytest.raises(ValueError):
            BitString(8, 3)
        with pytest.raises(ValueError):
            BitString(-1, 3)
        with pytest.raises(ValueError):
            BitString(0, -1)

    def test_zeros_and_random(self):
        z = BitString.zeros(5)
        assert z.value == 0 and z.nbits == 5
        r = BitString.random(64, random.Random(1))
        assert r == BitString.random(64, random.Random(1))
        assert r.nbits == 64

    def test_msb_first_bytes(self):
        b = BitString(0b101, 3)
        assert b.to_bytes() == b"\xa0"  # 101 padded with zeros on the right
        assert BitString.from_bytes(b"\xa0", 3) == b

    def test_from_bytes_rejects_dirty_padding(self):
        with pytest.raises(ValueError):
            BitString.from_bytes(b"\xa1", 3)
        with pytest.raises(ValueError):
            BitString.from_bytes(b"\xa0\x00", 3)
        with pytest.raises(ValueError):
            BitString.from_bytes(b"", 3)

    def test_zero_width(self):
        z = BitString.zeros(0)
        assert z.to_bytes() == b""
        assert BitString.from_bytes(b"", 0) == z
        assert z.to01() == ""

    @given(bitstrings)
    @settings(max_examples=200, deadline=None)
    def test_byte_round_trip(self, b):
        assert BitString.from_bytes(b.to_bytes(), b.nbits) == b

    @given(bitstrings)
    @settings(max_examples=100, deadline=None)
    def test_xor_laws(self, b):
        zero = BitString.zeros(b.nbits)
        assert b ^ b == zero
        assert b ^ zero == b
        # zero-width acts as a neutral element from either side
        assert b ^ BitString.zeros(0) == b
        assert BitString.zeros(0) ^ b == b

    def test_xor_width_mismatch(self):
        with pytest.raises(ValueError):
            BitString(1, 1) ^ BitString(1, 2)

    def test_slice_is_msb_anchored(self):
        b = BitString(0b10110, 5)
        assert b.slice(0, 2) == BitString(0b10, 2)
        assert b.slice(2, 3) == BitString(0b110, 3)
        with pytest.raises(ValueError):
            b.slice(3, 3)
        with pytest.raises(ValueError):
            b.slice(-1, 2)

    def test_join(self):
        parts = [BitString(0b10, 2), BitString.zeros(0), BitString(0b1, 1)]
        assert BitString.join(parts) == BitString(0b101, 3)
        assert BitString.join([]) == BitString.zeros(0)

    @given(bitstrings, st.integers(0, 59))
    @settings(max_examples=100, deadline=None)
    def test_slice_join_round_trip(self, b, cut):
        cut = min(cut, b.nbits)
        left, right = b.slice(0, cut), b.slice(cut, b.nbits - cut)
        assert BitString.join([left, right]) == b

    @given(bitstrings)
    @settings(max_examples=60, deadline=None)
    def test_slice_matches_string_slicing(self, b):
        text = b.to01()
        for start in range(b.nbits + 1):
            for n in range(b.nbits - start + 1):
                part = b.slice(start, n)
                assert part.nbits == n
                assert part.to01() == text[start:start + n]

    def test_to01(self):
        assert BitString(0b101, 3).to01() == "101"
        assert BitString(1, 4).to01() == "0001"


WIDE = 8 * bits._PACKED_MIN_BYTES      # first bit width worked on packed


@contextmanager
def packed_from(nbytes):
    """Work strings of at least `nbytes` bytes packed, for the block."""
    saved = bits._PACKED_MIN_BYTES
    bits._PACKED_MIN_BYTES = nbytes
    try:
        yield
    finally:
        bits._PACKED_MIN_BYTES = saved


def twins(value, nbits):
    """The same bits held as an int only and as packed bytes only."""
    as_int = BitString(value, nbits)
    pad = -nbits % 8
    packed = (value << pad).to_bytes((nbits + 7) // 8, "big")
    return as_int, BitString._of_packed(packed, nbits)


# Widths on both sides of the crossover, byte-aligned or not.
widths = st.one_of(st.integers(1, 70), st.integers(WIDE - 20, WIDE + 20),
                   st.integers(1, 3 * WIDE))


def ref_slice(value, nbits, start, n):
    return (value >> (nbits - start - n)) & ((1 << n) - 1)


class TestPackedForm:
    """Packed and int BitStrings are the same value in two forms; every
    operation must agree across them, at either side of the crossover."""

    @pytest.mark.parametrize("crossover", [1, bits._PACKED_MIN_BYTES])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_forms_agree(self, crossover, data):
        nbits = data.draw(widths)
        v = data.draw(st.integers(0, (1 << nbits) - 1))
        w = data.draw(st.integers(0, (1 << nbits) - 1))
        start = data.draw(st.integers(0, nbits))
        n = data.draw(st.integers(0, nbits - start))
        tail = data.draw(widths)
        t = data.draw(st.integers(0, (1 << tail) - 1))
        with packed_from(crossover):
            a, pa = twins(v, nbits)
            b, pb = twins(w, nbits)
            c, pc = twins(t, tail)
            assert pa.value == v and pa.nbits == nbits
            assert pa.to_bytes() == a.to_bytes()
            assert pa == a and a == pa and hash(pa) == hash(a)
            assert (pa == pb) == (v == w) and (pa != pb) == (v != w)
            for x, y in ((a, b), (pa, pb), (a, pb), (pa, b)):
                assert (x ^ y).value == v ^ w
                assert (x ^ y) == BitString(v ^ w, nbits)
                assert (x ^ y).to_bytes() == BitString(v ^ w,
                                                       nbits).to_bytes()
            for x in (a, pa):
                part = x.slice(start, n)
                assert part.nbits == n
                assert part.value == ref_slice(v, nbits, start, n)
                assert part.to_bytes() == BitString(part.value,
                                                    n).to_bytes()
            joined = (v << tail) | t
            for parts in ([a, c], [pa, pc], [a, pc], [pa, BitString(0, 0),
                                                     pc]):
                got = BitString.join(parts)
                assert got.nbits == nbits + tail
                assert got.value == joined
                assert got == BitString(joined, nbits + tail)
                assert got.to_bytes() == BitString(joined,
                                                   nbits + tail).to_bytes()

    def test_from_bytes_keeps_wide_bytes(self):
        data = bytes(range(256)) * 4
        got = BitString.from_bytes(data, 8 * len(data))
        assert got.to_bytes() is data
        assert got.value == int.from_bytes(data, "big")
        view = memoryview(data)
        assert BitString.from_bytes(view, 8 * len(data)) == got
        # A writable buffer is copied, so later writes cannot reach it.
        buf = bytearray(data)
        kept = BitString.from_bytes(buf, 8 * len(data))
        buf[0] ^= 0xFF
        assert kept == got

    def test_wide_dirty_padding_rejected(self):
        nbits = WIDE + 3
        clean = BitString((1 << nbits) - 1, nbits).to_bytes()
        assert BitString.from_bytes(clean, nbits).value == (1 << nbits) - 1
        dirty = clean[:-1] + bytes([clean[-1] | 0x01])
        with pytest.raises(ValueError, match="padding"):
            BitString.from_bytes(dirty, nbits)

    def test_random_wide_matches_int_draw(self):
        nbits = WIDE + 5
        got = BitString.random(nbits, random.Random(4))
        assert got.value == random.Random(4).getrandbits(nbits)

    def test_immutable(self):
        for b in twins(5, 3) + twins(5, WIDE):
            with pytest.raises(AttributeError):
                b.nbits = 4
            with pytest.raises(AttributeError):
                del b.nbits

    def test_copy_and_pickle_round_trip(self):
        narrow = twins(5, 3)
        wide = twins((1 << (WIDE + 3)) - 7, WIDE + 3)
        for b in narrow + wide:
            for got in (copy.copy(b), copy.deepcopy(b),
                        pickle.loads(pickle.dumps(b))):
                assert got == b and hash(got) == hash(b)
                assert got.value == b.value and got.nbits == b.nbits
                assert got.to_bytes() == b.to_bytes()
        ans = Answer(wide[1], narrow[1])
        for got in (copy.deepcopy(ans), pickle.loads(pickle.dumps(ans))):
            assert got == ans


class TestSeeding:
    def test_same_labels_same_stream(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        a = derived_rng(1, "a", 2).random()
        b = derived_rng(1, "a", 2).random()
        assert a == b

    def test_different_labels_different_streams(self):
        seen = {derive_seed(0, "x", i) for i in range(100)}
        assert len(seen) == 100
        assert derive_seed(0, "x") != derive_seed(0, "y")
        assert derive_seed(0, "x") != derive_seed(1, "x")

    def test_label_concatenation_is_unambiguous(self):
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")
