"""Bit-string container and deterministic seed derivation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alpir import BitString, derive_seed, derived_rng

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
