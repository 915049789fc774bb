"""Framing and codec round-trips, plus rejection of malformed input."""

import random
import struct
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alpir import (Answer, BitString, MessageStore, QueryVector, SystemParams,
                   answer, bits, layout_for_key_bits)
from alpir.netsim import (MAX_FRAME_BYTES, MSG_ANSWER, MSG_ERROR, MSG_HELLO,
                          MSG_QUERY, PROTOCOL_VERSION, WireError,
                          decode_answer, decode_error, decode_hello,
                          decode_query, encode_answer, encode_error,
                          encode_frame, encode_hello, encode_query,
                          memory_pair, parse_frame, read_frame)
from alpir.netsim.wire import answer_frame_bytes, query_frame_bytes


class TestFraming:
    def test_layout_of_encoded_frame(self):
        raw = encode_frame(MSG_HELLO, b"\x01")
        assert raw == b"\x00\x00\x00\x02\x01\x01"

    def test_empty_payload(self):
        frame = parse_frame(encode_frame(MSG_ERROR, b""))
        assert frame.msg_type == MSG_ERROR
        assert frame.payload == b""

    @given(st.sampled_from([MSG_HELLO, MSG_QUERY, MSG_ANSWER, MSG_ERROR]),
           st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, msg_type, payload):
        frame = parse_frame(encode_frame(msg_type, payload))
        assert frame.msg_type == msg_type
        assert frame.payload == payload

    def test_truncated_header(self):
        with pytest.raises(WireError):
            parse_frame(b"\x00\x00")

    def test_length_lies(self):
        raw = encode_frame(MSG_HELLO, b"\x01")
        with pytest.raises(WireError):
            parse_frame(raw[:-1])  # shorter than declared
        with pytest.raises(WireError):
            parse_frame(raw + b"\x00")  # longer than declared

    def test_zero_length_rejected(self):
        with pytest.raises(WireError):
            parse_frame(struct.pack(">I", 0))

    def test_oversize_rejected(self):
        header = struct.pack(">IB", MAX_FRAME_BYTES + 1, MSG_QUERY)
        with pytest.raises(WireError):
            parse_frame(header)
        with pytest.raises(WireError):
            encode_frame(MSG_QUERY, b"\x00" * MAX_FRAME_BYTES)

    def test_read_frame_from_connection(self):
        a, b = memory_pair()
        a.send(encode_frame(MSG_HELLO, b"\x01"))
        a.send(encode_frame(MSG_ERROR, b"\x00\x07hi"))
        first = read_frame(b)
        second = read_frame(b)
        assert first.msg_type == MSG_HELLO
        assert second.msg_type == MSG_ERROR
        a.close()
        assert read_frame(b) is None  # clean EOF between frames

    def test_read_frame_mid_frame_eof(self):
        a, b = memory_pair()
        a.send(encode_frame(MSG_HELLO, b"\x01")[:3])
        a.close()
        with pytest.raises(WireError):
            read_frame(b)

    @pytest.mark.parametrize("cut", [2, 4, 5, 13, 600, -1])
    def test_read_frame_byte_at_a_time(self, cut):
        """1-byte recv chunks give the same frame; EOF anywhere inside a
        frame, header or body, raises WireError. Small frames get a bytes
        payload and large ones a view; both decode alike."""
        wide = 8 * bits._PACKED_MIN_BYTES + 3
        for masked in (BitString((1 << wide) - 3, wide),
                       BitString((1 << 5600) - 3, 5600)):
            ans = Answer(masked, BitString(5, 3))
            raw = encode_answer(11, ans)
            whole = read_frame(Trickle(raw))
            assert whole.msg_type == MSG_ANSWER
            assert decode_answer(whole.payload) == (11, ans)
            assert read_frame(Trickle(b"")) is None
            with pytest.raises(WireError, match="mid-frame"):
                read_frame(Trickle(raw[:cut]))


class Trickle:
    """A connection that returns one byte per recv, then end of stream."""

    def __init__(self, data: bytes):
        self._data, self._at = data, 0

    def recv(self, max_n: int) -> bytes:
        out = self._data[self._at:self._at + 1]
        self._at += len(out)
        return out


class TestCodecs:
    def test_hello(self):
        assert decode_hello(b"\x01") == PROTOCOL_VERSION
        with pytest.raises(WireError):
            decode_hello(b"")
        with pytest.raises(WireError):
            decode_hello(b"\x01\x02")
        raw = encode_hello()
        assert parse_frame(raw).payload == b"\x01"

    @given(st.integers(0, 2 ** 64 - 1),
           st.lists(st.integers(0, 255), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_query_round_trip(self, session_id, indices):
        raw = encode_query(session_id, tuple(indices))
        assert len(raw) == query_frame_bytes(len(indices))
        sid, idx = decode_query(parse_frame(raw).payload)
        assert sid == session_id
        assert idx == tuple(indices)

    def test_query_encode_validation(self):
        for bad in ((256,), (0, -1)):
            with pytest.raises(ValueError, match="query index out of range"):
                encode_query(1, bad)
        for bad in ((), (0,) * 256):
            with pytest.raises(ValueError, match="length out of range"):
                encode_query(1, bad)

    def test_query_malformed(self):
        with pytest.raises(WireError):
            decode_query(b"\x00" * 8)  # missing count byte
        # count byte promises more indices than present
        bad = struct.pack(">QB", 1, 3) + b"\x00"
        with pytest.raises(WireError):
            decode_query(bad)
        good = struct.pack(">QB", 1, 1) + b"\x00"
        with pytest.raises(WireError):
            decode_query(good + b"\xff")  # trailing bytes

    @given(st.integers(0, 2 ** 64 - 1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_answer_round_trip(self, session_id, data):
        nb1 = data.draw(st.integers(0, 40))
        nb2 = data.draw(st.integers(0, 40))
        ans = Answer(
            BitString(data.draw(st.integers(0, 2 ** nb1 - 1)) if nb1 else 0,
                      nb1),
            BitString(data.draw(st.integers(0, 2 ** nb2 - 1)) if nb2 else 0,
                      nb2))
        raw = encode_answer(session_id, ans)
        assert len(raw) == answer_frame_bytes(nb1, nb2)
        sid, back = decode_answer(parse_frame(raw).payload)
        assert sid == session_id
        assert back == ans

    def test_answer_rejects_nonzero_padding(self):
        ans = Answer(BitString(0b1, 1), BitString(0, 0))
        payload = bytearray(parse_frame(encode_answer(7, ans)).payload)
        # masked part: 1 bit packed into one byte; flip a padding bit
        payload[12] |= 0x01
        with pytest.raises(WireError):
            decode_answer(bytes(payload))

    def test_wide_answer_rejects_nonzero_padding(self):
        """Wide parts are kept packed, unconverted; their pad bits are
        still checked."""
        nbits = 8 * bits._PACKED_MIN_BYTES + 5
        for part in ("masked", "open"):
            wide = BitString((1 << nbits) - 1, nbits)
            ans = (Answer(wide, BitString(0, 0)) if part == "masked"
                   else Answer(BitString(1, 1), wide))
            payload = bytearray(parse_frame(encode_answer(7, ans)).payload)
            assert decode_answer(bytes(payload)) == (7, ans)
            end = len(payload) if part == "open" else 12 + (nbits + 7) // 8
            payload[end - 1] |= 0x01
            with pytest.raises(WireError, match="padding"):
                decode_answer(bytes(payload))

    def test_answer_truncation(self):
        ans = Answer(BitString(0b101, 3), BitString(0b1, 2))
        payload = parse_frame(encode_answer(9, ans)).payload
        with pytest.raises(WireError):
            decode_answer(payload[:-1])
        with pytest.raises(WireError):
            decode_answer(payload + b"\x00")

    def test_error_round_trip(self):
        payload = parse_frame(encode_error(2, "bad query")).payload
        code, msg = decode_error(payload)
        assert code == 2
        assert msg == "bad query"

    def test_error_malformed(self):
        with pytest.raises(WireError):
            decode_error(b"\x00")
        with pytest.raises(WireError):
            decode_error(struct.pack(">H", 1) + b"\xff\xfe")  # bad utf-8


@contextmanager
def packed_from(nbytes):
    saved = bits._PACKED_MIN_BYTES
    bits._PACKED_MIN_BYTES = nbytes
    try:
        yield
    finally:
        bits._PACKED_MIN_BYTES = saved


def int_answer_frame(session_id, store, layout, indices):
    """The Answer frame of an int-only fold, built without BitString."""
    s, w = layout.masked_subpacket_bits, layout.open_subpacket_bits
    per_part = layout.subpackets_per_part
    masked, open_ = store.key.value, 0
    for msg, v in zip(store.messages, indices):
        if v:
            value, nbits = msg.value, msg.nbits
            masked ^= (value >> (nbits - v * s)) & ((1 << s) - 1)
            open_ ^= (value >> (nbits - per_part * s - v * w)) & (
                (1 << w) - 1)
    w = w if any(indices) else 0

    def part(value, nbits):
        pad = -nbits % 8
        return (struct.pack(">I", nbits)
                + (value << pad).to_bytes((nbits + 7) // 8, "big"))

    payload = (struct.pack(">Q", session_id) + part(masked, s)
               + part(open_, w))
    return struct.pack(">IB", 1 + len(payload), MSG_ANSWER) + payload


WIDE_BITS = 8 * bits._PACKED_MIN_BYTES
# Subpacket widths (bits per database part) on both sides of the
# crossover, byte-aligned or not.
sub_widths = st.one_of(st.integers(1, 64),
                       st.integers(WIDE_BITS - 12, WIDE_BITS + 12),
                       st.integers(WIDE_BITS, 3 * WIDE_BITS))


class TestAnswerFold:
    @pytest.mark.parametrize("crossover", [1, bits._PACKED_MIN_BYTES])
    @given(st.integers(2, 3), st.integers(2, 4), sub_widths, st.data())
    @settings(max_examples=60, deadline=None)
    def test_encode_answer_matches_int_fold(self, crossover, n, k, per_sub,
                                            data):
        """encode_answer(answer(...)) is byte-identical to an int fold,
        for key width 0, open width 0 and any alignment."""
        key_bits = data.draw(st.one_of(st.just(0), st.just(per_sub),
                                       st.integers(0, per_sub)))
        params = SystemParams(n, k, per_sub * (n - 1), 0.5, 0.1)
        layout = layout_for_key_bits(params, key_bits)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        with packed_from(crossover):
            store = MessageStore.random(params, layout, rng)
            for _ in range(3):
                indices = tuple(rng.randrange(n) for _ in range(k))
                got = encode_answer(9, answer(store, layout,
                                              QueryVector(indices)))
                assert got == int_answer_frame(9, store, layout, indices)
                sid, back = decode_answer(parse_frame(got).payload)
                assert back == answer(store, layout, QueryVector(indices))
