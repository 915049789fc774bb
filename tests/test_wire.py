"""Framing and codec round-trips, plus rejection of malformed input."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alpir import Answer, BitString
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
