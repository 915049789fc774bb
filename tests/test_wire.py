"""Framing and codec round-trips, plus rejection of malformed input."""

import random
import struct
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alpir import (Answer, BitString, MessageStore, QueryVector, SystemParams,
                   answer, bits, layout_for_key_bits)
from alpir.netsim import (ERR_BAD_QUERY, ERR_MALFORMED, ERR_UNKNOWN_TYPE,
                          MAX_FRAME_BYTES, MSG_ANSWER, MSG_ERROR, MSG_HELLO,
                          MSG_QUERY, PROTOCOL_VERSION, SessionError, WireError,
                          decode_answer, decode_error, decode_hello,
                          decode_query, encode_answer, encode_error,
                          encode_frame, encode_hello, encode_query,
                          memory_pair, parse_frame, read_frame,
                          serve_connection)
from alpir.netsim.wire import (answer_frame, answer_frame_bytes,
                               query_frame_bytes, read_answer)


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


    @pytest.mark.parametrize("conn", ["recv", "recv_into"])
    def test_read_wide_frame_byte_at_a_time(self, conn):
        """A wide frame arriving one byte per call reads whole, whether the
        connection has only recv or also recv_into; an end of stream in
        its body raises WireError, and a dirty pad bit in either part is
        still rejected on decode."""
        fake = Trickle if conn == "recv" else TrickleInto
        wide = 8 * bits._PACKED_MIN_BYTES + 5
        ans = Answer(BitString((1 << wide) - 3, wide),
                     BitString((1 << (wide + 6)) // 3, wide + 6))
        raw = encode_answer(11, ans)
        whole = read_frame(fake(raw))
        assert whole.msg_type == MSG_ANSWER
        assert decode_answer(whole.payload) == (11, ans)
        for cut in (6, 17 + (wide + 7) // 8, len(raw) // 2, len(raw) - 1):
            with pytest.raises(WireError, match="mid-frame"):
                read_frame(fake(raw[:cut]))
        for end in (17 + (wide + 7) // 8, len(raw)):
            dirty = bytearray(raw)
            dirty[end - 1] |= 0x01
            frame = read_frame(fake(bytes(dirty)))
            with pytest.raises(WireError, match="padding"):
                decode_answer(frame.payload)

    def test_wide_bodies_are_read_into_one_buffer(self):
        """recv_into, where a connection has it, reads wide bodies; the
        header and narrow frames go through recv, and the payload is a
        read-only view that BitString keeps uncopied."""
        wide = 8 * bits._PACKED_MIN_BYTES
        for nbits in (wide, wide - 160):
            ans = Answer(BitString(1, nbits), BitString(0, 0))
            raw = encode_answer(3, ans)
            conn = CountingTrickle(raw)
            frame = read_frame(conn)
            assert decode_answer(frame.payload) == (3, ans)
            if nbits == wide:
                assert (conn.recv_calls, conn.into_calls) == (4, len(raw) - 4)
                assert frame.payload.readonly
                masked = decode_answer(frame.payload)[1].masked
                assert masked._buffer().obj is frame.payload.obj
            else:
                assert (conn.recv_calls, conn.into_calls) == (len(raw), 0)


class Trickle:
    """A connection that returns one byte per recv, then end of stream."""

    def __init__(self, data: bytes):
        self._data, self._at = data, 0

    def recv(self, max_n: int) -> bytes:
        out = self._data[self._at:self._at + 1]
        self._at += len(out)
        return out


class TrickleInto(Trickle):
    """A Trickle whose recv_into also fills one byte per call."""

    def recv_into(self, buffer) -> int:
        out = self.recv(1)
        buffer[:len(out)] = out
        return len(out)


class CountingTrickle(TrickleInto):
    """A TrickleInto that counts the recv and recv_into calls made."""

    recv_calls = into_calls = 0

    def recv(self, max_n: int) -> bytes:
        self.recv_calls += 1
        return super().recv(max_n)

    def recv_into(self, buffer) -> int:
        self.into_calls += 1
        self.recv_calls -= 1        # TrickleInto reads through recv
        return super().recv_into(buffer)


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

    @pytest.mark.parametrize("crossover", [1, bits._PACKED_MIN_BYTES])
    @given(st.integers(2, 3), st.integers(2, 4), sub_widths, st.data())
    @settings(max_examples=40, deadline=None)
    def test_served_frames_match_int_fold(self, crossover, n, k, per_sub,
                                          data):
        """Every byte serve_connection sends is an int fold's Answer
        frame: wide and narrow parts, any alignment, key width 0, open
        width 0 and the all-zero query."""
        key_bits = data.draw(st.one_of(st.just(0), st.just(per_sub),
                                       st.integers(0, per_sub)))
        params = SystemParams(n, k, per_sub * (n - 1), 0.5, 0.1)
        layout = layout_for_key_bits(params, key_bits)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        queries = [(0,) * k, (n - 1,) * k] + [
            tuple(rng.randrange(n) for _ in range(k)) for _ in range(3)]
        with packed_from(crossover):
            store = MessageStore.random(params, layout, rng)
            client, server = memory_pair()
            thread = threading.Thread(target=serve_connection,
                                      args=(0, store, layout, server))
            thread.start()
            try:
                for sid, indices in enumerate(queries):
                    client.send(encode_query(sid, indices))
                for sid, indices in enumerate(queries):
                    want = int_answer_frame(sid, store, layout, indices)
                    assert recv_exactly(client, len(want)) == want
            finally:
                client.close()
                thread.join(5)
        assert not thread.is_alive()
        assert client.recv(1) == b""

    @pytest.mark.parametrize("crossover", [1, bits._PACKED_MIN_BYTES])
    @given(st.integers(2, 3), st.integers(2, 4), sub_widths, st.data())
    @settings(max_examples=40, deadline=None)
    def test_answer_frame_matches_int_fold(self, crossover, n, k, per_sub,
                                           data):
        """answer_frame is total: narrow and wide layouts alike give the
        int fold's frame. answer's `into` arrays hold exactly the parts it
        returns."""
        key_bits = data.draw(st.one_of(st.just(0), st.just(per_sub),
                                       st.integers(0, per_sub)))
        params = SystemParams(n, k, per_sub * (n - 1), 0.5, 0.1)
        layout = layout_for_key_bits(params, key_bits)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        with packed_from(crossover):
            store = MessageStore.random(params, layout, rng)
            for indices in [(0,) * k] + [
                    tuple(rng.randrange(n) for _ in range(k))
                    for _ in range(3)]:
                frame = answer_frame(5, store, layout, QueryVector(indices))
                assert bytes(frame) == int_answer_frame(5, store, layout,
                                                        indices)
                outs = []

                def into(masked_bits, open_bits):
                    outs.extend(np.empty((b + 7) // 8, np.uint8)
                                for b in (masked_bits, open_bits))
                    return outs

                got = answer(store, layout, QueryVector(indices), into)
                ans = answer(store, layout, QueryVector(indices))
                assert got == ans
                assert [bytes(a) for a in outs] == [ans.masked.to_bytes(),
                                                    ans.open.to_bytes()]

    def test_answer_frame_validates_before_allocating(self):
        params = SystemParams(2, 2, 16, 0.5, 0.1)
        layout = layout_for_key_bits(params, 4)
        store = MessageStore.random(params, layout, random.Random(0))
        for bad in ((0, 3), (0,)):
            with pytest.raises(ValueError, match="query"):
                answer(store, layout, QueryVector(bad),
                       lambda m, o: pytest.fail("allocated"))
        with pytest.raises(ValueError, match="session_id"):
            answer_frame(1 << 64, store, layout, QueryVector((1, 0)))


def recv_exactly(conn, n: int) -> bytes:
    """n bytes off a connection, however they are chunked."""
    out = b""
    while len(out) < n:
        chunk = conn.recv(n - len(out))
        assert chunk, "stream ended early"
        out += bytes(chunk)
    return out


class Recorder(Trickle):
    """A Trickle that keeps what is sent to it."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.sent = []

    def send(self, data) -> None:
        self.sent.append(bytes(data))

    def close(self) -> None:
        pass


def general_read_answer(conn, session_id, masked_bits, open_bits):
    """A session's answer read through read_frame, the type checks,
    decode_answer and the width check alone: the general path that
    read_answer's fixed-shape parse must agree with."""
    try:
        frame = read_frame(conn)
    except OSError as exc:
        raise SessionError(f"read failed: {exc}") from None
    if frame is None:
        raise SessionError("connection closed mid-session")
    if frame.msg_type == MSG_ERROR:
        code, text = decode_error(frame.payload)
        raise SessionError(f"server error {code}: {text}")
    if frame.msg_type != MSG_ANSWER:
        raise SessionError(f"unexpected frame type {frame.msg_type:#x}")
    sid, ans = decode_answer(frame.payload)
    if sid != session_id:
        raise SessionError("answer for a different session")
    if ans.masked.nbits != masked_bits or ans.open.nbits != open_bits:
        raise SessionError("answer part widths do not match layout")
    return ans


def general_serve(store, layout, conn) -> bytes:
    """Every byte a server sends when each frame goes through read_frame
    and the decoders, and each answer through encode_answer(answer(...))."""
    out = []
    while True:
        try:
            frame = read_frame(conn)
        except WireError as exc:
            out.append(encode_error(ERR_MALFORMED, str(exc)))
            return b"".join(out)
        if frame is None:
            return b"".join(out)
        if frame.msg_type == MSG_HELLO:
            try:
                decode_hello(frame.payload)
                out.append(encode_hello())
            except WireError as exc:
                out.append(encode_error(ERR_MALFORMED, str(exc)))
        elif frame.msg_type == MSG_QUERY:
            try:
                sid, indices = decode_query(frame.payload)
            except WireError as exc:
                out.append(encode_error(ERR_MALFORMED, str(exc)))
                continue
            try:
                out.append(encode_answer(sid, answer(store, layout,
                                                     QueryVector(indices))))
            except ValueError:
                out.append(encode_error(ERR_BAD_QUERY,
                                        "query vector out of range"))
        else:
            out.append(encode_error(
                ERR_UNKNOWN_TYPE, f"unknown message type {frame.msg_type:#x}"))


def outcome(fn, *args):
    """fn's result, or the type and text of the SessionError or WireError
    it raised."""
    try:
        return fn(*args)
    except (SessionError, WireError) as exc:
        return type(exc), str(exc)


@st.composite
def narrow_stores(draw):
    """(store, layout, indices) for N 2-5 and K 2-255, with key width 0,
    open width 0 or both nonzero; indices may be all zero."""
    n, k = draw(st.integers(2, 5)), draw(st.integers(2, 255))
    per_sub = draw(st.integers(1, 24))
    key_bits = draw(st.one_of(st.just(0), st.just(per_sub),
                              st.integers(0, per_sub)))
    params = SystemParams(n, k, per_sub * (n - 1), 0.5, 0.1)
    layout = layout_for_key_bits(params, key_bits)
    store = MessageStore.random(params, layout,
                                random.Random(draw(st.integers(0, 2 ** 32))))
    indices = draw(st.one_of(
        st.just((0,) * k),
        st.lists(st.integers(0, n - 1), min_size=k, max_size=k).map(tuple)))
    return store, layout, indices


ANSWER_MUTATIONS = ("none", "type", "session", "masked-width", "open-width",
                    "expect-other-open", "length", "pad", "truncate", "eof",
                    "error")
QUERY_MUTATIONS = ("none", "type", "count", "length", "index", "truncate",
                   "hello", "zero-length", "oversize")


class TestFixedShapeFrames:
    """The fixed-shape parse of read_answer and read_query agrees with
    the general path (read_frame and the decoders) on well-formed and
    damaged frames, read one byte per recv."""

    @given(narrow_stores(), st.sampled_from(ANSWER_MUTATIONS), st.data())
    @settings(max_examples=300, deadline=None)
    def test_read_answer_agrees_with_general_path(self, shape, mutation,
                                                  data):
        store, layout, indices = shape
        sid = data.draw(st.integers(0, 2 ** 64 - 1))
        s = layout.key_bits
        w = layout.open_subpacket_bits if any(indices) else 0
        frame = bytearray(answer_frame(sid, store, layout,
                                       QueryVector(indices)))
        assert bytes(frame) == encode_answer(
            sid, answer(store, layout, QueryVector(indices)))
        mb = (s + 7) // 8
        if mutation == "type":
            frame[4] = data.draw(st.sampled_from(
                [MSG_HELLO, MSG_QUERY, MSG_ERROR, 0x00, 0x7F]))
        elif mutation == "session":
            frame[5 + data.draw(st.integers(0, 7))] ^= 1 << data.draw(
                st.integers(0, 7))
        elif mutation == "masked-width":
            struct.pack_into(">I", frame, 13, s ^ data.draw(
                st.integers(1, 64)))
        elif mutation == "open-width":
            struct.pack_into(">I", frame, 17 + mb, w ^ data.draw(
                st.integers(1, 64)))
        elif mutation == "expect-other-open":
            w = layout.open_subpacket_bits if not w else 0
        elif mutation == "length":
            struct.pack_into(">I", frame, 0, data.draw(st.one_of(
                st.integers(0, len(frame) + 8), st.just(MAX_FRAME_BYTES + 1))))
        elif mutation == "pad":
            ends = [at for at, nbits in ((17 + mb, s), (len(frame), w))
                    if nbits % 8]
            if ends:
                end = data.draw(st.sampled_from(ends))
                frame[end - 1] |= 1 << data.draw(st.integers(
                    0, -(s if end == 17 + mb else w) % 8 - 1))
        elif mutation == "truncate":
            frame = frame[:data.draw(st.integers(1, len(frame) - 1))]
        elif mutation == "eof":
            frame = bytearray()
        elif mutation == "error":
            frame = bytearray(encode_error(
                data.draw(st.integers(0, 0xFFFF)), data.draw(st.text())))
        raw = bytes(frame) + data.draw(st.binary(max_size=4))
        fast, general = Trickle(raw), Trickle(raw)
        got = outcome(read_answer, fast, sid, s, w)
        assert got == outcome(general_read_answer, general, sid, s, w)
        assert fast._at == general._at
        if mutation == "none":
            assert got == answer(store, layout, QueryVector(indices))

    @given(narrow_stores(), st.lists(st.sampled_from(QUERY_MUTATIONS),
                                     min_size=1, max_size=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_served_bytes_agree_with_general_path(self, shape, mutations,
                                                  data):
        store, layout, indices = shape
        n, k = layout.subpackets_per_part + 1, len(indices)
        stream = b""
        for mutation in mutations:
            sid = data.draw(st.integers(0, 2 ** 64 - 1))
            frame = bytearray(encode_query(sid, indices))
            if mutation == "type":
                frame[4] = data.draw(st.sampled_from(
                    [MSG_HELLO, MSG_ANSWER, MSG_ERROR, 0x00, 0x7F]))
            elif mutation == "count":
                frame[13] = data.draw(st.integers(0, 255).filter(
                    lambda c: c != k))
            elif mutation == "length":
                struct.pack_into(">I", frame, 0, data.draw(
                    st.integers(1, len(frame) + 8)))
            elif mutation == "index":
                frame[14 + data.draw(st.integers(0, k - 1))] = data.draw(
                    st.integers(n, 255))
            elif mutation == "truncate":
                frame = frame[:data.draw(st.integers(1, len(frame) - 1))]
            elif mutation == "hello":
                frame = bytearray(encode_frame(MSG_HELLO, data.draw(
                    st.binary(max_size=2))))
            elif mutation == "zero-length":
                frame = bytearray(4)
            elif mutation == "oversize":
                frame = bytearray(struct.pack(">IB", MAX_FRAME_BYTES + 1,
                                              MSG_QUERY))
            stream += bytes(frame)
        served = Recorder(stream)
        serve_connection(0, store, layout, served)
        assert b"".join(served.sent) == general_serve(store, layout,
                                                      Trickle(stream))
