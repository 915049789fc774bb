"""Wire format for the client/database protocol.

Frames are self-delimiting on a byte stream, so one write may carry
many of them (a pipeline refill's queries, or their answers):

    u32 length (big-endian) = 1 + len(payload)
    u8  msg_type
    payload bytes

Message types: 0x01 Hello, 0x02 Query, 0x03 Answer, 0x04 Error. Payloads:

    Hello   u8 protocol version
    Query   u64 session_id, u8 vector length K, K bytes of indices
    Answer  u64 session_id, u32 masked bit length, packed masked bytes,
            u32 open bit length, packed open bytes
    Error   u16 code, utf-8 message

Bit strings are packed MSB-first and padded with zero bits to whole
bytes; the explicit bit lengths make the padding unambiguous, and
decoders reject nonzero padding. Anything undecodable raises WireError,
which servers convert to an Error frame.

A large answer lives in one buffer on each side of the wire. The server
allocates its frame once, uninitialised, and answer_frame has
scheme.answer fold the parts straight into the frame's body around the
headers written here. The client's read_frame reads a body of at least
bits._PACKED_MIN_BYTES into one buffer with the connection's recv_into
(connections with only recv get their chunks joined), its payload is a
read-only memoryview of that buffer, and decode_answer hands out
BitString views of it. Smaller frames are read with recv into a bytes
payload, which is cheaper to make and to slice, and answer_frame builds
their answers with encode_answer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .. import bits
from ..bits import BitString
from ..scheme import Answer, answer

MSG_HELLO = 0x01
MSG_QUERY = 0x02
MSG_ANSWER = 0x03
MSG_ERROR = 0x04

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 1 << 24

ERR_MALFORMED = 1
ERR_BAD_QUERY = 2
ERR_UNKNOWN_TYPE = 3


class WireError(Exception):
    """Raised on any undecodable frame or payload."""


@dataclass(frozen=True)
class WireFrame:
    msg_type: int
    payload: bytes      # or a read-only memoryview, from read_frame


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if not 0 <= msg_type <= 0xFF:
        raise ValueError("msg_type must fit in one byte")
    if 1 + len(payload) > MAX_FRAME_BYTES:
        raise WireError("frame too large")
    return struct.pack(">IB", 1 + len(payload), msg_type) + payload


def parse_frame(data: bytes) -> WireFrame:
    """Decode one complete frame from exactly-sized bytes."""
    if len(data) < 5:
        raise WireError("truncated frame header")
    (length,) = struct.unpack(">I", data[:4])
    if length < 1 or length > MAX_FRAME_BYTES:
        raise WireError("bad frame length")
    if len(data) != 4 + length:
        raise WireError("frame length mismatch")
    return WireFrame(data[4], data[5:])


def read_frame(conn) -> WireFrame | None:
    """Read one frame from a connection; None on clean end of stream."""
    header = _read_exact(conn, 4, allow_eof=True)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length < 1 or length > MAX_FRAME_BYTES:
        raise WireError("bad frame length")
    if length < bits._PACKED_MIN_BYTES:
        body = _read_exact(conn, length, allow_eof=False)
        return WireFrame(body[0], body[1:])
    recv_into = getattr(conn, "recv_into", None)
    if recv_into is None:
        body = memoryview(_read_exact(conn, length, allow_eof=False))
    else:
        body = memoryview(np.empty(length, np.uint8))
        got = 0
        while got < length:
            n = recv_into(body[got:])
            if not n:
                raise WireError("stream ended mid-frame")
            got += n
        body = body.toreadonly()
    return WireFrame(body[0], body[1:])


def _read_exact(conn, n: int, allow_eof: bool):
    chunks, got = [], 0
    while got < n:
        chunk = conn.recv(n - got)
        if not chunk:
            if allow_eof and got == 0:
                return None
            raise WireError("stream ended mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def encode_hello(version: int = PROTOCOL_VERSION) -> bytes:
    return encode_frame(MSG_HELLO, bytes([version]))


def decode_hello(payload: bytes) -> int:
    if len(payload) != 1:
        raise WireError("hello payload must be one byte")
    return payload[0]


def encode_query(session_id: int, indices: tuple[int, ...]) -> bytes:
    if not 0 <= session_id < 1 << 64:
        raise ValueError("session_id out of range")
    if not indices or len(indices) > 0xFF:
        raise ValueError("query vector length out of range")
    try:
        body = bytes(indices)
    except ValueError:
        raise ValueError("query index out of range") from None
    payload = struct.pack(">QB", session_id, len(indices)) + body
    return encode_frame(MSG_QUERY, payload)


def query_frame_bytes(k: int) -> int:
    """Length of an encoded Query frame for a K-index vector."""
    return 5 + 9 + k


def decode_query(payload: bytes) -> tuple[int, tuple[int, ...]]:
    if len(payload) < 9:
        raise WireError("query payload too short")
    session_id, count = struct.unpack(">QB", payload[:9])
    if len(payload) != 9 + count:
        raise WireError("query vector length mismatch")
    return session_id, tuple(payload[9:])


def _decode_bits(payload: bytes, off: int) -> tuple[BitString, int]:
    if len(payload) < off + 4:
        raise WireError("bit string header truncated")
    (nbits,) = struct.unpack_from(">I", payload, off)
    nbytes = (nbits + 7) // 8
    off += 4
    if len(payload) < off + nbytes:
        raise WireError("bit string body truncated")
    try:
        bs = BitString.from_bytes(payload[off:off + nbytes], nbits)
    except ValueError as exc:
        raise WireError(str(exc)) from None
    return bs, off + nbytes


def encode_answer(session_id: int, ans: Answer) -> bytes:
    if not 0 <= session_id < 1 << 64:
        raise ValueError("session_id out of range")
    masked, open_ = ans.masked._buffer(), ans.open._buffer()
    length = 1 + 8 + 4 + len(masked) + 4 + len(open_)
    if length > MAX_FRAME_BYTES:
        raise WireError("frame too large")
    return b"".join((struct.pack(">IBQI", length, MSG_ANSWER, session_id,
                                 ans.masked.nbits), masked,
                     struct.pack(">I", ans.open.nbits), open_))


def answer_frame_bytes(masked_bits: int, open_bits: int) -> int:
    """Length of an encoded Answer frame with parts of these bit widths."""
    return 5 + 8 + 4 + (masked_bits + 7) // 8 + 4 + (open_bits + 7) // 8


def answer_frame(session_id: int, store, layout, query):
    """The Answer frame of scheme.answer(store, layout, query), as
    encode_answer(session_id, answer(...)) gives it, raising what they
    raise. A layout with a part BitString keeps packed has its parts
    folded straight into the frame's body: one uninitialised numpy buffer
    whose every byte is written once. Narrower answers are folded as ints
    and encoded into bytes.
    """
    if (max(layout.key_bits, layout.open_subpacket_bits) + 7
            >> 3 < bits._PACKED_MIN_BYTES):
        return encode_answer(session_id, answer(store, layout, query))
    if not 0 <= session_id < 1 << 64:
        raise ValueError("session_id out of range")
    frame = None

    def body(masked_bits: int, open_bits: int):
        nonlocal frame
        length = answer_frame_bytes(masked_bits, open_bits)
        if length - 4 > MAX_FRAME_BYTES:
            raise WireError("frame too large")
        frame = np.empty(length, np.uint8)
        at = 17 + (masked_bits + 7) // 8
        struct.pack_into(">IBQI", frame, 0, length - 4, MSG_ANSWER,
                         session_id, masked_bits)
        struct.pack_into(">I", frame, at, open_bits)
        return frame[17:at], frame[at + 4:]

    answer(store, layout, query, body)
    return frame


def decode_answer(payload: bytes) -> tuple[int, Answer]:
    if len(payload) < 8:
        raise WireError("answer payload too short")
    (session_id,) = struct.unpack_from(">Q", payload)
    masked, off = _decode_bits(payload, 8)
    open_part, off = _decode_bits(payload, off)
    if off != len(payload):
        raise WireError("trailing bytes in answer payload")
    return session_id, Answer(masked, open_part)


def encode_error(code: int, message: str) -> bytes:
    data = message.encode()
    return encode_frame(MSG_ERROR, struct.pack(">H", code) + data)


def decode_error(payload: bytes) -> tuple[int, str]:
    if len(payload) < 2:
        raise WireError("error payload too short")
    (code,) = struct.unpack(">H", payload[:2])
    try:
        text = bytes(payload[2:]).decode()
    except UnicodeDecodeError:
        raise WireError("error message is not utf-8") from None
    return code, text
