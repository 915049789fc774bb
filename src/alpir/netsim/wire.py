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
payload, which is cheaper to make and to slice. Only these large-frame
paths use numpy, and they import it on first use.

Every other frame has a fixed shape that both ends know before it
arrives: a server of K messages reads K-index Query frames, and a client
knows the part widths of each answer it waits for. Such a frame is built
and taken apart in one step, against the shape: encode_query and
read_query use one struct per K, and answer_frame and read_answer treat
an Answer frame whose parts are both narrow as one big-endian int, whose
fixed bits (type, widths, session id and pad bits) are checked with one
mask. A reader compares the 4-byte length before it reads the body, and
a frame of any other length, type, count, widths or session id goes
through read_frame and the decoders below, so it draws the same error
as it would there.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import NamedTuple

from .. import bits
from ..bits import BitString
from ..scheme import Answer, answer, narrow_fold

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


class SessionError(Exception):
    """A retrieval session failed; nothing was partially decoded."""


class WireFrame(NamedTuple):
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
    return _read_body(conn, _read_exact(conn, 4, allow_eof=True))


def _read_body(conn, header: bytes | None) -> WireFrame | None:
    """The rest of read_frame, once its 4-byte length header is read."""
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
        import numpy as np
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
    chunk = conn.recv(n)
    if len(chunk) == n:             # the whole of it, as a buffer holds it
        return chunk
    if not chunk and allow_eof:
        return None
    chunks, got = [chunk], len(chunk)
    while got < n:
        if not chunk:
            raise WireError("stream ended mid-frame")
        chunk = conn.recv(n - got)
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
    k = len(body)
    return _query_shape(k)[1].pack(10 + k, MSG_QUERY, session_id, k, body)


def query_frame_bytes(k: int) -> int:
    """Length of an encoded Query frame for a K-index vector."""
    return 5 + 9 + k


@lru_cache(maxsize=None)
def _query_shape(k: int) -> tuple[bytes, struct.Struct, struct.Struct]:
    """A K-index Query frame's length header, its struct, and its body's
    struct (the frame after the header)."""
    return (struct.pack(">I", 10 + k), struct.Struct(f">IBQB{k}s"),
            struct.Struct(f">BQB{k}s"))


def read_query(conn, k: int):
    """read_frame for a server of K messages: a frame with the length,
    type and count of a K-index Query comes back as (session_id, indices),
    and any other as read_frame gives it."""
    header, _, body_struct = _query_shape(k)
    got = _read_exact(conn, 4, allow_eof=True)
    if got != header:
        return _read_body(conn, got)
    body = _read_exact(conn, 10 + k, allow_eof=False)
    msg_type, session_id, count, indices = body_struct.unpack(body)
    if msg_type != MSG_QUERY or count != k:
        return WireFrame(body[0], body[1:])
    return session_id, tuple(indices)


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


class _AnswerShape:
    """An Answer frame with narrow masked and open parts of s and w bits,
    read as one big-endian int. `frame` holds the bits every such
    frame shares; the session id goes in at bit sid_at and the parts at
    masked_at and open_at. The frame's body after its length header,
    `size` bytes, is the same int without the header: `check` masks its
    fixed bits (type, widths, session id and pad bits), which read
    `fixed | session_id << sid_at` in the frame a session waits for."""

    __slots__ = ("header", "size", "frame", "fixed", "check", "sid_at",
                 "masked_at", "open_at", "masked_mask", "open_mask")

    def __init__(self, s: int, w: int):
        ob, mb = (w + 7) >> 3, (s + 7) >> 3
        self.size = 17 + mb + ob
        self.header = struct.pack(">I", self.size)
        self.open_at, self.masked_at = -w % 8, 8 * ob + 32 + -s % 8
        self.sid_at = 8 * (ob + mb) + 64
        self.masked_mask, self.open_mask = (1 << s) - 1, (1 << w) - 1
        self.fixed = (MSG_ANSWER << self.sid_at + 64
                      | s << self.sid_at - 32 | w << 8 * ob)
        self.frame = self.size << 8 * self.size | self.fixed
        self.check = ((1 << 8 * self.size) - 1
                      ^ self.masked_mask << self.masked_at
                      ^ self.open_mask << self.open_at)


_answer_shape = lru_cache(maxsize=256)(_AnswerShape)


def answer_frame(session_id: int, store, layout, query):
    """The Answer frame of scheme.answer(store, layout, query), as
    encode_answer(session_id, answer(...)) gives it, raising what they
    raise. On a narrow layout the frame is one int, made from the answer
    folded as one int. A layout with a part BitString keeps packed has its
    parts folded straight into the frame's body: one uninitialised numpy
    buffer whose every byte is written once.
    """
    folded = narrow_fold(store, layout, query)
    if not 0 <= session_id < 1 << 64:
        raise ValueError("session_id out of range")
    if folded is not None:
        c, open_bits = folded
        shape = _answer_shape(layout.key_bits, open_bits)
        return (shape.frame | session_id << shape.sid_at
                | c >> layout.open_subpacket_bits << shape.masked_at
                | (c & shape.open_mask) << shape.open_at
                ).to_bytes(shape.size + 4, "big")
    import numpy as np
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


def read_answer(conn, session_id: int, masked_bits: int,
                open_bits: int) -> Answer:
    """Read the Answer to session_id's query, which must have parts of
    masked_bits and open_bits bits, off conn.

    Raises SessionError when the read fails, the stream ends before the
    frame, or the frame is an Error frame, of another type, for another
    session or with other part widths; WireError when it is damaged.
    """
    try:
        header = _read_exact(conn, 4, allow_eof=True)
        shape = (_answer_shape(masked_bits, open_bits)
                 if max(masked_bits, open_bits) + 7 >> 3
                 < bits._PACKED_MIN_BYTES else None)
        if shape is None or header != shape.header:
            frame = _read_body(conn, header)
        else:
            body = _read_exact(conn, shape.size, allow_eof=False)
            x = int.from_bytes(body, "big")
            if x & shape.check == shape.fixed | session_id << shape.sid_at:
                return Answer(
                    BitString(x >> shape.masked_at & shape.masked_mask,
                              masked_bits),
                    BitString(x >> shape.open_at & shape.open_mask,
                              open_bits))
            frame = WireFrame(body[0], body[1:])
    except OSError as exc:              # TimeoutError at the read deadline
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
