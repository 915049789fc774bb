"""Byte-stream transports: an in-process channel and localhost TCP.

Both expose the same minimal blocking interface (send / recv /
recv_into / pending / close), so the protocol layer cannot tell them
apart; runs over either must produce identical session records. Both
read through one buffer; pending() says whether it holds unread bytes.

Client ends (the first end of `memory_pair`, and `tcp_connect`) give up a
read after READ_DEADLINE_S seconds without data and raise TimeoutError, so
a stalled server cannot hang the client. Server ends block without limit:
an idle server is normal.

`socket` is imported when a TCP endpoint is made, so a memory-only run
never loads it.
"""

from __future__ import annotations

import struct
from queue import Empty, SimpleQueue
from typing import Optional

READ_DEADLINE_S = 30.0

# Bytes of queries and answers a pipelined client keeps in flight per
# connection: the Linux loopback default send buffer.
IN_FLIGHT_BYTES = 16 * 1024


class _BufferedReader:
    """Bytes _offset to _end of _chunk are read but not handed out yet.
    A transport supplies _fill, which waits for more of the stream and
    leaves _offset == _end only at its end."""

    _chunk = b""
    _offset = _end = 0

    def pending(self) -> bool:
        """Whether bytes already read from the stream are still unread."""
        return self._offset < self._end

    def recv(self, max_n: int) -> bytes:
        if max_n <= 0:
            raise ValueError("max_n must be positive")
        if self._offset == self._end:
            self._fill()
        start = self._offset
        self._offset = min(start + max_n, self._end)
        return bytes(self._chunk[start:self._offset])

    def recv_into(self, buffer) -> int:
        """Copy up to len(buffer) bytes into buffer, as recv would return
        them; 0 at end of stream."""
        view = memoryview(buffer)
        if not view:
            raise ValueError("buffer must not be empty")
        if self._offset == self._end:
            self._fill()
        start = self._offset
        self._offset = min(start + len(view), self._end)
        view[:self._offset - start] = memoryview(self._chunk)[
            start:self._offset]
        return self._offset - start


class ChannelConnection(_BufferedReader):
    """One end of an in-memory duplex byte stream; each send arrives as
    one chunk."""

    def __init__(self, inbox: SimpleQueue, outbox: SimpleQueue,
                 timeout: Optional[float] = None):
        self._inbox = inbox
        self._outbox = outbox
        self._timeout = timeout
        self._eof = False
        self._closed = False

    def send(self, data: bytes) -> None:
        if self._closed:
            raise OSError("connection closed")
        self._outbox.put(bytes(data))

    def _fill(self) -> None:
        while self._offset == self._end and not self._eof:
            try:
                chunk = self._inbox.get(timeout=self._timeout)
            except Empty:
                raise TimeoutError("read deadline passed") from None
            if chunk is None:
                self._eof = True
            else:
                self._chunk, self._offset, self._end = chunk, 0, len(chunk)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(None)


def memory_pair() -> tuple[ChannelConnection, ChannelConnection]:
    """(client end, server end); only the client end has a read deadline."""
    a_to_b: SimpleQueue = SimpleQueue()
    b_to_a: SimpleQueue = SimpleQueue()
    return (ChannelConnection(b_to_a, a_to_b, READ_DEADLINE_S),
            ChannelConnection(a_to_b, b_to_a))


class SocketConnection(_BufferedReader):
    """A socket with the channel interface. Reads go through a read-ahead
    buffer, allocated once, of about what one pipeline refill's queries
    take; a recv_into that finds it drained reads straight into buffer."""

    def __init__(self, sock):
        self._sock = sock
        self._chunk = memoryview(bytearray(IN_FLIGHT_BYTES // 2))

    def send(self, data: bytes) -> None:
        self._sock.sendall(data)

    def _fill(self) -> None:
        self._offset, self._end = 0, self.recv_into(self._chunk)

    def recv_into(self, buffer) -> int:
        if self._offset < self._end:
            return super().recv_into(buffer)
        try:
            return self._sock.recv_into(buffer)
        except BlockingIOError:  # SO_RCVTIMEO expired on a blocking socket
            raise TimeoutError("read deadline passed") from None

    def close(self) -> None:
        _shut_down(self._sock)


def _shut_down(sock) -> None:
    """Shut the socket down, then close it. On Linux, close alone does
    not wake a thread blocked in accept()."""
    import socket
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


class TcpListener:
    """Loopback listener on an ephemeral port."""

    def __init__(self):
        import socket
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def accept(self) -> SocketConnection:
        import socket
        sock, _ = self._sock.accept()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return SocketConnection(sock)

    def close(self) -> None:
        _shut_down(self._sock)


def tcp_connect(port: int) -> SocketConnection:
    """Client end. The deadline is a kernel receive timeout (SO_RCVTIMEO),
    so sends and reads that find data cost no extra poll."""
    import socket
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sec = int(READ_DEADLINE_S)
    usec = int((READ_DEADLINE_S - sec) * 1e6)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                    struct.pack("ll", sec, usec))
    return SocketConnection(sock)
