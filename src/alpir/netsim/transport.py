"""Byte-stream transports: an in-process channel and localhost TCP.

Both expose the same minimal blocking interface (send / recv / close), so
the protocol layer cannot tell them apart; runs over either must produce
identical session records.

Client ends (the first end of `memory_pair`, and `tcp_connect`) give up a
read after READ_DEADLINE_S seconds without data and raise TimeoutError, so
a stalled server cannot hang the client. Server ends block without limit:
an idle server is normal.
"""

from __future__ import annotations

import socket
import struct
from queue import Empty, SimpleQueue
from typing import Optional

READ_DEADLINE_S = 30.0


class ChannelConnection:
    """One end of an in-memory duplex byte stream."""

    def __init__(self, inbox: SimpleQueue, outbox: SimpleQueue,
                 timeout: Optional[float] = None):
        self._inbox = inbox
        self._outbox = outbox
        self._timeout = timeout
        self._chunk = b""       # the chunk being read, from self._offset on
        self._offset = 0
        self._eof = False
        self._closed = False

    def send(self, data: bytes) -> None:
        if self._closed:
            raise OSError("connection closed")
        self._outbox.put(bytes(data))

    def recv(self, max_n: int) -> bytes:
        if max_n <= 0:
            raise ValueError("max_n must be positive")
        while self._offset == len(self._chunk) and not self._eof:
            try:
                chunk = self._inbox.get(timeout=self._timeout)
            except Empty:
                raise TimeoutError("read deadline passed") from None
            if chunk is None:
                self._eof = True
            else:
                self._chunk, self._offset = chunk, 0
        start, chunk = self._offset, self._chunk
        self._offset = min(start + max_n, len(chunk))
        if start == 0 and self._offset == len(chunk):
            return chunk
        return chunk[start:self._offset]

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


class SocketConnection:
    """Thin adapter giving a socket the channel interface."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, data: bytes) -> None:
        self._sock.sendall(data)

    def recv(self, max_n: int) -> bytes:
        try:
            return self._sock.recv(max_n)
        except BlockingIOError:  # SO_RCVTIMEO expired on a blocking socket
            raise TimeoutError("read deadline passed") from None

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class TcpListener:
    """Loopback listener on an ephemeral port."""

    def __init__(self):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def accept(self) -> SocketConnection:
        sock, _ = self._sock.accept()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return SocketConnection(sock)

    def close(self) -> None:
        """Shut the socket down first: on Linux, close alone does not wake
        a thread blocked in accept()."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def tcp_connect(port: int) -> SocketConnection:
    """Client end. The deadline is a kernel receive timeout (SO_RCVTIMEO),
    so sends and reads that find data cost no extra poll."""
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sec = int(READ_DEADLINE_S)
    usec = int((READ_DEADLINE_S - sec) * 1e6)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                    struct.pack("ll", sec, usec))
    return SocketConnection(sock)
