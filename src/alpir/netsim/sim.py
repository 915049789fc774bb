"""End-to-end protocol simulation over real byte streams.

Each database runs in its own thread behind a single duplex connection
and sees nothing but that connection, its replicated store, and the
layout: there is no channel between servers. A trusted dealer provisions
the replicated store (messages plus shared key) before any session. The
client speaks the wire protocol, decodes, and keeps per-session records.

Session records are pure protocol outcomes, so a run is reproducible
bit for bit from (params, seed) regardless of transport.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from ..bits import BitString
from ..params import SystemParams
from ..scheme import (MessageStore, PartitionLayout, PathClass,
                      PathDistribution, QueryVector, answer, decode,
                      make_queries, path_distribution, plan_partition,
                      sample_path)
from ..seeding import derived_rng
from . import transport, wire
from .transport import TcpListener, memory_pair, tcp_connect

CSV_HEADER = "session_id,desired,class,bits,leaked_bits"

# Bytes of queries and answers `run_trials` keeps in flight per connection.
IN_FLIGHT_BYTES = 16 * 1024


class SessionError(Exception):
    """A retrieval session failed; nothing was partially decoded."""


@dataclass(frozen=True)
class SessionRecord:
    session_id: int
    desired: int
    path_class: PathClass
    bits_downloaded: int
    decode_ok: bool
    leaked_bits: int

    def to_csv_row(self) -> str:
        return (f"{self.session_id},{self.desired},{self.path_class.value},"
                f"{self.bits_downloaded},{self.leaked_bits}")


def provision(params: SystemParams, layout: PartitionLayout,
              rng) -> MessageStore:
    """Dealer step: draw messages and shared key, replicated to every DB."""
    return MessageStore.random(params, layout, rng)


def serve_connection(db_index: int, store: MessageStore,
                     layout: PartitionLayout, conn) -> None:
    """Answer queries on one connection until it closes.

    Framing damage is unrecoverable on a byte stream, so it draws one
    Error frame and a hangup; bad-but-framed requests draw an Error frame
    and the connection continues. A client that hangs up with answers
    still queued (a pipelined run that failed) ends the connection too.
    """
    try:
        while True:
            try:
                frame = wire.read_frame(conn)
            except wire.WireError as exc:
                conn.send(wire.encode_error(wire.ERR_MALFORMED, str(exc)))
                return
            if frame is None:
                return
            if frame.msg_type == wire.MSG_HELLO:
                try:
                    wire.decode_hello(frame.payload)
                except wire.WireError as exc:
                    conn.send(wire.encode_error(wire.ERR_MALFORMED, str(exc)))
                    continue
                conn.send(wire.encode_hello())
            elif frame.msg_type == wire.MSG_QUERY:
                try:
                    session_id, indices = wire.decode_query(frame.payload)
                except wire.WireError as exc:
                    conn.send(wire.encode_error(wire.ERR_MALFORMED, str(exc)))
                    continue
                try:
                    ans = answer(store, layout, QueryVector(indices))
                except ValueError:
                    conn.send(wire.encode_error(
                        wire.ERR_BAD_QUERY, "query vector out of range"))
                    continue
                conn.send(wire.encode_answer(session_id, ans))
            else:
                conn.send(wire.encode_error(
                    wire.ERR_UNKNOWN_TYPE,
                    f"unknown message type {frame.msg_type:#x}"))
    except OSError:
        return
    finally:
        conn.close()


class ServerHandle:
    """A database bound to one connection source: an in-memory pair, or a
    TCP listener that serves each accepted connection on its own thread."""

    def __init__(self, db_index: int, store: MessageStore,
                 layout: PartitionLayout):
        self.db_index = db_index
        self._store = store
        self._layout = layout
        self._thread: Optional[threading.Thread] = None
        self._listener: Optional[TcpListener] = None
        self._workers: list[threading.Thread] = []

    def _serve(self, conn) -> threading.Thread:
        t = threading.Thread(
            target=serve_connection,
            args=(self.db_index, self._store, self._layout, conn),
            daemon=True)
        t.start()
        return t

    def start_memory(self):
        client_end, server_end = memory_pair()
        self._thread = self._serve(server_end)
        return client_end

    def start_tcp(self) -> int:
        self._listener = TcpListener()

        def accept_loop():
            while True:
                try:
                    conn = self._listener.accept()
                except OSError:
                    return
                self._workers = [t for t in self._workers if t.is_alive()]
                self._workers.append(self._serve(conn))

        self._thread = threading.Thread(target=accept_loop, daemon=True)
        self._thread.start()
        return self._listener.port

    def stop(self) -> None:
        """Close the listener and wait, READ_DEADLINE_S in all, for its
        threads; a connection thread ends once its client has hung up. A
        thread still running after that is left to the daemon flag."""
        if self._listener is not None:
            self._listener.close()
        deadline = time.monotonic() + transport.READ_DEADLINE_S
        # The accept loop first: it adds workers until it ends.
        if self._thread is not None:
            self._thread.join(transport.READ_DEADLINE_S)
        for t in self._workers:
            t.join(max(0.0, deadline - time.monotonic()))


@contextmanager
def deployment(params: SystemParams, layout: PartitionLayout,
               store: MessageStore, transport: str = "memory"):
    """Bring up N servers and yield N connected, greeted client endpoints."""
    handles = [ServerHandle(d, store, layout)
               for d in range(params.n_databases)]
    conns = []
    try:
        for h in handles:
            if transport == "memory":
                conns.append(h.start_memory())
            elif transport == "tcp":
                conns.append(tcp_connect(h.start_tcp()))
            else:
                raise ValueError(f"unknown transport {transport!r}")
        for conn in conns:
            conn.send(wire.encode_hello())
            try:
                frame = wire.read_frame(conn)
            except OSError:             # TimeoutError at the read deadline
                frame = None
            if frame is None or frame.msg_type != wire.MSG_HELLO:
                raise SessionError("handshake failed")
        yield conns
    finally:
        for conn in conns:
            conn.close()
        for h in handles:
            h.stop()


class _Pending(NamedTuple):
    """A session whose queries are sent and whose answers are not read."""

    session_id: int
    desired: int
    path_class: PathClass
    queries: tuple
    targets: list
    upload_bits: int


def _send_session(params: SystemParams, dist: PathDistribution,
                  desired: int, conns: Sequence, rng, session_id: int,
                  relabel: bool) -> _Pending:
    """First half of a session: sample, build and send the N queries."""
    if not 0 <= desired < params.n_messages:
        raise ValueError("desired message index out of range")
    if len(conns) != params.n_databases:
        raise ValueError("need one connection per database")
    choice = sample_path(dist, desired, rng)
    queries = make_queries(choice, params)
    targets = list(range(params.n_databases))
    if relabel:
        rng.shuffle(targets)
    upload_bits = 0
    try:
        for d, qv in enumerate(queries):
            data = wire.encode_query(session_id, qv.indices)
            upload_bits += 8 * len(data)
            conns[targets[d]].send(data)
    except OSError as exc:
        raise SessionError(f"send failed: {exc}") from None
    return _Pending(session_id, desired, choice.path_class, queries, targets,
                    upload_bits)


def _finish_session(layout: PartitionLayout, conns: Sequence,
                    pending: _Pending, expected: Optional[BitString],
                    ) -> tuple[BitString, SessionRecord]:
    """Second half of a session: read the N answers, decode, record.

    Each answer's part widths must be exactly what its query asks for: s
    masked bits, and w open bits unless the query is all zeros. Then every
    check of `residual_view` holds by construction, since decode's own
    XORs are what it would XOR back out: a high-cost path leaves one w-bit
    residual (the open part of the answer whose desired coordinate is 0)
    and a low-cost path leaves none. So the session records w or 0 leaked
    bits without rebuilding the residual.
    """
    answers = []
    high = pending.path_class is PathClass.HIGH
    for qv, t in zip(pending.queries, pending.targets):
        try:
            frame = wire.read_frame(conns[t])
        except OSError as exc:          # TimeoutError at the read deadline
            raise SessionError(f"read failed: {exc}") from None
        if frame is None:
            raise SessionError("connection closed mid-session")
        if frame.msg_type == wire.MSG_ERROR:
            code, text = wire.decode_error(frame.payload)
            raise SessionError(f"server error {code}: {text}")
        if frame.msg_type != wire.MSG_ANSWER:
            raise SessionError(f"unexpected frame type {frame.msg_type:#x}")
        sid, ans = wire.decode_answer(frame.payload)
        if sid != pending.session_id:
            raise SessionError("answer for a different session")
        open_bits = (layout.open_subpacket_bits
                     if high or qv.indices[pending.desired] else 0)
        if (ans.masked.nbits != layout.key_bits
                or ans.open.nbits != open_bits):
            raise SessionError("answer part widths do not match layout")
        answers.append(ans)
    decoded = decode(answers, pending.queries, pending.desired)
    bits_down = sum(a.masked.nbits + a.open.nbits for a in answers)
    ok = decoded == expected if expected is not None else True
    record = SessionRecord(pending.session_id, pending.desired,
                           pending.path_class, bits_down, ok,
                           layout.open_subpacket_bits if high else 0)
    return decoded, record


def retrieve(params: SystemParams, layout: PartitionLayout, desired: int,
             conns: Sequence, rng, session_id: int = 0,
             relabel: bool = True,
             expected: Optional[BitString] = None,
             ) -> tuple[BitString, SessionRecord]:
    """Run one full retrieval session over already-connected endpoints.

    Validates the desired index before anything is sent. With relabel on,
    a uniform permutation reassigns which server answers which query;
    stores are replicated, so this changes no outcome. The session is
    lock-step: its answers are read before the call returns.
    """
    pending = _send_session(params, path_distribution(params), desired,
                            conns, rng, session_id, relabel)
    return _finish_session(layout, conns, pending, expected)


def pipeline_window(params: SystemParams, layout: PartitionLayout) -> int:
    """Sessions `run_trials` keeps in flight: as many as IN_FLIGHT_BYTES
    holds of one query frame plus the largest answer frame."""
    session = (wire.query_frame_bytes(params.n_messages)
               + wire.answer_frame_bytes(layout.key_bits,
                                         layout.open_subpacket_bits))
    return max(1, IN_FLIGHT_BYTES // session)


@dataclass
class TrialStats:
    """Aggregates over a run; structure_counts feeds the query auditor."""

    records: list[SessionRecord]
    mean_cost: float
    low_frequency: float
    mean_leaked_bits: float
    mean_upload_bits: float
    decode_failures: int
    structure_counts: dict
    trials_per_message: dict


def run_trials(trials: int, params: SystemParams, seed: int,
               transport: str = "memory", relabel: bool = True,
               desired: Optional[int] = None,
               layout: Optional[PartitionLayout] = None) -> TrialStats:
    """Run `trials` sessions against a fresh deployment.

    The desired index cycles through all K messages unless pinned.
    Per-session RNG streams are derived from (seed, session index), so
    records are reproducible and independent of transport.

    Sessions are pipelined: up to `pipeline_window` of them have their
    queries sent before the oldest one's answers are read. Every
    connection answers in FIFO order, so sessions finish in order and the
    records equal a loop of lock-step `retrieve` calls. The window keeps
    the bytes in flight per connection, queries and answers together,
    within IN_FLIGHT_BYTES (16 KiB, the Linux loopback default send
    buffer). Over TCP, the client's unread answers and unanswered queries
    therefore always fit in the socket buffers, so a server never blocks
    sending while the client blocks sending, and the two cannot deadlock.
    The same budget bounds what the memory transport's unbounded queues
    hold. A shape whose one session exceeds the budget runs lock-step.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if layout is None:
        layout = plan_partition(params)
    store = provision(params, layout, derived_rng(seed, "store"))
    records = []
    structure_counts: dict = {}
    per_message: dict = {}
    upload_bits = 0
    dist = path_distribution(params)
    window = pipeline_window(params, layout)
    in_flight: deque[_Pending] = deque()
    with deployment(params, layout, store, transport) as conns:
        sent = 0
        for _ in range(trials):
            while sent < trials and len(in_flight) < window:
                k = sent % params.n_messages if desired is None else desired
                in_flight.append(_send_session(
                    params, dist, k, conns, derived_rng(seed, "session", sent),
                    sent, relabel))
                sent += 1
            pending = in_flight.popleft()
            k = pending.desired
            # The decoded message is dropped at once. Held until the next
            # one replaced it (N=2, K=4, L=2^22 over TCP), it ran no
            # faster and cost 15-68 client page faults per session, not
            # 11: glibc trimmed and re-faulted the heap top.
            record = _finish_session(layout, conns, pending,
                                     store.messages[k])[1]
            records.append(record)
            upload_bits += pending.upload_bits
            per_message[k] = per_message.get(k, 0) + 1
            for db, qv in enumerate(pending.queries):
                cell = (k, db, qv.indices)
                structure_counts[cell] = structure_counts.get(cell, 0) + 1
    n_low = sum(1 for r in records if r.path_class is PathClass.LOW)
    l = params.message_bits
    return TrialStats(
        records=records,
        mean_cost=sum(r.bits_downloaded for r in records) / (trials * l),
        low_frequency=n_low / trials,
        mean_leaked_bits=sum(r.leaked_bits for r in records) / trials,
        mean_upload_bits=upload_bits / trials,
        decode_failures=sum(1 for r in records if not r.decode_ok),
        structure_counts=structure_counts,
        trials_per_message=per_message,
    )


def records_to_csv(records: Sequence[SessionRecord], fh) -> None:
    fh.write(CSV_HEADER + "\n")
    for r in records:
        fh.write(r.to_csv_row() + "\n")
