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
from contextlib import contextmanager, suppress
from typing import NamedTuple, Optional, Sequence

from ..bits import BitString
from ..params import SystemParams
from ..rows import write_rows
from ..scheme import (MessageStore, PartitionLayout, PathClass,
                      PathDistribution, QueryVector, decode, make_queries,
                      path_distribution, plan_partition, sample_path)
from ..seeding import derived_rng
from . import transport, wire
from .transport import (IN_FLIGHT_BYTES, TcpListener, memory_pair,
                        tcp_connect)
from .wire import SessionError

SESSION_FIELDS = ("session_id", "desired", "class", "bits", "leaked_bits")
CSV_HEADER = ",".join(SESSION_FIELDS)


class SessionRecord(NamedTuple):
    session_id: int
    desired: int
    path_class: PathClass
    bits_downloaded: int
    decode_ok: bool
    leaked_bits: int


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

    Replies wait while the connection has input pending (a refill's
    queries arrive together), then go out in one write, as they do before
    the connection closes; without `pending`, each goes out at once.
    """
    pending = getattr(conn, "pending", None)
    held: list = []
    reply = held.append
    k = len(store.messages)
    try:
        while True:
            if held and (pending is None or not pending()):
                conn.send(held[0] if len(held) == 1 else b"".join(held))
                held.clear()
            try:
                frame = wire.read_query(conn, k)
            except wire.WireError as exc:
                reply(wire.encode_error(wire.ERR_MALFORMED, str(exc)))
                return
            if frame is None:
                return
            if type(frame) is wire.WireFrame:
                if frame.msg_type == wire.MSG_HELLO:
                    try:
                        wire.decode_hello(frame.payload)
                    except wire.WireError as exc:
                        reply(wire.encode_error(wire.ERR_MALFORMED,
                                                str(exc)))
                        continue
                    reply(wire.encode_hello())
                    continue
                if frame.msg_type != wire.MSG_QUERY:
                    reply(wire.encode_error(
                        wire.ERR_UNKNOWN_TYPE,
                        f"unknown message type {frame.msg_type:#x}"))
                    continue
                try:
                    frame = wire.decode_query(frame.payload)
                except wire.WireError as exc:
                    reply(wire.encode_error(wire.ERR_MALFORMED, str(exc)))
                    continue
            session_id, indices = frame
            try:
                reply(wire.answer_frame(session_id, store, layout,
                                        QueryVector(indices)))
            except ValueError:
                reply(wire.encode_error(
                    wire.ERR_BAD_QUERY, "query vector out of range"))
    except OSError:
        return
    finally:
        if held:
            with suppress(OSError):
                conn.send(b"".join(held))
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
    """Bring up N servers and yield N connected, greeted client endpoints.

    Raises ValueError, before any server starts, when the layout's
    answers do not fit in one frame."""
    _answer_frame_bytes(layout)
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


def _send_sessions(params: SystemParams, dist: PathDistribution,
                   conns: Sequence, sessions) -> list[_Pending]:
    """First half of sessions (session id, desired index, rng): build the
    N queries of each, then send each connection its frames in one write.
    A uniform permutation per session reassigns which server answers
    which query; stores are replicated, so this changes no outcome."""
    if len(conns) != params.n_databases:
        raise ValueError("need one connection per database")
    outboxes = [[] for _ in conns]
    started = []
    for session_id, desired, rng in sessions:
        if not 0 <= desired < params.n_messages:
            raise ValueError("desired message index out of range")
        choice = sample_path(dist, desired, rng)
        queries = make_queries(choice, params)
        targets = list(range(params.n_databases))
        rng.shuffle(targets)
        upload_bits = 0
        for d, qv in enumerate(queries):
            data = wire.encode_query(session_id, qv.indices)
            upload_bits += 8 * len(data)
            outboxes[targets[d]].append(data)
        started.append(_Pending(session_id, desired, choice.path_class,
                                queries, targets, upload_bits))
    try:
        for conn, frames in zip(conns, outboxes):
            conn.send(b"".join(frames))
    except OSError as exc:
        raise SessionError(f"send failed: {exc}") from None
    return started


def _finish_session(layout: PartitionLayout, conns: Sequence,
                    pending: _Pending, expected: Optional[BitString],
                    ) -> tuple[BitString, SessionRecord]:
    """Second half of a session: read the N answers, decode, record.

    wire.read_answer takes each answer only with the part widths its
    query asks for: s masked bits, and w open bits unless the query is
    all zeros. Then every
    check of `residual_view` holds by construction, since decode's own
    XORs are what it would XOR back out: a high-cost path leaves one w-bit
    residual (the open part of the answer whose desired coordinate is 0)
    and a low-cost path leaves none. So the session records w or 0 leaked
    bits without rebuilding the residual.
    """
    answers = []
    high = pending.path_class is PathClass.HIGH
    for qv, t in zip(pending.queries, pending.targets):
        answers.append(wire.read_answer(
            conns[t], pending.session_id, layout.key_bits,
            layout.open_subpacket_bits
            if high or qv.indices[pending.desired] else 0))
    decoded = decode(answers, pending.queries, pending.desired)
    bits_down = sum(a.masked.nbits + a.open.nbits for a in answers)
    ok = decoded == expected if expected is not None else True
    record = SessionRecord(pending.session_id, pending.desired,
                           pending.path_class, bits_down, ok,
                           layout.open_subpacket_bits if high else 0)
    return decoded, record


def retrieve(params: SystemParams, layout: PartitionLayout, desired: int,
             conns: Sequence, rng, session_id: int = 0,
             expected: Optional[BitString] = None,
             ) -> tuple[BitString, SessionRecord]:
    """Run one full retrieval session over already-connected endpoints.

    Validates the desired index before anything is sent. The session is
    lock-step: its answers are read before the call returns.
    """
    (pending,) = _send_sessions(params, path_distribution(params), conns,
                                [(session_id, desired, rng)])
    return _finish_session(layout, conns, pending, expected)


def _answer_frame_bytes(layout: PartitionLayout) -> int:
    """Length of the layout's largest Answer frame; ValueError when its
    body exceeds wire.MAX_FRAME_BYTES, which no server could send."""
    size = wire.answer_frame_bytes(layout.key_bits,
                                   layout.open_subpacket_bits)
    if size - 4 > wire.MAX_FRAME_BYTES:
        raise ValueError(
            f"answer frames of {size - 4} bytes exceed the "
            f"{wire.MAX_FRAME_BYTES}-byte frame limit; lower l")
    return size


def pipeline_window(params: SystemParams, layout: PartitionLayout) -> int:
    """Sessions `run_trials` keeps in flight: as many as IN_FLIGHT_BYTES
    holds of one query frame plus the largest answer frame."""
    session = (wire.query_frame_bytes(params.n_messages)
               + _answer_frame_bytes(layout))
    return max(1, IN_FLIGHT_BYTES // session)


class TrialStats(NamedTuple):
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
               transport: str = "memory",
               desired: Optional[int] = None,
               layout: Optional[PartitionLayout] = None) -> TrialStats:
    """Run `trials` sessions against a fresh deployment.

    The desired index cycles through all K messages unless pinned.
    Per-session RNG streams are derived from (seed, session index), so
    records are reproducible and independent of transport.

    Sessions are pipelined: up to `pipeline_window` of them have their
    queries sent before the oldest one's answers are read. Once at most
    half the window is in flight, one refill builds sessions up to the
    full window and sends each connection its frames in one write. Every
    connection answers in FIFO order, so sessions finish in order and the
    records equal a loop of lock-step `retrieve` calls. The window keeps
    the bytes in flight per connection, queries and answers together,
    within IN_FLIGHT_BYTES (16 KiB, the Linux loopback default send
    buffer). Over TCP, the client's unread answers and unanswered queries
    therefore always fit in the socket buffers, so a server never blocks
    sending while the client blocks sending, and the two cannot deadlock.
    The same budget bounds what the memory transport's unbounded queues
    hold. A shape whose one session exceeds the budget runs lock-step,
    and one whose answer frame exceeds wire.MAX_FRAME_BYTES raises
    ValueError before the store is drawn.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if layout is None:
        layout = plan_partition(params)
    window = pipeline_window(params, layout)
    store = provision(params, layout, derived_rng(seed, "store"))
    records = []
    structure_counts: dict = {}
    per_message: dict = {}
    upload_bits = 0
    dist = path_distribution(params)
    in_flight: deque[_Pending] = deque()
    with deployment(params, layout, store, transport) as conns:
        sent = 0
        for _ in range(trials):
            if sent < trials and len(in_flight) <= window // 2:
                batch = range(sent, min(trials,
                                        sent + window - len(in_flight)))
                in_flight.extend(_send_sessions(params, dist, conns, (
                    (i, i % params.n_messages if desired is None else desired,
                     derived_rng(seed, "session", i)) for i in batch)))
                sent = batch.stop
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


def session_rows(records: Sequence[SessionRecord]):
    """The values of SESSION_FIELDS for each record, in that order."""
    return ((r.session_id, r.desired, r.path_class.value, r.bits_downloaded,
             r.leaked_bits) for r in records)


def records_to_csv(records: Sequence[SessionRecord], fh) -> None:
    write_rows(fh, SESSION_FIELDS, session_rows(records), "csv")
