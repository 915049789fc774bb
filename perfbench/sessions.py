"""Session workloads: closed-loop retrieval through the simulator's servers.

Load model: one client in one process runs sessions back to back (a
closed loop with one client). The N=2 servers are the program's own
in-process threads, so the client holds two connections. TCP traffic
stays on the host loopback and never crosses a real link.

Untraced run (end-to-end metrics). Timed calls alternate until the run
time is spent:
  * one run_trials(chunk, ...) call; throughput_per_s is the median of
    chunk / wall over these calls, so pipelining inside run_trials shows;
  * chunk lock-step netsim.retrieve calls on one open deployment, with the
    same seed, store and session RNG streams as run_trials;
    latency_p50_us is the median wall of one retrieve.

Traced run (per-layer metrics). Chunks of untraced retrieve calls
alternate with chunks of sessions rebuilt from the public calls that
retrieve makes, in the same order, each wrapped in a span. The servers run the public
serve_connection over memory_pair / TcpListener ends wrapped in a timing
proxy, which notes when a query's last byte arrives and when the answer
is sent. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import hashlib
import io
import math
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from alpir import (BitString, MessageStore, PartitionLayout, PathClass,
                   SystemParams, decode, derived_rng, expected_cost,
                   make_queries, path_distribution, plan_partition,
                   residual_view, sample_path, session_download_bits)
from alpir.netsim import (SessionError, SessionRecord, TcpListener,
                          deployment, memory_pair, provision, records_to_csv,
                          retrieve, run_trials, serve_connection, tcp_connect,
                          wire)

OUT = Path(__file__).resolve().parent / "out"

# The traced run stops after this many traced sessions, which bounds the
# memory its spans take (about 16 spans per session).
TRACE_CAP = 10_000

# Per-session failures a session can raise: protocol, framing, socket.
SESSION_FAILURES = (SessionError, wire.WireError, OSError)


@dataclass(frozen=True)
class Workload:
    shape: tuple          # SystemParams(N, K, L, eps, delta)
    transport: str
    chunk: int            # sessions per timed call
    headline: str         # summary name of the throughput figure
    smoke_shape: tuple | None = None
    smoke_chunk: int = 20


WORKLOADS = {
    "small-mem": Workload((2, 2, 3, math.log(1.5), 4 / 15), "memory", 2000,
                          "sessions_per_s", smoke_chunk=200),
    "wide-k-tcp": Workload((2, 255, 40, 0.5, 0.5), "tcp", 500,
                           "sessions_per_s", smoke_chunk=50),
    "large-tcp": Workload((2, 4, 1 << 22, 0.5, 0.1), "tcp", 100,
                          "retrieved_MBps",
                          smoke_shape=(2, 4, 1 << 12, 0.5, 0.1)),
}


@dataclass
class Context:
    name: str
    params: SystemParams
    layout: PartitionLayout
    store: MessageStore
    expected: tuple       # what each desired message must decode to
    seed: int
    transport: str
    chunk: int


def run(args, t0: float) -> dict:
    wl = WORKLOADS[args.workload]
    shape = (wl.smoke_shape or wl.shape) if args.smoke else wl.shape
    chunk = wl.smoke_chunk if args.smoke else wl.chunk
    params = SystemParams(*shape)
    layout = plan_partition(params)
    store = provision(params, layout, derived_rng(args.seed, "store"))
    expected = store.messages
    if args.inject_wrong_expected:
        expected = tuple(BitString(m.value ^ 1, m.nbits) for m in expected)
    ctx = Context(args.workload, params, layout, store, expected, args.seed,
                  wl.transport, chunk)
    if args.trace:
        return traced(ctx, args.seconds)
    with deployment(params, layout, store, wl.transport) as conns:
        setup_s = time.perf_counter() - t0
        result = untraced(ctx, conns, args.seconds)
    result["setup_s"] = setup_s
    result["summary"] = {}
    if result["metrics"]:
        thr = result["metrics"]["throughput_per_s"]
        result["summary"] = {
            wl.headline: (thr if wl.headline == "sessions_per_s"
                          else thr * params.message_bits / 8 / 1e6),
            "session_p50_us": result["metrics"]["latency_p50_us"],
        }
    return result


def cost_within_3_sigma(mean_cost: float, ctx: Context, trials: int) -> bool:
    """Mean cost within 3 sigma of expected_cost, or equal when sigma is 0."""
    l = ctx.params.message_bits
    low = session_download_bits(ctx.layout, PathClass.LOW) / l
    high = session_download_bits(ctx.layout, PathClass.HIGH) / l
    pl = path_distribution(ctx.params).low_total
    sigma = abs(high - low) * math.sqrt(pl * (1 - pl) / trials)
    expect = expected_cost(ctx.params, ctx.layout)
    if sigma:
        return abs(mean_cost - expect) <= 3.0 * sigma
    return mean_cost == expect


def reference(ctx: Context):
    """First run_trials call: the records every later session must equal.

    Returns (records, failed, sha256 of the record CSV).
    """
    stats = run_trials(ctx.chunk, ctx.params, ctx.seed, ctx.transport,
                       layout=ctx.layout)
    failed = stats.decode_failures
    failed += not cost_within_3_sigma(stats.mean_cost, ctx, ctx.chunk)
    buf = io.StringIO()
    records_to_csv(stats.records, buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return stats.records, failed, digest


def timed_run_trials(ctx: Context, ref) -> tuple[float, int]:
    """One timed run_trials call: (sessions per second, failed sessions)."""
    t = time.perf_counter()
    try:
        stats = run_trials(ctx.chunk, ctx.params, ctx.seed, ctx.transport,
                           layout=ctx.layout)
    except SESSION_FAILURES:
        return 0.0, ctx.chunk
    rate = ctx.chunk / (time.perf_counter() - t)
    return rate, sum(1 for r, e in zip(stats.records, ref)
                     if not r.decode_ok or r != e)


def retrieve_chunk(ctx: Context, conns, ref, latencies: list | None):
    """ctx.chunk lock-step retrieve calls, sessions 0..chunk-1 of run_trials.

    Appends each call's wall (ns) to latencies when given. Returns
    (attempted, failed, broken); broken means the stream is out of step.
    """
    k_count = ctx.params.n_messages
    failed = 0
    for i in range(ctx.chunk):
        k = i % k_count
        rng = derived_rng(ctx.seed, "session", i)
        t = time.perf_counter_ns()
        try:
            decoded, record = retrieve(ctx.params, ctx.layout, k, conns, rng,
                                       session_id=i, expected=ctx.expected[k])
        except SESSION_FAILURES:
            return i + 1, failed + 1, True
        if latencies is not None:
            latencies.append(time.perf_counter_ns() - t)
        failed += decoded != ctx.expected[k] or record != ref[i]
    return ctx.chunk, failed, False


def untraced(ctx: Context, conns, seconds: float) -> dict:
    ref, failed, digest = reference(ctx)
    attempted = ctx.chunk + 1         # reference sessions plus the cost check
    rates, latencies = [], []
    deadline = time.perf_counter() + seconds
    broken = False
    while not broken:
        rate, bad = timed_run_trials(ctx, ref)
        attempted += ctx.chunk
        failed += bad
        if rate:
            rates.append(rate)
        tried, bad, broken = retrieve_chunk(ctx, conns, ref, latencies)
        attempted += tried
        failed += bad
        if time.perf_counter() >= deadline:
            break
    metrics = {}
    if rates and latencies:
        metrics = {"throughput_per_s": statistics.median(rates),
                   "latency_p50_us": statistics.median(latencies) / 1e3}
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics, "records_sha256": digest}


# ---------------------------------------------------------------- tracing

class ServerEnd:
    """Server end of one connection that notes its own timing.

    For every answer frame it keeps (session id, previous send end, time
    the query's last byte arrived, send start, send end), in
    perf_counter_ns. Only the server thread writes; read after it ends.
    """

    def __init__(self, conn):
        self._conn = conn
        self._last_in = self._last_out = time.perf_counter_ns()
        self.answers = []

    def recv(self, max_n: int) -> bytes:
        data = self._conn.recv(max_n)
        self._last_in = time.perf_counter_ns()
        return data

    def send(self, data: bytes) -> None:
        t0 = time.perf_counter_ns()
        self._conn.send(data)
        t1 = time.perf_counter_ns()
        if data[4] == wire.MSG_ANSWER:
            self.answers.append((int.from_bytes(data[5:13], "big"),
                                 self._last_out, self._last_in, t0, t1))
        self._last_out = t1

    def close(self) -> None:
        self._conn.close()


class ClientEnd:
    """Client end of one connection that counts recv calls."""

    def __init__(self, conn):
        self._conn = conn
        self.send = conn.send
        self.close = conn.close
        self.recv_calls = 0

    def recv(self, max_n: int) -> bytes:
        self.recv_calls += 1
        return self._conn.recv(max_n)


def _connected_pair(transport: str):
    if transport == "memory":
        return memory_pair()
    listener = TcpListener()
    try:
        client = tcp_connect(listener.port)
        return client, listener.accept()
    finally:
        listener.close()


@contextmanager
def traced_deployment(ctx: Context):
    """N servers on timed ends; yields (greeted client ends, server ends)."""
    clients, ends, threads = [], [], []
    try:
        for d in range(ctx.params.n_databases):
            client, server = _connected_pair(ctx.transport)
            clients.append(ClientEnd(client))
            ends.append(ServerEnd(server))
            th = threading.Thread(target=serve_connection,
                                  args=(d, ctx.store, ctx.layout, ends[-1]),
                                  daemon=True)
            th.start()
            threads.append(th)
        for c in clients:
            c.send(wire.encode_hello())
            frame = wire.read_frame(c)
            if frame is None or frame.msg_type != wire.MSG_HELLO:
                raise SessionError("handshake failed")
            c.recv_calls = 0
        yield clients, ends
    finally:
        for c in clients:
            c.close()
        for th in threads:
            th.join(timeout=30)
        if any(th.is_alive() for th in threads):
            raise RuntimeError("a server thread did not stop")


@dataclass
class TracedSession:
    session_id: int                 # id on the wire
    start: int
    end: int
    spans: list                     # (name, start_ns, end_ns)
    ok: bool
    record: SessionRecord
    bytes_up: int
    bytes_down: int
    frames: int


def traced_session(ctx: Context, conns, i: int) -> TracedSession:
    """run_trials' session i, rebuilt from the calls retrieve makes."""
    ns = time.perf_counter_ns
    params, layout = ctx.params, ctx.layout
    n, k = params.n_databases, i % params.n_messages
    spans = []
    add = spans.append
    s0 = ns()
    rng = derived_rng(ctx.seed, "session", i)
    t1 = ns()
    add(("seeding.derived_rng", s0, t1))
    t0 = ns()
    dist = path_distribution(params)
    t1 = ns()
    choice = sample_path(dist, k, rng)
    t2 = ns()
    queries = make_queries(choice, params)
    t3 = ns()
    targets = list(range(n))
    rng.shuffle(targets)
    t4 = ns()
    add(("scheme.path_distribution", t0, t1))
    add(("scheme.sample_path", t1, t2))
    add(("scheme.make_queries", t2, t3))
    add(("sim.relabel", t3, t4))
    up = 0
    for d, qv in enumerate(queries):
        t0 = ns()
        data = wire.encode_query(i, qv.indices)
        t1 = ns()
        conns[targets[d]].send(data)
        t2 = ns()
        add(("wire.encode_query", t0, t1))
        add(("transport.client_send", t1, t2))
        up += len(data)
    answers = []
    down = 0
    for d in range(n):
        t0 = ns()
        frame = wire.read_frame(conns[targets[d]])
        t1 = ns()
        if frame is None:
            raise SessionError("connection closed mid-session")
        if frame.msg_type != wire.MSG_ANSWER:
            raise SessionError(f"unexpected frame type {frame.msg_type:#x}")
        t2 = ns()
        sid, ans = wire.decode_answer(frame.payload)
        t3 = ns()
        add(("wire.read_frame", t0, t1))
        add(("wire.decode_answer", t2, t3))
        if sid != i:
            raise SessionError("answer for a different session")
        if ans.masked.nbits != layout.key_bits or ans.open.nbits not in (
                0, layout.open_subpacket_bits):
            raise SessionError("answer part widths do not match layout")
        answers.append(ans)
        down += 5 + len(frame.payload)
    t0 = ns()
    decoded = decode(answers, queries, k)
    t1 = ns()
    residual = residual_view(answers, queries, decoded, layout)
    t2 = ns()
    add(("scheme.decode", t0, t1))
    add(("scheme.residual_view", t1, t2))
    ok = decoded == ctx.expected[k]
    record = SessionRecord(i, k, choice.path_class,
                           sum(a.masked.nbits + a.open.nbits
                               for a in answers),
                           ok, residual.leaked_bits)
    return TracedSession(i, s0, ns(), spans, ok, record, up, down, 2 * n)


CLIENT_LAYERS = ("seeding.derived_rng", "scheme.path_distribution",
                 "scheme.sample_path", "scheme.make_queries",
                 "wire.encode_query", "transport.client_send",
                 "wire.read_frame", "wire.decode_answer", "scheme.decode",
                 "scheme.residual_view")
SERVER_LAYERS = ("sim.serve_idle", "sim.serve_handle",
                 "transport.server_send")


def server_spans(session: TracedSession, answer) -> list:
    """The three server spans of one answer, clipped to its session."""
    _, prev_out, frame_in, send_start, send_end = answer
    return [("sim.serve_idle", max(prev_out, session.start), frame_in),
            ("sim.serve_handle", frame_in, send_start),
            ("transport.server_send", send_start, send_end)]


def traced(ctx: Context, seconds: float) -> dict:
    """Traced chunks alternate with untraced retrieve chunks on an open
    deployment; sim.trace_overhead is the ratio of their session rates."""
    ref, failed, digest = reference(ctx)
    attempted = ctx.chunk + 1
    sessions, untraced_rates, traced_rates = [], [], []
    deadline = time.perf_counter() + seconds
    with deployment(ctx.params, ctx.layout, ctx.store,
                    ctx.transport) as conns, \
            traced_deployment(ctx) as (clients, ends):
        broken = False
        while not broken:
            t = time.perf_counter()
            tried, bad, broken = retrieve_chunk(ctx, conns, ref, None)
            attempted += tried
            failed += bad
            if broken:
                break
            untraced_rates.append(ctx.chunk / (time.perf_counter() - t))
            t = time.perf_counter()
            for i in range(ctx.chunk):
                attempted += 1
                try:
                    s = traced_session(ctx, clients, i)
                except SESSION_FAILURES:
                    failed += 1
                    broken = True
                    break
                sessions.append(s)
                failed += not s.ok or s.record != ref[i]
            else:
                traced_rates.append(ctx.chunk / (time.perf_counter() - t))
            if (time.perf_counter() >= deadline
                    or len(sessions) >= TRACE_CAP):
                break
        recv_calls = sum(c.recv_calls for c in clients)
    # Each server answers exactly one query per session, in session order.
    per_server = [e.answers for e in ends]
    if any(len(a) != len(sessions) for a in per_server) or any(
            a[j][0] != s.session_id
            for a in per_server for j, s in enumerate(sessions)):
        failed += 1
        per_server = [[] for _ in ends]
    metrics = layer_metrics(sessions, per_server, recv_calls)
    if untraced_rates and traced_rates:
        metrics["sim.trace_overhead"] = (statistics.median(untraced_rates)
                                         / statistics.median(traced_rates))
    write_spans(ctx, sessions, per_server)
    return {"correct": failed == 0 and bool(sessions), "attempted": attempted,
            "failed": failed, "metrics": metrics, "summary": {},
            "setup_s": None, "records_sha256": digest}


def layer_metrics(sessions: list, per_server: list, recv_calls: int) -> dict:
    count = len(sessions)
    if not count:
        return {}
    totals = dict.fromkeys(CLIENT_LAYERS + SERVER_LAYERS, 0)
    covered = 0
    for s in sessions:
        for name, a, b in s.spans:
            covered += b - a
            if name in totals:
                totals[name] += b - a
    for answers in per_server:
        for s, answer in zip(sessions, answers):
            for name, a, b in server_spans(s, answer):
                totals[name] += b - a
    walls = [s.end - s.start for s in sessions]
    p99 = statistics.quantiles(walls, n=100)[98] if count > 1 else walls[0]
    metrics = {f"{name}_us": total / count / 1e3
               for name, total in totals.items()}
    metrics.update({
        "transport.recv_calls_per_session": recv_calls / count,
        "sim.session_us": sum(walls) / count / 1e3,
        "sim.session_p99_us": p99 / 1e3,
        "sim.span_coverage": covered / sum(walls),
        "sim.decode_ok_ratio": sum(s.ok for s in sessions) / count,
        "wire.bytes_up_per_session": sum(s.bytes_up for s in sessions) / count,
        "wire.bytes_down_per_session":
            sum(s.bytes_down for s in sessions) / count,
        "wire.frames_per_session": sum(s.frames for s in sessions) / count,
    })
    return metrics


def write_spans(ctx: Context, sessions: list, per_server: list) -> None:
    """Every span as CSV: id, parent id, session, name, start, end (ns)."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{ctx.name}-seed{ctx.seed}.csv"
    next_id = 0
    with open(path, "w") as fh:
        fh.write("span_id,parent_id,session,name,start_ns,end_ns\n")
        for j, s in enumerate(sessions):
            root = next_id
            fh.write(f"{root},,{j},sim.session,{s.start},{s.end}\n")
            children = list(s.spans)
            for answers in per_server:
                if answers:
                    children += server_spans(s, answers[j])
            for name, a, b in children:
                next_id += 1
                fh.write(f"{next_id},{root},{j},{name},{a},{b}\n")
            next_id += 1
