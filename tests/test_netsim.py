"""End-to-end sessions over simulated deployments, memory and TCP.

The structural non-collusion checks live here too: each server handler
is constructed from one database's connection plus the replicated store,
and the transports below prove no bytes flow between servers.
"""

import hashlib
import inspect
import io
import math
import random
import threading
import time

import pytest

from alpir import (Answer, BitString, MessageStore, PathClass, QueryVector,
                   SystemParams, answer, derived_rng, empirical_cost_audit,
                   make_queries, path_distribution, plan_partition,
                   sample_path)
from alpir.netsim import (CSV_HEADER, ERR_BAD_QUERY, MSG_ANSWER, MSG_ERROR,
                          MSG_HELLO, SessionError, TcpListener,
                          decode_answer, decode_error, decode_query,
                          deployment, encode_answer, encode_error,
                          encode_frame, encode_hello, encode_query,
                          memory_pair, provision, read_frame, records_to_csv,
                          retrieve, run_trials, serve_connection, sim,
                          tcp_connect, transport, wire)

WORKED = SystemParams(2, 2, 3, math.log(1.5), 4 / 15)
WORKED_LAYOUT = plan_partition(WORKED)
STORE = MessageStore((BitString(0b101, 3), BitString(0b011, 3)),
                     BitString(1, 1))


def start_server(db_index=0, store=STORE, layout=WORKED_LAYOUT):
    import threading
    client, server = memory_pair()
    t = threading.Thread(target=serve_connection,
                         args=(db_index, store, layout, server), daemon=True)
    t.start()
    return client, t


class TestServeConnection:
    def test_hello_echo(self):
        conn, _ = start_server()
        conn.send(encode_hello())
        frame = read_frame(conn)
        assert frame.msg_type == MSG_HELLO
        conn.close()

    def test_zero_query_answer(self):
        conn, _ = start_server()
        conn.send(encode_frame(wire.MSG_QUERY, encode_query(7, (0, 0))[5:]))
        frame = read_frame(conn)
        assert frame.msg_type == MSG_ANSWER
        sid, ans = decode_answer(frame.payload)
        assert sid == 7
        assert ans.masked == BitString(1, 1)  # the key itself
        assert ans.open.nbits == 0
        conn.close()

    def test_full_query_answer(self):
        conn, _ = start_server()
        conn.send(encode_query(9, (1, 1)))
        sid, ans = decode_answer(read_frame(conn).payload)
        assert sid == 9
        assert ans.masked == BitString(0, 1)
        assert ans.open == BitString(0b10, 2)
        conn.close()

    def test_bad_query_vector_is_recoverable(self):
        conn, _ = start_server()
        conn.send(encode_query(1, (5, 0)))  # index out of range
        frame = read_frame(conn)
        assert frame.msg_type == MSG_ERROR
        code, _ = decode_error(frame.payload)
        assert code == ERR_BAD_QUERY
        # the same connection still serves good queries
        conn.send(encode_query(2, (0, 0)))
        assert read_frame(conn).msg_type == MSG_ANSWER
        conn.close()

    def test_wrong_query_length_is_recoverable(self):
        conn, _ = start_server()
        conn.send(encode_query(1, (0, 0, 0)))
        frame = read_frame(conn)
        assert frame.msg_type == MSG_ERROR
        assert decode_error(frame.payload)[0] == ERR_BAD_QUERY
        conn.close()

    def test_framing_damage_is_fatal(self):
        conn, _ = start_server()
        conn.send(b"\x00\x00\x00\x00\x00")  # zero-length frame
        frame = read_frame(conn)
        assert frame.msg_type == MSG_ERROR
        assert read_frame(conn) is None  # server hung up

    def test_unknown_type_reported(self):
        conn, _ = start_server()
        conn.send(encode_frame(0x7F, b""))
        frame = read_frame(conn)
        assert frame.msg_type == MSG_ERROR
        assert decode_error(frame.payload)[0] == wire.ERR_UNKNOWN_TYPE
        conn.close()


class TestRetrieve:
    def test_single_session(self):
        store = provision(WORKED, WORKED_LAYOUT, derived_rng(1, "store"))
        with deployment(WORKED, WORKED_LAYOUT, store) as conns:
            decoded, record = retrieve(WORKED, WORKED_LAYOUT, 0, conns,
                                       derived_rng(1, "session", 0),
                                       expected=store.messages[0])
        assert decoded == store.messages[0]
        assert record.decode_ok
        assert record.bits_downloaded in (4, 6)
        assert record.leaked_bits == (0 if record.path_class is PathClass.LOW
                                      else 2)

    def test_desired_validated_before_sending(self):
        sent = []

        class Probe:
            def send(self, data):
                sent.append(data)

            def recv(self, n):
                return b""

            def close(self):
                pass

        with pytest.raises(ValueError):
            retrieve(WORKED, WORKED_LAYOUT, 2, [Probe(), Probe()],
                     random.Random(0))
        assert sent == []

    def test_connection_count_must_match(self):
        with pytest.raises(ValueError):
            retrieve(WORKED, WORKED_LAYOUT, 0, [], random.Random(0))


class TestRunTrials:
    def test_aggregates(self):
        stats = run_trials(400, WORKED, seed=2)
        assert len(stats.records) == 400
        assert stats.decode_failures == 0
        assert {r.bits_downloaded for r in stats.records} == {4, 6}
        assert stats.trials_per_message == {0: 200, 1: 200}
        assert 1.3 < stats.mean_cost < 2.0
        assert 0 < stats.low_frequency < 1
        # every leaked bit count matches its path class
        for r in stats.records:
            expect = 0 if r.path_class is PathClass.LOW else 2
            assert r.leaked_bits == expect

    def test_structure_counts_sum_to_sessions(self):
        stats = run_trials(300, WORKED, seed=8)
        for k in (0, 1):
            for db in (0, 1):
                total = sum(c for (kk, d, _), c in
                            stats.structure_counts.items()
                            if kk == k and d == db)
                assert total == stats.trials_per_message[k]

    def test_reproducible(self):
        a = run_trials(200, WORKED, seed=5)
        b = run_trials(200, WORKED, seed=5)
        assert a.records == b.records
        assert a.structure_counts == b.structure_counts

    def test_tcp_matches_memory(self):
        mem = run_trials(150, WORKED, seed=6, transport="memory")
        tcp = run_trials(150, WORKED, seed=6, transport="tcp")
        assert mem.records == tcp.records

    def test_relabeling_changes_nothing_observable(self):
        on = run_trials(200, WORKED, seed=7, relabel=True)
        off = run_trials(200, WORKED, seed=7, relabel=False)
        assert on.decode_failures == off.decode_failures == 0
        assert [r.bits_downloaded for r in on.records] == \
               [r.bits_downloaded for r in off.records]

    def test_pinned_desired(self):
        stats = run_trials(100, WORKED, seed=3, desired=1)
        assert stats.trials_per_message == {1: 100}
        assert all(r.desired == 1 for r in stats.records)

    def test_upload_accounting(self):
        # every session uploads K index bytes plus headers to each DB;
        # the mean is constant across sessions
        stats = run_trials(50, WORKED, seed=4)
        assert stats.mean_upload_bits > 0
        assert stats.mean_upload_bits == int(stats.mean_upload_bits)

    def test_three_databases(self):
        p = SystemParams(3, 2, 4, 0.5, 0.3)
        stats = run_trials(300, p, seed=11)
        assert stats.decode_failures == 0
        lay = plan_partition(p)
        low = lay.message_bits + lay.key_bits
        high = 3 * (lay.masked_subpacket_bits + lay.open_subpacket_bits)
        assert {r.bits_downloaded for r in stats.records} <= {low, high}

    def test_validation(self):
        with pytest.raises(ValueError):
            run_trials(0, WORKED, seed=0)
        with pytest.raises(ValueError):
            run_trials(10, WORKED, seed=0, transport="carrier-pigeon")


class TestDeterminismGolden:
    """Records and query counts of fixed-seed runs, pinned as sha256 of the
    CSV export and of repr(sorted(structure_counts.items())). A change to
    the session path must leave both byte-identical."""

    @pytest.mark.parametrize("params, trials, records_sha, counts_sha", [
        (WORKED, 2000,
         "d4a95db57ec74d359ec4c41fefd24e043c974085012dbf539a63b7d95f634354",
         "957a30c84f7a56dc877651bed50e3bdfdf5d3c8c55a4afc6e7164186742dc317"),
        (SystemParams(2, 255, 40, 0.5, 0.5), 200,
         "2340f2eabb9cc5083292ee6ae2e25cf31deb17df8dc6baba06651f6299dd17b5",
         "40cb33c20ffb77ace1b7e600870987bf6f2814899179ef8f10bdd5bb3b8e6c32"),
        # N=3 and N=5 reject draws with 2- and 3-bit words, unlike N=2.
        (SystemParams(3, 255, 40, 0.5, 0.5), 200,
         "5cd9752d1dd31444735eefa46c6a4c385bfffc043ee4abe5710306287516c004",
         "dbfebe39e2429ec18698ea669c228fc3d02e7123cfc5b7897a18b0c8f8a70949"),
        (SystemParams(5, 255, 40, 0.5, 0.5), 200,
         "339b9ebbedbd5060e7367e00861b2883a7be77293cad68f4987f773985a5f5df",
         "443abd1785daf3b612d40aa36eac251532978fc5372fd8b603aaf2e7d2452348"),
    ], ids=["worked", "wide-k", "wide-k-n3", "wide-k-n5"])
    def test_pinned_digests(self, params, trials, records_sha, counts_sha):
        stats = run_trials(trials, params, seed=7, transport="memory")
        buf = io.StringIO()
        records_to_csv(stats.records, buf)
        counts = repr(sorted(stats.structure_counts.items()))
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
            records_sha
        assert hashlib.sha256(counts.encode()).hexdigest() == counts_sha

    @pytest.mark.parametrize("params, digest", [
        (SystemParams(2, 64, 40, 44.0, 0.5),
         "d47d570b2deafb61a5df5d7462116ef0fb25b463a120422c224d66460054b3ff"),
        (SystemParams(3, 40, 40, 43.0, 0.5),
         "19a9fb5f4124fb4c622c200aa3274523ace46a72893c8f06e39eac6316f28840"),
    ], ids=["n2-k64", "n3-k40"])
    def test_wide_cost_audit_digest(self, params, digest):
        """One RNG serves all 2,000 paths, and about half of them are
        low-cost, so the count pins the RNG state each draw leaves."""
        res = empirical_cost_audit(2000, params, seed=3)
        assert hashlib.sha256(repr(res.to_dict()).encode()).hexdigest() == \
            digest

    @pytest.mark.parametrize("transport_name", ["memory", "tcp"])
    def test_packed_width_digests(self, transport_name):
        """A 7,180-byte masked part, worked on packed, beside a 1,013-byte
        open part, worked as an int: decode joins the two forms."""
        stats = run_trials(60, SystemParams(2, 4, 1 << 16, 0.5, 0.1),
                           seed=7, transport=transport_name)
        buf = io.StringIO()
        records_to_csv(stats.records, buf)
        counts = repr(sorted(stats.structure_counts.items()))
        assert stats.decode_failures == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "6295f4d7678dd66424e6c00d685f4b839c334bb8a71f8b5fc15a6ad1823e5f09")
        assert hashlib.sha256(counts.encode()).hexdigest() == (
            "a00056d5f5572c6bf4519e5c3418e74d4968ed1d6e28069f83fa89e17b0966a1")


class TestCsvExport:
    def test_header_and_rows(self):
        stats = run_trials(5, WORKED, seed=1)
        buf = io.StringIO()
        records_to_csv(stats.records, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == CSV_HEADER == "session_id,desired,class,bits,leaked_bits"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[2] in ("Low", "High")
        assert first[3] in ("4", "6")


class TestNonCollusion:
    def test_server_handler_sees_one_connection_only(self):
        """The handler signature admits one store and one connection."""
        sig = inspect.signature(serve_connection)
        assert list(sig.parameters) == ["db_index", "store", "layout", "conn"]

    def test_no_cross_server_bytes(self):
        """Wrap every endpoint; servers only ever talk to their own peer."""
        traffic = {}

        class Tap:
            def __init__(self, inner, label):
                self.inner, self.label = inner, label

            def send(self, data):
                traffic.setdefault(self.label, 0)
                traffic[self.label] += len(data)
                self.inner.send(data)

            def recv(self, n):
                return self.inner.recv(n)

            def close(self):
                self.inner.close()

        store = provision(WORKED, WORKED_LAYOUT, derived_rng(0, "store"))
        with deployment(WORKED, WORKED_LAYOUT, store) as conns:
            tapped = [Tap(c, f"client->db{d}") for d, c in enumerate(conns)]
            for i in range(20):
                retrieve(WORKED, WORKED_LAYOUT, i % 2, tapped,
                         derived_rng(42, "session", i), session_id=i)
        # exactly one client channel per database and nothing else
        assert set(traffic) == {"client->db0", "client->db1"}

    def test_servers_hold_replicated_store(self):
        """All servers answer from equal copies; none needs another's view."""
        store = provision(WORKED, WORKED_LAYOUT, derived_rng(3, "store"))
        answers = []
        for d in (0, 1):
            conn, _ = start_server(db_index=d, store=store)
            conn.send(encode_query(1, (1, 1)))
            answers.append(decode_answer(read_frame(conn).payload)[1])
            conn.close()
        assert answers[0] == answers[1]


WIDE_K = SystemParams(2, 255, 40, 0.5, 0.5)


def lockstep_reference(trials, params, seed, transport_name):
    """Records from a loop of lock-step retrieve calls, and query counts
    rebuilt from the same per-session RNG streams."""
    layout = plan_partition(params)
    store = provision(params, layout, derived_rng(seed, "store"))
    dist = path_distribution(params)
    records, counts = [], {}
    with deployment(params, layout, store, transport_name) as conns:
        for i in range(trials):
            k = i % params.n_messages
            _, record = retrieve(params, layout, k, conns,
                                 derived_rng(seed, "session", i),
                                 session_id=i, expected=store.messages[k])
            records.append(record)
            choice = sample_path(dist, k, derived_rng(seed, "session", i))
            for db, qv in enumerate(make_queries(choice, params)):
                cell = (k, db, qv.indices)
                counts[cell] = counts.get(cell, 0) + 1
    return records, counts


class TestPipelining:
    def test_window_sizes(self):
        large = SystemParams(2, 4, 1 << 22, 0.5, 0.1)
        assert [sim.pipeline_window(p, plan_partition(p))
                for p in (WORKED, WIDE_K, large)] == [420, 55, 1]

    @pytest.mark.parametrize("transport_name", ["memory", "tcp"])
    @pytest.mark.parametrize("params, trials", [
        (WORKED, 1), (WORKED, 419), (WORKED, 420), (WORKED, 421),
        (WIDE_K, 56),
    ], ids=["1", "window-1", "window", "window+1", "wide-k-window+1"])
    def test_equals_lockstep_retrieve(self, params, trials, transport_name):
        stats = run_trials(trials, params, seed=13, transport=transport_name)
        records, counts = lockstep_reference(trials, params, 13,
                                             transport_name)
        assert stats.records == records
        assert stats.structure_counts == counts

    def test_window_of_one_changes_nothing(self, monkeypatch):
        piped = run_trials(300, WORKED, seed=21)
        monkeypatch.setattr(sim, "IN_FLIGHT_BYTES", 1)
        assert sim.pipeline_window(WORKED, WORKED_LAYOUT) == 1
        assert run_trials(300, WORKED, seed=21) == piped

    def test_tcp_runs_leave_no_threads(self):
        """stop() wakes the accept loop and joins it, so repeated runs do
        not pile up threads that keep their stores alive."""
        baseline = threading.active_count()
        for seed in range(6):
            run_trials(20, WORKED, seed=seed, transport="tcp")
            assert threading.active_count() == baseline
        handle = sim.ServerHandle(0, STORE, WORKED_LAYOUT)
        tcp_connect(handle.start_tcp()).close()
        handle.stop()
        assert threading.active_count() == baseline

    def test_tcp_clients_do_not_block_each_other(self, monkeypatch):
        """A second client is greeted and answered while the first is
        still connected; stop() then joins both connection threads."""
        monkeypatch.setattr(transport, "READ_DEADLINE_S", 5.0)
        baseline = threading.active_count()
        handle = sim.ServerHandle(0, STORE, WORKED_LAYOUT)
        port = handle.start_tcp()
        first, second = tcp_connect(port), tcp_connect(port)
        try:
            for conn in (first, second):
                conn.send(encode_hello())
                assert read_frame(conn).msg_type == MSG_HELLO
            for sid, conn in enumerate((second, first)):
                conn.send(encode_query(sid, (1, 0)))
                got_sid, ans = decode_answer(read_frame(conn).payload)
                assert got_sid == sid
                assert ans == answer(STORE, WORKED_LAYOUT, QueryVector((1, 0)))
        finally:
            first.close()
            second.close()
            handle.stop()
        assert threading.active_count() == baseline

    def test_large_answers_over_tcp_complete(self):
        """Answers far above the socket buffers must not deadlock."""
        p = SystemParams(2, 4, 1 << 20, 0.5, 0.1)
        stats = run_trials(30, p, seed=3, transport="tcp")
        assert len(stats.records) == 30
        assert stats.decode_failures == 0


def faulty_server(fault, after):
    """A serve_connection stand-in: database 0 answers `after` queries
    correctly, then misbehaves on every later one; the others are real."""

    def serve(db_index, store, layout, conn):
        if db_index:
            return serve_connection(db_index, store, layout, conn)
        served = 0
        try:
            while True:
                frame = read_frame(conn)
                if frame is None:
                    return
                if frame.msg_type == MSG_HELLO:
                    if fault != "silent-hello":
                        conn.send(encode_hello())
                    continue
                sid, indices = decode_query(frame.payload)
                if served >= after:
                    if fault in ("silent", "silent-hello"):
                        continue
                    if fault == "close":
                        return
                    if fault == "error":
                        conn.send(encode_error(ERR_BAD_QUERY, "refused"))
                        continue
                    if fault == "open-width":   # open part always empty
                        ans = answer(store, layout, QueryVector(indices))
                        conn.send(encode_answer(
                            sid, Answer(ans.masked, BitString(0, 0))))
                        continue
                    sid += 1                           # "wrong-id"
                served += 1
                conn.send(encode_answer(
                    sid, answer(store, layout, QueryVector(indices))))
        except OSError:
            return                  # the client hung up first
        finally:
            conn.close()

    return serve


class TestSessionFaults:
    @pytest.mark.parametrize("transport_name", ["memory", "tcp"])
    @pytest.mark.parametrize("fault", ["error", "close", "wrong-id",
                                       "open-width"])
    @pytest.mark.parametrize("after", [0, 7])
    def test_fault_raises_session_error(self, monkeypatch, fault, after,
                                        transport_name):
        monkeypatch.setattr(sim, "serve_connection",
                            faulty_server(fault, after))
        with pytest.raises(SessionError):
            run_trials(50, WORKED, seed=1, transport=transport_name)

    @pytest.mark.parametrize("transport_name", ["memory", "tcp"])
    @pytest.mark.parametrize("fault", ["silent", "silent-hello"])
    def test_stalled_server_hits_read_deadline(self, monkeypatch, fault,
                                               transport_name):
        monkeypatch.setattr(transport, "READ_DEADLINE_S", 0.2)
        monkeypatch.setattr(sim, "serve_connection", faulty_server(fault, 3))
        t = time.perf_counter()
        with pytest.raises(SessionError):
            run_trials(50, WORKED, seed=1, transport=transport_name)
        assert time.perf_counter() - t < 1.0

    def test_stalled_server_fails_retrieve(self, monkeypatch):
        monkeypatch.setattr(transport, "READ_DEADLINE_S", 0.2)
        monkeypatch.setattr(sim, "serve_connection",
                            faulty_server("silent", 0))
        store = provision(WORKED, WORKED_LAYOUT, derived_rng(1, "store"))
        with deployment(WORKED, WORKED_LAYOUT, store) as conns:
            with pytest.raises(SessionError, match="deadline"):
                retrieve(WORKED, WORKED_LAYOUT, 0, conns, random.Random(0))


class TestChannelConnection:
    def test_reads_across_and_within_chunks(self):
        client, server = memory_pair()
        for chunk in (b"abcdef", b"", b"gh", b"ijklmnop"):
            server.send(chunk)
        server.close()
        got = [client.recv(n) for n in (4, 100, 1, 1, 3, 64)]
        assert got == [b"abcd", b"ef", b"g", b"h", b"ijk", b"lmnop"]
        assert client.recv(8) == b""
        assert client.recv(8) == b""


class TestReadDeadline:
    def test_memory_client_end_times_out(self, monkeypatch):
        monkeypatch.setattr(transport, "READ_DEADLINE_S", 0.05)
        client, server = memory_pair()
        with pytest.raises(TimeoutError):
            client.recv(4)
        server.send(b"late")
        assert client.recv(4) == b"late"

    def test_tcp_client_end_times_out(self, monkeypatch):
        monkeypatch.setattr(transport, "READ_DEADLINE_S", 0.05)
        listener = TcpListener()
        client = tcp_connect(listener.port)
        server = listener.accept()
        listener.close()
        try:
            with pytest.raises(TimeoutError):
                client.recv(4)
            server.send(b"late")
            assert client.recv(4) == b"late"
        finally:
            client.close()
            server.close()
