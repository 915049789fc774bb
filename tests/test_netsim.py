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

import pytest

from alpir import (BitString, MessageStore, PathClass, SystemParams,
                   derived_rng, plan_partition)
from alpir.netsim import (CSV_HEADER, ERR_BAD_QUERY, MSG_ANSWER, MSG_ERROR,
                          MSG_HELLO, decode_answer, decode_error, deployment,
                          encode_frame, encode_hello, encode_query,
                          memory_pair, provision, read_frame, records_to_csv,
                          retrieve, run_trials, serve_connection, wire)

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
    ], ids=["worked", "wide-k"])
    def test_pinned_digests(self, params, trials, records_sha, counts_sha):
        stats = run_trials(trials, params, seed=7, transport="memory")
        buf = io.StringIO()
        records_to_csv(stats.records, buf)
        counts = repr(sorted(stats.structure_counts.items()))
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
            records_sha
        assert hashlib.sha256(counts.encode()).hexdigest() == counts_sha


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
