"""Acceptance gate: ten go/no-go criteria, one test per criterion.

Run with -v to get one pass/fail line per criterion. Each test pins the
tolerance it checks against; wall-clock budgets are asserted where the
criterion carries one.
"""

import math
import random
import struct
import threading
import time
from itertools import product

import pytest

from alpir import (BitString, MessageStore, SystemParams, answer,
                   bounds_report, classify_base, decode, derived_rng,
                   empirical_query_audit, exact_mi_oracle, expected_cost,
                   layout_for_key_bits, make_queries, path_distribution,
                   plan_partition, single_server_cost)
from alpir.cli import main
from alpir.netsim import (MSG_ERROR, MSG_HELLO, MSG_QUERY, decode_answer,
                          encode_frame, encode_query, memory_pair, read_frame,
                          serve_connection)
from alpir.scheme import PathChoice, QueryVector
from alpir.netsim import run_trials

EXACT = 1e-12
ORACLE_TOL = 1e-9
CAP_SLACK = 1e-9

WORKED = SystemParams(2, 2, 3, math.log(1.5), 4 / 15)

EPS_GRID = [0.25 * j for j in range(21)]        # 0 .. 5
DELTA_GRID = [0.05 * j for j in range(21)]      # 0 .. 1
SHAPES = [(n, k) for n in (2, 3, 5) for k in (2, 3, 4)]


def _params(n, k, eps, delta):
    return SystemParams(n, k, 4 * (n - 1), eps, delta)


def test_c01_perfect_privacy_cost_is_exact():
    """Both bounds and the planned rate hit the zero-leakage point."""
    for n in (2, 3, 5):
        p = _params(n, 2, 0.0, 0.0)
        expect = n / (n - 1)
        rep = bounds_report(p)
        assert abs(rep.d_upper - expect) <= EXACT
        assert abs(rep.d_lower - expect) <= EXACT
        assert abs(rep.alpha1 - 1 / (n - 1)) <= EXACT
        assert rep.regime == "SPIR"
        assert abs(rep.reference_cost - expect) <= EXACT


def test_c02_classic_pir_point_is_geometric_sum():
    """At eps = 0 and the leakage threshold, cost is sum of n^-j."""
    for n in (2, 3):
        for k in (2, 3, 4):
            thr = bounds_report(_params(n, k, 0.0, 0.0)).delta1
            rep = bounds_report(_params(n, k, 0.0, thr))
            expect = sum(n ** -j for j in range(k))
            assert abs(rep.d_upper - expect) <= EXACT
            assert abs(rep.d_lower - expect) <= EXACT
            assert rep.regime == "PIR"


def test_c03_worked_example_end_to_end():
    """One-bit key, cost 1.6 exactly, simulation within 1%, oracle 0.8."""
    start = time.perf_counter()
    layout = plan_partition(WORKED)
    assert layout.key_bits == 1
    assert abs(expected_cost(WORKED, layout) - 1.6) <= EXACT

    stats = run_trials(100_000, WORKED, seed=20260817)
    assert stats.decode_failures == 0
    assert abs(stats.mean_cost - 1.6) <= 0.016, stats.mean_cost

    oracle = exact_mi_oracle(WORKED, layout)
    assert abs(oracle.max_bits - 0.8) <= ORACLE_TOL, oracle.max_bits

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_c04_bound_gap_stays_inside_cap():
    """Gap ratio <= (n - e^-eps)/(n - 1) on the whole grid, 1 at eps 0."""
    start = time.perf_counter()
    for n, k in SHAPES:
        for eps in EPS_GRID:
            for delta in DELTA_GRID:
                rep = bounds_report(_params(n, k, eps, delta))
                assert rep.gap_ratio <= rep.gap_cap + CAP_SLACK, (
                    n, k, eps, delta)
                if eps == 0.0:
                    assert abs(rep.gap_ratio - 1.0) <= EXACT, (n, k, delta)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_c05_threshold_ordering_and_continuity():
    """delta1 >= delta2, alpha1 >= alpha2, and no jump at either knee."""
    for n, k in SHAPES:
        for eps in EPS_GRID:
            rep = bounds_report(_params(n, k, eps, 0.0))
            t1, t2 = rep.delta1, rep.delta2
            assert t1 >= t2 - EXACT, (n, k, eps)
            for delta in DELTA_GRID:
                rep = bounds_report(_params(n, k, eps, delta))
                assert rep.alpha1 >= rep.alpha2 - EXACT
            for thr, name in ((t1, "d_upper"), (t2, "d_lower")):
                if thr == 0.0:
                    continue
                below, at = (
                    getattr(bounds_report(_params(n, k, eps, d)), name)
                    for d in (math.nextafter(thr, 0.0), thr))
                assert abs(below - at) <= EXACT, (n, k, eps, name)


def test_c06_exhaustive_decoding_of_small_instances():
    """Every message value, key, base and target decodes exactly.

    The independent reference for selfcheck.check_exhaustive_correctness:
    it answers every query of every session afresh, where the check
    answers each distinct query vector once per store."""
    start = time.perf_counter()
    checked = 0
    for n, k, l, key_sizes in ((2, 2, 2, (0, 1)), (3, 2, 4, (0, 1, 2))):
        p = SystemParams(n, k, l, 0.5, 0.0)
        for s in key_sizes:
            layout = layout_for_key_bits(p, s)
            msg_values = list(product(range(1 << l), repeat=k))
            for values in msg_values:
                msgs = tuple(BitString(v, l) for v in values)
                for key_value in range(1 << s):
                    store = MessageStore(msgs, BitString(key_value, s))
                    for base in product(range(n), repeat=k):
                        for desired in range(k):
                            cls = classify_base(base, desired)
                            qs = make_queries(
                                PathChoice(base, desired, cls), p)
                            ans = [answer(store, layout, q) for q in qs]
                            got = decode(ans, qs, desired)
                            assert got == msgs[desired], (
                                n, s, values, key_value, base, desired)
                            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 32640
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c07_query_likelihood_ratio_law():
    """p/q equals e^eps exactly; sampled ratios sit in the 3-sigma band."""
    for n, k in SHAPES:
        for eps in EPS_GRID[1:]:
            dist = path_distribution(_params(n, k, eps, 0.0))
            assert abs(dist.p / dist.q - math.exp(eps)) <= \
                math.exp(eps) * EXACT, (n, k, eps)
    audit = empirical_query_audit(100_000, WORKED, seed=20260817)
    assert abs(audit.max_ratio - 1.5) <= audit.halfwidth, audit.to_dict()
    assert not audit.violation


def test_c08_single_server_boundary():
    """Below k-1 leaked bits per bit nothing works; at it, download all."""
    for k in (2, 3, 5):
        assert not single_server_cost(k, k - 1 - 1e-9).feasible
        assert math.isinf(single_server_cost(k, 0.0).cost)
        at = single_server_cost(k, float(k - 1))
        assert at.feasible and at.cost == k
        above = single_server_cost(k, k + 0.5)
        assert above.feasible and above.cost == k


def test_c09_cost_curves_from_the_cli(tmp_path):
    """Exported curves decrease in eps, start at 2 - delta, and merge
    with the 1 + delta1(eps) ceiling once delta clears the threshold."""
    curves = {}
    for delta in (0.0, 0.1, 0.2, 0.4):
        out = tmp_path / f"curve_{delta}.csv"
        code = main(["bounds", "--n", "2", "--k", "2",
                     "--eps-grid", "0:10:0.25", "--delta", str(delta),
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().split("\n")
        header = rows[0].split(",")
        i_eps = header.index("eps")
        i_up = header.index("d_upper")
        i_t1 = header.index("delta1")
        curve = [(float(r.split(",")[i_eps]), float(r.split(",")[i_up]),
                  float(r.split(",")[i_t1])) for r in rows[1:]]
        assert len(curve) == 41
        curves[delta] = curve

    for delta, curve in curves.items():
        assert abs(curve[0][1] - (2.0 - delta)) <= EXACT, delta
        for (_, prev, _), (_, cur, _) in zip(curve, curve[1:]):
            assert cur <= prev + EXACT, delta
    merged = 0
    for eps, cost, t1 in curves[0.4]:
        if 0.4 >= t1:
            assert abs(cost - (1.0 + t1)) <= EXACT, eps
            merged += 1
    assert merged > 0


def test_c10_wire_robustness_and_round_trips():
    """10^4 malformed frames draw only Error frames and no crash;
    10^4 well-formed queries round-trip to the exact local answers."""
    layout = plan_partition(WORKED)
    store = MessageStore.random(WORKED, layout, derived_rng(1, "store"))
    crashes = []

    def serve(conn):
        try:
            serve_connection(0, store, layout, conn)
        except BaseException as exc:  # noqa: BLE001 - the point is recording
            crashes.append(exc)

    def fresh_server():
        client, server = memory_pair()
        t = threading.Thread(target=serve, args=(server,), daemon=True)
        t.start()
        return client, t

    rng = random.Random(20260817)
    threads = []

    # class A: broken framing (bad length prefix); fatal per connection
    for _ in range(3000):
        conn, t = fresh_server()
        threads.append(t)
        bad_len = rng.choice([0, (1 << 24) + 1 + rng.randrange(1 << 10)])
        conn.send(struct.pack(">I", bad_len) + bytes(rng.randrange(256)
                                                     for _ in range(4)))
        frame = read_frame(conn)
        assert frame is not None and frame.msg_type == MSG_ERROR
        assert read_frame(conn) is None  # server hung up
        conn.close()

    # class B: well-framed but invalid payloads; one long-lived connection
    conn, t = fresh_server()
    threads.append(t)
    for _ in range(4000):
        kind = rng.randrange(4)
        if kind == 0:  # query payload garbage
            payload = bytes(rng.randrange(256)
                            for _ in range(rng.randrange(8)))
            conn.send(encode_frame(MSG_QUERY, payload))
        elif kind == 1:  # query vector out of range or wrong length
            indices = tuple(rng.randrange(2, 9)
                            for _ in range(rng.choice([1, 2, 3, 5])))
            conn.send(encode_query(rng.randrange(1 << 32), indices))
        elif kind == 2:  # hello with a bogus payload size
            conn.send(encode_frame(MSG_HELLO, b"\x01\x01"))
        else:  # message types the server never accepts
            bad_type = rng.choice([0x00, 0x03, 0x04, 0x7F, 0xFF])
            conn.send(encode_frame(bad_type, b"junk"))
        frame = read_frame(conn)
        assert frame is not None and frame.msg_type == MSG_ERROR
    conn.close()

    # class C: truncated frame then hangup; server must exit cleanly
    for _ in range(3000):
        conn, t = fresh_server()
        threads.append(t)
        good = encode_query(5, (1, 0))
        conn.send(good[:rng.randrange(1, len(good))])
        conn.close()

    # valid round-trips: answers must match local evaluation exactly
    conn, t = fresh_server()
    threads.append(t)
    for i in range(10_000):
        indices = (rng.randrange(2), rng.randrange(2))
        conn.send(encode_query(i, indices))
        frame = read_frame(conn)
        assert frame.msg_type != MSG_ERROR, frame
        sid, ans = decode_answer(frame.payload)
        assert sid == i
        assert ans == answer(store, layout, QueryVector(indices))
    conn.close()

    for t in threads:
        t.join(timeout=5.0)
        assert not t.is_alive()
    assert crashes == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
