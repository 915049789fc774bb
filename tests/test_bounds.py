"""Closed-form bound checks against independently derived values.

Expected numbers are frozen as explicit fractions or hand-simplified
expressions, never recomputed through the code under test.
"""

import hashlib
import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alpir import (Bounds, SystemParams, bounds_report, path_distribution,
                   plan_partition, single_server_cost)
from alpir.bounds import bounds_rows
from alpir.params import MAX_DATABASES
from bounds_reference import CTX, reference_forms, ulps

EXACT = 1e-12


def params(n, k, eps, delta, l=None):
    return SystemParams(n, k, l if l is not None else 4 * (n - 1), eps,
                        delta)


def report(n, k, eps, delta, l=None):
    return bounds_report(params(n, k, eps, delta, l))


WORKED = params(2, 2, math.log(1.5), 4 / 15, l=3)


class TestThresholds:
    def test_delta1_worked_point(self):
        assert bounds_report(WORKED).delta1 == pytest.approx(0.4, abs=EXACT)

    def test_delta1_at_eps_zero(self):
        assert report(2, 2, 0.0, 0.0).delta1 == 0.5

    def test_delta1_hand_value(self):
        # (9-1) / (2 (e + 8)) simplified by hand
        expect = 4.0 / (math.e + 8.0)
        assert report(3, 3, 1.0, 0.0).delta1 == pytest.approx(
            expect, abs=EXACT)

    def test_delta2_at_eps_zero(self):
        assert report(2, 2, 0.0, 0.0).delta2 == 0.5

    def test_delta2_worked_point(self):
        # ((2*1.5)-1) / ((2*1.5-1) * 3) = 2/6
        assert bounds_report(WORKED).delta2 == pytest.approx(1 / 3,
                                                             abs=EXACT)

    def test_delta2_three_messages(self):
        # F = 2, K-1 = 2: (4-1)/((2-1)*4) = 3/4; also forced by the
        # eps=0 coincidence with delta1 = (4-1)/(1*4).
        rep = report(2, 3, 0.0, 0.0)
        assert rep.delta2 == pytest.approx(0.75, abs=EXACT)
        assert rep.delta2 == pytest.approx(rep.delta1, abs=EXACT)

    def test_thresholds_vanish_at_unbounded_eps(self):
        rep = report(3, 2, math.inf, 0.0)
        assert rep.delta1 == 0.0
        assert rep.delta2 == 0.0

    def test_ordering_on_grid(self):
        for n in (2, 3, 5):
            for k in (2, 3, 4):
                for eps in [0.25 * j for j in range(21)]:
                    rep = report(n, k, eps, 0.0)
                    assert rep.delta1 >= rep.delta2 - EXACT


class TestKeyRates:
    def test_alpha1_spir(self):
        assert report(2, 2, 0.0, 0.0).alpha1 == 1.0
        assert report(3, 2, 0.0, 0.0).alpha1 == 0.5

    def test_alpha1_worked_point(self):
        assert bounds_report(WORKED).alpha1 == pytest.approx(1 / 3,
                                                             abs=EXACT)

    def test_alpha1_zero_past_threshold(self):
        assert report(2, 2, 5.0, 0.5).alpha1 == 0.0

    def test_alpha1_zero_exactly_at_threshold(self):
        thr = report(2, 2, 1.0, 0.0).delta1
        assert report(2, 2, 1.0, thr).alpha1 == 0.0

    def test_alpha2_examples(self):
        assert report(2, 2, 0.0, 0.0).alpha2 == 1.0
        assert report(2, 2, 0.0, 0.25).alpha2 == pytest.approx(
            0.5, abs=EXACT)
        thr = report(2, 2, 1.0, 0.0).delta2
        assert report(2, 2, 1.0, thr).alpha2 == 0.0

    def test_alpha_ordering_on_grid(self):
        for n in (2, 3, 5):
            for eps in (0.0, 0.5, 2.0):
                for delta in [0.05 * j for j in range(21)]:
                    rep = report(n, 3, eps, delta)
                    assert rep.alpha1 >= rep.alpha2 - EXACT

    def test_alpha_zero_at_unbounded_eps_even_for_delta_zero(self):
        rep = report(2, 2, math.inf, 0.0)
        assert rep.alpha1 == 0.0
        assert rep.alpha2 == 0.0


class TestCosts:
    def test_spir_exact(self):
        for n, expect in ((2, 2.0), (3, 1.5), (5, 1.25)):
            rep = report(n, 2, 0.0, 0.0)
            assert rep.d_upper == pytest.approx(expect, abs=EXACT)
            assert rep.d_lower == pytest.approx(expect, abs=EXACT)

    def test_pir_point_is_geometric_sum(self):
        for n in (2, 3):
            for k in (2, 3, 4):
                rep = report(n, k, 0.0, report(n, k, 0.0, 0.0).delta1)
                expect = sum(n ** -j for j in range(k))
                assert rep.d_upper == pytest.approx(expect, abs=EXACT)
                assert rep.d_lower == pytest.approx(expect, abs=EXACT)

    def test_worked_point(self):
        rep = bounds_report(WORKED)
        assert rep.d_upper == pytest.approx(1.6, abs=EXACT)
        # 1 + 1/2 - (4/15)/2 = 41/30
        assert rep.d_lower == pytest.approx(41 / 30, abs=EXACT)

    def test_large_eps_value(self):
        assert report(2, 2, 10.0, 0.4).d_upper == pytest.approx(
            1.0 + 1.0 / (math.e ** 10 + 1.0), abs=EXACT)

    def test_leaky_db_closed_form(self):
        # at eps=0 both bounds equal N/(N-1) - delta/(N^(K-1)-1) below
        # the threshold
        for n, k in ((2, 2), (3, 2), (2, 3)):
            thr = report(n, k, 0.0, 0.0).delta1
            for frac in (0.0, 0.3, 0.7, 0.999):
                delta = frac * thr
                rep = report(n, k, 0.0, delta)
                expect = n / (n - 1) - delta / (n ** (k - 1) - 1)
                assert rep.d_upper == pytest.approx(expect, abs=EXACT)
                assert rep.d_lower == pytest.approx(expect, abs=EXACT)

    def test_flat_past_threshold(self):
        thr = report(2, 3, 1.0, 0.0).delta1
        at = report(2, 3, 1.0, thr).d_upper
        assert at == 1.0 + thr
        assert report(2, 3, 1.0, 0.9).d_upper == at
        assert report(2, 3, 1.0, 5.0).d_upper == at

    def test_continuity_at_thresholds(self):
        for n, k, eps in ((2, 2, 0.5), (3, 4, 5.0), (5, 3, 2.0)):
            rep0 = report(n, k, eps, 0.0)
            for thr, name in ((rep0.delta1, "d_upper"),
                              (rep0.delta2, "d_lower")):
                below = getattr(
                    report(n, k, eps, math.nextafter(thr, 0.0)), name)
                at = getattr(report(n, k, eps, thr), name)
                assert abs(below - at) <= EXACT

    def test_unbounded_eps_costs_one(self):
        for delta in (0.0, 0.2, 1.0):
            rep = report(2, 2, math.inf, delta)
            assert rep.d_upper == 1.0
            assert rep.d_lower == 1.0

    def test_large_eps_matches_infinity(self):
        assert report(2, 2, 60.0, 0.1).d_upper == report(
            2, 2, math.inf, 0.1).d_upper

    @given(st.integers(2, 5), st.integers(2, 4),
           st.floats(0, 5), st.floats(0, 5),
           st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_eps_and_delta(self, n, k, e1, e2, x1, x2):
        lo_e, hi_e = sorted((e1, e2))
        lo_x, hi_x = sorted((x1, x2))
        base = report(n, k, lo_e, lo_x)
        for name in ("d_upper", "d_lower"):
            assert getattr(report(n, k, hi_e, lo_x), name) <= getattr(
                base, name) + EXACT
            assert getattr(report(n, k, lo_e, hi_x), name) <= getattr(
                base, name) + EXACT

    @given(st.integers(2, 5), st.integers(2, 4),
           st.floats(0, 6), st.floats(0, 1.2))
    @settings(max_examples=200, deadline=None)
    def test_gap_inside_cap(self, n, k, eps, delta):
        rep = report(n, k, eps, delta)
        assert 1.0 - EXACT <= rep.gap_ratio <= rep.gap_cap + 1e-9


class TestGapRatio:
    def test_equality_at_eps_zero(self):
        for delta in (0.0, 0.2, 0.5, 1.0):
            assert report(3, 2, 0.0, delta).gap_ratio == pytest.approx(
                1.0, abs=EXACT)

    def test_worked_point(self):
        rep = bounds_report(WORKED)
        # (8/5) / (41/30) = 48/41
        assert rep.gap_ratio == pytest.approx(48 / 41, abs=EXACT)
        assert rep.gap_cap == pytest.approx(4 / 3, abs=EXACT)

    def test_cap_hand_value(self):
        cap = report(2, 2, math.log(2.0), 0.0).gap_cap
        assert cap == pytest.approx(1.5, abs=EXACT)


class TestSingleServer:
    def test_infeasible_below_k_minus_one(self):
        for k in (2, 3, 5):
            out = single_server_cost(k, k - 1 - 1e-9)
            assert not out.feasible and math.isinf(out.cost)

    def test_download_everything_otherwise(self):
        for k in (2, 3, 5):
            out = single_server_cost(k, k - 1)
            assert out.feasible and out.cost == k
            out = single_server_cost(k, k + 3)
            assert out.feasible and out.cost == k

    def test_examples(self):
        assert not single_server_cost(3, 1.0).feasible
        assert single_server_cost(3, 2.0).cost == 3.0
        assert single_server_cost(2, 5.0).cost == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            single_server_cost(1, 0.0)
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="delta must be finite"):
                single_server_cost(3, bad)


class TestRegimes:
    def test_spir(self):
        rep = report(3, 2, 0.0, 0.0)
        assert rep.regime == "SPIR"
        assert rep.reference_cost == pytest.approx(1.5, abs=EXACT)

    def test_pir(self):
        rep = report(2, 3, 0.0, report(2, 3, 0.0, 0.0).delta1)
        assert rep.regime == "PIR"
        assert rep.reference_cost == pytest.approx(1.75, abs=EXACT)

    def test_pir_tolerates_relative_noise(self):
        thr = report(2, 2, 0.0, 0.0).delta1
        assert report(2, 2, 0.0, thr * (1 + 1e-10)).regime == "PIR"

    def test_leaky_db(self):
        rep = report(2, 2, 0.0, 0.1)
        assert rep.regime == "LeakyDB"
        assert rep.reference_cost == pytest.approx(1.9, abs=EXACT)

    def test_l_pir(self):
        rep = report(2, 2, 1.0, 0.3)  # delta1(1) = 1/(e+1) < 0.3
        assert rep.regime == "L-PIR"
        assert rep.reference_cost == pytest.approx(
            1.0 + 1.0 / (math.e + 1.0), abs=EXACT)

    def test_no_privacy(self):
        rep = report(2, 2, math.inf, 0.0)
        assert rep.regime == "NoPrivacy"
        assert rep.reference_cost == 1.0

    def test_general(self):
        rep = report(2, 2, 0.5, 0.1)
        assert rep.regime == "General"
        assert rep.reference_cost is None

    def test_eps_zero_above_threshold_is_general(self):
        assert report(2, 2, 0.0, 0.9).regime == "General"

    def test_subnormal_delta1_regime_follows_the_key(self):
        """delta equals the rounded, subnormal delta1 here, but the exact
        delta1 lies above it: the scheme still plans a key, so the point
        is below the threshold and no closed-form cost applies."""
        p = params(2, 46, 773.9823886464507, 2.5e-323, l=8)
        rep = bounds_report(p)
        assert rep.delta1 == p.delta
        assert plan_partition(p).key_bits == 1
        assert (rep.regime, rep.reference_cost) == ("General", None)


class TestValidationAndReport:
    def test_rejects_single_database(self):
        with pytest.raises(ValueError, match="n_databases >= 2"):
            bounds_report(SystemParams(1, 2, 4, 0.0, 0.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SystemParams(0, 2, 4, 0.0, 0.0)
        with pytest.raises(ValueError):
            SystemParams(2, 1, 4, 0.0, 0.0)
        with pytest.raises(ValueError):
            SystemParams(3, 2, 5, 0.0, 0.0)  # 2 does not divide 5
        with pytest.raises(ValueError):
            SystemParams(2, 2, 4, -1.0, 0.0)
        with pytest.raises(ValueError):
            SystemParams(2, 2, 4, 0.0, -0.1)
        with pytest.raises(ValueError):
            SystemParams(2, 2, 4, 0.0, math.inf)
        with pytest.raises(ValueError):
            SystemParams(2, 2, 0, 0.0, 0.0)

    @pytest.mark.parametrize("k", [2, 3, 50])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 710.0, 800.0, math.inf])
    def test_database_count_cap(self, k, eps):
        """N up to 2^500 keeps every form finite and exact; past that,
        where delta1 once read 0.0 and n * e^eps overflowed, SystemParams
        refuses N."""
        n = MAX_DATABASES
        for delta in (0.0, 0.3):
            rep = report(n, k, eps, delta)
            ref = reference_forms(n, k, eps, delta)
            for name in ("delta1", "delta2", "d_upper", "d_lower"):
                got = getattr(rep, name)
                assert math.isfinite(got), name
                assert ulps(got, ref[name], float(ref[name])) <= 1, name
        with pytest.raises(ValueError, match="2\\^500"):
            params(n + 1, k, eps, 0.0)

    def test_report_is_consistent(self):
        rep = bounds_report(WORKED)
        assert type(rep) is Bounds
        assert rep == next(bounds_rows(WORKED, [WORKED.delta]))
        assert rep[:4] == (2, 2, WORKED.eps, WORKED.delta)
        assert rep.regime == "General"
        d = rep._asdict()
        assert d["n"] == 2 and d["regime"] == "General"
        assert d["gap_cap"] == pytest.approx(4 / 3, abs=EXACT)


# The fields that hold one closed form each.
FORMS = ("d_upper", "d_lower", "alpha1", "alpha2", "delta1", "delta2")


class TestBlockRows:
    """bounds_rows evaluates the eps-only terms once per (N, K, eps) and
    loops over delta; each row it gives must be the row bounds_report
    gives at that one point, field by field and type by type. The draws
    reach eps = inf, the scaled branch of scaled_terms (eps > 700),
    eps = 49.9 and 50, a subnormal delta1 compared in integers (N=2
    K=1100, eps 1480 to 1506), and delta at each threshold."""

    @given(shape=st.one_of(st.tuples(st.integers(2, 7), st.integers(2, 40)),
                           st.just((2, 1100))),
           eps_values=st.lists(st.one_of(
               st.sampled_from([0.0, 49.9, 50.0, 1480.0, math.inf]),
               st.floats(700.0, 1506.0), st.floats(0.0, 60.0)),
               min_size=1, max_size=4),
           deltas=st.lists(st.floats(0.0, 2.0), max_size=5))
    @example(shape=(2, 1100), eps_values=[1480.0, 1506.0], deltas=[0.0])
    @example(shape=(7, 40), eps_values=[49.9, 50.0, math.inf], deltas=[0.5])
    @settings(max_examples=60, deadline=None)
    def test_block_equals_single_points(self, shape, eps_values, deltas):
        n, k = shape
        for eps in eps_values:
            rep0 = report(n, k, eps, 0.0)
            deltas = [*deltas, rep0.delta1, rep0.delta2]
        for eps in eps_values:
            rows = list(bounds_rows(params(n, k, eps, 0.0), deltas))
            assert len(rows) == len(deltas)
            for delta, row in zip(deltas, rows):
                want = report(n, k, eps, delta)
                assert list(map(repr, row)) == list(map(repr, want)), (
                    eps, delta)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_delta_raises_before_the_first_row(self, bad):
        rows = bounds_rows(WORKED, [0.1, bad])
        with pytest.raises(ValueError, match="delta must be finite"):
            next(rows)

    def test_rejects_single_database(self):
        with pytest.raises(ValueError, match="n_databases >= 2"):
            next(bounds_rows(SystemParams(1, 2, 4, 0.0, 0.0), [0.0]))


def near_threshold(n, k, eps, threshold, step):
    """A delta at (step 0), one ulp below (-1) or one ulp above (+1) the
    threshold, the "delta1" or "delta2" field."""
    thr = getattr(report(n, k, eps, 0.0), threshold)
    if step:
        return math.nextafter(thr, math.inf if step > 0 else 0.0)
    return thr


class TestReportPins:
    """bounds_report at the edges: at and next to the thresholds, near
    eps = 50, at eps = inf and where F^(K-1) leaves the double range,
    pinned to values recorded before the forms were evaluated in one
    pass."""

    def test_achievable_side_finite_where_converse_overflows(self):
        """F^(K-1) is past the double range at N=7 K=40 eps=49.9; the
        achievable side, which plan_partition reads, stays exact."""
        p = params(7, 40, 49.9, 0.0)
        rep = bounds_report(p)
        for name in ("delta1", "alpha1", "d_upper"):
            assert math.isfinite(getattr(rep, name)), name
        assert plan_partition(p).key_bits == 4  # alpha1 = 1/(N-1), L = 24

    def test_edge_points_pinned(self):
        """sha256 of every report at the grid shapes, eps at 49.9, 50, 80
        and inf, and delta at and one ulp below each threshold, recorded
        before the forms were evaluated in one pass. The 90 rows at eps 50
        and 80 were re-pinned when eps stopped being capped at 50."""
        rows = []
        for n in (2, 3, 5):
            for k in (2, 3, 4):
                for eps in (0.0, 0.3, 49.9, 50.0, 80.0, math.inf):
                    deltas = [0.0]
                    for threshold in ("delta1", "delta2"):
                        deltas += [near_threshold(n, k, eps, threshold, s)
                                   for s in (-1, 0)]
                    rows += [report(n, k, eps, d)._asdict() for d in deltas]
        assert len(rows) == 270
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "5a64e84440d4cd3bf896b25656f193226e9acad389bd7bf261666ed7417ff697")

    # (n, eps, k) at the edge of the double range: for each n and eps, the
    # largest K at which every report field was still finite when eps had
    # a cap, and K - 1. Rows where a threshold read 0.0 there, because
    # (F-1) F^(K-1) or (N-1)(e^eps + N^(K-1) - 1) overflowed, are left out:
    # their values were wrong.
    OVERFLOW_EDGE = (
        (2, 0.0, 1023), (2, 0.0, 1024), (2, 0.5, 594), (2, 0.5, 595),
        (2, 49.9, 14), (3, 0.0, 646), (3, 0.5, 443), (3, 0.5, 444),
        (3, 49.9, 13), (7, 0.0, 364), (7, 0.5, 290), (7, 49.9, 13),
        (256, 0.0, 127), (256, 0.0, 128), (256, 0.5, 117), (256, 49.9, 12))

    def test_overflow_edge_pinned(self):
        """sha256 of every report on the rows above, at delta = 0 and at
        each threshold, recorded before the forms were made total."""
        rows = []
        for n, eps, k in self.OVERFLOW_EDGE:
            rep0 = report(n, k, eps, 0.0)
            rows += [report(n, k, eps, d)._asdict()
                     for d in (0.0, rep0.delta1, rep0.delta2)]
        assert len(rows) == 48
        assert all(math.isfinite(v) for row in rows for v in row.values()
                   if isinstance(v, float))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "7e252448c941f7785c53e10d14d9c72eafdc71ccfd45197476af5afe099414bf")


# Largest error, in ulps, of every closed form against the exact reference.
# Where the terms fit, the forms keep their old expressions, and delta2
# rounds F = N e^eps before subtracting 1: the worst seen was 3.8 ulps
# (N=3, K=8, eps near 7e-4) over about 300,000 random points. 8 leaves
# room for roundings that line up worse than any drawn.
ULP_BOUND = 8
EPS_EDGES = (0.0, 49.9, 50.0, 700.0, 710.0, 1e6, math.inf)


class TestAgainstExactReference:
    """Every closed form, the gap cap and the path law against a 60-digit
    decimal evaluation (tests/bounds_reference.py), for N up to 256, K up
    to 5000 and every eps a double holds. Each value is within ULP_BOUND
    ulps of its own size; alpha1 and alpha2, whose terms cancel, within
    ULP_BOUND ulps of 1/(N-1) and 1/(F-1). Next to a threshold (two ulps),
    either branch of the kink passes, since delta is compared with the
    rounded threshold. A delta1 below the normal doubles is compared
    exactly, so there only the rounding of e^eps (2^-50 of delta1) is
    allowed."""

    @given(n=st.integers(2, 256), k=st.integers(2, 5000),
           eps=st.one_of(st.sampled_from(EPS_EDGES),
                         st.floats(0.0, allow_infinity=False)),
           near=st.sampled_from([None, "delta1", "delta2"]),
           step=st.sampled_from([-1, 0, 1]), delta=st.floats(0.0, 2.0),
           more_eps=st.floats(0.0, 100.0), more_delta=st.floats(0.0, 1.0))
    @example(n=7, k=14, eps=49.9, near=None, step=0, delta=0.0,
             more_eps=0.0, more_delta=0.0)
    @example(n=20, k=255, eps=0.5, near="delta1", step=-1,
             delta=0.0, more_eps=1.0, more_delta=0.1)
    @settings(max_examples=150, deadline=None)
    def test_forms_match_reference(self, n, k, eps, near, step, delta,
                                   more_eps, more_delta):
        if near is not None:
            delta = near_threshold(n, k, eps, near, step)
        rep = report(n, k, eps, delta)
        ref = reference_forms(n, k, eps, delta)
        scale = {"alpha1": 1.0 / (n - 1), "alpha2": float(ref["inv_f1"])}
        flips = [(False, False)]
        for side, name in ((0, "delta1"), (1, "delta2")):
            thr = float(ref[name])
            if side == 0 and thr < 2.0 ** -1022:
                with localcontext(CTX):
                    near = abs(Decimal(delta) - ref[name]) <= (
                        ref[name] * Decimal(2.0 ** -50))
            else:
                near = abs(delta - thr) <= 2 * math.ulp(thr)
            if thr > 0 and near:
                flips += [(not a, b) if side == 0 else (a, not b)
                          for a, b in flips]
        refs = [ref] + [reference_forms(n, k, eps, delta, *f)
                        for f in flips[1:]]
        for name in (*FORMS, "gap_cap"):
            got = getattr(rep, name)
            assert math.isfinite(got), name
            err = min(ulps(got, r[name], scale.get(name, float(r[name])))
                      for r in refs)
            assert err <= ULP_BOUND, (name, got, float(ref[name]), err)
        tol = ULP_BOUND * math.ulp(2.0)
        assert rep.delta1 >= rep.delta2 * (1 - tol)
        assert 1.0 - tol <= rep.gap_ratio <= rep.gap_cap * (1 + tol)
        for later in (report(n, k, eps + more_eps, delta),
                      report(n, k, eps, delta + more_delta)):
            assert later.d_upper <= rep.d_upper * (1 + tol)
            assert later.d_lower <= rep.d_lower * (1 + tol)

    def test_subnormal_delta1_branch(self):
        """delta1 rounds to 5 subnormal units here, equal to delta, while
        the exact delta1 lies above delta: the key is still needed."""
        n, k, eps, delta = 2, 46, 773.9823886464507, 2.5e-323
        rep = report(n, k, eps, delta)
        ref = reference_forms(n, k, eps, delta)
        assert rep.delta1 == delta < ref["delta1"]
        assert ulps(rep.alpha1, ref["alpha1"], 1.0) <= ULP_BOUND
        assert ulps(rep.d_upper, ref["d_upper"], 1.0) <= ULP_BOUND
        assert round(rep.d_upper, 4) == 1.0391

    @given(n=st.integers(2, 256), k=st.integers(2, 5000),
           eps=st.one_of(st.sampled_from(EPS_EDGES),
                         st.floats(0.0, allow_infinity=False)))
    @example(n=20, k=255, eps=0.5)
    @settings(max_examples=100, deadline=None)
    def test_path_law_matches_reference(self, n, k, eps):
        dist = path_distribution(SystemParams(n, k, n - 1, eps, 0.0))
        ref = reference_forms(n, k, eps, 0.0)
        for name in ("p", "q"):
            got = getattr(dist, name)
            assert ulps(got, ref[name], float(ref[name])) <= ULP_BOUND, name
        if dist.q >= 2.0 ** -1022:  # below that, q keeps too few bits
            with localcontext(CTX):
                mass = n * Decimal(dist.p) + (n ** k - n) * Decimal(dist.q)
            assert abs(float(mass) - 1.0) <= ULP_BOUND * math.ulp(1.0)
