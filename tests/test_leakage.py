"""Leakage accounting: analytic formulas, the rank oracle, audits.

The oracle values are frozen from hand calculations of the mutual
information, not from the analytic code path (which the oracle is meant
to check in the first place), and the rank oracle is checked against
the brute-force enumeration and the unreduced rank oracle in
oracle_reference.
"""

import hashlib
import math
from fractions import Fraction
from unittest import mock

import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alpir import (StateSpaceError, SystemParams, analytic_db_leakage,
                   analytic_user_ratio, db_leak_budget_bits,
                   empirical_cost_audit, empirical_query_audit,
                   exact_mi_oracle, layout_for_key_bits, leakage,
                   path_distribution, plan_partition,
                   ratio_audit_from_counts)
from alpir.leakage import LEAK_TOL_BITS
from alpir.selfcheck import ORACLE_INSTANCES
from oracle_reference import (brute_mi_oracle, brute_states,
                              unreduced_mi_oracle)

EXACT = 1e-12
ORACLE_TOL = 1e-9

WORKED = SystemParams(2, 2, 3, math.log(1.5), 4 / 15)
WORKED_LAYOUT = plan_partition(WORKED)


class TestAnalyticUserRatio:
    def test_worked_point(self):
        dist = path_distribution(WORKED)
        assert analytic_user_ratio(dist) == pytest.approx(1.5, abs=EXACT)

    def test_perfect_privacy(self):
        dist = path_distribution(SystemParams(2, 2, 2, 0.0, 0.0))
        assert analytic_user_ratio(dist) == pytest.approx(1.0, abs=EXACT)

    def test_hand_value(self):
        dist = path_distribution(SystemParams(3, 2, 2, 1.0, 0.0))
        assert analytic_user_ratio(dist) == pytest.approx(math.e, rel=EXACT)

    def test_unbounded(self):
        dist = path_distribution(SystemParams(2, 2, 2, math.inf, 0.0))
        assert math.isinf(analytic_user_ratio(dist))


class TestAnalyticDbLeakage:
    def test_worked_point(self):
        # (1 - 2*0.3) * 2 = 0.8, meeting the budget 4/15 * 3 exactly
        leak = analytic_db_leakage(WORKED, WORKED_LAYOUT)
        assert leak == pytest.approx(0.8, abs=EXACT)
        assert db_leak_budget_bits(WORKED) == pytest.approx(0.8, abs=EXACT)

    def test_full_key_leaks_nothing(self):
        p = SystemParams(2, 2, 4, 0.0, 0.0)
        assert analytic_db_leakage(p, plan_partition(p)) == 0.0

    def test_no_key_hand_value(self):
        p = SystemParams(2, 2, 4, 0.0, 0.6)
        lay = plan_partition(p)
        assert lay.key_bits == 0
        assert analytic_db_leakage(p, lay) == pytest.approx(2.0, abs=EXACT)

    def test_three_databases_hand_value(self):
        # s = 0, w2 = 2, high mass 2/(e^0.5 + 2): leak = 4/(e^0.5 + 2)
        p = SystemParams(3, 2, 4, 0.5, 0.3)
        lay = plan_partition(p)
        assert lay.key_bits == 0
        expect = 4.0 / (math.exp(0.5) + 2.0)
        assert analytic_db_leakage(p, lay) == pytest.approx(expect, abs=EXACT)


class TestExactOracle:
    def test_worked_point(self):
        res = exact_mi_oracle(WORKED, WORKED_LAYOUT)
        assert res.max_bits == pytest.approx(0.8, abs=ORACLE_TOL)

    def test_full_key_instance(self):
        p = SystemParams(2, 2, 2, 0.0, 0.0)
        res = exact_mi_oracle(p, plan_partition(p))
        assert res.max_bits == pytest.approx(0.0, abs=ORACLE_TOL)

    def test_half_key_instance(self):
        # s = 1, w2 = 1, uniform paths: leak = 0.5 * 1 bit
        p = SystemParams(2, 2, 2, 0.0, 0.25)
        res = exact_mi_oracle(p, plan_partition(p))
        assert res.max_bits == pytest.approx(0.5, abs=ORACLE_TOL)

    def test_matches_analytic_on_diverse_instances(self):
        cases = (SystemParams(2, 2, 4, 1.0, 0.2),
                 SystemParams(3, 2, 4, 0.5, 0.3),
                 SystemParams(2, 2, 3, math.log(1.5), 0.0))
        for p in cases:
            lay = plan_partition(p)
            res = exact_mi_oracle(p, lay)
            assert res.max_bits == pytest.approx(
                analytic_db_leakage(p, lay), abs=ORACLE_TOL)

    # The brute-force reference on message priors that the rank oracle
    # (uniform messages only) cannot express.
    def test_point_mass_support_carries_no_information(self):
        res = brute_mi_oracle(WORKED, WORKED_LAYOUT,
                              message_support=[(0b101, 0b011)])
        assert res.max_bits == pytest.approx(0.0, abs=ORACLE_TOL)

    def test_two_point_support_hand_value(self):
        # Messages of 2 bits, no key: W1 uniform on {00, 11}. The open
        # part reveals W1 entirely on the high path (mass 1/2), so
        # I = 0.5 * 1 bit when message 0 is desired, 0 for message 1.
        p = SystemParams(2, 2, 2, 0.0, 0.6)
        lay = plan_partition(p)
        assert lay.key_bits == 0
        res = brute_mi_oracle(p, lay, message_support=[(0, 0), (0, 3)])
        assert res.per_message[0] == pytest.approx(0.5, abs=ORACLE_TOL)
        assert res.per_message[1] == pytest.approx(0.0, abs=ORACLE_TOL)
        assert res.max_bits == pytest.approx(0.5, abs=ORACLE_TOL)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            brute_mi_oracle(WORKED, WORKED_LAYOUT, message_support=[])

    def test_state_cap_enforced(self, monkeypatch):
        # The worked example takes K N = 2*2 = 4 answer calls.
        monkeypatch.setattr(leakage, "ORACLE_CALL_CAP", 3)
        with pytest.raises(StateSpaceError):
            exact_mi_oracle(WORKED, WORKED_LAYOUT)
        monkeypatch.setattr(leakage, "ORACLE_CALL_CAP", 4)
        res = exact_mi_oracle(WORKED, WORKED_LAYOUT)
        assert res.max_bits == pytest.approx(0.8, abs=ORACLE_TOL)

    def test_answer_calls_do_not_depend_on_l(self):
        # K N = 4 * 2 = 8 at N=2 K=4
        calls = []
        for l in (16, 1 << 22):
            p = SystemParams(2, 4, l, 0.5, 0.1)
            with mock.patch("alpir.leakage.answer",
                            wraps=leakage.answer) as spy:
                exact_mi_oracle(p, plan_partition(p))
            calls.append(spy.call_count)
        assert calls == [8] * 2

    def test_answer_calls_are_k_times_n(self):
        """One base per count of nonzero undesired coordinates, N queries
        each: K N = 765 calls at N=3 K=255."""
        p = SystemParams(3, 255, 40, 0.5, 0.5)
        with mock.patch("alpir.leakage.answer",
                        wraps=leakage.answer) as spy:
            res = exact_mi_oracle(p, plan_partition(p))
        assert spy.call_count == 765
        assert res.max_bits == 20.0


# The rank oracle against the brute-force reference, which enumerates
# every message, key and base through the real `answer`.
BRUTE_INSTANCES = ORACLE_INSTANCES + ((2, 2, 5, 0.5, 0.2),)
BRUTE_BUDGET = 1 << 13
EPS_VALUES = (0.0, math.log(1.5), 3.0, math.inf)


def assert_matches_brute(p, lay):
    # Every desired index leaks what the reduced oracle computes.
    got = exact_mi_oracle(p, lay).max_bits
    want = brute_mi_oracle(p, lay).per_message
    assert len(want) == p.n_messages
    for w in want:
        assert got == pytest.approx(w, abs=EXACT)


class TestRankMatchesBrute:
    @pytest.mark.parametrize("inst", BRUTE_INSTANCES,
                             ids=[f"{n}-{k}-{l}-{eps:.3g}-{delta:.3g}"
                                  for n, k, l, eps, delta
                                  in BRUTE_INSTANCES])
    def test_instances(self, inst):
        p = SystemParams(*inst)
        assert_matches_brute(p, plan_partition(p))

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from((2, 3)), k=st.sampled_from((2, 3)),
           per_sub=st.integers(1, 2), key_bits=st.integers(0, 2),
           eps=st.sampled_from(EPS_VALUES))
    def test_tiny_shapes_every_key_size(self, n, k, per_sub, key_bits,
                                        eps):
        assume(key_bits <= per_sub)
        p = SystemParams(n, k, per_sub * (n - 1), eps, 0.0)
        lay = layout_for_key_bits(p, key_bits)
        assume(brute_states(p, lay) <= BRUTE_BUDGET)
        assert_matches_brute(p, lay)

    def test_tiny_shapes_cover_both_key_extremes(self):
        # s = 0 (open parts only) and w = 0 (masked parts only)
        p = SystemParams(2, 2, 2, math.log(1.5), 0.0)
        for s in (0, 2):
            assert_matches_brute(p, layout_for_key_bits(p, s))


@st.composite
def oracle_shapes(draw):
    """N 2-5, K 2-6, 1-3 bits per subpacket, every key size, any eps."""
    n, k = draw(st.integers(2, 5)), draw(st.integers(2, 6))
    per_sub = draw(st.integers(1, 3))
    key_bits = draw(st.integers(0, per_sub))
    eps = draw(st.one_of(st.sampled_from((0.0, math.inf)),
                         st.floats(0.0, 60.0)))
    p = SystemParams(n, k, per_sub * (n - 1), eps, 0.0)
    return p, layout_for_key_bits(p, key_bits)


class TestReducedMatchesUnreduced:
    """The reduction to one desired index, one value of its coordinate and
    one base per count of nonzero undesired coordinates changes no bit:
    every per-desired value of the unreduced loop equals max_bits
    exactly."""

    @settings(max_examples=100, deadline=None)
    @given(shape=oracle_shapes())
    def test_bitwise(self, shape):
        p, lay = shape
        got = exact_mi_oracle(p, lay).max_bits
        assert unreduced_mi_oracle(p, lay) == (got,) * p.n_messages


class TestRankMatchesClosedForm:
    @pytest.mark.parametrize("shape", [
        (2, 2, 3, math.log(1.5), 4 / 15),
        (2, 4, 1 << 22, 0.5, 0.1),
        (5, 4, 16, 0.5, 0.1),
    ], ids=["small-mem", "large-tcp", "n5-k4"])
    def test_shape(self, shape):
        p = SystemParams(*shape)
        lay = plan_partition(p)
        analytic = analytic_db_leakage(p, lay)
        bits = exact_mi_oracle(p, lay).max_bits
        assert abs(bits - analytic) <= LEAK_TOL_BITS

    @settings(max_examples=100, deadline=None)
    @given(shape=oracle_shapes())
    def test_bitwise_on_drawn_shapes(self, shape):
        """Each high-cost base leaks the open width w, so the mean over
        them is w exactly, and the oracle is the closed form's float."""
        p, lay = shape
        assert exact_mi_oracle(p, lay).max_bits == analytic_db_leakage(
            p, lay)


class TestQueryAudit:
    def test_worked_point_within_band(self):
        res = empirical_query_audit(5000, WORKED, seed=17)
        assert res.budget == pytest.approx(1.5, abs=EXACT)
        assert abs(res.max_ratio - 1.5) <= res.halfwidth
        assert not res.violation

    def test_uniform_instance_chi_square(self):
        p = SystemParams(2, 2, 2, 0.0, 0.0)
        res = empirical_query_audit(8000, p, seed=3)
        assert not res.violation
        # at eps = 0 every vector is equally likely at every database
        for desired in (0, 1):
            for db in (0, 1):
                obs = [res.counts[(desired, db, vec)]
                       for vec in ((0, 0), (0, 1), (1, 0), (1, 1))]
                assert sum(obs) == 8000
                stat = scipy.stats.chisquare(obs)
                assert stat.pvalue > 0.005

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            empirical_query_audit(999, WORKED, seed=0)

    def test_deterministic(self):
        a = empirical_query_audit(2000, WORKED, seed=5)
        b = empirical_query_audit(2000, WORKED, seed=5)
        assert a == b

    def test_counts_from_synthetic_data(self):
        counts = {(0, 0, (1, 0)): 300, (1, 0, (1, 0)): 200}
        res = ratio_audit_from_counts(counts, {0: 1000, 1: 1000},
                                      budget=2.0)
        assert res.max_ratio == pytest.approx(1.5, abs=EXACT)
        assert not res.violation

    def test_synthetic_violation_flagged(self):
        counts = {(0, 0, (1, 0)): 9000, (1, 0, (1, 0)): 1000}
        res = ratio_audit_from_counts(counts, {0: 10000, 1: 10000},
                                      budget=1.5)
        assert res.max_ratio == pytest.approx(9.0, abs=EXACT)
        assert res.violation

    def test_unbounded_budget_never_violates(self):
        counts = {(0, 0, (1, 0)): 9000, (1, 0, (1, 0)): 1, (1, 0, (0, 0)): 8999}
        res = ratio_audit_from_counts(counts, {0: 9000, 1: 9000},
                                      budget=math.inf)
        assert not res.violation

    def test_per_desired_trial_counts(self):
        counts = {(0, 0, (1, 0)): 100, (1, 0, (1, 0)): 100}
        res = ratio_audit_from_counts(counts, {0: 1000, 1: 2000}, budget=3.0)
        assert res.max_ratio == pytest.approx(2.0, abs=EXACT)


class TestQueryAuditGolden:
    """sha256 of repr(list(counts.items())), with the max ratio and its
    half-width, recorded before the audit counted bases in place of query
    vectors. The digest covers the counts' insertion order, which breaks
    ties in ratio_audit_from_counts. The two K=96 rows draw through
    `_draw_below`'s batched word reads (K-1 >= 80), at N=3 and at N=2;
    their eps leaves about 1 path in 15 high-cost, so few vectors are
    distinct. They were recorded with the batch from K-1 >= 7 and equal
    the loop of single-word reads. N=2 K=255 is not pinned, since its
    510,000 distinct vectors take about 1.3 GB at the 1000-trial
    minimum."""

    @pytest.mark.parametrize("trials, point, max_ratio, halfwidth, sha", [
        (100_000, (2, 2, 3, math.log(1.5), 4 / 15), 1.5012989608313347,
         0.03581600697648518,
         "fadd46d9c40a6555fe9afd2e70897436d416aa2b5a1033166b165cc91824a0a3"),
        (10_000, (3, 3, 4, 0.5, 0.1), 2.0446735395189, 0.4301299469744873,
         "ec681c153b3fc3cecbb2b655ecb3bb5f4924e8aa3f750b7833d0dd433e098408"),
        (1000, (3, 8, 4, 0.5, 0.1), 4.0, 13.405670442018184,
         "b2452d3ac492f0c32872239e877684629ea084d12d59ce08ac31435bec2cee34"),
        (1000, (2, 16, 4, 0.5, 0.5), 2.0, 7.343568614781236,
         "0fc9a0e645ba41cc64b4ebe087b9f21c5f16555d9d9eaef4efb6c36010f6bfa7"),
        (1000, (3, 96, 6, 107.0, 0.5), 1.271698113207547,
         0.26268646268293727,
         "a55a0c90513d305014bcb7aced9377ba1083ffb6c078fccbf0fad3d66b7f8482"),
        (1000, (2, 96, 4, 68.5, 0.5), 1.20763723150358, 0.17610926531526208,
         "1b42e0d6d0cfb952401d2eaebf48f81b2aef669fb1d896c5b49d08a7c6e5c635"),
        (10_000, (5, 4, 4, math.inf, 0.0), 1.0860103626943005,
         0.09187612729220031,
         "7904cb4026e6921501d21235844d82ffd3e32709a39ea0196226db996f354423"),
        (1000, (2, 2, 2, 0.0, 0.0), 1.1101694915254239, 0.25914014270895447,
         "35ba29c2c80570ea4f627be34e3f451f864c7161ca1acfd96c9b9f26f42dc3c4"),
    ], ids=["worked", "n3-k3", "n3-k8", "n2-k16", "n3-k96", "n2-k96",
            "eps-inf", "eps-zero"])
    def test_digest(self, trials, point, max_ratio, halfwidth, sha):
        res = empirical_query_audit(trials, SystemParams(*point), seed=1)
        digest = hashlib.sha256(
            repr(list(res.counts.items())).encode()).hexdigest()
        assert (digest, res.max_ratio, res.halfwidth) == (
            sha, max_ratio, halfwidth)


class TestCostAudit:
    def test_worked_point(self):
        res = empirical_cost_audit(5000, WORKED, seed=9)
        assert res.expected == pytest.approx(1.6, abs=EXACT)
        assert abs(res.mean_cost - 1.6) <= 3 * res.sigma
        assert not res.violation

    def test_mean_is_exact(self):
        """The total bits over L * trials, rounded once: the nearest
        double to 479,930 / 300,000. A numpy mean of the per-session
        costs once gave 1.5997666666666668."""
        res = empirical_cost_audit(100_000, WORKED, 1)
        assert res.mean_cost == 1.5997666666666666
        assert res.mean_cost == float(Fraction(479_930, 300_000))

    def test_deterministic(self):
        a = empirical_cost_audit(2000, WORKED, seed=4)
        b = empirical_cost_audit(2000, WORKED, seed=4)
        assert a == b

    def test_degenerate_distribution_is_exact(self):
        p = SystemParams(2, 2, 2, math.inf, 0.0)
        res = empirical_cost_audit(1000, p, seed=0)
        assert res.sigma == 0.0
        assert res.mean_cost == res.expected
        assert not res.violation

    def test_constant_cost_is_no_violation(self):
        """delta = 0 leaves no open part, so every session costs N/(N-1)
        and sigma is 0. A numpy mean of 1,000 costs of 4/3 once read
        1.333333333333333 and flagged a violation."""
        res = empirical_cost_audit(1000, SystemParams(4, 2, 3, 0.5, 0.0), 1)
        assert res.sigma == 0.0
        assert res.mean_cost == res.expected == 4 / 3
        assert not res.violation

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            empirical_cost_audit(10, WORKED, seed=0)


class TestBudgetGuarantee:
    def test_planned_layout_never_exceeds_budget(self):
        grid = [(n, k, eps, delta)
                for n in (2, 3) for k in (2, 3)
                for eps in (0.0, 0.5, 1.5)
                for delta in (0.0, 0.1, 0.3, 0.6)]
        for n, k, eps, delta in grid:
            p = SystemParams(n, k, 6 * (n - 1), eps, delta)
            leak = analytic_db_leakage(p, plan_partition(p))
            assert leak <= db_leak_budget_bits(p) + 1e-9

    def test_undersized_key_would_exceed_budget(self):
        lay = layout_for_key_bits(WORKED, WORKED_LAYOUT.key_bits - 1)
        leak = analytic_db_leakage(WORKED, lay)
        assert leak > db_leak_budget_bits(WORKED) + 1e-9
