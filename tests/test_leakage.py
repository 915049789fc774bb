"""Leakage accounting: analytic formulas, the rank oracle, audits.

The oracle values are frozen from hand calculations of the mutual
information, not from the analytic code path (which the oracle is meant
to check in the first place), and the rank oracle is checked against
the brute-force enumeration in oracle_reference.
"""

import math
from unittest import mock

import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alpir import (StateSpaceError, SystemParams, analytic_db_leakage,
                   analytic_user_ratio, db_leak_budget_bits,
                   empirical_cost_audit, empirical_query_audit,
                   exact_mi_oracle, layout_for_key_bits, leakage,
                   leakage_report, path_distribution, plan_partition,
                   ratio_audit_from_counts)
from alpir.leakage import LEAK_TOL_BITS
from alpir.selfcheck import ORACLE_INSTANCES
from oracle_reference import brute_mi_oracle, brute_states

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
        assert len(res.per_message) == 2
        for v in res.per_message:
            assert v == pytest.approx(0.8, abs=ORACLE_TOL)

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

    def test_per_message_asymmetry_with_unequal_budgets(self):
        # desired index is part of the oracle's conditioning, so the
        # tuple is ordered by desired message
        res = exact_mi_oracle(WORKED, WORKED_LAYOUT)
        assert isinstance(res.per_message, tuple)
        assert res.max_bits == max(res.per_message)

    def test_state_cap_enforced(self):
        # The worked example takes K N C(K+N-2, N-1) N = 2*2*2*2 = 16
        # answer calls.
        with pytest.raises(StateSpaceError):
            exact_mi_oracle(WORKED, WORKED_LAYOUT, call_cap=15)
        res = exact_mi_oracle(WORKED, WORKED_LAYOUT, call_cap=16)
        assert res.max_bits == pytest.approx(0.8, abs=ORACLE_TOL)

    def test_answer_calls_do_not_depend_on_l(self):
        calls = []
        for l in (16, 1 << 22):
            p = SystemParams(2, 4, l, 0.5, 0.1)
            with mock.patch("alpir.leakage.answer",
                            wraps=leakage.answer) as spy:
                exact_mi_oracle(p, plan_partition(p))
            calls.append(spy.call_count)
        assert calls == [4 * 2 * 4 * 2] * 2


# The rank oracle against the brute-force reference, which enumerates
# every message, key and base through the real `answer`.
BRUTE_INSTANCES = ORACLE_INSTANCES + ((2, 2, 5, 0.5, 0.2),)
BRUTE_BUDGET = 1 << 13
EPS_VALUES = (0.0, math.log(1.5), 3.0, math.inf)


def assert_matches_brute(p, lay):
    got = exact_mi_oracle(p, lay).per_message
    want = brute_mi_oracle(p, lay).per_message
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=EXACT)


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


class TestRankMatchesClosedForm:
    @pytest.mark.parametrize("shape", [
        (2, 2, 3, math.log(1.5), 4 / 15),
        (2, 4, 1 << 22, 0.5, 0.1),
        (5, 4, 16, 0.5, 0.1),
    ], ids=["small-mem", "large-tcp", "n5-k4"])
    def test_shape(self, shape):
        # The closed form holds for every desired index, not only the max.
        p = SystemParams(*shape)
        lay = plan_partition(p)
        analytic = analytic_db_leakage(p, lay)
        for bits in exact_mi_oracle(p, lay).per_message:
            assert abs(bits - analytic) <= LEAK_TOL_BITS


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
        res = ratio_audit_from_counts(counts, 1000, budget=2.0)
        assert res.max_ratio == pytest.approx(1.5, abs=EXACT)
        assert not res.violation

    def test_synthetic_violation_flagged(self):
        counts = {(0, 0, (1, 0)): 9000, (1, 0, (1, 0)): 1000}
        res = ratio_audit_from_counts(counts, 10000, budget=1.5)
        assert res.max_ratio == pytest.approx(9.0, abs=EXACT)
        assert res.violation

    def test_unbounded_budget_never_violates(self):
        counts = {(0, 0, (1, 0)): 9000, (1, 0, (1, 0)): 1, (1, 0, (0, 0)): 8999}
        res = ratio_audit_from_counts(counts, 9000, budget=math.inf)
        assert not res.violation

    def test_per_desired_trial_counts(self):
        counts = {(0, 0, (1, 0)): 100, (1, 0, (1, 0)): 100}
        res = ratio_audit_from_counts(counts, {0: 1000, 1: 2000}, budget=3.0)
        assert res.max_ratio == pytest.approx(2.0, abs=EXACT)


class TestCostAudit:
    def test_worked_point(self):
        res = empirical_cost_audit(5000, WORKED, seed=9)
        assert res.expected == pytest.approx(1.6, abs=EXACT)
        assert abs(res.mean_cost - 1.6) <= 3 * res.sigma
        assert not res.violation

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

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            empirical_cost_audit(10, WORKED, seed=0)


class TestLeakageReport:
    def test_worked_point(self):
        rep = leakage_report(WORKED, trials=3000, seed=21)
        assert rep.user_ratio_analytic == pytest.approx(1.5, abs=EXACT)
        assert rep.db_leak_analytic_bits == pytest.approx(0.8, abs=EXACT)
        assert rep.db_leak_exact_bits == pytest.approx(0.8, abs=ORACLE_TOL)
        assert rep.db_leak_budget_bits == pytest.approx(0.8, abs=EXACT)
        assert abs(rep.user_ratio_empirical
                   - rep.user_ratio_analytic) <= rep.user_ratio_halfwidth

    def test_oracle_skipped_when_state_space_too_large(self):
        # N=10 K=4: 4 * 10 * C(12, 9) * 10 = 88,000 answer calls
        p = SystemParams(10, 4, 9, 0.5, 0.1)
        rep = leakage_report(p, trials=1000, seed=0)
        assert rep.db_leak_exact_bits is None

    def test_dict_round_trip_keys(self):
        rep = leakage_report(WORKED, trials=1000, seed=2)
        d = rep.to_dict()
        for key in ("user_ratio_analytic", "user_ratio_empirical",
                    "user_ratio_halfwidth", "db_leak_analytic_bits",
                    "db_leak_exact_bits", "db_leak_budget_bits", "trials"):
            assert key in d


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
