"""Retrieval scheme mechanics: layout, path sampling, queries, decoding.

Worked values below were derived by hand on paper (explicit bit patterns
for a 2-database, 2-message, 3-bit instance) and frozen here.
"""

import math
import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alpir import (BitString, MessageStore, PathClass, SystemParams, answer,
                   bounds_report, classify_base, decode, derived_rng,
                   expected_cost, layout_for_key_bits, make_queries,
                   path_distribution, plan_partition, residual_view,
                   sample_path, session_download_bits)
from alpir.scheme import CEIL_GUARD, Answer, PathChoice, QueryVector
from bounds_reference import reference_forms, ulps

EXACT = 1e-12

WORKED = SystemParams(2, 2, 3, math.log(1.5), 4 / 15)
WORKED_LAYOUT = plan_partition(WORKED)

# Explicit 3-bit messages and a 1-bit key for the worked instance:
# W0 = 101 (masked subpacket 1, open subpacket 01)
# W1 = 011 (masked subpacket 0, open subpacket 11)
W0 = BitString(0b101, 3)
W1 = BitString(0b011, 3)
KEY = BitString(1, 1)
STORE = MessageStore((W0, W1), KEY)


class TestPartitionPlanning:
    def test_worked_point(self):
        lay = WORKED_LAYOUT
        assert lay.key_bits == 1
        assert lay.masked_subpacket_bits == 1
        assert lay.open_subpacket_bits == 2
        assert lay.subpackets_per_part == 1
        assert lay.message_bits == 3
        assert lay.effective_alpha == pytest.approx(1 / 3, abs=EXACT)
        assert lay.effective_delta == pytest.approx(4 / 15, abs=EXACT)

    def test_no_key_needed_past_threshold(self):
        lay = plan_partition(SystemParams(2, 2, 4, 0.0, 0.6))
        assert lay.key_bits == 0
        assert lay.open_subpacket_bits == 4

    def test_full_key_for_perfect_db_privacy(self):
        lay = plan_partition(SystemParams(2, 2, 4, 0.0, 0.0))
        assert lay.key_bits == 4
        assert lay.open_subpacket_bits == 0
        assert lay.effective_delta == 0.0

    def test_ceiling_never_leaks_over_budget(self):
        for n, k, eps, delta in ((2, 3, 0.7, 0.1), (3, 2, 1.3, 0.05),
                                 (2, 2, 0.0, 0.33), (4, 2, 2.0, 0.2)):
            p = SystemParams(n, k, 12 * (n - 1), eps, delta)
            lay = plan_partition(p)
            assert lay.effective_delta <= delta + 1e-9

    def test_explicit_key_bits_validation(self):
        with pytest.raises(ValueError):
            layout_for_key_bits(WORKED, 4)
        with pytest.raises(ValueError):
            layout_for_key_bits(WORKED, -1)

    def test_subpacket_extraction(self):
        lay = WORKED_LAYOUT
        assert lay.subpacket(W0, 1, 1) == BitString(1, 1)
        assert lay.subpacket(W0, 2, 1) == BitString(0b01, 2)
        assert lay.subpacket(W1, 1, 1) == BitString(0, 1)
        assert lay.subpacket(W1, 2, 1) == BitString(0b11, 2)

    def test_subpacket_three_databases(self):
        p = SystemParams(3, 2, 4, 0.25, 0.1)
        lay = layout_for_key_bits(p, 1)
        msg = BitString(0b1011, 4)  # masked subs: 1, 0; open subs: 1, 1
        assert lay.subpacket(msg, 1, 1) == BitString(1, 1)
        assert lay.subpacket(msg, 1, 2) == BitString(0, 1)
        assert lay.subpacket(msg, 2, 1) == BitString(1, 1)
        assert lay.subpacket(msg, 2, 2) == BitString(1, 1)

    def test_subpacket_bounds(self):
        lay = WORKED_LAYOUT
        with pytest.raises(ValueError):
            lay.subpacket(W0, 3, 1)
        with pytest.raises(ValueError):
            lay.subpacket(W0, 1, 2)
        with pytest.raises(ValueError):
            lay.subpacket(BitString(0, 5), 1, 1)

    @given(st.integers(2, 4), st.integers(0, 3), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_subpackets_tile_the_message(self, n, s, w):
        if s > w:
            s, w = w, s
        p = SystemParams(n, 2, (n - 1) * w, 0.5, 0.1)
        lay = layout_for_key_bits(p, s)
        rng = random.Random(7)
        msg = BitString.random(p.message_bits, rng)
        rebuilt = BitString.join(
            [lay.subpacket(msg, 1, i) for i in range(1, n)]
            + [lay.subpacket(msg, 2, i) for i in range(1, n)])
        assert rebuilt == msg


class TestPathDistribution:
    def test_worked_point(self):
        dist = path_distribution(WORKED)
        assert dist.p == pytest.approx(0.3, abs=EXACT)
        assert dist.q == pytest.approx(0.2, abs=EXACT)
        assert dist.low_total == pytest.approx(0.6, abs=EXACT)

    def test_uniform_at_eps_zero(self):
        dist = path_distribution(SystemParams(2, 2, 2, 0.0, 0.0))
        assert dist.p == pytest.approx(0.25, abs=EXACT)
        assert dist.q == pytest.approx(0.25, abs=EXACT)

    def test_degenerate_at_unbounded_eps(self):
        dist = path_distribution(SystemParams(2, 2, 2, math.inf, 0.0))
        assert dist.p == 0.5
        assert dist.q == 0.0
        assert dist.high_total == 0.0

    def test_ratio_is_privacy_level(self):
        for n, k, eps in ((2, 2, 0.4), (3, 2, 1.0), (3, 4, 2.5), (5, 3, 0.1)):
            dist = path_distribution(SystemParams(n, k, n - 1, eps, 0.0))
            assert dist.p / dist.q == pytest.approx(math.exp(eps),
                                                    rel=EXACT)

    @given(st.integers(2, 7), st.integers(2, 40), st.floats(0.0, 700.0))
    @settings(max_examples=300, deadline=None)
    @example(2, 2, 40.0)
    @example(2, 2, 36.0)
    @example(3, 4, 8.0)
    @example(2, 2, math.log(1.5))
    def test_high_total_is_exact(self, n, k, eps):
        """1 - N p cancels as N p nears 1, to 0 at N=2 K=2 eps=40;
        high_total is taken from the law's own terms instead."""
        dist = path_distribution(SystemParams(n, k, n - 1, eps, 0.0))
        want = reference_forms(n, k, eps, 0.0)["high_total"]
        assert dist.high_total > 0
        assert ulps(dist.high_total, want, float(want)) <= 4

    def test_total_mass_is_one(self):
        for n, k in ((2, 2), (3, 3), (4, 2)):
            dist = path_distribution(SystemParams(n, k, n - 1, 0.7, 0.0))
            total = n * dist.p + (n ** k - n) * dist.q
            assert total == pytest.approx(1.0, abs=EXACT)


class TestPathSampling:
    def test_classify_base(self):
        assert classify_base((0, 0), 0) is PathClass.LOW
        assert classify_base((1, 0), 0) is PathClass.LOW
        assert classify_base((1, 0), 1) is PathClass.HIGH
        assert classify_base((0, 1, 0), 1) is PathClass.LOW
        assert classify_base((0, 1, 1), 1) is PathClass.HIGH

    def test_sample_respects_class(self):
        dist = path_distribution(WORKED)
        rng = random.Random(11)
        for _ in range(500):
            choice = sample_path(dist, 0, rng)
            assert classify_base(choice.base, 0) is choice.path_class
            assert 0 <= choice.base[0] < 2 and 0 <= choice.base[1] < 2

    def test_sample_frequencies(self):
        dist = path_distribution(WORKED)
        rng = random.Random(3)
        trials = 20000
        lows = sum(sample_path(dist, 1, rng).path_class is PathClass.LOW
                   for _ in range(trials))
        sigma = math.sqrt(0.6 * 0.4 / trials)
        assert abs(lows / trials - 0.6) <= 3 * sigma

    def test_sample_never_high_at_unbounded_eps(self):
        dist = path_distribution(SystemParams(3, 2, 2, math.inf, 0.0))
        rng = random.Random(0)
        for _ in range(300):
            assert sample_path(dist, 0, rng).path_class is PathClass.LOW

    def test_sample_is_deterministic_under_seeding(self):
        dist = path_distribution(WORKED)
        a = [sample_path(dist, 0, derived_rng(9, "t", i)) for i in range(50)]
        b = [sample_path(dist, 0, derived_rng(9, "t", i)) for i in range(50)]
        assert a == b


class TestQueries:
    def test_worked_vectors(self):
        choice = PathChoice((0, 1), 0, PathClass.HIGH)
        qs = make_queries(choice, WORKED)
        assert [q.indices for q in qs] == [(1, 1), (0, 1)]

    def test_three_database_vectors(self):
        p = SystemParams(3, 2, 4, 0.5, 0.1)
        choice = PathChoice((2, 1), 0, PathClass.HIGH)
        qs = make_queries(choice, p)
        assert [q.indices for q in qs] == [(0, 1), (1, 1), (2, 1)]

    @given(st.integers(2, 5), st.integers(2, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_base_to_query_bijection(self, n, k, data):
        """Each database sees every vector exactly once across all bases."""
        p = SystemParams(n, k, n - 1, 0.5, 0.0)
        desired = data.draw(st.integers(0, k - 1))
        db = data.draw(st.integers(0, n - 1))
        seen = set()
        for base in product(range(n), repeat=k):
            cls = classify_base(base, desired)
            qs = make_queries(PathChoice(base, desired, cls), p)
            seen.add(qs[db].indices)
        assert len(seen) == n ** k


class TestAnswer:
    def test_all_zero_query_returns_key_only(self):
        a = answer(STORE, WORKED_LAYOUT, QueryVector((0, 0)))
        assert a.masked == KEY
        assert a.open.nbits == 0

    def test_single_message_query(self):
        a = answer(STORE, WORKED_LAYOUT, QueryVector((1, 0)))
        assert a.masked == BitString(0, 1)  # 1 xor 1
        assert a.open == BitString(0b01, 2)

    def test_both_messages_query(self):
        a = answer(STORE, WORKED_LAYOUT, QueryVector((1, 1)))
        assert a.masked == BitString(0, 1)  # 1 xor 1 xor 0
        assert a.open == BitString(0b10, 2)  # 01 xor 11

    def test_query_validation(self):
        with pytest.raises(ValueError):
            answer(STORE, WORKED_LAYOUT, QueryVector((1,)))
        with pytest.raises(ValueError):
            answer(STORE, WORKED_LAYOUT, QueryVector((2, 0)))

    @given(st.integers(2, 5), st.integers(2, 6), st.integers(1, 4),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_subpacket_fold(self, n, k, per_sub, data):
        """answer equals the XOR fold of layout.subpacket slices for every
        key size, including zero open width and zero key width."""
        p = SystemParams(n, k, (n - 1) * per_sub, 0.5, 0.5)
        seed = data.draw(st.integers(0, 2 ** 16))
        index = st.integers(0, n - 1)
        queries = [(0,) * k, (n - 1,) * k,
                   tuple(data.draw(st.integers(1, n - 1)) for _ in range(k)),
                   tuple(data.draw(index) for _ in range(k))]
        for s in range(per_sub + 1):
            lay = layout_for_key_bits(p, s)
            store = MessageStore.random(p, lay, random.Random(seed))
            for indices in queries + queries:  # second pass reuses the table
                got = answer(store, lay, QueryVector(indices))
                assert got == _reference_answer(store, lay, indices)
            for bad in ((n,) + (0,) * (k - 1), (0,) * (k - 1) + (-1,),
                        (0,) * (k - 1), (0,) * (k + 1)):
                with pytest.raises(ValueError):
                    answer(store, lay, QueryVector(bad))

    def test_table_is_per_layout(self):
        """One store answered under two layouts of the same message and
        key width gets each layout's own subpackets."""
        msgs = (BitString(0b1011, 4), BitString(0b0110, 4))
        store = MessageStore(msgs, BitString(1, 1))
        for p in (SystemParams(2, 2, 4, 0.5, 0.5),
                  SystemParams(3, 2, 4, 0.5, 0.5)):
            lay = layout_for_key_bits(p, 1)
            for indices in product(range(p.n_databases), repeat=2):
                assert answer(store, lay, QueryVector(indices)) == \
                    _reference_answer(store, lay, indices)

    def test_store_must_match_layout(self):
        with pytest.raises(ValueError):
            answer(MessageStore((W0, BitString(0, 5)), KEY), WORKED_LAYOUT,
                   QueryVector((0, 1)))
        with pytest.raises(ValueError):
            answer(MessageStore((W0, W1), BitString(0, 2)), WORKED_LAYOUT,
                   QueryVector((1, 0)))


def _reference_answer(store, layout, indices):
    """The answer as a fold of layout.subpacket slices, one BitString XOR
    per selected subpacket."""
    masked, open_part = store.key, BitString.zeros(0)
    for k, v in enumerate(indices):
        if v:
            masked = masked ^ layout.subpacket(store.messages[k], 1, v)
            open_part = open_part ^ layout.subpacket(store.messages[k], 2, v)
    return Answer(masked, open_part)


class TestDecode:
    def _session(self, base, desired):
        cls = classify_base(base, desired)
        qs = make_queries(PathChoice(base, desired, cls), WORKED)
        ans = [answer(STORE, WORKED_LAYOUT, q) for q in qs]
        return qs, ans

    def test_low_path(self):
        qs, ans = self._session((0, 0), 0)
        assert decode(ans, qs, 0) == W0

    def test_high_path(self):
        qs, ans = self._session((0, 1), 0)
        assert decode(ans, qs, 0) == W0

    def test_all_bases_both_messages(self):
        for desired, expect in ((0, W0), (1, W1)):
            for base in product(range(2), repeat=2):
                qs, ans = self._session(base, desired)
                assert decode(ans, qs, desired) == expect

    def test_misaligned_inputs_rejected(self):
        qs, ans = self._session((0, 0), 0)
        with pytest.raises(ValueError):
            decode(ans[:1], qs, 0)
        with pytest.raises(ValueError):
            decode(ans, (qs[0], qs[0]), 0)

    @given(st.integers(2, 4), st.integers(2, 3), st.integers(0, 2),
           st.integers(1, 2), st.data())
    @settings(max_examples=120, deadline=None)
    def test_round_trip_random_instances(self, n, k, s, w2, data):
        p = SystemParams(n, k, (n - 1) * (s + w2), 0.9, 0.5)
        lay = layout_for_key_bits(p, s)
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        store = MessageStore.random(p, lay, rng)
        desired = data.draw(st.integers(0, k - 1))
        base = tuple(data.draw(st.integers(0, n - 1)) for _ in range(k))
        cls = classify_base(base, desired)
        qs = make_queries(PathChoice(base, desired, cls), p)
        ans = [answer(store, lay, q) for q in qs]
        assert decode(ans, qs, desired) == store.messages[desired]

    @given(n=st.integers(2, 5), k=st.integers(2, 3),
           widths=st.tuples(st.sampled_from([0, 1, 5]),
                            st.sampled_from([0, 1, 7, 8192])).filter(any),
           high=st.booleans(), reshape=st.booleans(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_narrow_path_equals_part_xors(self, n, k, widths, high, reshape,
                                          data):
        """decode equals the parts' XORs joined, the path every answer
        took before narrow ones were decoded as one int. Key width s and
        open width w are each 0 or not; w = 8192 bits is a wide part.
        With `reshape`, one part of one answer gets another width, and
        decode must raise what the part XORs raise, or agree with them."""
        s, w = widths
        p = SystemParams(n, k, (n - 1) * (s + w), 0.5, 0.5)
        lay = layout_for_key_bits(p, s)
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        store = MessageStore.random(p, lay, rng)
        desired = data.draw(st.integers(0, k - 1))
        base = [data.draw(st.integers(0, n - 1)) if high or j == desired
                else 0 for j in range(k)]
        if high and not any(base[:desired] + base[desired + 1:]):
            base[(desired + 1) % k] = 1
        cls = classify_base(base, desired)
        assert cls is (PathClass.HIGH if high else PathClass.LOW)
        qs = make_queries(PathChoice(tuple(base), desired, cls), p)
        ans = [answer(store, lay, q) for q in qs]
        if reshape:
            d = data.draw(st.integers(0, n - 1))
            nbits = data.draw(st.integers(0, s + w + 2))
            part = BitString(rng.getrandbits(nbits) if nbits else 0, nbits)
            masked, open_part = ans[d].masked, ans[d].open
            ans[d] = (Answer(part, open_part) if data.draw(st.booleans())
                      else Answer(masked, part))
        at = {q.indices[desired]: a for q, a in zip(qs, ans)}
        rest = [at[ell] for ell in range(1, n)]
        try:
            want = BitString.join([at[0].masked ^ a.masked for a in rest]
                                  + [at[0].open ^ a.open for a in rest])
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                decode(ans, qs, desired)
            return
        assert decode(ans, qs, desired) == want
        if not reshape:
            assert want == store.messages[desired]


class TestResidualView:
    def _session(self, base, desired):
        cls = classify_base(base, desired)
        qs = make_queries(PathChoice(base, desired, cls), WORKED)
        ans = [answer(STORE, WORKED_LAYOUT, q) for q in qs]
        return qs, ans

    def test_low_path_reveals_nothing(self):
        qs, ans = self._session((1, 0), 0)
        view = residual_view(ans, qs, W0, WORKED_LAYOUT)
        assert view.coefficients == ()
        assert view.bits is None
        assert view.leaked_bits == 0

    def test_high_path_reveals_open_subpacket(self):
        qs, ans = self._session((0, 1), 0)
        view = residual_view(ans, qs, W0, WORKED_LAYOUT)
        assert view.coefficients == ((1, 1),)
        assert view.bits == BitString(0b11, 2)  # open subpacket of W1
        assert view.leaked_bits == 2

    def test_masked_part_never_counted(self):
        # full-key layout: high path still leaks zero open bits
        p = SystemParams(2, 2, 2, 0.0, 0.0)
        lay = plan_partition(p)
        rng = random.Random(5)
        store = MessageStore.random(p, lay, rng)
        qs = make_queries(PathChoice((0, 1), 0, PathClass.HIGH), p)
        ans = [answer(store, lay, q) for q in qs]
        view = residual_view(ans, qs, store.messages[0], lay)
        assert view.coefficients == ((1, 1),)
        assert view.leaked_bits == 0

    def test_wrong_decode_detected(self):
        qs, ans = self._session((0, 1), 0)
        with pytest.raises(ValueError):
            residual_view(ans, qs, W1, WORKED_LAYOUT)

    def test_one_time_pad_on_masked_part(self):
        """Over all key values the masked reply cycles through all values."""
        p = SystemParams(2, 2, 4, 0.0, 0.0)
        lay = plan_partition(p)
        msgs = (BitString(0b1011, 4), BitString(0b0110, 4))
        seen = {answer(MessageStore(msgs, BitString(kv, 4)), lay,
                       QueryVector((1, 1))).masked.value
                for kv in range(16)}
        assert seen == set(range(16))


class TestCostAccounting:
    def test_session_bits_at_worked_point(self):
        assert session_download_bits(WORKED_LAYOUT, PathClass.LOW) == 4
        assert session_download_bits(WORKED_LAYOUT, PathClass.HIGH) == 6

    def test_session_bits_full_key(self):
        lay = plan_partition(SystemParams(2, 2, 2, 0.0, 0.0))
        assert session_download_bits(lay, PathClass.LOW) == 4
        assert session_download_bits(lay, PathClass.HIGH) == 4

    def test_expected_cost_worked_point(self):
        assert expected_cost(WORKED, WORKED_LAYOUT) == pytest.approx(
            1.6, abs=EXACT)

    def test_expected_cost_full_key(self):
        p = SystemParams(2, 2, 2, 0.0, 0.0)
        assert expected_cost(p, plan_partition(p)) == pytest.approx(
            2.0, abs=EXACT)

    def test_expected_cost_matches_mixture(self):
        for n, k, eps, delta in ((3, 2, 0.5, 0.2), (2, 3, 1.0, 0.1)):
            p = SystemParams(n, k, 6 * (n - 1), eps, delta)
            lay = plan_partition(p)
            dist = path_distribution(p)
            low = session_download_bits(lay, PathClass.LOW)
            high = session_download_bits(lay, PathClass.HIGH)
            mix = (dist.low_total * low
                   + (1 - dist.low_total) * high) / p.message_bits
            assert expected_cost(p, lay) == pytest.approx(mix, abs=EXACT)


    @given(n=st.integers(2, 5), k=st.integers(2, 4), subs=st.integers(1, 64),
           eps=st.one_of(st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.0]),
                         st.floats(0.0, 8.0)),
           delta=st.one_of(st.floats(0.0, 1.0),
                           st.integers(0, 20).map(lambda j: j * 0.05)))
    @example(n=2, k=2, subs=1, eps=2.0, delta=0.1)
    @settings(max_examples=300, deadline=None)
    def test_realized_cost_is_the_bound_at_effective_delta(self, n, k, subs,
                                                           eps, delta):
        """plan_partition rounds the key up to whole bits, which keeps the
        leakage within delta L (up to CEIL_GUARD) but makes the realized
        cost d_upper at layout.effective_delta, not at delta. That exceeds
        d_upper at delta by less than low_total / L: at N=2 K=2 L=1 eps=2
        delta=0.1 the cost is 2.0 against 1.261.

        Where the key is clamped the excess is known. At key 0 with
        delta >= delta1 the cost is the flat bound 1 + delta1, so the
        excess is 0. At key L/(N-1), where delta < high_total / L, every
        bit is masked and the cost is d_upper at delta = 0, 1 + 1/(N-1), so
        the excess is delta low_total / high_total. The excess is negative, by
        at most CEIL_GUARD low_total / L, only where the guard rounds the
        key down.
        """
        params = SystemParams(n, k, subs * (n - 1), eps, delta)
        layout = plan_partition(params)
        cost = expected_cost(params, layout)
        low = path_distribution(params).low_total
        # effective_delta carries the rounding of 1 - N p into d_upper,
        # which scales it by e^eps / (N^(K-1) - 1) = low / (1 - low).
        tol = 4 * math.ulp(2.0) * (1 + low / (1 - low))
        at_effective = SystemParams(n, k, params.message_bits, eps,
                                    layout.effective_delta)
        assert abs(cost - bounds_report(at_effective).d_upper) <= tol
        rep = bounds_report(params)
        excess = cost - rep.d_upper
        room = CEIL_GUARD * low / params.message_bits + tol
        assert -room <= excess < low / params.message_bits + room
        if layout.key_bits == 0 and delta >= rep.delta1:
            assert abs(excess) <= tol
        if layout.key_bits == subs:
            assert abs(cost - (1 + 1 / (n - 1))) <= tol
            assert abs(excess - delta * low / (1 - low)) <= room


class TestMessageStore:
    def test_random_is_seed_deterministic(self):
        a = MessageStore.random(WORKED, WORKED_LAYOUT, random.Random(42))
        b = MessageStore.random(WORKED, WORKED_LAYOUT, random.Random(42))
        assert a == b

    def test_random_shapes(self):
        store = MessageStore.random(WORKED, WORKED_LAYOUT, random.Random(1))
        assert len(store.messages) == 2
        assert all(m.nbits == 3 for m in store.messages)
        assert store.key.nbits == 1
