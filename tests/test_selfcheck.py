"""The verify suite's own checks: they pass on the real scheme and fail
when the scheme is broken."""

from alpir import BitString, Bounds, SystemParams, selfcheck
from alpir.scheme import Answer

# One store of the first exhaustive instance (N=2 K=2 L=2, no key) and
# one query it answers.
FAULTY_MESSAGES = (BitString(1, 2), BitString(2, 2))
FAULTY_QUERY = (1, 0)


def test_exhaustive_check_passes_with_every_decode():
    name, ok, detail = selfcheck.check_exhaustive_correctness()
    assert (name, ok) == ("exhaustive-correctness", True)
    assert detail == "32640 decodes, zero errors"


def test_exhaustive_check_catches_one_wrong_answer(monkeypatch):
    """Flip one open bit of one answer to one query vector on one store:
    every session that reads it must be decoded through that answer."""
    real_answer = selfcheck.answer
    flips = []

    def faulty_answer(store, layout, query):
        ans = real_answer(store, layout, query)
        if (store.key.nbits == 0 and store.messages == FAULTY_MESSAGES
                and query.indices == FAULTY_QUERY):
            flips.append(query)
            return Answer(ans.masked,
                          ans.open ^ BitString(1, ans.open.nbits))
        return ans

    monkeypatch.setattr(selfcheck, "answer", faulty_answer)
    name, ok, detail = selfcheck.check_exhaustive_correctness()
    assert flips
    assert not ok
    assert detail.startswith("wrong decode at n=2 k=2 l=2 s=0 ")


def test_point_check_names_the_call_cap():
    """At N=2 K=40000 the rank oracle would need 80,000 answer calls,
    over its cap; the point check says so and still checks the budget."""
    name, ok, detail = selfcheck.check_point(
        SystemParams(2, 40000, 2, 0.5, 0.5))
    assert (name, ok) == ("point-leakage", True)
    assert detail == ("analytic=1 budget=1 (oracle skipped: over "
                      "ORACLE_CALL_CAP = 65536 answer calls)")


def broken_rows(monkeypatch, edit):
    """Make selfcheck's bounds_rows give rows changed by edit, which takes
    and returns a Bounds."""
    real = selfcheck.bnd.bounds_rows

    def rows(params, deltas):
        return [edit(Bounds._make(row)) for row in real(params, deltas)]

    monkeypatch.setattr(selfcheck.bnd, "bounds_rows", rows)


def test_gap_check_names_the_first_point_past_the_cap(monkeypatch):
    def past_cap(row):
        return row._replace(gap_ratio=row.gap_cap + 1.0)

    broken_rows(monkeypatch, past_cap)
    assert selfcheck.check_gap_cap() == (
        "gap-cap-grid", False, "ratio 2.0 outside [1, cap=1.0] at 2,2,0.0,0.0")


def test_ordering_check_names_the_point(monkeypatch):
    def swapped(row):
        if row.delta == 0.1:
            return row._replace(alpha1=row.alpha2, alpha2=row.alpha1 + 1.0)
        return row

    broken_rows(monkeypatch, swapped)
    assert selfcheck.check_threshold_ordering() == (
        "threshold-ordering", False,
        "alpha1 < alpha2 at SystemParams(n_databases=2, n_messages=2, "
        "message_bits=4, eps=0.0, delta=0.1)")


def test_continuity_check_catches_a_jump(monkeypatch):
    def jump(row):
        if row.delta == row.delta1 > 0:
            return row._replace(d_upper=row.d_upper + 0.5)
        return row

    broken_rows(monkeypatch, jump)
    name, ok, detail = selfcheck.check_threshold_ordering()
    assert (name, ok) == ("threshold-ordering", False)
    assert detail == ("cost jump 0.5 across threshold at SystemParams("
                      "n_databases=2, n_messages=2, message_bits=4, eps=0.0, "
                      "delta=0.0)")
