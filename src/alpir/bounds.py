"""Download-cost bounds for leaky private information retrieval.

Closed-form achievable and converse download costs (bits downloaded per
message bit) as functions of the system shape (N databases, K messages)
and the two privacy budgets: eps bounds the likelihood ratio any database
can form about the desired index, delta bounds the information the user
may learn about the undesired messages, in bits per message bit.

Each side has a leakage threshold (delta1 for the achievable scheme,
delta2 for the converse) beyond which extra delta buys nothing: the cost
curve is flat and no shared randomness is required. Below the threshold
the cost falls linearly in delta and the databases must share a key of
alpha1 (resp. alpha2) L bits that the user never sees.

Every closed form is written once, in the one evaluator `bounds_rows`:
it evaluates the terms that depend on eps alone once per (N, K, eps),
then gives one row of the `Bounds` fields per delta. Its rows are finite
for every finite eps and take exact limits at eps = math.inf.
`bounds_report` names the row at one SystemParams, and `alpir sweep`
makes one call per (N, K, eps).
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional, Sequence

from .params import SystemParams

# Comparison tolerance used for regime classification at the PIR point.
REL_TOL = 1e-9

# ln 2 = _LN2_HI + _LN2_LO (fdlibm); j * _LN2_HI is exact for |j| < 2^21.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


class Bounds(NamedTuple):
    """Everything the bound layer knows about one parameter point, in the
    column order that bounds and sweep print.

    With F = N e^eps and M = N^(K-1):
    - d_upper, the achievable cost: 1 + 1/(N-1) - delta e^eps/(M-1) below
      delta1, flat at 1 + delta1 from it on.
    - d_lower, the converse cost: 1 + 1/(F-1) - delta/(F^(K-1)-1) below
      delta2, flat at 1 + delta2 from it on.
    - alpha1, the scheme's shared-key rate (key bits per message bit):
      1/(N-1) - delta (e^eps + M - 1)/(M - 1), clamped at zero; exactly
      zero from delta1 on, and for every delta at eps = inf.
    - alpha2, the converse lower bound on the key rate:
      1/(F-1) - delta F^(K-1)/(F^(K-1) - 1), clamped at zero; <= alpha1.
    - delta1 = (M - 1)/((N-1)(e^eps + M - 1)), the least delta at which
      the scheme needs no key; decreasing in eps, 0 at eps = inf.
    - delta2 = (F^(K-1) - 1)/((F-1) F^(K-1)), its converse counterpart;
      never above delta1.
    - gap_ratio = d_upper / d_lower, never above gap_cap =
      (N - e^-eps)/(N - 1), and 1 at eps = 0, where the bounds coincide.
    - regime names the privacy regime, as the string the CSV prints, and
      reference_cost is its closed-form cost, or None. eps = 0 and
      delta = 0 (exact) is "SPIR"; eps = 0 with delta at delta1 (relative
      tolerance REL_TOL) is classic "PIR", cost sum(N^-j, j < K); eps = 0
      below delta1 trades key for leakage ("LeakyDB", where both bounds
      agree); delta > 0 at or past delta1 with eps > 0 is user-side-only
      leakage ("L-PIR"); eps = inf with delta = 0 needs no protocol at all
      ("NoPrivacy", cost 1). SPIR, LeakyDB and L-PIR cost d_upper. Every
      other point is "General", with no reference cost.
    """

    n: int
    k: int
    eps: float
    delta: float
    d_upper: float
    d_lower: float
    alpha1: float
    alpha2: float
    delta1: float
    delta2: float
    gap_ratio: float
    gap_cap: float
    regime: str
    reference_cost: Optional[float]


BOUNDS_FIELDS = Bounds._fields


def scaled_terms(eps: float, big: int) -> tuple[int, float, float]:
    """(s, e^eps / 2^s, 1 / 2^s), s >= 0 the least that keeps e^eps / 2^s and
    big / 2^s below 2^512 (room for N up to 2^500). s stops at b + 1072, b
    the bit length of big, where e^eps / 2^s, held at 2^512, outweighs all
    else and (big - 1) / 2^s is still above 0. Dividing by 2^s is exact."""
    b, x = big.bit_length(), eps / _LN2_HI
    if b <= 512 and x <= 512:  # nothing to scale
        return 0, math.exp(eps), 1.0
    s = max(0, b - 512, math.ceil(min(x - 512, b + 1072)))
    if x - s > 512:
        return s, 2.0 ** 512, math.ldexp(1.0, -s)
    j = round(x) if eps > 700 else 0  # e^eps = 2^j e^r, |r| <= ln 2 / 2
    e = math.ldexp(math.exp(eps - j * _LN2_HI - j * _LN2_LO), j - s)
    return s, e, math.ldexp(1.0, -s)


def bounds_rows(params: SystemParams,
                deltas: Sequence[float]) -> Iterator[tuple]:
    """The Bounds row at params' N, K and eps for each delta in deltas, in
    order, as a plain tuple; params.delta is not read.

    The one place the closed forms are written. Both bounds are affine in
    delta once (N, K, eps) is fixed, so every term that depends on eps
    alone is evaluated once per call: e^eps, N^(K-1) and 1 scaled by 2^-s,
    F = N e^eps and 1 by 2^-u, F^(K-1) and 1 by 2^-t (from F^K), so each
    form keeps its bits wherever its unscaled terms fit in a double. Past
    that, F^(K-1) is estimated, next to terms 2^1024 times larger. Each
    delta then costs a few products. delta = 0 is below both thresholds,
    positive for finite eps. delta is compared with a delta1 below the
    normal doubles exactly, and that one comparison sets the cost, the
    key rate and the regime. A delta that SystemParams refuses raises its
    ValueError before the first row.
    """
    if params.n_databases < 2:
        raise ValueError("bounds need n_databases >= 2; the single-database "
                         "setting is degenerate, see single_server_cost")
    for delta in deltas:
        if not 0.0 <= delta < math.inf:
            raise ValueError("delta must be finite and >= 0")
    n, k, eps = params.n_databases, params.n_messages, params.eps
    cap = (n - math.exp(-eps)) / (n - 1)
    if math.isinf(eps):
        for delta in deltas:
            yield (n, k, eps, delta, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, cap,
                   "L-PIR" if delta else "NoPrivacy", 1.0)
        return
    big = n ** (k - 1)
    s, e, one = scaled_terms(eps, big)
    m1, m = (big - 1) / (1 << s), big / (1 << s)
    w = e + m - one
    d1 = m1 / ((n - 1) * w)
    inv = 1.0 / (n - 1)
    # A subnormal d1 has too few bits to be compared with delta: decide
    # delta >= (M-1) / ((N-1)(e 2^s + M - 1)) exactly, in integers.
    exact = d1 < 2.0 ** -1022
    if exact:
        c, d = e.as_integer_ratio()
        lhs, rhs = (n - 1) * ((c << s) + (big - 1) * d), (big - 1) * d
    u, eu, ou = scaled_terms(eps, 1)
    f = n * eu
    lf = math.log2(f)
    g = (k - 1) * (lf + u)
    t = max(0, math.ceil(g + lf) - 1000)
    try:
        fk = math.ldexp(f ** (k - 1), u * (k - 1) - t)
    except OverflowError:
        fk = 2.0 ** (g - t)
    ot = math.ldexp(1.0, -t)
    fd = fk - ot
    d2 = fd * ou / ((f - ou) * fk)
    r = ou / (f - ou)
    # The flat rows of a block share these objects, so that
    # rows.write_rows writes each once.
    upper_flat, lower_flat = 1.0 + d1, 1.0 + d2
    for delta in deltas:
        flat = 0 < delta >= d1
        if exact and delta > 0:
            a, b = delta.as_integer_ratio()
            flat = a * lhs >= rhs * b
        upper, a1 = (upper_flat, 0.0) if flat else (
            1.0 + inv - delta * e / m1, max(0.0, inv - delta * w / m1))
        lower, a2 = (lower_flat, 0.0) if 0 < delta >= d2 else (
            1.0 + r - delta * ot / fd, max(0.0, r - delta * fk / fd))
        # The regime rules are in the Bounds docstring.
        if eps:
            regime, cost = ("L-PIR", upper) if flat else ("General", None)
        elif not delta:
            regime, cost = "SPIR", upper
        elif math.isclose(delta, d1, rel_tol=REL_TOL):
            regime, cost = "PIR", sum(n ** -j for j in range(k))
        else:
            regime, cost = ("LeakyDB", upper) if delta < d1 else (
                "General", None)
        yield (n, k, eps, delta, upper, lower, a1, a2, d1, d2, upper / lower,
               cap, regime, cost)


def bounds_report(params: SystemParams) -> Bounds:
    """The Bounds at params."""
    return Bounds._make(next(bounds_rows(params, (params.delta,))))


class SingleServerOutcome(NamedTuple):
    """Result of the one-database setting: feasible only for delta >= K-1."""

    feasible: bool
    cost: float


def single_server_cost(n_messages: int, delta: float) -> SingleServerOutcome:
    """Optimal cost with a single database, any eps.

    With one server and delta < K - 1 no finite download suffices; once
    delta >= K - 1 the user can simply download everything (cost K).
    """
    if n_messages < 2:
        raise ValueError("n_messages must be >= 2")
    if not 0.0 <= delta < math.inf:
        raise ValueError("delta must be finite and >= 0")
    if delta < n_messages - 1:
        return SingleServerOutcome(False, math.inf)
    return SingleServerOutcome(True, float(n_messages))
