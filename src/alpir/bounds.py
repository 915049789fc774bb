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

All functions take a SystemParams, are finite for every finite eps and
take exact limits at eps = math.inf. Every closed form is written once,
in the one evaluator `bounds_rows`: it evaluates the terms that depend on
eps alone once per (N, K, eps), then gives one row per delta. The
single-value functions, `classify_regime` and `bounds_report` read one
row of it, and `alpir sweep` one call per (N, K, eps).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterator, NamedTuple, Optional, Sequence

from .params import SystemParams

# Comparison tolerance used for regime classification at the PIR point.
REL_TOL = 1e-9

# ln 2 = _LN2_HI + _LN2_LO (fdlibm); j * _LN2_HI is exact for |j| < 2^21.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


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
    """The BOUNDS_FIELDS row at params' N, K and eps for each delta in
    deltas, in order; params.delta is not read.

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
        # The Regime values; see classify_regime.
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


def _forms(params: SystemParams) -> tuple:
    """The BOUNDS_FIELDS row at params."""
    return next(bounds_rows(params, (params.delta,)))


def delta1_threshold(params: SystemParams) -> float:
    """Smallest delta at which the achievable scheme needs no shared key.

    Equals (N^(K-1) - 1) / ((N-1) (e^eps + N^(K-1) - 1)); decreasing in
    eps, 0 in the eps -> infinity limit.
    """
    return _forms(params)[8]


def delta2_threshold(params: SystemParams) -> float:
    """Converse-side counterpart of delta1_threshold.

    Equals (F^(K-1) - 1) / ((F - 1) F^(K-1)) with F = N e^eps; never
    exceeds delta1_threshold.
    """
    return _forms(params)[9]


def alpha1_rate(params: SystemParams) -> float:
    """Shared-key rate (key bits per message bit) of the achievable scheme.

    1/(N-1) - delta (e^eps + N^(K-1) - 1)/(N^(K-1) - 1), clamped at zero;
    exactly zero for delta >= delta1_threshold, and zero for all delta in
    the eps -> infinity limit.
    """
    return _forms(params)[6]


def alpha2_rate(params: SystemParams) -> float:
    """Converse lower bound on the shared-key rate; <= alpha1_rate."""
    return _forms(params)[7]


def d_upper(params: SystemParams) -> float:
    """Achievable download cost in bits per message bit.

    1 + 1/(N-1) - delta e^eps/(N^(K-1) - 1) for delta below
    delta1_threshold; flat at 1 + delta1_threshold beyond it.
    """
    return _forms(params)[4]


def d_lower(params: SystemParams) -> float:
    """Converse download cost in bits per message bit.

    1 + 1/(F-1) - delta/(F^(K-1) - 1) with F = N e^eps for delta below
    delta2_threshold; flat at 1 + delta2_threshold beyond it.
    """
    return _forms(params)[5]


def gap_ratio(params: SystemParams) -> tuple[float, float]:
    """(d_upper / d_lower, multiplicative cap (N - e^-eps)/(N - 1)).

    The ratio never exceeds the cap and equals 1 at eps = 0, where the
    two bounds coincide for every delta.
    """
    return _forms(params)[10:12]


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
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta < n_messages - 1:
        return SingleServerOutcome(False, math.inf)
    return SingleServerOutcome(True, float(n_messages))


class Regime(Enum):
    SPIR = "SPIR"
    PIR = "PIR"
    L_PIR = "L-PIR"
    LEAKY_DB = "LeakyDB"
    NO_PRIVACY = "NoPrivacy"
    GENERAL = "General"


class RegimeInfo(NamedTuple):
    regime: Regime
    reference_cost: Optional[float]


def classify_regime(params: SystemParams) -> RegimeInfo:
    """Name the privacy regime and attach its closed-form cost if it has one.

    eps = 0 and delta = 0 (exact) is symmetric PIR; eps = 0 with delta at
    the keyless threshold (relative tolerance 1e-9) is classic PIR; eps = 0
    below the threshold trades key for leakage (LeakyDB, where both bounds
    agree); delta at or past the threshold with eps > 0 is user-side-only
    leakage (L-PIR); unbounded eps with delta = 0 needs no protocol at all.
    """
    row = _forms(params)
    return RegimeInfo(Regime(row[12]), row[13])


# The columns of a BoundsReport row, as bounds and sweep print them.
BOUNDS_FIELDS = ("n", "k", "eps", "delta", "d_upper", "d_lower", "alpha1",
                 "alpha2", "delta1", "delta2", "gap_ratio", "gap_cap",
                 "regime", "reference_cost")


class BoundsReport(NamedTuple):
    """Everything the bound layer knows about one parameter point."""

    params: SystemParams
    d_upper: float
    d_lower: float
    alpha1: float
    alpha2: float
    delta1: float
    delta2: float
    gap_ratio: float
    gap_cap: float
    regime: Regime
    reference_cost: Optional[float]

    def row(self) -> tuple:
        """The values of BOUNDS_FIELDS, in that order."""
        p = self.params
        return (p.n_databases, p.n_messages, p.eps, p.delta, self.d_upper,
                self.d_lower, self.alpha1, self.alpha2, self.delta1,
                self.delta2, self.gap_ratio, self.gap_cap, self.regime.value,
                self.reference_cost)

    def to_dict(self) -> dict:
        return dict(zip(BOUNDS_FIELDS, self.row()))


def bounds_report(params: SystemParams) -> BoundsReport:
    row = _forms(params)
    return BoundsReport(params, *row[4:12], Regime(row[12]), row[13])
