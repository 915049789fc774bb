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
in the one evaluator `_forms`: the single-value functions read their
value from it, and `bounds_report` calls it once per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

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


def _require_multi_db(params: SystemParams) -> None:
    if params.n_databases < 2:
        raise ValueError(
            "bounds need n_databases >= 2; the single-database setting is "
            "degenerate, see single_server_cost"
        )


def _forms(params: SystemParams) -> tuple:
    """(delta1, alpha1, d_upper, delta2, alpha2, d_lower) at one point.

    Each closed form is written and evaluated once, on e^eps, N^(K-1) and 1
    scaled by 2^-s, F = N e^eps and 1 by 2^-u, F^(K-1) and 1 by 2^-t (from
    F^K), so it keeps its bits wherever its unscaled terms fit in a double.
    Past that, F^(K-1) is estimated, next to terms 2^1024 times larger.
    delta = 0 is below both thresholds, positive for finite eps. delta is
    compared with a delta1 below the normal doubles exactly."""
    _require_multi_db(params)
    n, k, delta = params.n_databases, params.n_messages, params.delta
    if math.isinf(params.eps):
        return (0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
    big = n ** (k - 1)
    s, e, one = scaled_terms(params.eps, big)
    m1, m = (big - 1) / (1 << s), big / (1 << s)
    d1 = m1 / ((n - 1) * (e + m - one))
    flat = 0 < delta >= d1
    if 0 < delta and d1 < 2.0 ** -1022:
        # A subnormal d1 has too few bits to be compared with delta: decide
        # delta >= (M-1) / ((N-1)(e 2^s + M - 1)) exactly, in integers.
        (a, b), (c, d) = delta.as_integer_ratio(), e.as_integer_ratio()
        flat = a * (n - 1) * ((c << s) + (big - 1) * d) >= (big - 1) * b * d
    upper = (d1, 0.0, 1.0 + d1) if flat else (
        d1, max(0.0, 1.0 / (n - 1) - delta * (e + m - one) / m1),
        1.0 + 1.0 / (n - 1) - delta * e / m1)
    u, e, ou = scaled_terms(params.eps, 1)
    f = n * e
    lf = math.log2(f)
    g = (k - 1) * (lf + u)
    t = max(0, math.ceil(g + lf) - 1000)
    try:
        fk = math.ldexp(f ** (k - 1), u * (k - 1) - t)
    except OverflowError:
        fk = 2.0 ** (g - t)
    ot = math.ldexp(1.0, -t)
    d2 = (fk - ot) * ou / ((f - ou) * fk)
    return upper + ((d2, 0.0, 1.0 + d2) if 0 < delta >= d2 else (
        d2, max(0.0, ou / (f - ou) - delta * fk / (fk - ot)),
        1.0 + ou / (f - ou) - delta * ot / (fk - ot)))


def delta1_threshold(params: SystemParams) -> float:
    """Smallest delta at which the achievable scheme needs no shared key.

    Equals (N^(K-1) - 1) / ((N-1) (e^eps + N^(K-1) - 1)); decreasing in
    eps, 0 in the eps -> infinity limit.
    """
    return _forms(params)[0]


def delta2_threshold(params: SystemParams) -> float:
    """Converse-side counterpart of delta1_threshold.

    Equals (F^(K-1) - 1) / ((F - 1) F^(K-1)) with F = N e^eps; never
    exceeds delta1_threshold.
    """
    return _forms(params)[3]


def alpha1_rate(params: SystemParams) -> float:
    """Shared-key rate (key bits per message bit) of the achievable scheme.

    1/(N-1) - delta (e^eps + N^(K-1) - 1)/(N^(K-1) - 1), clamped at zero;
    exactly zero for delta >= delta1_threshold, and zero for all delta in
    the eps -> infinity limit.
    """
    return _forms(params)[1]


def alpha2_rate(params: SystemParams) -> float:
    """Converse lower bound on the shared-key rate; <= alpha1_rate."""
    return _forms(params)[4]


def d_upper(params: SystemParams) -> float:
    """Achievable download cost in bits per message bit.

    1 + 1/(N-1) - delta e^eps/(N^(K-1) - 1) for delta below
    delta1_threshold; flat at 1 + delta1_threshold beyond it.
    """
    return _forms(params)[2]


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
    _, _, upper, _, _, lower = _forms(params)
    return upper / lower, _gap_cap(params)


def _gap_cap(params: SystemParams) -> float:
    n = params.n_databases
    return (n - math.exp(-params.eps)) / (n - 1)


@dataclass(frozen=True)
class SingleServerOutcome:
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


@dataclass(frozen=True)
class RegimeInfo:
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
    d1, _, cost = _forms(params)[:3]
    return _regime(params, d1, cost)


def _regime(params: SystemParams, d1: float, cost: float) -> RegimeInfo:
    """classify_regime given delta1 and d_upper, the cost it names off PIR."""
    n, k = params.n_databases, params.n_messages
    if math.isinf(params.eps):
        if params.delta == 0.0:
            return RegimeInfo(Regime.NO_PRIVACY, 1.0)
        return RegimeInfo(Regime.L_PIR, 1.0)
    if params.eps == 0.0 and params.delta == 0.0:
        return RegimeInfo(Regime.SPIR, cost)
    if params.eps == 0.0:
        if math.isclose(params.delta, d1, rel_tol=REL_TOL):
            return RegimeInfo(Regime.PIR, sum(n ** -j for j in range(k)))
        if params.delta < d1:
            return RegimeInfo(Regime.LEAKY_DB, cost)
        return RegimeInfo(Regime.GENERAL, None)
    if 0 < params.delta >= d1:
        return RegimeInfo(Regime.L_PIR, cost)
    return RegimeInfo(Regime.GENERAL, None)


# The columns of a BoundsReport row, as bounds and sweep print them.
BOUNDS_FIELDS = ("n", "k", "eps", "delta", "d_upper", "d_lower", "alpha1",
                 "alpha2", "delta1", "delta2", "gap_ratio", "gap_cap",
                 "regime", "reference_cost")


@dataclass(frozen=True)
class BoundsReport:
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
    d1, a1, upper, d2, a2, lower = _forms(params)
    info = _regime(params, d1, upper)
    return BoundsReport(
        params=params,
        d_upper=upper,
        d_lower=lower,
        alpha1=a1,
        alpha2=a2,
        delta1=d1,
        delta2=d2,
        gap_ratio=upper / lower,
        gap_cap=_gap_cap(params),
        regime=info.regime,
        reference_cost=info.reference_cost,
    )
