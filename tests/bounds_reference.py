"""Exact-arithmetic reference for the closed forms in `alpir.bounds`.

`reference_forms` evaluates the six forms, the gap cap and the path law's
p, q and high-cost weight in `decimal` at 60 significant digits, starting from the exact
binary value of the float eps. It works with r = e^-eps, which decimal
carries down to about 10^-(10^18) and rounds to 0 below that, so no input
overflows it, and it shares no code with the package: every form is
rewritten in r, M = N^(K-1) and exact integers.
"""

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

DIGITS = 60
CTX = Context(prec=DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)


def reference_forms(n: int, k: int, eps: float, delta: float,
                    flip1: bool = False, flip2: bool = False) -> dict:
    """Every closed form at one point, as a Decimal.

    With r = e^-eps, F = N/r and G = F^(K-1) = M / r^(K-1):
    delta1 = (M-1) r / ((N-1)(1 + (M-1) r)), 1/(F-1) = r / (N - r) and
    delta2 = (1 - 1/G) / (F-1). The costs and key rates are flat at or
    past their threshold, except at delta = 0: for finite eps both
    thresholds are positive, even where they lie below every double.
    flip1 and flip2 take the other branch on the achievable and the
    converse side, for a delta next to a threshold.
    """
    with localcontext(CTX):
        zero, one, d = Decimal(0), Decimal(1), Decimal(delta)
        limit = math.isinf(eps)
        r = zero if limit else (-Decimal(eps)).exp()
        m1r = (n ** (k - 1) - 1) * r  # (M-1) e^-eps
        inv_n1 = one / (n - 1)
        delta1 = m1r / ((n - 1) * (one + m1r))
        inv_f1 = r / (n - r)  # 1 / (F-1)
        inv_g = r ** (k - 1) / n ** (k - 1)  # 1 / G
        delta2 = (one - inv_g) * inv_f1
        flat1 = limit or (0 < delta and d >= delta1) != flip1
        flat2 = limit or (0 < delta and d >= delta2) != flip2
        out = {
            "delta1": delta1,
            "alpha1": zero if flat1 else max(
                zero, inv_n1 - (d * (one + m1r) / m1r if delta else zero)),
            "d_upper": one + delta1 if flat1 else (
                one + inv_n1 - (d / m1r if delta else zero)),
            "delta2": delta2,
            "alpha2": zero if flat2 else max(
                zero, inv_f1 - d / (one - inv_g)),
            "d_lower": one + delta2 if flat2 else (
                one + inv_f1 - d * inv_g / (one - inv_g)),
            "gap_cap": (n - r) / (n - 1),
            "inv_f1": inv_f1,
        }
        # p = e^eps / (N e^eps + N^K - N), q = p e^-eps and the high-cost
        # weight (N^K - N) q, all over r.
        denom = n + (n ** k - n) * r
        out["p"], out["q"] = one / denom, r / denom
        out["high_total"] = (n ** k - n) * r / denom
        return out


def ulps(got: float, want: Decimal, scale: float) -> float:
    """|got - want| in units of the last place of the double `scale`."""
    with localcontext(CTX):
        return float(abs(Decimal(got) - want) / Decimal(math.ulp(scale)))
