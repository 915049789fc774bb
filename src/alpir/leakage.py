"""Privacy auditing: analytic formulas, an exact oracle, and sampled checks.

Each promise has one checker, and the samplers here and `alpir simulate`
only feed it numbers: `cost_audit_from_mean` (mean download cost within
3 sigma of the closed form), `ratio_audit_from_counts` (query law keeps
p/q = e^eps) and `db_leak_audit` (leakage at most delta * L bits, and the
exact oracle, when it fits, equal to the closed form).

User-side privacy is the worst-case likelihood ratio a database can form
between two candidate desired indices from its own (query, answer) view.
Analytically this is p/q = e^eps; the empirical auditor re-estimates it
from sampled query frequencies.

Database-side privacy is the mutual information between the undesired
messages and the user's full view, in bits. Analytically one high-cost
session leaks exactly the width of the surviving open XOR combination and
low-cost sessions leak nothing, giving (1 - Np) * (L/(N-1) - s) bits. The
exact oracle recomputes the mutual information by brute-force enumeration
of messages, key, and path, and must agree to float precision.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bits import BitString
from .params import SystemParams
from .scheme import (MessageStore, PartitionLayout, PathChoice,
                     PathClass, PathDistribution, answer, classify_base,
                     expected_cost, make_queries, path_distribution,
                     plan_partition, sample_path, session_download_bits)
from .seeding import derived_rng

DEFAULT_STATE_CAP = 1 << 24
MIN_AUDIT_TRIALS = 1000
LEAK_TOL_BITS = 1e-9


class StateSpaceError(RuntimeError):
    """The exact oracle would have to enumerate too many states."""


def analytic_user_ratio(dist: PathDistribution) -> float:
    """Worst-case query likelihood ratio between two desired indices.

    Achieved by vectors with a single nonzero coordinate (probability p
    under one index, q under the other); equals e^eps by construction.
    Infinite in the eps -> infinity limit, where q = 0.
    """
    if dist.q == 0.0:
        return math.inf
    return dist.p / dist.q


def analytic_db_leakage(params: SystemParams, layout: PartitionLayout) -> float:
    """Exact leaked bits about the undesired messages per session.

    Low-cost paths leak nothing (their open parts only carry the desired
    message); each high-cost path leaks the one surviving open XOR
    combination of L/(N-1) - s bits. The key pads every masked part, so
    only the open width counts.
    """
    dist = path_distribution(params)
    high_total = 1.0 - dist.low_total
    return high_total * layout.open_subpacket_bits


def db_leak_budget_bits(params: SystemParams) -> float:
    """The configured allowance delta * L, in bits."""
    return params.delta * params.message_bits


def message_space(k: int, l: int):
    """Every assignment of K messages of l bits, as K-tuples of BitStrings,
    message j taken from bits j*l .. j*l + l - 1 of a counter."""
    mask = (1 << l) - 1
    for packed in range(1 << (k * l)):
        yield tuple(BitString((packed >> (j * l)) & mask, l)
                    for j in range(k))


@dataclass(frozen=True)
class OracleResult:
    """Exact mutual information, overall and per desired message."""

    max_bits: float
    per_message: tuple[float, ...]


def exact_mi_oracle(params: SystemParams, layout: PartitionLayout,
                    state_cap: int = DEFAULT_STATE_CAP,
                    message_support: Optional[Sequence[tuple[int, ...]]] = None,
                    ) -> OracleResult:
    """I(undesired messages; queries, answers) by full enumeration.

    Sums the joint law over every message assignment (uniform, or uniform
    over an explicit support), every key value, and every base vector,
    running the real scheme to produce the view. Independent of the
    analytic route: nothing here knows the closed form.

    Raises StateSpaceError when paths * messages * keys exceeds state_cap.
    """
    n, k, l = params.n_databases, params.n_messages, params.message_bits
    s = layout.key_bits
    # The state count is factor * 2^exponent. Feasibility is decided from
    # bit lengths, because at large L the count itself is too big to build
    # or to print in decimal.
    factor, exponent = n ** k, s
    if message_support is None:
        exponent += k * l
    else:
        if not message_support:
            raise ValueError("message_support must be nonempty")
        factor *= len(message_support)
    if (exponent >= state_cap.bit_length()
            or factor << exponent > state_cap):
        raise StateSpaceError(
            f"2^{math.log2(factor) + exponent:.2f} states exceed the cap "
            f"of {state_cap}")
    n_keys = 1 << s
    n_msgs = len(message_support) if message_support else 1 << (k * l)

    dist = path_distribution(params)
    bases = list(itertools.product(range(n), repeat=k))

    def message_tuples():
        if message_support is not None:
            for combo in message_support:
                if len(combo) != k:
                    raise ValueError("support entries must list K messages")
                yield tuple(BitString(m, l) for m in combo)
        else:
            yield from message_space(k, l)

    per_message = []
    for desired in range(k):
        joint = defaultdict(float)
        view_marg = defaultdict(float)
        rest_marg = defaultdict(float)
        for msgs in message_tuples():
            rest = tuple(msgs[j].value for j in range(k) if j != desired)
            for key in range(n_keys):
                store = MessageStore(msgs, BitString(key, s))
                w = 1.0 / (n_msgs * n_keys)
                for base in bases:
                    if classify_base(base, desired) is PathClass.LOW:
                        px = dist.p
                    else:
                        px = dist.q
                    if px == 0.0:
                        continue
                    choice = PathChoice(base, desired,
                                        classify_base(base, desired))
                    view = tuple(
                        (qv.indices,) + _answer_key(answer(store, layout, qv))
                        for qv in make_queries(choice, params))
                    pr = px * w
                    joint[(rest, view)] += pr
                    view_marg[view] += pr
                    rest_marg[rest] += pr
        mi = 0.0
        for (rest, view), pr in joint.items():
            mi += pr * math.log2(pr / (rest_marg[rest] * view_marg[view]))
        per_message.append(max(0.0, mi))
    return OracleResult(max(per_message), tuple(per_message))


def _answer_key(a) -> tuple:
    return (a.masked.value, a.masked.nbits, a.open.value, a.open.nbits)


@dataclass(frozen=True)
class QueryAuditResult:
    """Sampled per-structure query frequencies and the worst ratio found."""

    trials_per_message: dict
    max_ratio: float
    halfwidth: float
    budget: float
    violation: bool
    counts: dict

    def to_dict(self) -> dict:
        return {
            "trials_per_message": dict(self.trials_per_message),
            "max_ratio": self.max_ratio,
            "halfwidth": self.halfwidth,
            "budget": self.budget,
            "violation": self.violation,
        }


def ratio_audit_from_counts(counts: dict, trials_per_message,
                            budget: float) -> QueryAuditResult:
    """Worst observed likelihood ratio from per-structure counts.

    counts maps (desired, database, vector) to an observed count;
    trials_per_message is the session count behind each desired index
    (an int when uniform, or a dict keyed by desired index). Frequencies
    are compared across desired indices at fixed (database, vector); a
    3-sigma half-width for the maximizing pair comes from binomial
    variances through the delta method. A violation is flagged only when
    the lower confidence edge clears the budget.
    """
    per_desired_trials = defaultdict(lambda: trials_per_message)
    if isinstance(trials_per_message, dict):
        per_desired_trials = trials_per_message
    by_cell = defaultdict(dict)
    for (desired, db, vec), c in counts.items():
        by_cell[(db, vec)][desired] = c
    best, best_hw = 0.0, 0.0
    for cell, per_desired in by_cell.items():
        for ka, ca in per_desired.items():
            for kb, cb in per_desired.items():
                if ka == kb or cb == 0:
                    continue
                ma, mb = per_desired_trials[ka], per_desired_trials[kb]
                ratio = (ca / ma) / (cb / mb)
                if ratio > best:
                    var = (1 - ca / ma) / ca if ca else 0.0
                    var += (1 - cb / mb) / cb
                    best = ratio
                    best_hw = 3.0 * ratio * math.sqrt(var)
    violation = bool(best - best_hw > budget) if math.isfinite(budget) else False
    if not isinstance(trials_per_message, dict):
        keys = {desired for (desired, _, _) in counts}
        trials_per_message = {d: per_desired_trials[d] for d in sorted(keys)}
    return QueryAuditResult(trials_per_message, best, best_hw, budget,
                            violation, dict(counts))


def empirical_query_audit(trials: int, params: SystemParams,
                          seed: int) -> QueryAuditResult:
    """Sample query structures per desired index and audit the ratio law."""
    if trials < MIN_AUDIT_TRIALS:
        raise ValueError(f"need at least {MIN_AUDIT_TRIALS} trials")
    dist = path_distribution(params)
    counts = defaultdict(int)
    for desired in range(params.n_messages):
        rng = derived_rng(seed, "query-audit", desired)
        for _ in range(trials):
            choice = sample_path(dist, desired, rng)
            for db, qv in enumerate(make_queries(choice, params)):
                counts[(desired, db, qv.indices)] += 1
    budget = analytic_user_ratio(dist)
    return ratio_audit_from_counts(dict(counts), trials, budget)


@dataclass(frozen=True)
class CostAuditResult:
    """Sampled download cost against the closed-form expectation."""

    trials: int
    mean_cost: float
    expected: float
    sigma: float
    violation: bool

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "mean_cost": self.mean_cost,
            "expected": self.expected,
            "sigma": self.sigma,
            "violation": self.violation,
        }


def cost_audit_from_mean(params: SystemParams, layout: PartitionLayout,
                         mean_cost: float, trials: int) -> CostAuditResult:
    """Mean per-session download bits / L over `trials` sessions against
    the closed form; a violation is a miss by more than 3 sigma, or any
    miss when the cost is deterministic (sigma = 0)."""
    l = params.message_bits
    low_cost = session_download_bits(layout, PathClass.LOW) / l
    high_cost = session_download_bits(layout, PathClass.HIGH) / l
    expect = expected_cost(params, layout)
    pl = path_distribution(params).low_total
    sigma = abs(high_cost - low_cost) * math.sqrt(pl * (1 - pl) / trials)
    violation = bool(abs(mean_cost - expect) > 3.0 * sigma) if sigma else (
        mean_cost != expect)
    return CostAuditResult(trials, mean_cost, expect, sigma, violation)


def empirical_cost_audit(trials: int, params: SystemParams,
                         seed: int) -> CostAuditResult:
    """Monte-Carlo mean of per-session download bits / L, with a 3-sigma flag."""
    if trials < MIN_AUDIT_TRIALS:
        raise ValueError(f"need at least {MIN_AUDIT_TRIALS} trials")
    layout = plan_partition(params)
    dist = path_distribution(params)
    l = params.message_bits
    low_cost = session_download_bits(layout, PathClass.LOW) / l
    high_cost = session_download_bits(layout, PathClass.HIGH) / l
    rng = derived_rng(seed, "cost-audit")
    k = params.n_messages
    costs = np.empty(trials)
    for t in range(trials):
        choice = sample_path(dist, t % k, rng)
        costs[t] = low_cost if choice.path_class is PathClass.LOW else high_cost
    return cost_audit_from_mean(params, layout, float(costs.mean()), trials)


@dataclass(frozen=True)
class DbLeakAudit:
    """Leaked bits per session; exact_bits is None when the oracle's state
    space is too large, and then only the closed form meets the budget."""

    analytic_bits: float
    budget_bits: float
    exact_bits: Optional[float]
    ok: bool


def db_leak_audit(params: SystemParams,
                  layout: PartitionLayout) -> DbLeakAudit:
    """The closed-form leakage must stay within delta * L bits, and the
    exact oracle, when it fits, must match it within LEAK_TOL_BITS."""
    analytic = analytic_db_leakage(params, layout)
    budget = db_leak_budget_bits(params)
    try:
        exact = exact_mi_oracle(params, layout).max_bits
    except StateSpaceError:
        exact = None
    ok = analytic <= budget + LEAK_TOL_BITS and (exact is None or (
        abs(exact - analytic) <= LEAK_TOL_BITS
        and exact <= budget + LEAK_TOL_BITS))
    return DbLeakAudit(analytic, budget, exact, ok)


@dataclass(frozen=True)
class LeakageReport:
    """Both privacy measurements, analytic and measured, side by side."""

    user_ratio_analytic: float
    user_ratio_empirical: float
    user_ratio_halfwidth: float
    db_leak_analytic_bits: float
    db_leak_exact_bits: Optional[float]
    db_leak_budget_bits: float
    trials: int

    def to_dict(self) -> dict:
        return {
            "user_ratio_analytic": self.user_ratio_analytic,
            "user_ratio_empirical": self.user_ratio_empirical,
            "user_ratio_halfwidth": self.user_ratio_halfwidth,
            "db_leak_analytic_bits": self.db_leak_analytic_bits,
            "db_leak_exact_bits": self.db_leak_exact_bits,
            "db_leak_budget_bits": self.db_leak_budget_bits,
            "trials": self.trials,
        }


def leakage_report(params: SystemParams, trials: int,
                   seed: int) -> LeakageReport:
    """Assemble the full report; the oracle is skipped when it cannot fit."""
    dist = path_distribution(params)
    audit = empirical_query_audit(trials, params, seed)
    leak = db_leak_audit(params, plan_partition(params))
    return LeakageReport(
        user_ratio_analytic=analytic_user_ratio(dist),
        user_ratio_empirical=audit.max_ratio,
        user_ratio_halfwidth=audit.halfwidth,
        db_leak_analytic_bits=leak.analytic_bits,
        db_leak_exact_bits=leak.exact_bits,
        db_leak_budget_bits=leak.budget_bits,
        trials=trials,
    )
