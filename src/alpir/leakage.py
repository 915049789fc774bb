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
exact oracle recomputes the mutual information without the closed form:
the answers are GF(2)-linear in uniform messages and key, so each path
leaks a rank deficit of its answer matrix, whose rows it reads from the
real `answer` on a one-bit-per-slot probe store. Its cost is a count of
`answer` calls that grows with N and K but not with L, and it is skipped
above ORACLE_CALL_CAP calls.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bits import BitString
from .params import SystemParams
from .scheme import (MessageStore, PartitionLayout, PathChoice,
                     PathClass, PathDistribution, answer, classify_base,
                     expected_cost, make_queries, path_distribution,
                     plan_partition, sample_path, session_download_bits)
from .seeding import derived_rng

# Most `answer` calls exact_mi_oracle may make; the count does not depend
# on L. N=2 K=128 takes 65,536 and fits (2.5 s on a 2-vCPU x86 VM); N=2
# K=255 would take 260,100 and is skipped.
ORACLE_CALL_CAP = 1 << 16
MIN_AUDIT_TRIALS = 1000
LEAK_TOL_BITS = 1e-9


class StateSpaceError(RuntimeError):
    """The exact oracle would need more `answer` calls than its cap."""


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
                    call_cap: int = ORACLE_CALL_CAP) -> OracleResult:
    """I(undesired messages; queries, answers) in bits, per desired index.

    The queries name the path, and every answer bit is a GF(2)-linear
    function of the uniform messages and key. So a path leaks
    rank(G) - rank(G on the key and W_desired columns), where G maps
    (messages, key) to the path's answer bits. Bit t of a part XORs only
    bit t of the key and of the selected subpackets, so G repeats one
    N-row block per masked bit offset (M) and one per open bit offset (O):

        leak = s (rank M - rank M|known) + w (rank O - rank O|known)

    The rows of M and O come from the real `answer` on a probe store (see
    `_probe_store`), not from the closed form. The undesired coordinates
    of a base are exchangeable, so the bases are visited as x_desired
    times a multiset of the other K-1 values, weighted by its multinomial
    count, and LOW and HIGH bits are totalled as ints and weighted by p
    and q once. The cost does not depend on L.

    Raises StateSpaceError when the K N C(K+N-2, N-1) N `answer` calls
    this takes exceed call_cap.
    """
    n, k = params.n_databases, params.n_messages
    calls = k * n * math.comb(k + n - 2, n - 1) * n
    if calls > call_cap:
        raise StateSpaceError(
            f"{calls} answer calls exceed the cap of {call_cap}")
    dist = path_distribution(params)
    store, probe, known = _probe_store(n, k)
    per_message = []
    for desired in range(k):
        known_masked, known_open = known[desired]
        low_bits = high_bits = 0
        for others in itertools.combinations_with_replacement(range(n),
                                                               k - 1):
            weight = math.factorial(k - 1)
            for v in range(n):
                weight //= math.factorial(others.count(v))
            for first in range(n):
                base = (*others[:desired], first, *others[desired:])
                path_class = classify_base(base, desired)
                answers = [answer(store, probe, qv) for qv in make_queries(
                    PathChoice(base, desired, path_class), params)]
                masked = [a.masked.value for a in answers]
                open_ = [a.open.value for a in answers]
                bits = (layout.key_bits * (
                    _rank(masked) - _rank(m & known_masked for m in masked))
                    + layout.open_subpacket_bits * (
                    _rank(open_) - _rank(o & known_open for o in open_)))
                if path_class is PathClass.LOW:
                    low_bits += bits
                else:
                    high_bits += weight * bits
        per_message.append(max(0.0, dist.p * low_bits + dist.q * high_bits))
    return OracleResult(max(per_message), tuple(per_message))


def _probe_store(n: int, k: int) -> tuple[MessageStore, PartitionLayout,
                                          list[tuple[int, int]]]:
    """A store whose key and (message, subpacket) slots are each one set
    bit of their own, its layout, and per message j the (masked, open)
    masks of the columns known once W_j is: the key and W_j's slots.

    An answer's value is then one row of the M and O blocks. Open parts
    are K(N-1) bits wide, subpacket v of message j at 1 << (j(N-1) + v-1);
    masked parts are one bit wider, the key at 1 and every subpacket one
    bit above its open twin.
    """
    sub = n - 1
    masked_w, open_w = 1 + k * sub, k * sub
    layout = PartitionLayout(masked_w, masked_w, open_w, sub, 0.0, 0.0)
    slots = [[1 << (j * sub + v) for v in range(sub)] for j in range(k)]
    messages = tuple(BitString.join(
        [BitString(b << 1, masked_w) for b in bits]
        + [BitString(b, open_w) for b in bits]) for bits in slots)
    known = [(1 | sum(bits) << 1, sum(bits)) for bits in slots]
    return MessageStore(messages, BitString(1, masked_w)), layout, known


def _rank(rows) -> int:
    """Rank over GF(2) of ints read as bit vectors. Each kept row has a
    leading bit that no other kept row has, so reducing by min(r, r ^ b)
    clears them in turn."""
    basis = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


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
    """Leaked bits per session; exact_bits is None when the oracle is over
    its call cap, and then only the closed form meets the budget."""

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
    """Assemble the full report. db_leak_exact_bits is the rank oracle's
    value, which costs the same at every L; it is None only when the
    oracle would need more than ORACLE_CALL_CAP `answer` calls (N=2 at
    K > 128, for example)."""
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
