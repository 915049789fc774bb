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
real `answer` on a one-bit-per-slot probe store. By the symmetry of the
scheme it visits one base per count of nonzero undesired coordinates,
K N `answer` calls whatever L is, and is skipped above ORACLE_CALL_CAP.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from operator import itemgetter
from typing import NamedTuple, Optional

from .bits import BitString
from .params import SystemParams
from .scheme import (MessageStore, PartitionLayout, PathChoice,
                     PathClass, PathDistribution, answer, classify_base,
                     expected_cost, make_queries, path_distribution,
                     plan_partition, sample_bases, session_download_bits)
from .seeding import derived_rng

# Most `answer` calls exact_mi_oracle may make, K N; the count does not
# depend on L. Query indices are bytes on the wire, so N <= 256 and
# K <= 255 there, and the worst shape the wire carries, N=256 K=255,
# takes 65,280 calls, 31-34 s on a 2-vCPU x86 host (CPython 3.11).
ORACLE_CALL_CAP = 1 << 16
MIN_AUDIT_TRIALS = 1000
LEAK_TOL_BITS = 1e-9


class StateSpaceError(RuntimeError):
    """The exact oracle would need more `answer` calls than its cap."""


def analytic_user_ratio(dist: PathDistribution) -> float:
    """Worst-case query likelihood ratio between two desired indices.

    Achieved by vectors with a single nonzero coordinate (probability p
    under one index, q under the other); equals e^eps by construction.
    Infinite at eps = inf; where q is subnormal, p / q loses bits: dist.ratio.
    """
    if dist.q < 2.0 ** -1022:
        return dist.ratio
    return dist.p / dist.q


def analytic_db_leakage(params: SystemParams, layout: PartitionLayout) -> float:
    """Exact leaked bits about the undesired messages per session.

    Low-cost paths leak nothing (their open parts only carry the desired
    message); each high-cost path leaks the one surviving open XOR
    combination of L/(N-1) - s bits. The key pads every masked part, so
    only the open width counts.
    """
    return path_distribution(params).high_total * layout.open_subpacket_bits


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


class OracleResult(NamedTuple):
    """Exact mutual information, in bits; every desired index leaks it."""

    max_bits: float


def exact_mi_oracle(params: SystemParams,
                    layout: PartitionLayout) -> OracleResult:
    """I(undesired messages; queries, answers) in bits.

    The queries name the path, and every answer bit is a GF(2)-linear
    function of the uniform messages and key. So a path leaks
    rank(G) - rank(G on the key and W_desired columns), where G maps
    (messages, key) to the path's answer bits. Bit t of a part XORs only
    bit t of the key and of the selected subpackets, so G repeats one
    N-row block per masked bit offset (M) and one per open bit offset (O):

        leak = s (rank M - rank M|known) + w (rank O - rank O|known)

    The rows of M and O come from the real `answer` on a probe store (see
    `_probe_store`), not from the closed form.

    One base per count c of nonzero undesired coordinates is visited:
    - Query d of a base sets the desired coordinate to x_desired + d + 1
      mod N and copies the rest, so the N queries sweep every residue
      there and form the same set whatever x_desired is. Ranks do not
      depend on row order, so the N bases that differ only in x_desired
      leak the same bits.
    - Relabelling the messages so that desired index j becomes 0 permutes
      the probe store's slots, and with them the columns of M and O and
      the known columns, and keeps the path class. Ranks do not depend on
      column order, so every desired index leaks the same bits.
    - Relabelling the subpackets 1..N-1 of one undesired message permutes
      only its columns, fixing the key's and W_0's, and keeps the path
      class. So a base leaks as much as any base with the same undesired
      coordinates nonzero, and, relabelling the undesired messages, as
      any base with as many (c) nonzero.
    The base (0, 1 x c, 0 x (K-1-c)) stands for the C(K-1, c) (N-1)^c
    bases with x_desired = 0 and c nonzero undesired coordinates: c = 0
    is the low-cost path, and the counts for c >= 1 sum to N^(K-1) - 1.
    The low-cost mass weights the low-cost leak, and the high-cost mass
    the high-cost mean, an int quotient that is correctly rounded.

    This takes K N `answer` calls, whatever L is, and raises
    StateSpaceError when that exceeds ORACLE_CALL_CAP.
    """
    n, k = params.n_databases, params.n_messages
    if k * n > ORACLE_CALL_CAP:
        raise StateSpaceError(
            f"{k * n} answer calls exceed the cap of {ORACLE_CALL_CAP}")
    dist = path_distribution(params)
    store, probe, (known_masked, known_open) = _probe_store(n, k)
    low_bits = high_bits = 0
    for c in range(k):
        base = (0,) + (1,) * c + (0,) * (k - 1 - c)
        answers = [answer(store, probe, qv) for qv in make_queries(
            PathChoice(base, 0, classify_base(base, 0)), params)]
        masked = [a.masked.value for a in answers]
        open_ = [a.open.value for a in answers]
        bits = (layout.key_bits * (
            _rank(masked) - _rank(m & known_masked for m in masked))
            + layout.open_subpacket_bits * (
            _rank(open_) - _rank(o & known_open for o in open_)))
        if c:
            high_bits += math.comb(k - 1, c) * (n - 1) ** c * bits
        else:
            low_bits = bits
    return OracleResult(dist.low_total * low_bits + dist.high_total * (
        high_bits / (n ** (k - 1) - 1)))


def _probe_store(n: int, k: int) -> tuple[MessageStore, PartitionLayout,
                                          tuple[int, int]]:
    """A store whose key and (message, subpacket) slots are each one set
    bit of their own, its layout, and the (masked, open) masks of the
    columns known once W_0 is: the key and W_0's slots.

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
    known = sum(slots[0])
    return (MessageStore(messages, BitString(1, masked_w)), layout,
            (1 | known << 1, known))


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


class QueryAuditResult(NamedTuple):
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


def ratio_audit_from_counts(counts: dict, trials_per_message: dict,
                            budget: float) -> QueryAuditResult:
    """Worst observed likelihood ratio from per-structure counts.

    counts maps (desired, database, vector) to an observed count;
    trials_per_message maps each desired index to the session count
    behind it. Frequencies are compared across desired indices at fixed
    (database, vector); a 3-sigma half-width for the maximizing pair
    comes from binomial variances through the delta method. A violation
    is flagged only when the lower confidence edge clears the budget.
    """
    by_cell = defaultdict(dict)
    for (desired, db, vec), c in counts.items():
        by_cell[(db, vec)][desired] = c
    best, best_hw = 0.0, 0.0
    for cell, per_desired in by_cell.items():
        for ka, ca in per_desired.items():
            for kb, cb in per_desired.items():
                if ka == kb or cb == 0:
                    continue
                ma, mb = trials_per_message[ka], trials_per_message[kb]
                ratio = (ca / ma) / (cb / mb)
                if ratio > best:
                    var = (1 - ca / ma) / ca if ca else 0.0
                    var += (1 - cb / mb) / cb
                    best = ratio
                    best_hw = 3.0 * ratio * math.sqrt(var)
    violation = bool(best - best_hw > budget) if math.isfinite(budget) else False
    return QueryAuditResult(trials_per_message, best, best_hw, budget,
                            violation, dict(counts))


def empirical_query_audit(trials: int, params: SystemParams,
                          seed: int) -> QueryAuditResult:
    """Sample query structures per desired index and audit the ratio law.

    At a fixed desired index each database's query vector is a bijection
    of the base, so the sampled bases are counted, in first-seen order,
    and `make_queries` runs once per distinct base. The counts and their
    insertion order are those of counting every session's vectors.
    """
    if trials < MIN_AUDIT_TRIALS:
        raise ValueError(f"need at least {MIN_AUDIT_TRIALS} trials")
    dist = path_distribution(params)
    counts = {}
    for desired in range(params.n_messages):
        rng = derived_rng(seed, "query-audit", desired)
        bases = Counter(map(itemgetter(0), sample_bases(
            dist, itertools.repeat(desired, trials), rng)))
        for base, c in bases.items():
            choice = PathChoice(base, desired, classify_base(base, desired))
            for db, qv in enumerate(make_queries(choice, params)):
                counts[(desired, db, qv.indices)] = c
    budget = analytic_user_ratio(dist)
    return ratio_audit_from_counts(
        counts, dict.fromkeys(range(params.n_messages), trials), budget)


class CostAuditResult(NamedTuple):
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
    dist = path_distribution(params)
    sigma = abs(high_cost - low_cost) * math.sqrt(
        dist.low_total * dist.high_total / trials)
    violation = bool(abs(mean_cost - expect) > 3.0 * sigma) if sigma else (
        mean_cost != expect)
    return CostAuditResult(trials, mean_cost, expect, sigma, violation)


def empirical_cost_audit(trials: int, params: SystemParams,
                         seed: int) -> CostAuditResult:
    """Monte-Carlo mean of per-session download bits / L, with a 3-sigma
    flag. Session t asks for message t mod K, and the mean is the exact
    total bits over L * trials, rounded once, as `run_trials` takes it."""
    if trials < MIN_AUDIT_TRIALS:
        raise ValueError(f"need at least {MIN_AUDIT_TRIALS} trials")
    layout = plan_partition(params)
    desired = itertools.islice(itertools.cycle(range(params.n_messages)),
                               trials)
    n_low = sum(map(itemgetter(1), sample_bases(
        path_distribution(params), desired, derived_rng(seed, "cost-audit"))))
    bits = (n_low * session_download_bits(layout, PathClass.LOW)
            + (trials - n_low) * session_download_bits(layout, PathClass.HIGH))
    return cost_audit_from_mean(
        params, layout, bits / (params.message_bits * trials), trials)


class DbLeakAudit(NamedTuple):
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
