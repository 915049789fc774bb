"""Self-check suite behind the verify subcommand.

Every check is a pure function returning (name, passed, detail); run_all
executes the fixed suite and, optionally, one extra check at a caller
supplied parameter point. A nonzero key_bits_offset deliberately misplans
the key size so the leakage-budget check can be demonstrated to fail.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from . import bounds as bnd
from .bits import BitString
from .leakage import (LEAK_TOL_BITS, ORACLE_CALL_CAP, analytic_user_ratio,
                      db_leak_audit, message_space)
from .params import SystemParams, default_message_bits
from .scheme import (MessageStore, PathChoice, answer, classify_base,
                     decode, layout_for_key_bits, make_queries,
                     path_distribution, plan_partition)

TOL_EXACT = 1e-12
TOL_FLOAT = 1e-9

GRID_N = (2, 3, 5)
GRID_K = (2, 3, 4)
GRID_EPS = tuple(0.25 * j for j in range(21))       # 0 .. 5
GRID_DELTA = tuple(0.05 * j for j in range(21))     # 0 .. 1

EXHAUSTIVE_INSTANCES = (
    (2, 2, 2, (0, 1)),
    (3, 2, 4, (0, 1, 2)),
)

# (n, k, l, eps, delta): budget met exactly; secure point; exact-alpha
# point; quantized key with slack; keyless three-server point.
ORACLE_INSTANCES = (
    (2, 2, 3, math.log(1.5), 4.0 / 15.0),
    (2, 2, 2, 0.0, 0.0),
    (2, 2, 2, 0.0, 0.25),
    (2, 2, 4, 1.0, 0.2),
    (3, 2, 4, 0.5, 0.3),
)


def _grid_blocks():
    """(params, rows): params at each (N, K, eps) of the grid, and the
    Bounds of every grid delta there, from one bounds_rows call."""
    for n in GRID_N:
        for k in GRID_K:
            for eps in GRID_EPS:
                params = SystemParams(n, k, default_message_bits(n), eps, 0.0)
                yield params, list(map(bnd.Bounds._make,
                                       bnd.bounds_rows(params, GRID_DELTA)))


def check_exhaustive_correctness() -> tuple[str, bool, str]:
    """Decode must return the stored message for every state of the world.

    Every (base, desired) session of an instance asks one of its N^K
    distinct query vectors of each database, so each store answers every
    distinct vector once, through the real `answer`, and every session
    is decoded through the real `decode` from those answers.
    """
    decodes = 0
    for n, k, l, key_sizes in EXHAUSTIVE_INSTANCES:
        params = SystemParams(n, k, l, 0.0, 0.0)
        vectors, sessions = {}, []
        for base in itertools.product(range(n), repeat=k):
            for desired in range(k):
                queries = make_queries(PathChoice(
                    base, desired, classify_base(base, desired)), params)
                vectors.update((qv.indices, qv) for qv in queries)
                sessions.append((base, desired, queries))
        for s in key_sizes:
            layout = layout_for_key_bits(params, s)
            for msgs in message_space(k, l):
                for key in range(1 << s):
                    store = MessageStore(msgs, BitString(key, s))
                    answers = {v: answer(store, layout, qv)
                               for v, qv in vectors.items()}
                    for base, desired, queries in sessions:
                        got = decode([answers[qv.indices] for qv in queries],
                                     queries, desired)
                        decodes += 1
                        if got != msgs[desired]:
                            return ("exhaustive-correctness", False,
                                    f"wrong decode at n={n} k={k} l={l} "
                                    f"s={s} base={base} "
                                    f"desired={desired}")
    return ("exhaustive-correctness", True,
            f"{decodes} decodes, zero errors")


def check_structure_law() -> tuple[str, bool, str]:
    """Base-to-query mapping and the p/q = e^eps likelihood-ratio law."""
    for n, k in ((2, 2), (3, 2), (2, 3)):
        params = SystemParams(n, k, default_message_bits(n), 0.5, 0.0)
        for desired in range(k):
            for db in range(n):
                seen = set()
                for base in itertools.product(range(n), repeat=k):
                    choice = PathChoice(base, desired,
                                        classify_base(base, desired))
                    vec = make_queries(choice, params)[db].indices
                    if vec in seen:
                        return ("structure-law", False,
                                f"base collision at n={n} k={k} db={db}")
                    seen.add(vec)
                    off_zero_base = all(base[j] == 0 for j in range(k)
                                        if j != desired)
                    off_zero_vec = all(vec[j] == 0 for j in range(k)
                                       if j != desired)
                    if off_zero_base != off_zero_vec:
                        return ("structure-law", False,
                                f"class flip at n={n} k={k} base={base}")
                if len(seen) != n ** k:
                    return ("structure-law", False, "mapping not onto")
    for eps in GRID_EPS:
        if eps == 0.0:
            continue
        for n, k in ((2, 2), (3, 2), (2, 3), (5, 4)):
            ratio = analytic_user_ratio(path_distribution(
                SystemParams(n, k, default_message_bits(n), eps, 0.0)))
            if abs(ratio - math.exp(eps)) > TOL_EXACT * math.exp(eps):
                return ("structure-law", False,
                        f"p/q off e^eps at n={n} k={k} eps={eps}")
    return ("structure-law", True,
            "bijective per-database mapping, p/q = e^eps on the grid")


def _oracle_points(key_bits_offset: int):
    """(point text, layout, db_leak_audit) at each ORACLE_INSTANCES point,
    its planned key grown or shrunk by key_bits_offset bits."""
    for n, k, l, eps, delta in ORACLE_INSTANCES:
        params = SystemParams(n, k, l, eps, delta)
        layout = plan_partition(params)
        if key_bits_offset:
            s = max(0, min(layout.key_bits + key_bits_offset,
                           params.subpacket_total_bits()))
            layout = layout_for_key_bits(params, s)
        yield (f"n={n} k={k} l={l} eps={eps:g} delta={delta:g}", layout,
               db_leak_audit(params, layout))


def check_oracle_agreement(key_bits_offset: int = 0) -> tuple[str, bool, str]:
    """The exact (rank) mutual information, which every desired index
    leaks alike, must match the closed form."""
    worst = 0.0
    for point, _, leak in _oracle_points(key_bits_offset):
        diff = abs(leak.exact_bits - leak.analytic_bits)
        worst = max(worst, diff)
        if diff > LEAK_TOL_BITS:
            return ("oracle-agreement", False,
                    f"oracle {leak.exact_bits} vs analytic "
                    f"{leak.analytic_bits} at {point}")
    return ("oracle-agreement", True,
            f"{len(ORACLE_INSTANCES)} instances, max |diff| = {worst:.3g}")


def check_leakage_budget(key_bits_offset: int = 0) -> tuple[str, bool, str]:
    """Planned layouts never leak more than delta * L bits."""
    worst = -math.inf
    for point, layout, leak in _oracle_points(key_bits_offset):
        excess = leak.analytic_bits - leak.budget_bits
        worst = max(worst, excess)
        if excess > LEAK_TOL_BITS:
            return ("db-leakage-budget", False,
                    f"leak exceeds budget by {excess:.6g} bits at {point} "
                    f"key_bits={layout.key_bits}")
    return ("db-leakage-budget", True,
            f"max leak-minus-budget = {worst:.3g} bits")


def check_gap_cap() -> tuple[str, bool, str]:
    """d_upper/d_lower stays under (N - e^-eps)/(N - 1), equality at eps=0."""
    points = 0
    for _, rows in _grid_blocks():
        for row in rows:
            ratio, cap = row.gap_ratio, row.gap_cap
            points += 1
            if ratio > cap + TOL_FLOAT or ratio < 1.0 - TOL_EXACT:
                return ("gap-cap-grid", False,
                        f"ratio {ratio} outside [1, cap={cap}] at "
                        f"{row.n},{row.k},{row.eps},{row.delta}")
            if row.eps == 0.0 and abs(ratio - 1.0) > TOL_EXACT:
                return ("gap-cap-grid", False,
                        f"bounds differ at eps=0: ratio={ratio}")
    return ("gap-cap-grid", True, f"{points} grid points inside the cap")


def check_threshold_ordering() -> tuple[str, bool, str]:
    """delta1 >= delta2, alpha1 >= alpha2, and both cost curves are
    continuous across their thresholds.

    The thresholds do not depend on delta, so continuity is checked once
    per (N, K, eps), at the first delta's thresholds.
    """
    points = 0
    for params, rows in _grid_blocks():
        for row in rows:
            points += 1
            a1, a2, d1, d2 = row.alpha1, row.alpha2, row.delta1, row.delta2
            bad = ("delta1 < delta2" if d1 < d2 - TOL_EXACT else
                   "alpha1 < alpha2" if a1 < a2 - TOL_EXACT else None)
            if bad:
                point = params._replace(delta=row.delta)
                return ("threshold-ordering", False, f"{bad} at {point}")
        for name, thr in (("d_upper", rows[0].delta1),
                          ("d_lower", rows[0].delta2)):
            if thr <= 0.0:
                continue
            below, at = (getattr(bnd.Bounds._make(row), name) for row in
                         bnd.bounds_rows(params,
                                         (math.nextafter(thr, 0.0), thr)))
            if abs(below - at) > TOL_EXACT:
                return ("threshold-ordering", False,
                        f"cost jump {abs(below - at):.3g} across threshold "
                        f"at {params}")
    return ("threshold-ordering", True,
            f"{points} grid points ordered and continuous")


def check_point(params: SystemParams) -> tuple[str, bool, str]:
    """Budget check (oracle when feasible) at one caller-chosen point."""
    leak = db_leak_audit(params, plan_partition(params))
    detail = f"analytic={leak.analytic_bits:.6g} budget={leak.budget_bits:.6g}"
    if leak.exact_bits is None:
        detail += (" (oracle skipped: over ORACLE_CALL_CAP = "
                   f"{ORACLE_CALL_CAP} answer calls)")
    else:
        detail = f"oracle={leak.exact_bits:.6g} {detail}"
    return ("point-leakage", leak.ok, detail)


def run_all(point: Optional[SystemParams] = None,
            key_bits_offset: int = 0) -> list[tuple[str, bool, str]]:
    results = [
        check_exhaustive_correctness(),
        check_structure_law(),
        check_oracle_agreement(key_bits_offset),
        check_leakage_budget(key_bits_offset),
        check_gap_cap(),
        check_threshold_ordering(),
    ]
    if point is not None:
        results.append(check_point(point))
    return results
