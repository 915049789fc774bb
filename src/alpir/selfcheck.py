"""Self-check suite behind the verify subcommand.

Every check is a pure function returning (name, passed, detail); run_all
executes the fixed suite and, optionally, one extra check at a caller
supplied parameter point. A nonzero key_bits_offset deliberately misplans
the key size so the leakage-budget check can be demonstrated to fail.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Optional

from . import bounds as bnd
from .bits import BitString
from .leakage import (analytic_db_leakage, db_leak_audit,
                      db_leak_budget_bits, exact_mi_oracle, message_space)
from .params import SystemParams
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


def default_message_bits(n: int) -> int:
    """L when none is given: four bits per subpacket, 4 for one server."""
    return 4 * (n - 1) if n > 1 else 4


def _grid_params():
    for n in GRID_N:
        for k in GRID_K:
            for eps in GRID_EPS:
                for delta in GRID_DELTA:
                    yield SystemParams(n, k, default_message_bits(n), eps,
                                       delta)


def check_exhaustive_correctness() -> tuple[str, bool, str]:
    """Decode must return the stored message for every state of the world."""
    sessions = 0
    for n, k, l, key_sizes in EXHAUSTIVE_INSTANCES:
        params = SystemParams(n, k, l, 0.0, 0.0)
        for s in key_sizes:
            layout = layout_for_key_bits(params, s)
            for msgs in message_space(k, l):
                for key in range(1 << s):
                    store = MessageStore(msgs, BitString(key, s))
                    for base in itertools.product(range(n), repeat=k):
                        for desired in range(k):
                            choice = PathChoice(
                                base, desired, classify_base(base, desired))
                            queries = make_queries(choice, params)
                            answers = [answer(store, layout, qv)
                                       for qv in queries]
                            got = decode(answers, queries, desired)
                            sessions += 1
                            if got != msgs[desired]:
                                return ("exhaustive-correctness", False,
                                        f"wrong decode at n={n} k={k} l={l} "
                                        f"s={s} base={base} "
                                        f"desired={desired}")
    return ("exhaustive-correctness", True,
            f"{sessions} decodes, zero errors")


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
            dist = path_distribution(
                SystemParams(n, k, default_message_bits(n), eps, 0.0))
            if abs(dist.p / dist.q - math.exp(eps)) > TOL_EXACT * math.exp(eps):
                return ("structure-law", False,
                        f"p/q off e^eps at n={n} k={k} eps={eps}")
    return ("structure-law", True,
            "bijective per-database mapping, p/q = e^eps on the grid")


def check_oracle_agreement(key_bits_offset: int = 0) -> tuple[str, bool, str]:
    """The exact (rank) mutual information must match the closed form for
    every desired index."""
    worst = 0.0
    for n, k, l, eps, delta in ORACLE_INSTANCES:
        params = SystemParams(n, k, l, eps, delta)
        layout = _planned_layout(params, key_bits_offset)
        analytic = analytic_db_leakage(params, layout)
        got = max(exact_mi_oracle(params, layout).per_message,
                  key=lambda bits: abs(bits - analytic))
        worst = max(worst, abs(got - analytic))
        if abs(got - analytic) > TOL_FLOAT:
            return ("oracle-agreement", False,
                    f"oracle {got} vs analytic {analytic} at n={n} k={k} "
                    f"l={l} eps={eps:g} delta={delta:g}")
    return ("oracle-agreement", True,
            f"{len(ORACLE_INSTANCES)} instances, max |diff| = {worst:.3g}")


def _planned_layout(params: SystemParams, key_bits_offset: int):
    layout = plan_partition(params)
    if key_bits_offset:
        s = max(0, min(layout.key_bits + key_bits_offset,
                       params.subpacket_total_bits()))
        layout = layout_for_key_bits(params, s)
    return layout


def check_leakage_budget(key_bits_offset: int = 0) -> tuple[str, bool, str]:
    """Planned layouts never leak more than delta * L bits."""
    worst = -math.inf
    for n, k, l, eps, delta in ORACLE_INSTANCES:
        params = SystemParams(n, k, l, eps, delta)
        layout = _planned_layout(params, key_bits_offset)
        excess = analytic_db_leakage(params, layout) - db_leak_budget_bits(
            params)
        worst = max(worst, excess)
        if excess > TOL_FLOAT:
            return ("db-leakage-budget", False,
                    f"leak exceeds budget by {excess:.6g} bits at n={n} "
                    f"k={k} l={l} eps={eps:g} delta={delta:g} "
                    f"key_bits={layout.key_bits}")
    return ("db-leakage-budget", True,
            f"max leak-minus-budget = {worst:.3g} bits")


def check_gap_cap() -> tuple[str, bool, str]:
    """d_upper/d_lower stays under (N - e^-eps)/(N - 1), equality at eps=0."""
    points = 0
    for params in _grid_params():
        ratio, cap = bnd.gap_ratio(params)
        points += 1
        if ratio > cap + TOL_FLOAT or ratio < 1.0 - TOL_EXACT:
            return ("gap-cap-grid", False,
                    f"ratio {ratio} outside [1, cap={cap}] at "
                    f"{params.n_databases},{params.n_messages},"
                    f"{params.eps},{params.delta}")
        if params.eps == 0.0 and abs(ratio - 1.0) > TOL_EXACT:
            return ("gap-cap-grid", False,
                    f"bounds differ at eps=0: ratio={ratio}")
    return ("gap-cap-grid", True, f"{points} grid points inside the cap")


def check_threshold_ordering() -> tuple[str, bool, str]:
    """delta1 >= delta2, alpha1 >= alpha2, and both cost curves are
    continuous across their thresholds."""
    points = 0
    for params in _grid_params():
        points += 1
        d1, d2 = bnd.delta1_threshold(params), bnd.delta2_threshold(params)
        if d1 < d2 - TOL_EXACT:
            return ("threshold-ordering", False,
                    f"delta1 < delta2 at {params}")
        if bnd.alpha1_rate(params) < bnd.alpha2_rate(params) - TOL_EXACT:
            return ("threshold-ordering", False,
                    f"alpha1 < alpha2 at {params}")
        for thr, fn in ((d1, bnd.d_upper), (d2, bnd.d_lower)):
            if thr <= 0.0:
                continue
            below = fn(dataclasses.replace(
                params, delta=math.nextafter(thr, 0.0)))
            at = fn(dataclasses.replace(params, delta=thr))
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
        detail += " (oracle skipped: state space too large)"
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
