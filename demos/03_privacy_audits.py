"""Measuring both privacy promises instead of trusting the formulas.

Three independent routes to the database-side leakage: the closed form,
the exact mutual information by GF(2) rank, and sampled sessions. The
user-side promise is audited by comparing observed query frequencies
across targets, which is exactly the test a curious database would run.
"""

import math

from alpir import (SystemParams, analytic_db_leakage, analytic_user_ratio,
                   db_leak_budget_bits, empirical_cost_audit,
                   empirical_query_audit, exact_mi_oracle,
                   path_distribution, plan_partition)

params = SystemParams(2, 2, 3, math.log(1.5), 4 / 15)
layout = plan_partition(params)

# Database-side: bits learned about undesired messages per session.
budget = db_leak_budget_bits(params)
analytic = analytic_db_leakage(params, layout)
oracle = exact_mi_oracle(params, layout)
print("database-side leakage (bits per session):")
print(f"  budget (delta * L)     {budget:.6f}")
print(f"  closed form            {analytic:.6f}")
print(f"  exact (GF(2) rank)     {oracle.max_bits:.6f}")
print()

# The oracle is exact and formula-free: it reads each path's answer
# matrix off the real answer function and takes GF(2) ranks, so its cost
# depends on N and K but not on L. Here it is at 512 KiB messages.
big = SystemParams(2, 4, 1 << 22, 0.5, 0.1)
big_layout = plan_partition(big)
print(f"  at N=2 K=4 L=2^22:     exact "
      f"{exact_mi_oracle(big, big_layout).max_bits:.6f}, closed form "
      f"{analytic_db_leakage(big, big_layout):.6f}")
print()

# User-side: no query structure may be e^eps-times likelier under one
# target than another. The audit builds per-structure frequency tables.
audit = empirical_query_audit(50_000, params, seed=7)
print("user-side likelihood-ratio audit (50k sessions per target):")
print(f"  analytic ratio  {analytic_user_ratio(path_distribution(params)):.6f}")
print(f"  worst observed  {audit.max_ratio:.6f} "
      f"(3-sigma halfwidth {audit.halfwidth:.6f})")
print(f"  verdict         {'VIOLATION' if audit.violation else 'ok'}")
print()

# Download cost, sampled the same way.
cost = empirical_cost_audit(50_000, params, seed=7)
print("download-cost audit:")
print(f"  closed form     {cost.expected:.6f}")
print(f"  sampled mean    {cost.mean_cost:.6f} (sigma {cost.sigma:.6f})")
print(f"  verdict         {'VIOLATION' if cost.violation else 'ok'}")
