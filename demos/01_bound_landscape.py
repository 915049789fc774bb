"""Tour of the closed-form download bounds.

Walks one system shape across the two privacy budgets and shows where
the named regimes sit: perfect privacy on both sides, the classic
multi-server point, the leaky corners, and the no-privacy floor.
"""

import math

from alpir import SystemParams, bounds_report

N, K, L = 2, 2, 4

print(f"System: {N} databases, {K} messages, {L} bits per message")
print()

# The two thresholds depend on eps. Past delta1 the achievable cost
# stops improving; past delta2 the converse stops improving.
print("thresholds as eps grows:")
print(f"{'eps':>6} {'delta1':>10} {'delta2':>10}")
for eps in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
    rep = bounds_report(SystemParams(N, K, L, eps, 0.0))
    print(f"{eps:>6.2f} {rep.delta1:>10.6f} {rep.delta2:>10.6f}")
print()

# Cost landscape: rows are eps, columns delta. Both bounds fall as
# either budget loosens, and they pinch together at eps = 0.
deltas = (0.0, 0.1, 0.25, 0.5)
print("upper bound / lower bound:")
header = " ".join(f"{'d=' + format(d, '.2f'):>15}" for d in deltas)
print(f"{'eps':>5} {header}")
for eps in (0.0, 0.5, 1.0, 2.0, math.inf):
    cells = []
    for delta in deltas:
        rep = bounds_report(SystemParams(N, K, L, eps, delta))
        cells.append(f"{rep.d_upper:>7.4f}/{rep.d_lower:<7.4f}")
    label = "inf" if math.isinf(eps) else f"{eps:.2f}"
    print(f"{label:>5} {' '.join(cells)}")
print()

# The ratio between the bounds never exceeds (N - e^-eps)/(N - 1).
print("worst-case gap ratio vs its cap:")
for eps in (0.0, 0.5, 1.0, 3.0):
    worst = max((bounds_report(SystemParams(N, K, L, eps, d / 20))
                 for d in range(21)), key=lambda rep: rep.gap_ratio)
    print(f"  eps={eps:<4} worst ratio={worst.gap_ratio:.6f} "
          f"cap={worst.gap_cap:.6f}")
print()

# Named corners of the landscape.
corners = [
    ("both budgets zero", SystemParams(3, 2, 4, 0.0, 0.0)),
    ("classic multi-server point", SystemParams(2, 2, 4, 0.0, 0.5)),
    ("db leakage only", SystemParams(2, 2, 4, 0.0, 0.1)),
    ("user leakage only, saturated", SystemParams(2, 2, 4, 1.0, 0.9)),
    ("no privacy at all", SystemParams(2, 2, 4, math.inf, 0.0)),
]
print("regimes:")
for label, p in corners:
    rep = bounds_report(p)
    cost = "-" if rep.reference_cost is None else f"{rep.reference_cost:.4f}"
    print(f"  {label:<30} {rep.regime:<10} reference cost {cost}")
print()

# Everything above comes bundled in one report object.
rep = bounds_report(SystemParams(2, 2, 3, math.log(1.5), 4 / 15))
print("full report at the worked point:")
for key, value in rep._asdict().items():
    print(f"  {key:>15}: {value}")
assert rep.regime == "General"
