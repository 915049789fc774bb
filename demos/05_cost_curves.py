"""Cost-versus-privacy curves as plain CSV, one file per leakage budget.

Reproduces the standard picture: download cost against the user-privacy
level for several database-privacy budgets. Curves start at 2 - delta,
fall as eps loosens, and flatten once delta stops binding. The same
tables come out of `alpir bounds`; here the loop is spelled out.
"""

import os
import tempfile

from alpir import SystemParams, bounds_report

N, K, L = 2, 2, 4
EPS_GRID = [0.25 * j for j in range(41)]  # 0 .. 10
DELTAS = (0.0, 0.1, 0.2, 0.4)

# The files live only as long as the demo runs.
with tempfile.TemporaryDirectory(prefix="cost_curves_") as out_dir:
    paths = []
    for delta in DELTAS:
        path = os.path.join(out_dir, f"delta_{delta:g}.csv")
        with open(path, "w") as fh:
            fh.write("eps,d_upper,d_lower,delta1,regime\n")
            for eps in EPS_GRID:
                rep = bounds_report(SystemParams(N, K, L, eps, delta))
                fh.write(f"{eps!r},{rep.d_upper!r},{rep.d_lower!r},"
                         f"{rep.delta1!r},{rep.regime}\n")
        paths.append(path)
    print(f"wrote {len(paths)} curve files to {out_dir}")
print()

# A quick look at the shape of each curve without leaving the terminal.
for delta in DELTAS:
    row = []
    for eps in (0.0, 0.5, 1.0, 2.0, 4.0, 10.0):
        rep = bounds_report(SystemParams(N, K, L, eps, delta))
        row.append(f"{rep.d_upper:.4f}")
    print(f"delta={delta:<4} d_upper at eps 0/0.5/1/2/4/10: "
          + "  ".join(row))
print()

# The delta = 0.4 curve merges with the saturated ceiling 1 + delta1
# once delta1(eps) drops below 0.4; find where.
for eps in EPS_GRID:
    rep = bounds_report(SystemParams(N, K, L, eps, 0.4))
    if rep.delta1 <= 0.4:
        print(f"budget 0.4 stops binding at eps = {eps:g}: from here the "
              f"curve equals 1 + delta1(eps)")
        break

# Equivalent CLI invocations, one file per budget:
#
#   for d in 0 0.1 0.2 0.4; do
#       alpir bounds --n 2 --k 2 --eps-grid 0:10:0.25 --delta $d \
#           --out curve_$d.csv
#   done
