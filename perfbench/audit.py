"""The audit workload: alpir's own checks, in-process, with no network.

One batch runs, in this order:
  * `alpir verify` (the self-check suite);
  * exact_mi_oracle at N=2, K=2, L=5, eps=0.5, delta=0.2 (32,768 states);
  * empirical_query_audit and empirical_cost_audit at the worked example
    (N=2, K=2, L=3, eps=ln 1.5, delta=4/15), 10^5 samples each;
  * `alpir sweep --n 2,3,5 --k 2,3,4 --eps-grid 0:5:0.05
    --delta-grid 0:1:0.02` to a file (46,359 rows).
Batches repeat until the run time is spent; every batch is the same work.
The untraced run reports the median batch wall. The traced run calls the
six selfcheck checks one by one in place of `alpir verify`, so their time
can be split, and wraps every step in a span.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from alpir import (SystemParams, analytic_db_leakage, db_leak_budget_bits,
                   empirical_cost_audit, empirical_query_audit,
                   exact_mi_oracle, plan_partition)
from alpir import cli, selfcheck

OUT = Path(__file__).resolve().parent / "out"
TOL = 1e-9
WORKED = (2, 2, 3, math.log(1.5), 4 / 15)


@dataclass(frozen=True)
class AuditSize:
    oracle: tuple          # SystemParams of the exact-oracle instance
    samples: int           # samples of each empirical audit
    sweep: tuple           # sweep grid arguments
    rows: int              # rows that grid must produce


FULL = AuditSize((2, 2, 5, 0.5, 0.2), 100_000,
                 ("--n", "2,3,5", "--k", "2,3,4", "--eps-grid", "0:5:0.05",
                  "--delta-grid", "0:1:0.02"), 46_359)
SMOKE = AuditSize(WORKED, 1000,
                  ("--n", "2", "--k", "2", "--eps-grid", "0:1:0.5",
                   "--delta-grid", "0:1:0.5"), 9)

# The traced run splits `alpir verify` into its checks; the last four
# are reported together as selfcheck.grid_checks.
VERIFY_STEPS = (
    ("selfcheck.exhaustive_correctness",
     selfcheck.check_exhaustive_correctness),
    ("selfcheck.oracle_agreement", selfcheck.check_oracle_agreement),
    ("selfcheck.grid_checks", selfcheck.check_structure_law),
    ("selfcheck.grid_checks", selfcheck.check_leakage_budget),
    ("selfcheck.grid_checks", selfcheck.check_gap_cap),
    ("selfcheck.grid_checks", selfcheck.check_threshold_ordering),
)


def run(args, t0: float) -> dict:
    size = SMOKE if args.smoke else FULL
    setup_s = time.perf_counter() - t0
    OUT.mkdir(exist_ok=True)
    batches = []
    deadline = time.perf_counter() + args.seconds
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        sweep_path = Path(tmp) / "sweep.csv"
        while True:
            batches.append(batch(size, args.seed, sweep_path, args.trace,
                                 args.inject_wrong_expected))
            if time.perf_counter() >= deadline:
                break
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "setup_s": setup_s, "records_sha256": None}
    if args.trace:
        result["metrics"] = layer_metrics(batches)
        result["summary"] = {}
        write_spans(batches, args.seed)
    else:
        wall = statistics.median(b["wall"] for b in batches)
        result["metrics"] = {"throughput_per_s": 1.0 / wall,
                             "latency_p50_us": wall * 1e6}
        result["summary"] = {"audit_s": wall}
    return result


def batch(size: AuditSize, seed: int, sweep_path: Path, traced: bool,
          wrong_expected: bool) -> dict:
    """One audit batch: step spans, wall, and its checks' pass/fail."""
    spans, checks, counts = [], [], {}

    def step(name, fn, *args):
        a = time.perf_counter_ns()
        out = fn(*args)
        spans.append((name, a, time.perf_counter_ns()))
        return out

    start = time.perf_counter_ns()
    if traced:
        for name, check in VERIFY_STEPS:
            label, ok, detail = step(name, check)
            checks.append(ok)
            if label == "exhaustive-correctness":
                counts["selfcheck.decodes"] = int(detail.split()[0])
    else:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = step("cli.verify", cli.main, ["verify"])
        lines = [ln for ln in out.getvalue().splitlines()
                 if ln.startswith(("PASS ", "FAIL "))]
        checks += [ln.startswith("PASS ") for ln in lines]
        checks.append(rc == 0 and bool(lines))
    oracle_params = SystemParams(*size.oracle)
    layout = plan_partition(oracle_params)
    oracle = step("leakage.exact_mi_oracle", exact_mi_oracle, oracle_params,
                  layout)
    worked = SystemParams(*WORKED)
    qa = step("leakage.empirical_query_audit", empirical_query_audit,
              size.samples, worked, seed)
    ca = step("leakage.empirical_cost_audit", empirical_cost_audit,
              size.samples, worked, seed)
    sweep_path.unlink(missing_ok=True)
    rc = step("cli.sweep", cli.main,
              ["sweep", *size.sweep, "--out", str(sweep_path)])
    end = time.perf_counter_ns()

    expect = analytic_db_leakage(oracle_params, layout) + wrong_expected
    checks.append(abs(oracle.max_bits - expect) <= TOL
                  and oracle.max_bits
                  <= db_leak_budget_bits(oracle_params) + TOL)
    checks.append(not qa.violation)
    checks.append(not ca.violation)
    rows = sweep_rows(sweep_path)
    checks.append(rc == 0 and rows == size.rows)
    n, k, l = (oracle_params.n_databases, oracle_params.n_messages,
               oracle_params.message_bits)
    counts["leakage.oracle_states"] = n ** k << (k * l) << layout.key_bits
    counts["cli.sweep_rows"] = rows
    return {"start": start, "end": end, "wall": (end - start) / 1e9,
            "spans": spans, "counts": counts, "attempted": len(checks),
            "failed": checks.count(False)}


def sweep_rows(path: Path) -> int:
    """Rows in a sweep CSV; -1 when it is missing or any row has
    d_lower > d_upper."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except FileNotFoundError:
        return -1
    if any(float(r["d_lower"]) > float(r["d_upper"]) for r in rows):
        return -1
    return len(rows)


def layer_metrics(batches: list) -> dict:
    """Per-batch means of each step's seconds, plus the step counts."""
    totals = {}
    for b in batches:
        for name, a, z in b["spans"]:
            totals[name] = totals.get(name, 0) + (z - a)
    metrics = {f"{name}_s": total / len(batches) / 1e9
               for name, total in totals.items()}
    metrics.update(batches[-1]["counts"])
    return metrics


def write_spans(batches: list, seed: int) -> None:
    """Every span as CSV: id, parent id, batch, name, start, end (ns)."""
    path = OUT / f"spans-audit-seed{seed}.csv"
    next_id = 0
    with open(path, "w") as fh:
        fh.write("span_id,parent_id,session,name,start_ns,end_ns\n")
        for j, b in enumerate(batches):
            root = next_id
            fh.write(f"{root},,{j},audit.batch,{b['start']},{b['end']}\n")
            for name, a, z in b["spans"]:
                next_id += 1
                fh.write(f"{next_id},{root},{j},{name},{a},{z}\n")
            next_id += 1
