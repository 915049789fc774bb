#!/usr/bin/env python3
"""alpir benchmark: fixed workloads, correctness gate, end-to-end and
per-layer metrics. Run from the repository root.

One workload run (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload small-mem --seed 1 --seconds 20 \
        --trace 0
Every workload, one or more seeds, with a summary table (and a result
file for --compare):
    python3 perfbench/run.py --all --seeds 1,2,3 [--trace 1] [--out F.json]
Compare two result files, one row per workload and metric:
    python3 perfbench/run.py --compare BASE.json NEW.json

An untraced run is 5 workload processes in a row, each measuring a
fifth of --seconds; each figure is the median over them. A traced run is
one process. A run is under a wall-clock limit worked out from
--seconds; a limit that fires, or a process that dies without a result,
is reported and counted as a failure, never retried. With
--trace 0 the metrics are the end-to-end set of BENCHMARK.json, with
--trace 1 the per-layer set. In a traced run, the layers of the other
kind of workload read 0 (the audit layers on a session workload, the
session layers on `audit`); a missing layer of the workload's own kind
fails the run. The exit code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# Workload processes of one untraced run. One process alone is too
# noisy: across 10 runs its setup_s spread 0.07-0.28 (quartile distance
# over median) and large-tcp's peak_rss_MB up to 0.20.
PROCESSES = 5
# Per-layer metrics of the audit workload; every other one is a session
# layer.
AUDIT_LAYERS = ("selfcheck.", "leakage.", "cli.")
NETWORK = "loopback only: TCP traffic never leaves the host"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class RunFailed(Exception):
    """A workload process died without a result."""


def foreign_layers(names: list, workload: str) -> list:
    """The per-layer metrics of the other kind of workload."""
    return [m for m in names
            if m.startswith(AUDIT_LAYERS) != (workload == "audit")]


def limit_for(seconds: float) -> float:
    """Wall-clock limit of one workload run (all its processes): the
    program under test sets no timeouts of its own."""
    return 4 * seconds + 90


def failure(name: str, seed: int, why: str) -> dict:
    """A run that yielded no result, counted as one failed attempt."""
    print(f"error: {name} seed {seed} {why}; counted as failed",
          file=sys.stderr)
    return {"workload": name, "seed": seed, "correct": False,
            "attempted": 1, "failed": 1, "metrics": {},
            "summary": {"failed_share": 1.0}}


def _child(argv: list, deadline: float) -> dict:
    """Run child.py; return its JSON result line. Raises TimeoutExpired
    or RunFailed."""
    proc = subprocess.run([sys.executable, str(CHILD), *argv], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(0.1, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-4000:])
        raise RunFailed(f"exited {proc.returncode} without a result") \
            from None


def merged(results: list) -> dict:
    """The processes of one run as one result: counts summed, and each
    figure the median over the processes."""
    def medians(key):
        common = set.intersection(*(set(r[key]) for r in results))
        return {m: statistics.median(r[key][m] for r in results)
                for m in common}

    res = {"correct": all(r["correct"] for r in results),
           "attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "metrics": medians("metrics"), "summary": medians("summary"),
           "records_sha256": results[0].get("records_sha256")}
    if any(r.get("records_sha256") != res["records_sha256"]
           for r in results):
        print("error: the processes of one run wrote different session "
              "records for the same seed", file=sys.stderr)
        res["correct"] = False
        res["failed"] += 1
    return res


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: int,
            flags: list, limit_s: float | None = None) -> dict:
    """One workload run: the result-line fields plus summary and digest."""
    limit_s = limit_for(seconds) if limit_s is None else limit_s
    deadline = time.monotonic() + limit_s
    count = 1 if trace else PROCESSES
    argv = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds / count), "--trace", str(trace), *flags]
    try:
        res = merged([_child(argv, deadline) for _ in range(count)])
    except subprocess.TimeoutExpired:
        return failure(name, seed,
                       f"exceeded the {limit_s:g} s wall-clock limit")
    except RunFailed as exc:
        return failure(name, seed, f"workload process {exc}")
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = dict(res["metrics"])
    unknown = sorted(set(metrics) - set(names))
    if trace:
        metrics.update(dict.fromkeys(foreign_layers(names, name), 0.0))
    correct = res["correct"]
    if unknown or (correct and sorted(metrics) != sorted(names)):
        print(f"error: {name} reported metrics {sorted(res['metrics'])}, "
              f"expected {sorted(names)}", file=sys.stderr)
        correct = False
    summary = dict(res["summary"])
    summary["failed_share"] = res["failed"] / max(1, res["attempted"])
    return {"workload": name, "seed": seed, "correct": correct,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {m: metrics[m] for m in names if m in metrics},
            "summary": summary, "records_sha256": res.get("records_sha256")}


def result_line(run: dict, spec: dict, trace: int) -> str:
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    return json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in run["metrics"].items()}})


# Roadmap names of the end-to-end figures, with units.
SUMMARY_UNITS = {"sessions_per_s": "1/s", "retrieved_MBps": "MB/s",
                 "session_p50_us": "us", "audit_s": "s", "setup_s": "s",
                 "peak_rss_MB": "MB", "failed_share": "ratio"}


def environment(seconds: float, trace: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "network": NETWORK,
            "seconds": seconds, "trace": bool(trace)}


def run_all(spec: dict, seeds: list, seconds: float, trace: int,
            flags: list, out: str | None) -> int:
    result = environment(seconds, trace)
    result["runs"] = []
    # Seeds outermost: a slow spell of the host then falls on one run of
    # each workload rather than on several runs of one workload.
    for seed in seeds:
        for name in [w["name"] for w in spec["workloads"]]:
            run = run_one(spec, name, seed, seconds, trace, flags)
            result["runs"].append(run)
            print(f"{name} seed={seed} correct={run['correct']} "
                  f"attempted={run['attempted']} failed={run['failed']}"
                  + (f" records_sha256={run['records_sha256']}"
                     if run.get("records_sha256") else ""), flush=True)
    print(f"# commit {result['commit']}, nproc {result['nproc']}, "
          f"python {result['python']}, {NETWORK}")
    print(f"# medians over seeds {','.join(map(str, seeds))}")
    key = "metrics" if trace else "summary"
    for name in [w["name"] for w in spec["workloads"]]:
        runs = [r for r in result["runs"] if r["workload"] == name]
        units = ({m["name"]: m["unit"] for m in spec["per_layer"]}
                 if trace else SUMMARY_UNITS)
        skip = foreign_layers(list(units), name) if trace else []
        for metric, unit in units.items():
            values = [r[key][metric] for r in runs if metric in r[key]]
            if values and metric not in skip:
                print(f"{name:11s} {metric:36s} "
                      f"{statistics.median(values):14.6g} {unit}")
    if out:
        Path(out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(r["correct"] for r in result["runs"]) else 1


# ---------------------------------------------------------------- compare

def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: dict, b: dict, better: str, bound: float | None) -> str:
    """improved / worse / unresolved for one metric, seeds paired.

    worse: B's median is worse than A's by more than the metric's bound
    (for a metric with no bound: by more than the wider spread, and B
    loses at least 9 in 10 paired seeds). improved: B's median is better
    than A's by more than the wider of the two spreads (quartile distance
    over median) and B wins at least 9 in 10 paired seeds.
    """
    (qa1, ma, qa3), (qb1, mb, qb3) = (quartiles(list(a.values())),
                                       quartiles(list(b.values())))
    if ma == 0:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    gain = sign * (mb - ma) / abs(ma)
    noise = max((qa3 - qa1) / abs(ma), (qb3 - qb1) / abs(mb or ma))
    seeds = set(a) & set(b)
    # Without shared seeds the pairing test cannot be made and is skipped.
    need = 0.9 * len(seeds)
    wins = sum(sign * (b[s] - a[s]) > 0 for s in seeds)
    losses = sum(sign * (b[s] - a[s]) < 0 for s in seeds)
    if bound is not None and -gain > bound:
        return "worse"
    if bound is None and -gain > noise and losses >= need:
        return "worse"
    if gain > noise and wins >= need:
        return "improved"
    return "unresolved"


def compare(spec: dict, path_a: str, path_b: str) -> int:
    docs = [json.loads(Path(p).read_text()) for p in (path_a, path_b)]
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    meta["failed_share"] = {"unit": "ratio", "better": "lower"}
    print(f"A = {path_a} ({docs[0]['commit'][:12]}), "
          f"B = {path_b} ({docs[1]['commit'][:12]})")
    print(f"{'workload':11s} {'metric':36s} {'unit':6s} "
          f"{'A q1':>11s} {'A median':>11s} {'A q3':>11s} "
          f"{'B q1':>11s} {'B median':>11s} {'B q3':>11s}  verdict")
    worse = 0
    for name in [w["name"] for w in spec["workloads"]]:
        sides = []
        for doc in docs:
            side = {}
            for r in doc["runs"]:
                if r["workload"] == name:
                    values = dict(r["metrics"])
                    values["failed_share"] = r["summary"].get(
                        "failed_share", 1.0)
                    for metric, v in values.items():
                        side.setdefault(metric, {})[r["seed"]] = v
            sides.append(side)
        for metric in [m for m in meta if m in sides[0] and m in sides[1]]:
            a, b = sides[0][metric], sides[1][metric]
            v = verdict(a, b, meta[metric]["better"],
                        meta[metric].get("bound"))
            if metric == "failed_share":
                v = ("worse" if max(b.values()) > max(a.values()) else
                     "improved" if max(b.values()) < max(a.values())
                     else "unresolved")
            worse += v == "worse"
            cells = "".join(f" {x:11.5g}"
                            for x in quartiles(list(a.values()))
                            + quartiles(list(b.values())))
            print(f"{name:11s} {metric:36s} {meta[metric]['unit']:6s}"
                  f"{cells}  {v}")
    return 1 if worse else 0


# ------------------------------------------------------------------- main

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        description="alpir benchmark (see the module docstring)")
    p.add_argument("--workload", help="run one workload")
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two --all result files")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", default=None,
                   help="comma-separated seeds for --all (default: --seed)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="--all: write the result file here")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--inject-wrong-expected", action="store_true",
                   help="check outputs against a wrong expectation")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "alpir" / "__init__.py").is_file():
        print(f"error: no alpir sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    seconds = args.seconds or spec["run_seconds"]
    flags = (["--smoke"] if args.smoke else []) + (
        ["--inject-wrong-expected"] if args.inject_wrong_expected else [])
    if args.all:
        seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
                 else [args.seed])
        return run_all(spec, seeds, seconds, args.trace, flags, args.out)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: --workload must be one of {names}", file=sys.stderr)
        return 2
    run = run_one(spec, args.workload, args.seed, seconds, args.trace, flags)
    print(f"# {args.workload} seed={args.seed} {NETWORK}")
    if run.get("records_sha256"):
        print(f"# records_sha256 {run['records_sha256']}")
    for k, v in run["summary"].items():
        print(f"# {k} = {v:.6g} {SUMMARY_UNITS.get(k, '')}")
    print(result_line(run, spec, args.trace))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
