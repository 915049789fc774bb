"""Command-line front end.

Subcommands: bounds (closed-form table for one system shape), sweep (the
same table over lists of shapes), simulate (wire-level sessions plus
privacy audits), verify (self-checking suite).

Configuration precedence: command-line flags, then ALPIR_* environment
variables, then an optional key=value config file (--config), then
built-in defaults. Grids are written a:b:s (inclusive endpoints, step s).
eps accepts "inf". Every subcommand is deterministic given its
configuration and seed: reruns produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable

from . import bounds as bnd
from . import leakage as lk
from . import netsim
from .params import SystemParams
from .scheme import path_distribution, plan_partition
from .selfcheck import default_message_bits, run_all

ENV_PREFIX = "ALPIR_"

BOUNDS_FIELDS = ["n", "k", "eps", "delta", "d_upper", "d_lower", "alpha1",
                 "alpha2", "delta1", "delta2", "gap_ratio", "gap_cap",
                 "regime", "reference_cost"]


def _bool_cast(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


_CASTERS: dict[str, Callable[[str], object]] = {
    "n": str, "k": str, "l": int, "eps": float, "delta": float,
    "eps_grid": str, "delta_grid": str, "trials": int, "seed": int,
    "out": str, "format": str, "transport": str,
    "no_db_relabel": _bool_cast, "inject_key_deficit": int,
}

DEFAULTS = {
    "l": None, "eps": None, "delta": None, "eps_grid": None,
    "delta_grid": None, "trials": 10000, "seed": 0, "out": None,
    "format": "csv", "transport": "memory", "no_db_relabel": False,
    "inject_key_deficit": 0, "n": "2", "k": "2",
}


def parse_grid(text: str) -> list[float]:
    """Inclusive grid a:b:s; a bare number is a one-point grid."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"grid must be a:b:s, got {text!r}")
    a, b, s = (float(x) for x in parts)
    if s <= 0 or b < a:
        raise ValueError(f"grid {text!r} needs b >= a and s > 0")
    count = int(math.floor((b - a) / s + 1e-9)) + 1
    return [a + j * s for j in range(count)]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alpir",
        description="Leaky private information retrieval: bounds, "
                    "simulation, and privacy audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lists=False):
        nk = "comma-separated list" if lists else "value"
        p.add_argument("--n", help=f"databases ({nk})")
        p.add_argument("--k", help=f"messages ({nk})")
        p.add_argument("--l", type=int, help="bits per message")
        p.add_argument("--eps", type=float,
                       help="user-privacy budget in nats (accepts inf)")
        p.add_argument("--delta",
                       type=float, help="db-privacy budget, bits per bit")
        p.add_argument("--eps-grid", help="eps grid a:b:s")
        p.add_argument("--delta-grid", help="delta grid a:b:s")
        p.add_argument("--trials", type=int, help="session count")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help="write rows here instead of stdout")
        p.add_argument("--format", choices=["csv", "json-lines"],
                       help="row format")
        p.add_argument("--config", help="key=value config file")

    p_bounds = sub.add_parser(
        "bounds", help="closed-form bound table for one (n, k)")
    common(p_bounds)

    p_sweep = sub.add_parser(
        "sweep", help="bound table over lists of n and k")
    common(p_sweep, lists=True)

    p_sim = sub.add_parser(
        "simulate", help="run wire-level sessions and audit them")
    common(p_sim)
    p_sim.add_argument("--transport", choices=["memory", "tcp"],
                       help="byte-stream transport (default memory)")
    p_sim.add_argument("--no-db-relabel", action="store_true", default=None,
                       help="disable the per-session server relabeling")

    p_ver = sub.add_parser("verify", help="run the self-check suite")
    common(p_ver)
    p_ver.add_argument("--inject-key-deficit", type=int,
                       help="shrink planned keys by this many bits "
                            "(negative testing; default 0)")

    return parser


def resolve_config(ns: argparse.Namespace) -> dict:
    """Merge defaults, config file, environment, and explicit flags."""
    cfg = dict(DEFAULTS)
    path = getattr(ns, "config", None)
    if path:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, value = (x.strip() for x in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in cfg:
                    raise ValueError(f"unknown config key: {key}")
                cfg[key] = _CASTERS.get(key, str)(value)
    for key in cfg:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            cfg[key] = _CASTERS.get(key, str)(env)
    for key, value in vars(ns).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key] = value
    return cfg


class _Writer:
    """Rows to stdout or --out, one record per line, stable field order."""

    def __init__(self, cfg: dict, fields: list[str]):
        self.fields = fields
        self.fmt = cfg["format"]
        self.path = cfg["out"]
        self.fh = open(self.path, "w") if self.path else sys.stdout

    def header(self) -> None:
        if self.fmt == "csv":
            self.fh.write(",".join(self.fields) + "\n")

    def row(self, record: dict) -> None:
        if self.fmt == "csv":
            self.fh.write(",".join(_cell(record[f]) for f in self.fields)
                          + "\n")
        else:
            self.fh.write(json.dumps({f: record[f] for f in self.fields},
                                     sort_keys=True) + "\n")

    def close(self) -> None:
        if self.path:
            self.fh.close()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _single_int(cfg: dict, key: str) -> int:
    values = _int_list(str(cfg[key]))
    if len(values) != 1:
        raise ValueError(f"--{key} takes a single value here")
    return values[0]


def _given(cfg: dict, key: str, default):
    """cfg[key], or default when it was left unset."""
    return cfg[key] if cfg[key] is not None else default


def _grid_values(cfg: dict, name: str) -> list[float]:
    grid, point = cfg[f"{name}_grid"], cfg[name]
    if grid is not None and point is not None:
        raise ValueError(f"--{name} and --{name}-grid are mutually exclusive")
    if grid is not None:
        return parse_grid(grid)
    return [_given(cfg, name, 0.0)]


def _bounds_rows(cfg: dict, n_values: list[int], k_values: list[int]):
    eps_values = _grid_values(cfg, "eps")
    delta_values = _grid_values(cfg, "delta")
    for n in n_values:
        for k in k_values:
            l = _given(cfg, "l", default_message_bits(n))
            for eps in eps_values:
                for delta in delta_values:
                    params = SystemParams(n, k, l, eps, delta)
                    report = bnd.bounds_report(params)
                    yield report.to_dict()


def _emit(cfg: dict, fields: list[str], rows) -> int:
    """Stream rows after probing the first, so bad parameters fail
    before anything lands on stdout or in --out."""
    first = next(rows, None)
    writer = _Writer(cfg, fields)
    writer.header()
    if first is not None:
        writer.row(first)
        for row in rows:
            writer.row(row)
    writer.close()
    return 0


def cmd_bounds(cfg: dict) -> int:
    n = _single_int(cfg, "n")
    k = _single_int(cfg, "k")
    if n == 1:
        return _single_server_table(cfg, k)
    return _emit(cfg, BOUNDS_FIELDS, _bounds_rows(cfg, [n], [k]))


def _single_server_table(cfg: dict, k: int) -> int:
    def rows():
        for delta in _grid_values(cfg, "delta"):
            outcome = bnd.single_server_cost(k, delta)
            yield {"k": k, "delta": delta, "feasible": outcome.feasible,
                   "cost": outcome.cost}

    return _emit(cfg, ["k", "delta", "feasible", "cost"], rows())


def cmd_sweep(cfg: dict) -> int:
    n_values = _int_list(str(cfg["n"]))
    k_values = _int_list(str(cfg["k"]))
    if any(n < 2 for n in n_values):
        raise ValueError("sweep needs n >= 2 everywhere; "
                         "use bounds --n 1 for the single-server table")
    return _emit(cfg, BOUNDS_FIELDS, _bounds_rows(cfg, n_values, k_values))


def _point(cfg: dict, n: int, k: int) -> SystemParams:
    """The one parameter point of simulate and verify."""
    return SystemParams(n, k, _given(cfg, "l", default_message_bits(n)),
                        _given(cfg, "eps", 0.0), _given(cfg, "delta", 0.0))


def cmd_simulate(cfg: dict) -> int:
    n, k = _single_int(cfg, "n"), _single_int(cfg, "k")
    params = _point(cfg, n, k)
    trials, seed = cfg["trials"], cfg["seed"]
    layout = plan_partition(params)
    stats = netsim.run_trials(trials, params, seed,
                              transport=cfg["transport"],
                              relabel=not cfg["no_db_relabel"])
    cost = lk.cost_audit_from_mean(params, layout, stats.mean_cost, trials)
    ratio = lk.ratio_audit_from_counts(
        stats.structure_counts, stats.trials_per_message,
        lk.analytic_user_ratio(path_distribution(params)))
    leak = lk.db_leak_audit(params, layout)
    cost_ok, ratio_ok = not cost.violation, not ratio.violation
    decode_ok = stats.decode_failures == 0

    print(f"simulate n={n} k={k} l={params.message_bits} eps={params.eps:g} "
          f"delta={params.delta:g} trials={trials} seed={seed} "
          f"transport={cfg['transport']}")
    print(f"layout: key_bits={layout.key_bits} "
          f"masked={layout.masked_subpacket_bits} "
          f"open={layout.open_subpacket_bits} "
          f"effective_alpha={layout.effective_alpha:.9g} "
          f"effective_delta={layout.effective_delta:.9g}")
    print(f"cost: empirical={cost.mean_cost:.9g} expected={cost.expected:.9g} "
          f"sigma={cost.sigma:.3g} {'ok' if cost_ok else 'VIOLATION'}")
    print(f"user ratio: empirical={ratio.max_ratio:.9g} "
          f"analytic={ratio.budget:.9g} halfwidth={ratio.halfwidth:.3g} "
          f"{'ok' if ratio_ok else 'VIOLATION'}")
    oracle_text = ("skipped" if leak.exact_bits is None
                   else f"{leak.exact_bits:.9g}")
    print(f"db leakage: analytic={leak.analytic_bits:.9g} "
          f"budget={leak.budget_bits:.9g} oracle={oracle_text} "
          f"{'ok' if leak.ok else 'VIOLATION'}")
    print(f"sessions: low_frequency={stats.low_frequency:.9g} "
          f"decode_failures={stats.decode_failures} "
          f"mean_leaked_bits={stats.mean_leaked_bits:.9g} "
          f"mean_upload_bits={stats.mean_upload_bits:.9g}")
    ok = cost_ok and ratio_ok and leak.ok and decode_ok
    print(f"verdict: {'PASS' if ok else 'FAIL'}")

    if cfg["out"]:
        fields = netsim.CSV_HEADER.split(",")
        _emit(cfg, fields, (
            dict(zip(fields, (r.session_id, r.desired, r.path_class.value,
                              r.bits_downloaded, r.leaked_bits)))
            for r in stats.records))
    return 0 if ok else 1


def cmd_verify(cfg: dict) -> int:
    n = _single_int(cfg, "n")
    k = _single_int(cfg, "k")
    if n == 1:
        delta = _given(cfg, "delta", 0.0)
        outcome = bnd.single_server_cost(k, delta)
        print(f"PASS single-server: k={k} delta={delta:g} "
              f"feasible={outcome.feasible} cost={outcome.cost:g}")
        return 0
    point = None
    if any(cfg[key] is not None for key in ("l", "eps", "delta")):
        point = _point(cfg, n, k)
    results = run_all(point=point, key_bits_offset=cfg["inject_key_deficit"])
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"verify: {len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = resolve_config(ns)
        return _COMMANDS[ns.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
