"""Command-line front end.

Subcommands: bounds (closed-form table for one system shape), sweep (the
same table over lists of shapes), simulate (wire-level sessions plus
privacy audits), verify (self-checking suite). Every table, and the
session records of simulate --out, is written by rows.write_rows, to
stdout or --out, once its first row has been built.

Two tables, SETTINGS and COMMANDS, describe the interface. A
subcommand's flags are only the settings it runs, plus --config;
simulate alone loads alpir.netsim, and verify alone alpir.selfcheck.

Configuration precedence: command-line flags, then ALPIR_* environment
variables, then an optional key=value config file (--config), then
built-in defaults. The environment and the config file may set any key
for any subcommand; every value, whatever its source, is cast and
checked against its setting's choices. Grids are written a:b:s
(inclusive endpoints, step s). eps accepts "inf". Every subcommand is
deterministic given its configuration and seed: reruns produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from itertools import chain
from typing import Sequence

from . import bounds as bnd
from . import leakage as lk
from .bounds import BOUNDS_FIELDS
from .params import SystemParams, default_message_bits
from .rows import write_rows
from .scheme import path_distribution, plan_partition

ENV_PREFIX = "ALPIR_"
MAX_GRID_POINTS = 1 << 20  # the largest grid in use has 101

EVERY = ("bounds", "sweep", "simulate", "verify")
TABLES = ("bounds", "sweep")
ROWS = ("bounds", "sweep", "simulate")

# key: (type, default, choices, help, subcommands that take it as a flag)
SETTINGS = {
    "n": (str, "2", None, "databases (sweep: comma-separated list)", EVERY),
    "k": (str, "2", None, "messages (sweep: comma-separated list)", EVERY),
    "l": (int, None, None, "bits per message", EVERY),
    "eps": (float, None, None,
            "user-privacy budget in nats (accepts inf)", EVERY),
    "delta": (float, None, None, "db-privacy budget, bits per bit", EVERY),
    "eps_grid": (str, None, None, "eps grid a:b:s", TABLES),
    "delta_grid": (str, None, None, "delta grid a:b:s", TABLES),
    "trials": (int, 10000, None, "session count", ("simulate",)),
    "seed": (int, 0, None, "master seed", ("simulate",)),
    "out": (str, None, None, "write rows here instead of stdout", ROWS),
    "format": (str, "csv", ("csv", "json-lines"), "row format", ROWS),
    "transport": (str, "memory", ("memory", "tcp"),
                  "byte-stream transport", ("simulate",)),
    "inject_key_deficit": (int, 0, None, "shrink planned keys by this many "
                           "bits (negative testing)", ("verify",)),
}

DEFAULTS = {key: entry[1] for key, entry in SETTINGS.items()}


def parse_grid(text: str) -> list[float]:
    """Inclusive grid a:b:s; a bare number is a one-point grid."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"grid must be a:b:s, got {text!r}")
    a, b, s = (float(x) for x in parts)
    if not all(map(math.isfinite, (a, b, s))):
        raise ValueError(f"grid {text!r} needs finite a, b and s")
    if s <= 0 or b < a:
        raise ValueError(f"grid {text!r} needs b >= a and s > 0")
    steps = (b - a) / s + 1e-9
    if not steps < MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has over {MAX_GRID_POINTS} points")
    return [a + j * s for j in range(int(steps) + 1)]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alpir",
        description="Leaky private information retrieval: bounds, "
                    "simulation, and privacy audits.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for key, (cast, default, choices, text, takers) in SETTINGS.items():
            if name in takers:
                if default is not None:
                    text += f" (default {default})"
                p.add_argument("--" + key.replace("_", "-"), type=cast,
                               choices=choices, help=text)
        p.add_argument("--config", help="key=value config file")
    return parser


def resolve_config(ns: argparse.Namespace) -> dict:
    """Merge defaults, config file, environment, and explicit flags. Every
    value, whatever its source, is cast and checked by its SETTINGS entry."""
    cfg = dict(DEFAULTS)
    if ns.config:
        with open(ns.config) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, value = (x.strip() for x in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in SETTINGS:
                    raise ValueError(f"unknown config key: {key}")
                cfg[key] = SETTINGS[key][0](value)
    for key, (cast, *_) in SETTINGS.items():
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            cfg[key] = cast(env)
    cfg.update((key, value) for key, value in vars(ns).items()
               if key in SETTINGS and value is not None)
    for key, (_, _, choices, _, _) in SETTINGS.items():
        if choices and cfg[key] not in choices:
            raise ValueError(f"unknown {key} {cfg[key]!r}; "
                             f"choose from {', '.join(choices)}")
    return cfg


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
    """Each (N, K, eps) block's rows, from one bounds_rows call.
    SystemParams checks every block, and bounds_rows every delta, before
    the first row. Grid values ascend from their first, so the error
    raised is the first bad row's."""
    eps_values = _grid_values(cfg, "eps")
    delta_values = _grid_values(cfg, "delta")
    blocks = [SystemParams(n, k, _given(cfg, "l", default_message_bits(n)),
                           eps, delta_values[0])
              for n in n_values for k in k_values for eps in eps_values]
    for params in blocks:
        yield from bnd.bounds_rows(params, delta_values)


def _emit(cfg: dict, fields: Sequence[str], rows) -> int:
    """Stream rows after building the first, so bad parameters, which
    every row generator checks before its first row, fail before anything
    lands on stdout or in --out."""
    first = next(rows, None)
    if first is not None:
        rows = chain((first,), rows)
    with (open(cfg["out"], "w") if cfg["out"]
          else nullcontext(sys.stdout)) as fh:
        write_rows(fh, fields, rows, cfg["format"])
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
            yield k, delta, outcome.feasible, outcome.cost

    return _emit(cfg, ["k", "delta", "feasible", "cost"], rows())


def cmd_sweep(cfg: dict) -> int:
    n_values = _int_list(str(cfg["n"]))
    k_values = _int_list(str(cfg["k"]))
    if not n_values or not k_values:
        raise ValueError("sweep needs at least one n and one k")
    if any(n < 2 for n in n_values):
        raise ValueError("sweep needs n >= 2 everywhere; "
                         "use bounds --n 1 for the single-server table")
    return _emit(cfg, BOUNDS_FIELDS, _bounds_rows(cfg, n_values, k_values))


def _no_grid(cfg: dict, command: str) -> None:
    """A grid from the environment or --config would go unused here."""
    for key in ("eps_grid", "delta_grid"):
        if cfg[key] is not None:
            raise ValueError(f"{key} is for bounds and sweep; {command} "
                             "runs one point")


def _point(cfg: dict, n: int, k: int) -> SystemParams:
    """The one parameter point of simulate and verify."""
    return SystemParams(n, k, _given(cfg, "l", default_message_bits(n)),
                        _given(cfg, "eps", 0.0), _given(cfg, "delta", 0.0))


def cmd_simulate(cfg: dict) -> int:
    _no_grid(cfg, "simulate")
    from . import netsim  # threads and transports: simulate alone loads them
    n, k = _single_int(cfg, "n"), _single_int(cfg, "k")
    params = _point(cfg, n, k)
    trials, seed = cfg["trials"], cfg["seed"]
    layout = plan_partition(params)
    stats = netsim.run_trials(trials, params, seed,
                              transport=cfg["transport"])
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
        _emit(cfg, netsim.SESSION_FIELDS, netsim.session_rows(stats.records))
    return 0 if ok else 1


def cmd_verify(cfg: dict) -> int:
    _no_grid(cfg, "verify")
    n = _single_int(cfg, "n")
    k = _single_int(cfg, "k")
    if n == 1:
        delta = _given(cfg, "delta", 0.0)
        outcome = bnd.single_server_cost(k, delta)
        print(f"PASS single-server: k={k} delta={delta:g} "
              f"feasible={outcome.feasible} cost={outcome.cost:g}")
        return 0
    from .selfcheck import run_all
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


COMMANDS = {
    "bounds": (cmd_bounds, "closed-form bound table for one (n, k)"),
    "sweep": (cmd_sweep, "bound table over lists of n and k"),
    "simulate": (cmd_simulate, "run wire-level sessions and audit them"),
    "verify": (cmd_verify, "run the self-check suite"),
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = resolve_config(ns)
        return COMMANDS[ns.command][0](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
