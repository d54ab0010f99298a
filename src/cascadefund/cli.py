"""Command line front end: solve, sweep, simulate, analyze.

All subcommands read an optional JSON config file plus flag overrides,
write deterministic outputs (stable key order, 9 significant digits,
no timestamps), and embed the fully resolved config and tool version in
every file so a result can be traced back to its inputs.  Reruns with
the same config and seed are byte-identical.

Exit codes: 0 success, 2 config error, 3 numeric failure.

Config keys (flags of the same name override):
  quality     {"kind": "uniform", "R": .., "Q": ..} |
              {"kind": "tabulated", "R": .., "Q": .., "knots": [[q, f], ..]} |
              "path/to/quality.json"
  B, n        investments needed, player count (1 <= B <= n)
  L0          starting public odds (solve summary, simulate)
  L_min, L_max, L_points, L_scale ("log"|"linear")   sweep range
  grid_size   likelihood grid resolution for the table solver
  seed        RNG seed (counter-based Philox; reproducible by seed alone)
  runs        simulation count
  format      "csv" (payload CSV + JSON summary) | "json" (all JSON)
  out         output path prefix
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain

import numpy as np

from cascadefund import __version__
from cascadefund.beliefs import ConfigError, QualitySpec, TypeDistribution
from cascadefund.cascades import analyze as cascade_analyze
from cascadefund.cascades import min_R_for_cascades
from cascadefund.engine import (
    GameState,
    SolverSettings,
    backward_induction,
    pi_ordering_scan,
)
from cascadefund.simulate import (
    BLOCK_RUNS,
    completion_from_batch,
    end_likelihood_stats,
    simulate_runs,
)
from cascadefund.unanimity import delegation_analysis, sweep_profiles

DEFAULTS = {
    "quality": {"kind": "uniform", "R": 0.5, "Q": 0.8},
    "B": 2,
    "n": 2,
    "L0": 1.0,
    "L_min": 0.05,
    "L_max": 5.0,
    "L_points": 161,
    "L_scale": "log",
    "grid_size": 2001,
    "seed": 0,
    "runs": 10000,
    "format": "csv",
    "out": None,
}


def _nine(value):
    """Normalize a number to 9 significant digits for stable output."""
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return None
        return float(f"{value:.9g}")
    return value


def _clean(doc):
    if isinstance(doc, dict):
        return {k: _clean(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_clean(v) for v in doc]
    if isinstance(doc, (np.floating,)):
        return _nine(float(doc))
    if isinstance(doc, (np.integer,)):
        return int(doc)
    if isinstance(doc, np.bool_):
        return bool(doc)
    return _nine(doc)


def _dump_json(path: str, doc: dict) -> None:
    _ensure_dir(path)
    with open(path, "w") as fh:
        json.dump(_clean(doc), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _ensure_dir(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _csv_header(fh, config: dict) -> None:
    fh.write("# config: " + json.dumps(_clean(config), sort_keys=True) + "\n")
    fh.write(f"# version: {__version__}\n")


def _columns(parts) -> list[np.ndarray]:
    """Split equal-length arrays into columns: a 2-D array gives one per column."""
    cols = []
    for part in parts:
        part = np.asarray(part)
        cols.extend(part.T if part.ndim == 2 else [part])
    return cols


def _records(cols):
    """Rows of Python scalars from equal-length columns."""
    return zip(*(c.tolist() for c in cols))


def _write_csv(path: str, config: dict, names: list[str], parts) -> None:
    """Write the comment header, the column names, then one row per index.

    Integer and boolean columns print with %d, float columns with %.9g.
    One format string covers a block of BLOCK_RUNS rows, so memory stays
    flat however many rows there are.
    """
    cols = _columns(parts)
    row = ",".join("%.9g" if c.dtype.kind == "f" else "%d" for c in cols) + "\n"
    _ensure_dir(path)
    with open(path, "w") as fh:
        _csv_header(fh, config)
        fh.write(",".join(names) + "\n")
        for start in range(0, len(cols[0]), BLOCK_RUNS):
            rows = list(_records(c[start : start + BLOCK_RUNS] for c in cols))
            fh.write((row * len(rows)) % tuple(chain.from_iterable(rows)))


class RunConfig(dict):
    """Resolved run settings; validated up front so errors exit with 2."""

    @property
    def spec(self) -> QualitySpec:
        return self["_spec"]


def _load_config(args: argparse.Namespace) -> RunConfig:
    doc = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        doc.update(loaded)
    for key in (
        "B",
        "n",
        "L0",
        "L_min",
        "L_max",
        "L_points",
        "grid_size",
        "seed",
        "runs",
        "format",
        "out",
    ):
        val = getattr(args, key, None)
        if val is not None:
            doc[key] = val

    quality = doc["quality"]
    if isinstance(quality, str):
        try:
            with open(quality) as fh:
                quality = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read quality spec: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad quality JSON: {exc}") from exc
    spec = QualitySpec.from_dict(quality)

    cfg = RunConfig(doc)
    cfg["quality"] = spec.to_dict()
    cfg["_spec"] = spec
    for key in ("B", "n", "L_points", "grid_size", "seed", "runs"):
        v = cfg[key]
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise ConfigError(f"{key} must be an integer, got {v!r}")
    if not 1 <= cfg["B"] <= cfg["n"]:
        raise ConfigError(f"need 1 <= B <= n, got B={cfg['B']}, n={cfg['n']}")
    if cfg["n"] > 50:
        raise ConfigError("player counts above 50 are not supported")
    for key in ("L0", "L_min", "L_max"):
        v = float(cfg[key])
        if not (math.isfinite(v) and v > 0):
            raise ConfigError(f"{key} must be finite and positive, got {v!r}")
        cfg[key] = v
    if cfg["L_min"] >= cfg["L_max"]:
        raise ConfigError("need L_min < L_max")
    if cfg["L_points"] < 2:
        raise ConfigError("need at least two sweep points")
    if cfg["grid_size"] < 64:
        raise ConfigError("grid_size below 64 is too coarse to trust")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be nonnegative")
    if cfg["runs"] < 1:
        raise ConfigError("runs must be positive")
    if cfg["L_scale"] not in ("log", "linear"):
        raise ConfigError(f"L_scale must be 'log' or 'linear', got {cfg['L_scale']!r}")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {cfg['format']!r}")
    return cfg


def _public_config(cfg: RunConfig) -> dict:
    return {k: v for k, v in cfg.items() if not k.startswith("_")}


def _L_grid(cfg: RunConfig) -> np.ndarray:
    if cfg["L_scale"] == "log":
        return np.geomspace(cfg["L_min"], cfg["L_max"], cfg["L_points"])
    return np.linspace(cfg["L_min"], cfg["L_max"], cfg["L_points"])


def _out_prefix(cfg: RunConfig, command: str) -> str:
    return cfg["out"] or f"cascadefund_{command}"


# -- subcommands ---------------------------------------------------------------


def cmd_solve(cfg: RunConfig) -> int:
    dist = TypeDistribution(cfg.spec)
    policy = backward_induction(
        dist, cfg["B"], cfg["n"], settings=SolverSettings(grid_size=cfg["grid_size"])
    )
    prefix = _out_prefix(cfg, "solve")
    config = _public_config(cfg)

    rows = list(policy.iter_rows())
    rows_meta = [
        {
            "B": B,
            "n": n,
            "points": int(row.L.size),
            "irregular_fraction": float(np.mean(row.irregular)),
        }
        for B, n, row in rows
    ]
    names = ["B", "n", "L", "sigma", "pi0", "pi1", "irregular"]
    cols = [
        np.concatenate([np.full(row.L.size, B) for B, _, row in rows]),
        np.concatenate([np.full(row.L.size, n) for _, n, row in rows]),
        *(np.concatenate([getattr(row, key) for _, _, row in rows]) for key in names[2:]),
    ]

    if cfg["format"] == "csv":
        _write_csv(prefix + ".csv", config, names, cols)

    x0 = policy.sigma(cfg["L0"], cfg["B"], cfg["n"])
    p0, p1 = policy.pi(cfg["L0"], cfg["B"], cfg["n"])
    summary = {
        "command": "solve",
        "config": config,
        "version": __version__,
        "rows": rows_meta,
        "at_L0": {"L": cfg["L0"], "sigma": x0, "pi0": p0, "pi1": p1},
        "ordering_scan": pi_ordering_scan(policy),
    }
    if cfg["format"] == "json":
        summary["table"] = [dict(zip(names, rec)) for rec in _records(cols)]
    _dump_json(prefix + ".json", summary)
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg["B"] != cfg["n"]:
        raise ConfigError(
            "sweep emits per-player threshold profiles, which only exist "
            "for must-fill games; set B = n"
        )
    dist = TypeDistribution(cfg.spec)
    n = cfg["n"]
    Ls = _L_grid(cfg)
    sweep = sweep_profiles(dist, n, Ls)
    prefix = _out_prefix(cfg, "sweep")
    config = _public_config(cfg)

    cols = (
        ["L"]
        + [f"x_{i}" for i in range(1, n + 1)]
        + ["pi0", "pi1", "utility"]
        + [f"delegate_{i}" for i in range(1, n + 1)]
        + ["irregular"]
    )
    parts = [sweep[k] for k in ("L", "x", "pi0", "pi1", "utility", "delegate", "irregular")]

    if cfg["format"] == "csv":
        _write_csv(prefix + ".csv", config, cols, parts)
    else:
        _dump_json(
            prefix + ".json",
            {
                "command": "sweep",
                "config": config,
                "version": __version__,
                "columns": cols,
                "rows": [list(rec) for rec in _records(_columns(parts))],
            },
        )
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    dist = TypeDistribution(cfg.spec)
    policy = backward_induction(
        dist, cfg["B"], cfg["n"], settings=SolverSettings(grid_size=cfg["grid_size"])
    )
    state = GameState(cfg["L0"], cfg["B"], cfg["n"])
    batch = simulate_runs(policy, state, cfg["runs"], cfg["seed"])
    est = completion_from_batch(batch)
    prefix = _out_prefix(cfg, "simulate")
    config = _public_config(cfg)
    n = cfg["n"]

    if cfg["format"] == "csv":
        cols = (
            ["run", "world", "completed", "L_end"]
            + [f"a_{i}" for i in range(1, n + 1)]
            + [f"t_{i}" for i in range(1, n + 1)]
        )
        parts = [
            np.arange(len(batch)),
            batch.world,
            batch.completed,
            batch.L_end,
            batch.actions,
            batch.types,
        ]
        _write_csv(prefix + ".csv", config, cols, parts)

    p0_grid, p1_grid = policy.pi(cfg["L0"], cfg["B"], cfg["n"])
    summary = {
        "command": "simulate",
        "config": config,
        "version": __version__,
        "estimate": {
            "pi0_hat": est.pi0_hat,
            "pi1_hat": est.pi1_hat,
            "se0": est.se0,
            "se1": est.se1,
            "count0": est.count0,
            "count1": est.count1,
        },
        "grid_pi": {"pi0": p0_grid, "pi1": p1_grid},
        "completed_fraction": float(np.mean(batch.completed)),
        "end_stats": end_likelihood_stats(batch, dist),
    }
    _dump_json(prefix + ".json", summary)
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    dist = TypeDistribution(cfg.spec)
    report = cascade_analyze(dist, cfg["B"])
    delegation = delegation_analysis(dist)
    doc = {
        "command": "analyze",
        "config": _public_config(cfg),
        "version": __version__,
        "cascades": report.to_dict(),
        "delegation": delegation.to_dict(),
        "min_R_for_cascades": min_R_for_cascades(dist.Q),
    }
    _dump_json(_out_prefix(cfg, "analyze") + ".json", doc)
    return 0


COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadefund",
        description="Solve, sweep, simulate, and analyze sequential "
        "threshold-fundraising games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve a policy table and write it out"),
        ("sweep", "threshold profiles across a range of odds (B = n)"),
        ("simulate", "Monte Carlo runs under the solved policy"),
        ("analyze", "cascade bounds and delegation report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--B", type=int, help="investments needed")
        p.add_argument("--n", type=int, help="number of players")
        p.add_argument("--L0", type=float, help="starting public odds")
        p.add_argument("--grid-size", dest="grid_size", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--runs", type=int)
        p.add_argument("--L-min", dest="L_min", type=float)
        p.add_argument("--L-max", dest="L_max", type=float)
        p.add_argument("--L-points", dest="L_points", type=int)
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--out", help="output path prefix")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        cfg = _load_config(args)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric or model failure
        kind = type(exc).__name__
        print(f"numeric failure ({kind}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
