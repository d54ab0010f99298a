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
  format      "csv" (payload CSV + JSON summary) | "json" (payload in the
              JSON; simulate writes only its summary, with no runs)
  out         output path prefix
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from cascadefund import __version__
from cascadefund.beliefs import ConfigError, QualitySpec, TypeDistribution, _number
from cascadefund.cascades import analyze as cascade_analyze
from cascadefund.cascades import min_R_for_cascades
from cascadefund.engine import (
    MAX_PLAYERS,
    GameState,
    backward_induction,
    pi_ordering_scan,
)
from cascadefund.roots import _debug
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
    if dataclasses.is_dataclass(doc):
        return _clean(dataclasses.asdict(doc))
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


def _csv_header(config: dict, names: list[str]) -> str:
    return (
        "# config: " + json.dumps(_clean(config), sort_keys=True) + "\n"
        f"# version: {__version__}\n" + ",".join(names) + "\n"
    )


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


# Powers of ten: exact doubles up to 1e12 (every 10**k with k <= 22 is)
# and every uint64 place value.
_POW10 = np.array([float(10**k) for k in range(13)])
_PLACES = np.array([10**k for k in range(20)], dtype=np.uint64)


def _float_tables():
    """Byte tables of the float cell layout.

    A float cell is 32 bytes, read as four uint64 words: (character,
    point) byte pairs holding the sign and then the 13-character text
    "0000" + the 9 mantissa digits, with two empty pairs so that each
    3-digit group of the mantissa fills one table word:

        word 0: sign '0' '0' '0'    word 1: '0' d0 d1 d2
        word 2: d3 d4 d5 --         word 3: d6 d7 d8 --

    Text character 4 + e is the ones digit; its point byte takes '.' when
    a later character prints.  Returns the words of every 3-digit group
    (in word 1 and in words 2-3), the last nonzero digit of each group
    (-10 for none), and an AND and an OR mask per (sign, e, last) key,
    where `last` is the text index of the last nonzero digit; the extra
    final mask row blanks a cell.
    """
    v = np.arange(1000.0)
    tens, hundreds = np.floor(v / 10), np.floor(v / 100)
    digits = np.stack([hundreds, tens - 10 * hundreds, v - 10 * tens], axis=1)
    lead, rest = np.zeros((2, 1000, 8), np.uint8)
    lead[:, 0] = 48
    lead[:, 2::2] = digits + 48
    rest[:, 0:6:2] = digits + 48
    nonzero = digits != 0
    last_digit = np.where(nonzero[:, 2], 2, np.where(nonzero[:, 1], 1, np.where(v != 0, 0, -10)))

    sign, e, last = (k.ravel() for k in np.meshgrid(
        [0, 1], np.arange(-4, 9), np.arange(4, 13), indexing="ij"))
    text = np.arange(13)
    point = 4 + e
    keep = (text >= 4 + np.minimum(e, 0)[:, None]) & (text <= np.maximum(last, point)[:, None])
    dot = (text == point[:, None]) & (last > point)[:, None]
    char_at = np.array([2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 24, 26, 28])
    and_mask, or_mask = np.zeros((2, sign.size + 1, 32), np.uint8)
    and_mask[:-1, 0] = 255 * sign
    and_mask[:-1, char_at] = 255 * keep
    or_mask[:-1, char_at + 1] = 46 * dot
    words = [t.view(np.uint64) for t in (lead, rest, and_mask, or_mask)]
    return words[0].ravel(), words[1].ravel(), last_digit, words[2], words[3]


_LEAD_WORD, _REST_WORD, _LAST_DIGIT, _FLOAT_AND, _FLOAT_OR = _float_tables()
_SIGN_WORD = np.array([45, 0, 48, 0, 48, 0, 48, 0], np.uint8).view(np.uint64)[0]


def _int_cells(col: np.ndarray) -> np.ndarray:
    """The %d text of an integer or boolean column: one NUL-padded row per cell."""
    if col.dtype.kind == "b":
        return (col.astype(np.uint8) + 48)[:, None]
    neg = col < 0
    mag = col.astype(np.uint64)
    # Negating in uint64 gives |v| exactly, even for the most negative int64.
    mag = np.where(neg, -mag, mag)
    width = len(str(int(mag.max())))
    cells = np.zeros((col.size, width + 1), np.uint8)
    cells[:, 0] = 45 * neg
    for j in range(width):
        place = _PLACES[width - 1 - j]
        digit = (mag // place % 10).astype(np.uint8) + 48
        cells[:, j + 1] = digit if place == 1 else digit * (mag >= place)
    return cells


def _float_cells(col: np.ndarray) -> tuple[np.ndarray, int]:
    """The %.9g text of a float column: one NUL-padded row per cell.

    Returns the cells and how many of them were formatted by Python's `%`.

    A finite nonzero x with e = floor(log10|x|) in [-4, 8] prints in fixed
    notation as the 9-digit mantissa m = round(S), S = |x|·10^(8-e), with
    8-e fraction digits, trailing zeros and a bare point stripped.  The
    vector path computes s = |x|·10^(8-e) in doubles: 10^k is exact for
    k <= 12, so s is S correctly rounded and |s - S| <= ulp(s)/2 < 1.2e-7
    for s < 1e9.  A cell keeps the vector path only when s lies in
    [1e8, 1e9), m = rint(s) < 1e9 and |frac(s) - 1/2| > 1e-6.  Then:

    - m is the correctly rounded mantissa: |s - m| < 1/2 - 1e-6, so
      |S - m| < 1/2 and m is the unique integer nearest S (no tie, so the
      half-even rule never decides);
    - e is the exponent %.9g uses.  If log10 misjudged e, S is outside
      [1e8, 1e9) while s is inside, so S is within 1.2e-7 of an end.  At
      the top end rint(s) = 1e9 and the cell falls back.  At the bottom
      end S·10 rounds up to 1e9, which %.9g prints as m = 1e8 at exponent
      e, the vector path's text.

    Every other cell (NaN, inf, a value needing scientific notation, a
    near tie, a carry, or a misjudged e) is formatted by `'%.9g' % v`.
    Exact zeros stay on the vector path as "0" and "-0".
    """
    x = col.astype(np.float64)
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(a))
        fixed = (e >= -4) & (e <= 8)  # False for 0, NaN and inf
        e[~fixed] = 0.0
        s = a * _POW10[(8 - e).astype(np.intp)]
        m = np.rint(s)
        fixed &= (s >= 1e8) & (m < 1e9) & (np.abs(s - np.floor(s) - 0.5) > 1e-6)
    ok = fixed | (a == 0.0)
    m[~fixed] = 0.0
    # The three 3-digit groups of m; float arithmetic on integers below
    # 2**53 is exact, and a quotient floors right since m is an integer.
    g0 = np.floor(m / 1e6)
    g1 = np.floor(m / 1e3) - 1e3 * g0
    g2 = m - 1e3 * np.floor(m / 1e3)
    g0, g1, g2 = g0.astype(np.intp), g1.astype(np.intp), g2.astype(np.intp)
    # Text index of the last nonzero digit; a zero prints its ones digit.
    last = np.maximum(np.maximum(_LAST_DIGIT.take(g0), 0), _LAST_DIGIT.take(g1) + 3)
    last = np.maximum(last, _LAST_DIGIT.take(g2) + 6) + 4
    key = (13 * np.signbit(x) + e.astype(np.intp) + 4) * 9 + last - 4
    key[~ok] = len(_FLOAT_AND) - 1
    words = np.empty((x.size, 4), np.uint64)
    words[:, 0] = _SIGN_WORD
    words[:, 1] = _LEAD_WORD.take(g0)
    words[:, 2] = _REST_WORD.take(g1)
    words[:, 3] = _REST_WORD.take(g2)
    words &= _FLOAT_AND.take(key, axis=0)
    words |= _FLOAT_OR.take(key, axis=0)
    cells = words.view(np.uint8)
    slow = np.flatnonzero(~ok)
    if slow.size:
        strs = np.array(["%.9g" % v for v in x[slow].tolist()], dtype="S")
        tail = np.zeros((x.size, strs.itemsize), np.uint8)
        tail[slow] = strs.view(np.uint8).reshape(slow.size, strs.itemsize)
        cells = np.concatenate([cells, tail], axis=1)
    return cells, slow.size


def _block_text(cols: list[np.ndarray]) -> tuple[bytes, int]:
    """The CSV text of one block of rows, and its count of cells formatted by `%`."""
    cells, slow = [], 0
    for c in cols:
        if c.dtype.kind == "f":
            text, k = _float_cells(c)
            slow += k
        else:
            text = _int_cells(c)
        cells += [text, np.full((c.size, 1), 44, np.uint8)]
    cells[-1][:] = 10
    mat = np.concatenate(cells, axis=1)
    del cells  # only the matrix and its text are alive from here
    return mat.tobytes().translate(None, b"\0"), slow


def _write_csv(path: str, config: dict, names: list[str], parts) -> None:
    """Write the comment header, the column names, then one row per index.

    Integer and boolean columns print as %d would, float columns as %.9g
    would, byte for byte.  Each block of at most BLOCK_RUNS rows becomes
    one uint8 matrix: every cell a fixed-width field padded with NUL
    bytes, then a ',' or '\\n' column; dropping the NULs gives the block's
    text.  Integers are exact in uint64.  Floats take the vector path of
    `_float_cells`, whose docstring proves it exact, and fall back to `%`
    cell by cell where that proof does not hold.  Only one block's arrays
    are alive at a time, so memory stays flat however many rows there are.
    One DEBUG record on the "cascadefund" logger gives the rows, the cells
    and the cells formatted by `%`.
    """
    cols = _columns(parts)
    rows = len(cols[0])
    slow = 0
    _ensure_dir(path)
    with open(path, "wb") as fh:
        fh.write(_csv_header(config, names).encode())
        for start in range(0, rows, BLOCK_RUNS):
            text, k = _block_text([c[start : start + BLOCK_RUNS] for c in cols])
            fh.write(text)
            slow += k
    _debug("csv %s: %d rows, %d cells, %d formatted by %%", path, rows, rows * len(cols), slow)


class RunConfig(dict):
    """Resolved run settings; validated up front so errors exit with 2."""

    @property
    def spec(self) -> QualitySpec:
        return self["_spec"]


def _read_json(path: str, what: str):
    """Parse the JSON file at `path`; errors name `what` and the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad {what} JSON in {path}: {exc}") from exc


def _load_config(args: argparse.Namespace) -> RunConfig:
    doc = dict(DEFAULTS)
    if args.config:
        loaded = _read_json(args.config, "config")
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        doc.update(loaded)
    # Every flag shares its key's name; quality and L_scale have no flag.
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            doc[key] = val

    quality = doc["quality"]
    if isinstance(quality, str):
        quality = _read_json(quality, "quality spec")
    spec = QualitySpec.from_dict(quality)

    cfg = RunConfig(doc)
    cfg["quality"] = spec.to_dict()
    cfg["_spec"] = spec
    for key in ("B", "n", "L_points", "grid_size", "seed", "runs"):
        v = cfg[key]
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise ConfigError(f"{key} must be an integer, got {v!r}")
    if args.command == "analyze":
        # The report reads B alone (its down-cascade bound), never n.
        if not 1 <= cfg["B"] <= MAX_PLAYERS:
            raise ConfigError(f"need 1 <= B <= {MAX_PLAYERS}, got B={cfg['B']}")
    elif not 1 <= cfg["B"] <= cfg["n"]:
        raise ConfigError(f"need 1 <= B <= n, got B={cfg['B']}, n={cfg['n']}")
    elif cfg["n"] > MAX_PLAYERS:
        raise ConfigError(f"player counts above {MAX_PLAYERS} are not supported")
    for key in ("L0", "L_min", "L_max"):
        try:
            v = _number(cfg[key])
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from None
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
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a path prefix or null, got {cfg['out']!r}")
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
    policy = backward_induction(dist, cfg["B"], cfg["n"], grid_size=cfg["grid_size"])
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
    # Larger games walk the diagonal of an engine table at the run's grid.
    policy = backward_induction(dist, n, n, grid_size=cfg["grid_size"]) if n >= 3 else None
    sweep = sweep_profiles(dist, n, Ls, policy=policy)
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
    policy = backward_induction(dist, cfg["B"], cfg["n"], grid_size=cfg["grid_size"])
    state = GameState(cfg["L0"], cfg["B"], cfg["n"])
    batch = simulate_runs(policy, state, cfg["runs"], cfg["seed"])
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
        "estimate": completion_from_batch(batch),
        "grid_pi": {"pi0": p0_grid, "pi1": p1_grid},
        "completed_fraction": float(np.mean(batch.completed)),
        "end_stats": end_likelihood_stats(batch, dist, cfg["L0"]),
    }
    _dump_json(prefix + ".json", summary)
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    dist = TypeDistribution(cfg.spec)
    doc = {
        "command": "analyze",
        "config": _public_config(cfg),
        "version": __version__,
        "cascades": cascade_analyze(dist, cfg["B"]),
        "delegation": delegation_analysis(dist),
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
