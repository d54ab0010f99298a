"""Command line front end: solve, sweep, simulate, analyze.

One parser serves every command: the command is a positional argument,
and one set of flags, the same for every command, may come before or
after it.  Each run reads an optional JSON config file plus those flag
overrides.  `main` resolves a run once: it checks the whole config (the
sweep's B = n rule with the rest) and hands the command that config, its
type distribution and its output prefix.  Outputs are deterministic (stable
key order, 9 significant digits, no timestamps) and embed the fully
resolved config and tool version in every file so a result can be
traced back to its inputs.  Reruns with the same config and seed are
byte-identical.

Exit codes: 0 success, 2 config error or unwritable output, 3 numeric
failure.

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
# simulate_runs is not called here; the perfbench tests check that their
# tracer wraps it in this module too.
from cascadefund.simulate import (  # noqa: F401
    BLOCK_RUNS,
    CHUNK_BLOCKS,
    completion_from_batch,
    end_likelihood_stats,
    simulate_chunks,
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


# 10**(12 - k) for k = e + 4 in [0, 12]: exact doubles (every 10**j with
# j <= 22 is), the scale that puts the 9 significant digits of a number
# with decimal exponent e before the point.
_SCALE = np.array([float(10 ** (12 - k)) for k in range(13)])


def _float_tables():
    """Byte tables of the float cell layout.

    A float cell is 16 bytes, read as two uint64 words: a sign byte and
    then the fixed-notation text, at most 14 characters ("0.000" and 9
    digits at e = -4).  Mantissa digit i sits at byte 1 + i, or 2 + i past
    the point when i > e >= 0; at e < 0 it sits at 2 - e + i, after "0."
    and -e - 1 zeros.  Returns:

    - the cell words of each (e, group, value) row, indexed 3000 (e + 4) +
      1000 group + value: the 3 digits of that 3-digit group of the
      mantissa, at their bytes for exponent e;
    - the key of each row: 9 (e + 4) plus the mantissa index of the
      group's last nonzero digit, or plus 0 for a zero group (no more than
      the leading group gives, and m = 0 prints its ones digit).  The max
      over a cell's three rows, plus 117 for a set sign bit, is the cell's
      (sign, e, last nonzero digit) mask key;
    - an AND and an OR mask per key: they clear the digits after the last
      nonzero one (keeping those up to the ones digit) and set the sign,
      the point and the leading "0." and zeros; the extra final row blanks
      a cell;
    - the end of each key's text: one past its last used byte.
    """
    e = np.arange(-4, 9)[:, None]
    i = np.arange(9)
    place = np.where(e >= 0, 1 + i + (i > e), 2 - e + i)  # (e + 4, i) -> byte
    v = np.arange(1000)
    digits = np.stack([v // 100, v // 10 % 10, v % 10], axis=1)
    cells = np.zeros((13, 3, 1000, 16), np.uint8)
    for j in range(9):
        cells[np.arange(13), j // 3, :, place[:, j]] = digits[:, j % 3] + 48
    last = np.where(digits[:, 2] != 0, 2, np.where(digits[:, 1] != 0, 1, 0))
    keyed = np.where(v != 0, last + 3 * np.arange(3)[:, None], 0).astype(np.uint8)
    keyed = keyed + (9 * np.arange(13, dtype=np.uint8))[:, None, None]

    sign, e, last = (k.ravel() for k in np.meshgrid([0, 1], e.ravel(), i, indexing="ij"))
    at = place[e + 4]
    keep = i <= np.maximum(last, e)[:, None]
    byte = np.arange(16)
    keys = np.arange(sign.size)
    and_mask, or_mask = np.zeros((2, sign.size + 1, 16), np.uint8)
    and_mask[keys[:, None], at] = 255 * keep
    # At e < 0 the text opens with "0." and -e - 1 zeros; byte 2 is the point.
    or_mask[:-1] = 48 * ((e < 0)[:, None] & (byte >= 1) & (byte <= 1 - e[:, None]))
    or_mask[keys, np.where(e >= 0, 2 + e, 2)] = 46 * (last > e)
    or_mask[:-1, 0] = 45 * sign
    end = np.zeros(sign.size + 1, np.intp)
    end[:-1] = np.max(at * keep, axis=1) + 1
    words = [t.reshape(-1, 16).view(np.uint64) for t in (cells, and_mask, or_mask)]
    return words[0], keyed.ravel(), words[1], words[2], end


_DIGITS, _DIGITS_KEY, _FLOAT_AND, _FLOAT_OR, _FLOAT_END = _float_tables()


def _int_cells(col: np.ndarray) -> np.ndarray:
    """The %d text of an integer or boolean column: one NUL-padded row per cell.

    The cells are as wide as the column's widest magnitude, with a sign
    byte only if the column holds a negative.  Digits come from
    q - 10 (q // 10): numpy divides by a constant far faster than it takes
    a remainder, and in uint32, used below 2**32, faster than in uint64.
    """
    if col.dtype.kind == "b":
        return (col.astype(np.uint8) + 48)[:, None]
    neg = col < 0
    sign = int(neg.any())
    mag = col.astype(np.uint64)
    if sign:
        # Negating in uint64 gives |v| exactly, even for the most negative int64.
        mag = np.where(neg, -mag, mag)
    top = int(mag.max(initial=0))
    if top < 2**32:
        mag = mag.astype(np.uint32)
    width = sign + len(str(top))
    cells = np.empty((col.size, width), np.uint8)
    if sign:
        cells[:, 0] = 45 * neg
    q = mag
    for j in range(width - 1, sign - 1, -1):
        r = q // 10
        digit = (q - 10 * r).astype(np.uint8) + 48
        cells[:, j] = digit if j == width - 1 else digit * (q != 0)
        q = r
    return cells


def _float_cells(col: np.ndarray) -> tuple[np.ndarray, int]:
    """The %.9g text of a float column: one NUL-padded row per cell.

    Returns the cells and how many of them were formatted by Python's `%`.
    The cells are cut to the widest text of the column, and lose the sign
    byte if no cell has its sign bit set.

    A finite nonzero x with e = floor(log10|x|) in [-4, 8] prints in fixed
    notation as the 9-digit mantissa m = round(S), S = |x|·10^(8-e), with
    8-e fraction digits, trailing zeros and a bare point stripped.  The
    vector path computes s = |x|·10^(8-e) in doubles: 10^k is exact for
    k <= 12, so s is S correctly rounded and |s - S| <= ulp(s)/2 < 1.2e-7
    for s < 1e9.  A cell keeps the vector path only when s lies in
    [1e8, 1e9), m = rint(s) < 1e9 and |s - m| < 1/2 - 1e-6.  The
    difference s - m is exact (Sterbenz: m is within 1 of s >= 1e8), so
    this is the test |frac(s) - 1/2| > 1e-6.  Then:

    - m is the correctly rounded mantissa: |S - m| < 1/2, so m is the
      unique integer nearest S (no tie, so the half-even rule never
      decides);
    - e is the exponent %.9g uses.  If log10 misjudged e, S is outside
      [1e8, 1e9) while s is inside, so S is within 1.2e-7 of an end.  At
      the top end rint(s) = 1e9 and the cell falls back.  At the bottom
      end S·10 rounds up to 1e9, which %.9g prints as m = 1e8 at exponent
      e, the vector path's text.

    Each cell is the OR of the `_float_tables` words of m's three 3-digit
    groups at exponent e, then one AND and one OR mask picked by (sign, e,
    last nonzero digit).  Every other cell (NaN, inf, a value needing
    scientific notation, a near tie, a carry, or a misjudged e) is
    formatted by `'%.9g' % |v|` into the same 16 bytes: the text of |v|,
    at most 15 bytes ("1.23456789e+308"), from byte 1, and a '-' at byte 0
    if v < 0.  Exact zeros stay on the vector path as "0" and "-0".
    """
    x = col.astype(np.float64)
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(a))
        fixed = (e >= -4) & (e <= 8)  # False for 0, NaN and inf
        k = np.where(fixed, e, 0.0).astype(np.intp) + 4
        s = a * _SCALE.take(k)
        m = np.rint(s)
        fixed &= (s >= 1e8) & (m < 1e9) & (np.abs(s - m) < 0.5 - 1e-6)
    ok = fixed | (a == 0.0)
    # The three 3-digit groups of m < 1e9 < 2**31, as digit table rows.
    m = np.where(fixed, m, 0.0).astype(np.int32)
    hi, top = m // 1000, m // 1000000
    k *= 3000
    rows = [top + k, hi - 1000 * top + (k + 1000), m - 1000 * hi + (k + 2000)]
    key = np.maximum(np.maximum(_DIGITS_KEY.take(rows[0]), _DIGITS_KEY.take(rows[1])),
                     _DIGITS_KEY.take(rows[2]))
    neg = np.signbit(x)
    key += neg * np.uint8(117)
    key[~ok] = len(_FLOAT_END) - 1
    words = _DIGITS.take(rows[0], axis=0)
    words |= _DIGITS.take(rows[1], axis=0)
    words |= _DIGITS.take(rows[2], axis=0)
    words &= _FLOAT_AND.take(key, axis=0)
    words |= _FLOAT_OR.take(key, axis=0)
    cells = words.view(np.uint8)
    end = _FLOAT_END.take(key).max(initial=0)
    slow = np.flatnonzero(~ok)
    if slow.size:
        strs = np.array(["%.9g" % v for v in a[slow].tolist()], dtype="S")
        cells[slow, 1 : 1 + strs.itemsize] = strs.view(np.uint8).reshape(slow.size, -1)
        cells[slow, 0] = 45 * (x[slow] < 0)
        end = max(end, 1 + strs.itemsize)
    return cells[:, 0 if neg.any() else 1 : end], slow.size


def _block_text(cols: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """One block's rows as a NUL-padded byte matrix, and its count of cells
    formatted by `%`.  A 2-D uint8 column holds cells formatted already."""
    cells, slow = [], 0
    for c in cols:
        if c.ndim == 2:
            text = c
        elif c.dtype.kind == "f":
            text, k = _float_cells(c)
            slow += k
        else:
            text = _int_cells(c)
        cells.append(text)
    ends = np.cumsum([t.shape[1] + 1 for t in cells])
    mat = np.full((len(cols[0]), ends[-1]), 44, np.uint8)
    for text, end in zip(cells, ends):
        # One void item per cell: a row-by-row uint8 copy costs twice as much.
        item = f"V{text.shape[1]}"
        mat[:, end - 1 - text.shape[1] : end - 1].view(item)[...] = text.view(item)
    mat[:, -1] = 10
    return mat, slow


def _write_csv(path: str, config: dict, names: list[str], blocks) -> None:
    """Write the comment header, the column names, then each row block's rows.

    A row block is a list of parts, each an array (a 2-D one gives a
    column per column), or a pair (table, index): a list of such arrays,
    and per CSV row the table row holding its cells.  A table is formatted
    once per row block, and its rows are gathered by index.  Integer and
    boolean columns print as %d would, float columns as %.9g would, byte
    for byte.  Each piece of at most BLOCK_RUNS rows of a row block
    becomes one uint8 matrix: each column a field as wide as that piece's
    widest cell in it, padded with NUL bytes, with a sign byte only if the
    piece has a negative there, then a ',' or '\\n' column; dropping the
    NULs gives the piece's text.  Integers are exact in uint64 (uint32
    below 2**32), their digits taken by division by 10.  Floats take the
    vector path of `_float_cells`: 16-byte cells from digit-table words
    and masks, kept only where the near-tie test |s - m| < 1/2 - 1e-6 and
    the exponent checks of its docstring prove them exact, with a fall
    back to `%` cell by cell elsewhere.  Only one piece's text is alive at
    a time, and row blocks may be yielded one by one as they are made, so
    memory stays flat however many rows there are.  One DEBUG record on
    the "cascadefund" logger gives the rows, the cells (rows times
    columns) and the cells formatted by `%`; a table's cell counts once
    per row block.
    """
    rows = slow = 0
    _ensure_dir(path)
    with open(path, "wb") as fh:
        fh.write(_csv_header(config, names).encode())
        for parts in blocks:
            cols, tables = [], {}
            for part in parts:
                if isinstance(part, tuple):
                    text, k = _block_text(_columns(part[0]))
                    # Gathered as one cell: each table row less its '\n'.
                    tables[len(cols)], part, slow = text[:, :-1], part[1], slow + k
                cols.extend(_columns([part]))
            for start in range(0, len(cols[0]), BLOCK_RUNS):
                piece = [c[start : start + BLOCK_RUNS] for c in cols]
                for i, text in tables.items():
                    piece[i] = text.take(piece[i], axis=0)
                mat, k = _block_text(piece)
                flat = mat.ravel()
                fh.write(flat[flat != 0])
                slow += k
            rows += len(cols[0])
    _debug("csv %s: %d rows, %d cells, %d formatted by %%", path, rows, rows * len(names), slow)


def _read_json(path: str, what: str):
    """Parse the JSON file at `path`; errors name `what` and the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad {what} JSON in {path}: {exc}") from exc


def _load_config(args: argparse.Namespace) -> tuple[dict, QualitySpec]:
    """Resolve and check a run's settings before any command starts.

    Returns the config, the plain dict every output embeds, and its quality
    spec.  The sweep's B = n rule is checked last, after all the others.
    """
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

    cfg = dict(doc, quality=spec.to_dict())
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
    if args.command == "sweep" and cfg["B"] != cfg["n"]:
        raise ConfigError(
            "sweep emits per-player threshold profiles, which only exist "
            "for must-fill games; set B = n"
        )
    return cfg, spec


def _L_grid(cfg: dict) -> np.ndarray:
    if cfg["L_scale"] == "log":
        return np.geomspace(cfg["L_min"], cfg["L_max"], cfg["L_points"])
    return np.linspace(cfg["L_min"], cfg["L_max"], cfg["L_points"])


def _head(command: str, cfg: dict) -> dict:
    """The keys every JSON output opens with."""
    return {"command": command, "config": cfg, "version": __version__}


# -- commands ------------------------------------------------------------------


def cmd_solve(cfg: dict, dist: TypeDistribution, prefix: str) -> int:
    policy = backward_induction(dist, cfg["B"], cfg["n"], grid_size=cfg["grid_size"])
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
        _write_csv(prefix + ".csv", cfg, names, [cols])

    x0 = policy.sigma(cfg["L0"], cfg["B"], cfg["n"])
    p0, p1 = policy.pi(cfg["L0"], cfg["B"], cfg["n"])
    summary = {
        **_head("solve", cfg),
        "rows": rows_meta,
        "at_L0": {"L": cfg["L0"], "sigma": x0, "pi0": p0, "pi1": p1},
        "ordering_scan": pi_ordering_scan(policy),
    }
    if cfg["format"] == "json":
        summary["table"] = [dict(zip(names, rec)) for rec in _records(cols)]
    _dump_json(prefix + ".json", summary)
    return 0


def cmd_sweep(cfg: dict, dist: TypeDistribution, prefix: str) -> int:
    n = cfg["n"]
    Ls = _L_grid(cfg)
    # Larger games walk the diagonal of an engine table at the run's grid.
    policy = backward_induction(dist, n, n, grid_size=cfg["grid_size"]) if n >= 3 else None
    sweep = sweep_profiles(dist, n, Ls, policy=policy)

    cols = (
        ["L"]
        + [f"x_{i}" for i in range(1, n + 1)]
        + ["pi0", "pi1", "utility"]
        + [f"delegate_{i}" for i in range(1, n + 1)]
        + ["irregular"]
    )
    parts = [sweep[k] for k in ("L", "x", "pi0", "pi1", "utility", "delegate", "irregular")]

    if cfg["format"] == "csv":
        _write_csv(prefix + ".csv", cfg, cols, [parts])
    else:
        rows = [list(rec) for rec in _records(_columns(parts))]
        _dump_json(prefix + ".json", {**_head("sweep", cfg), "columns": cols, "rows": rows})
    return 0


def cmd_simulate(cfg: dict, dist: TypeDistribution, prefix: str) -> int:
    policy = backward_induction(dist, cfg["B"], cfg["n"], grid_size=cfg["grid_size"])
    state = GameState(cfg["L0"], cfg["B"], cfg["n"])
    runs, n = cfg["runs"], cfg["n"]
    hist = None

    def blocks():
        """Each chunk's CSV rows, made once the previous chunk's are written;
        only its per-history summary outlives it, merged into `hist`."""
        nonlocal hist
        start = 0
        for chunk in simulate_chunks(policy, state, runs, cfg["seed"]):
            part = chunk.histories
            # Row chunk.cell = 2h + w holds what history h fixes, in world w.
            table = [np.tile(np.arange(2, dtype=np.int8), len(part.code)),
                     *(np.repeat(c, 2, axis=0) for c in (part.filled, part.odds, chunk.paths))]
            hist = part if hist is None else hist.merge(part)
            yield [np.arange(start, start + len(chunk)), (table, chunk.cell), chunk.types]
            start += len(chunk)

    if cfg["format"] == "csv":
        cols = (
            ["run", "world", "completed", "L_end"]
            + [f"a_{i}" for i in range(1, n + 1)]
            + [f"t_{i}" for i in range(1, n + 1)]
        )
        _write_csv(prefix + ".csv", cfg, cols, blocks())
    else:
        for _ in blocks():  # the summary alone
            pass
    chunk_runs = CHUNK_BLOCKS * BLOCK_RUNS
    _debug("simulate: %d runs, %d chunks of up to %d runs, %d histories",
           runs, -(-runs // chunk_runs), chunk_runs, len(hist.code))

    p0_grid, p1_grid = policy.pi(cfg["L0"], cfg["B"], cfg["n"])
    summary = {
        **_head("simulate", cfg),
        "estimate": completion_from_batch(hist),
        "grid_pi": {"pi0": p0_grid, "pi1": p1_grid},
        "completed_fraction": int(hist.counts[hist.filled].sum()) / runs,
        "end_stats": end_likelihood_stats(hist, dist, cfg["L0"]),
    }
    _dump_json(prefix + ".json", summary)
    return 0


def cmd_analyze(cfg: dict, dist: TypeDistribution, prefix: str) -> int:
    doc = {
        **_head("analyze", cfg),
        "cascades": cascade_analyze(dist, cfg["B"]),
        "delegation": delegation_analysis(dist),
        "min_R_for_cascades": min_R_for_cascades(dist.Q),
    }
    _dump_json(prefix + ".json", doc)
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
        epilog="commands:\n"
        "  solve     solve a policy table and write it out\n"
        "  sweep     threshold profiles across a range of odds (B = n)\n"
        "  simulate  Monte Carlo runs under the solved policy\n"
        "  analyze   cascade bounds and delegation report",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, help="what to run, one of the commands below")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--B", type=int, help="investments needed")
    parser.add_argument("--n", type=int, help="number of players")
    parser.add_argument("--L0", type=float, help="starting public odds")
    parser.add_argument("--grid-size", dest="grid_size", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--runs", type=int)
    parser.add_argument("--L-min", dest="L_min", type=float)
    parser.add_argument("--L-max", dest="L_max", type=float)
    parser.add_argument("--L-points", dest="L_points", type=int)
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--out", help="output path prefix")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        cfg, spec = _load_config(args)
        prefix = cfg["out"] or f"cascadefund_{args.command}"
        return COMMANDS[args.command](cfg, TypeDistribution(spec), prefix)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be written
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric or model failure
        kind = type(exc).__name__
        print(f"numeric failure ({kind}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
