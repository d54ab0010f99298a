"""Seeded CLI workloads and the output checks that define a failed op.

A workload is a list of ops; an op is one ``cascadefund.cli.main`` call.
Inputs come only from the workload seed: the benchmark writes the
generated config files (``write_files``), and the program sees nothing
else.  An op fails on a non-zero exit code, output that does not parse,
or output that breaks a law of the model (see ``check``).
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass, field

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "solve-partial": "Engine write path: solve B=3 n=8 on a 513-point grid builds 18 rows and "
    "9,552 states, with the tail kernel on large arrays of a one-segment density.",
    "sweep-exact": "Exact must-fill ladder in unanimity plus cascades, bypassing the engine: "
    "many small tail-kernel calls on a seeded multi-segment density.",
    "simulate-bulk": "Read path of the policy table: 200,000 replayed drives, one sigma lookup "
    "per mover per block, and per-cell CSV formatting.",
}

SOLVE_GRID = 513
SWEEP_POINTS = 321
SIM_RUNS = 200_000


@dataclass
class Workload:
    # (command, argv) per op; argv is what ``cli.main`` receives.
    ops: list[tuple[str, list[str]]]
    # Config files to write into the working directory before the ops.
    files: dict[str, dict] = field(default_factory=dict)
    # Work items one run completes; None means the rows of the first op's CSV.
    items: int | None = None
    # Simulated drives the user asked for.
    requested_runs: int = 0


def _tabulated_quality(seed: int, R: float = 0.6, Q: float = 0.85, knots: int = 9) -> dict:
    """Piecewise-linear density with seeded knot heights, normalised to unit mass."""
    rng = random.Random(seed)
    qs = [R + (Q - R) * i / (knots - 1) for i in range(knots)]
    qs[-1] = Q
    ds = [rng.uniform(0.6, 1.4) for _ in qs]
    mass = sum((qs[i + 1] - qs[i]) * (ds[i] + ds[i + 1]) / 2.0 for i in range(knots - 1))
    return {"kind": "tabulated", "R": R, "Q": Q, "knots": [[q, d / mass] for q, d in zip(qs, ds)]}


def make(name: str, seed: int) -> Workload:
    """The ops and input files of workload ``name`` for ``seed``."""
    if name == "solve-partial":
        cfg = {"quality": {"kind": "uniform", "R": 0.5, "Q": 0.8},
               "B": 3, "n": 8, "grid_size": SOLVE_GRID, "format": "csv"}
        return Workload([("solve", ["solve", "--config", "solve.config.json", "--out", "solve"])],
                        {"solve.config.json": cfg})
    if name == "sweep-exact":
        cfg = {"quality": _tabulated_quality(seed), "B": 2, "n": 2,
               "L_min": 0.05, "L_max": 5.0, "L_points": SWEEP_POINTS, "L_scale": "log",
               "format": "csv"}
        return Workload(
            [("sweep", ["sweep", "--config", "sweep.config.json", "--out", "sweep"]),
             ("analyze", ["analyze", "--config", "sweep.config.json", "--out", "analyze"])],
            {"sweep.config.json": cfg},
            items=SWEEP_POINTS,
        )
    if name == "simulate-bulk":
        cfg = {"quality": {"kind": "uniform", "R": 0.5, "Q": 0.8},
               "B": 2, "n": 3, "runs": SIM_RUNS, "grid_size": 257,
               "seed": random.Random(seed).randrange(2**31), "format": "csv"}
        return Workload([("simulate", ["simulate", "--config", "simulate.config.json",
                                       "--out", "simulate"])],
                        {"simulate.config.json": cfg}, items=SIM_RUNS, requested_runs=SIM_RUNS)
    raise ValueError(f"unknown workload {name!r}")


def write_files(work: Workload, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, doc in work.files.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(doc, fh)


# -- output checks -------------------------------------------------------------


class CheckFailure(Exception):
    pass


def _nine(x: float) -> float:
    return float(f"{x:.9g}")


def _read_csv(path: str, header_prefix: list[str]) -> tuple[dict, list[list[float]]]:
    """Config from the comment header and the numeric rows of a CLI CSV."""
    with open(path, newline="") as fh:
        first = fh.readline()
        second = fh.readline()
        if not first.startswith("# config: ") or not second.startswith("# version: "):
            raise CheckFailure(f"{path}: missing config/version header")
        config = json.loads(first[len("# config: "):])
        reader = csv.reader(fh)
        cols = next(reader)
        if cols[: len(header_prefix)] != header_prefix:
            raise CheckFailure(f"{path}: unexpected columns {cols}")
        rows = []
        for rec in reader:
            if len(rec) != len(cols):
                raise CheckFailure(f"{path}: row {len(rows)} has {len(rec)} fields")
            rows.append([float(v) for v in rec])
    return config, rows


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _check_range(values, Q: float, what: str) -> None:
    lo, hi = _nine(1.0 - Q), _nine(Q)
    bad = [v for v in values if not lo <= v <= hi]
    if bad:
        raise CheckFailure(f"{what}: {len(bad)} values outside [1-Q, Q], e.g. {bad[0]}")


def check_solve(out: str) -> None:
    """Plateau law and threshold range of a solve table."""
    _load_json(out + ".json")
    config, rows = _read_csv(out + ".csv", ["B", "n", "L", "sigma", "pi0", "pi1", "irregular"])
    Q = config["quality"]["Q"]
    up = _nine(Q / (1.0 - Q))
    _check_range([r[3] for r in rows], Q, "solve sigma")
    for B, n, L, sigma, *_ in rows:
        if L >= up and sigma != _nine(1.0 - Q):
            raise CheckFailure(f"solve ({B:g},{n:g}) L={L}: sigma {sigma} != 1-Q above up bound")
        if L <= _nine(((1.0 - Q) / Q) ** B) and sigma != _nine(Q):
            raise CheckFailure(f"solve ({B:g},{n:g}) L={L}: sigma {sigma} != Q below down bound")


def check_sweep(out: str) -> None:
    config, rows = _read_csv(out + ".csv", ["L", "x_1"])
    if len(rows) != config["L_points"]:
        raise CheckFailure(f"sweep has {len(rows)} rows, expected {config['L_points']}")
    n = config["n"]
    _check_range([x for r in rows for x in r[1: 1 + n]], config["quality"]["Q"], "sweep threshold")


def check_analyze(out: str) -> None:
    doc = _load_json(out + ".json")
    Q = doc["config"]["quality"]["Q"]
    if doc["cascades"]["up_bound"] != _nine(Q / (1.0 - Q)):
        raise CheckFailure(f"analyze up_bound {doc['cascades']['up_bound']} != Q/(1-Q)")


def check_simulate(out: str) -> None:
    config, rows = _read_csv(out + ".csv", ["run", "world", "completed", "L_end"])
    if len(rows) != config["runs"]:
        raise CheckFailure(f"simulate wrote {len(rows)} runs, expected {config['runs']}")
    doc = _load_json(out + ".json")
    est, grid = doc["estimate"], doc["grid_pi"]
    for w in (0, 1):
        gap = abs(est[f"pi{w}_hat"] - grid[f"pi{w}"])
        if gap > 5.0 * est[f"se{w}"]:
            raise CheckFailure(f"simulate world {w}: |pi_hat - grid_pi| = {gap} > 5 se")
    if doc["end_stats"].get("within_bound") is not True:
        raise CheckFailure("simulate end_stats.within_bound is not true")


CHECKS = {"solve": check_solve, "sweep": check_sweep, "analyze": check_analyze,
          "simulate": check_simulate}


def check(command: str, out: str) -> None:
    """Check one op's outputs at prefix ``out``; raises CheckFailure."""
    try:
        CHECKS[command](out)
    except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        raise CheckFailure(f"{command}: output does not parse: {exc!r}") from exc


def count_items(prefix: str) -> int:
    """Data rows of the CSV at ``prefix``: two comment lines and a header precede them."""
    with open(prefix + ".csv", "rb") as fh:
        return fh.read().count(b"\n") - 3


def out_prefix(argv: list[str]) -> str:
    return argv[argv.index("--out") + 1]


def outputs(prefix: str) -> list[str]:
    """Files an op with output prefix ``prefix`` wrote, in a fixed order."""
    return [prefix + ext for ext in (".csv", ".json") if os.path.exists(prefix + ext)]
