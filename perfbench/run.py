"""CLI benchmark for cascadefund: end-to-end metrics, or per-layer with --trace 1.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--report FILE]

Each workload run happens in a fresh child interpreter (``child.py``), one
child at a time, so every run pays its own imports and reports its own
peak memory.  Runs repeat until ``--seconds`` is spent (at least one), and
the medians are reported.  With ``--trace 0`` the metrics are ``wall_s``,
``items_per_s``, ``setup_s`` and ``peak_rss_mb``; ``setup_s`` also takes
extra children that only set up.  With ``--trace 1`` untraced and traced
runs alternate, and the per-layer metrics come from the traced run with
the median wall time.  A trace target missing from the library fails the
benchmark (exit code 1, no result line).

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--report`` also writes the full record (every sample, output digests,
environment) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Children that only set up, per untraced run, on top of one per workload run.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 120


class ChildError(RuntimeError):
    pass


def run_child(spec: dict, workdir: str) -> dict:
    env = dict(os.environ)
    # The worker pool takes its default size, min(8, cpu_count).
    env.pop("CASCADEFUND_THREADS", None)
    spec = dict(spec, t0=time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    # A checkout that is not a repository must not report an enclosing one.
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(ROOT) else None


def measure(args, workdir: str) -> dict:
    """Run children for about ``args.seconds``; returns every sample."""
    work = workloads.make(args.workload, args.seed)
    workloads.write_files(work, workdir)
    base = {"ops": work.ops, "items": work.items, "requested_runs": work.requested_runs}

    def child(mode, trace=False, check=False):
        return run_child(dict(base, mode=mode, trace=trace, check=check), workdir)

    # Untimed warm-up: byte-compiles the sources and fills the file cache.
    child("setup")
    setups, runs, traced = [], [], []
    start = time.monotonic()
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(child("setup")["setup_s"])
    modes = (False, True) if args.trace else (False,)
    while True:
        t = time.monotonic()
        for mode in modes:
            rec = child("run", trace=mode, check=not runs)
            (traced if mode else runs).append(rec)
            if not mode:
                setups.append(rec["setup_s"])
        now = time.monotonic()
        # Stop when one more round would overrun the budget.
        if now - start + (now - t) > args.seconds:
            break
    return {"setups": setups, "runs": runs, "traced": traced}


def summarize(args, samples: dict) -> dict:
    runs, traced = samples["runs"], samples["traced"]
    everything = runs + traced
    # Only the first run is checked; any other run must write the same bytes.
    checked = runs[0]["ops"]
    failures = []
    for rec in everything:
        for op, ref in zip(rec["ops"], checked):
            if op["error"]:
                failures.append(op["error"])
            elif op["digests"] != ref["digests"]:
                failures.append(f"{op['command']}: outputs differ between runs of one seed")
            elif ref["error"]:
                failures.append(ref["error"])
    attempted = sum(len(rec["ops"]) for rec in everything)
    digests = {p: d for op in checked for p, d in op["digests"].items()}
    walls = [rec["wall_s"] for rec in runs]
    if traced:
        # Every per-layer metric comes from the one traced run with the median
        # wall, so its self times add up to its trace.wall_s.
        rep = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
        layers = dict(rep["layers"])
        layers["trace.overhead_s"] = rep["wall_s"] - statistics.median(walls)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        counts = {"traced_runs": len(traced), "wall_s": len(runs)}
    else:
        values = {
            "wall_s": walls,
            "items_per_s": [r["items"] / r["wall_s"] for r in runs],
            "setup_s": samples["setups"],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit in END_TO_END}
        counts = {name: len(v) for name, v in values.items()}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
        "samples": counts,
        "metrics": metrics,
        "env": dict(everything[0]["env"], git_commit=git_commit()),
        "raw": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="write the full record as JSON to this file")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "cascadefund")):
        print(f"no cascadefund sources under {ROOT}/src", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    try:
        samples = measure(args, workdir)
    except (ChildError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    report = summarize(args, samples)

    env = report["env"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"simulate_workers={env['simulate_workers']} cpu={env['cpu_model']!r} "
          f"commit={env['git_commit']}")
    samples_note = {name: f"median of n={n}" for name, n in report["samples"].items()}
    if args.trace:
        print(f"  per-layer metrics of the median-wall traced run of "
              f"{report['samples']['traced_runs']}; untraced runs n={report['samples']['wall_s']}")
    for name, m in report["metrics"].items():
        note = samples_note.get(name, "")
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    error_rate = report["failed"] / report["attempted"]
    print(f"  ops attempted={report['attempted']} failed={report['failed']} "
          f"error_rate={error_rate:.6g}")
    for f in report["failures"]:
        print(f"  FAILED: {f}")
    for path, digest in sorted(report["digests"].items()):
        print(f"  sha256 {path} {digest}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
