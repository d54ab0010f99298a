"""Run the benchmark over seeds and workloads and write ``BENCH_<tag>.json``.

Usage:
    python3 perfbench/suite.py --tag TAG

Each run is ``perfbench/run.py`` in its own process, exactly as a single
benchmark call, for ``run_seconds`` from ``BENCHMARK.json``.  Seeds 1-10
run in turn, and for each seed every workload of ``BENCHMARK.json`` runs
once, so a slow stretch on the host hits all workloads alike.  Then each
workload has one traced run, on the first seed.  For every
workload and end-to-end metric the suite prints the median over seeds and
the quartile spread ``(q3 - q1) / median`` next to the metric's bound.
Output digests are compared with those of the same seed in
``results/BENCH_seed.json``; a changed digest is reported, not counted as
a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
BASELINE = os.path.join(RESULTS, "BENCH_seed.json")
SEEDS = list(range(1, 11))


def bench_once(workload: str, seed: int, seconds: int, trace: int, report: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--report", report]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    with open(report) as fh:
        rec = json.load(fh)
    os.remove(report)
    return {
        "seed": seed,
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "failures": rec["failures"],
        "samples": rec["samples"],
        "metrics": {k: v["value"] for k, v in rec["metrics"].items()},
        "wall_samples": [r["wall_s"] for r in rec["raw"]["runs"]],
        "digests": rec["digests"],
        "env": rec["env"],
    }


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    baseline = {}
    if os.path.exists(BASELINE):
        with open(BASELINE) as fh:
            baseline = json.load(fh)["workloads"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    os.makedirs(RESULTS, exist_ok=True)
    scratch_dir = os.path.join(ROOT, ".perfbench_work", f"suite-{os.getpid()}")
    os.makedirs(scratch_dir, exist_ok=True)
    scratch = os.path.join(scratch_dir, "report.json")

    seconds = bench["run_seconds"]
    out = {"tag": args.tag, "seconds": seconds, "seeds": SEEDS, "workloads": {}}
    names = [w["name"] for w in bench["workloads"]]
    all_runs = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            all_runs[name].append(bench_once(name, seed, seconds, 0, scratch))
    lines = []
    for name in names:
        runs = all_runs[name]
        traced = [bench_once(name, SEEDS[0], seconds, 1, scratch)]
        summary = {m: spread([r["metrics"][m] for r in runs]) for m in bounds}
        layers = traced[0]["metrics"]
        out["env"] = runs[0]["env"]
        for r in runs + traced:
            del r["env"]
        out["workloads"][name] = {"why": why[name], "summary": summary, "layers": layers,
                                  "runs": runs, "traced": traced}
        for m, s in summary.items():
            lines.append(f"{name:14s} {m:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                         f"  bound {bounds[m]}  {'ok' if s['spread'] < bounds[m] / 3 else 'WIDE'}")
        failed = sum(r["failed"] for r in runs + traced)
        attempted = sum(r["attempted"] for r in runs + traced)
        lines.append(f"{name:14s} error_rate {failed / attempted:.6g} ({failed}/{attempted})")
        base_runs = {r["seed"]: r["digests"] for r in baseline.get(name, {}).get("runs", [])}
        for r in runs:
            if r["seed"] in base_runs and base_runs[r["seed"]] != r["digests"]:
                lines.append(f"{name:14s} seed {r['seed']}: output digests differ from baseline")

    os.rmdir(scratch_dir)
    try:
        os.rmdir(os.path.dirname(scratch_dir))
    except OSError:
        pass
    path = os.path.join(RESULTS, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("\n".join(lines))
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
