"""One workload run in a fresh interpreter; prints one JSON record.

Usage: python3 perfbench/child.py '<spec json>'

The parent starts this process in a directory that already holds the
workload's config files.  The spec holds ``mode`` ("setup" or "run"),
``ops`` (``[command, argv]`` per ``cli.main`` call), ``items``,
``requested_runs``, ``trace``, ``check`` and ``t0``, the
``time.monotonic()`` reading the parent took just before starting this
process.

``setup_s`` runs from ``t0`` until ``cascadefund.cli`` is imported and the
first op's config is resolved; nothing of the benchmark's own runs before
that.  ``wall_s`` runs from the first ``cli.main`` call to the last
return, so import time is excluded.  Output checks run only with
``check`` set; every run reports its output digests, so a run whose
outputs equal a checked run's passes or fails with it.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(spec: dict) -> dict:
    sys.path.insert(0, SRC)
    import cascadefund
    import cascadefund.cli as cli

    ops = spec["ops"]
    cli._load_config(cli.build_parser().parse_args(ops[0][1]))
    setup_s = time.monotonic() - spec["t0"]
    if not os.path.abspath(cascadefund.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"cascadefund imported from {cascadefund.__file__}, not {SRC}")
    if spec["mode"] == "setup":
        return {"setup_s": setup_s}

    # Modules the program does not need are imported late, so that they
    # count in neither setup_s nor, for untraced runs, peak_rss_mb.
    import contextlib
    import resource

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(cascadefund)
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        codes = [cli.main(argv) for _, argv in ops]
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import hashlib

    import workloads

    results, written = [], 0
    for (command, argv), code in zip(ops, codes):
        prefix = workloads.out_prefix(argv)
        op = {"command": command, "code": code, "digests": {}, "error": None}
        for path in workloads.outputs(prefix):
            with open(path, "rb") as fh:
                data = fh.read()
            op["digests"][path] = hashlib.sha256(data).hexdigest()
            written += len(data)
        if code != 0:
            op["error"] = f"{command}: exit code {code}"
        elif spec["check"]:
            try:
                workloads.check(command, prefix)
            except workloads.CheckFailure as exc:
                op["error"] = str(exc)
        results.append(op)

    items = spec["items"]
    if items is None:
        try:
            items = workloads.count_items(workloads.out_prefix(ops[0][1]))
        except OSError:
            items = 0
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items": items,
        "peak_rss_mb": peak_rss_mb,
        "ops": results,
        "env": _env(),
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer, wall_s, written, spec["requested_runs"])
    return record


def _env() -> dict:
    import platform

    import numpy

    from cascadefund import simulate

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    worker_count = getattr(simulate, "_worker_count", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "simulate_workers": worker_count() if worker_count else None,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
