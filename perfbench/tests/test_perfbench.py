"""Tests of the benchmark's own machinery.

Run with: python3 -m pytest perfbench/tests
"""

import json
import os
import re
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cascadefund  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cascadefund import cascades, cli, engine, simulate  # noqa: E402
from cascadefund.beliefs import TypeDistribution  # noqa: E402
from tracing import Span, self_times  # noqa: E402

S = 10**9  # nanoseconds per second


def test_self_times_nested_tree():
    spans = [
        Span("cli.main", "cli", 0, 100 * S, None, 0),
        Span("engine.backward_induction", "engine", 10 * S, 40 * S, 0, 1),
        Span("beliefs.TypeDistribution.sf", "beliefs.tail", 20 * S, 30 * S, 1, 2),
        Span("engine.PolicyTable.sigma", "engine.query", 50 * S, 90 * S, 0, 1),
        Span("engine.PolicyRow.sigma_at", "engine.interp", 60 * S, 65 * S, 3, 2),
        Span("engine.PolicyRow.sigma_at", "engine.interp", 70 * S, 75 * S, 3, 2),
    ]
    got = self_times(spans)
    assert got == pytest.approx(
        {"cli": 30, "engine": 20, "beliefs.tail": 10, "engine.query": 30, "engine.interp": 10}
    )
    assert sum(got.values()) == pytest.approx(100)


def test_self_times_split_concurrent_children():
    # Two pool workers under one simulate span: overlapping time is shared.
    spans = [
        Span("simulate.simulate_runs", "simulate", 0, 100 * S, None, 0),
        Span("beliefs.TypeDistribution.lr_upper_tail", "beliefs.tail", 10 * S, 60 * S, 0, 1),
        Span("engine.PolicyTable.sigma", "engine.query", 30 * S, 80 * S, 0, 1),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"simulate": 30, "beliefs.tail": 35, "engine.query": 35})


def test_metric_names_and_benchmark_file_agree():
    names = [n for n, _ in run.END_TO_END] + [n for n, _, _ in tracing.PER_LAYER]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(set(names)) == len(names)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        tracing.PER_LAYER
    )
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY


def _small_ops():
    quality = workloads._tabulated_quality(7)
    docs = {
        "solve.json": {"B": 2, "n": 3, "grid_size": 129},
        "sweep.json": {"quality": quality, "B": 2, "n": 2, "L_points": 5},
        "simulate.json": {"B": 2, "n": 3, "grid_size": 129, "runs": 5000, "seed": 3},
    }
    ops = [
        ["solve", "--config", "solve.json", "--out", "solve"],
        ["sweep", "--config", "sweep.json", "--out", "sweep"],
        ["analyze", "--config", "sweep.json", "--out", "analyze"],
        ["simulate", "--config", "simulate.json", "--out", "simulate"],
    ]
    return docs, ops


def _run_ops(directory, monkeypatch, tracer=None):
    docs, ops = _small_ops()
    directory.mkdir()
    monkeypatch.chdir(directory)
    for name, doc in docs.items():
        (directory / name).write_text(json.dumps(doc))
    if tracer is not None:
        with tracer:
            codes = [cli.main(argv) for argv in ops]
    else:
        codes = [cli.main(argv) for argv in ops]
    assert codes == [0] * len(ops)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path, monkeypatch):
    plain = _run_ops(tmp_path / "plain", monkeypatch)
    tracer = tracing.Tracer(cascadefund)
    traced = _run_ops(tmp_path / "traced", monkeypatch, tracer)
    assert traced == plain

    groups = {s.group for s in tracer.spans}
    assert groups >= {"cli", "engine", "engine.interp", "engine.query", "beliefs.tail",
                      "beliefs.quantile", "unanimity", "cascades", "simulate"}
    mains = [s for s in tracer.spans if s.label == "cli.main"]
    assert len(mains) == 4
    assert sum(self_times(tracer.spans).values()) == pytest.approx(
        sum(s.end - s.start for s in mains) / 1e9, rel=1e-9
    )
    assert tracer.facts["simulate.runs_simulated"] == [5000, 5000]


def test_tracer_wraps_lookup_sites_and_restores_them():
    originals = (cli.backward_induction, cli.cascade_analyze, simulate.simulate_runs,
                 TypeDistribution.__dict__["sf"])
    with tracing.Tracer(cascadefund):
        assert cli.backward_induction is engine.backward_induction
        assert cli.backward_induction.__wrapped__ is originals[0]
        assert cli.cascade_analyze is cascades.analyze
        assert cli.cascade_analyze.__wrapped__ is originals[1]
        assert simulate.simulate_runs.__wrapped__ is originals[2]
        assert cli.simulate_runs is simulate.simulate_runs
        assert TypeDistribution.__dict__["sf"].__wrapped__ is originals[3]
    assert (cli.backward_induction, cli.cascade_analyze, simulate.simulate_runs,
            TypeDistribution.__dict__["sf"]) == originals
    assert engine.backward_induction is originals[0]
    assert cascades.analyze is originals[1]


def test_tracer_fails_on_a_missing_target_and_restores(monkeypatch):
    originals = (cli.backward_induction, TypeDistribution.__dict__["sf"])
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + (("engine", None, "no_such_kernel", "engine", None),))
    with pytest.raises(LookupError, match="engine.no_such_kernel"):
        with tracing.Tracer(cascadefund):
            pass
    assert (cli.backward_induction, TypeDistribution.__dict__["sf"]) == originals


def test_per_layer_metrics_come_from_the_median_traced_run():
    def rec(wall, marker):
        layers = {name: marker for name, _, _ in tracing.PER_LAYER}
        layers["trace.wall_s"] = wall
        return {"wall_s": wall, "ops": [], "layers": layers, "env": {}}

    samples = {"setups": [], "runs": [rec(1.0, 0), rec(3.0, 0), rec(2.0, 0)],
               "traced": [rec(5.0, 1), rec(4.0, 2), rec(6.0, 3)]}
    args = run.argparse.Namespace(workload="w", seed=1, trace=1)
    metrics = run.summarize(args, samples)["metrics"]
    assert metrics["trace.wall_s"]["value"] == 5.0
    assert metrics["cli.self_s"]["value"] == 1
    assert metrics["trace.overhead_s"]["value"] == 3.0


def test_solve_check_rejects_a_broken_plateau(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["solve", "--B", "2", "--n", "3", "--grid-size", "129", "--out", "s"]) == 0
    workloads.check("solve", "s")
    lines = (tmp_path / "s.csv").read_text().splitlines()
    up = 0.8 / 0.2
    for i, line in enumerate(lines[3:], start=3):
        fields = line.split(",")
        if float(fields[2]) > up:
            fields[3] = "0.25"
            lines[i] = ",".join(fields)
            break
    (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailure, match="1-Q above up bound"):
        workloads.check("solve", "s")
