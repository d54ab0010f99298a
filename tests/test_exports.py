"""Every name a cascadefund module exports in `__all__` exists."""

import importlib
import pathlib
import pkgutil

import pytest

import cascadefund

MODULES = ["cascadefund"] + sorted(
    f"cascadefund.{m.name}" for m in pkgutil.iter_modules(cascadefund.__path__)
)
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_module_listed():
    assert len(MODULES) == 8


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_benchmark_trace_targets_resolve(monkeypatch):
    # The benchmark's tracer refuses to start when a function it wraps is
    # gone from the library, and puts every function back on exit.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    from cascadefund import cli, engine

    solve = engine.backward_induction
    with tracing.Tracer(cascadefund):
        assert cli.backward_induction is not solve
    assert cli.backward_induction is engine.backward_induction is solve
