"""Every name a cascadefund module exports in `__all__` exists and has a user."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import cascadefund

MODULES = ["cascadefund"] + sorted(
    f"cascadefund.{m.name}" for m in pkgutil.iter_modules(cascadefund.__path__)
)
ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Exported names that nothing outside the tests uses, and why each stays.
UNUSED_EXPORTS = {
    "asymmetric_profiles": "the exhaustive reference oracle the tests compare both solvers against",
    "social_insurance_check": "kept until the social-insurance check moves into the partial-requirement map",
}


def test_every_module_listed():
    assert len(MODULES) == 8


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_trace_target_is_a_library_attribute(monkeypatch):
    # A target the tracer wraps must be defined on its module or class
    # itself; a renamed one otherwise only shows as a failed traced run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = []
    for mod_name, cls_name, attr, *_ in tracing.TARGETS:
        owner = importlib.import_module(f"cascadefund.{mod_name}")
        if cls_name:
            owner = vars(owner).get(cls_name)
        if owner is None or attr not in vars(owner):
            missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
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


def test_benchmark_setup_call_resolves_every_workload(tmp_path, monkeypatch):
    # The benchmark child times its setup through this exact call on the
    # first op; a break there only shows as a failed benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    from cascadefund import cli

    for name in sorted(workloads.WHY):
        work = workloads.make(name, 1)
        workloads.write_files(work, str(tmp_path / name))
        monkeypatch.chdir(tmp_path / name)
        cli._load_config(cli.build_parser().parse_args(work.ops[0][1]))


def _references(path):
    """Identifiers a source file loads, imports or reads as an attribute.

    A reference inside a definition of the same name (recursion) does not
    count, nor do strings, docstrings or assignment targets, nor the import
    of a name the file lists in its own `__all__` (a re-export).
    """
    tree = ast.parse(path.read_text())
    reexported = set()
    for node in tree.body:
        if [getattr(t, "id", None) for t in getattr(node, "targets", ())] == ["__all__"]:
            reexported = set(ast.literal_eval(node.value))
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            name = node.attr
        elif isinstance(node, ast.alias) and (node.asname or node.name) not in reexported:
            name = node.name
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_user_outside_the_tests(monkeypatch):
    # A name is used when the library, a demo or the benchmark's tracer
    # refers to it, other than by re-exporting it; a name only the tests
    # call is surface to delete.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    used = {name for entry in tracing.TARGETS for name in entry[1:3] if name}
    for folder in (ROOT / "src" / "cascadefund", ROOT / "demos"):
        for path in sorted(folder.glob("*.py")):
            used |= _references(path)
    exported = {n for name in MODULES for n in getattr(importlib.import_module(name), "__all__", ())}
    unused = exported - used
    assert unused == set(UNUSED_EXPORTS)
