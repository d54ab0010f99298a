"""Outside-in tracer for the cascadefund layers.

The tracer wraps public entry points of the six library modules from the
benchmark's side; the library itself is not edited.  Each wrapped call
records a span (label, group, start, end, parent, element count).  A name
imported by value (``from cascadefund.engine import backward_induction``
in ``cli``) is wrapped wherever a loaded ``cascadefund`` module holds it,
so callers see the wrapper at their own lookup site.  Everything is put
back when the ``Tracer`` context exits.  Entering fails with
``LookupError`` if the library no longer has a target, so a change that
renames or replaces a wrapped function must update ``TARGETS`` too.

Self time is attributed on one timeline: in every interval, the spans that
are open and have no open child share that interval equally.  With one
thread this is a span's duration minus its children's; with the simulate
worker pool, the time of two concurrent blocks is split between them, so
the self times of all groups add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# Group of each wrapped callable.  A group is the unit of self time; the
# first dotted part of a group name is its layer.
TAIL = "beliefs.tail"
QUANTILE = "beliefs.quantile"
ENGINE = "engine"
INTERP = "engine.interp"
QUERY = "engine.query"
UNANIMITY = "unanimity"
CASCADES = "cascades"
SIMULATE = "simulate"
CLI = "cli"

# (module, class or None, attribute, group, index of the argument whose
# size counts as the call's elements, or None).  Method indices count self.
TARGETS = (
    ("beliefs", "TypeDistribution", "sf", TAIL, 2),
    ("beliefs", "TypeDistribution", "cdf", TAIL, 2),
    ("beliefs", "TypeDistribution", "lr_upper_tail", TAIL, 1),
    ("beliefs", "TypeDistribution", "lr_lower_tail", TAIL, 1),
    ("beliefs", "TypeDistribution", "quality_quantile", QUANTILE, 1),
    ("engine", None, "backward_induction", ENGINE, None),
    ("engine", None, "pi_ordering_scan", ENGINE, None),
    ("engine", "PolicyRow", "sigma_at", INTERP, 1),
    ("engine", "PolicyRow", "pi_at", INTERP, 1),
    ("engine", "PolicyRow", "ratio_at", INTERP, 1),
    ("engine", "PolicyTable", "sigma", QUERY, 1),
    ("engine", "PolicyTable", "pi", QUERY, 1),
    ("engine", "PolicyTable", "ratio", QUERY, 1),
    ("unanimity", None, "sweep_profiles", UNANIMITY, None),
    ("unanimity", None, "delegation_analysis", UNANIMITY, None),
    ("cascades", None, "analyze", CASCADES, None),
    ("simulate", None, "simulate_runs", SIMULATE, None),
    ("simulate", None, "_simulate_block", SIMULATE, None),
    ("simulate", None, "estimate_completion", SIMULATE, None),
    ("simulate", None, "end_likelihood_stats", SIMULATE, None),
    ("cli", None, "main", CLI, None),
)


@dataclass
class Span:
    label: str
    group: str
    start: int
    end: int
    parent: int | None
    depth: int
    elems: int = 0


class Tracer:
    """Context manager that wraps the library and collects spans."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        # Per-label facts taken from return values and arguments.
        self.facts: dict[str, list] = defaultdict(list)
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- install / remove ------------------------------------------------

    def __enter__(self):
        pkg = self.package.__name__
        mods = {t[0]: importlib.import_module(f"{pkg}.{t[0]}") for t in TARGETS}
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == pkg or n.startswith(pkg + ".")]
        missing = []
        for mod_name, cls_name, attr, group, elem_arg in TARGETS:
            mod = mods[mod_name]
            label = f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}"
            owner = getattr(mod, cls_name, None) if cls_name else mod
            if owner is None or attr not in vars(owner):
                missing.append(label)
                continue
            orig = vars(owner)[attr]
            if cls_name:
                self._swap(owner, attr, self._wrap(orig, label, group, elem_arg))
                continue
            wrapper = self._wrap(orig, label, group, elem_arg)
            for m in loaded:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._swap(m, name, wrapper)
        if missing:
            self.__exit__()
            raise LookupError(f"trace targets not in the library: {', '.join(missing)}")
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)
        return False

    def _swap(self, owner, name, wrapper) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, label, group, elem_arg):
        tracer = self
        params = list(inspect.signature(fn).parameters)

        def arg(args, kwargs, i):
            return args[i] if i < len(args) else kwargs[params[i]]

        def traced(*args, **kwargs):
            stack = tracer._stacks.setdefault(threading.get_ident(), [])
            if stack:
                parent = stack[-1]
            else:
                # A pool worker's first span belongs to the span the calling
                # thread is blocked in.
                home = tracer._stacks.get(tracer._home)
                parent = home[-1] if home else None
            depth = tracer.spans[parent].depth + 1 if parent is not None else 0
            elems = 0 if elem_arg is None else int(np.size(arg(args, kwargs, elem_arg)))
            span = Span(label, group, 0, 0, parent, depth, elems)
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            tracer._note(label, result, lambda i: arg(args, kwargs, i))
            return result

        traced.__wrapped__ = fn
        return traced

    def _note(self, label, result, arg) -> None:
        if label == "simulate.simulate_runs":
            self.facts["simulate.runs_simulated"].append(int(arg(2)))
        elif label == "engine.backward_induction":
            rows = list(result.rows.values())
            self.facts["engine.rows"].append(len(rows))
            self.facts["engine.states"].append(sum(int(r.L.size) for r in rows))
            self.facts["engine.irregular_states"].append(
                sum(int(np.count_nonzero(r.irregular)) for r in rows)
            )
        elif label == "unanimity.sweep_profiles":
            self.facts["unanimity.profiles"].append(len(result["L"]))


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of the timeline each group holds as an open leaf span."""
    events = []
    for i, s in enumerate(spans):
        events.append((s.start, 1, s.depth, i))
        events.append((s.end, 0, -s.depth, i))
    events.sort()
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves: set[int] = set()
    out: dict[str, float] = defaultdict(float)
    prev = None
    for t, is_start, _, i in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves) / 1e9
            for j in leaves:
                out[spans[j].group] += share
        prev = t
        p = spans[i].parent
        if is_start:
            is_open[i] = True
            leaves.add(i)
            if p is not None:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    leaves.add(p)
    return dict(out)


def summarize(spans: list[Span]) -> dict:
    """Per-label calls, elements and busy time; per-group self time."""
    labels: dict[str, dict] = defaultdict(lambda: {"calls": 0, "elems": 0, "busy_s": 0.0})
    for s in spans:
        rec = labels[s.label]
        rec["calls"] += 1
        rec["elems"] += s.elems
        if not _inside_same_label(spans, s):
            rec["busy_s"] += (s.end - s.start) / 1e9
    return {"labels": dict(labels), "self_s": self_times(spans)}


def _inside_same_label(spans: list[Span], s: Span) -> bool:
    p = s.parent
    while p is not None:
        if spans[p].label == s.label:
            return True
        p = spans[p].parent
    return False


# Per-layer metrics of a traced run: name, unit, and which way is better.
# Counts of work done count as better lower.  Busy time (``*_s``) sums
# the durations of a label's outermost spans on every thread; ``self_s``
# is the group's share of the one timeline (see ``self_times``).
PER_LAYER = (
    ("beliefs.tail_calls", "count", "lower"),
    ("beliefs.tail_elems", "count", "lower"),
    ("beliefs.tail_s", "s", "lower"),
    ("beliefs.tail_ns_per_elem", "ns", "lower"),
    ("beliefs.quantile_elems", "count", "lower"),
    ("beliefs.quantile_s", "s", "lower"),
    ("beliefs.self_s", "s", "lower"),
    ("engine.solve_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.rows", "count", "lower"),
    ("engine.states", "count", "lower"),
    ("engine.irregular_states", "count", "lower"),
    ("engine.interp_calls", "count", "lower"),
    ("engine.interp_elems", "count", "lower"),
    ("engine.interp_s", "s", "lower"),
    ("engine.interp_self_s", "s", "lower"),
    ("engine.query_calls", "count", "lower"),
    ("engine.query_s", "s", "lower"),
    ("engine.query_self_s", "s", "lower"),
    ("unanimity.sweep_s", "s", "lower"),
    ("unanimity.self_s", "s", "lower"),
    ("unanimity.profiles", "count", "lower"),
    ("unanimity.delegation_s", "s", "lower"),
    ("cascades.analyze_s", "s", "lower"),
    ("cascades.self_s", "s", "lower"),
    ("simulate.runs_s", "s", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("simulate.estimate_s", "s", "lower"),
    ("simulate.stats_s", "s", "lower"),
    ("simulate.runs_simulated", "count", "lower"),
    ("simulate.useful_ratio", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.write_mb_per_s", "MB/s", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(tracer: Tracer, wall_s: float, bytes_written: int,
                  requested_runs: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload run, except ``trace.overhead_s``."""
    summary = summarize(tracer.spans)
    labels, self_s = summary["labels"], summary["self_s"]

    def total(key, *names):
        return sum(labels[n][key] for n in names if n in labels)

    def fact(name):
        return sum(tracer.facts.get(name, ()))

    tail = ("beliefs.TypeDistribution.sf", "beliefs.TypeDistribution.cdf",
            "beliefs.TypeDistribution.lr_upper_tail", "beliefs.TypeDistribution.lr_lower_tail")
    interp = ("engine.PolicyRow.sigma_at", "engine.PolicyRow.pi_at", "engine.PolicyRow.ratio_at")
    query = ("engine.PolicyTable.sigma", "engine.PolicyTable.pi", "engine.PolicyTable.ratio")
    tail_elems = total("elems", *tail)
    tail_s = total("busy_s", *tail)
    simulated = fact("simulate.runs_simulated")
    cli_self = self_s.get(CLI, 0.0)
    out = {
        "beliefs.tail_calls": total("calls", *tail),
        "beliefs.tail_elems": tail_elems,
        "beliefs.tail_s": tail_s,
        "beliefs.tail_ns_per_elem": tail_s * 1e9 / tail_elems if tail_elems else 0.0,
        "beliefs.quantile_elems": total("elems", "beliefs.TypeDistribution.quality_quantile"),
        "beliefs.quantile_s": total("busy_s", "beliefs.TypeDistribution.quality_quantile"),
        "beliefs.self_s": self_s.get(TAIL, 0.0) + self_s.get(QUANTILE, 0.0),
        "engine.solve_s": total("busy_s", "engine.backward_induction"),
        "engine.self_s": self_s.get(ENGINE, 0.0),
        "engine.rows": fact("engine.rows"),
        "engine.states": fact("engine.states"),
        "engine.irregular_states": fact("engine.irregular_states"),
        "engine.interp_calls": total("calls", *interp),
        "engine.interp_elems": total("elems", *interp),
        "engine.interp_s": total("busy_s", *interp),
        "engine.interp_self_s": self_s.get(INTERP, 0.0),
        "engine.query_calls": total("calls", *query),
        "engine.query_s": total("busy_s", *query),
        "engine.query_self_s": self_s.get(QUERY, 0.0),
        "unanimity.sweep_s": total("busy_s", "unanimity.sweep_profiles"),
        "unanimity.self_s": self_s.get(UNANIMITY, 0.0),
        "unanimity.profiles": fact("unanimity.profiles"),
        "unanimity.delegation_s": total("busy_s", "unanimity.delegation_analysis"),
        "cascades.analyze_s": total("busy_s", "cascades.analyze"),
        "cascades.self_s": self_s.get(CASCADES, 0.0),
        "simulate.runs_s": total("busy_s", "simulate.simulate_runs"),
        "simulate.self_s": self_s.get(SIMULATE, 0.0),
        "simulate.estimate_s": total("busy_s", "simulate.estimate_completion"),
        "simulate.stats_s": total("busy_s", "simulate.end_likelihood_stats"),
        "simulate.runs_simulated": simulated,
        # With nothing simulated, nothing was wasted.
        "simulate.useful_ratio": requested_runs / simulated if simulated else 1.0,
        "cli.self_s": cli_self,
        "cli.bytes_written": bytes_written,
        "cli.write_mb_per_s": bytes_written / 1e6 / cli_self if cli_self else 0.0,
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(self_s.values()),
    }
    return out
