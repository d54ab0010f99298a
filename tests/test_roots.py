"""The certified root scan finds exactly the dense scan's roots.

A group of scan cells is skipped only when the child's bounds (a row's
range tables, or the closed-form last mover's tails in the engine and the
exact ladder alike) prove G has one sign on it, so the zeros, the brackets
and the candidates with and without bounds must be equal bit for bit, not
merely close.
"""

import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cascadefund import roots, unanimity
from cascadefund.beliefs import OutOfSupportWarning, QualitySpec, TypeDistribution
from cascadefund.cascades import down_cascade_bound
from cascadefund.engine import SCAN_POINTS, GameState, backward_induction, find_roots
from conftest import bimodal_spec, interior_zero_spec, triangular_spec


SPECS = {
    "uniform-0.5-0.8": lambda: QualitySpec.uniform(0.5, 0.8),
    "uniform-0.65-0.8": lambda: QualitySpec.uniform(0.65, 0.8),
    "uniform-0.6-0.9": lambda: QualitySpec.uniform(0.6, 0.9),
    "triangular": triangular_spec,
    "bimodal": bimodal_spec,
    "tabulated-interior-zero": interior_zero_spec,
}


def vanishing_end_spec():
    # Density falling to 1e-6 at Q: both last-mover tails vanish there like
    # (Q - x)**2, and rounding swamps them just above the dead frontier.
    return QualitySpec.tabulated(0.5, 0.75, [(0.5, 8.0), (0.75, 1e-6)], normalize=True)


SCAN_FIELDS = ("zero_state", "zeros", "state", "lo", "hi", "glo_pos")


def assert_scans_alike(dist, ratio, Ls, scan, budget, bounds):
    """Zeros, brackets and candidates are the same with and without bounds."""
    dense = roots.scan_roots(dist, ratio, Ls, scan, budget)
    cert = roots.scan_roots(dist, ratio, Ls, scan, budget, bounds)
    for field in SCAN_FIELDS:
        assert np.array_equal(getattr(dense, field), getattr(cert, field)), field
    cands = roots.candidates(dist, ratio, Ls, scan, budget, bounds)
    assert roots.candidates(dist, ratio, Ls, scan, budget) == cands
    return dense, cands


def assert_rows_scan_alike(table):
    """Every row of the table scans to the same brackets and candidates either way."""
    for (B, n), row in sorted(table.rows.items()):
        inv = table.view(B - 1, n - 1)
        assert_scans_alike(table.dist, inv.ratio_at, row.L, SCAN_POINTS, 8_192, inv.ratio_bounds)
    return len(table.rows)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_certified_scan_equals_dense_scan(name, solved):
    spec = SPECS[name]()
    compared = sum(
        assert_rows_scan_alike(solved(spec, B, n, grid_size=257))
        for B, n in [(2, 3), (3, 5), (4, 6)]
    )
    assert compared >= 18


@pytest.mark.parametrize("name", sorted(SPECS) + ["vanishing-end"])
def test_last_mover_bounds_hold_the_ratio(name):
    spec = vanishing_end_spec() if name == "vanishing-end" else SPECS[name]()
    view = roots.LastMover(TypeDistribution(spec))
    frontier = (1.0 - spec.Q) / spec.Q
    rng = np.random.default_rng(5)
    # Intervals anywhere on the child odds a scan reaches, and intervals
    # starting just above the dead frontier, where the tails vanish.
    lo = np.concatenate(
        (
            frontier * np.exp(rng.uniform(-1.0, 2.0 * np.log(1.0 / frontier) + 1.0, 200)),
            frontier * (1.0 + np.geomspace(1e-12, 1e-1, 200)),
        )
    )
    hi = lo * np.exp(rng.uniform(0.0, 1.0, lo.size) ** 4)
    rmin, rmax = view.ratio_bounds(lo, hi)
    bounded = ~np.isnan(rmin)
    assert np.array_equal(bounded, ~np.isnan(rmax))
    assert np.count_nonzero(bounded) >= 200
    for a, b, r0, r1 in zip(lo[bounded], hi[bounded], rmin[bounded], rmax[bounded]):
        r = view.ratio_at(np.linspace(a, b, 257).clip(a, b))
        if np.isinf(r0):
            assert np.isinf(r1) and np.all(np.isinf(r)), (a, b)
        live = r[np.isfinite(r)]
        assert np.all(live >= r0 * (1.0 - roots.CELL_MARGIN)), (a, b)
        assert np.all(live <= r1 * (1.0 + roots.CELL_MARGIN)), (a, b)


def test_last_mover_bound_gives_way_where_rounding_swamps_the_tails():
    dist = TypeDistribution(vanishing_end_spec())
    view = roots.LastMover(dist)
    frontier = (1.0 - dist.Q) / dist.Q
    lo = frontier * (1.0 + np.geomspace(1e-9, 1e-6, 10))
    rmin, rmax = view.ratio_bounds(lo, 1.01 * lo)
    assert np.all(np.isnan(rmin)) and np.all(np.isnan(rmax))
    # The dead side of the frontier is dead throughout; far above it the
    # tails are well conditioned and bounded.
    rmin, rmax = view.ratio_bounds(np.array([0.5, 2.0]) * frontier, np.array([0.9, 3.0]) * frontier)
    assert np.isinf(rmin[0]) and np.isinf(rmax[0])
    assert 0.0 < rmin[1] <= rmax[1] < 1.0
    # The (2, 2) row, whose invest child is the last mover, scans alike.
    table = backward_induction(dist, 2, 2, grid_size=129)
    assert assert_rows_scan_alike(table) == 2


def test_pivotal_threshold_is_the_clipped_cut_bit_for_bit():
    # Odds whose cut 1/(1+L) lands on, next to and beyond both support
    # edges, NaN and infinities among them.
    dist = TypeDistribution(QualitySpec.uniform(0.55, 0.999))
    edges = np.array([dist.lo, dist.hi])
    cuts = np.concatenate((edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)))
    L = np.concatenate(
        (1.0 / cuts - 1.0, [0.0, -0.0, np.nan, np.inf, 1e-300, 1e300], np.geomspace(1e-4, 1e4, 999))
    )
    for n in range(1, L.size + 1, 7):
        want = np.clip(1.0 / (1.0 + L[:n]), dist.lo, dist.hi)
        assert np.array_equal(roots.pivotal_threshold(dist, L[:n]).view(np.int64), want.view(np.int64))
    for v in L[:20]:
        assert roots.pivotal_threshold(dist, v) == np.clip(1.0 / (1.0 + v), dist.lo, dist.hi) or np.isnan(v)


def test_every_engine_row_takes_the_certified_scan(monkeypatch, caplog):
    seen = []
    scan_roots = roots.scan_roots

    def recording(*args, **kwargs):
        seen.append(args[5] if len(args) > 5 else kwargs.get("bounds"))
        return scan_roots(*args, **kwargs)

    monkeypatch.setattr(roots, "scan_roots", recording)
    for name in sorted(SPECS):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OutOfSupportWarning)
            table = backward_induction(TypeDistribution(SPECS[name]()), 3, 5, grid_size=129)
        assert len(seen) == len(table.rows), name
        assert all(b is not None for b in seen), name
        seen.clear()
    # Deterministic counts: no row of a well-conditioned table evaluates as
    # much as 5% of its cells, which a dense row (all of them) would.
    dist = TypeDistribution(QualitySpec.uniform(0.5, 0.8))
    with caplog.at_level(logging.DEBUG, logger="cascadefund"):
        table = backward_induction(dist, 3, 5, grid_size=257)
    records = [r for r in caplog.records if r.name == "cascadefund"]
    assert len(records) == len(table.rows) == 9
    for rec in records:
        states, queried, certified, evaluated, unbounded, *_, calls, rescue_calls = rec.args
        assert evaluated < 0.05 * (certified + evaluated)


def ladder_odds(dist):
    """Odds a two-player ladder step meets: from below the two-player dead
    bound to above the up-cascade bound, plus a band around the last
    mover's dead frontier (1-Q)/Q."""
    Q = dist.Q
    frontier = (1.0 - Q) / Q
    return np.concatenate(
        (
            np.geomspace(0.1 * frontier**2, 10.0 * Q / (1.0 - Q), 240),
            frontier * (1.0 + np.geomspace(1e-12, 1e-1, 40)),
            frontier * (1.0 - np.geomspace(1e-12, 1e-1, 40)),
        )
    )


@pytest.mark.parametrize("scan", [unanimity.SCAN_TOP, unanimity.SCAN_REC, unanimity.SCAN_DEEP])
@pytest.mark.parametrize("name", sorted(SPECS) + ["vanishing-end"])
def test_ladder_certified_scan_equals_dense_scan(name, scan):
    # Each scan size the exact ladder's two-player steps use, at its block
    # of 5,120 elements, against the closed-form last mover's bounds.
    spec = vanishing_end_spec() if name == "vanishing-end" else SPECS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OutOfSupportWarning)
        dist = TypeDistribution(spec)
        last = roots.LastMover(dist)
        dense, _ = assert_scans_alike(
            dist, last.ratio_at, ladder_odds(dist), scan, 5_120, last.ratio_bounds
        )
    assert dense.state.size > 0


@pytest.mark.parametrize("name", sorted(SPECS) + ["vanishing-end"])
def test_last_mover_is_the_ladders_old_two_player_child(name):
    # The ladder's two-player child was a recursive one-player solve behind
    # a dead cut just below (1-Q)/Q, with one `sf` call per world.
    spec = vanishing_end_spec() if name == "vanishing-end" else SPECS[name]()
    dist = TypeDistribution(spec)
    frontier = (1.0 - dist.Q) / dist.Q
    near = frontier * (1.0 + np.concatenate(([0.0], np.geomspace(1e-15, 1e-9, 60))))
    L = np.concatenate(
        (
            np.geomspace(1e-3 * frontier, 1e3 / frontier, 20_001),
            near,
            frontier * (1.0 - np.geomspace(1e-15, 1e-9, 60)),
            frontier * (1.0 + np.array([-1e-12, 1e-12])),
            np.nextafter(frontier * (1.0 - 1e-12), [0.0, np.inf]),
        )
    )
    x = roots.pivotal_threshold(dist, L)
    old_pi = dist.sf(0, x), dist.sf(1, x)
    old_ratio = np.where(
        L > down_cascade_bound(dist.Q, 1) * (1.0 - 1e-12), roots.completion_ratio(*old_pi), np.inf
    )
    last = roots.LastMover(dist)
    assert np.array_equal(last.ratio_at(L), old_ratio)
    for got, want in zip(last.pi_at(L), old_pi):
        assert np.array_equal(got, want)
    assert np.isinf(old_ratio).any() and np.isfinite(old_ratio).any()


def test_every_ladder_two_player_step_takes_the_certified_scan(monkeypatch, caplog):
    # Mirrors test_every_engine_row_takes_the_certified_scan: each scan
    # whose child is the last mover has its bounds, and only deeper steps
    # (a recursive child) scan densely.
    seen = []
    scan_roots = roots.scan_roots

    def recording(*args, **kwargs):
        bounds = args[5] if len(args) > 5 else kwargs.get("bounds")
        seen.append((isinstance(getattr(args[1], "__self__", None), roots.LastMover), bounds))
        return scan_roots(*args, **kwargs)

    monkeypatch.setattr(roots, "scan_roots", recording)
    dist = TypeDistribution(QualitySpec.uniform(0.65, 0.8))
    unanimity.solve_unanimity(0.75, dist, 3)
    assert {last for last, _ in seen} == {True, False}
    for last, bounds in seen:
        assert (bounds is not None) == last
    monkeypatch.undo()
    # Deterministic counts: a 161-point two-player sweep evaluates under
    # 10% of its cells (5.8% and 8.4% here); a dense scan evaluates all.
    for R in (0.5, 0.65):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cascadefund"):
            dist = TypeDistribution(QualitySpec.uniform(R, 0.8))
            unanimity.sweep_profiles(dist, 2, np.geomspace(0.05, 5.0, 161))
        (rec,) = [r for r in caplog.records if r.name == "cascadefund"]
        states, queried, certified, evaluated, unbounded, *_, calls, rescue_calls = rec.args
        assert states == 161
        assert evaluated < 0.1 * (certified + evaluated)


@st.composite
def tabulated_specs(draw):
    R = draw(st.floats(0.5, 0.85))
    Q = draw(st.floats(R + 0.05, 0.97))
    k = draw(st.integers(2, 5))
    inner = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=k - 2, max_size=k - 2)))
    qs = [R] + [R + u * (Q - R) for u in inner] + [Q]
    if len(set(qs)) != len(qs):
        qs = [R, Q]
    # Interior knots may be zero; the ends must stay positive.
    ds = draw(st.lists(st.floats(0.1, 3.0), min_size=len(qs), max_size=len(qs)))
    zeros = draw(st.lists(st.booleans(), min_size=len(qs) - 2, max_size=len(qs) - 2))
    ds = [ds[0]] + [0.0 if z else d for z, d in zip(zeros, ds[1:-1])] + [ds[-1]]
    return QualitySpec.tabulated(R, Q, list(zip(qs, ds)), normalize=True)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=tabulated_specs())
def test_certified_scan_equals_dense_scan_on_tabulated_densities(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OutOfSupportWarning)
        table = backward_induction(TypeDistribution(spec), 2, 3, grid_size=33)
        assert assert_rows_scan_alike(table) >= 2


def test_zero_at_shared_cell_end_is_reported_once():
    # A constant child ratio equal to L * x/(1-x) at the point two cells
    # share makes G exactly zero there and nonzero everywhere else.
    dist = TypeDistribution(QualitySpec.uniform(0.5, 0.8))
    W = roots.CELL_POINTS
    scan = 3 * (W - 1) + 1
    xs = np.linspace(dist.lo, dist.hi, scan)
    L = np.array([1.3])
    c = float(L[0] * (xs[W - 1] / (1.0 - xs[W - 1])))

    def ratio(q):
        return np.full(np.shape(q), c)

    def bounds(lo, hi):
        return np.full(np.shape(lo), c), np.full(np.shape(hi), c)

    dense, cands = assert_scans_alike(dist, ratio, L, scan, 10 * scan, bounds)
    assert dense.zero_state.tolist() == [0] and dense.zeros.tolist() == [xs[W - 1]]
    assert dense.state.size == 0
    assert cands == [[(float(xs[W - 1]), roots.KIND_INTERIOR)]]


def test_engine_scan_memory_stays_small():
    # 8,192-element scan blocks peak near 1.3 MB here; 512-state blocks of
    # the 4,001-point scan reached about 109 MB.
    dist = TypeDistribution(QualitySpec.uniform(0.5, 0.8))
    backward_induction(dist, 2, 2, grid_size=257)
    tracemalloc.start()
    try:
        backward_induction(dist, 3, 5, grid_size=257)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_each_row_logs_its_scan(caplog):
    dist = TypeDistribution(QualitySpec.uniform(0.5, 0.8))
    with caplog.at_level(logging.DEBUG, logger="cascadefund"):
        table = backward_induction(dist, 2, 3, grid_size=65)
    records = [r for r in caplog.records if r.name == "cascadefund"]
    assert len(records) == len(table.rows)
    cells = len(range(0, SCAN_POINTS - 1, roots.CELL_POINTS - 1))
    rescue_total = 0
    for ((B, n), row), rec in zip(sorted(table.rows.items(), key=lambda kv: kv[0][::-1]), records):
        (states, queried, certified, evaluated, unbounded, brackets, rescued, calls,
         rescue_calls) = rec.args
        assert rec.levelno == logging.DEBUG
        assert states == row.L.size
        # Each state bounds its whole scan at least once, and far fewer
        # intervals than its cells.
        assert states <= queried < 0.5 * states * cells
        assert certified + evaluated == states * cells
        assert 0 <= unbounded <= evaluated
        assert brackets >= 0
        assert 0 <= rescued < states
        assert certified > evaluated
        # One predicate call serves several bisection steps: a bracket
        # bisection takes about 28 steps, a rescue 42 (to ROOT_XTOL / 4).
        assert brackets == 0 or 0 < calls <= 14
        assert rescue_calls <= 7 and (rescue_calls == 0 or rescued > 0)
        rescue_total += rescue_calls
    assert rescue_total > 0
    # A scan without bounds evaluates every cell, and none has a bound.
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cascadefund"):
        roots.candidates(dist, roots.LastMover(dist).ratio_at, row.L, 4001, 8_192)
    states, queried, certified, evaluated, unbounded, *_ = caplog.records[-1].args
    assert queried == certified == 0 and evaluated == unbounded == states * cells


@settings(max_examples=60, deadline=None)
@given(
    brackets=st.lists(
        st.tuples(st.floats(-10.0, 10.0), st.floats(-14.0, 1.0), st.floats(0.0, 1.0)),
        max_size=12,
    ),
    tol=st.sampled_from([0.0, roots.ROOT_XTOL, roots.ROOT_XTOL / 4]),
    max_iter=st.sampled_from([None, 0, 1, 7, 80, 200]),
)
def test_bisect_elementwise_equals_scalar_calls(brackets, tol, max_iter):
    # Brackets of widths from 1e-14 to 10 stop after different numbers of
    # steps; each must stop where its own scalar call does.
    if tol == 0.0 and max_iter is None:
        max_iter = 200  # halving to a zero width need not end
    a = np.array([lo for lo, _, _ in brackets], dtype=float)
    b = a + np.array([10.0**e for _, e, _ in brackets], dtype=float)
    switch = a + (b - a) * np.array([u for _, _, u in brackets], dtype=float)
    got_a, got_b = roots.bisect(lambda m: m < switch, a, b, tol, max_iter)
    assert got_a.shape == got_b.shape == a.shape
    for i in range(a.size):
        want_a, want_b = roots.bisect(
            lambda m: m < switch[i], float(a[i]), float(b[i]), tol, max_iter
        )
        assert (float(got_a[i]).hex(), float(got_b[i]).hex()) == (want_a.hex(), want_b.hex()), i


def test_bisect_on_an_empty_array_returns_at_once():
    calls = []
    a, b = roots.bisect(lambda m: calls.append(m) or m < 0.0, np.empty(0), np.empty(0), 0.0)
    assert a.size == b.size == 0 and not calls


# The smallest and largest array size at which `bisect` takes each depth.
DEPTH_SIZES = sorted(
    {
        f(s for s in range(1, 2001) if roots._subtree_depth(s) == d)
        for d in range(1, roots.BISECT_DEPTH + 1)
        for f in (min, max)
    }
)


def test_depth_sizes_cover_every_depth():
    assert {roots._subtree_depth(s) for s in DEPTH_SIZES} == set(range(1, roots.BISECT_DEPTH + 1))
    for s in range(1, 2001):
        d = roots._subtree_depth(s)
        assert d == 1 or (2**d - 1) * s <= roots.BISECT_ELEMENTS
        assert d == roots.BISECT_DEPTH or (2 ** (d + 1) - 1) * s > roots.BISECT_ELEMENTS


@settings(max_examples=40, deadline=None)
@given(
    size=st.one_of(st.sampled_from(DEPTH_SIZES), st.integers(1, 2000)),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([0.0, roots.ROOT_XTOL, roots.ROOT_XTOL / 4]),
    max_iter=st.sampled_from([None, 0, 1, 5, 7, 13, 41, 80, 200]),
    nan_widths=st.booleans(),
)
def test_bisect_subtrees_equal_scalar_calls(size, seed, tol, max_iter, nan_widths):
    # Every depth the rule picks, step caps that are no multiple of it and
    # brackets of widths 1e-14 to 10 that stop at different steps: each
    # element stops where its scalar call does, with fewer `left` calls.
    if max_iter is None and (tol == 0.0 or nan_widths):
        max_iter = 200  # halving to a zero width, or a NaN one, need not end
    rng = np.random.default_rng(seed)
    a = rng.uniform(-10.0, 10.0, size)
    b = a + 10.0 ** rng.uniform(-14.0, 1.0, size)
    if nan_widths:
        b[rng.random(size) < 0.1] = np.nan
    switch = a + (b - a) * rng.random(size)
    shapes = []

    def left(m):
        shapes.append(m.shape)
        return m < switch

    got_a, got_b = roots.bisect(left, a, b, tol, max_iter)
    assert got_a.shape == got_b.shape == a.shape
    steps = 0
    for i in range(size):
        calls = 0

        def one(m, s=float(switch[i])):
            nonlocal calls
            calls += 1
            return m < s

        want_a, want_b = roots.bisect(one, float(a[i]), float(b[i]), tol, max_iter)
        assert (float(got_a[i]).hex(), float(got_b[i]).hex()) == (want_a.hex(), want_b.hex()), i
        steps = max(steps, calls)
    # The one-level loop calls `left` once per step, until every element
    # has stopped; a call now serves d steps.
    d = roots._subtree_depth(size)
    assert len(shapes) == -(-steps // d)
    if d > 1 and steps > 1:
        assert len(shapes) < steps
    for shape in shapes:
        assert shape == (size,) or shape[1:] == (size,) and shape[0] * size <= roots.BISECT_ELEMENTS


def test_bisect_takes_a_leading_node_axis_on_nd_arrays():
    # An (8, 3) array goes down subtrees of depth 5 as (31, 8, 3) arrays.
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 1.0, (8, 3))
    b = a + 10.0 ** rng.uniform(-6.0, 0.0, (8, 3))
    switch = a + (b - a) * rng.random((8, 3))
    shapes = []
    got = roots.bisect(lambda m: shapes.append(m.shape) or m < switch, a, b, 1e-12, 80)
    assert {s[1:] for s in shapes} == {(8, 3)} and shapes[0][0] == 2**5 - 1
    for i, j in np.ndindex(8, 3):
        want = roots.bisect(lambda m: m < switch[i, j], a[i, j], b[i, j], 1e-12, 80)
        assert (got[0][i, j], got[1][i, j]) == want


def _one_level_bisect_brackets(g, lo, hi, glo_pos):
    """The bracket bisection as one step per call of g: it evaluates every
    element's midpoint at each step, a stopped one's frozen midpoint too,
    and raises on a NaN there."""
    for _ in range(80):
        open_ = ~(hi - lo <= roots.ROOT_XTOL)
        if not open_.any():
            break
        m = 0.5 * (lo + hi)
        gm = g(m)
        if np.any(np.isnan(gm)):
            raise roots.ModelViolationError("indifference gap undefined inside a bracket")
        go = (gm > 0.0) == glo_pos
        lo, hi = np.where(open_ & go, m, lo), np.where(open_ & ~go, m, hi)
    return 0.5 * (lo + hi)


def _holed_line(root, slope, hole_lo, hole_hi):
    """g(x) = slope * (x - root) elementwise, NaN on [hole_lo, hole_hi]."""

    def g(x):
        return np.where((x >= hole_lo) & (x <= hole_hi), np.nan, slope * (x - root))

    return g


def _raises(f, *args):
    try:
        return False, f(*args)
    except roots.ModelViolationError as err:
        assert str(err) == "indifference gap undefined inside a bracket"
        return True, None


@settings(max_examples=60, deadline=None)
@given(
    size=st.sampled_from([1, 2, 3, 9, 40, 150, 400]),
    seed=st.integers(0, 2**32 - 1),
    holes=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
)
def test_bracket_bisection_raises_exactly_where_the_one_level_loop_does(size, seed, holes):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.2, 0.7, size)
    width = 10.0 ** rng.uniform(-13.0, -0.5, size)
    hi = lo + width
    root = lo + width * rng.random(size)
    slope = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    # NaN holes on a share of the brackets: anywhere in them, a few
    # around the root, which every walk reaches, and some empty.
    at = lo + width * rng.random(size)
    at = np.where(rng.random(size) < 0.2, root, at)
    half = width * 10.0 ** rng.uniform(-4.0, -1.0, size)
    half = np.where(rng.random(size) < holes, half, -1.0)
    g = _holed_line(root, slope, at - half, at + half)
    glo_pos = slope * (lo - root) > 0.0
    want = _raises(_one_level_bisect_brackets, g, lo, hi, glo_pos)
    got = _raises(lambda *args: roots._bisect_brackets(*args)[0], g, lo, hi, glo_pos)
    assert got[0] == want[0]
    if not want[0]:
        assert np.array_equal(got[1], want[1])


def test_bracket_bisection_ignores_nan_off_every_walked_path():
    # Root 0.3 on [0, 1]: the walk goes left of 0.5 at once, so a hole on
    # (0.6, 1) holds subtree nodes (0.75, 0.625, 0.875, ...) it never reads.
    seen = []
    g = _holed_line(np.array([0.3]), np.array([1.0]), 0.6, 1.0)

    def recording(x):
        seen.append(np.isnan(g(x)).any())
        return g(x)

    one = (np.array([0.0]), np.array([1.0]), np.array([False]))
    x, calls = roots._bisect_brackets(recording, *one)
    assert any(seen) and calls == len(seen) < 40
    assert x.tolist() == _one_level_bisect_brackets(g, *one).tolist()
    # A hole on the walk's path raises.
    with pytest.raises(roots.ModelViolationError, match="undefined inside a bracket"):
        roots._bisect_brackets(_holed_line(np.array([0.3]), np.array([1.0]), 0.29, 0.31), *one)


def test_bracket_bisection_reads_a_stopped_brackets_frozen_midpoint():
    # Bracket 1 is narrower than ROOT_XTOL from the start, and G is NaN at
    # its midpoint: the one-level loop evaluates it while bracket 0 halves,
    # and never once bracket 1 is alone.
    lo, hi = np.array([0.0, 0.5]), np.array([1.0, 0.5 + 1e-13])
    g = _holed_line(np.array([0.3, 0.5]), np.array([1.0, 1.0]), 0.5 + 2e-14, 0.5 + 8e-14)
    with pytest.raises(roots.ModelViolationError, match="undefined inside a bracket"):
        roots._bisect_brackets(g, lo, hi, np.array([False, False]))
    x, calls = roots._bisect_brackets(g, lo[1:], hi[1:], np.array([False]))
    assert calls == 0 and x.tolist() == [0.5 + 5e-14]


def test_bracket_bisection_reads_a_midpoint_frozen_inside_a_subtree():
    # Bracket 1 stops after two steps, inside the first subtree, and G is
    # NaN at its frozen midpoint alone: the one-level loop evaluates it at
    # the third step while bracket 0 still halves, and never once bracket 1
    # is alone, since then there is no third step.
    lo, hi = np.array([0.0, 0.5]), np.array([1.0, 0.5 + 3e-12])
    a, b = roots.bisect(lambda m: m < 0.5 + 2e-12, 0.5, 0.5 + 3e-12, roots.ROOT_XTOL, 80)
    frozen = 0.5 * (a + b)
    root = np.array([0.3, 0.5 + 2e-12])
    g = _holed_line(root, np.array([1.0, 1.0]), frozen, frozen)
    alone = _holed_line(root[1:], np.array([1.0]), frozen, frozen)
    glo_pos = np.array([False, False])
    for f in (_one_level_bisect_brackets, lambda *args: roots._bisect_brackets(*args)[0]):
        with pytest.raises(roots.ModelViolationError, match="undefined inside a bracket"):
            f(g, lo, hi, glo_pos)
        assert f(alone, lo[1:], hi[1:], glo_pos[1:]).tolist() == [frozen]


def test_rescue_case_with_nan_inside_its_bracket_still_raises():
    # The knot-1e-6 density just above row (2, 2)'s dead frontier: G is NaN
    # at a midpoint inside the rescue bracket [window edge, Q].
    table = backward_induction(TypeDistribution(vanishing_end_spec()), 2, 2, grid_size=129)
    with pytest.raises(roots.ModelViolationError, match="indifference gap undefined inside a bracket"):
        find_roots(GameState(0.11111111240090928, 2, 2), table)


def test_partial_build_makes_few_gap_calls(monkeypatch):
    # solve-partial's (3, 8) grid-513 build made 1,062 `gap` calls with
    # one bisection step per call; with subtrees of midpoints it makes 390.
    calls = []
    gap = roots.gap
    monkeypatch.setattr(roots, "gap", lambda *args: calls.append(1) or gap(*args))
    backward_induction(TypeDistribution(QualitySpec.uniform(0.5, 0.8)), 3, 8, grid_size=513)
    assert len(calls) <= 410


def _rescued_states(dist, ratio, Ls, bounds):
    """States the scan and the herd flags leave without a candidate."""
    found = roots.scan_roots(dist, ratio, Ls, SCAN_POINTS, 8_192, bounds)
    herd_inv, herd_dec = roots.herd_flags(dist, ratio, Ls)
    has = herd_inv | herd_dec
    has[found.zero_state] = has[found.state] = True
    return np.flatnonzero(~has)


def test_batched_rescue_equals_the_one_state_call(solved):
    cases = []
    table = solved(QualitySpec.uniform(0.5, 0.8), 3, 8, grid_size=513)  # solve-partial
    for (B, n), row in sorted(table.rows.items()):
        cases.append((table, B, n, row.L))
    # The knot-1e-6 density, at odds just above each row's dead frontier.
    table = backward_induction(TypeDistribution(vanishing_end_spec()), 2, 2, grid_size=129)
    for (B, n), row in sorted(table.rows.items()):
        cases.append((table, B, n, row.dead_frontier * (1.0 + np.geomspace(1e-7, 1e-1, 40))))
    rescued_total = 0
    for table, B, n, Ls in cases:
        inv = table.view(B - 1, n - 1)
        args = (table.dist, inv.ratio_at)
        cands = roots.candidates(*args, Ls, SCAN_POINTS, 8_192, inv.ratio_bounds)
        rescued = _rescued_states(*args, Ls, inv.ratio_bounds)
        rescued_total += rescued.size
        for s in rescued:
            one = roots.candidates(*args, Ls[s : s + 1], SCAN_POINTS, 8_192, inv.ratio_bounds)
            assert one == [cands[s]], (B, n, s)
            assert len(cands[s]) == 1 and cands[s][0][1] == roots.KIND_INTERIOR
    assert rescued_total >= 40


def test_rescue_names_the_first_failing_state(monkeypatch):
    # With the herd flags off, a child dead below odds 50 leaves a state
    # at L = 1 no playable window (L * Q/(1-Q) = 4), and a child ratio of
    # 1e9 above it leaves G negative on the whole support at L = 60.
    dist = TypeDistribution(QualitySpec.uniform(0.5, 0.8))

    def ratio(q):
        q = np.asarray(q, dtype=float)
        return np.where(q < 50.0, np.inf, 1e9)

    monkeypatch.setattr(
        roots, "herd_flags", lambda dist, ratio, Ls: (np.zeros(len(Ls), bool),) * 2
    )
    for Ls, message in [
        ([2.0, 60.0, 1.0], "no playable threshold window at L=2.0"),
        ([60.0, 1.0], "herd-decline condition missed by the scan at L=60.0"),
    ]:
        with pytest.raises(roots.ModelViolationError, match=message):
            roots.candidates(dist, ratio, np.array(Ls), 257, 8_192)


def _flat_certificate(dist, Ls, scan, bounds):
    """The one-level certificate: every cell of every state bounded at once.

    Returns the child odds of the open cells' points, in (state, cell)
    order, and the count of cells without a bound.
    """
    W = roots.CELL_POINTS
    xs = np.linspace(dist.lo, dist.hi, scan)
    uxs = dist.lr_upper_tail(xs)
    lhs = xs / (1.0 - xs)
    first = np.arange(0, scan - 1, W - 1)
    pts = np.minimum(first[:, None] + np.arange(W), scan - 1)
    Lb = Ls[:, None]
    rmin, rmax = bounds(Lb * uxs[pts].min(axis=1), Lb * uxs[pts].max(axis=1))
    certified = (Lb * lhs[first] > rmax * (1.0 + roots.CELL_MARGIN)) | (
        Lb * lhs[pts[:, -1]] < rmin * (1.0 - roots.CELL_MARGIN)
    )
    s, c = np.nonzero(~certified)
    return Ls[s][:, None] * uxs[pts[c]], np.count_nonzero(np.isnan(rmin) | np.isnan(rmax))


@pytest.mark.parametrize("name", sorted(SPECS) + ["vanishing-end"])
def test_coarse_to_fine_certificate_evaluates_the_flat_certificates_cells(name, solved):
    if name == "vanishing-end":
        table = backward_induction(TypeDistribution(vanishing_end_spec()), 2, 2, grid_size=129)
    else:
        table = solved(SPECS[name](), 3, 5, grid_size=257)
    for (B, n), row in sorted(table.rows.items()):
        inv = table.view(B - 1, n - 1)
        seen = []

        def ratio(q):
            if np.ndim(q) == 2:  # a block of cells, the only odds scan_roots passes
                seen.append(np.array(q))
            return inv.ratio_at(q)

        want, unbounded = _flat_certificate(table.dist, row.L, SCAN_POINTS, inv.ratio_bounds)
        found = roots.scan_roots(table.dist, ratio, row.L, SCAN_POINTS, 8_192, inv.ratio_bounds)
        got = np.concatenate(seen) if seen else np.empty((0, roots.CELL_POINTS))
        assert np.array_equal(got, want), (name, B, n)
        assert found.evaluated == len(want) and found.unbounded == unbounded, (name, B, n)


def test_coarse_to_fine_certificate_makes_few_bound_queries(solved):
    table = solved(QualitySpec.uniform(0.5, 0.8), 3, 5, grid_size=257)
    for (B, n), row in sorted(table.rows.items()):
        inv = table.view(B - 1, n - 1)
        queried = []

        def bounds(lo, hi):
            queried.append(lo.size)
            return inv.ratio_bounds(lo, hi)

        found = roots.scan_roots(table.dist, inv.ratio_at, row.L, SCAN_POINTS, 8_192, bounds)
        assert found.queried == sum(queried) <= 30 * row.L.size, (B, n)


@pytest.mark.parametrize("s", [1.0, 1e-170, 1e160])
def test_scan_sign_test_holds_at_tiny_and_huge_gaps(s):
    # G = s * (x/(1-x) - 1.2345) has one root at 1.2345/2.2345 at every
    # scale; a product of neighbouring G values underflows to zero below
    # |G| ~ 1e-160 and overflows above ~1e154, a sign comparison does not.
    dist = TypeDistribution(QualitySpec.uniform(0.5, 0.8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = roots.scan_roots(
            dist, lambda q: np.full(np.shape(q), 1.2345 * s), np.array([s]), SCAN_POINTS, 8_192
        )
    assert found.zeros.size == 0
    assert found.state.tolist() == [0]
    assert found.lo[0] < 1.2345 / 2.2345 < found.hi[0]
