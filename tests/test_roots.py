"""The certified root scan finds exactly the dense scan's roots.

A cell of scan points is skipped only when the child row's range bounds
prove G has one sign on it, so the root lists with and without bounds
must be equal bit for bit, not merely close.
"""

import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cascadefund import roots
from cascadefund.beliefs import OutOfSupportWarning, QualitySpec, TypeDistribution
from cascadefund.engine import (
    SCAN_POINTS,
    LikelihoodGrid,
    PolicyRow,
    _LastMover,
    backward_induction,
)
from conftest import bimodal_spec, triangular_spec


def interior_zero_spec():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OutOfSupportWarning)
        return QualitySpec.tabulated(
            0.5, 0.8, [(0.5, 2.0), (0.65, 0.0), (0.8, 2.0)], normalize=True
        )


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


def assert_rows_scan_alike(table):
    """Every row of the table scans to the same roots either way."""
    for (B, n), row in sorted(table.rows.items()):
        inv = table.view(B - 1, n - 1)
        args = (table.dist, inv.ratio_at, row.L, SCAN_POINTS, 8_192)
        dense = roots.scan_roots(*args)
        assert roots.scan_roots(*args, inv.ratio_bounds) == dense, (B, n)
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
    view = _LastMover(TypeDistribution(spec))
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
    view = _LastMover(dist)
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
        states, certified, evaluated, unbounded, brackets = rec.args
        assert evaluated < 0.05 * (certified + evaluated)


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

    dense = roots.scan_roots(dist, ratio, L, scan, 10 * scan)
    cert = roots.scan_roots(dist, ratio, L, scan, 10 * scan, bounds)
    assert dense == cert == [[float(xs[W - 1])]]


def test_scan_evaluates_cells_where_the_child_row_warns():
    # A flat child row stored on odds [0.5, 2], below Q/(1-Q) = 4.  At L = 1
    # the root x = 1/2 has child odds 1.86, inside the row, but every cell
    # with child odds in (2, 4) is one-signed; it is evaluated anyway, so
    # the clamped queries there still warn.
    dist = TypeDistribution(QualitySpec.uniform(0.5, 0.8))
    L = np.geomspace(0.5, 2.0, 50)
    half = np.full(L.size, 0.5)
    row = PolicyRow(1, 2, L, half, half, half, np.zeros(L.size, dtype=bool), dist.Q)
    args = (dist, row.ratio_at, np.array([1.0]), 4001, 8_192)
    with pytest.warns(OutOfSupportWarning):
        cert = roots.scan_roots(*args, row.ratio_bounds)
    with pytest.warns(OutOfSupportWarning):
        assert cert == roots.scan_roots(*args)
    assert cert[0] == [pytest.approx(0.5, abs=1e-9)]


def test_narrow_grid_still_warns_and_matches_dense(monkeypatch):
    # The grid tops out at odds 2, below the up-cascade bound Q/(1-Q) = 4,
    # so child queries past the top are clamped and must keep warning.
    dist = TypeDistribution(QualitySpec.uniform(0.5, 0.8))
    grid = LikelihoodGrid(np.geomspace(0.2, 2.0, 120))
    with pytest.warns(OutOfSupportWarning):
        cert = backward_induction(dist, 2, 3, grid=grid)
    # Without bounds every row takes the dense scan.
    scan_roots = roots.scan_roots
    monkeypatch.setattr(roots, "scan_roots", lambda *args: scan_roots(*args[:5]))
    with pytest.warns(OutOfSupportWarning):
        dense = backward_induction(dist, 2, 3, grid=grid)
    assert sorted(cert.rows) == sorted(dense.rows)
    for key, row in cert.rows.items():
        other = dense.rows[key]
        for field in ("L", "sigma", "pi0", "pi1", "irregular"):
            assert np.array_equal(getattr(row, field), getattr(other, field)), (key, field)


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
    for ((B, n), row), rec in zip(sorted(table.rows.items(), key=lambda kv: kv[0][::-1]), records):
        states, certified, evaluated, unbounded, brackets = rec.args
        assert rec.levelno == logging.DEBUG
        assert states == row.L.size
        assert certified + evaluated == states * cells
        assert 0 <= unbounded <= evaluated
        assert brackets >= 0
        assert certified > evaluated
    # A scan without bounds evaluates every cell, and none has a bound.
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cascadefund"):
        roots.scan_roots(dist, _LastMover(dist).ratio_at, row.L, 4001, 8_192)
    states, certified, evaluated, unbounded, brackets = caplog.records[-1].args
    assert certified == 0 and evaluated == unbounded == states * cells
