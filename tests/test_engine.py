"""Backward-induction solver tests.

The two-player must-fill game with uniform quality on [0.5, 0.8] has a
hand-checkable equilibrium at even odds: threshold 0.4, completion
probabilities (8/15)^2 and 0.8^2.  Those anchors, the cascade plateaus,
and grid-refinement behavior pin the solver down.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cascadefund.beliefs import (
    DomainError,
    QualitySpec,
    TypeDistribution,
)
from cascadefund import engine
from cascadefund.engine import (
    GameState,
    ModelViolationError,
    PolicyTable,
    backward_induction,
    completion_prob,
    find_roots,
    pi_ordering_scan,
)
from cascadefund.roots import CELL_MARGIN, LastMover, select
from conftest import interior_zero_spec

U58 = (64.0 / 225.0, 0.64)  # (pi0, pi1) at L = 1 for uniform [0.5, 0.8]
U58_UTIL = 16.0 / 90.0


@pytest.fixture(scope="module")
def pol58(solved):
    return solved(QualitySpec.uniform(0.5, 0.8), 2, 2)


class TestLastMover:
    def test_even_odds_is_half(self, pol58):
        assert pol58.sigma(1.0, 1, 1) == 0.5

    def test_sigma_closed_form_is_exact(self, pol58, rng):
        # B <= 1 decouples from the future, so the stored policy must
        # reproduce the clipped posterior threshold with zero grid error.
        dist = pol58.dist
        L = np.exp(rng.uniform(np.log(0.01), np.log(100.0), 100))
        want = np.clip(1.0 / (1.0 + L), dist.lo, dist.hi)
        assert np.array_equal(pol58.sigma(L, 1, 1), want)
        assert np.array_equal(pol58.sigma(L, 0, 3), want)

    def test_single_candidate_at_terminal_state(self, pol58):
        rs = find_roots(GameState(L=1.0, B=1, n=1), pol58)
        assert len(rs.candidates) == 1
        assert rs.candidates[0].x == pytest.approx(0.5, abs=1e-9)

    def test_every_query_at_one_one_reads_the_closed_form(self, solved):
        # Table queries at (1, 1) and the (2, 2) row's invest child are one
        # convention, at the stored odds and between them; the stored
        # (1, 1) row is output only.
        table = solved(QualitySpec.uniform(0.5, 0.8), 2, 3, grid_size=129)
        last = LastMover(table.dist)
        stored = table.row(1, 1).L
        L = np.concatenate((stored, np.sqrt(stored[:-1] * stored[1:])))
        want = (last.sigma_at(L), *last.pi_at(L), last.ratio_at(L), last.irregular_at(L))
        child = table.view(1, 1)
        for got in (
            (table.sigma(L, 1, 1), *table.pi(L, 1, 1), table.ratio(L, 1, 1),
             table.irregular_at(L, 1, 1)),
            (child.sigma_at(L), *child.pi_at(L), child.ratio_at(L), child.irregular_at(L)),
        ):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        # A scalar query gives plain floats, as every other view does.
        assert [type(p) for p in table.pi(1.0, 1, 1)] == [float, float]


@pytest.mark.parametrize(
    "B, n",
    [(0, 2), (3, 2), (1, 1), (2, 2), (1, 3)],
    ids=["filled", "unfillable", "last-mover", "stored-row", "sigma-at-B-1"],
)
def test_every_state_answers_one_query_contract(solved, B, n):
    # Whatever answers at a state, a scalar query gives Python scalars and
    # an array query arrays of the query's shape.
    table = solved(QualitySpec.uniform(0.5, 0.8), 2, 3, grid_size=129)
    L = np.geomspace(0.3, 3.0, 6).reshape(2, 3)
    assert type(table.sigma(1.0, B, n)) is float
    assert table.sigma(L, B, n).shape == L.shape
    if (B, n) == (1, 3):
        # Not stored: only sigma answers here, in closed form.
        assert np.array_equal(table.sigma(L, B, n), table.view(1, 1).sigma_at(L))
        return
    assert [type(p) for p in table.pi(1.0, B, n)] == [float, float]
    assert [p.shape for p in table.pi(L, B, n)] == [L.shape, L.shape]
    assert type(table.ratio(1.0, B, n)) is float
    assert table.ratio(L, B, n).shape == L.shape
    assert type(table.irregular_at(1.0, B, n)) is bool
    irregular = table.irregular_at(L, B, n)
    assert irregular.dtype == bool and irregular.shape == L.shape

    view = table.view(B, n)
    assert np.array_equal(view.sigma_at(L), table.sigma(L, B, n))
    assert np.array_equal(view.pi_at(L), table.pi(L, B, n))
    assert np.array_equal(view.ratio_at(L), table.ratio(L, B, n))
    assert np.array_equal(view.irregular_at(L), irregular)
    rmin, rmax = view.ratio_bounds(L, 1.1 * L)
    assert rmin.shape == rmax.shape == L.shape
    r = view.ratio_at(L)
    assert np.all(r >= rmin * (1.0 - CELL_MARGIN)) and np.all(r <= rmax * (1.0 + CELL_MARGIN))


class TestTwoPlayerAnchors:
    def test_threshold_at_even_odds(self, pol58):
        st = GameState(L=1.0, B=2, n=2)
        rs = find_roots(st, pol58)
        x, irregular = rs.candidates[rs.selected].x, rs.tie
        assert x == pytest.approx(0.4, abs=1e-6)
        assert not irregular

    def test_completion_probabilities(self, pol58):
        p0, p1 = completion_prob(GameState(L=1.0, B=2, n=2), pol58)
        assert p0 == pytest.approx(U58[0], abs=1e-6)
        assert p1 == pytest.approx(U58[1], abs=1e-6)

    def test_completion_matches_stored_row(self, pol58, solved):
        p0, p1 = completion_prob(GameState(L=1.0, B=2, n=2), pol58)
        s0, s1 = pol58.row(2, 2).pi_at(1.0)
        assert p0 == pytest.approx(s0, abs=1e-5)
        assert p1 == pytest.approx(s1, abs=1e-5)
        # A single-state query takes the same solve as a table row, so at
        # stored points it reproduces the row bit for bit.
        for R, B, n in ((0.65, 2, 3), (0.5, 3, 5)):
            pol = solved(QualitySpec.uniform(R, 0.8), B, n, grid_size=257)
            for (b, m), row in sorted(pol.rows.items()):
                for k in range(0, row.L.size, 8):
                    st = GameState(L=float(row.L[k]), B=b, n=m)
                    rs = find_roots(st, pol)
                    assert rs.candidates[rs.selected].x == row.sigma[k], (R, b, m, k)
                    assert completion_prob(st, pol) == (row.pi0[k], row.pi1[k]), (R, b, m, k)

    def test_expected_utility_values(self, pol58):
        rs = find_roots(GameState(L=1.0, B=2, n=2), pol58)
        assert rs.candidates[rs.selected].utility == pytest.approx(U58_UTIL, abs=1e-6)

    def test_residual_small_at_equilibrium(self, pol58):
        rs = find_roots(GameState(L=1.0, B=2, n=2), pol58)
        assert abs(rs.candidates[rs.selected].residual) <= 1e-8

    def test_residual_sentinel_when_invest_child_dead(self, pol58):
        # Odds so low that even a top signal leaves the child unwinnable:
        # the only candidate is never investing, and its G is undefined.
        rs = find_roots(GameState(L=0.01, B=2, n=2), pol58)
        assert [(c.kind, c.residual) for c in rs.candidates] == [("herd_decline", math.inf)]


class TestCandidateKinds:
    @pytest.mark.parametrize(
        "L,kind,edge",
        [
            (1.0, "interior", None),
            (0.0624, "herd_decline", "hi"),
            (0.0625, "herd_decline", "hi"),
            (4.5, "herd_invest", "lo"),
        ],
    )
    def test_kinds_by_region(self, pol58, L, kind, edge):
        st = GameState(L=L, B=2, n=2)
        rs = find_roots(st, pol58)
        kinds = [c.kind for c in rs.candidates]
        assert kind in kinds
        sel = rs.candidates[rs.selected].x
        if edge is not None:
            assert sel == getattr(pol58.dist, edge)

    def test_rejects_settled_states(self, pol58):
        with pytest.raises(DomainError):
            find_roots(GameState(L=1.0, B=0, n=2), pol58)
        with pytest.raises(DomainError):
            find_roots(GameState(L=1.0, B=3, n=2), pol58)


class TestPlateaus:
    def test_up_cascade_plateau_bitexact(self, pol58):
        dist = pol58.dist
        row = pol58.row(2, 2)
        mask = row.L >= dist.Q / (1.0 - dist.Q)
        assert mask.any()
        assert np.all(row.sigma[mask] == dist.lo)
        assert np.all(row.pi0[mask] == 1.0)
        assert np.all(row.pi1[mask] == 1.0)

    def test_dead_plateau_bitexact(self, pol58):
        dist = pol58.dist
        row = pol58.row(2, 2)
        assert row.dead_frontier == ((1.0 - dist.Q) / dist.Q) ** 2
        mask = row.L <= row.dead_frontier
        assert mask.any()
        assert np.all(row.sigma[mask] == dist.hi)
        assert np.all(row.pi0[mask] == 0.0)
        assert np.all(row.pi1[mask] == 0.0)

    def test_last_mover_dead_frontier(self, pol58):
        dist = pol58.dist
        assert pol58.row(1, 1).dead_frontier == (1.0 - dist.Q) / dist.Q

    def test_ratio_sentinels(self, pol58):
        row = pol58.row(2, 2)
        assert row.ratio_at(0.01) == math.inf
        assert row.ratio_at(10.0) == 1.0

    def test_live_threshold_below_posterior_bound(self, pol58):
        # An interior mover shades up relative to the myopic rule, never
        # down: sigma >= 1/(1+L) would mean declining against the pivot.
        row = pol58.row(2, 2)
        live = (row.pi1 > 0) & (row.L < row.up_bound)
        assert np.all(row.sigma[live] <= 1.0 / (1.0 + row.L[live]) + 1e-9)


class TestSelection:
    def _flat(self, v):
        return np.array([v, v])

    def test_distinct_thresholds_with_tied_scores_flag_irregular(self):
        xs = np.array([0.3, 0.5])
        idx, irr = select(
            xs,
            np.array([0.2, 0.2]),
            1.0,
            self._flat(0.8),
            self._flat(0.5),
            self._flat(0.3),
            self._flat(0.6),
        )
        assert irr
        assert idx == 0

    def test_clear_utility_winner_is_regular(self):
        idx, irr = select(
            np.array([0.3, 0.5]),
            np.array([0.2, 0.1]),
            1.0,
            self._flat(0.8),
            self._flat(0.5),
            self._flat(0.3),
            self._flat(0.6),
        )
        assert (idx, irr) == (0, False)

    def test_discriminator_breaks_utility_tie(self):
        # Candidate 1's continuation completes more often in the good
        # world, so the tremble ranks it first despite the utility tie.
        idx, irr = select(
            np.array([0.3, 0.5]),
            np.array([0.2, 0.2]),
            1.0,
            self._flat(0.8),
            self._flat(0.5),
            np.array([0.3, 0.3]),
            np.array([0.5, 0.9]),
        )
        assert (idx, irr) == (1, False)


class TestTableShape:
    def test_missing_row_raises(self, pol58):
        with pytest.raises(ModelViolationError):
            pol58.row(3, 1)

    def test_reachable_rows_present(self, solved):
        pol = solved(QualitySpec.uniform(0.65, 0.8), 2, 3)
        keys = {(B, n) for B, n, _ in pol.iter_rows()}
        assert keys == {(1, 1), (1, 2), (2, 2), (2, 3)}

    @pytest.mark.filterwarnings("error::cascadefund.beliefs.OutOfSupportWarning")
    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda: QualitySpec.uniform(0.5, 0.8),
            lambda: QualitySpec.uniform(0.55, 0.95),
            lambda: QualitySpec.uniform(0.55, 0.999),
            interior_zero_spec,
        ],
        ids=["uniform-0.5-0.8", "uniform-0.55-0.95", "uniform-0.55-0.999", "interior-zero"],
    )
    def test_queries_beyond_the_span_read_the_plateaus(self, solved, make_spec):
        # The spanning grid overhangs both cascade bounds, so clamping a
        # query beyond either end of a row to its end knot is exact.
        table = solved(make_spec(), 3, 4, grid_size=129)
        Q = table.dist.Q
        for (B, n), row in sorted(table.rows.items()):
            below, above = row.L[0] / 10, row.L[-1] * 10
            assert row.sigma_at(below) == Q, (B, n)
            assert row.pi_at(below) == (0.0, 0.0), (B, n)
            assert row.ratio_at(below) == math.inf, (B, n)
            assert row.irregular_at(below) is False, (B, n)
            assert row.sigma_at(above) == 1.0 - Q, (B, n)
            assert row.pi_at(above) == (1.0, 1.0), (B, n)
            assert row.ratio_at(above) == 1.0, (B, n)
            assert row.irregular_at(above) is False, (B, n)
            # Every row holds a dead knot and a live one.
            assert np.any(row.pi1 == 0.0) and np.any(row.pi1 > 0.0), (B, n)

    def test_settings_validation(self, pol58):
        with pytest.raises(DomainError):
            backward_induction(pol58.dist, 2, 2, grid_size=4)

    def test_bad_requirement_rejected(self, pol58):
        with pytest.raises(DomainError):
            backward_induction(pol58.dist, 3, 2)

    def test_underflowing_dead_bound_rejected_before_any_row(self, monkeypatch):
        # ((1-Q)/Q)^50 / 10 underflows to 0 at Q = 0.9999999, so the log
        # odds of the grid's first point would be -inf.
        def no_row(*args):
            raise AssertionError("a row was solved")

        monkeypatch.setattr(engine, "_solve_row", no_row)
        dist = TypeDistribution(QualitySpec.uniform(0.5, 0.9999999))
        with pytest.raises(DomainError, match=r"Q=0\.9999999, B0=50"):
            backward_induction(dist, 50, 50)

    def test_settled_state_completion(self, pol58):
        assert completion_prob(GameState(L=1.0, B=0, n=2), pol58) == (1.0, 1.0)
        assert completion_prob(GameState(L=1.0, B=3, n=2), pol58) == (0.0, 0.0)


class TestOrderingScan:
    def test_clean_on_must_fill(self, pol58):
        report = pi_ordering_scan(pol58)
        assert report["states_checked"] > 2000
        assert report["violations"] == []

    def test_clean_on_partial_requirement(self, solved):
        pol = solved(QualitySpec.uniform(0.65, 0.8), 2, 3)
        assert pi_ordering_scan(pol)["violations"] == []


class TestRefinement:
    def test_threshold_error_contracts_with_grid(self):
        dist = TypeDistribution(QualitySpec.uniform(0.65, 0.8))
        tabs = {
            g: backward_induction(dist, 2, 2, grid_size=g)
            for g in (501, 1001, 2001)
        }
        probes = np.exp(np.linspace(np.log(0.08), np.log(3.9), 37))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sig = {g: t.sigma(probes, 2, 2) for g, t in tabs.items()}
        d1 = np.max(np.abs(sig[501] - sig[1001]))
        d2 = np.max(np.abs(sig[1001] - sig[2001]))
        assert d2 <= d1 * 1.05 + 1e-12


def test_a_table_build_leaves_numpy_ma_unimported():
    # np.unique's first call imports numpy.ma, 10-30 ms of a cold solve;
    # the row points come from a sort instead.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (
        "import sys\n"
        "from cascadefund.beliefs import QualitySpec, TypeDistribution\n"
        "from cascadefund.engine import backward_induction\n"
        "backward_induction(TypeDistribution(QualitySpec.uniform(0.5, 0.8)), 2, 3, grid_size=65)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "False"


def test_row_points_are_the_sorted_distinct_points():
    grid = engine._spanning_grid(0.8, 3, 129)
    for B in (1, 2, 3):
        pts = engine._row_points(grid, 0.8, B)
        assert np.array_equal(pts, np.unique(pts)) and pts.size > grid.size
        assert np.isin(grid, pts).all()
