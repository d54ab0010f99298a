"""Backward-induction threshold equilibria on a public-likelihood grid.

A game state is (L, B, n): public odds L of a good world, B investments
still needed, n players left to move.  The mover invests exactly when her
type clears a threshold x, and the threshold of a best reply solves

    G(x) = L * x/(1-x) - pi_0(L', B-1, n-1) / pi_1(L', B-1, n-1) = 0,

where L' are the public odds after an invest at threshold x and pi_w are
the child completion probabilities.  Completion probabilities follow the
recurrence

    pi_w(L, B, n) = (1 - F_w(x)) * pi_w(L', B-1, n-1) + F_w(x) * pi_w(L'', B, n-1)

with pi_w = 1 once B <= 0 and pi_w = 0 when B > n.  Multiple candidate
thresholds are ranked by the mover's expected utility; exact ties go to
the candidate a vanishing tremble favors (the discriminator), and a tie
there too marks the state irregular.  Root finding, selection and the
recurrence live in cascadefund.roots; this module supplies the child
rows they evaluate.

Tables are solved bottom-up in n on a log-odds grid wide enough to hold
every reachable state, with extra grid points pinned at the analytic
cascade bounds so the all-invest and all-decline plateaus are resolved
sharply.  Every state answers the same five queries (`sigma_at`,
`pi_at`, `ratio_at`, `ratio_bounds`, `irregular_at`): a stored
`PolicyRow` interpolates linearly in log odds, and a terminal state
answers with the conventions the exact ladder reads too
(`roots.terminal`): a filled or unfillable drive, and the closed-form
last mover at (1, 1), for table queries and parent rows alike, except
where a B = n row groups its candidates.  `PolicyTable.view` picks the
one for a state.  The only setting is the number of grid points
(`backward_induction`); the root tolerances are those of
cascadefund.roots.

Live states are solved by `roots.solve_states` from the views of their
two children, the solve the exact ladder runs on exact children; this
module supplies its scan size and B = n grouping (`_solve_states`), for a
whole table row or for one state.  `find_roots`
and `completion_prob` are that solve at one state.  A pivotal state
(B = 1: the mover's investment fills the drive) is solved there in closed
form, the clipped cut 1/(1+L) with no root search, so the stored (1, n)
rows, `find_roots`, `completion_prob` and the table's queries give one cut.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from cascadefund import roots
from cascadefund.beliefs import DomainError, TypeDistribution, _answer
from cascadefund.cascades import down_cascade_bound, up_cascade_bound
from cascadefund.roots import (
    KIND_INTERIOR,
    RESIDUAL_TOL,
    ModelViolationError,
)

__all__ = [
    "Candidate",
    "GameState",
    "ModelViolationError",
    "PolicyRow",
    "PolicyTable",
    "RootSet",
    "backward_induction",
    "completion_prob",
    "find_roots",
    "pi_ordering_scan",
]

MAX_PLAYERS = 50

SCAN_POINTS = 4001  # candidate scan points over the support per state
GRID_PAD = 10.0  # factor by which the spanning grid overhangs the cascade bounds


@dataclass(frozen=True)
class GameState:
    """Public state: odds L, investments still needed B, players left n."""

    L: float
    B: int
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.L) and self.L > 0):
            raise DomainError(f"need finite positive odds, got L={self.L}")
        if self.n < 0:
            raise DomainError("player count cannot be negative")


def _spanning_grid(Q: float, B0: int, size: int) -> np.ndarray:
    """Odds points, uniform in log odds, overhanging both cascade bounds.

    The grid runs from GRID_PAD below the dead bound ((1-Q)/Q)^B0, the
    lowest of every row B <= B0, to GRID_PAD above the up-cascade bound
    Q/(1-Q).  Below its first point every row is dead (sigma = Q, pi = 0)
    and above its last every row invests for every type (sigma = 1-Q,
    pi = 1), so a query beyond either end of a row lands on a plateau, and
    clamping it to the end knot gives the exact value.  A first point that
    is zero (log fails) or subnormal (too few bits to space points by) is
    a DomainError.
    """
    lo = down_cascade_bound(Q, B0) / GRID_PAD
    if not lo >= sys.float_info.min:
        raise DomainError(
            f"dead bound ((1-Q)/Q)^B0 / {GRID_PAD:g} = {lo:.3g} at Q={Q!r}, B0={B0} "
            "is not a positive normal double; no odds grid reaches it"
        )
    # Not GRID_PAD * up_cascade_bound(Q): that rounds differently and
    # would move every grid point.
    hi = GRID_PAD * Q / (1.0 - Q)
    return np.exp(np.linspace(math.log(lo), math.log(hi), size))


@dataclass(frozen=True)
class Candidate:
    """One best-reply threshold candidate at a state."""

    x: float
    kind: str
    utility: float
    residual: float


@dataclass(frozen=True)
class RootSet:
    """Every candidate at a state, with the equilibrium the engine selects.

    candidates[selected] is the equilibrium threshold; tie flags a
    discriminator tie between distinct thresholds there; pi is the state's
    completion probability (pi_0, pi_1) under that selection.
    """

    state: GameState
    candidates: tuple[Candidate, ...]
    selected: int
    tie: bool
    pi: tuple[float, float]


class PolicyRow:
    """Solved thresholds and completion probabilities for one (B, n).

    Queries interpolate the knots L linearly in log odds and clamp beyond
    the end knots.  The plateau invariant: the row holds a knot exactly at
    the up-cascade bound Q/(1-Q) (`_row_points`), and every knot at or
    above it holds sigma = 1-Q and pi0 = pi1 = 1.0 exactly (investing for
    every type keeps the odds there, with tails 1 and 0 and a child that
    completes surely), so queries at or above the bound read pi (1, 1)
    and ratio 1.0 from the knots alone.
    """

    def __init__(self, B, n, L, sigma, pi0, pi1, irregular):
        self.B = B
        self.n = n
        self.L = L
        self.logL = np.log(L)
        self.sigma = sigma
        self.pi0 = pi0
        self.pi1 = pi1
        self.irregular = irregular
        # Highest stored odds with zero completion chance; queries at or
        # below it are dead states.  The solver places a grid point at the
        # analytic bound, so this frontier is sharp, and every row has one.
        self.dead_frontier = float(L[np.nonzero(pi1 == 0.0)[0][-1]])
        live = pi1 > 0.0
        self._live_logL = self.logL[live]
        self._live_logratio = np.log(np.maximum(pi0[live], 1e-300) / pi1[live])
        self._logratio_lo, self._logratio_hi = roots._range_tables(self._live_logratio)

    def sigma_at(self, L):
        return _answer(np.interp(np.log(np.asarray(L, dtype=float)), self.logL, self.sigma))

    def pi_at(self, L):
        logq = np.log(np.asarray(L, dtype=float))
        p0 = np.interp(logq, self.logL, self.pi0)
        return _answer(p0), _answer(np.interp(logq, self.logL, self.pi1))

    def ratio_at(self, L):
        """Completion-odds ratio pi0/pi1; +inf where completion is impossible."""
        La = np.asarray(L, dtype=float)
        out = np.exp(np.interp(np.log(La), self._live_logL, self._live_logratio))
        return _answer(np.where(La <= self.dead_frontier, np.inf, out))

    def ratio_bounds(self, lo, hi):
        """Elementwise (rmin, rmax) of what `ratio_at` returns at live queries in [lo, hi].

        The interpolated log ratio at a query lies between the knot values
        that enclose it, so a range min/max over the enclosing knots, widened
        by one knot each side against rounding in the log and the search,
        bounds it (two spans of the row's `roots._range_tables`).  An
        interval at or below the dead frontier gives (inf, inf).
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        K = self._live_logL.size
        i0 = np.clip(np.searchsorted(self._live_logL, np.log(lo), side="right") - 2, 0, K - 1)
        i1 = np.clip(np.searchsorted(self._live_logL, np.log(hi), side="left") + 1, 0, K - 1)
        t = np.frexp(i1 - i0 + 1)[1] - 1
        i2 = i1 - (1 << t) + 1
        rmin = np.exp(np.minimum(self._logratio_lo[t, i0], self._logratio_lo[t, i2]))
        rmax = np.exp(np.maximum(self._logratio_hi[t, i0], self._logratio_hi[t, i2]))
        dead = hi <= self.dead_frontier
        return np.where(dead, np.inf, rmin), np.where(dead, np.inf, rmax)

    def irregular_at(self, L):
        La = np.asarray(L, dtype=float)
        idx = np.clip(
            np.searchsorted(self.logL, np.log(La)), 0, len(self.logL) - 1
        )
        return _answer(self.irregular[idx])


def _trace_signatures(rows, dist, xflat, Lp_flat, n):
    """Continuation multiset for each candidate of a B = n row: the
    candidate, then the all-invest path of the stored diagonal rows from
    its invest child's odds."""
    path, _ = roots.invest_path(
        dist, Lp_flat, range(n - 1, 0, -1), lambda L, m: (rows[(m, m)].sigma_at(L), False)
    )
    return np.sort(np.column_stack((xflat, path)), axis=1)


def _solve_states(table, B, n, Ls):
    """Solve live state (B, n) at each odds point of Ls (roots.solve_states),
    with B = n candidates grouped by their continuation multisets."""
    dist = table.dist
    inv, dec = table.view(B - 1, n - 1), table.view(B, n - 1)
    signatures = partial(_trace_signatures, table.rows, dist, n=n) if B == n and n >= 2 else None
    return roots.solve_states(dist, inv, dec, Ls, SCAN_POINTS, signatures)


def _solve_row(table, B, n, Lpts):
    ch, pi0, pi1, irregular = _solve_states(table, B, n, Lpts)
    sigma = ch.x[ch.sel]
    interior = ch.kind[ch.sel] == roots.KINDS.index(KIND_INTERIOR)
    if np.any(interior):
        inv = table.view(B - 1, n - 1)
        at = ch.sel[interior]
        res = roots.gap_at(inv.ratio_at, Lpts[interior], ch.x[at], ch.Lp[at])
        scale = np.maximum(1.0, Lpts[interior])
        if np.any(~(np.abs(res) <= RESIDUAL_TOL * scale)):
            worst = float(np.nanmax(np.abs(res) / scale))
            raise ModelViolationError(
                f"interior root residual {worst:.3e} exceeds tolerance on row "
                f"(B={B}, n={n})"
            )

    return PolicyRow(B, n, Lpts, sigma, pi0, pi1, irregular)


class PolicyTable:
    """Solved policy rows for every (B, n) reachable from (B0, n0).

    `view(B, n)` gives what answers the queries at a state: at a terminal
    state the convention `roots.terminal` gives, and otherwise the stored
    row.  B <= 0 means the drive has already filled, so movers bet on
    private beliefs alone (sigma = 1/(1+L), pi = 1); B > n means the drive
    cannot fill, nobody invests (sigma = Q, pi = 0).  At (1, 1) it is the
    closed-form last mover (`roots.LastMover`), for the table's queries
    and for a parent row's solve alike, with one exception: the
    continuation multisets that group a B = n row's candidates
    (_trace_signatures) interpolate the stored (1, 1) row's sigma, as they
    do the other rows of the multiset.  At every B = 1 the mover's own
    investment fills the drive, so she bets on the world alone: a stored
    (1, n) row holds the closed-form cut at its points (roots.solve_states
    solves a pivotal state in closed form), and `sigma` takes the closed
    form between them too.  Her pi and ratio at n >= 2 still depend on
    later movers and come from the stored row.  Every query gives Python
    scalars for a scalar L.
    """

    def __init__(self, dist, rows):
        self.dist = dist
        self.rows = rows

    def row(self, B: int, n: int) -> PolicyRow:
        try:
            return self.rows[(B, n)]
        except KeyError:
            raise ModelViolationError(f"row (B={B}, n={n}) is not in the table") from None

    def view(self, B: int, n: int) -> PolicyRow | roots.Settled:
        """What answers the queries at state (B, n) (class docstring)."""
        return roots.terminal(self.dist, B, n) or self.row(B, n)

    def sigma(self, L, B: int, n: int):
        if B == 1 and n >= 1:
            B, n = 1, 1  # the closed form: exact, no grid error (class docstring)
        return self.view(B, n).sigma_at(L)

    def pi(self, L, B: int, n: int):
        return self.view(B, n).pi_at(L)

    def ratio(self, L, B: int, n: int):
        """Completion-odds ratio pi0/pi1; +inf where completion is impossible."""
        return self.view(B, n).ratio_at(L)

    def irregular_at(self, L, B: int, n: int):
        return self.view(B, n).irregular_at(L)

    def iter_rows(self):
        for (B, n) in sorted(self.rows):
            yield B, n, self.rows[(B, n)]


def _row_points(grid: np.ndarray, Q: float, B: int) -> np.ndarray:
    """Grid points plus anchors at the analytic cascade bounds for this row."""
    up = up_cascade_bound(Q)
    dead = down_cascade_bound(Q, B)
    offs = np.array([1e-9, 1e-6, 1e-3, 3e-2])
    extra = np.concatenate(
        (
            [dead, up],
            dead * (1.0 + offs),
            dead * (1.0 - offs),
            up * (1.0 - offs),
            up * (1.0 + offs),
        )
    )
    extra = extra[(extra >= grid[0]) & (extra <= grid[-1])]
    # np.unique's points, without its first call's import of numpy.ma
    # (10-30 ms of a solve), which nothing here needs.
    pts = np.sort(np.concatenate((grid, extra)))
    return pts[np.concatenate(([True], pts[1:] != pts[:-1]))]


def backward_induction(
    dist: TypeDistribution,
    B0: int,
    n0: int,
    grid_size: int = 2001,
) -> PolicyTable:
    """Solve every row reachable from (B0, n0), in ascending n.

    The rows are solved on the spanning grid of `grid_size` points.
    """
    if not (1 <= B0 <= n0 <= MAX_PLAYERS):
        raise DomainError(f"need 1 <= B0 <= n0 <= {MAX_PLAYERS}")
    if grid_size < 16:
        raise DomainError("grid_size must be at least 16")
    grid = _spanning_grid(dist.Q, B0, grid_size)

    rows: dict[tuple[int, int], PolicyRow] = {}
    table = PolicyTable(dist, rows)
    for n in range(1, n0 + 1):
        b_lo = max(1, B0 - (n0 - n))
        for B in range(b_lo, min(B0, n) + 1):
            rows[(B, n)] = _solve_row(table, B, n, _row_points(grid, dist.Q, B))
    return table


# -- state-level operations -------------------------------------------------


def find_roots(state: GameState, policy: PolicyTable) -> RootSet:
    """All candidate thresholds at the state, with the engine's selection.

    Each candidate carries its expected utility and its residual G(x),
    +inf where its invest child cannot complete.
    """
    if not (1 <= state.B <= state.n):
        raise DomainError("find_roots needs a live state with 1 <= B <= n")
    ch, pi0, pi1, _ = _solve_states(policy, state.B, state.n, np.array([state.L]))
    inv = policy.view(state.B - 1, state.n - 1)
    g = roots.gap_at(inv.ratio_at, state.L, ch.x, ch.Lp)
    res = np.where(np.isnan(g), np.inf, g)
    cands = tuple(
        Candidate(x=float(x), kind=roots.KINDS[k], utility=float(u), residual=float(r))
        for x, k, u, r in zip(ch.x, ch.kind, ch.U, res)
    )
    return RootSet(state, cands, int(ch.sel[0]), bool(ch.tie[0]), (float(pi0[0]), float(pi1[0])))


def completion_prob(state: GameState, policy: PolicyTable) -> tuple[float, float]:
    """Completion probability by world state under equilibrium play."""
    if state.B <= 0 or state.B > state.n:
        return policy.pi(state.L, state.B, state.n)
    return find_roots(state, policy).pi


def pi_ordering_scan(policy: PolicyTable) -> dict:
    """Scan every stored state for completion odds favoring the bad world.

    Completion ought never be likelier when the project is bad, but that
    ordering is unproven for partial-requirement games, so the scan
    reports offending states instead of asserting.
    """
    tol = 1e-9
    violations = []
    checked = 0
    for B, n, row in policy.iter_rows():
        checked += row.L.size
        mask = row.pi1 < row.pi0 - tol
        for L, p0, p1 in zip(row.L[mask], row.pi0[mask], row.pi1[mask]):
            violations.append(
                {"B": B, "n": n, "L": float(L), "pi0": float(p0), "pi1": float(p1)}
            )
    return {"states_checked": checked, "tolerance": tol, "violations": violations}
