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
there too marks the state irregular.  Root finding and selection live in
cascadefund.roots; this module supplies the child rows they evaluate.

Tables are solved bottom-up in n on a log-odds grid wide enough to hold
every reachable state, with extra grid points pinned at the analytic
cascade bounds so the all-invest and all-decline plateaus are resolved
sharply.  Every state answers the same five queries (`sigma_at`,
`pi_at`, `ratio_at`, `ratio_bounds`, `irregular_at`): a stored
`PolicyRow` interpolates linearly in log odds, `_Settled` holds the
conventions of a filled or unfillable drive, and the state (1, 1) is the
closed-form last mover of cascadefund.roots (`roots.LastMover`, which
the exact ladder's two-player steps read too), for table queries and
parent rows alike, except where a B = n row groups its candidates.
`PolicyTable.view` picks the one for a state.
The only setting is the number of grid points (`backward_induction`);
the root tolerances are those of cascadefund.roots.

One path solves live states, `_solve_states`: candidates and selection
from cascadefund.roots, then the completion recurrence and the irregular
flags, for a whole table row or for one state.  `find_roots` and
`completion_prob` are that solve at one state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from cascadefund import roots
from cascadefund.beliefs import DomainError, TypeDistribution
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
    """Solved thresholds and completion probabilities for one (B, n)."""

    def __init__(self, B, n, L, sigma, pi0, pi1, irregular, Q):
        self.B = B
        self.n = n
        self.L = L
        self.logL = np.log(L)
        self.sigma = sigma
        self.pi0 = pi0
        self.pi1 = pi1
        self.irregular = irregular
        self.Q = Q
        self.up_bound = up_cascade_bound(Q)
        # Highest stored odds with zero completion chance; queries at or
        # below it are dead states.  The solver places a grid point at the
        # analytic bound, so this frontier is sharp, and every row has one.
        self.dead_frontier = float(L[np.nonzero(pi1 == 0.0)[0][-1]])
        live = pi1 > 0.0
        self._live_logL = self.logL[live]
        self._live_logratio = np.log(np.maximum(pi0[live], 1e-300) / pi1[live])
        self._logratio_lo, self._logratio_hi = _range_tables(self._live_logratio)

    def sigma_at(self, L):
        La = np.asarray(L, dtype=float)
        out = np.interp(np.log(La), self.logL, self.sigma)
        return float(out) if out.ndim == 0 else out

    def pi_at(self, L):
        La = np.asarray(L, dtype=float)
        logq = np.log(La)
        p0 = np.interp(logq, self.logL, self.pi0)
        p1 = np.interp(logq, self.logL, self.pi1)
        up = La >= self.up_bound
        p0 = np.where(up, 1.0, p0)
        p1 = np.where(up, 1.0, p1)
        if p0.ndim == 0:
            return float(p0), float(p1)
        return p0, p1

    def ratio_at(self, L):
        """Completion-odds ratio pi0/pi1; +inf where completion is impossible."""
        La = np.asarray(L, dtype=float)
        out = np.exp(np.interp(np.log(La), self._live_logL, self._live_logratio))
        out = np.where(La >= self.up_bound, 1.0, out)
        out = np.where(La <= self.dead_frontier, np.inf, out)
        return float(out) if out.ndim == 0 else out

    def ratio_bounds(self, lo, hi):
        """Elementwise (rmin, rmax) of what `ratio_at` returns at live queries in [lo, hi].

        The interpolated log ratio at a query lies between the knot values
        that enclose it, so a range min/max over the enclosing knots, widened
        by one knot each side against rounding in the log and the search,
        bounds it; 1.0 joins where the interval reaches the up-cascade bound.
        An interval at or below the dead frontier holds no live query and
        gives (inf, inf).
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        K = self._live_logL.size
        i0 = np.clip(np.searchsorted(self._live_logL, np.log(lo), side="right") - 2, 0, K - 1)
        i1 = np.clip(np.searchsorted(self._live_logL, np.log(hi), side="left") + 1, 0, K - 1)
        # Sparse-table query: two overlapping power-of-two spans cover [i0, i1].
        t = np.frexp(i1 - i0 + 1)[1] - 1
        i2 = i1 - (1 << t) + 1
        rmin = np.exp(np.minimum(self._logratio_lo[t, i0], self._logratio_lo[t, i2]))
        rmax = np.exp(np.maximum(self._logratio_hi[t, i0], self._logratio_hi[t, i2]))
        up = hi >= self.up_bound
        rmin = np.where(up, np.minimum(rmin, 1.0), rmin)
        rmax = np.where(up, np.maximum(rmax, 1.0), rmax)
        dead = hi <= self.dead_frontier
        return np.where(dead, np.inf, rmin), np.where(dead, np.inf, rmax)

    def irregular_at(self, L):
        La = np.asarray(L, dtype=float)
        idx = np.clip(
            np.searchsorted(self.logL, np.log(La)), 0, len(self.logL) - 1
        )
        out = self.irregular[idx]
        return bool(out) if out.ndim == 0 else out


def _range_tables(v):
    """Sparse tables of running minima and maxima of v over power-of-two spans.

    Row t holds the min (max) of v[i : i + 2**t]; entries whose span runs
    past the end are padding that no query reads.
    """
    lo, hi = [v], [v]
    w = 1
    while 2 * w <= v.size:
        lo.append(np.concatenate((np.minimum(lo[-1][:-w], lo[-1][w:]), v[-w:])))
        hi.append(np.concatenate((np.maximum(hi[-1][:-w], hi[-1][w:]), v[-w:])))
        w *= 2
    return np.array(lo), np.array(hi)


class _Settled:
    """A drive that has settled, answering the queries of a `PolicyRow`.

    Filled (B <= 0): movers bet on private beliefs alone and completion is
    certain.  Unfillable (B > n): nobody invests and completion is
    impossible.
    """

    def __init__(self, dist, filled: bool):
        self.dist = dist
        self.filled = filled

    def sigma_at(self, L):
        La = np.asarray(L, dtype=float)
        Q = self.dist.Q
        out = roots.pivotal_threshold(self.dist, La) if self.filled else np.full_like(La, Q)
        return float(out) if out.ndim == 0 else out

    def pi_at(self, L):
        p = 1.0 if self.filled else 0.0
        z = np.full_like(np.asarray(L, dtype=float), p)
        return (z, z.copy()) if z.ndim else (p, p)

    def ratio_at(self, L):
        out = np.full_like(np.asarray(L, dtype=float), 1.0 if self.filled else np.inf)
        return float(out) if out.ndim == 0 else out

    def ratio_bounds(self, lo, hi):
        return self.ratio_at(lo), self.ratio_at(hi)

    def irregular_at(self, L):
        out = np.zeros(np.shape(L), dtype=bool)
        return bool(out) if out.ndim == 0 else out


def _trace_signatures(rows, dist, xflat, Lp_flat, n):
    """Continuation multiset for each candidate of a B = n row: the
    candidate, then the all-invest path of the stored diagonal rows from
    its invest child's odds."""
    path, _ = roots.invest_path(
        dist, Lp_flat, range(n - 1, 0, -1), lambda L, m: (rows[(m, m)].sigma_at(L), False)
    )
    return np.sort(np.column_stack((xflat, path)), axis=1)


def _solve_states(table, B, n, Ls):
    """Solve live state (B, n) at each odds point of Ls.

    Candidates and selection come from roots.candidates and roots.choose,
    with B = n candidates grouped by their continuation multisets; then
    the completion recurrence and the irregular flags.  Returns
    (choice, pi0, pi1, irregular), the choice as roots.choose gives it.
    """
    dist = table.dist
    inv, dec = table.view(B - 1, n - 1), table.view(B, n - 1)
    # A scan budget of 8,192 elements keeps every scan temporary under
    # glibc's 128 KiB mmap threshold, so the blocks reuse heap memory
    # instead of mapping fresh pages: the certificate bounds 8,192 groups
    # of cells at a time (a row of 531 states makes 2,600-8,700 queries
    # in all on a (3, 8) grid-513 build), and open cells are evaluated 204
    # at a time.  Dense 512-state blocks took ~60k minor page faults and
    # 240 MB on that build.
    cands = roots.candidates(dist, inv.ratio_at, Ls, SCAN_POINTS, 8_192, inv.ratio_bounds)
    signatures = partial(_trace_signatures, table.rows, dist, n=n) if B == n and n >= 2 else None
    ch = roots.choose(dist, Ls, cands, inv.pi_at, signatures)
    sel = ch.sel
    sigma = ch.x[sel]
    T0, T1 = ch.T0[sel], ch.T1[sel]
    F0, F1 = dist.cdf_pair(sigma)
    Lm = Ls * dist.lr_lower_tail(sigma)
    p0m, p1m = dec.pi_at(Lm)
    pi0 = T0 * ch.p0c[sel] + F0 * p0m
    pi1 = T1 * ch.p1c[sel] + F1 * p1m

    irregular = ch.tie.copy()
    irregular |= ((T0 + T1) > 0.0) & np.asarray(inv.irregular_at(ch.Lp[sel]))
    irregular |= ((F0 + F1) > 0.0) & np.asarray(dec.irregular_at(Lm))
    return ch, pi0, pi1, irregular


def _solve_row(table, B, n, Lpts):
    ch, pi0, pi1, irregular = _solve_states(table, B, n, Lpts)
    sigma = ch.x[ch.sel]
    interior = np.array([ch.kinds[i] == KIND_INTERIOR for i in ch.sel])
    if np.any(interior):
        inv = table.view(B - 1, n - 1)
        res = roots.gap(table.dist, inv.ratio_at, Lpts[interior], sigma[interior])
        scale = np.maximum(1.0, Lpts[interior])
        if np.any(~(np.abs(res) <= RESIDUAL_TOL * scale)):
            worst = float(np.nanmax(np.abs(res) / scale))
            raise ModelViolationError(
                f"interior root residual {worst:.3e} exceeds tolerance on row "
                f"(B={B}, n={n})"
            )

    return PolicyRow(B, n, Lpts, sigma, pi0, pi1, irregular, table.dist.Q)


class PolicyTable:
    """Solved policy rows for every (B, n) reachable from (B0, n0).

    `view(B, n)` gives what answers the queries at a state: the stored
    row, or outside stored rows a terminal convention (`_Settled`).  B <= 0
    means the drive has already filled, so movers bet on private beliefs
    alone (sigma = 1/(1+L), pi = 1); B > n means the drive cannot fill,
    nobody invests (sigma = Q, pi = 0).  At (1, 1) it is the closed-form
    last mover (`roots.LastMover`), for the table's queries and for a parent
    row's solve alike, with one exception: the continuation multisets
    that group a B = n row's candidates (_trace_signatures) interpolate
    the stored (1, 1) row's sigma, as they do the other rows of the
    multiset.  `sigma` takes the closed form at every B = 1: the mover's
    own investment fills the drive, so she bets on the world alone.  Her
    pi and ratio at n >= 2 still depend on later movers and come from the
    stored row.  Every query gives Python scalars for a scalar L.
    """

    def __init__(self, dist, rows):
        self.dist = dist
        self.rows = rows

    def row(self, B: int, n: int) -> PolicyRow:
        try:
            return self.rows[(B, n)]
        except KeyError:
            raise ModelViolationError(f"row (B={B}, n={n}) is not in the table") from None

    def view(self, B: int, n: int) -> PolicyRow | _Settled | roots.LastMover:
        """What answers the queries at state (B, n) (class docstring)."""
        if B <= 0 or B > n:
            return _Settled(self.dist, B <= 0)
        if (B, n) == (1, 1):
            return roots.LastMover(self.dist)
        return self.row(B, n)

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
    g = roots.gap(policy.dist, inv.ratio_at, state.L, ch.x)
    res = np.where(np.isnan(g), np.inf, g)
    cands = tuple(
        Candidate(x=float(x), kind=kind, utility=float(u), residual=float(r))
        for x, kind, u, r in zip(ch.x, ch.kinds, ch.U, res)
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
