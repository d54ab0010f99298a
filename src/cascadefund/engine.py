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
sharply.  Row queries interpolate linearly in log odds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from cascadefund import roots
from cascadefund.beliefs import (
    DomainError,
    OutOfSupportWarning,
    TypeDistribution,
)
from cascadefund.roots import KIND_INTERIOR, ModelViolationError

__all__ = [
    "Candidate",
    "GameState",
    "LikelihoodGrid",
    "ModelViolationError",
    "PolicyRow",
    "PolicyTable",
    "RootSet",
    "SolverSettings",
    "backward_induction",
    "completion_prob",
    "discriminator",
    "expected_utility",
    "find_roots",
    "indifference_residual",
    "last_mover_threshold",
    "pi_ordering_scan",
    "select_equilibrium",
]

MAX_PLAYERS = 50

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


@dataclass(frozen=True)
class SolverSettings:
    grid_size: int = 2001
    scan_points: int = 4001
    root_xtol: float = 1e-12
    residual_tol: float = 1e-9
    tie_rel_tol: float = 1e-9
    grid_pad: float = 10.0
    # Candidates whose continuation multisets agree within this absolute
    # spread are treated as the same equilibrium outcome (B = n rows).
    multiset_tol: float = 1e-5

    def __post_init__(self) -> None:
        if self.grid_size < 16 or self.scan_points < 16:
            raise DomainError("grid_size and scan_points must be at least 16")
        if self.grid_pad <= 1.0:
            raise DomainError("grid_pad must exceed 1")


class LikelihoodGrid:
    """Strictly increasing positive odds points, uniform in log odds."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise DomainError("grid needs at least two points")
        if np.any(~np.isfinite(pts)) or np.any(pts <= 0) or np.any(np.diff(pts) <= 0):
            raise DomainError("grid points must be finite, positive, increasing")
        self.points = pts
        self.log_points = np.log(pts)

    @classmethod
    def spanning(cls, Q: float, B0: int, size: int = 2001, pad: float = 10.0):
        """Grid covering every state reachable from odds inside the bounds."""
        lo = ((1.0 - Q) / Q) ** B0 / pad
        hi = pad * Q / (1.0 - Q)
        return cls(np.exp(np.linspace(math.log(lo), math.log(hi), size)))

    @property
    def lo(self) -> float:
        return float(self.points[0])

    @property
    def hi(self) -> float:
        return float(self.points[-1])


@dataclass(frozen=True)
class Candidate:
    """One best-reply threshold candidate at a state."""

    x: float
    kind: str
    utility: float
    residual: float
    discriminator: float = math.nan


@dataclass(frozen=True)
class RootSet:
    state: GameState
    candidates: tuple[Candidate, ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ModelViolationError(f"no candidate thresholds at {self.state}")


def last_mover_threshold(L):
    """Threshold of a pivotal last mover: invest iff private odds favor good."""
    La = np.asarray(L, dtype=float)
    if np.any(~np.isfinite(La)) or np.any(La <= 0):
        raise DomainError("likelihood must be finite and positive")
    out = 1.0 / (1.0 + La)
    return float(out) if out.ndim == 0 else out


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
        self.up_bound = Q / (1.0 - Q)
        dead = np.nonzero(pi1 == 0.0)[0]
        # Highest stored odds with zero completion chance; queries at or
        # below it are dead states.  The solver places a grid point at the
        # analytic bound, so this frontier is sharp.
        self.dead_frontier = float(L[dead[-1]]) if dead.size else None
        live = pi1 > 0.0
        self._live_logL = self.logL[live]
        self._live_logratio = np.log(np.maximum(pi0[live], 1e-300) / pi1[live])
        self._live_pi0 = pi0[live]
        self._live_pi1 = pi1[live]
        self._logratio_lo, self._logratio_hi = _range_tables(self._live_logratio)

    def _outside(self, lo, hi):
        """Where odds intervals [lo, hi] reach live odds outside the stored span."""
        # Clamping is exact inside the plateaus (at or above the up-cascade
        # bound, at or below the dead frontier); only a live query outside
        # the stored span can be distorted, so only that warns.
        above = (hi > self.L[-1] * (1 + 1e-12)) & (lo < self.up_bound)
        below = lo < self.L[0] * (1 - 1e-12)
        if self.dead_frontier is not None:
            below &= hi > self.dead_frontier
        return above | below

    def _warn_if_outside(self, La) -> None:
        if np.any(self._outside(La, La)):
            warnings.warn(
                f"live odds query outside the solved grid for row (B={self.B}, "
                f"n={self.n}) was clamped",
                OutOfSupportWarning,
                stacklevel=3,
            )

    def sigma_at(self, L):
        La = np.asarray(L, dtype=float)
        self._warn_if_outside(La)
        out = np.interp(np.log(La), self.logL, self.sigma)
        return float(out) if out.ndim == 0 else out

    def pi_at(self, L):
        La = np.asarray(L, dtype=float)
        self._warn_if_outside(La)
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
        self._warn_if_outside(La)
        out = np.exp(np.interp(np.log(La), self._live_logL, self._live_logratio))
        out = np.where(La >= self.up_bound, 1.0, out)
        if self.dead_frontier is not None:
            out = np.where(La <= self.dead_frontier, np.inf, out)
        return float(out) if out.ndim == 0 else out

    def ratio_bounds(self, lo, hi):
        """Elementwise (rmin, rmax) of what `ratio_at` returns at live queries in [lo, hi].

        The interpolated log ratio at a query lies between the knot values
        that enclose it, so a range min/max over the enclosing knots, widened
        by one knot each side against rounding in the log and the search,
        bounds it; 1.0 joins where the interval reaches the up-cascade bound.
        An interval at or below the dead frontier holds no live query and
        gives (inf, inf).  An interval that reaches odds where `ratio_at`
        would warn gives (nan, nan): no bound, so the caller evaluates it.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        K = self._live_logL.size
        if K == 0:
            return np.full(lo.shape, np.nan), np.full(hi.shape, np.nan)
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
        if self.dead_frontier is not None:
            dead = hi <= self.dead_frontier
            rmin = np.where(dead, np.inf, rmin)
            rmax = np.where(dead, np.inf, rmax)
        warns = self._outside(lo, hi)
        return np.where(warns, np.nan, rmin), np.where(warns, np.nan, rmax)

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


class _StateView:
    """Uniform query surface over a solved row or a terminal convention.

    "won" (B <= 0): the drive has filled, movers bet on private beliefs
    alone and completion is certain.  "dead" (B > n): the drive cannot
    fill, nobody invests and completion is impossible.  "last" (B = n = 1):
    a sole remaining pivotal mover, evaluated in closed form rather than
    from a stored row, so parents of that state carry no interpolation
    error.  "row": a solved table row.
    """

    def __init__(self, kind: str, dist, row: PolicyRow | None = None):
        if kind not in ("row", "won", "dead", "last"):
            raise ValueError(kind)
        self.kind = kind
        self.dist = dist
        self.row = row

    def _last_pi(self, La):
        s = roots.pivotal_threshold(self.dist, La)
        return np.asarray(self.dist.sf(0, s), dtype=float), np.asarray(
            self.dist.sf(1, s), dtype=float
        )

    def sigma(self, L):
        La = np.asarray(L, dtype=float)
        if self.kind in ("won", "last"):
            out = roots.pivotal_threshold(self.dist, La)
        elif self.kind == "dead":
            out = np.full_like(La, self.dist.Q)
        else:
            out = self.row.sigma_at(La)
        return float(out) if np.ndim(out) == 0 else out

    def ratio(self, L):
        La = np.asarray(L, dtype=float)
        if self.kind == "won":
            out = np.ones_like(La)
        elif self.kind == "dead":
            out = np.full_like(La, np.inf)
        elif self.kind == "last":
            p0, p1 = self._last_pi(La)
            out = np.divide(
                p0, p1, out=np.full_like(p1, np.inf), where=p1 > 0.0
            )
        else:
            out = self.row.ratio_at(La)
        return float(out) if np.ndim(out) == 0 else out

    @property
    def ratio_bounds(self):
        """Callable bounding `ratio` over odds intervals, or None without one.

        The closed-form last mover and the dead convention offer none, so
        their parents keep the dense scan.
        """
        if self.kind == "row":
            return self.row.ratio_bounds
        if self.kind == "won":
            return lambda lo, hi: (np.ones_like(lo), np.ones_like(hi))
        return None

    def pi(self, L):
        La = np.asarray(L, dtype=float)
        if self.kind == "won":
            z = np.ones_like(La)
            return (z, z.copy()) if La.ndim else (1.0, 1.0)
        if self.kind == "dead":
            z = np.zeros_like(La)
            return (z, z.copy()) if La.ndim else (0.0, 0.0)
        if self.kind == "last":
            p0, p1 = self._last_pi(La)
            if La.ndim == 0:
                return float(p0), float(p1)
            return p0, p1
        return self.row.pi_at(La)

    def irregular(self, L):
        if self.kind != "row":
            La = np.asarray(L)
            out = np.zeros(La.shape, dtype=bool)
            return bool(out) if La.ndim == 0 else out
        return self.row.irregular_at(L)


def _trace_signatures(rows, dist, xflat, Lp_flat, n):
    """Continuation multiset for each candidate of a B = n row."""
    F = len(xflat)
    sig = np.empty((F, n))
    sig[:, 0] = xflat
    Lc = Lp_flat.copy()
    for col, m in enumerate(range(n - 1, 0, -1), start=1):
        xm = rows[(m, m)].sigma_at(Lc)
        sig[:, col] = xm
        Lc = Lc * dist.lr_upper_tail(xm)
    return np.sort(sig, axis=1)


def _candidates(dist, inv_view, Lpts, settings):
    # Scan blocks of 8,192 elements (two states at the default 4,001 scan
    # points) keep every scan temporary under glibc's 128 KiB mmap
    # threshold, so the blocks reuse heap memory instead of mapping fresh
    # pages: 512-state blocks took ~60k minor page faults and 240 MB on a
    # (3, 8) grid-513 build, 64-state blocks ~108k faults.
    return roots.candidates(
        dist,
        inv_view.ratio,
        Lpts,
        settings.scan_points,
        settings.root_xtol,
        8_192,
        inv_view.ratio_bounds,
    )


def _solve_row(dist, B, n, Lpts, inv_view, dec_view, settings, rows):
    signatures = partial(_trace_signatures, rows, dist, n=n) if B == n and n >= 2 else None
    ch = roots.choose(
        dist,
        Lpts,
        _candidates(dist, inv_view, Lpts, settings),
        inv_view.pi,
        settings.tie_rel_tol,
        signatures,
        settings.multiset_tol,
    )
    sel = ch.sel
    sigma = ch.x[sel]
    T0, T1 = ch.T0[sel], ch.T1[sel]
    F0, F1 = dist.cdf(0, sigma), dist.cdf(1, sigma)
    Lm = Lpts * dist.lr_lower_tail(sigma)
    p0m, p1m = dec_view.pi(Lm)
    pi0 = T0 * ch.p0c[sel] + F0 * p0m
    pi1 = T1 * ch.p1c[sel] + F1 * p1m

    irregular = ch.tie.copy()
    irregular |= ((T0 + T1) > 0.0) & np.asarray(inv_view.irregular(ch.Lp[sel]))
    irregular |= ((F0 + F1) > 0.0) & np.asarray(dec_view.irregular(Lm))

    interior = np.array([ch.kinds[i] == KIND_INTERIOR for i in sel])
    if np.any(interior):
        res = roots.gap(dist, inv_view.ratio, Lpts[interior], sigma[interior])
        scale = np.maximum(1.0, Lpts[interior])
        if np.any(~(np.abs(res) <= settings.residual_tol * scale)):
            worst = float(np.nanmax(np.abs(res) / scale))
            raise ModelViolationError(
                f"interior root residual {worst:.3e} exceeds tolerance on row "
                f"(B={B}, n={n})"
            )

    return PolicyRow(B, n, Lpts, sigma, pi0, pi1, irregular, dist.Q)


class PolicyTable:
    """Solved policy rows for every (B, n) reachable from (B0, n0).

    Queries outside stored rows use the terminal conventions: B <= 0 means
    the drive has already filled, so movers bet on private beliefs alone
    (sigma = 1/(1+L), pi = 1); B > n means the drive cannot fill, nobody
    invests (sigma = Q, pi = 0).
    """

    def __init__(self, dist, grid, settings, rows, B0, n0):
        self.dist = dist
        self.grid = grid
        self.settings = settings
        self.rows = rows
        self.B0 = B0
        self.n0 = n0

    @property
    def Q(self) -> float:
        return self.dist.Q

    def row(self, B: int, n: int) -> PolicyRow:
        try:
            return self.rows[(B, n)]
        except KeyError:
            raise ModelViolationError(f"row (B={B}, n={n}) is not in the table") from None

    def _view(self, B: int, n: int) -> _StateView:
        if B <= 0:
            return _StateView("won", self.dist)
        if B > n:
            return _StateView("dead", self.dist)
        return _StateView("row", self.dist, self.row(B, n))

    def sigma(self, L, B: int, n: int):
        if B == 1 and n >= 1:
            # Needing one more investment decouples the mover from the
            # future, as for a sole pivotal mover.  Exact, no grid error.
            return _StateView("last", self.dist).sigma(L)
        return self._view(B, n).sigma(L)

    def pi(self, L, B: int, n: int):
        return self._view(B, n).pi(L)

    def ratio(self, L, B: int, n: int):
        return self._view(B, n).ratio(L)

    def irregular_at(self, L, B: int, n: int):
        return self._view(B, n).irregular(L)

    def child_views(self, B: int, n: int) -> tuple[_StateView, _StateView]:
        """Invest child (B-1, n-1) and decline child (B, n-1) query views.

        A (1, 1) child is the closed-form last mover; table queries at
        (1, 1) still read the stored row.
        """

        def view(Bc: int, nc: int) -> _StateView:
            if (Bc, nc) == (1, 1):
                return _StateView("last", self.dist)
            return self._view(Bc, nc)

        return view(B - 1, n - 1), view(B, n - 1)

    def iter_rows(self):
        for (B, n) in sorted(self.rows):
            yield B, n, self.rows[(B, n)]


def _row_points(grid: LikelihoodGrid, Q: float, B: int) -> np.ndarray:
    """Grid points plus anchors at the analytic cascade bounds for this row."""
    up = Q / (1.0 - Q)
    dead = ((1.0 - Q) / Q) ** B
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
    extra = extra[(extra >= grid.lo) & (extra <= grid.hi)]
    return np.unique(np.concatenate((grid.points, extra)))


def backward_induction(
    dist: TypeDistribution,
    B0: int,
    n0: int,
    grid: LikelihoodGrid | None = None,
    settings: SolverSettings | None = None,
) -> PolicyTable:
    """Solve every row reachable from (B0, n0), in ascending n."""
    if not (1 <= B0 <= n0 <= MAX_PLAYERS):
        raise DomainError(f"need 1 <= B0 <= n0 <= {MAX_PLAYERS}")
    settings = settings or SolverSettings()
    grid = grid or LikelihoodGrid.spanning(dist.Q, B0, settings.grid_size, settings.grid_pad)

    rows: dict[tuple[int, int], PolicyRow] = {}
    table = PolicyTable(dist, grid, settings, rows, B0, n0)
    for n in range(1, n0 + 1):
        b_lo = max(1, B0 - (n0 - n))
        for B in range(b_lo, min(B0, n) + 1):
            inv_view, dec_view = table.child_views(B, n)
            Lpts = _row_points(grid, dist.Q, B)
            rows[(B, n)] = _solve_row(
                dist, B, n, Lpts, inv_view, dec_view, settings, rows
            )
    return table


# -- state-level operations -------------------------------------------------


def indifference_residual(x: float, state: GameState, policy: PolicyTable) -> float:
    """G(x) at the state; +inf when the invest child cannot complete."""
    inv_view, _ = policy.child_views(state.B, state.n)
    g = roots.gap(policy.dist, inv_view.ratio, state.L, float(x))
    val = float(np.asarray(g))
    return math.inf if math.isnan(val) else val


def expected_utility(x: float, state: GameState, policy: PolicyTable) -> float:
    """Mover's ex-ante utility of playing threshold x at the state."""
    dist = policy.dist
    inv_view, _ = policy.child_views(state.B, state.n)
    T1 = dist.sf(1, float(x))
    T0 = dist.sf(0, float(x))
    Lp = state.L * dist.lr_upper_tail(float(x))
    p0c, p1c = inv_view.pi(Lp)
    lam = state.L / (1.0 + state.L)
    return float(lam * T1 * p1c - (1.0 - lam) * T0 * p0c)


def find_roots(state: GameState, policy: PolicyTable) -> RootSet:
    """All candidate thresholds at the state, with utilities attached."""
    if not (1 <= state.B <= state.n):
        raise DomainError("find_roots needs a live state with 1 <= B <= n")
    dist = policy.dist
    inv_view, _ = policy.child_views(state.B, state.n)
    cands = _candidates(dist, inv_view, np.array([state.L]), policy.settings)[0]
    out = []
    for x, kind in cands:
        res = indifference_residual(x, state, policy)
        out.append(
            Candidate(
                x=x,
                kind=kind,
                utility=expected_utility(x, state, policy),
                residual=res,
            )
        )
    rs = RootSet(state=state, candidates=tuple(out))
    if len(out) >= 2:
        enriched = tuple(
            replace(c, discriminator=discriminator(i, rs, state, policy))
            for i, c in enumerate(out)
        )
        rs = RootSet(state=state, candidates=enriched)
    return rs


def discriminator(i: int, root_set: RootSet, state: GameState, policy: PolicyTable) -> float:
    """Tie-break score of candidate i against the other candidates.

    A vanishing tremble by the next movers makes the mover strictly prefer
    the candidate whose continuation performs best against the toughest
    rival threshold; equal thresholds give equal scores by construction.
    """
    cands = root_set.candidates
    if len(cands) < 2:
        raise DomainError("discriminator needs at least two candidates")
    dist = policy.dist
    inv_view, _ = policy.child_views(state.B, state.n)
    xi = cands[i].x
    Lp = state.L * dist.lr_upper_tail(xi)
    p0c, p1c = inv_view.pi(Lp)
    vals = []
    for j, cj in enumerate(cands):
        if j == i:
            continue
        vals.append(
            state.L * p1c * dist.sf(1, cj.x) - p0c * dist.sf(0, cj.x)
        )
    return float(max(vals))


def select_equilibrium(
    root_set: RootSet, state: GameState, policy: PolicyTable
) -> tuple[float, bool]:
    """Equilibrium threshold at the state plus an irregularity flag.

    Highest expected utility wins; within tolerance ties the discriminator
    decides, and a discriminator tie between distinct thresholds marks the
    state irregular (the tie-break refinement has no unique selection).
    """
    dist = policy.dist
    inv_view, _ = policy.child_views(state.B, state.n)
    cands = root_set.candidates
    xs = np.array([c.x for c in cands])
    U = np.array([c.utility for c in cands])
    T1 = dist.sf(1, xs)
    T0 = dist.sf(0, xs)
    Lp = state.L * dist.lr_upper_tail(xs)
    p0c, p1c = inv_view.pi(Lp)
    p0c = np.atleast_1d(p0c)
    p1c = np.atleast_1d(p1c)
    sigs = None
    if state.B == state.n and state.n >= 2:
        sigs = _trace_signatures(policy.rows, dist, xs, np.atleast_1d(Lp), state.n)
    settings = policy.settings
    idx, tie_irr = roots.select(
        xs, U, state.L, T1, T0, p0c, p1c, settings.tie_rel_tol, sigs, settings.multiset_tol
    )
    return float(xs[idx]), bool(tie_irr)


def completion_prob(
    state: GameState, policy: PolicyTable, x: float | None = None
) -> tuple[float, float]:
    """Completion probability by world state under equilibrium play.

    Solves the state's threshold on the fly unless x is supplied.
    """
    if state.B <= 0 or state.B > state.n:
        return policy.pi(state.L, state.B, state.n)
    if x is None:
        x, _ = select_equilibrium(find_roots(state, policy), state, policy)
    dist = policy.dist
    inv_view, dec_view = policy.child_views(state.B, state.n)
    T1 = dist.sf(1, x)
    T0 = dist.sf(0, x)
    Lp = state.L * dist.lr_upper_tail(x)
    p0c, p1c = inv_view.pi(Lp)
    Lm = state.L * dist.lr_lower_tail(x)
    p0m, p1m = dec_view.pi(Lm)
    pi0 = T0 * p0c + dist.cdf(0, x) * p0m
    pi1 = T1 * p1c + dist.cdf(1, x) * p1m
    return float(pi0), float(pi1)


def pi_ordering_scan(policy: PolicyTable, tol: float = 1e-9) -> dict:
    """Scan every stored state for completion odds favoring the bad world.

    Completion ought never be likelier when the project is bad, but that
    ordering is unproven for partial-requirement games, so the scan
    reports offending states instead of asserting.
    """
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
