"""Best-reply thresholds and equilibrium selection at a set of game states.

Both solvers apply one rule at every state.  The mover's indifference gap

    G(x) = L * x/(1-x) - pi_0/pi_1(L * (1-F_1(x))/(1-F_0(x)))

is scanned on the support for sign changes, each bracket is bisected to a
root, and the playable herd thresholds join the candidates: investing for
every type (x = 1-Q, which keeps the odds at L) and declining for every
type (x = Q).  The candidate with the highest expected utility wins;
utility ties go to the candidate a vanishing tremble favors (the
discriminator), and a tie there too marks the state irregular.

What a solver supplies is how the invest child is evaluated: a
child-ratio callable giving pi_0/pi_1 at child odds (+inf where the child
cannot complete) and a child-pi callable giving (pi_0, pi_1).  The grid
engine passes interpolated table rows, the must-fill ladder exact
recursive solves.

A solver may also supply bounds on its child ratio: a callable mapping
arrays of child-odds intervals [lo, hi] to (rmin, rmax), bounds on every
finite value the child ratio takes at odds in the interval ((inf, inf)
where it takes none, NaN where there is no bound).  The scan then splits
its points into cells of CELL_POINTS points, neighbouring cells sharing
an end point.  Since x/(1-x) increases along the scan, a cell is certified
positive when L * x_first/(1-x_first) > rmax * (1 + CELL_MARGIN) and
negative when L * x_last/(1-x_last) < rmin * (1 - CELL_MARGIN): G then has
one sign (or is undefined) at each of its points, so the cell holds no
sign change and no exact zero.  Only the other cells are evaluated, with
the same expression at the same points as the full scan, so every
bracket, and hence every root, is the same bit for bit.  The engine's
bounds come from child rows' range tables and from the closed-form last
mover's monotone tails (engine._LastMover); the exact must-fill ladder
scans densely.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Choice",
    "KIND_HERD_DECLINE",
    "KIND_HERD_INVEST",
    "KIND_INTERIOR",
    "ModelViolationError",
    "bisect",
    "candidates",
    "choose",
    "completion_ratio",
    "discriminator",
    "gap",
    "herd_flags",
    "pivotal_threshold",
    "rescue_root",
    "scan_roots",
    "select",
]

# Scan points per certified cell (neighbouring cells share an end point),
# and the relative margin a bound must clear to certify a cell; the margin
# covers rounding in the interpolation and exp behind a row's child ratio
# and in the closed-form tails behind the last mover's, whose bounds go
# NaN where a written bound on that rounding is not far below the margin.
CELL_POINTS = 40
CELL_MARGIN = 1e-9

ROOT_XTOL = 1e-12  # bisection tolerance on a root
RESIDUAL_TOL = 1e-9  # bound on an interior root's |G| / max(1, L)
TIE_REL_TOL = 1e-9  # relative tolerance of utility and discriminator ties
# Candidates whose continuation multisets agree within this absolute
# spread are treated as the same equilibrium outcome (B = n rows).
MULTISET_TOL = 1e-5


def _debug(msg, *args):
    """Log on the "cascadefund" logger at DEBUG level.

    Importing logging would add about 10 ms to every start-up.  Until
    some other code imports it, no handler or level can have been set, so
    a DEBUG record would be dropped anyway and nothing is lost by skipping.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("cascadefund").debug(msg, *args)


KIND_INTERIOR = "interior"
KIND_HERD_INVEST = "herd_invest"
KIND_HERD_DECLINE = "herd_decline"


class ModelViolationError(RuntimeError):
    """The solver produced or met a state violating a structural contract."""


def bisect(left, a, b, tol=0.0, max_iter=None):
    """Halve [a, b] towards the point where the predicate `left` switches.

    `left(m)` true moves a up to m, false moves b down to it.  Halving
    stops once b - a <= tol (checked before each step) or after max_iter
    steps (None: no cap).  Works on scalars and elementwise on arrays; an
    array stops when its widest bracket is within tol (an empty array at
    once).  Returns (a, b), so each caller picks its own answer: the
    midpoint or an end.
    """
    vector = np.ndim(a) > 0
    for _ in itertools.count() if max_iter is None else range(max_iter):
        if (np.max(b - a, initial=0.0) if vector else b - a) <= tol:
            break
        m = 0.5 * (a + b)
        go = left(m)
        if vector:
            a, b = np.where(go, m, a), np.where(go, b, m)
        elif go:
            a = m
        else:
            b = m
    return a, b


def pivotal_threshold(dist, L):
    """Threshold of a mover for whom investing is a bet on the world alone.

    That holds once the drive has filled and for a mover whose investment
    fills it.  Declining pays zero whatever follows, so she invests iff
    her full posterior favors the good world: 1/(1+L), clipped to the
    support.
    """
    return np.clip(1.0 / (1.0 + np.asarray(L, dtype=float)), dist.lo, dist.hi)


def completion_ratio(p0, p1):
    """The child ratio pi_0/pi_1 from completion probabilities; +inf where p1 = 0."""
    return np.divide(p0, p1, out=np.full_like(p1, np.inf), where=p1 > 0.0)


def gap(dist, child_ratio, L, x):
    """Indifference gap G at threshold x; NaN where the invest child is dead."""
    La = np.asarray(L, dtype=float)
    xa = np.asarray(x, dtype=float)
    r = np.asarray(child_ratio(La * dist.lr_upper_tail(xa)), dtype=float)
    return np.where(np.isfinite(r), La * xa / (1.0 - xa) - r, np.nan)


def _bisect_brackets(g, lo, hi, glo_pos):
    """Vectorised bisection of g on sign-change brackets [lo, hi] to ROOT_XTOL."""

    def left(mid):
        gm = g(mid)
        if np.any(np.isnan(gm)):
            raise ModelViolationError("indifference gap undefined inside a bracket")
        return (gm > 0.0) == glo_pos

    lo, hi = bisect(left, lo, hi, ROOT_XTOL, 80)
    return 0.5 * (lo + hi)


def scan_roots(dist, child_ratio, Ls, scan, budget, bounds=None):
    """Interior roots of G at each odds point, from a scan of `scan` points.

    Scan points where G is exactly zero count as roots, except x = 1-Q,
    which is the herd-invest candidate.  States are scanned a block at a
    time; a block holds about `budget` (state, scan point) elements, so
    the temporaries of the scan and of the child evaluations stay small
    however many odds points one call serves.

    With `bounds` (see the module docstring) only the cells the bounds
    cannot certify are evaluated; the roots are the same as without.
    """
    xs = np.linspace(dist.lo, dist.hi, scan)
    uxs = dist.lr_upper_tail(xs)
    lhs = xs / (1.0 - xs)
    M = len(Ls)
    cells = np.arange(0, scan - 1, CELL_POINTS - 1)
    if bounds is None:
        # Every cell is evaluated, as one span of the whole scan per state.
        first = np.zeros(1, dtype=int)
        chunk = max(1, budget // scan)
        evaluated = unbounded = M * cells.size
    else:
        # Certify a block of states cell by cell, then evaluate its open
        # cells a budget's worth at a time.
        first = cells
        chunk = max(1, budget // cells.size)
        step = max(1, budget // CELL_POINTS)
        evaluated = unbounded = 0
        pts = np.minimum(first[:, None] + np.arange(CELL_POINTS), scan - 1)
        ucell = uxs[pts]
        umin, umax = ucell.min(axis=1), ucell.max(axis=1)
        lhs_first, lhs_last = lhs[first], lhs[pts[:, -1]]
    roots: list[list[float]] = [[] for _ in range(M)]
    states, js, glo_pos = [], [], []
    for start in range(0, M, chunk):
        Lc = Ls[start : start + chunk]
        if bounds is None:
            units = [(np.arange(len(Lc)), np.zeros(len(Lc), dtype=int))]
        else:
            Lb = Lc[:, None]
            rmin, rmax = bounds(Lb * umin, Lb * umax)
            unbounded += np.count_nonzero(np.isnan(rmin) | np.isnan(rmax))
            certified = (Lb * lhs_first > rmax * (1.0 + CELL_MARGIN)) | (
                Lb * lhs_last < rmin * (1.0 - CELL_MARGIN)
            )
            s, c = np.nonzero(~certified)
            evaluated += s.size
            units = [(s[i : i + step], c[i : i + step]) for i in range(0, s.size, step)]
        for s, c in units:
            if bounds is None:
                ux, lh = uxs[None, :], lhs[None, :]
            else:
                ux, lh = uxs[pts[c]], lhs[pts[c]]
            Lu = Lc[s][:, None]
            r = child_ratio(Lu * ux)
            G = np.where(np.isfinite(r), Lu * lh - r, np.nan)
            a, b = G[:, :-1], G[:, 1:]
            flip = (a * b < 0.0) & np.isfinite(a) & np.isfinite(b)
            u, k = np.nonzero(flip)
            states.append(s[u] + start)
            js.append(first[c[u]] + k)
            glo_pos.append(a[u, k] > 0.0)
            # A zero at a cell's first point is the previous cell's last
            # point (or x = 1-Q), so a cell reports zeros from its second.
            u, k = np.nonzero(b == 0.0)
            for st, j in zip(s[u] + start, first[c[u]] + k + 1):
                if j < scan - 1:
                    roots[st].append(float(xs[j]))
            # Only one block's arrays are alive while the next block's
            # child evaluation allocates its own.
            del r, G, a, b, flip, ux, lh

    state = np.concatenate(states) if states else np.empty(0, dtype=int)
    _debug(
        "root scan of %d states: %d cells certified, %d evaluated "
        "(%d without a bound), %d brackets",
        M, M * cells.size - evaluated, evaluated, unbounded, state.size,
    )
    if state.size:
        j = np.concatenate(js)
        bL = Ls[state]
        xr = _bisect_brackets(
            lambda x: gap(dist, child_ratio, bL, x),
            xs[j],
            xs[j + 1],
            np.concatenate(glo_pos),
        )
        for s, x in zip(state, xr):
            roots[int(s)].append(float(x))
    return roots


def rescue_root(dist, child_ratio, L):
    """Locate the root when the playable-invest window is sub-scan-width.

    Just above a dead frontier only thresholds within a vanishing band
    below Q keep the invest child alive, so the coarse scan sees at most
    one finite G value and finds no bracket even though a root exists.
    """

    def g(x):
        return float(np.asarray(gap(dist, child_ratio, L, x)))

    lo, hi = dist.lo, dist.hi
    g_lo = g(lo)
    if math.isnan(g_lo):
        # Bisect for the lowest threshold whose invest child is alive.
        _, lo = bisect(lambda m: math.isnan(g(m)), lo, hi, ROOT_XTOL / 4, 200)
        g_lo = g(lo)
    g_hi = g(hi)
    if math.isnan(g_lo) or math.isnan(g_hi):
        raise ModelViolationError(f"no playable threshold window at L={L!r}")
    if g_lo >= 0.0:
        # Every playable type prefers investing: the window edge is the reply.
        return lo
    if g_hi <= 0.0:
        raise ModelViolationError(f"herd-decline condition missed by the scan at L={L!r}")
    root = _bisect_brackets(
        lambda x: gap(dist, child_ratio, np.array([L]), x),
        np.array([lo]),
        np.array([hi]),
        np.array([g_lo > 0.0]),
    )
    return float(root[0])


def herd_flags(dist, child_ratio, Ls):
    """Where the two herd thresholds are playable, as (herd_inv, herd_dec).

    Investing for every type (x = 1-Q) keeps the odds at L, so it is
    playable when the worst type still clears the child ratio there;
    declining for every type (x = Q) is playable when the best type cannot
    clear the ratio at odds L * Q/(1-Q), or the invest child is dead
    outright.  One-ulp slack keeps states exactly at a cascade bound on
    the herd side.
    """
    Q = dist.Q
    # cascades.up_cascade_bound, written out: cascades imports this module.
    up = Q / (1.0 - Q)
    r_at_L = np.asarray(child_ratio(Ls), dtype=float)
    herd_inv = np.isfinite(r_at_L) & (Ls * (1.0 - Q) / Q >= r_at_L * (1.0 - 1e-15))
    r_at_up = np.asarray(child_ratio(Ls * up), dtype=float)
    herd_dec = ~np.isfinite(r_at_up) | (Ls * up <= r_at_up * (1.0 + 1e-15))
    return herd_inv, herd_dec


def candidates(dist, child_ratio, Ls, scan, budget, bounds=None):
    """Interior roots plus playable herd thresholds, as (x, kind) per state."""
    Q = dist.Q
    roots = scan_roots(dist, child_ratio, Ls, scan, budget, bounds)
    herd_inv, herd_dec = herd_flags(dist, child_ratio, Ls)

    cands: list[list[tuple[float, str]]] = []
    for s in range(len(Ls)):
        got: list[tuple[float, str]] = []
        if herd_inv[s]:
            got.append((1.0 - Q, KIND_HERD_INVEST))
        for x in sorted(roots[s]):
            if got and abs(x - got[-1][0]) <= 1e-9:
                continue
            if herd_dec[s] and abs(x - Q) <= 1e-9:
                continue
            got.append((x, KIND_INTERIOR))
        if herd_dec[s]:
            got.append((Q, KIND_HERD_DECLINE))
        if not got:
            got.append((rescue_root(dist, child_ratio, float(Ls[s])), KIND_INTERIOR))
        cands.append(got)
    return cands


def discriminator(L, p0c, p1c, T0_rivals, T1_rivals):
    """Tie-break score of a candidate against its rival thresholds.

    A vanishing tremble by the next movers makes the mover strictly prefer
    the candidate whose continuation, completing with (p0c, p1c) by world,
    pays best against the toughest rival threshold, one investing with
    tails (T0_rivals, T1_rivals).  Equal thresholds give equal scores by
    construction.
    """
    return np.max(L * p1c * T1_rivals - p0c * T0_rivals)


def select(xs, U, L, T1, T0, p0c, p1c, sigs=None):
    """Pick the equilibrium index among one state's candidates.

    Returns (index, tie_irregular).  When sigs is given, candidates whose
    continuation multisets (rows of sigs) agree within MULTISET_TOL are one
    outcome: their utilities agree by theory, so the comparison across
    groups uses the group max.  The trembling discriminator ranks the
    candidates inside the surviving pool.
    """
    k = len(xs)
    if k == 1:
        return 0, False
    groups: list[list[int]] = []
    for i in range(k):
        for g in groups:
            if sigs is not None and np.max(np.abs(sigs[i] - sigs[g[0]])) <= MULTISET_TOL:
                g.append(i)
                break
        else:
            groups.append([i])

    gU = [max(U[i] for i in g) for g in groups]
    best = max(gU)
    tie_tol = TIE_REL_TOL * max(1.0, abs(best))
    pool: list[int] = []
    for g, u in zip(groups, gU):
        if best - u <= tie_tol:
            pool.extend(g)
    if len(pool) == 1:
        return pool[0], False

    rivals = {i: [j for j in pool if j != i] for i in pool}
    D = {i: discriminator(L, p0c[i], p1c[i], T0[r], T1[r]) for i, r in rivals.items()}
    order = sorted(pool, key=lambda i: (-D[i], xs[i]))
    top, second = order[0], order[1]
    d_tol = TIE_REL_TOL * max(1.0, abs(D[top]))
    tie = D[top] - D[second] <= d_tol and abs(xs[top] - xs[second]) > 1e-9
    return top, bool(tie)


@dataclass(frozen=True)
class Choice:
    """Every candidate of a set of states, with the one selected per state.

    Candidate arrays are flat in state order; U holds each candidate's
    expected utility, sel[s] indexes the candidate chosen at state s and
    tie[s] flags a discriminator tie there.
    """

    x: np.ndarray
    kinds: list[str]
    T0: np.ndarray
    T1: np.ndarray
    Lp: np.ndarray
    p0c: np.ndarray
    p1c: np.ndarray
    U: np.ndarray
    sel: np.ndarray
    tie: np.ndarray


def choose(dist, Ls, cands, child_pi, signatures=None):
    """Score every candidate by expected utility and select one per state.

    child_pi maps invest-child odds to (pi_0, pi_1); signatures, when
    given, maps (x, child odds) to the continuation multisets `select`
    groups by.
    """
    counts = np.array([len(c) for c in cands], dtype=int)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    x = np.array([x for per in cands for x, _ in per])
    kinds = [kind for per in cands for _, kind in per]
    Lflat = np.repeat(Ls, counts)
    T0, T1 = dist.sf_pair(x)
    Lp = Lflat * dist.lr_upper_tail(x)
    p0c, p1c = child_pi(Lp)
    lam = Lflat / (1.0 + Lflat)
    U = lam * T1 * p1c - (1.0 - lam) * T0 * p0c
    sigs = None if signatures is None else signatures(x, Lp)

    # A lone candidate is the selection; only contested states need select.
    sel = offsets[:-1].copy()
    tie = np.zeros(len(Ls), dtype=bool)
    for s in np.flatnonzero(counts > 1):
        lo, hi = offsets[s], offsets[s + 1]
        local, tie[s] = select(
            x[lo:hi],
            U[lo:hi],
            Ls[s],
            T1[lo:hi],
            T0[lo:hi],
            p0c[lo:hi],
            p1c[lo:hi],
            None if sigs is None else sigs[lo:hi],
        )
        sel[s] = lo + local
    return Choice(x, kinds, T0, T1, Lp, p0c, p1c, U, sel, tie)
