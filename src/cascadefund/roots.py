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
recursive solves; where the child is the last mover at (1, 1), both pass
the one closed form here, `LastMover`.  On a must-fill drive both are
steps of one walk down the all-invest path, `invest_path`: the ladder's
solve and the engine's diagonal rows give each mover's threshold at the
odds left before it.

A solver may also supply bounds on its child ratio: a callable mapping
arrays of child-odds intervals [lo, hi] to (rmin, rmax), bounds on every
finite value the child ratio takes at odds in the interval ((inf, inf)
where it takes none, NaN where there is no bound).  The scan then splits
its points into cells of CELL_POINTS points, neighbouring cells sharing
an end point.  Since x/(1-x) increases along the scan, a run of points is
certified positive when L * x_first/(1-x_first) > rmax * (1 + CELL_MARGIN)
and negative when L * x_last/(1-x_last) < rmin * (1 - CELL_MARGIN): G then
has one sign (or is undefined) at each of its points, so the run holds no
sign change and no exact zero.

The certificate runs coarse to fine over power-of-two groups of cells:
each state bounds its whole scan first, and a group that fails is split
into its halves, down to single cells.  A certified group drops no
bracket and no zero, since G has one sign on every point of it.  And by
containment, every cell under a certified group would certify on its
own: a cell's child odds lie inside its group's, the bounds only tighten
on a sub-interval (a row's range-table span nests, and the last mover's
guard holds on it if on the group, its end values to within the
rounding of its monotone tails), and x/(1-x) at the cell's first point
is no lower and at its last no higher.  So the cells evaluated are those
a cell-by-cell certificate leaves open (the tests compare the two), at a
fraction of its bound queries.  They are evaluated with the same
expression at the same points as the full scan, so every bracket, and
hence every root, is the same bit for bit.  Bounds come from the range
tables of the engine's child rows and from the closed-form last mover's
monotone tails (`LastMover.ratio_bounds`), so every engine row and every
two-player step of the exact must-fill ladder takes this scan; only the
ladder's deeper steps, whose child is a recursive solve, scan densely.

A state left with no candidate by the scan and the herd thresholds has a
playable window narrower than a scan cell (see _rescue); its window is
found for all such states at once.  Its bracket then joins the scan's,
and `candidates` bisects every bracket of a call in one elementwise
`bisect` call.  Each element stops on its own bracket, so the roots are
the bits a bisection per bracket would give.  A call of G costs a fixed
~45-90 us plus ~0.13-0.2 us per element, so on the few brackets of a row
(and the one or two states of a rescue) `bisect` evaluates the midpoints
of several halvings per call and walks each bracket down them, with the
same midpoints and hence the same bits as one halving per call.

With the DEBUG level on the "cascadefund" logger, `candidates` logs one
record per call: states, bound queries, cells certified, cells evaluated
(and of those, cells without a bound), scan brackets, rescued states,
and the predicate calls of the bracket bisection and of the rescue.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

import numpy as np

from cascadefund.beliefs import DomainError

__all__ = [
    "Choice",
    "KIND_HERD_DECLINE",
    "KIND_HERD_INVEST",
    "KIND_INTERIOR",
    "LastMover",
    "ModelViolationError",
    "Scan",
    "bisect",
    "candidates",
    "choose",
    "completion_ratio",
    "discriminator",
    "gap",
    "herd_flags",
    "invest_path",
    "pivotal_threshold",
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

# `bisect` on arrays asks its predicate for the midpoints of d halvings at
# once (2**d - 1 per element), the most levels d up to BISECT_DEPTH that
# keep a call within BISECT_ELEMENTS midpoints.  A `gap` call on an engine
# row costs a fixed ~45-90 us plus ~0.13-0.2 us per element, so depth 2
# pays on arrays of up to about 300 elements.  On solve-partial's (3, 8)
# build, against one halving per call, budgets of 512, 1,024, 2,048 and
# 4,096 took 0.93, 0.81, 0.85 and 0.90 of the bracket bisection's time,
# and depth caps of 4 to 8 took 0.58, 0.53, 0.46, 0.49 and 0.58 of the
# rescue's (2 cores, numpy 2.4.6).
BISECT_ELEMENTS = 1024
BISECT_DEPTH = 6

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


def _subtree_depth(size):
    """The most levels d, up to BISECT_DEPTH, with (2**d - 1) * size <=
    BISECT_ELEMENTS, and at least one."""
    return max(1, min(BISECT_DEPTH, (BISECT_ELEMENTS // max(size, 1) + 1).bit_length() - 1))


def _midpoint_tree(a, b, depth):
    """a, the midpoints of `depth` levels of halving [a, b], and b, in order.

    Row 0 is a and row n = 2**depth is b.  Each other row k is the
    midpoint 0.5 * (lo + hi) of its bracket [lo, hi] = rows k - h, k + h,
    h = k & -k, and rows k - h/2 and k + h/2 halve the bracket's lower and
    upper halves.  So each row is the midpoint the one-level loop computes
    on reaching that bracket, from the same float operations.
    """
    n = 2**depth
    tree = np.empty((n + 1, *a.shape))
    tree[0], tree[n] = a, b
    for j in range(depth):
        s = n >> j
        m = tree[s // 2 :: s]
        np.add(tree[:-1:s], tree[s::s], out=m)
        m *= 0.5
    return tree


def _walk(left, a, b, tol, depth, open_):
    """`depth` steps of the one-level loop on arrays, from one call of `left`.

    `left` answers at every midpoint of a `_midpoint_tree`.  Each element
    keeps a window on the tree, the rows of its bracket, and each step
    reads the window's middle row and keeps the half the answer picks.
    The rules are the one-level loop's: an element halves while open_
    (checked before each step) and the walk ends once none is.  Returns
    (a, b, undefined), the last None or a mask of the elements whose
    answer is undefined at a midpoint the one-level loop evaluates.
    """
    tree = _midpoint_tree(a, b, depth)
    go = left(tree[1:-1])
    go, undefined = go if isinstance(go, tuple) else (go, None)
    if undefined is not None and not undefined.any():
        undefined = None
    # Whose window middle is their midpoint: every element's at the first
    # step, then those open at the step before.  A stopped element's window
    # drifts, but its frozen midpoint was read at the step it stopped at.
    read = True
    for level in range(depth):
        if level:
            read = open_
            open_ = ~(b - a <= tol)
            if not open_.any():
                break
        mid = tree.shape[0] // 2
        m, g = tree[mid], go[mid - 1]
        if undefined is not None:
            bad = undefined[mid - 1] & read
            if bad.any():
                return a, b, bad
        up = open_ & g
        a, b = np.where(up, m, a), np.where(open_ ^ up, m, b)
        if level + 1 < depth:
            tree = np.where(g, tree[mid:], tree[: mid + 1])
            go = np.where(g, go[mid:], go[: mid - 1])
            if undefined is not None:
                undefined = np.where(g, undefined[mid:], undefined[: mid - 1])
    return a, b, None


def bisect(left, a, b, tol=0.0, max_iter=None):
    """Halve [a, b] towards the point where the predicate `left` switches.

    `left(m)` true moves a up to m, false moves b down to it.  Halving
    stops once b - a <= tol (checked before each step) or after max_iter
    steps (None: no cap).  Works on scalars and elementwise on arrays: an
    array element stops on its own bracket, as its scalar call would, so
    an array call gives the same bits as the scalar calls run side by
    side.  The loop ends once every element has stopped (an empty array
    at once).  Returns (a, b), so each caller picks its own answer: the
    midpoint or an end.

    On arrays, one call of `left` serves several steps: it gets the
    midpoints of the next d halvings of every element, 2**d - 1 of them
    along a new leading axis (`_midpoint_tree`), and each element then
    walks down its own tree (`_walk`).  d is the largest depth up to
    BISECT_DEPTH whose trees hold at most BISECT_ELEMENTS midpoints in all
    (at least 1), and no more than the steps max_iter leaves.  At d = 1
    this is the one-level loop, and `left` sees the midpoints alone.  The
    walk takes the one-level loop's steps, with its midpoints and its
    stopping rule, so the bits are the same at every depth.

    On arrays `left` may also answer (go, undefined).  Where an element's
    answer is undefined at a midpoint the one-level loop evaluates (a
    stopped element's frozen midpoint included, while others halve), the
    call stops after that step and the element comes back as (nan, nan);
    an undefined answer at a midpoint no step reads changes nothing.
    """
    if np.ndim(a) == 0:
        for _ in itertools.count() if max_iter is None else range(max_iter):
            if b - a <= tol:
                break
            m = 0.5 * (a + b)
            if left(m):
                a = m
            else:
                b = m
        return a, b
    a, b = np.broadcast_arrays(a, b)
    depth = _subtree_depth(a.size)
    done = 0
    while max_iter is None or done < max_iter:
        # Not b - a > tol: a NaN width keeps halving, as in the scalar loop.
        open_ = ~(b - a <= tol)
        if not open_.any():
            break
        d = depth if max_iter is None else min(depth, max_iter - done)
        if d == 1:  # the one-level loop: `left` sees the midpoints alone
            m = 0.5 * (a + b)
            go = left(m)
            go, undefined = go if isinstance(go, tuple) else (go, None)
            a, b = np.where(open_ & go, m, a), np.where(open_ & ~go, m, b)
        else:
            a, b, undefined = _walk(left, a, b, tol, d, open_)
        if undefined is not None and undefined.any():
            return np.where(undefined, np.nan, a), np.where(undefined, np.nan, b)
        done += d
    return a, b


def pivotal_threshold(dist, L):
    """Threshold of a mover for whom investing is a bet on the world alone.

    That holds once the drive has filled and for a mover whose investment
    fills it.  Declining pays zero whatever follows, so she invests iff
    her full posterior favors the good world: 1/(1+L), clipped to the
    support (np.clip's bits, at half its call overhead on small arrays).
    """
    return np.minimum(np.maximum(dist.lo, 1.0 / (1.0 + np.asarray(L, dtype=float))), dist.hi)


def completion_ratio(p0, p1):
    """The child ratio pi_0/pi_1 from completion probabilities; +inf where p1 = 0."""
    return np.divide(p0, p1, out=np.full_like(p1, np.inf), where=p1 > 0.0)


# Largest relative rounding error bound on the last mover's two tails at
# which `LastMover` still bounds that mover's ratio; the ratio then errs by
# at most twice this, far inside the scan's CELL_MARGIN.
LAST_TAIL_GUARD = CELL_MARGIN / 16


class LastMover:
    """The sole pivotal last mover at state (1, 1), in closed form.

    Her investment fills the drive, so she cuts at the clipped 1/(1+L)
    (`pivotal_threshold`); completion is her own investment, pi_w = sf_w
    at that cut, and the child ratio is sf_0/sf_1 there (+inf where the cut
    clips to Q, at the dead frontier (1-Q)/Q or below).  Both solvers read
    this state here: the grid engine's `PolicyTable.view(1, 1)` and the
    exact ladder's two-player steps.  It answers the five queries of an
    engine row; it is never irregular, and nothing carries interpolation
    error.
    """

    def __init__(self, dist):
        self.dist = dist

    def sigma_at(self, L):
        out = pivotal_threshold(self.dist, L)
        return float(out) if out.ndim == 0 else out

    def pi_at(self, L):
        La = np.asarray(L, dtype=float)
        p0, p1 = self.dist.sf_pair(pivotal_threshold(self.dist, La))
        return (p0, p1) if La.ndim else (float(p0), float(p1))

    def ratio_at(self, L):
        out = completion_ratio(*self.dist.sf_pair(pivotal_threshold(self.dist, L)))
        return float(out) if out.ndim == 0 else out

    def ratio_bounds(self, lo, hi):
        """(rmin, rmax) of the last mover's ratio over odds intervals [lo, hi].

        The ratio is h(s) = sf_0(s)/sf_1(s) at s = clip(1/(1+L), lo, hi).
        Exactly, h is nonincreasing in s below Q: f_1/f_0 = y/(1-y)
        increases, so the upper-tail ratio sf_1/sf_0 does too.  The
        computed map from L to s is nonincreasing, since IEEE +, / and clip
        are monotone, so over [lo, hi] the exact h lies between h(s(lo))
        and h(s(hi)).  The computed tails are off by at most
        TypeDistribution.sf_error, which falls in s, while the tails fall
        too, so at every s of the interval both are off relatively by at
        most e = sf_error(s(hi)) / min(sf_0(s(lo)), sf_1(s(lo))), and the
        computed ratio by about 2e.  Where e is within LAST_TAIL_GUARD the
        computed end values bound the computed ratio to within 4e, well
        inside CELL_MARGIN; elsewhere (near a tail that rounding swamps)
        the bound is NaN, as it is where only part of the interval is
        dead.  An interval whose top is dead, s(hi) = Q, is dead
        throughout: (inf, inf).
        """
        dist = self.dist
        s = pivotal_threshold(dist, np.stack((lo, hi)))
        p0, p1 = dist.sf_pair(s)
        r = completion_ratio(p0, p1)
        err = dist.sf_error(s[1])
        keep = (err <= LAST_TAIL_GUARD * np.minimum(p0[0], p1[0])) | (s[1] >= dist.hi)
        return np.where(keep, r[0], np.nan), np.where(keep, r[1], np.nan)

    def irregular_at(self, L):
        out = np.zeros(np.shape(L), dtype=bool)
        return bool(out) if out.ndim == 0 else out


def gap(dist, child_ratio, L, x):
    """Indifference gap G at threshold x; NaN where the invest child is dead."""
    La = np.asarray(L, dtype=float)
    xa = np.asarray(x, dtype=float)
    r = np.asarray(child_ratio(La * dist.lr_upper_tail(xa)), dtype=float)
    return np.where(np.isfinite(r), La * xa / (1.0 - xa) - r, np.nan)


def _bisect_brackets(g, lo, hi, glo_pos):
    """Vectorised bisection of g on sign-change brackets [lo, hi] to ROOT_XTOL.

    Returns (roots, calls of g).
    """
    calls = 0

    def left(mid):
        nonlocal calls
        calls += 1
        gm = g(mid)
        return (gm > 0.0) == glo_pos, np.isnan(gm)

    lo, hi = bisect(left, lo, hi, ROOT_XTOL, 80)
    if np.isnan(lo).any():
        raise ModelViolationError("indifference gap undefined inside a bracket")
    return 0.5 * (lo + hi), calls


@dataclass(frozen=True)
class Scan:
    """What a root scan finds at a set of states, before any bisection.

    G is exactly zero at scan point zeros[k] of state zero_state[k].
    Bracket k is [lo[k], hi[k]] at state[k]: G changes sign across it and
    is positive at lo[k] where glo_pos[k]; the brackets run in (state,
    scan point) order.  The counts are the bound queries made and the
    cells certified, evaluated and evaluated without a bound.
    """

    zero_state: np.ndarray
    zeros: np.ndarray
    state: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    glo_pos: np.ndarray
    queried: int
    certified: int
    evaluated: int
    unbounded: int


def _cell_levels(ucell, lhs_first, lhs_last):
    """Tables over power-of-two groups of cells, cells first and one group last.

    Level k holds, for each group of 2**k neighbouring cells, the min and
    max of the scan's upper-tail likelihood ratio over its points and
    x/(1-x) at its first and last point.  Group g of level k + 1 joins
    groups 2g and 2g + 1 (where there is one) of level k.
    """
    levels = [(ucell.min(axis=1), ucell.max(axis=1), lhs_first, lhs_last)]
    while levels[-1][0].size > 1:
        umin, umax, lf, ll = levels[-1]
        i = np.arange(0, umin.size, 2)
        last = np.minimum(i + 1, umin.size - 1)
        levels.append(
            (np.minimum.reduceat(umin, i), np.maximum.reduceat(umax, i), lf[i], ll[last])
        )
    return levels


def _open_cells(Ls, bounds, levels, budget):
    """The (state, cell) pairs the bounds cannot certify, coarse to fine.

    Each state's one top group is bounded first; a group that fails splits
    into its two halves, down to single cells.  Queries go `budget` at a
    time.  Returns (states, cells, queried, unbounded), the pairs in
    (state, cell) order and the unbounded count over the cells queried.
    """
    s = np.arange(len(Ls))
    g = np.zeros(len(Ls), dtype=int)
    queried = unbounded = 0
    for k in range(len(levels) - 1, -1, -1):
        umin, umax, lhs_first, lhs_last = levels[k]
        fails = np.empty(s.size, dtype=bool)
        for i in range(0, s.size, budget):
            gi = g[i : i + budget]
            Lb = Ls[s[i : i + budget]]
            rmin, rmax = bounds(Lb * umin[gi], Lb * umax[gi])
            if k == 0:
                unbounded += np.count_nonzero(np.isnan(rmin) | np.isnan(rmax))
            fails[i : i + budget] = ~(
                (Lb * lhs_first[gi] > rmax * (1.0 + CELL_MARGIN))
                | (Lb * lhs_last[gi] < rmin * (1.0 - CELL_MARGIN))
            )
        queried += s.size
        s, g = s[fails], g[fails]
        if k:
            # Each failed group splits into its halves, in (state, group)
            # order; the last group of a level may have one half only.
            s = np.repeat(s, 2)
            g = (2 * g[:, None] + np.arange(2)).ravel()
            has = g < levels[k - 1][0].size
            s, g = s[has], g[has]
    return s, g, queried, unbounded


def scan_roots(dist, child_ratio, Ls, scan, budget, bounds=None):
    """Exact zeros and sign-change brackets of G at each odds point (a `Scan`).

    The scan has `scan` points over the support.  Scan points where G is
    exactly zero count as zeros, except x = 1-Q, which is the herd-invest
    candidate.  Evaluation goes a block of about `budget` (state, scan
    point) elements at a time, so the temporaries of the scan and of the
    child evaluations stay small however many odds points one call
    serves; bound queries go `budget` at a time.

    With `bounds` (see the module docstring) only the cells the bounds
    cannot certify are evaluated; the zeros and brackets are the same as
    without.
    """
    xs = np.linspace(dist.lo, dist.hi, scan)
    uxs = dist.lr_upper_tail(xs)
    lhs = xs / (1.0 - xs)
    M = len(Ls)
    cells = np.arange(0, scan - 1, CELL_POINTS - 1)
    if bounds is None:
        # Every cell is evaluated, as one cell spanning the whole scan.
        first, pts = np.zeros(1, dtype=int), np.arange(scan)[None, :]
        open_s, open_c = np.arange(M), np.zeros(M, dtype=int)
        queried, evaluated = 0, M * cells.size
        unbounded = evaluated
    else:
        first = cells
        pts = np.minimum(first[:, None] + np.arange(CELL_POINTS), scan - 1)
        levels = _cell_levels(uxs[pts], lhs[first], lhs[pts[:, -1]])
        open_s, open_c, queried, unbounded = _open_cells(Ls, bounds, levels, budget)
        evaluated = open_s.size
    step = max(1, budget // pts.shape[1])
    zstates, zjs, states, js, glo_pos = [], [], [], [], []
    for i in range(0, open_s.size, step):
        s, c = open_s[i : i + step], open_c[i : i + step]
        ux, lh = uxs[pts[c]], lhs[pts[c]]
        Lu = Ls[s][:, None]
        r = child_ratio(Lu * ux)
        G = np.where(np.isfinite(r), Lu * lh - r, np.nan)
        a, b = G[:, :-1], G[:, 1:]
        # Times the sign of b, not b: a product of two tiny (huge) gaps
        # underflows to zero (overflows) and would drop or warn on the bracket.
        flip = (a * np.sign(b) < 0.0) & np.isfinite(a) & np.isfinite(b)
        u, k = np.nonzero(flip)
        states.append(s[u])
        js.append(first[c[u]] + k)
        glo_pos.append(a[u, k] > 0.0)
        # A zero at a cell's first point is the previous cell's last
        # point (or x = 1-Q), so a cell reports zeros from its second.
        u, k = np.nonzero(b == 0.0)
        j = first[c[u]] + k + 1
        zstates.append(s[u][j < scan - 1])
        zjs.append(j[j < scan - 1])
        # Only one block's arrays are alive while the next block's
        # child evaluation allocates its own.
        del r, G, a, b, flip, ux, lh

    def joined(parts, dtype=int):
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    j = joined(js)
    return Scan(
        joined(zstates),
        xs[joined(zjs)],
        joined(states),
        xs[j],
        xs[j + 1],
        joined(glo_pos, bool),
        queried,
        M * cells.size - evaluated,
        evaluated,
        unbounded,
    )


def _rescue(dist, child_ratio, Ls):
    """Windows of states whose playable-invest window is sub-scan-width.

    Just above a dead frontier only thresholds within a vanishing band
    below Q keep the invest child alive, so the coarse scan sees at most
    one finite G value and finds no bracket even though a root exists.
    Where G is undefined at x = 1-Q, the window's lower edge is bisected
    for (to ROOT_XTOL/4, at most 200 steps), all states at once.  Returns
    (lo, edge, calls): the window's lower end, which is the reply itself
    where `edge` (every playable type prefers investing), and otherwise
    the low end of a bracket [lo, Q] on which G rises through zero; and
    the predicate calls of that bisection.
    """

    def g(x):
        return gap(dist, child_ratio, Ls, x)

    calls = 0
    if not len(Ls):  # most calls rescue no state
        return np.empty(0), np.empty(0, dtype=bool), calls
    lo = np.full(len(Ls), dist.lo)
    hi = np.full(len(Ls), dist.hi)
    g_lo = g(lo)
    dead = np.isnan(g_lo)
    if dead.any():
        # Bisect for the lowest threshold whose invest child is alive.
        Ld = Ls[dead]

        def left(m):
            nonlocal calls
            calls += 1
            return np.isnan(gap(dist, child_ratio, Ld, m))

        _, lo[dead] = bisect(left, lo[dead], hi[dead], ROOT_XTOL / 4, 200)
        g_lo[dead] = gap(dist, child_ratio, Ld, lo[dead])
    g_hi = g(hi)
    no_window = np.isnan(g_lo) | np.isnan(g_hi)
    missed = ~no_window & (g_lo < 0.0) & (g_hi <= 0.0)
    bad = np.flatnonzero(no_window | missed)
    if bad.size:
        L = float(Ls[bad[0]])
        if no_window[bad[0]]:
            raise ModelViolationError(f"no playable threshold window at L={L!r}")
        raise ModelViolationError(f"herd-decline condition missed by the scan at L={L!r}")
    return lo, g_lo >= 0.0, calls


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
    """Interior roots plus playable herd thresholds, as (x, kind) per state.

    The scan's brackets and the rescue brackets of the states left with
    no candidate are bisected in one call (module docstring).
    """
    Q = dist.Q
    found = scan_roots(dist, child_ratio, Ls, scan, budget, bounds)
    herd_inv, herd_dec = herd_flags(dist, child_ratio, Ls)
    found_any = herd_inv | herd_dec
    found_any[found.zero_state] = found_any[found.state] = True
    rescued = np.flatnonzero(~found_any)
    lo, edge, rescue_calls = _rescue(dist, child_ratio, Ls[rescued])
    # A rescue bracket [lo, Q] has G negative at lo.
    k = rescued[~edge]
    state = np.concatenate((found.state, k))
    bL = Ls[state]
    xr, bisect_calls = _bisect_brackets(
        lambda x: gap(dist, child_ratio, bL, x),
        np.concatenate((found.lo, lo[~edge])),
        np.concatenate((found.hi, np.full(k.size, dist.hi))),
        np.concatenate((found.glo_pos, np.zeros(k.size, dtype=bool))),
    )
    roots: list[list[float]] = [[] for _ in range(len(Ls))]
    for s, x in zip(
        np.concatenate((found.zero_state, rescued[edge], state)),
        np.concatenate((found.zeros, lo[edge], xr)),
    ):
        roots[s].append(float(x))
    _debug(
        "root scan of %d states: %d bound queries, %d cells certified, %d evaluated "
        "(%d without a bound), %d brackets, %d rescued; %d bisection and %d rescue "
        "predicate calls",
        len(Ls), found.queried, found.certified, found.evaluated, found.unbounded,
        found.state.size, rescued.size, bisect_calls, rescue_calls,
    )

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


def invest_path(dist, Ls, ms, step):
    """(xs, irregular) along the all-invest path of a must-fill drive.

    Row i of xs is the playing-order profile from odds Ls[i]: mover j
    faces state ms[j] at the odds the investments before it left, and
    `step(L, m)` gives its (thresholds, irregular flags), which irregular
    ORs.  A decline kills a must-fill drive: this is the live continuation.
    """
    if not len(ms):
        raise DomainError("need at least one player")
    L = np.asarray(Ls, dtype=float)
    xs = np.empty((len(L), len(ms)))
    irregular = np.zeros(len(L), dtype=bool)
    for j, m in enumerate(ms):
        xs[:, j], flags = step(L, m)
        irregular |= flags
        L = L * dist.lr_upper_tail(xs[:, j])
    return xs, irregular
