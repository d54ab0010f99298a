"""Best-reply thresholds and equilibrium selection at a set of game states.

Both solvers apply one rule at every state.  The mover's indifference gap

    G(x) = L * x/(1-x) - pi_0/pi_1(L * (1-F_1(x))/(1-F_0(x)))

is scanned on the support for sign changes, each bracket is bisected to a
root (a scan point where G is exactly zero is a zero-width bracket), and
the playable herd thresholds join the candidates: investing for every
type (x = 1-Q, which keeps the odds at L) and declining for every type
(x = Q).  The candidate with the highest expected utility wins; utility
ties go to the candidate a vanishing tremble favors (the discriminator),
and a tie there too marks the state irregular.  A pivotal mover, whose
investment fills the drive, needs no search: she cuts at the clipped
1/(1+L) (`pivotal_threshold`) whatever later movers do, and that is her
state's one candidate.  Every set of states' candidates, the pivotal
ones included, is assembled by `_assemble` as flat arrays, with kind
codes into KINDS.

A solver supplies a state's two children as objects answering the
queries of a solved state: `pi_at` gives (pi_0, pi_1) at child odds,
`ratio_at` pi_0/pi_1 (+inf where the child cannot complete),
`irregular_at` the child's irregular flags, and `ratio_bounds` is None
or bounds the ratio (below).  `solve_states` solves live states from them:
candidates (in closed form where the invest child is a filled drive, so
at every B = 1 state of the engine, stored rows included), selection, the
completion recurrence pi_w = T_w * pi_w(invest child) + F_w * pi_w(decline
child), and the irregular flags.
Both solvers take their terminal children from `terminal`: a filled or
unfillable drive (`Settled`) and the last mover at (1, 1) in closed form
(`LastMover`).  Live children are interpolated table rows in the grid
engine and exact recursive solves in the must-fill ladder.  On a
must-fill drive both are steps of one walk down the all-invest path,
`invest_path`: the ladder's solve and the engine's diagonal rows give
each mover's threshold at the odds left before it.

An invest child may also bound its ratio: `ratio_bounds` maps arrays
of child-odds intervals [lo, hi] to (rmin, rmax), bounds on every
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
into its halves, down to single cells.  Group g of level k is entry
g * 2**k of row k of one sparse table over the cells (`_range_tables`,
which a stored row's `ratio_bounds` reads too).  A certified group drops
no bracket and no zero, since G has one sign on every point of it.  And by
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
monotone tails (`LastMover.ratio_bounds`), so every engine row with
B >= 2 and every two-player step of the exact must-fill ladder takes this
scan; only the ladder's deeper steps, whose child is a recursive solve,
scan densely.  The scan points, their upper-tail ratios and x/(1-x), and
the cells' range table depend on the distribution and scan size alone, so
they are built once, on first use (`_scan_table`), and every scan of
that size reads them, the dense one too.  A scan goes SCAN_BLOCK
elements at a time, whatever its caller; the block size moves no bits.

A state left with no candidate by the scan and the herd thresholds has a
playable window narrower than a scan cell (see _rescue); its window is
found for all such states at once, as a bracket: [lo, Q], or [lo, lo]
where every playable type prefers investing.  `candidates` bisects these
and the scan's brackets in one `bisect` call, the one road of every
interior root; a zero-width bracket is closed from the start and comes
back unchanged, though its point is read once (G is finite there).
`bisect` is the one bracket-and-bisect of the package, with one
contract: arrays of brackets in and out, a step cap on every call, and a
predicate that answers at the midpoints of d halvings at once, along a
leading node axis of 2**d - 1 (d >= 1).  Each element stops on its own
bracket, so the roots are the bits a bisection per bracket would give.
A call of G costs a fixed ~45-90 us plus ~0.13-0.2 us per element, so on
the few brackets of a row (and the one or two states of a rescue) d
halvings per call pay, with the same midpoints and hence the same bits
as one halving per call.

With the DEBUG level on the "cascadefund" logger, `candidates` logs one
record per call: states, bound queries, cells certified, cells evaluated
(and of those, cells without a bound), scan brackets (zero-width ones
included), rescued states, and the predicate calls of the bracket
bisection and of the rescue.
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass

import numpy as np

from cascadefund.beliefs import DomainError, _answer, _clamp

__all__ = [
    "Choice",
    "KIND_HERD_DECLINE",
    "KIND_HERD_INVEST",
    "KIND_INTERIOR",
    "KINDS",
    "LastMover",
    "ModelViolationError",
    "Scan",
    "Settled",
    "bisect",
    "candidates",
    "choose",
    "completion_ratio",
    "discriminator",
    "gap",
    "gap_at",
    "herd_flags",
    "invest_path",
    "pivotal_threshold",
    "scan_roots",
    "select",
    "solve_states",
    "terminal",
]

# Scan points per certified cell (neighbouring cells share an end point),
# and the relative margin a bound must clear to certify a cell; the margin
# covers rounding in the interpolation and exp behind a row's child ratio
# and in the closed-form tails behind the last mover's, whose bounds go
# NaN where a written bound on that rounding is not far below the margin.
CELL_POINTS = 40
CELL_MARGIN = 1e-9

# A scan evaluates a block of about SCAN_BLOCK (state, scan point) elements
# at a time, and bounds SCAN_BLOCK groups of cells at a time, so the
# temporaries of the scan and of the child evaluations stay small however
# many states one call serves.  At 5,120 elements every float temporary is
# 40 KiB, under glibc's 128 KiB mmap threshold, so the blocks reuse heap
# memory instead of mapping fresh pages; a certified scan evaluates its
# open cells 128 at a time, and a dense scan of the exact ladder's top
# step takes four states at a time (at five they sat at glibc's heap-trim
# threshold, and in some heap layouts every block returned its pages and
# faulted them back in).  A sweep-exact benchmark child took ~5,150 minor
# faults with this block and ~5,780 with 8,192-element blocks; dense
# 512-state blocks took ~60k and 240 MB on a (3, 8) grid-513 engine build.
# The block size moves no bits: every child answers elementwise.
SCAN_BLOCK = 5_120

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
# A candidate's kind code indexes KINDS, in the order a state lists its
# candidates: herd invest at 1-Q, interior roots upwards, herd decline at Q.
KINDS = (KIND_HERD_INVEST, KIND_INTERIOR, KIND_HERD_DECLINE)


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
    upper halves.  So each row is the midpoint a halving computes on
    reaching that bracket, from the same float operations.
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
    """`depth` halving steps of `bisect`, from one call of `left`.

    `left` answers at every midpoint of a `_midpoint_tree`.  Each element
    keeps a window on the tree, the rows of its bracket, and each step
    reads the window's middle row and keeps the half the answer picks.
    An element halves while open_ (checked before each step) and the walk
    ends once none is.  Returns (a, b, undefined), the last None or a
    mask of the elements whose answer is undefined at a midpoint a step
    reads.
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


def bisect(left, a, b, tol, max_iter):
    """Halve the brackets [a, b] towards where the predicate `left` switches.

    a and b are arrays, halved elementwise: `left` true at an element's
    midpoint moves its a up to it, false moves its b down to it.  An
    element halves until b - a <= tol (checked before each step) or
    max_iter steps are done, so each stops on its own bracket; the call
    returns once every element has stopped (an empty array at once).
    Returns (a, b), so each caller picks its own answer: the midpoint or
    an end.

    One call of `left` serves several steps: it gets the midpoints of the
    next d halvings of every element, 2**d - 1 of them along a leading
    node axis (`_midpoint_tree`), and each element then walks down its
    own tree (`_walk`).  d is the largest depth up to BISECT_DEPTH whose
    trees hold at most BISECT_ELEMENTS midpoints in all (at least 1), and
    no more than the steps max_iter leaves.  The walk takes the steps of
    a loop that halves once per call, with its midpoints, so the bits are
    the same at every depth.

    `left` may also answer (go, undefined).  Where an element's answer is
    undefined at a midpoint a step reads (a stopped element's frozen
    midpoint included, while others halve), the call stops after that
    step and the element comes back as (nan, nan); an undefined answer at
    a midpoint no step reads changes nothing.
    """
    a, b = np.broadcast_arrays(a, b)
    depth = _subtree_depth(a.size)
    done = 0
    while done < max_iter:
        # Not b - a > tol: a NaN width keeps halving.
        open_ = ~(b - a <= tol)
        if not open_.any():
            break
        d = min(depth, max_iter - done)
        a, b, undefined = _walk(left, a, b, tol, d, open_)
        if undefined is not None:
            return np.where(undefined, np.nan, a), np.where(undefined, np.nan, b)
        done += d
    return a, b


def pivotal_threshold(dist, L):
    """Threshold of a mover for whom investing is a bet on the world alone.

    That holds once the drive has filled and for a mover whose investment
    fills it.  Declining pays zero whatever follows, so she invests iff
    her full posterior favors the good world: 1/(1+L), clipped to the
    support.
    """
    return _clamp(1.0 / (1.0 + np.asarray(L, dtype=float)), dist.lo, dist.hi)


def completion_ratio(p0, p1):
    """The child ratio pi_0/pi_1 from completion probabilities; +inf where p1 = 0."""
    return np.divide(p0, p1, out=np.full_like(p1, np.inf), where=p1 > 0.0)


# Largest relative rounding error bound on the last mover's two tails at
# which `LastMover` still bounds that mover's ratio; the ratio then errs by
# at most twice this, far inside the scan's CELL_MARGIN.
LAST_TAIL_GUARD = CELL_MARGIN / 16


class Settled:
    """A drive that has settled, answering the queries of a solved state.

    Filled (B <= 0): movers bet on private beliefs alone and completion is
    certain.  Unfillable (B > n): nobody invests and completion is
    impossible.  Neither is ever irregular.  The child ratio is the
    `completion_ratio` of `pi_at`'s completion chances, here and in every
    subclass: 1 where filled, +inf where unfillable.
    """

    def __init__(self, dist, filled: bool):
        self.dist = dist
        self.filled = filled

    def sigma_at(self, L):
        La = np.asarray(L, dtype=float)
        out = pivotal_threshold(self.dist, La) if self.filled else np.full_like(La, self.dist.Q)
        return _answer(out)

    def pi_at(self, L):
        z = np.full_like(np.asarray(L, dtype=float), 1.0 if self.filled else 0.0)
        return _answer(z), _answer(z.copy())

    def ratio_at(self, L):
        return _answer(completion_ratio(*self.pi_at(L)))

    def ratio_bounds(self, lo, hi):
        return self.ratio_at(lo), self.ratio_at(hi)

    def irregular_at(self, L):
        return _answer(np.zeros(np.shape(L), dtype=bool))


class LastMover(Settled):
    """The sole pivotal last mover at state (1, 1), in closed form.

    Her investment fills the drive, so she cuts at the clipped 1/(1+L)
    (`pivotal_threshold`), as a mover of a filled drive does; completion
    is her own investment, pi_w = sf_w at that cut, and the child ratio is
    the `completion_ratio` of those chances, sf_0/sf_1 there (+inf where
    the cut clips to Q, at the dead frontier (1-Q)/Q or below).  It is
    never irregular, and nothing carries interpolation error.
    """

    def __init__(self, dist):
        super().__init__(dist, True)

    def pi_at(self, L):
        p0, p1 = self.dist.sf_pair(pivotal_threshold(self.dist, L))
        return _answer(p0), _answer(p1)

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


def terminal(dist, B, n):
    """What answers at a terminal state (B, n): a filled (B <= 0) or
    unfillable (B > n) drive, or the last mover at (1, 1); None if live."""
    if B <= 0 or B > n:
        return Settled(dist, B <= 0)
    if (B, n) == (1, 1):
        return LastMover(dist)
    return None


def gap(dist, child_ratio, L, x):
    """Indifference gap G at threshold x; NaN where the invest child is dead."""
    La = np.asarray(L, dtype=float)
    xa = np.asarray(x, dtype=float)
    return gap_at(child_ratio, La, xa, La * dist.lr_upper_tail(xa))


def gap_at(child_ratio, L, x, Lp):
    """G at threshold x from its invest child's odds Lp = L * lr_upper_tail(x),
    as `Choice.Lp` holds them; NaN where that child is dead."""
    r = np.asarray(child_ratio(Lp), dtype=float)
    return np.where(np.isfinite(r), L * x / (1.0 - x) - r, np.nan)


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

    Bracket k is [lo[k], hi[k]] at state[k]: G changes sign across it and
    is positive at lo[k] where glo_pos[k], or lo[k] = hi[k] is a scan point
    where G is exactly zero (glo_pos[k] false).  The brackets run in
    (state, scan point) order.  The counts are the bound queries made and
    the cells certified, evaluated and evaluated without a bound.
    """

    state: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    glo_pos: np.ndarray
    queried: int
    certified: int
    evaluated: int
    unbounded: int


def _range_tables(v):
    """Sparse tables (lo, hi) of the minima and maxima of v over power-of-two spans.

    Entry i of row t is the min (max) of v[i : min(i + 2**t, v.size)], so
    the last row's entry 0 spans v, and rows t <= log2(m) cover any run of
    m entries with two spans.
    """
    lo, hi = [v], [v]
    w = 1
    while w < v.size:
        lo.append(np.concatenate((np.minimum(lo[-1][:-w], lo[-1][w:]), lo[-1][-w:])))
        hi.append(np.concatenate((np.maximum(hi[-1][:-w], hi[-1][w:]), hi[-1][-w:])))
        w *= 2
    return np.array(lo), np.array(hi)


@dataclass(frozen=True)
class _ScanTable:
    """The half of a scan that no state changes, for one distribution and
    scan size: the points xs, their upper-tail likelihood ratio uxs and
    x/(1-x) lhs, the cells' points pts, and `_range_tables` (umin, umax)
    over the cells' min and max of uxs.
    """

    xs: np.ndarray
    uxs: np.ndarray
    lhs: np.ndarray
    pts: np.ndarray
    ranges: tuple


# Scan tables by distribution, then scan size, built on first use; an
# entry goes with its distribution.
_SCAN_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _scan_table(dist, scan):
    """The `_ScanTable` of `scan` points over dist's support, built once."""
    tables = _SCAN_TABLES.setdefault(dist, {})
    table = tables.get(scan)
    if table is None:
        xs = np.linspace(dist.lo, dist.hi, scan)
        uxs = dist.lr_upper_tail(xs)
        lhs = xs / (1.0 - xs)
        first = np.arange(0, scan - 1, CELL_POINTS - 1)
        pts = np.minimum(first[:, None] + np.arange(CELL_POINTS), scan - 1)
        ucell = uxs[pts]
        umin, umax = _range_tables(ucell.min(axis=1))[0], _range_tables(ucell.max(axis=1))[1]
        for a in (xs, uxs, lhs, pts, umin, umax):
            a.flags.writeable = False  # shared by every later scan
        table = tables[scan] = _ScanTable(xs, uxs, lhs, pts, (umin, umax))
    return table


def _open_cells(Ls, bounds, table):
    """The (state, cell) pairs the bounds cannot certify, coarse to fine.

    Group g of level k, held by its first cell c = g * 2**k, is the cells
    [c, c + 2**k) cut at the last: entry c of row k of the table's ranges.
    Each state's one top group is bounded first; a group that fails splits
    into its two halves, down to single cells.  Queries go SCAN_BLOCK at a
    time.  Returns (states, cells, queried, unbounded), the pairs in
    (state, cell) order and the unbounded count over the cells queried.
    """
    umin, umax = table.ranges
    lhs_first, lhs_last = table.lhs[table.pts[:, 0]], table.lhs[table.pts[:, -1]]
    cells = lhs_first.size
    s = np.arange(len(Ls))
    c = np.zeros(len(Ls), dtype=int)
    queried = unbounded = 0
    for k in range(umin.shape[0] - 1, -1, -1):
        fails = np.empty(s.size, dtype=bool)
        for i in range(0, s.size, SCAN_BLOCK):
            ci = c[i : i + SCAN_BLOCK]
            last = np.minimum(ci + (1 << k), cells) - 1
            Lb = Ls[s[i : i + SCAN_BLOCK]]
            rmin, rmax = bounds(Lb * umin[k][ci], Lb * umax[k][ci])
            if k == 0:
                unbounded += np.count_nonzero(np.isnan(rmin) | np.isnan(rmax))
            fails[i : i + SCAN_BLOCK] = ~(
                (Lb * lhs_first[ci] > rmax * (1.0 + CELL_MARGIN))
                | (Lb * lhs_last[last] < rmin * (1.0 - CELL_MARGIN))
            )
        queried += s.size
        s, c = s[fails], c[fails]
        if k:
            # Each failed group splits into its halves, in (state, group)
            # order; the last group of a level may have one half only.
            s = np.repeat(s, 2)
            c = (c[:, None] + np.array([0, 1 << (k - 1)])).ravel()
            has = c < cells
            s, c = s[has], c[has]
    return s, c, queried, unbounded


def scan_roots(dist, child_ratio, Ls, scan, bounds=None):
    """Sign-change brackets of G at each odds point (a `Scan`).

    The scan has `scan` points over the support.  A scan point where G is
    exactly zero is the zero-width bracket [x, x], except at the ends
    1-Q and Q, which are the herd candidates.  Evaluation goes a block of
    about SCAN_BLOCK (state, scan point) elements at a time, and bound
    queries go SCAN_BLOCK at a time.

    With `bounds` (see the module docstring) only the cells the bounds
    cannot certify are evaluated; the brackets are the same as without.
    """
    table = _scan_table(dist, scan)
    xs, uxs, lhs = table.xs, table.uxs, table.lhs
    M = len(Ls)
    cells = table.pts.shape[0]
    if bounds is None:
        # Every cell is evaluated, as one cell spanning the whole scan.
        pts = np.arange(scan)[None, :]
        open_s, open_c = np.arange(M), np.zeros(M, dtype=int)
        queried, evaluated = 0, M * cells
        unbounded = evaluated
    else:
        pts = table.pts
        open_s, open_c, queried, unbounded = _open_cells(Ls, bounds, table)
        evaluated = open_s.size
    step = max(1, SCAN_BLOCK // pts.shape[1])
    states, los, his, glo_pos = [], [], [], []
    for i in range(0, open_s.size, step):
        s, c = open_s[i : i + step], open_c[i : i + step]
        ux, lh = uxs[pts[c]], lhs[pts[c]]
        Lu = Ls[s][:, None]
        r = child_ratio(Lu * ux)
        G = np.where(np.isfinite(r), Lu * lh - r, np.nan)
        a, b = G[:, :-1], G[:, 1:]
        # A bracket's lower point: a sign change to the next point, or a
        # zero.  Times the sign of b, not b: a product of two tiny (huge)
        # gaps underflows to zero (overflows) and would drop or warn on the
        # bracket.  A zero at a cell's first point is the previous cell's
        # last point (or x = 1-Q), so a cell reports zeros from its second.
        hit = np.zeros(G.shape, dtype=bool)
        hit[:, :-1] = (a * np.sign(b) < 0.0) & np.isfinite(a) & np.isfinite(b)
        hit[:, 1:] |= b == 0.0
        u, k = np.nonzero(hit)
        j, g = pts[c[u], 0] + k, G[u, k]
        keep = (g != 0.0) | (j < scan - 1)  # a zero at x = Q is herd decline
        u, j, g = u[keep], j[keep], g[keep]
        states.append(s[u])
        los.append(j)
        his.append(j + (g != 0.0))
        glo_pos.append(g > 0.0)
        # Only one block's arrays are alive while the next block's
        # child evaluation allocates its own.
        del r, G, a, b, hit, ux, lh

    def joined(parts, dtype=int):
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    return Scan(
        joined(states),
        xs[joined(los)],
        xs[joined(his)],
        joined(glo_pos, bool),
        queried,
        M * cells - evaluated,
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
    (lo, hi, calls): a bracket per state and the predicate calls of that
    bisection.  The bracket is [lo, Q], on which G rises through zero from
    the window's lower end lo, or [lo, lo] where G >= 0 at lo (every
    playable type prefers investing), a zero-width bracket holding the
    reply itself.
    """

    def g(x):
        return gap(dist, child_ratio, Ls, x)

    calls = 0
    if not len(Ls):  # most calls rescue no state
        return np.empty(0), np.empty(0), calls
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
    return lo, np.where(g_lo >= 0.0, lo, hi), calls


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


def _assemble(Q, herd_inv, herd_dec, root_state, root_x):
    """Flat candidates (offsets, x, kind) of states with the given herd
    flags and interior roots (root_x[k] at state root_state[k], any order).

    Candidates of state s are x[offsets[s] : offsets[s + 1]], kind codes
    into KINDS alongside: herd invest (1-Q) where playable, the roots in
    ascending order, herd decline (Q) where playable.  A root is dropped
    within 1e-9 of the candidate kept before it, and within 1e-9 of Q
    where herd decline is playable.  No earlier candidate is nearer a root
    than its predecessor, so a root farther than 1e-9 from its predecessor
    passes the first rule; only the rare roots within 1e-9 of theirs (a
    chain of close roots, or one at 1-Q) walk back, one by one, to the
    candidate kept before them.
    """
    inv, dec = np.flatnonzero(herd_inv), np.flatnonzero(herd_dec)
    state = np.concatenate((inv, root_state, dec))
    kind = np.repeat(np.arange(len(KINDS), dtype=np.int8), (inv.size, root_state.size, dec.size))
    x = np.concatenate((np.full(inv.size, 1.0 - Q), root_x, np.full(dec.size, Q)))
    order = np.lexsort((x, kind, state))
    state, kind, x = state[order], kind[order], x[order]
    root = kind == KINDS.index(KIND_INTERIOR)
    near_q = root & herd_dec[state] & (np.abs(x - Q) <= 1e-9)
    close = np.zeros(x.size, dtype=bool)
    close[1:] = root[1:] & (state[1:] == state[:-1]) & (np.abs(x[1:] - x[:-1]) <= 1e-9)
    keep = ~near_q & ~close
    for i in np.flatnonzero(close):
        k = i - 1
        while k >= 0 and state[k] == state[i] and not keep[k]:
            k -= 1
        kept_before = k >= 0 and state[k] == state[i]
        keep[i] = not near_q[i] and not (kept_before and abs(x[i] - x[k]) <= 1e-9)
    state = state[keep]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(state, minlength=herd_inv.size))))
    return offsets, x[keep], kind[keep]


def candidates(dist, child_ratio, Ls, scan, bounds=None):
    """Interior roots plus playable herd thresholds at each state, as flat
    arrays (offsets, x, kind) (see `_assemble`).

    The scan's brackets and the rescue brackets of the states left with
    no candidate are bisected in one call, zero-width ones included, and
    every interior root is a bisected bracket (module docstring).
    """
    found = scan_roots(dist, child_ratio, Ls, scan, bounds)
    herd_inv, herd_dec = herd_flags(dist, child_ratio, Ls)
    found_any = herd_inv | herd_dec
    found_any[found.state] = True
    rescued = np.flatnonzero(~found_any)
    lo, hi, rescue_calls = _rescue(dist, child_ratio, Ls[rescued])
    # A rescue bracket has G negative at lo, or zero width.
    state = np.concatenate((found.state, rescued))
    bL = Ls[state]
    xr, bisect_calls = _bisect_brackets(
        lambda x: gap(dist, child_ratio, bL, x),
        np.concatenate((found.lo, lo)),
        np.concatenate((found.hi, hi)),
        np.concatenate((found.glo_pos, np.zeros(rescued.size, dtype=bool))),
    )
    _debug(
        "root scan of %d states: %d bound queries, %d cells certified, %d evaluated "
        "(%d without a bound), %d brackets, %d rescued; %d bisection and %d rescue "
        "predicate calls",
        len(Ls), found.queried, found.certified, found.evaluated, found.unbounded,
        found.state.size, rescued.size, bisect_calls, rescue_calls,
    )
    return _assemble(dist.Q, herd_inv, herd_dec, state, xr)


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
    groups: list[list[int]] = []
    for i in range(len(xs)):
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

    Candidate arrays are flat in state order, as `candidates` gives them
    (kind holds codes into KINDS); U holds each candidate's expected
    utility, sel[s] indexes the candidate chosen at state s and tie[s]
    flags a discriminator tie there.
    """

    x: np.ndarray
    kind: np.ndarray
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

    cands is (offsets, x, kind) as `candidates` gives it; child_pi maps
    invest-child odds to (pi_0, pi_1); signatures, when given, maps (x,
    child odds) to the continuation multisets `select` groups by.
    """
    offsets, x, kind = cands
    counts = np.diff(offsets)
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
    return Choice(x, kind, T0, T1, Lp, p0c, p1c, U, sel, tie)


def solve_states(dist, inv, dec, Ls, scan, signatures=None):
    """Solve a live state at each odds point of Ls from its invest and
    decline children inv and dec (module docstring): `candidates` with
    `scan`, `choose` with `signatures`, the recurrence, and the flags of a
    tie or a reachable irregular child.  Returns (choice, pi0, pi1,
    irregular), the choice as `choose` gives it.

    Where the invest child is a filled drive the mover is pivotal and her
    one candidate per state is the closed-form `pivotal_threshold`, with
    no scan: herd invest where it clips to 1-Q, herd decline where it
    clips to Q, else an interior root (`_assemble`).  The last mover
    subclasses a filled `Settled`, but a mover before her does not fill
    the drive, so that state keeps the search.
    """
    if type(inv) is Settled and inv.filled:
        x = pivotal_threshold(dist, Ls)
        cut = np.flatnonzero((x != dist.lo) & (x != dist.hi))
        cands = _assemble(dist.Q, x == dist.lo, x == dist.hi, cut, x[cut])
    else:
        cands = candidates(dist, inv.ratio_at, Ls, scan, inv.ratio_bounds)
    ch = choose(dist, Ls, cands, inv.pi_at, signatures)
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
