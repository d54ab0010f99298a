"""Must-fill games (B = n) solved directly from the product system.

When every remaining player must invest, a single decline kills the drive,
so completion probabilities are plain products of invest tails and the
equilibrium threshold profile (x_1, ..., x_n) solves the simultaneous
system

    L * x_i/(1-x_i) = prod_{k != i} psi(x_k),        psi = (1-F_0)/(1-F_1),

independently of the order of play; order only determines which member of
the solved multiset moves first (the discriminator picks the one a
vanishing tremble favors).  This module solves that system with no
likelihood grid: the exact ladder (solve_unanimity) selects one profile,
and asymmetric_profiles finds every one, exhaustively, from C(n+S, S)
count vectors over the S monotone pieces of the hazard J.  It also owns
the delegation analysis: profiles where some player invests for every type.

The exact ladder shares its per-state rule with the grid engine: the
candidate scan, root bisection, herd candidates, rescue and the
utility-then-discriminator selection all come from cascadefund.roots, so
that code is not cross-checked by comparing the two solvers.  What stays
independent is how a child state is evaluated: exact recursion here,
interpolation in solved table rows there, and that is what the
grid-versus-exact comparison checks.  The one exception is the last mover
at (1, 1): both solvers read her closed form, roots.LastMover, and a
two-player step here takes the same certified scan, on her ratio bounds,
as every engine row.  The ladder and the engine diagonal are two steps of
one walk down the all-invest path (roots.invest_path); nothing here
builds an engine table, the sweep walks one its caller solved, for
n >= 3.

Nothing here is a setting: the scan sizes are module constants, and the
root, residual and tie tolerances are those of cascadefund.roots, the
same the engine uses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from cascadefund import roots
from cascadefund.beliefs import DomainError, TypeDistribution
from cascadefund.cascades import down_cascade_bound, in_down_cascade, in_up_cascade, witness_intervals
from cascadefund.roots import (
    KIND_HERD_DECLINE,
    KIND_HERD_INVEST,
    KIND_INTERIOR,
    RESIDUAL_TOL,
    ROOT_XTOL,
)

__all__ = [
    "DelegationReport",
    "ThresholdProfile",
    "asymmetric_profiles",
    "completion_prob_unanimity",
    "delegation_analysis",
    "hazard_J",
    "J_monotone_segments",
    "profile_discriminator",
    "profile_utility",
    "social_insurance_check",
    "solve_unanimity",
    "sweep_profiles",
]


# Ladder scan points at the top level, one level down, and deeper.  Scans
# only bracket roots; precision comes from bisection.  Deeper recursion
# levels use coarser scans to keep n=4 tractable.
SCAN_TOP = 1201
SCAN_REC = 151
SCAN_DEEP = 101
# Scan points of d log J over the support, which asymmetric_profiles also
# scans its level equations on.
SCAN_HAZARD = 4001


def _psi(dist: TypeDistribution, x):
    """Decline-odds factor (1-F_0)/(1-F_1), the reciprocal invest update."""
    return 1.0 / dist.lr_upper_tail(x)


@dataclass(frozen=True)
class ThresholdProfile:
    """One equilibrium threshold multiset, first mover first.

    kinds mirrors thresholds: an interior member is indifferent at its
    threshold, a herd_invest member invests for every type, a herd_decline
    member declines for every type.  residuals hold the indifference gap
    of each member (signed; inequality slack for herd members).
    """

    L: float
    thresholds: tuple[float, ...]
    kinds: tuple[str, ...]
    pi0: float
    pi1: float
    utility: float
    residuals: tuple[float, ...]
    discriminators: tuple[float, ...]


def completion_prob_unanimity(dist: TypeDistribution, thresholds):
    """Completion probability by world: products of invest tails along the last axis."""
    T0, T1 = dist.sf_pair(thresholds)
    pi0, pi1 = np.prod(T0, axis=-1), np.prod(T1, axis=-1)
    return (float(pi0), float(pi1)) if pi0.ndim == 0 else (pi0, pi1)


def profile_utility(dist: TypeDistribution, L, thresholds):
    """First mover's ex-ante utility, per profile along the last axis; permutation invariant."""
    pi0, pi1 = completion_prob_unanimity(dist, thresholds)
    lam = L / (1.0 + L)
    return lam * pi1 - (1.0 - lam) * pi0


def profile_discriminator(dist: TypeDistribution, L: float, thresholds, i: int) -> float:
    """Tie-break score of member i: best tremble payoff against a rival.

    roots.discriminator with member i's continuation completing by the
    invest tails of the other members, who are also its rivals.  The
    product form keeps members at the support edge finite.
    """
    xs = np.asarray(thresholds, dtype=float)
    if len(xs) < 2:
        raise DomainError("discriminator needs at least two members")
    T0, T1 = dist.sf_pair(xs)
    others = np.arange(len(xs)) != i
    T0o, T1o = T0[others], T1[others]
    return float(roots.discriminator(L, np.prod(T0o), np.prod(T1o), T0o, T1o))


def _member_residual(dist, L, xs, i):
    """Signed indifference gap of member i in the simultaneous system."""
    xs = np.asarray(xs, dtype=float)
    others = np.arange(len(xs)) != i
    rhs = float(np.prod(_psi(dist, xs[others]))) if others.any() else 1.0
    xi = float(xs[i])
    return L * xi / (1.0 - xi) - rhs


# -- exact recursive ladder ---------------------------------------------------


def _ladder_solve(dist, Ls, m, depth=0):
    """Solve the m-player must-fill game exactly at each odds point.

    Returns (x_first, pi0, pi1, tie), where tie flags a discriminator tie
    in the first mover's selection.  Child states are solved recursively
    by the same routine, so no interpolation enters anywhere; costs grow
    geometrically in m and stay practical for m <= 4.
    """
    Ls = np.asarray(Ls, dtype=float)
    last = roots.LastMover(dist)
    if m == 1:
        return (last.sigma_at(Ls), *last.pi_at(Ls), np.zeros(Ls.shape, dtype=bool))

    if depth == 0:
        scan = SCAN_TOP
    elif depth == 1:
        scan = SCAN_REC
    else:
        scan = SCAN_DEEP
    if m == 2:
        # The child is the closed-form last mover, whose ratio bounds let
        # the scan skip every cell they certify (cascadefund.roots).
        child_ratio, child_pi, bounds = last.ratio_at, last.pi_at, last.ratio_bounds
    else:
        # Below this the child subgame declines for every type, with
        # certainty; shrink the analytic bound a hair so boundary queries
        # still get the exact recursive answer.
        dead_child = down_cascade_bound(dist.Q, m - 1) * (1.0 - 1e-12)

        def child_pi(Lq):
            return _ladder_solve(dist, Lq, m - 1, depth + 1)[1:3]

        def child_ratio(Lq):
            Lq = np.asarray(Lq, dtype=float)
            out = np.full(Lq.shape, np.inf)
            live = Lq > dead_child
            if live.any():
                out[live] = roots.completion_ratio(*child_pi(Lq[live]))
            return out

        bounds = None

    # A block of 5,120 elements keeps the temporaries of the scan and of
    # the child evaluations small: a two-player step bounds 5,120 groups of
    # cells at a time and evaluates its open cells 128 at a time, and a
    # dense deeper step takes four states of the top scan at a time (at
    # five they sat at glibc's heap-trim threshold, and in some heap
    # layouts every block returned its pages and faulted them back in).
    # With the certified two-player scan a sweep-exact benchmark child
    # takes ~5,150 minor faults at each of 8 checkout path lengths (the
    # dense scan took as many at 7 of them and 7,630 at one); 8,192-element
    # blocks take ~5,780.
    cands = roots.candidates(dist, child_ratio, Ls, scan, 5_120, bounds)
    ch = roots.choose(dist, Ls, cands, child_pi)
    sel = ch.sel
    # One decline kills a must-fill drive: completion runs through the
    # invest child alone.
    return ch.x[sel], ch.T0[sel] * ch.p0c[sel], ch.T1[sel] * ch.p1c[sel], ch.tie


def _ladder_step(dist, Ls, m):
    """The exact ladder's step of the all-invest walk: (x_first, tie)."""
    return _ladder_solve(dist, Ls, m)[::3]


def solve_unanimity(L: float, dist: TypeDistribution, n: int) -> ThresholdProfile:
    """Exact equilibrium of the n-player must-fill game, in playing order."""
    step = partial(_ladder_step, dist)
    thresholds = roots.invest_path(dist, [float(L)], range(n, 0, -1), step)[0][0]
    return _finish_profile(dist, float(L), thresholds)


def _member_kind(dist, x):
    if abs(x - dist.lo) <= 1e-12:
        return KIND_HERD_INVEST
    if abs(x - dist.hi) <= 1e-12:
        return KIND_HERD_DECLINE
    return KIND_INTERIOR


def _finish_profile(dist, L, thresholds, reorder=False) -> ThresholdProfile:
    xs = list(map(float, thresholds))
    n = len(xs)
    if reorder and n >= 2:
        ds = [profile_discriminator(dist, L, xs, i) for i in range(n)]
        order = sorted(range(n), key=lambda i: (-ds[i], xs[i]))
        xs = [xs[i] for i in order]
    pi0, pi1 = completion_prob_unanimity(dist, xs)
    kinds = tuple(_member_kind(dist, x) for x in xs)
    residuals = tuple(_member_residual(dist, L, xs, i) for i in range(n))
    discr = (
        tuple(profile_discriminator(dist, L, xs, i) for i in range(n))
        if n >= 2
        else (math.nan,)
    )
    return ThresholdProfile(
        L=L,
        thresholds=tuple(xs),
        kinds=kinds,
        pi0=pi0,
        pi1=pi1,
        utility=profile_utility(dist, L, xs),
        residuals=residuals,
        discriminators=discr,
    )


def _profile_valid(dist, L, xs, kinds) -> bool:
    tol = RESIDUAL_TOL * max(1.0, L)
    for i, (x, kind) in enumerate(zip(xs, kinds)):
        r = _member_residual(dist, L, xs, i)
        if kind == KIND_INTERIOR and abs(r) > tol:
            return False
        if kind == KIND_HERD_INVEST and r < -tol:
            return False
        if kind == KIND_HERD_DECLINE and r > tol:
            return False
    return True


def asymmetric_profiles(L: float, dist: TypeDistribution, n: int) -> list[ThresholdProfile]:
    """Every equilibrium threshold multiset of the must-fill game.

    Member i's gap is (L*J(x_i) - P)/psi(x_i), P the product of every
    member's psi and J = hazard_J.  So every interior member sits on one
    level v = P/L of J, each monotone piece of J holds at most one distinct
    value, and a member at 1-Q needs J(1-Q) >= v; J < 1 below Q, so one
    member at Q puts every member at Q.  Besides the two all-herd profiles,
    a profile is a count vector (members at 1-Q and on each of the S
    pieces) plus the equation L*v = P(v).  The search is exhaustive over
    the C(n+S, S) count vectors: each equation is scanned in x along its
    first occupied piece, at the scan points of d log J (so levels are
    dense where J turns), and every sign change is bisected.  Members are
    emitted first-mover first.
    """
    if n < 1:
        raise DomainError("need at least one player")
    if n == 1:
        return [_finish_profile(dist, L, [roots.pivotal_threshold(dist, L)])]

    lo, hi = dist.lo, dist.hi
    found: list[list[float]] = []

    def push(xs):
        xs = sorted(float(v) for v in xs)
        for old in found:
            if max(abs(a - b) for a, b in zip(old, xs)) <= 1e-7:
                return
        if _profile_valid(dist, L, xs, [_member_kind(dist, x) for x in xs]):
            found.append(xs)

    push([lo] * n)
    push([hi] * n)
    xs, ends, signs = _hazard_scan(dist)
    a, b = np.r_[lo, ends[1:-1]], np.r_[ends[1:-1], hi]
    S = a.size

    def members(x, on):
        """Each piece's member at the level J(x), x on piece `on` (along
        x's last axis; leading axes, such as bisect's, broadcast): the
        level's crossing, or the piece's nearer end where it misses."""
        v, shape = hazard_J(dist, x)[..., None], (*np.shape(x), S)
        p, q = roots.bisect(
            lambda m: (hazard_J(dist, m) < v) == (signs > 0),
            np.broadcast_to(a, shape), np.broadcast_to(b, shape), 0.0, 60,
        )
        return np.where(np.arange(S) == on[:, None], x[..., None], 0.5 * (p + q))

    # Level equation of count vector m: F = log(L*J) - sum_s m_s log psi(x_s).
    pts = [np.r_[p, xs[(xs > p) & (xs < q)], q] for p, q in zip(a, b)]
    x1, piece = np.concatenate(pts), np.repeat(np.arange(S), [len(x) for x in pts])
    F0 = np.log(L * hazard_J(dist, x1))
    lpsi = np.log(_psi(dist, members(x1, piece)))
    brackets = []
    for s in range(S):
        (at,) = np.nonzero(piece == s)
        # Piece s first occupied: m0 at 1-Q (psi = 1 there), m_s >= 1.
        for block in _count_vectors(n - 1, S - s + 1):
            M = np.zeros((len(block), S), dtype=np.int64)
            M[:, s:] = block[:, 1:]
            M[:, s] += 1
            row, k = _level_brackets(F0[at], lpsi[at], M)
            brackets.append((np.full(row.size, s), at[k], block[row, 0], M[row]))
    first, k, m0, M = (np.concatenate(c) for c in zip(*brackets))

    def positive(x):
        lp = np.log(_psi(dist, members(x, first)))
        return np.log(L * hazard_J(dist, x)) - np.sum(M * lp, axis=-1) > 0.0

    pos = F0[k] - np.sum(M * lpsi[k], axis=1) > 0.0
    p, q = roots.bisect(lambda x: positive(x) == pos, x1[k], x1[k + 1], ROOT_XTOL, 100)
    for c0, m, X in zip(m0, M, members(0.5 * (p + q), first)):
        push([lo] * int(c0) + list(np.repeat(X, m)))

    return [_finish_profile(dist, L, xs, reorder=True) for xs in found]


def _count_vectors(total, bins):
    """Every way to put `total` members into `bins` bins, 4,096 at a time
    (stars and bars: bins - 1 bars among total + bins - 1 slots)."""
    slots = total + bins - 1
    bars = itertools.combinations(range(slots), bins - 1)
    while True:
        cut = np.fromiter(itertools.chain.from_iterable(itertools.islice(bars, 4096)), np.int64)
        if not cut.size:
            return
        yield np.diff(cut.reshape(-1, bins - 1), axis=1, prepend=-1, append=slots) - 1


def _level_brackets(F0, lpsi, M):
    """(count vector, k) wherever F = F0 - lpsi @ m switches between F <= 0
    and F > 0 from scan point k to k+1.

    Each term of F is monotone along the scan piece (J and psi are
    monotone there, and each other piece's member is monotone in the
    level), so on a stretch of scan points F lies between bounds taken at
    the stretch's ends.  Stretches those bounds keep on one side are
    dropped and the rest halved down to neighbouring points: the brackets
    of a dense scan, without evaluating every point for every vector.
    """
    row, i, j = np.arange(len(M)), np.zeros(len(M), dtype=int), np.full(len(M), len(F0) - 1)
    rows, ks = [], []
    while row.size:
        Pi, Pj = M[row] * lpsi[i], M[row] * lpsi[j]
        top = np.maximum(F0[i], F0[j]) - np.minimum(Pi, Pj).sum(axis=1)
        bottom = np.minimum(F0[i], F0[j]) - np.maximum(Pi, Pj).sum(axis=1)
        live, last = (bottom <= 0.0) & (top > 0.0), j - i == 1
        hit = live & last & ((F0[i] - Pi.sum(axis=1) > 0.0) != (F0[j] - Pj.sum(axis=1) > 0.0))
        rows.append(row[hit])
        ks.append(i[hit])
        split = live & ~last
        mid = (i + j)[split] // 2
        row, i, j = np.tile(row[split], 2), np.r_[i[split], mid], np.r_[mid, j[split]]
    return np.concatenate(rows), np.concatenate(ks)


# -- hazard shape and delegation ---------------------------------------------


def hazard_J(dist: TypeDistribution, x):
    """J(x) = (x/(1-x)) * (1-F_0)/(1-F_1); level sets hold the thresholds
    of any one equilibrium profile, so J's monotone segments bound how
    many distinct thresholds can coexist."""
    xa = np.asarray(x, dtype=float)
    out = xa / (1.0 - xa) * _psi(dist, xa)
    return float(out) if out.ndim == 0 else out


def _hazard_scan(dist):
    """Scan points of d log J and the monotone pieces of J they show.

    Returns (xs, ends, signs): SCAN_HAZARD points inset from the support
    edges, the ends of the pieces (the outer two are the first and last
    points) and the sign of d log J on each.  The derivative is evaluated
    in closed form, 1/x + 1/(1-x) + f_1/(1-F_1) - f_0/(1-F_0), and each
    sign change between neighbouring points is bisected to where it
    happens: a zero, or a density breakpoint such as 1-R.
    """

    def rising(x):
        T0, T1 = dist.sf_pair(x)
        return (
            1.0 / x
            + 1.0 / (1.0 - x)
            + dist.pdf(1, x) / np.maximum(T1, 1e-300)
            - dist.pdf(0, x) / np.maximum(T0, 1e-300)
        ) >= 0.0

    inset = (dist.hi - dist.lo) * 1e-7
    xs = np.linspace(dist.lo + inset, dist.hi - inset, SCAN_HAZARD)
    up = rising(xs)
    k = np.flatnonzero(up[1:] != up[:-1])
    _, turns = roots.bisect(lambda m: rising(m) == up[k], xs[k], xs[k + 1], 0.0, 60)
    return xs, np.r_[xs[0], turns, xs[-1]], np.where(up[np.r_[0, k + 1]], 1, -1)


def J_monotone_segments(dist: TypeDistribution):
    """Maximal segments (start, end, sign) of (1-Q, Q) where d log J / dx
    keeps one sign.  Neighbouring segments share the end where the sign
    changes; the outer ends are inset from the support edges."""
    _, ends, signs = _hazard_scan(dist)
    return [(float(a), float(b), int(s)) for a, b, s in zip(ends[:-1], ends[1:], signs)]


@dataclass(frozen=True)
class DelegationReport:
    """Whether some player can rationally invest for every type, and when."""

    startable: bool
    witness_intervals: tuple[tuple[float, float], ...]
    earliest_only: bool
    latest_only: bool


def delegation_analysis(dist: TypeDistribution) -> DelegationReport:
    """Thresholds below 1/2 whose invest update starts a cascade.

    The witness intervals are cascadefund.cascades.witness_intervals, the
    scan behind cascade_startable too.  earliest_only / latest_only
    report, over every witness threshold x, the sign of
    (1-x)(1-F_1)^2 - x(1-F_0)^2 - (1-2x): positive everywhere means only
    the earliest mover of an all-delegating block can be the delegator,
    negative everywhere means only the latest.  Both come back False when
    nothing is startable.
    """
    intervals = witness_intervals(dist)
    if not intervals:
        return DelegationReport(False, (), False, False)

    # Open interiors: the defining margin vanishes in the limit at the
    # bottom edge of the support, which tells us nothing.
    w = np.concatenate([np.linspace(a, b, 259)[1:-1] for a, b in intervals])
    T0, T1 = dist.sf_pair(w)
    allm = (1.0 - w) * T1 * T1 - w * T0 * T0 - (1.0 - 2.0 * w)
    return DelegationReport(
        startable=True,
        witness_intervals=intervals,
        earliest_only=bool(np.all(allm > 0.0)),
        latest_only=bool(np.all(allm < 0.0)),
    )


def social_insurance_check(dist: TypeDistribution, profile: ThresholdProfile) -> bool:
    """Each member shades at or below the stand-alone optimum 1/(1+L_i).

    L_i is the public odds at that member's own move along the all-invest
    path.  Shading is strict for every member followed by at least one
    informative threshold; when the whole continuation is pinned to the
    support edges it carries no information, the indifference point lands
    exactly on 1/(1+L_i), and equality is the correct outcome.  States
    inside a cascade are skipped: there thresholds pin to the support
    edges and the comparison is vacuous.
    """
    tol = 1e-9
    xs = profile.thresholds
    n = len(xs)
    L = profile.L
    for i, x in enumerate(xs):
        remaining = n - i
        if not (
            in_up_cascade(L, dist.Q) or in_down_cascade(L, remaining, dist.Q)
        ):
            bar = 1.0 / (1.0 + L)
            if x > bar + tol:
                return False
            if i < n - 1 and not x < bar:
                later = np.asarray(xs[i + 1 :], dtype=float)
                informative = (later > dist.lo + tol) & (later < dist.hi - tol)
                if np.any(informative):
                    return False
        L = L * float(dist.lr_upper_tail(x))
    return True


def sweep_profiles(dist: TypeDistribution, n: int, Ls, policy=None):
    """Solved profiles across an odds range, as columnar arrays.

    One walk down the all-invest path from every odds point at once: up
    to two players step with the exact ladder, more with the diagonal of
    the grid-engine table `policy`.
    """
    Ls = np.asarray(Ls, dtype=float)
    if n <= 2:
        step = partial(_ladder_step, dist)
    elif policy is None:
        raise DomainError(f"a {n}-player sweep needs a solved policy table")
    else:
        def step(L, m):
            return policy.sigma(L, m, m), policy.irregular_at(L, m, m)
    xcols, irregular = roots.invest_path(dist, Ls, range(n, 0, -1), step)
    pi0, pi1 = completion_prob_unanimity(dist, xcols)
    utility = profile_utility(dist, Ls, xcols)
    delegate = xcols <= dist.lo + 1e-9
    return {
        "L": Ls,
        "x": xcols,
        "pi0": pi0,
        "pi1": pi1,
        "utility": utility,
        "delegate": delegate,
        "irregular": irregular,
    }
