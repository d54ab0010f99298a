"""Must-fill games (B = n) solved directly from the product system.

When every remaining player must invest, a single decline kills the drive,
so completion probabilities are plain products of invest tails and the
equilibrium threshold profile (x_1, ..., x_n) solves the simultaneous
system

    L * x_i/(1-x_i) = prod_{k != i} psi(x_k),        psi = (1-F_0)/(1-F_1),

independently of the order of play; order only determines which member of
the solved multiset moves first (the discriminator picks the one a
vanishing tremble favors).  This module solves that system exactly by
nested bisection, with no likelihood grid, and owns the delegation
analysis: profiles where some player invests for every type.

It is deliberately independent of the grid engine so the two can serve as
cross-checks; only the sweep helper may build an engine table for n >= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cascadefund.beliefs import DomainError, TypeDistribution
from cascadefund.cascades import cascade_trigger, in_down_cascade, in_up_cascade, up_cascade_bound

__all__ = [
    "DelegationReport",
    "ThresholdProfile",
    "UnanimitySettings",
    "asymmetric_profiles",
    "completion_prob_unanimity",
    "delegation_analysis",
    "delegation_pattern",
    "hazard_J",
    "J_monotone_segments",
    "profile_discriminator",
    "profile_utility",
    "social_insurance_check",
    "solve_unanimity",
    "symmetric_threshold",
    "sweep_profiles",
]

KIND_INTERIOR = "interior"
KIND_HERD_INVEST = "herd_invest"
KIND_HERD_DECLINE = "herd_decline"


@dataclass(frozen=True)
class UnanimitySettings:
    # Scan densities only bracket roots; precision comes from bisection.
    # Deeper recursion levels use coarser scans to keep n=4 tractable.
    scan_top: int = 1201
    scan_rec: int = 151
    scan_deep: int = 101
    root_xtol: float = 1e-12
    residual_tol: float = 1e-9
    tie_rel_tol: float = 1e-9
    split_scan: int = 801
    gs_restarts: int = 6
    gs_iters: int = 120


def _psi(dist: TypeDistribution, x):
    """Decline-odds factor (1-F_0)/(1-F_1), the reciprocal invest update."""
    return 1.0 / dist.lr_upper_tail(x)


def _clip_threshold(dist: TypeDistribution, x):
    return np.clip(x, dist.lo, dist.hi)


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

    @property
    def n(self) -> int:
        return len(self.thresholds)

    def to_dict(self) -> dict:
        return {
            "L": self.L,
            "thresholds": list(self.thresholds),
            "kinds": list(self.kinds),
            "pi0": self.pi0,
            "pi1": self.pi1,
            "utility": self.utility,
        }


def completion_prob_unanimity(dist: TypeDistribution, thresholds) -> tuple[float, float]:
    """Completion probability by world: products of invest tails."""
    xs = np.asarray(thresholds, dtype=float)
    return (
        float(np.prod(dist.sf(0, xs))),
        float(np.prod(dist.sf(1, xs))),
    )


def profile_utility(dist: TypeDistribution, L: float, thresholds) -> float:
    """First mover's ex-ante utility; permutation invariant."""
    pi0, pi1 = completion_prob_unanimity(dist, thresholds)
    lam = L / (1.0 + L)
    return float(lam * pi1 - (1.0 - lam) * pi0)


def profile_discriminator(dist: TypeDistribution, L: float, thresholds, i: int) -> float:
    """Tie-break score of member i: best tremble payoff against a rival.

    Written in the cancellation-free form L*T1(x_j)*prod_{k!=i}T1 -
    T0(x_j)*prod_{k!=i}T0 so members at the support edge stay finite.
    """
    xs = np.asarray(thresholds, dtype=float)
    if len(xs) < 2:
        raise DomainError("discriminator needs at least two members")
    T1 = dist.sf(1, xs)
    T0 = dist.sf(0, xs)
    others = np.arange(len(xs)) != i
    p1 = float(np.prod(T1[others]))
    p0 = float(np.prod(T0[others]))
    vals = [
        L * float(T1[j]) * p1 - float(T0[j]) * p0
        for j in range(len(xs))
        if j != i
    ]
    return float(max(vals))


def _member_residual(dist, L, xs, i):
    """Signed indifference gap of member i in the simultaneous system."""
    xs = np.asarray(xs, dtype=float)
    others = np.arange(len(xs)) != i
    rhs = float(np.prod(_psi(dist, xs[others]))) if others.any() else 1.0
    xi = float(xs[i])
    return L * xi / (1.0 - xi) - rhs


def symmetric_threshold(L: float, dist: TypeDistribution, n: int, xtol: float = 1e-12) -> float:
    """The unique all-equal threshold: L*x/(1-x) = psi(x)^(n-1).

    The left side rises and the right side falls in x, so the interior
    root is unique; outside the cascade window the threshold pins to the
    relevant support edge.
    """
    if n < 1:
        raise DomainError("need at least one player")
    lo, hi = dist.lo, dist.hi

    def g(x):
        return L * x / (1.0 - x) - _psi(dist, x) ** (n - 1)

    if g(lo) >= 0.0:
        return lo
    if g(hi) <= 0.0:
        return hi
    a, b = lo, hi
    while b - a > xtol:
        m = 0.5 * (a + b)
        if g(m) <= 0.0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


# -- exact recursive ladder ---------------------------------------------------


def _ladder_solve(dist, Ls, m, settings, depth=0):
    """Solve the m-player must-fill game exactly at each odds point.

    Returns (x_first, pi0, pi1).  Child states are solved recursively by
    the same routine, so no interpolation enters anywhere; costs grow
    geometrically in m and stay practical for m <= 4.
    """
    Ls = np.asarray(Ls, dtype=float)
    lo, hi = dist.lo, dist.hi
    if m == 1:
        x = _clip_threshold(dist, 1.0 / (1.0 + Ls))
        return x, dist.sf(0, x), dist.sf(1, x)

    if depth == 0:
        scan = settings.scan_top
    elif depth == 1:
        scan = settings.scan_rec
    else:
        scan = settings.scan_deep
    xs = np.linspace(lo, hi, scan)
    uxs = dist.lr_upper_tail(xs)
    lhs = xs / (1.0 - xs)
    # Below this the child subgame declines for every type, with certainty;
    # shrink the analytic bound a hair so boundary queries still get the
    # exact recursive answer.
    dead_child = (lo / hi) ** (m - 1) * (1.0 - 1e-12)

    def child_ratio(Lq):
        shape = np.shape(Lq)
        flat = np.ravel(np.asarray(Lq, dtype=float))
        out = np.full(flat.shape, np.inf)
        live = flat > dead_child
        if live.any():
            _, p0, p1 = _ladder_solve(dist, flat[live], m - 1, settings, depth + 1)
            out[live] = np.where(p1 > 0.0, p0 / np.where(p1 > 0.0, p1, 1.0), np.inf)
        return out.reshape(shape)

    def g_at(Lv, xv):
        Lv = np.asarray(Lv, dtype=float)
        xv = np.asarray(xv, dtype=float)
        r = child_ratio(Lv * dist.lr_upper_tail(xv))
        return np.where(np.isfinite(r), Lv * xv / (1.0 - xv) - r, np.nan)

    # Bracket sign flips a block of states at a time.  The block holds a
    # fixed number of (state, scan point) elements, so the temporaries of
    # the scan and of the child solves stay small however many odds points
    # one call serves.
    chunk = max(1, 6_144 // scan)
    ci_parts, j_parts, sign_parts = [], [], []
    for s0 in range(0, len(Ls), chunk):
        Lblock = Ls[s0 : s0 + chunk]
        r = child_ratio(Lblock[:, None] * uxs[None, :])
        G = np.where(np.isfinite(r), Lblock[:, None] * lhs[None, :] - r, np.nan)
        a, b = G[:, :-1], G[:, 1:]
        flip = (a * b < 0.0) & np.isfinite(a) & np.isfinite(b)
        ci_b, j_b = np.nonzero(flip)
        ci_parts.append(ci_b + s0)
        j_parts.append(j_b)
        sign_parts.append(a[ci_b, j_b] > 0.0)
    ci = np.concatenate(ci_parts) if ci_parts else np.empty(0, dtype=int)
    j = np.concatenate(j_parts) if j_parts else np.empty(0, dtype=int)
    glo_pos = np.concatenate(sign_parts) if sign_parts else np.empty(0, dtype=bool)

    blo, bhi = xs[j].copy(), xs[j + 1].copy()
    bL = Ls[ci]
    for _ in range(80):
        if blo.size == 0 or np.max(bhi - blo) <= settings.root_xtol:
            break
        mid = 0.5 * (blo + bhi)
        gm = g_at(bL, mid)
        go_right = (gm > 0.0) == glo_pos
        blo = np.where(go_right, mid, blo)
        bhi = np.where(go_right, bhi, mid)
    broots = 0.5 * (blo + bhi)

    r_at_L = child_ratio(Ls)
    herd_inv = np.isfinite(r_at_L) & (Ls * lo / hi >= r_at_L * (1.0 - 1e-15))
    r_at_up = child_ratio(Ls * hi / lo)
    herd_dec = ~np.isfinite(r_at_up) | (Ls * hi / lo <= r_at_up * (1.0 + 1e-15))

    cand_x: list[float] = []
    cand_state: list[int] = []
    cand_kind: list[str] = []
    per_state: list[list[int]] = [[] for _ in range(len(Ls))]
    by_state_roots: list[list[float]] = [[] for _ in range(len(Ls))]
    for s, x in zip(ci, broots):
        by_state_roots[int(s)].append(float(x))
    for s in range(len(Ls)):
        entries: list[tuple[float, str]] = []
        if herd_inv[s]:
            entries.append((lo, KIND_HERD_INVEST))
        for x in sorted(by_state_roots[s]):
            if entries and abs(x - entries[-1][0]) <= 1e-9:
                continue
            if herd_dec[s] and abs(x - hi) <= 1e-9:
                continue
            entries.append((x, KIND_INTERIOR))
        if herd_dec[s]:
            entries.append((hi, KIND_HERD_DECLINE))
        if not entries:
            entries.append((_ladder_rescue(dist, float(Ls[s]), g_at, settings), KIND_INTERIOR))
        for x, kind in entries:
            per_state[s].append(len(cand_x))
            cand_x.append(x)
            cand_state.append(s)
            cand_kind.append(kind)

    cx = np.array(cand_x)
    cL = Ls[np.array(cand_state, dtype=int)]
    T1 = dist.sf(1, cx)
    T0 = dist.sf(0, cx)
    Lp = cL * dist.lr_upper_tail(cx)
    _, p0c, p1c = _ladder_solve(dist, Lp, m - 1, settings, depth + 1)
    lam = cL / (1.0 + cL)
    U = lam * T1 * p1c - (1.0 - lam) * T0 * p0c

    x_sel = np.empty(len(Ls))
    pi0 = np.empty(len(Ls))
    pi1 = np.empty(len(Ls))
    for s in range(len(Ls)):
        ids = per_state[s]
        k = _pick_candidate(
            [float(U[i]) for i in ids],
            [float(cx[i]) for i in ids],
            float(Ls[s]),
            [float(T1[i]) for i in ids],
            [float(T0[i]) for i in ids],
            [float(p0c[i]) for i in ids],
            [float(p1c[i]) for i in ids],
            settings.tie_rel_tol,
        )[0]
        i = ids[k]
        x_sel[s] = cx[i]
        pi0[s] = T0[i] * p0c[i]
        pi1[s] = T1[i] * p1c[i]
    return x_sel, pi0, pi1


def _ladder_rescue(dist, L, g_at, settings):
    """Root search when the playable window is narrower than the scan."""
    lo, hi = dist.lo, dist.hi
    g_lo = float(np.asarray(g_at(L, lo)))
    if math.isnan(g_lo):
        a, b = lo, hi
        for _ in range(200):
            mmid = 0.5 * (a + b)
            if math.isnan(float(np.asarray(g_at(L, mmid)))):
                a = mmid
            else:
                b = mmid
            if b - a <= settings.root_xtol / 4:
                break
        lo = b
        g_lo = float(np.asarray(g_at(L, lo)))
    g_hi = float(np.asarray(g_at(L, hi)))
    if math.isnan(g_lo) or math.isnan(g_hi) or (g_lo < 0.0 and g_hi <= 0.0):
        raise DomainError(f"no playable threshold window at L={L!r}")
    if g_lo >= 0.0:
        return lo
    a, b = lo, hi
    for _ in range(100):
        mmid = 0.5 * (a + b)
        gm = float(np.asarray(g_at(L, mmid)))
        if (gm > 0.0) == (g_lo > 0.0):
            a = mmid
        else:
            b = mmid
        if b - a <= settings.root_xtol:
            break
    return 0.5 * (a + b)


def _pick_candidate(U, xs, L, T1, T0, p0c, p1c, tie_rel):
    """Utility-then-discriminator selection; returns (index, tie_irregular)."""
    k = len(U)
    if k == 1:
        return 0, False
    best = max(U)
    tol = tie_rel * max(1.0, abs(best))
    pool = [i for i in range(k) if best - U[i] <= tol]
    if len(pool) == 1:
        return pool[0], False
    D = {}
    for i in pool:
        D[i] = max(
            L * p1c[i] * T1[j] - p0c[i] * T0[j] for j in pool if j != i
        )
    order = sorted(pool, key=lambda i: (-D[i], xs[i]))
    top, second = order[0], order[1]
    tie = D[top] - D[second] <= tie_rel * max(1.0, abs(D[top])) and abs(
        xs[top] - xs[second]
    ) > 1e-9
    return top, tie


def _ladder_walk(dist, Ls, n, settings):
    """Thresholds along the all-invest path from each starting odds point.

    Row i holds the playing-order profile that starts at Ls[i]: mover j
    faces the (n-j)-player must-fill game at the odds the investments
    before it left.  One _ladder_solve call per mover serves every row.
    """
    if n < 1:
        raise DomainError("need at least one player")
    settings = settings or UnanimitySettings()
    Lc = np.asarray(Ls, dtype=float)
    xs = np.empty((len(Lc), n))
    for j, m in enumerate(range(n, 0, -1)):
        xs[:, j], _, _ = _ladder_solve(dist, Lc, m, settings)
        Lc = Lc * dist.lr_upper_tail(xs[:, j])
    return xs


def solve_unanimity(
    L: float, dist: TypeDistribution, n: int, settings: UnanimitySettings | None = None
) -> ThresholdProfile:
    """Exact equilibrium of the n-player must-fill game, in playing order."""
    settings = settings or UnanimitySettings()
    thresholds = _ladder_walk(dist, [float(L)], n, settings)[0]
    return _finish_profile(dist, float(L), thresholds, settings)


def _member_kind(dist, x):
    if abs(x - dist.lo) <= 1e-12:
        return KIND_HERD_INVEST
    if abs(x - dist.hi) <= 1e-12:
        return KIND_HERD_DECLINE
    return KIND_INTERIOR


def _finish_profile(dist, L, thresholds, settings, reorder=False) -> ThresholdProfile:
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


def _profile_valid(dist, L, xs, kinds, tol) -> bool:
    scale = max(1.0, L)
    for i, (x, kind) in enumerate(zip(xs, kinds)):
        r = _member_residual(dist, L, xs, i)
        if kind == KIND_INTERIOR and abs(r) > tol * scale:
            return False
        if kind == KIND_HERD_INVEST and r < -tol * scale:
            return False
        if kind == KIND_HERD_DECLINE and r > tol * scale:
            return False
    return True


def _solve_inner(dist, L, rhs_fixed, m2):
    """Root in b of L*b/(1-b) = rhs_fixed * psi(b)^(m2-1), elementwise.

    The left side rises and the right side falls, so bisection suffices;
    no-crossing cases pin to the support edge.
    """
    rhs = np.asarray(rhs_fixed, dtype=float)
    lo, hi = dist.lo, dist.hi

    def g(b):
        return L * b / (1.0 - b) - rhs * _psi(dist, b) ** (m2 - 1)

    pin_lo = g(np.full(rhs.shape, lo)) >= 0.0
    pin_hi = g(np.full(rhs.shape, hi)) <= 0.0
    a = np.full(rhs.shape, lo)
    b = np.full(rhs.shape, hi)
    for _ in range(60):
        mid = 0.5 * (a + b)
        neg = g(mid) <= 0.0
        a = np.where(neg, mid, a)
        b = np.where(neg, b, mid)
    out = np.where(pin_lo, lo, np.where(pin_hi, hi, 0.5 * (a + b)))
    return float(out) if out.ndim == 0 else out


def asymmetric_profiles(
    L: float, dist: TypeDistribution, n: int, settings: UnanimitySettings | None = None
) -> list[ThresholdProfile]:
    """Enumerate equilibrium threshold multisets of the must-fill game.

    Always contains the symmetric profile.  Two-value profiles are found
    by nested bisection over every multiplicity split; profiles with more
    distinct values are sought by fixed-point iteration from perturbed
    symmetric starts, so for n > 2 the enumeration is heuristic rather
    than exhaustive.  Members are emitted first-mover first.
    """
    settings = settings or UnanimitySettings()
    if n < 1:
        raise DomainError("need at least one player")
    if n == 1:
        return [_finish_profile(dist, L, [_clip_threshold(dist, 1.0 / (1.0 + L))], settings)]

    lo, hi = dist.lo, dist.hi
    found: list[list[float]] = []

    def push(xs):
        xs = sorted(float(v) for v in xs)
        for old in found:
            if max(abs(a - b) for a, b in zip(old, xs)) <= 1e-7:
                return
        kinds = [_member_kind(dist, x) for x in xs]
        if _profile_valid(dist, L, xs, kinds, settings.residual_tol):
            found.append(xs)

    push([symmetric_threshold(L, dist, n)] * n)

    # Two-value profiles a (m1 copies) and b (m2 copies).
    for m1 in range(1, n):
        m2 = n - m1

        def outer(a):
            b = _solve_inner(dist, L, _psi(dist, a) ** m1, m2)
            resid = (
                L * a / (1.0 - a)
                - _psi(dist, a) ** (m1 - 1) * _psi(dist, b) ** m2
            )
            return resid, b

        grid = np.linspace(lo, hi, settings.split_scan)
        vals, _ = outer(grid)
        # Delegate block at the bottom edge.
        if vals[0] >= 0.0:
            push([lo] * m1 + [float(outer(lo)[1])] * m2)
        sign = np.sign(vals)
        for j in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            a_lo, a_hi = float(grid[j]), float(grid[j + 1])
            f_lo = float(vals[j])
            for _ in range(100):
                mid = 0.5 * (a_lo + a_hi)
                fm = float(outer(mid)[0])
                if (fm > 0.0) == (f_lo > 0.0):
                    a_lo = mid
                else:
                    a_hi = mid
                if a_hi - a_lo <= settings.root_xtol:
                    break
            a_star = 0.5 * (a_lo + a_hi)
            push([a_star] * m1 + [float(outer(a_star)[1])] * m2)

    # Fixed-point search for profiles with more than two distinct values.
    if n >= 3:
        rng = np.random.default_rng(7)
        base = symmetric_threshold(L, dist, n)
        for _ in range(settings.gs_restarts):
            xs = np.clip(
                base + rng.uniform(-0.2, 0.2, size=n) * (hi - lo), lo, hi
            )
            ok = True
            for _ in range(settings.gs_iters):
                moved = 0.0
                for i in range(n):
                    rhs = float(np.prod(_psi(dist, np.delete(xs, i))))

                    def gi(v):
                        return L * v / (1.0 - v) - rhs

                    if gi(lo) >= 0.0:
                        new = lo
                    elif gi(hi) <= 0.0:
                        new = hi
                    else:
                        a, b = lo, hi
                        while b - a > settings.root_xtol:
                            mid = 0.5 * (a + b)
                            if gi(mid) <= 0.0:
                                a = mid
                            else:
                                b = mid
                        new = 0.5 * (a + b)
                    moved = max(moved, abs(new - xs[i]))
                    xs[i] = new
                if moved <= settings.root_xtol:
                    break
            else:
                ok = False
            if ok:
                push(list(xs))

    return [
        _finish_profile(dist, L, xs, settings, reorder=True) for xs in found
    ]


# -- hazard shape and delegation ---------------------------------------------


def hazard_J(dist: TypeDistribution, x):
    """J(x) = (x/(1-x)) * (1-F_0)/(1-F_1); level sets hold the thresholds
    of any one equilibrium profile, so J's monotone segments bound how
    many distinct thresholds can coexist."""
    xa = np.asarray(x, dtype=float)
    out = xa / (1.0 - xa) * _psi(dist, xa)
    return float(out) if out.ndim == 0 else out


def J_monotone_segments(dist: TypeDistribution, points: int = 4001):
    """Maximal segments of (1-Q, Q) where d log J / dx keeps one sign.

    The derivative is evaluated in closed form: 1/x + 1/(1-x) +
    f_1/(1-F_1) - f_0/(1-F_0).
    """
    inset = (dist.hi - dist.lo) * 1e-7
    xs = np.linspace(dist.lo + inset, dist.hi - inset, points)
    T1 = dist.sf(1, xs)
    T0 = dist.sf(0, xs)
    d = (
        1.0 / xs
        + 1.0 / (1.0 - xs)
        + dist.pdf(1, xs) / np.maximum(T1, 1e-300)
        - dist.pdf(0, xs) / np.maximum(T0, 1e-300)
    )
    sign = np.where(d >= 0.0, 1, -1)
    segments: list[tuple[float, float, int]] = []
    start = 0
    for i in range(1, len(xs)):
        if sign[i] != sign[start]:
            segments.append((float(xs[start]), float(xs[i - 1]), int(sign[start])))
            start = i
    segments.append((float(xs[start]), float(xs[-1]), int(sign[start])))
    return segments


@dataclass(frozen=True)
class DelegationReport:
    """Whether some player can rationally invest for every type, and when."""

    startable: bool
    witness_intervals: tuple[tuple[float, float], ...]
    earliest_only: bool
    latest_only: bool
    pattern: tuple[tuple[float, tuple[bool, ...]], ...] | None = None

    def to_dict(self) -> dict:
        return {
            "startable": self.startable,
            "witness_intervals": [list(w) for w in self.witness_intervals],
            "earliest_only": self.earliest_only,
            "latest_only": self.latest_only,
            "pattern": None
            if self.pattern is None
            else [[L, list(flags)] for L, flags in self.pattern],
        }


def _refine_crossing(dist, bound, a, b, rising):
    for _ in range(80):
        m = 0.5 * (a + b)
        above = cascade_trigger(dist, m) - bound >= 0.0
        if above == rising:
            b = m
        else:
            a = m
        if b - a <= 1e-13:
            break
    return 0.5 * (a + b)


def delegation_analysis(
    dist: TypeDistribution, points: int = 4001, pattern=None
) -> DelegationReport:
    """Scan for thresholds below 1/2 whose invest update starts a cascade.

    earliest_only / latest_only report, over every witness threshold x,
    the sign of (1-x)(1-F_1)^2 - x(1-F_0)^2 - (1-2x): positive everywhere
    means only the earliest mover of an all-delegating block can be the
    delegator, negative everywhere means only the latest.  Both come back
    False when nothing is startable.
    """
    Q = dist.Q
    bound = up_cascade_bound(Q)
    lo = dist.lo
    xs = np.linspace(lo, 0.5, points)[1:]
    margin = cascade_trigger(dist, xs) - bound
    above = margin >= 0.0
    intervals: list[tuple[float, float]] = []
    i = 0
    while i < len(xs):
        if above[i]:
            j = i
            while j + 1 < len(xs) and above[j + 1]:
                j += 1
            a = (
                float(xs[i])
                if i == 0
                else _refine_crossing(dist, bound, float(xs[i - 1]), float(xs[i]), True)
            )
            b = (
                float(xs[j])
                if j == len(xs) - 1
                else _refine_crossing(dist, bound, float(xs[j]), float(xs[j + 1]), False)
            )
            intervals.append((a, b))
            i = j + 1
        else:
            i += 1

    if not intervals:
        return DelegationReport(False, (), False, False, pattern)

    margins = []
    for a, b in intervals:
        # Open interior: the defining margin vanishes in the limit at the
        # bottom edge of the support, which tells us nothing.
        w = np.linspace(a, b, 259)[1:-1]
        T1 = dist.sf(1, w)
        T0 = dist.sf(0, w)
        margins.append((1.0 - w) * T1 * T1 - w * T0 * T0 - (1.0 - 2.0 * w))
    allm = np.concatenate(margins)
    return DelegationReport(
        startable=True,
        witness_intervals=tuple(intervals),
        earliest_only=bool(np.all(allm > 0.0)),
        latest_only=bool(np.all(allm < 0.0)),
        pattern=pattern,
    )


def delegation_pattern(
    dist: TypeDistribution, n: int, Ls, settings: UnanimitySettings | None = None
):
    """Delegation flags (x_i at the bottom edge) along solved profiles."""
    Ls = np.atleast_1d(np.asarray(Ls, dtype=float))
    xs = _ladder_walk(dist, Ls, n, settings)
    flags = xs <= dist.lo + 1e-9
    return tuple((L, tuple(row)) for L, row in zip(Ls.tolist(), flags.tolist()))


def social_insurance_check(
    dist: TypeDistribution, profile: ThresholdProfile, tol: float = 1e-9
) -> bool:
    """Each member shades at or below the stand-alone optimum 1/(1+L_i).

    L_i is the public odds at that member's own move along the all-invest
    path.  Shading is strict for every member followed by at least one
    informative threshold; when the whole continuation is pinned to the
    support edges it carries no information, the indifference point lands
    exactly on 1/(1+L_i), and equality is the correct outcome.  States
    inside a cascade are skipped: there thresholds pin to the support
    edges and the comparison is vacuous.
    """
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


def sweep_profiles(
    dist: TypeDistribution,
    n: int,
    Ls,
    settings: UnanimitySettings | None = None,
    policy=None,
):
    """Solved profiles across an odds range, as columnar arrays.

    Games of up to two players run one exact ladder walk over all odds
    points; larger games walk the diagonal of a grid-engine table, one
    array query per mover (the table is built at the default grid when
    not supplied).
    """
    Ls = np.asarray(Ls, dtype=float)
    irregular = np.zeros(len(Ls), dtype=bool)
    if n <= 2:
        xcols = _ladder_walk(dist, Ls, n, settings)
    else:
        if policy is None:
            from cascadefund.engine import backward_induction

            policy = backward_induction(dist, n, n)
        xcols = np.empty((len(Ls), n))
        Lc = Ls
        for j, m in enumerate(range(n, 0, -1)):
            xcols[:, j] = policy.sigma(Lc, m, m)
            irregular |= policy.irregular_at(Lc, m, m)
            Lc = Lc * dist.lr_upper_tail(xcols[:, j])
    T0 = dist.sf(0, xcols)
    T1 = dist.sf(1, xcols)
    pi0 = np.prod(T0, axis=1)
    pi1 = np.prod(T1, axis=1)
    lam = Ls / (1.0 + Ls)
    utility = lam * pi1 - (1.0 - lam) * pi0
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
