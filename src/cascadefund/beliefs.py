"""Quality and type distributions plus Bayesian likelihood arithmetic.

A contributor's private information is a signal quality q, drawn from a
known distribution on [R, Q] with 1/2 <= R < Q < 1, and a binary signal s
about the unknown world state.  Both roll into a scalar type

    t = q        if s = 1,
    t = 1 - q    if s = 0,

which is the contributor's private posterior probability that the world
is good.  Types live on [1-Q, 1-R] u [R, Q]; the open gap (1-R, R)
carries no mass.

Conditional on the world state w in {0, 1}, the type density is

    f_1(y) = y * f_q(y)            on [R, Q],
    f_1(y) = y * f_q(1 - y)        on [1-Q, 1-R],
    f_0(y) = (1 - y) * (same quality factor),

so the point likelihood ratio is f_1/f_0 = y/(1-y) exactly.  Observers
who know a player's investment threshold x update the public odds of a
good world by the tail ratios of these distributions: an invest at x
multiplies them by `lr_upper_tail(x)`, a decline by `lr_lower_tail(x)`.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BOUNDARY_BAND",
    "ConfigError",
    "DomainError",
    "OutOfSupportWarning",
    "QualitySpec",
    "TypeDistribution",
]

# Absolute half-width of the band around the support edges inside which the
# 0/0 tail ratios are replaced by their interior limits.
BOUNDARY_BAND = 1e-12


class DomainError(ValueError):
    """An input lies outside the model's domain."""


class ConfigError(ValueError):
    """A quality specification or run configuration is invalid."""


class OutOfSupportWarning(UserWarning):
    """A query fell outside the type support and was clamped."""


def _answer(out):
    """A query's answer: a Python scalar for a 0-d result, else the array.
    float() turns a numpy float scalar into one faster than .item()."""
    if isinstance(out, np.floating):
        return float(out)
    return out.item() if out.ndim == 0 else out


def _clamp(x, lo, hi):
    """np.clip(x, lo, hi) bit for bit, NaN and signed zeros included, at
    half its call overhead on small arrays.  The bound goes first in the
    maximum: np.clip(-0.0, 0.0, 1.0) is -0.0, as is np.maximum(0.0, -0.0),
    but np.maximum(-0.0, 0.0) is 0.0."""
    return np.minimum(np.maximum(lo, x), hi)


def _number(v) -> float:
    """float(v), but a string or boolean is no number even where float() takes it
    ("2", True); what float() itself refuses keeps float()'s error."""
    x = float(v)
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"expected a number, got {v!r}")
    return x


def _knot_arrays(knots):
    """Knot positions, densities and the trapezoid mass of each piece."""
    qs = np.array([k[0] for k in knots])
    ds = np.array([k[1] for k in knots])
    return qs, ds, np.diff(qs) * (ds[:-1] + ds[1:]) / 2.0


@dataclass(frozen=True)
class QualitySpec:
    """Distribution of signal qualities on [R, Q].

    kind is "uniform" (constant density 1/(Q-R)) or "tabulated"
    (piecewise-linear density between knots).  Knots are (q, density)
    pairs; the first knot must sit at R and the last at Q, the density
    must be nonnegative everywhere, strictly positive at both endpoints,
    and integrate to 1 over [R, Q] within 1e-8.
    """

    kind: str
    R: float
    Q: float
    knots: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "tabulated"):
            raise ConfigError(f"unknown quality kind {self.kind!r}")
        R, Q = self.R, self.Q
        if not (math.isfinite(R) and math.isfinite(Q)):
            raise ConfigError("R and Q must be finite")
        if not (0.5 <= R < Q < 1.0):
            raise ConfigError(f"need 1/2 <= R < Q < 1, got R={R}, Q={Q}")
        if self.kind == "uniform":
            if self.knots is not None:
                raise ConfigError("uniform kind takes no knots")
            return
        if not self.knots or len(self.knots) < 2:
            raise ConfigError("tabulated kind needs at least two knots")
        object.__setattr__(
            self, "knots", tuple((float(q), float(d)) for q, d in self.knots)
        )
        qs, ds, piece_mass = _knot_arrays(self.knots)
        # Every check below compares, and a comparison with NaN is false.
        if not (np.isfinite(qs).all() and np.isfinite(ds).all()):
            raise ConfigError("knot positions and densities must be finite")
        if np.any(np.diff(qs) <= 0):
            raise ConfigError("knot positions must be strictly increasing")
        if abs(qs[0] - R) > 1e-12 or abs(qs[-1] - Q) > 1e-12:
            raise ConfigError("knots must span [R, Q] exactly")
        if np.any(ds < 0):
            raise ConfigError("densities must be nonnegative")
        if ds[0] <= 0 or ds[-1] <= 0:
            raise ConfigError("density must be strictly positive at R and at Q")
        mass = float(np.sum(piece_mass))
        if abs(mass - 1.0) > 1e-8:
            raise ConfigError(f"density integrates to {mass:.12g}, not 1")
        if np.any(ds[1:-1] == 0):
            # Zero interior density is allowed but fragments the support.
            # Warn at the first caller past this module's frames: the
            # generated __init__ and any classmethod building the spec.
            level, frame = 1, sys._getframe()
            while frame.f_globals.get("__name__") == __name__:
                level, frame = level + 1, frame.f_back
            warnings.warn(
                "tabulated density vanishes at an interior knot",
                OutOfSupportWarning,
                stacklevel=level,
            )

    @classmethod
    def uniform(cls, R: float, Q: float) -> "QualitySpec":
        return cls(kind="uniform", R=float(R), Q=float(Q))

    @classmethod
    def tabulated(cls, R, Q, knots, normalize: bool = False) -> "QualitySpec":
        """Build a tabulated spec; normalize=True rescales to unit mass."""
        knots = [(float(q), float(d)) for q, d in knots]
        if normalize:
            mass = float(np.sum(_knot_arrays(knots)[2]))
            if mass <= 0:
                raise ConfigError("cannot normalize a zero-mass density")
            knots = [(q, d / mass) for q, d in knots]
        return cls(kind="tabulated", R=float(R), Q=float(Q), knots=tuple(knots))

    @classmethod
    def from_dict(cls, doc: dict) -> "QualitySpec":
        if not isinstance(doc, dict):
            raise ConfigError("quality spec must be a JSON object")
        kind = doc.get("kind")
        if kind not in ("uniform", "tabulated"):
            raise ConfigError(f"unknown quality kind {kind!r}")
        allowed = {"kind", "R", "Q", "knots"} if kind == "tabulated" else {"kind", "R", "Q"}
        extra = set(doc) - allowed
        if extra:
            raise ConfigError(f"unexpected quality keys {sorted(extra)}")
        try:
            R, Q = _number(doc["R"]), _number(doc["Q"])
            knots = None
            if kind == "tabulated":
                knots = tuple((_number(q), _number(d)) for q, d in doc["knots"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad {kind} quality spec: {exc!r}") from exc
        return cls(kind=kind, R=R, Q=Q, knots=knots)

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind, "R": self.R, "Q": self.Q}
        if self.kind == "tabulated":
            doc["knots"] = [[q, d] for q, d in self.knots]
        return doc


def _segment_arrays(R, Q, qs, ds, slope):
    """Piecewise-linear quality factor on the type support.

    Returns breakpoints b[0..S] covering [1-Q, Q] and per-segment
    coefficients (c0, c1) with quality factor c0 + c1*y on [b_j, b_j+1],
    from the knot table of `TypeDistribution`: positions qs, densities ds
    at unit mass and each piece's slope.  The upper half [R, Q] holds the
    table's pieces, f_q(y) = (da - slope*qa) + slope*y.  The lower half
    [1-Q, 1-R] is their reflection in y = 1/2, f_q(1-y) =
    (da + slope*(1-qa)) - slope*y, pieces in reverse order.  The gap
    (1-R, R) is an explicit zero segment, present only when R > 1/2.
    """
    qa, da, gap = qs[:-1], ds[:-1], int(R > 0.5)
    return (
        np.r_[1.0 - qs[:0:-1], [1.0 - R] * gap, qa, Q],
        np.r_[(da + slope * (1.0 - qa))[::-1], [0.0] * gap, da - slope * qa],
        np.r_[-slope[::-1], [0.0] * gap, slope],
    )


def _seg_int_f1(a, y, c0, c1):
    """Integral of y*(c0 + c1*y) from a to y, factored for precision."""
    return (y - a) * (c0 * (y + a) / 2.0 + c1 * (y * y + a * y + a * a) / 3.0)


def _seg_int_g(a, y, c0, c1):
    """Integral of (c0 + c1*y) from a to y."""
    return (y - a) * (c0 + c1 * (y + a) / 2.0)


class TypeDistribution:
    """Evaluator for the conditional type distributions of a QualitySpec.

    Exposes densities, CDFs, survival functions, and the tail likelihood
    ratios used in public-belief updates.  All evaluators accept scalars
    or arrays.  The single-world ones and quality_quantile answer a scalar
    with a Python float and an array with an array of its shape
    (`_answer`); the pair forms and sf_error always give arrays.
    """

    def __init__(self, spec: QualitySpec):
        self.spec = spec
        self.R = spec.R
        self.Q = spec.Q
        self.lo = 1.0 - spec.Q
        self.hi = spec.Q
        if spec.kind == "uniform":
            knots = [(spec.R, 1.0 / (spec.Q - spec.R)), (spec.Q, 1.0 / (spec.Q - spec.R))]
        else:
            knots = spec.knots
        # The knot table: positions, densities rescaled to unit quality mass,
        # each piece's slope, and the mass below each knot (the last exactly 1).
        qs, ds, piece_mass = _knot_arrays(knots)
        total = float(np.sum(piece_mass))
        self._qs, self._ds = qs, ds / total
        self._slope = np.diff(self._ds) / np.diff(qs)
        self._cum = np.concatenate(([0.0], np.cumsum(piece_mass))) / total
        self._cum[-1] = 1.0
        self._breaks, self._c0, self._c1 = _segment_arrays(
            spec.R, spec.Q, qs, self._ds, self._slope
        )
        b, c0, c1 = self._breaks, self._c0, self._c1
        a, y = b[:-1], b[1:]
        seg1 = _seg_int_f1(a, y, c0, c1)
        seg_g = _seg_int_g(a, y, c0, c1)
        seg0 = seg_g - seg1
        # Cumulatives at left breakpoints and tails at right breakpoints;
        # tails are accumulated from the right so small values stay exact.
        self._cum1 = np.concatenate(([0.0], np.cumsum(seg1)))
        self._cum0 = np.concatenate(([0.0], np.cumsum(seg0)))
        self._tail1 = np.concatenate((np.cumsum(seg1[::-1])[::-1], [0.0]))
        self._tail0 = np.concatenate((np.cumsum(seg0[::-1])[::-1], [0.0]))
        # Integral of |c0| + |c1|*y from each left breakpoint to Q: the
        # scale of the rounding error in a tail (sf_error).
        seg_abs = _seg_int_g(a, y, np.abs(c0), np.abs(c1))
        self._tail_abs = np.concatenate((np.cumsum(seg_abs[::-1])[::-1], [0.0]))

    # -- density -----------------------------------------------------------

    def pdf(self, omega: int, y):
        self._check_world(omega)
        ya = np.asarray(y, dtype=float)
        idx = np.clip(np.searchsorted(self._breaks, ya, side="right") - 1, 0, len(self._c0) - 1)
        g = self._c0[idx] + self._c1[idx] * ya
        out = np.where(omega == 1, ya * g, (1.0 - ya) * g)
        return _answer(np.where((ya < self.lo) | (ya > self.hi), 0.0, out))

    # -- CDF / survival ----------------------------------------------------

    def _tails(self, ya: np.ndarray, upper: bool):
        """Survival (upper) or CDF at ya, which lies in the support, as the
        pair (world 0, world 1).

        One segment lookup serves both worlds, and only the part of the
        segment integral on the requested side of ya is evaluated.
        """
        b, c0, c1 = self._breaks, self._c0, self._c1
        # Segment index: interior breakpoints at or below ya.
        idx = np.searchsorted(b[1:-1], ya, side="right")
        k0, k1 = c0[idx], c1[idx]
        if upper:
            a, e, at, acc0, acc1 = ya, b[idx + 1], idx + 1, self._tail0, self._tail1
        else:
            a, e, at, acc0, acc1 = b[idx], ya, idx, self._cum0, self._cum1
        f1 = _seg_int_f1(a, e, k0, k1)
        return acc0[at] + (_seg_int_g(a, e, k0, k1) - f1), acc1[at] + f1

    def _pair(self, ya, upper: bool):
        """(world 0, world 1) survival (upper) or CDF at any ya.

        Each is exact by definition at the support edges, immune to the
        last ulp of normalization rounding.  A CDF query outside the
        support clamps to {0, 1} with a warning (to the caller of a public
        method).
        """
        if not upper and (np.any(ya < self.lo) or np.any(ya > self.hi)):
            warnings.warn(
                "CDF query outside the type support was clamped",
                OutOfSupportWarning,
                stacklevel=3,
            )
        below, above = (1.0, 0.0) if upper else (0.0, 1.0)
        return tuple(
            np.where(ya <= self.lo, below, np.where(ya >= self.hi, above, _clamp(t, 0.0, 1.0)))
            for t in self._tails(_clamp(ya, self.lo, self.hi), upper)
        )

    def cdf(self, omega: int, y):
        """F_omega(y); queries outside the support clamp to {0, 1} with a warning."""
        self._check_world(omega)
        return _answer(self._pair(np.asarray(y, dtype=float), False)[omega])

    def cdf_pair(self, y):
        """(cdf(0, y), cdf(1, y)) as arrays, from one segment lookup, warning
        as `cdf` does."""
        return self._pair(np.asarray(y, dtype=float), False)

    def sf(self, omega: int, y):
        """Survival 1 - F_omega(y), computed from the right for precision."""
        self._check_world(omega)
        return _answer(self._pair(np.asarray(y, dtype=float), True)[omega])

    def sf_pair(self, y):
        """(sf(0, y), sf(1, y)) as arrays, from one segment lookup."""
        return self._pair(np.asarray(y, dtype=float), True)

    def sf_error(self, y):
        """Bound on the absolute rounding error of sf(0, y) and sf(1, y).

        The reference is the exact tail integral of the stored piecewise-
        linear quality factor c0 + c1*y, with u = 2**-53.  A segment integral
        `_seg_int_f1` or `_seg_int_g` is a product of at most 8 rounded
        operations on terms that sum, in absolute value, to at most
        A_j = integral of |c0| + |c1|*t over the piece (types lie in (0, 1),
        so t*t <= t), so it is off by at most 9u*A_j, and world 0's
        difference of the two by 19u*A_j.  The tail adds at most S of these
        (S segments) by a running sum, which adds at most S*u times their
        absolute sum, and the partial segment and the last addition add one
        more term each.  Clipping to [0, 1] and the edge values move a tail
        by no more than the error in the total mass, which is of the same
        form over the whole support.  So both worlds are off by at most

            (S + 24) * u * (integral of |c0| + |c1|*t from y to Q),

        summed here from the right as `_tail_abs`.  The bound falls as y
        rises (up to its own rounding, which the constant covers).
        """
        yc = np.clip(np.asarray(y, dtype=float), self.lo, self.hi)
        idx = np.searchsorted(self._breaks[1:-1], yc, side="right")
        part = _seg_int_g(yc, self._breaks[idx + 1], np.abs(self._c0[idx]), np.abs(self._c1[idx]))
        return (self._c0.size + 24) * 2.0**-53 * (self._tail_abs[idx + 1] + part)

    # -- tail likelihood ratios ---------------------------------------------

    def lr_upper_tail(self, x):
        """(1-F_1(x)) / (1-F_0(x)) with its limit Q/(1-Q) near x = Q.

        This is the factor a public observer applies to the odds of a
        good world when a player with threshold x invests.  Strictly
        increasing from 1 at the bottom of the support to Q/(1-Q).
        """
        return self._tail_ratio(x, True)

    def lr_lower_tail(self, x):
        """F_1(x) / F_0(x) with its limit (1-Q)/Q near x = 1-Q.

        Odds factor applied when a player with threshold x declines.
        Strictly increasing from (1-Q)/Q up to 1 at the top of the support.
        """
        return self._tail_ratio(x, False)

    def _tail_ratio(self, x, upper: bool):
        """The upper (lower) tail ratio world 1 over world 0 at x: 1 where
        the tails span the whole support, and its limit within
        BOUNDARY_BAND of the edge where they vanish."""
        xa = np.asarray(x, dtype=float)
        t0, t1 = self._tails(_clamp(xa, self.lo, self.hi), upper)
        Q = self.Q
        if upper:
            vanish, limit, whole = xa >= Q - BOUNDARY_BAND, Q / (1.0 - Q), xa <= self.lo
        else:
            vanish, limit, whole = xa <= self.lo + BOUNDARY_BAND, (1.0 - Q) / Q, xa >= self.hi
        out = np.where(vanish, limit, t1 / np.where(t0 > 0.0, t0, 1.0))
        return _answer(np.where(whole, 1.0, out))

    # -- sampling support ----------------------------------------------------

    def quality_quantile(self, u):
        """Inverse CDF of the quality distribution, for inverse-transform
        sampling: R + u(Q-R) for a uniform spec, else the root of the
        quadratic mass on the knot table's piece where u falls."""
        ua = np.asarray(u, dtype=float)
        if np.any((ua < 0) | (ua > 1)):
            raise DomainError("quantile argument must lie in [0, 1]")
        if self.spec.kind == "uniform":
            return _answer(self.R + ua * (self.Q - self.R))
        idx = np.clip(np.searchsorted(self._cum, ua, side="right") - 1, 0, self._slope.size - 1)
        qa, da, slope = self._qs[idx], self._ds[idx], self._slope[idx]
        rem = ua - self._cum[idx]
        # Solve da*(y-qa) + slope*(y-qa)^2/2 = rem for y - qa.
        with np.errstate(invalid="ignore", divide="ignore"):
            disc = np.sqrt(np.maximum(da * da + 2.0 * slope * rem, 0.0))
            dy = np.where(
                np.abs(slope) > 1e-14 * np.maximum(da, 1.0),
                (disc - da) / np.where(slope == 0.0, 1.0, slope),
                np.where(da > 0.0, rem / np.where(da == 0.0, 1.0, da), 0.0),
            )
        return _answer(np.clip(qa + dy, self.R, self.Q))

    @staticmethod
    def _check_world(omega) -> None:
        if omega not in (0, 1):
            raise DomainError(f"world state must be 0 or 1, got {omega!r}")

