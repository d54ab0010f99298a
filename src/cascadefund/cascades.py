"""Cascade bounds and the cascade-trigger scan.

Once public odds of a good world reach Q/(1-Q), even the most pessimistic
type invests and actions stop carrying information (an up-cascade).  Once
the odds fall to ((1-Q)/Q)^B, recovery through B more investments is
impossible and everyone declines (a down-cascade).  Between those bounds
actions stay informative, which caps how much public learning a finished
game can exhibit.  This module is the one home of those bound formulas.
Whether a herd is an equilibrium at a given state depends on the solved
continuation, so that test lives with the solvers
(cascadefund.roots.herd_flags), not here.

A "delegating" threshold at the bottom of the support makes a player
invest for every type, starting an up-cascade from inside the game.  That
is possible only when the invest update is strong enough at some interior
threshold, a property of the quality distribution alone.  The one scan of
that trigger, witness_intervals, answers both cascade_startable here and
cascadefund.unanimity.delegation_analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cascadefund.beliefs import DomainError, TypeDistribution, _answer
from cascadefund.roots import bisect

__all__ = [
    "CascadeReport",
    "analyze",
    "cascade_startable",
    "cascade_trigger",
    "down_cascade_bound",
    "in_down_cascade",
    "in_up_cascade",
    "learning_bound",
    "min_R_for_cascades",
    "up_cascade_bound",
    "witness_intervals",
]

TRIGGER_SCAN = 4000  # scan steps of (1-Q, 1/2] in witness_intervals


def _check_Q(Q: float) -> None:
    if not (0.5 < Q < 1.0):
        raise DomainError(f"need 1/2 < Q < 1, got {Q}")


def up_cascade_bound(Q: float) -> float:
    """Odds level at or above which every remaining player invests."""
    _check_Q(Q)
    return Q / (1.0 - Q)


def down_cascade_bound(Q: float, B: int) -> float:
    """Odds level at or below which no player invests when B are still needed."""
    _check_Q(Q)
    if B < 1:
        raise DomainError("down-cascade bound needs B >= 1")
    return ((1.0 - Q) / Q) ** B


def in_up_cascade(L: float, Q: float) -> bool:
    return L >= up_cascade_bound(Q)


def in_down_cascade(L: float, B: int, Q: float) -> bool:
    return L <= down_cascade_bound(Q, B)


def learning_bound(Q: float) -> float:
    """Strict upper bound on final public odds of completed must-fill games.

    The last informative invest happens below Q/(1-Q) and multiplies the
    odds by less than Q/(1-Q), so finished games never show public odds
    at or above (Q/(1-Q))^2.
    """
    return up_cascade_bound(Q) ** 2


def cascade_trigger(dist: TypeDistribution, x) -> float | np.ndarray:
    """Invest update strength ((1-x)/x) * (1-F_1(x))/(1-F_0(x)).

    When this reaches Q/(1-Q) at a threshold x below 1/2, a player whose
    worst type already prefers investing can appear at interior odds,
    starting an up-cascade.
    """
    xa = np.asarray(x, dtype=float)
    return _answer((1.0 - xa) / xa * dist.lr_upper_tail(xa))


def witness_intervals(dist: TypeDistribution) -> tuple[tuple[float, float], ...]:
    """Intervals of thresholds in (1-Q, 1/2] whose invest update can start
    an up-cascade: where the trigger is at or above Q/(1-Q).

    The trigger is scanned at TRIGGER_SCAN steps, and every flip between
    neighbouring points is bisected (to 1e-13, at most 80 steps) to its
    midpoint.  An interval starts or ends at an end point of the scan
    where the trigger is above the bound there.  x = 1-Q itself meets the
    bound with equality by construction and is not scanned.
    """
    bound = up_cascade_bound(dist.Q)

    def reaches(x):
        return cascade_trigger(dist, x) >= bound

    xs = np.linspace(dist.lo, 0.5, TRIGGER_SCAN + 1)[1:]
    above = reaches(xs)
    k = np.flatnonzero(above[1:] != above[:-1])
    a, b = bisect(lambda m: reaches(m) == above[k], xs[k], xs[k + 1], 1e-13, 80)
    # Crossings alternate between rises and falls, so together with the
    # scan's end points where the trigger is above they pair into intervals.
    ends = np.r_[xs[:1][above[:1]], 0.5 * (a + b), xs[-1:][above[-1:]]].tolist()
    return tuple(zip(ends[::2], ends[1::2]))


def cascade_startable(dist: TypeDistribution) -> tuple[bool, float | None]:
    """Whether some threshold in (1-Q, 1/2] can start an up-cascade.

    Returns (found, witness): the witness is the start of the first of
    witness_intervals, the same intervals delegation_analysis reports.
    """
    iv = witness_intervals(dist)
    return bool(iv), iv[0][0] if iv else None


def min_R_for_cascades(Q: float) -> float:
    """Least uniform-quality floor R at which cascades become startable."""
    _check_Q(Q)
    return 1.0 / (1.0 + math.sqrt((1.0 - Q) * (1.0 + Q) / (Q * (2.0 - Q))))


@dataclass(frozen=True)
class CascadeReport:
    """Cascade anatomy of a quality distribution at a given requirement B."""

    Q: float
    B: int
    up_bound: float
    down_bound: float
    learning_bound: float
    startable: bool
    witness_x: float | None


def analyze(dist: TypeDistribution, B: int) -> CascadeReport:
    startable, witness = cascade_startable(dist)
    return CascadeReport(
        Q=dist.Q,
        B=B,
        up_bound=up_cascade_bound(dist.Q),
        down_bound=down_cascade_bound(dist.Q, B),
        learning_bound=learning_bound(dist.Q),
        startable=startable,
        witness_x=witness,
    )
