"""Cascade bounds and delegation startability.

Once public odds of a good world reach Q/(1-Q), even the most pessimistic
type invests and actions stop carrying information (an up-cascade).  Once
the odds fall to ((1-Q)/Q)^B, recovery through B more investments is
impossible and everyone declines (a down-cascade).  Between those bounds
actions stay informative, which caps how much public learning a finished
game can exhibit.  Whether a herd is an equilibrium at a given state
depends on the solved continuation, so that test lives with the solvers
(cascadefund.roots.herd_flags), not here.

A "delegating" threshold at the bottom of the support makes a player
invest for every type, starting an up-cascade from inside the game.  That
is possible only when the invest update is strong enough at some interior
threshold, a property of the quality distribution alone; the scan here
locates witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cascadefund.beliefs import DomainError, TypeDistribution
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
]

STARTABLE_SCAN = 2000  # scan steps of (1-Q, 1/2] in cascade_startable


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
    out = (1.0 - xa) / xa * dist.lr_upper_tail(xa)
    return float(out) if out.ndim == 0 else out


def cascade_startable(dist: TypeDistribution) -> tuple[bool, float | None]:
    """Scan (1-Q, 1/2] for a threshold that can start an up-cascade.

    Returns (found, witness).  The witness is the lowest crossing of the
    trigger level, refined by bisection; x = 1-Q itself meets the trigger
    with equality by construction and does not count.
    """
    Q = dist.Q
    bound = up_cascade_bound(Q)
    lo, hi = 1.0 - Q, 0.5
    xs = np.linspace(lo, hi, STARTABLE_SCAN + 1)[1:]
    margin = cascade_trigger(dist, xs) - bound
    hits = np.nonzero(margin >= 0.0)[0]
    if hits.size == 0:
        return False, None
    i = int(hits[0])
    if i == 0:
        return True, float(xs[0])
    _, b = bisect(
        lambda m: not cascade_trigger(dist, m) - bound >= 0.0,
        float(xs[i - 1]),
        float(xs[i]),
        1e-13,
        80,
    )
    return True, b


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

    def to_dict(self) -> dict:
        return {
            "Q": self.Q,
            "B": self.B,
            "up_bound": self.up_bound,
            "down_bound": self.down_bound,
            "learning_bound": self.learning_bound,
            "startable": self.startable,
            "witness_x": self.witness_x,
        }


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
