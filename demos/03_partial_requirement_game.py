#!/usr/bin/env python3
"""Solve a 2-of-3 drive, where one decline no longer kills the project.

Partial requirements change the shape of play: a mover weighs both the
child game after she invests and the one after she declines, and her
decline can still be followed by completion.  The script solves the full
table by backward induction, prints the first mover's policy at a few
odds levels, traces one equilibrium path, and runs the completion-odds
ordering scan across every stored state.
"""

import numpy as np

from cascadefund.beliefs import QualitySpec, TypeDistribution
from cascadefund.engine import (
    GameState,
    backward_induction,
    completion_prob,
    pi_ordering_scan,
)

R, Q = 0.65, 0.8
B, N = 2, 3


def trace_path(policy, L0: float) -> None:
    """Follow the all-invest path until the requirement is met."""
    L, b, n = L0, B, N
    step = 1
    while b > 0 and n > 0:
        x = float(policy.sigma(L, b, n))
        p0, p1 = completion_prob(GameState(L, b, n), policy)
        print(
            f"    mover {step}: needs {b} of {n}, odds {L:8.4f}, "
            f"cut {x:.6f}, completion ({p0:.4f}, {p1:.4f})"
        )
        L = L * float(policy.dist.lr_upper_tail(x))
        b, n, step = b - 1, n - 1, step + 1
    print(f"    requirement met; posterior odds {L:.4f}")


def main() -> None:
    dist = TypeDistribution(QualitySpec.uniform(R, Q))
    policy = backward_induction(dist, B, N)

    print(f"{B}-of-{N} drive, reliability in [{R}, {Q}]\n")
    print(f"  first mover policy, state (B={B}, n={N}):")
    print(f"  {'L':>8}  {'cut':>9}  {'pi0':>7}  {'pi1':>7}")
    for L in np.geomspace(0.08, 4.2, 10):
        x = float(policy.sigma(float(L), B, N))
        p0, p1 = policy.pi(float(L), B, N)
        print(f"  {L:8.4f}  {x:9.6f}  {p0:7.4f}  {p1:7.4f}")

    print("\n  all-invest path from even odds:")
    trace_path(policy, 1.0)

    report = pi_ordering_scan(policy)
    print(
        f"\n  ordering scan: {report['states_checked']} states, "
        f"{len(report['violations'])} with completion likelier in the bad world"
    )
    for v in report["violations"][:5]:
        print(f"    (B={v['B']}, n={v['n']}) L={v['L']:.6f}")


if __name__ == "__main__":
    main()
