#!/usr/bin/env python3
"""Replay solved drives forward and check the table against frequencies.

Each run draws a world, hands every mover a private type, and plays the
solved policy to the end.  With enough runs the completed fraction per
world must sit within binomial noise of the table's completion odds, and
no completed must-fill run can end with public odds above the one-step
learning cap.
"""

import numpy as np

from cascadefund.beliefs import QualitySpec, TypeDistribution
from cascadefund.cascades import learning_bound
from cascadefund.engine import GameState, backward_induction, completion_prob
from cascadefund.simulate import completion_from_batch, end_likelihood_stats, simulate_runs

RUNS = 200_000
SEED = 7


def validate(policy, state: GameState, hist) -> None:
    """Compare the table's completion odds with the simulated frequencies,
    as `cascadefund simulate` reports them from the runs' per-history
    summary (completion_from_batch)."""
    p0, p1 = completion_prob(state, policy)
    est = completion_from_batch(hist)
    for omega, truth, phat, cnt in ((0, p0, est.pi0_hat, est.count0),
                                    (1, p1, est.pi1_hat, est.count1)):
        se = np.sqrt(max(truth * (1.0 - truth), 1e-300) / cnt)
        z = (phat - truth) / se if se > 0 else 0.0
        print(
            f"    world {omega}: table {truth:.5f}, simulated {phat:.5f} "
            f"({cnt} runs), z = {z:+.2f}"
        )
    if np.any(hist.filled):
        print(f"    max end odds over completed runs: {np.max(hist.odds[hist.filled]):.4f}")


def main() -> None:
    Q = 0.8
    print(f"{RUNS} runs per state, quality ceiling {Q}")
    print(f"learning cap for completed must-fill runs: {learning_bound(Q):.1f}\n")

    for R, B, n, L0 in ((0.50, 2, 2, 1.0), (0.65, 2, 2, 0.6), (0.65, 2, 3, 1.4)):
        dist = TypeDistribution(QualitySpec.uniform(R, Q))
        policy = backward_induction(dist, B, n)
        state = GameState(L0, B, n)
        print(f"  {B}-of-{n} drive, R = {R}, start odds {L0}:")
        hist = simulate_runs(policy, state, RUNS, seed=SEED)
        validate(policy, state, hist)
        stats = end_likelihood_stats(hist, dist, L0)
        print(
            f"    end-odds summary: {stats['n_completed']} completed, "
            f"q90 = {stats['q90']:.4f}, max = {stats['max']:.4f}, "
            f"within cap: {stats['within_bound']}\n"
        )


if __name__ == "__main__":
    main()
