"""Forward simulation of funding drives under a solved policy table.

Worlds, qualities, and signals are drawn with a counter-based Philox
generator so runs are reproducible from the seed alone: work is split
into fixed blocks of BLOCK_RUNS runs, each block gets its own child seed,
and results are concatenated in block order.

The simulated protocol follows the solved policy exactly: each player
invests iff her type reaches the threshold for the current public state
(ties, a probability-zero event, invest), and the public odds update by
the invest/decline likelihood factors of that same threshold.  Play
continues through all players even once the outcome is settled, since
later actions still carry information.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from cascadefund.beliefs import DomainError, TypeDistribution
from cascadefund.cascades import learning_bound
from cascadefund.engine import GameState, PolicyTable

__all__ = [
    "BLOCK_RUNS",
    "BatchRuns",
    "CompletionEstimate",
    "completion_from_batch",
    "end_likelihood_stats",
    "estimate_completion",
    "simulate_runs",
]

BLOCK_RUNS = 4096


@dataclass(frozen=True)
class BatchRuns:
    """Column-wise stack of simulated runs (one row per run).

    world is the drawn world state, types the (runs, n) movers' types,
    actions whether each mover invested, L_end the public odds after the
    last mover, and completed whether the drive filled.
    """

    world: np.ndarray
    types: np.ndarray
    actions: np.ndarray
    L_end: np.ndarray
    completed: np.ndarray

    def __len__(self) -> int:
        return len(self.world)


def _simulate_block(policy: PolicyTable, state: GameState, count: int, seed_seq):
    dist = policy.dist
    n = state.n
    rng = np.random.Generator(np.random.Philox(seed_seq))
    lam = state.L / (1.0 + state.L)
    world = (rng.random(count) < lam).astype(np.int8)
    q = dist.quality_quantile(rng.random((count, n)))
    match = rng.random((count, n)) < q
    s = np.where(match, world[:, None], 1 - world[:, None])
    types = np.where(s == 1, q, 1.0 - q)

    L = np.full(count, state.L)
    need = np.full(count, state.B, dtype=np.int64)
    actions = np.zeros((count, n), dtype=bool)
    for k in range(n):
        left = n - k
        sigma = np.empty(count)
        # After k movers a run still needs between B - k and B investments.
        for b in range(state.B - k, state.B + 1):
            m = need == b
            if m.any():
                sigma[m] = policy.sigma(L[m], b, left)
        act = types[:, k] >= sigma
        # Each run needs only the odds factor of the action it took.
        ratio = np.empty(count)
        ratio[act] = dist.lr_upper_tail(sigma[act])
        ratio[~act] = dist.lr_lower_tail(sigma[~act])
        L = L * ratio
        need -= act
        actions[:, k] = act
    return world, types, actions, L, need <= 0


def simulate_runs(
    policy: PolicyTable, state: GameState, runs: int, seed: int
) -> BatchRuns:
    """Simulate `runs` independent drives from `state` under the policy."""
    if runs < 1:
        raise DomainError(f"need at least one run, got {runs}")
    sizes = [BLOCK_RUNS] * (runs // BLOCK_RUNS)
    if runs % BLOCK_RUNS:
        sizes.append(runs % BLOCK_RUNS)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    parts = [_simulate_block(policy, state, c, s) for c, s in zip(sizes, seeds)]
    world, types, actions, L_end, completed = (
        np.concatenate(cols) for cols in zip(*parts)
    )
    return BatchRuns(world, types, actions, L_end, completed)


@dataclass(frozen=True)
class CompletionEstimate:
    """Conditional completion frequencies by world, with binomial errors.

    A world with no conditional sample comes back with count 0 and a NaN
    estimate.  Settled states (nothing needed, or more needed than
    players) short-circuit to their exact values.
    """

    pi0_hat: float
    pi1_hat: float
    se0: float
    se1: float
    count0: int
    count1: int


def completion_from_batch(batch: BatchRuns) -> CompletionEstimate:
    """Completion frequencies by world over the runs of one batch."""
    out = []
    for w in (0, 1):
        m = batch.world == w
        cnt = int(np.sum(m))
        if cnt == 0:
            out.append((math.nan, math.nan, 0))
            continue
        p = float(np.mean(batch.completed[m]))
        out.append((p, math.sqrt(p * (1.0 - p) / cnt), cnt))
    return CompletionEstimate(
        pi0_hat=out[0][0],
        pi1_hat=out[1][0],
        se0=out[0][1],
        se1=out[1][1],
        count0=out[0][2],
        count1=out[1][2],
    )


def estimate_completion(
    policy: PolicyTable, state: GameState, runs: int, seed: int
) -> CompletionEstimate:
    """Completion frequencies from a fresh batch of `runs` drives.

    The one-call library form of simulate_runs plus completion_from_batch;
    settled states give their exact values without simulating.
    """
    if state.B <= 0 or state.B > state.n:
        p0, p1 = policy.pi(state.L, state.B, state.n)
        return CompletionEstimate(p0, p1, 0.0, 0.0, runs, runs)
    return completion_from_batch(simulate_runs(policy, state, runs, seed))


def end_likelihood_stats(batch: BatchRuns, dist: TypeDistribution) -> dict:
    """Terminal-odds summary over completed runs, against the learning cap.

    Once a drive completes, public odds can never have climbed past
    (Q/(1-Q))^2: an up-cascade freezes learning before that.  Violations
    are reported with a warning rather than raised, so summaries stay
    usable while the caller's tests decide how hard to fail.
    """
    bound = learning_bound(dist.Q)
    ends = np.asarray(batch.L_end)[np.asarray(batch.completed, dtype=bool)]
    if ends.size == 0:
        return {"n_completed": 0, "learning_bound": bound}
    q50, q90, q99 = np.quantile(ends, [0.5, 0.9, 0.99])
    top = float(np.max(ends))
    within = bool(top < bound)
    if not within:
        warnings.warn(
            f"terminal odds {top} reached the learning bound {bound}",
            RuntimeWarning,
        )
    return {
        "n_completed": int(ends.size),
        "max": top,
        "q50": float(q50),
        "q90": float(q90),
        "q99": float(q99),
        "learning_bound": bound,
        "within_bound": within,
    }
