"""Forward simulation of funding drives under a solved policy table.

Worlds, qualities, and signals are drawn with a counter-based Philox
generator so runs are reproducible from the seed alone, independent of
worker count: work is split into fixed blocks of BLOCK_RUNS runs, each
block gets its own child seed, and results are reassembled in block
order.  `CASCADEFUND_THREADS` caps the worker pool.

The simulated protocol follows the solved policy exactly: each player
invests iff her type reaches the threshold for the current public state
(ties, a probability-zero event, invest), and the public odds update by
the invest/decline likelihood factors of that same threshold.  Play
continues through all players even once the outcome is settled, since
later actions still carry information.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from cascadefund.beliefs import DomainError, TypeDistribution
from cascadefund.engine import GameState, PolicyTable, pi_ordering_scan

__all__ = [
    "BLOCK_RUNS",
    "BatchRuns",
    "CompletionEstimate",
    "RunRecord",
    "completion_from_batch",
    "end_likelihood_stats",
    "estimate_completion",
    "pi_ordering_scan",
    "simulate_run",
    "simulate_runs",
]

BLOCK_RUNS = 4096


def _worker_count() -> int:
    raw = os.environ.get("CASCADEFUND_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            warnings.warn(
                f"ignoring non-integer CASCADEFUND_THREADS={raw!r}", RuntimeWarning
            )
    return min(8, os.cpu_count() or 1)


@dataclass(frozen=True)
class RunRecord:
    """One simulated drive: private draws, actions, and the odds path."""

    world: int
    types: np.ndarray
    actions: np.ndarray
    likelihood_path: np.ndarray
    completed: bool

    @property
    def L_end(self) -> float:
        return float(self.likelihood_path[-1])


@dataclass(frozen=True)
class BatchRuns:
    """Column-wise stack of simulated runs (one row per run)."""

    world: np.ndarray
    types: np.ndarray
    actions: np.ndarray
    paths: np.ndarray
    completed: np.ndarray

    def __len__(self) -> int:
        return len(self.world)

    @property
    def L_end(self) -> np.ndarray:
        return self.paths[:, -1]

    def record(self, i: int) -> RunRecord:
        return RunRecord(
            world=int(self.world[i]),
            types=self.types[i].copy(),
            actions=self.actions[i].copy(),
            likelihood_path=self.paths[i].copy(),
            completed=bool(self.completed[i]),
        )


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
    paths = np.empty((count, n + 1))
    paths[:, 0] = L
    for k in range(n):
        left = n - k
        sigma = np.empty(count)
        for b in np.unique(need):
            m = need == b
            sigma[m] = policy.sigma(L[m], int(b), left)
        act = types[:, k] >= sigma
        # Each run needs only the odds factor of the action it took.
        ratio = np.empty(count)
        ratio[act] = dist.lr_upper_tail(sigma[act])
        ratio[~act] = dist.lr_lower_tail(sigma[~act])
        L = L * ratio
        need -= act
        actions[:, k] = act
        paths[:, k + 1] = L
    return world, types, actions, paths, need <= 0


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
    workers = min(_worker_count(), len(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    lambda args: _simulate_block(policy, state, *args),
                    zip(sizes, seeds),
                )
            )
    else:
        parts = [_simulate_block(policy, state, c, s) for c, s in zip(sizes, seeds)]
    world, types, actions, paths, completed = (
        np.concatenate(cols) for cols in zip(*parts)
    )
    return BatchRuns(world, types, actions, paths, completed)


def simulate_run(policy: PolicyTable, state: GameState, seed: int) -> RunRecord:
    return simulate_runs(policy, state, 1, seed).record(0)


@dataclass(frozen=True)
class CompletionEstimate:
    """Conditional completion frequencies by world, with binomial errors.

    A world with no conditional sample comes back unavailable (NaN
    estimate).  Settled states (nothing needed, or more needed than
    players) short-circuit to their exact values.
    """

    pi0_hat: float
    pi1_hat: float
    se0: float
    se1: float
    count0: int
    count1: int

    @property
    def available(self) -> tuple[bool, bool]:
        return self.count0 > 0, self.count1 > 0


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
    if state.B <= 0:
        return CompletionEstimate(1.0, 1.0, 0.0, 0.0, runs, runs)
    if state.B > state.n:
        return CompletionEstimate(0.0, 0.0, 0.0, 0.0, runs, runs)
    return completion_from_batch(simulate_runs(policy, state, runs, seed))


def end_likelihood_stats(batch: BatchRuns, dist: TypeDistribution) -> dict:
    """Terminal-odds summary over completed runs, against the learning cap.

    Once a drive completes, public odds can never have climbed past
    (Q/(1-Q))^2: an up-cascade freezes learning before that.  Violations
    are reported with a warning rather than raised, so summaries stay
    usable while the caller's tests decide how hard to fail.
    """
    bound = (dist.Q / (1.0 - dist.Q)) ** 2
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
