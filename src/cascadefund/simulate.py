"""Forward simulation of funding drives under a solved policy table.

Worlds, qualities, and signals are drawn with a counter-based Philox
generator so runs are reproducible from the seed alone: the draws are
split into fixed blocks of BLOCK_RUNS runs, each block gets its own child
seed, and the draws are concatenated in block order.

The simulated protocol follows the solved policy exactly: each player
invests iff her type reaches the threshold for the current public state
(ties, a probability-zero event, invest), and the public odds update by
the invest/decline likelihood factors of that same threshold.  Play
continues through all players even once the outcome is settled, since
later actions still carry information.

Later players see earlier actions and nothing else, so after k movers the
public state depends only on the action history.  The whole batch is
played once on its tree of histories: thresholds and odds factors are
evaluated once per history node some run reached, at most
min(runs, 2^k) of them, with the same elementwise arithmetic a per-run
loop would do, so the results are the same bit for bit.  What the final
history fixes (the actions, the final odds, completion) is kept once per
history, and the statistics read run counts per (history, world).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from cascadefund.beliefs import DomainError, TypeDistribution
from cascadefund.cascades import learning_bound, up_cascade_bound
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
    """Column-wise stack of simulated runs, kept on their tree of histories.

    Per run: world, the drawn world state; types, the (runs, n) movers'
    types; history, the index of the run's final public action history,
    in an integer type that holds twice the number of histories.
    Per history: paths, whether each mover invested; odds, the public odds
    after the last mover; filled, whether the drive filled.  The per-run
    actions, L_end and completed gather these by history.
    """

    world: np.ndarray
    types: np.ndarray
    history: np.ndarray
    paths: np.ndarray
    odds: np.ndarray
    filled: np.ndarray

    def __len__(self) -> int:
        return len(self.world)

    actions = property(lambda self: self.paths[self.history])
    L_end = property(lambda self: self.odds[self.history])
    completed = property(lambda self: self.filled[self.history])
    # Each run's (history, world) pair as one index.
    cell = property(lambda self: 2 * self.history + self.world)

    @cached_property
    def counts(self) -> np.ndarray:
        """Runs by (history, world): row h holds the world-0 and world-1 counts."""
        return np.bincount(self.cell, minlength=2 * len(self.odds)).reshape(-1, 2)


def _simulate_block(policy: PolicyTable, state: GameState, count: int, seed_seq):
    """Draw one block's worlds and its (count, n) movers' types."""
    rng = np.random.Generator(np.random.Philox(seed_seq))
    lam = state.L / (1.0 + state.L)
    world = (rng.random(count) < lam).astype(np.int8)
    q = policy.dist.quality_quantile(rng.random((count, state.n)))
    match = rng.random((count, state.n)) < q
    # The signal names the good world when it matches a good world or misses
    # a bad one; the mover's type is then q, and 1 - q otherwise.
    types = np.where(match == (world == 1)[:, None], q, 1.0 - q)
    return world, types


def _play(policy: PolicyTable, state: GameState, types: np.ndarray):
    """Play every run on the tree of public action histories.

    Runs with the same history share their public odds and need, so the
    policy and the odds factors are evaluated once per history node that
    some run reached, and each run carries only the index of its node.
    Children of node i are numbered in (i, action) order.  Returns each
    run's final node, and per final node its action path, odds and filled
    flag; a node carries its path as one word, so no level copies paths.
    """
    dist = policy.dist
    runs, n = types.shape
    node = np.zeros(runs, dtype=np.intp)
    L = np.array([float(state.L)])
    need = np.array([state.B], dtype=np.int64)
    # Each node's actions so far as the bits of one word: n <= 50 < 63.
    code = np.zeros(1, dtype=np.int64)
    for k in range(n):
        sigma = np.empty(len(L))
        # After k movers a node still needs between B - k and B investments.
        for b in range(state.B - k, state.B + 1):
            m = need == b
            if m.any():
                sigma[m] = policy.sigma(L[m], b, n - k)
        act = types[:, k] >= sigma[node]
        node *= 2  # in place: node is now each run's child slot
        node += act
        reached = np.zeros(2 * len(L), dtype=bool)
        reached[node] = True
        slots = np.flatnonzero(reached)
        parent, up = slots >> 1, (slots & 1).astype(bool)
        # Each child needs only the odds factor of the action that made it.
        ratio = np.empty(len(slots))
        ratio[up] = dist.lr_upper_tail(sigma[parent[up]])
        ratio[~up] = dist.lr_lower_tail(sigma[parent[~up]])
        L = L[parent] * ratio
        need = need[parent] - up
        code = 2 * code[parent] + up
        node = (np.cumsum(reached) - 1)[node]
    paths = ((code[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)
    # The smallest index type that also holds the (history, world) cells.
    return node.astype(np.min_scalar_type(2 * len(L))), paths, L, need <= 0


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
    world, types = [np.concatenate(cols) for cols in zip(*parts)]
    del parts
    return BatchRuns(world, types, *_play(policy, state, types))


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
    """Completion frequencies by world over the runs of one batch.

    From the run counts per (history, world): the mean of a world's filled
    flags is its exact integer count over the runs, as np.mean gives it.
    """
    cnt = batch.counts.sum(axis=0).tolist()
    done = batch.counts[batch.filled].sum(axis=0).tolist()
    p = [d / c if c else math.nan for d, c in zip(done, cnt)]
    se = [math.sqrt(q * (1.0 - q) / c) if c else math.nan for q, c in zip(p, cnt)]
    return CompletionEstimate(p[0], p[1], se[0], se[1], cnt[0], cnt[1])


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


def _quantiles(s, qs):
    """np.quantile(s, qs) of a sorted 1-D array, bit for bit.

    numpy's linear rule: at the virtual index v = (n-1) q, between the
    order statistics lo at i = floor(v) and hi at i + 1, with t = v - i,
    it is lo + (hi-lo) t, or hi - (hi-lo)(1-t) where t >= 0.5.  np.quantile
    itself calls np.unique, whose first call imports numpy.ma, which
    nothing else in a `simulate` run loads.
    """
    v = (s.size - 1) * np.asarray(qs, dtype=float)
    i = np.floor(v).astype(np.intp)
    lo, hi = s[i], s[np.minimum(i + 1, s.size - 1)]
    t, d = v - i, hi - lo
    return np.where(t >= 0.5, hi - d * (1 - t), lo + d * t)


def end_likelihood_stats(batch: BatchRuns, dist: TypeDistribution, L0: float) -> dict:
    """Terminal-odds summary over completed runs, against the learning cap.

    A drive that starts below the up-cascade bound Q/(1-Q) can never
    complete with public odds at or past (Q/(1-Q))^2: an up-cascade
    freezes learning before that.  A drive that starts at or above Q/(1-Q)
    is in an up-cascade from the first mover, so there every completed run
    must end at the starting odds L0 instead.  Violations are reported
    with a warning rather than raised, so summaries stay usable while the
    caller's tests decide how hard to fail.  Every key is always present:
    with no completed run the statistics are None.
    """
    bound = learning_bound(dist.Q)
    odds = batch.odds[batch.filled]
    order = np.argsort(odds)
    # The completed runs' sorted final odds: each history's odds, once per run.
    ends = np.repeat(odds[order], batch.counts[batch.filled].sum(axis=1)[order])
    if ends.size == 0:
        # No completed run can breach the cap.
        return {"n_completed": 0, "max": None, "q50": None, "q90": None, "q99": None,
                "learning_bound": bound, "within_bound": True}
    q50, q90, q99 = _quantiles(ends, [0.5, 0.9, 0.99])
    top = float(ends[-1])
    if L0 < up_cascade_bound(dist.Q):
        within = bool(top < bound)
        fault = f"terminal odds {top} reached the learning bound {bound}"
    else:
        within = bool(np.all(odds == L0))
        fault = f"terminal odds moved from {L0} inside an up-cascade"
    if not within:
        warnings.warn(fault, RuntimeWarning)
    return {
        "n_completed": int(ends.size),
        "max": top,
        "q50": float(q50),
        "q90": float(q90),
        "q99": float(q99),
        "learning_bound": bound,
        "within_bound": within,
    }
