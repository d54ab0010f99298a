"""Forward simulation of funding drives under a solved policy table.

Worlds, qualities, and signals are drawn with a counter-based Philox
generator so runs are reproducible from the seed alone: the draws are
split into fixed blocks of BLOCK_RUNS runs, each block gets its own child
seed, and the blocks follow one another in order.

The simulated protocol follows the solved policy exactly: each player
invests iff her type reaches the threshold for the current public state
(ties, a probability-zero event, invest), and the public odds update by
the invest/decline likelihood factors of that same threshold.  Play
continues through all players even once the outcome is settled, since
later actions still carry information.

Later players see earlier actions and nothing else, so after k movers the
public state depends only on the action history.  Runs are simulated one
chunk of CHUNK_BLOCKS blocks at a time (`simulate_chunks`): each block
draws into the chunk's arrays, and the chunk is played on its own tree of
histories.  Thresholds and odds factors are evaluated once per history
node, the first time some chunk reaches it (at most min(runs, 2^k) nodes
after k movers), with the same elementwise arithmetic a per-run loop
would do, so the results are the same bit for bit.  What the final
history fixes (the actions, the final odds, completion) is kept once per
history.  Across chunks only a per-history summary is kept, merged by
action-path code (`Histories`): the statistics read nothing but its final
odds, filled flags and run counts per (history, world), so a caller that
writes each chunk out before drawing the next holds memory flat in the
run count.  `simulate_runs` returns the chunks' merged summary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from cascadefund.beliefs import DomainError, TypeDistribution
from cascadefund.cascades import learning_bound, up_cascade_bound
from cascadefund.engine import GameState, PolicyTable

__all__ = [
    "BLOCK_RUNS",
    "BatchRuns",
    "CHUNK_BLOCKS",
    "CompletionEstimate",
    "Histories",
    "completion_from_batch",
    "end_likelihood_stats",
    "estimate_completion",
    "simulate_chunks",
    "simulate_runs",
]

BLOCK_RUNS = 4096
# RNG blocks per chunk.  A CLI simulate of 200,000 runs (B = 2, n = 3, grid
# 257; 2-core x86-64, numpy 2.4.6) by blocks per chunk, against 47.60 MB
# and 77.0 ms when one batch held every run:
#   blocks per chunk           1      2      4      8     16
#   peak RSS, MB           39.54  39.63  39.97  41.57  43.27
#   warm CPU time, ms       87.7   86.1   81.4   78.8   79.2
#   traced peak growth, MB  0.01   0.01   0.33   1.60   2.85
# (RSS: median of 4 fresh processes; CPU: median over 3 processes of the
# fastest of 40 calls; growth: tracemalloc's peak at 100,000 runs less
# that at 10,000, 3.66 MB for one batch.)  Fewer blocks pay each chunk's
# fixed cost more often; more blocks grow the peak with the chunk's arrays.
CHUNK_BLOCKS = 4


@dataclass(frozen=True)
class Histories:
    """Per-history summary of simulated runs, in ascending action-path code.

    code holds each final history's actions as the bits of one word, the
    first mover's highest; odds is the public odds after the last mover,
    filled whether the drive filled, counts the runs by (history, world).
    completion_from_batch and end_likelihood_stats read nothing else.
    """

    code: np.ndarray
    odds: np.ndarray
    filled: np.ndarray
    counts: np.ndarray

    def merge(self, other: Histories) -> Histories:
        """The histories of both: one reached by both keeps its odds and
        filled flag, which its path fixes bit for bit, and adds its counts."""
        code = np.concatenate([self.code, other.code])
        code.sort()
        code = code[np.concatenate(([True], code[1:] != code[:-1]))]
        odds, filled = np.empty(len(code)), np.empty(len(code), dtype=bool)
        counts = np.zeros((len(code), 2), dtype=self.counts.dtype)
        for part in (self, other):
            at = np.searchsorted(code, part.code)
            odds[at], filled[at] = part.odds, part.filled
            counts[at] += part.counts
        return Histories(code, odds, filled, counts)


@dataclass(frozen=True)
class BatchRuns:
    """One chunk of simulated runs, kept on its own tree of histories.

    Per run: world, the drawn world state; types, the (runs, n) movers'
    types; history, the index of the run's final public action history in
    histories, the chunk's summary, in an integer type that holds twice
    the number of histories.  paths gives each history's actions.
    """

    world: np.ndarray
    types: np.ndarray
    history: np.ndarray
    histories: Histories

    def __len__(self) -> int:
        return len(self.world)

    paths = property(lambda self: _paths(self.histories.code, self.types.shape[1]))
    # Each run's (history, world) pair as one index.
    cell = property(lambda self: 2 * self.history + self.world)


def _paths(code: np.ndarray, n: int) -> np.ndarray:
    """Each path code's n actions, first mover first."""
    return ((code[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)


def _simulate_block(policy: PolicyTable, state: GameState, seed_seq, world, types):
    """Draw one block's worlds and movers' types into `world` and `types`."""
    count = len(world)
    rng = np.random.Generator(np.random.Philox(seed_seq))
    lam = state.L / (1.0 + state.L)
    world[...] = rng.random(count) < lam
    q = policy.dist.quality_quantile(rng.random((count, state.n)))
    match = rng.random((count, state.n)) < q
    # The signal names the good world when it matches a good world or misses
    # a bad one; the mover's type is then q, and 1 - q otherwise.
    types[...] = np.where(match == (world == 1)[:, None], q, 1.0 - q)


def _play(policy: PolicyTable, state: GameState, types: np.ndarray, known: list):
    """Play every run on the tree of public action histories.

    Runs with the same history share their public odds and need, so each
    run carries only the index of its node, and the policy and the odds
    factors are evaluated once per history node.  known[k] holds the nodes
    after k movers that earlier chunks reached: their path codes,
    ascending, and each one's odds, need and threshold.  A node is
    evaluated, with the elementwise arithmetic of a per-run loop, the
    first time a chunk reaches it, and joins known[k]; later chunks read
    it back, so every chunk gets the same bits at no second evaluation.
    Children of node i are numbered in (i, action) order, so the final
    nodes are numbered in ascending path code.  Returns each run's final
    node, and per final node its path code, odds and filled flag; a node
    carries its path as one word, so no level copies paths.
    """
    dist = policy.dist
    runs, n = types.shape
    node = np.zeros(runs, dtype=np.intp)
    # This chunk's nodes after k movers, each one's actions so far as the
    # bits of one word (n <= 50 < 63), and each one's parent and action.
    code, parent, up = np.zeros(1, dtype=np.int64), None, None
    for k in range(n + 1):
        at = np.searchsorted(known[k][0], code)
        new = at == known[k][0].size
        new[~new] = known[k][0][at[~new]] != code[~new]
        if new.any():
            if k == 0:
                L_new, need_new = np.array([float(state.L)]), np.array([state.B], dtype=np.int64)
            else:
                p, u = parent[new], up[new]
                # Each child needs only the odds factor of the action that made it.
                ratio = np.empty(p.size)
                ratio[u] = dist.lr_upper_tail(sigma[p[u]])
                ratio[~u] = dist.lr_lower_tail(sigma[p[~u]])
                L_new, need_new = L[p] * ratio, need[p] - u
            sigma_new = np.full(L_new.size, np.nan)  # none after the last mover
            # After k movers a node still needs between B - k and B investments.
            for b in range(state.B - k, state.B + 1) if k < n else ():
                m = need_new == b
                if m.any():
                    sigma_new[m] = policy.sigma(L_new[m], b, n - k)
            joined = [np.concatenate(c)
                      for c in zip(known[k], (code[new], L_new, need_new, sigma_new))]
            order = np.argsort(joined[0])
            known[k] = [c[order] for c in joined]
            at = np.searchsorted(known[k][0], code)
        L, need, sigma = (c[at] for c in known[k][1:])
        if k == n:
            break
        act = types[:, k] >= sigma[node]
        node *= 2  # in place: node is now each run's child slot
        node += act
        reached = np.zeros(2 * code.size, dtype=bool)
        reached[node] = True
        slots = np.flatnonzero(reached)
        parent, up = slots >> 1, (slots & 1).astype(bool)
        code = 2 * code[parent] + up
        node = (np.cumsum(reached) - 1)[node]
    # The smallest index type that also holds the (history, world) cells.
    return node.astype(np.min_scalar_type(2 * code.size)), code, L, need <= 0


def _chunk(policy: PolicyTable, state: GameState, seed_seqs, count: int, known: list):
    """Draw `count` runs, one block per seed, and play them (`_play`)."""
    world, types = np.empty(count, dtype=np.int8), np.empty((count, state.n))
    for i, seed_seq in enumerate(seed_seqs):
        rows = slice(i * BLOCK_RUNS, (i + 1) * BLOCK_RUNS)
        _simulate_block(policy, state, seed_seq, world[rows], types[rows])
    history, code, odds, filled = _play(policy, state, types, known)
    counts = np.bincount(2 * history + world, minlength=2 * code.size).reshape(-1, 2)
    return BatchRuns(world, types, history, Histories(code, odds, filled, counts))


def simulate_chunks(policy: PolicyTable, state: GameState, runs: int, seed: int):
    """Simulate `runs` independent drives from `state`, one chunk at a time.

    A chunk is CHUNK_BLOCKS blocks of BLOCK_RUNS runs (the last one may be
    short), drawn block by block from the seed's spawned children in block
    order and played on its own tree of histories; the chunks share the
    nodes evaluated so far (`_play`).  Yields per chunk its BatchRuns,
    whose histories are its own; nothing of a chunk stays here while the
    next one is drawn.
    """
    if runs < 1:
        raise DomainError(f"need at least one run, got {runs}")
    seeds = np.random.SeedSequence(seed)
    empty = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))
    known = [empty] * (state.n + 1)
    for start in range(0, runs, CHUNK_BLOCKS * BLOCK_RUNS):
        count = min(runs - start, CHUNK_BLOCKS * BLOCK_RUNS)
        yield _chunk(policy, state, seeds.spawn(-(-count // BLOCK_RUNS)), count, known)


def simulate_runs(
    policy: PolicyTable, state: GameState, runs: int, seed: int
) -> Histories:
    """Simulate `runs` independent drives from `state` under the policy.

    Returns the chunks' Histories merged: every history in ascending path
    code, which is how one play of all the runs would number them, so the
    summary is the same bit for bit.  One chunk is alive at a time; the
    per-run columns are the chunks' (`simulate_chunks`).
    """
    chunks = simulate_chunks(policy, state, runs, seed)
    return reduce(Histories.merge, (chunk.histories for chunk in chunks))


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


def completion_from_batch(hist: Histories) -> CompletionEstimate:
    """Completion frequencies by world over the runs that `hist` summarises.

    From the run counts per (history, world): the mean of a world's filled
    flags is its exact integer count over the runs, as np.mean gives it.
    """
    cnt = hist.counts.sum(axis=0).tolist()
    done = hist.counts[hist.filled].sum(axis=0).tolist()
    p = [d / c if c else math.nan for d, c in zip(done, cnt)]
    se = [math.sqrt(q * (1.0 - q) / c) if c else math.nan for q, c in zip(p, cnt)]
    return CompletionEstimate(p[0], p[1], se[0], se[1], cnt[0], cnt[1])


def estimate_completion(
    policy: PolicyTable, state: GameState, runs: int, seed: int
) -> CompletionEstimate:
    """Completion frequencies from `runs` fresh drives.

    The one-call library form of completion_from_batch on simulate_runs;
    settled states give their exact values without simulating.
    """
    if state.B <= 0 or state.B > state.n:
        p0, p1 = policy.pi(state.L, state.B, state.n)
        return CompletionEstimate(p0, p1, 0.0, 0.0, runs, runs)
    return completion_from_batch(simulate_runs(policy, state, runs, seed))


def _quantiles(s, cum, qs):
    """np.quantile(qs) of the values that s, sorted ascending, holds with
    cumulative counts cum (s[j] once for each run in cum[j-1]..cum[j]-1),
    bit for bit.

    numpy's linear rule: at the virtual index v = (N-1) q, N = cum[-1],
    between the order statistics lo at i = floor(v) and hi at i + 1, with
    t = v - i, it is lo + (hi-lo) t, or hi - (hi-lo)(1-t) where t >= 0.5.
    Order statistic i is s[j] for the first j with cum[j] > i.  np.quantile
    itself calls np.unique, whose first call imports numpy.ma, which
    nothing else in a `simulate` run loads.
    """
    size = int(cum[-1])
    v = (size - 1) * np.asarray(qs, dtype=float)
    i = np.floor(v).astype(np.intp)
    lo = s[np.searchsorted(cum, i, side="right")]
    hi = s[np.searchsorted(cum, np.minimum(i + 1, size - 1), side="right")]
    t, d = v - i, hi - lo
    return np.where(t >= 0.5, hi - d * (1 - t), lo + d * t)


def end_likelihood_stats(hist: Histories, dist: TypeDistribution, L0: float) -> dict:
    """Terminal-odds summary over completed runs, against the learning cap.

    The order statistics of the completed runs' final odds come from the
    completed histories' odds, sorted, and their cumulative run counts in
    `hist`, never from a per-run array.
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
    odds = hist.odds[hist.filled]
    if odds.size == 0:
        # No completed run can breach the cap.
        return {"n_completed": 0, "max": None, "q50": None, "q90": None, "q99": None,
                "learning_bound": bound, "within_bound": True}
    order = np.argsort(odds)
    ends = odds[order]
    cum = np.cumsum(hist.counts[hist.filled].sum(axis=1)[order])
    q50, q90, q99 = _quantiles(ends, cum, [0.5, 0.9, 0.99])
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
        "n_completed": int(cum[-1]),
        "max": top,
        "q50": float(q50),
        "q90": float(q90),
        "q99": float(q99),
        "learning_bound": bound,
        "within_bound": within,
    }
