"""Monte Carlo driver tests.

Runs are deterministic in the seed and block-wise (a batch's leading
blocks do not depend on how many runs follow), the play on the tree of
public histories equals the per-run mover loop bit for bit, cascade
states reproduce their closed forms exactly, and the estimates land
inside standard-error bands of the solved probabilities.  Per-run columns
are read from the chunk stream (`_runs`); the merged summary that
simulate_runs returns must equal one play of every run at once.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from cascadefund.beliefs import DomainError, QualitySpec, TypeDistribution
from cascadefund.engine import GameState, PolicyTable, pi_ordering_scan
from cascadefund.simulate import (
    BLOCK_RUNS,
    CHUNK_BLOCKS,
    CompletionEstimate,
    Histories,
    _play,
    _quantiles,
    completion_from_batch,
    end_likelihood_stats,
    estimate_completion,
    simulate_chunks,
    simulate_runs,
)

from conftest import bimodal_spec, triangular_spec

U58 = QualitySpec.uniform(0.5, 0.8)


@pytest.fixture(scope="module")
def pol58(solved):
    return solved(U58, 2, 2)


class Runs(NamedTuple):
    """Per-run columns, in run order."""

    world: np.ndarray
    types: np.ndarray
    actions: np.ndarray
    L_end: np.ndarray
    completed: np.ndarray


def _runs(policy, state, runs, seed) -> Runs:
    """Every chunk's runs, each run's columns gathered from its chunk's
    histories."""
    cols = [(c.world, c.types, c.paths[c.history], c.histories.odds[c.history],
             c.histories.filled[c.history]) for c in simulate_chunks(policy, state, runs, seed)]
    return Runs(*(np.concatenate(col) for col in zip(*cols)))


def _runs_equal(a: Runs, b: Runs) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestDeterminism:
    def test_same_seed_same_runs(self, pol58):
        st = GameState(L=1.0, B=2, n=2)
        a = _runs(pol58, st, 500, seed=11)
        b = _runs(pol58, st, 500, seed=11)
        assert _runs_equal(a, b)
        c = _runs(pol58, st, 500, seed=12)
        assert not _runs_equal(a, c)

    def test_block_prefix_matches_smaller_batch(self, pol58):
        # One block per 4096 runs, each with its own spawned seed, so the
        # leading blocks of a larger batch are the smaller batch itself.
        st = GameState(L=1.0, B=2, n=2)
        big = _runs(pol58, st, BLOCK_RUNS * 2 + 100, seed=3)
        small = _runs(pol58, st, BLOCK_RUNS, seed=3)
        assert _runs_equal(Runs(*(col[:BLOCK_RUNS] for col in big)), small)

    def test_single_run_record(self, pol58):
        run = _runs(pol58, GameState(L=1.0, B=2, n=2), 1, seed=5)
        assert len(run.world) == 1
        assert run.types[0].shape == (2,)
        assert run.actions[0].shape == (2,)
        assert run.L_end.shape == (1,)
        assert simulate_runs(pol58, GameState(L=1.0, B=2, n=2), 1, seed=5).counts.sum() == 1

    def test_rejects_zero_runs(self, pol58):
        with pytest.raises(DomainError):
            simulate_runs(pol58, GameState(L=1.0, B=2, n=2), 0, seed=0)


def _block_draws(policy, state, runs, seed):
    """Each block's worlds and types, drawn into arrays of its own: the
    reference for the draws into a chunk's arrays."""
    dist = policy.dist
    n = state.n
    sizes = [BLOCK_RUNS] * (runs // BLOCK_RUNS)
    if runs % BLOCK_RUNS:
        sizes.append(runs % BLOCK_RUNS)
    for count, seed_seq in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        rng = np.random.Generator(np.random.Philox(seed_seq))
        lam = state.L / (1.0 + state.L)
        world = (rng.random(count) < lam).astype(np.int8)
        q = dist.quality_quantile(rng.random((count, n)))
        match = rng.random((count, n)) < q
        s = np.where(match, world[:, None], 1 - world[:, None])
        yield world, np.where(s == 1, q, 1.0 - q)


def _per_run_reference(policy, state, runs, seed):
    """Block-by-block draws and a mover loop in which every run queries the
    policy and the odds factors at its own public state."""
    dist = policy.dist
    n = state.n
    parts = []
    for world, types in _block_draws(policy, state, runs, seed):
        count = len(world)
        L = np.full(count, state.L)
        need = np.full(count, state.B, dtype=np.int64)
        actions = np.zeros((count, n), dtype=bool)
        for k in range(n):
            left = n - k
            sigma = np.empty(count)
            for b in range(state.B - k, state.B + 1):
                m = need == b
                if m.any():
                    sigma[m] = policy.sigma(L[m], b, left)
            act = types[:, k] >= sigma
            ratio = np.empty(count)
            ratio[act] = dist.lr_upper_tail(sigma[act])
            ratio[~act] = dist.lr_lower_tail(sigma[~act])
            L = L * ratio
            need -= act
            actions[:, k] = act
        parts.append((world, types, actions, L, need <= 0))
    return Runs(*(np.concatenate(cols) for cols in zip(*parts)))


def _whole_batch_reference(policy, state, runs, seed):
    """Every block's draws concatenated, then played once on the whole
    batch's tree: its per-run columns, and its summary, the Histories that
    simulate_runs must return."""
    world, types = (np.concatenate(c) for c in zip(*_block_draws(policy, state, runs, seed)))
    empty = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))
    history, code, odds, filled = _play(policy, state, types, [empty] * (state.n + 1))
    paths = ((code[:, None] >> np.arange(state.n - 1, -1, -1)) & 1).astype(bool)
    counts = np.bincount(2 * history + world, minlength=2 * code.size).reshape(-1, 2)
    runs = Runs(world, types, paths[history], odds[history], filled[history])
    return runs, Histories(code, odds, filled, counts)


ORACLE_CASES = {
    "uniform-2-3-three-blocks": (U58, 129, GameState(L=1.0, B=2, n=3), 2 * BLOCK_RUNS + 17),
    "uniform-3-8": (U58, 513, GameState(L=1.0, B=3, n=8), 3000),
    "bimodal-5-12": (bimodal_spec(), 129, GameState(L=0.8, B=5, n=12), 3000),
    "up-cascade-start": (U58, 2001, GameState(L=4.5, B=2, n=2), 500),
    "down-cascade-start": (U58, 2001, GameState(L=0.05, B=2, n=2), 500),
    "one-of-one": (U58, 129, GameState(L=0.7, B=1, n=1), 500),
}


class TestHistoryTree:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_equals_per_run_loop(self, solved, case):
        spec, grid, st, runs = ORACLE_CASES[case]
        policy = solved(spec, st.B, st.n, grid_size=grid)
        got = _runs(policy, st, runs, seed=13)
        want = _per_run_reference(policy, st, runs, seed=13)
        for name in Runs._fields:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        # Every history of a chunk is some run's, and no two share an
        # action path; so too in the merged summary.
        for chunk in simulate_chunks(policy, st, runs, seed=13):
            assert np.bincount(chunk.history, minlength=len(chunk.histories.code)).min() >= 1
            assert len(np.unique(chunk.paths, axis=0)) == len(chunk.paths) <= min(runs, 2**st.n)
        hist = simulate_runs(policy, st, runs, seed=13)
        assert hist.counts.sum(axis=1).min() >= 1 and np.all(np.diff(hist.code) > 0)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_counts_give_the_per_run_statistics(self, solved, case):
        # The counts per (history, world) give np.mean's completion
        # frequencies and the quantiles of the sorted per-run final odds.
        spec, grid, st, runs = ORACLE_CASES[case]
        policy = solved(spec, st.B, st.n, grid_size=grid)
        got = simulate_runs(policy, st, runs, seed=13)
        want = _per_run_reference(policy, st, runs, seed=13)
        est = completion_from_batch(got)
        for w, p, count in ((0, est.pi0_hat, est.count0), (1, est.pi1_hat, est.count1)):
            m = want.world == w
            assert count == int(np.sum(m))
            assert p == float(np.mean(want.completed[m])) or (count == 0 and np.isnan(p))
        stats = end_likelihood_stats(got, policy.dist, st.L)
        ends = want.L_end[want.completed]
        assert stats["n_completed"] == ends.size
        if ends.size:
            want_q = np.quantile(ends, [0.5, 0.9, 0.99]).tolist()
            got_q = [stats[k] for k in ("q50", "q90", "q99")]
            assert [v.hex() for v in got_q] == [v.hex() for v in want_q]
            assert stats["max"].hex() == float(np.max(ends)).hex()

    def test_policy_and_tails_evaluated_once_per_history_node(self, solved, monkeypatch):
        # Before mover k at most 2^k histories exist, so n = 3 movers read
        # at most 1 + 2 + 4 = 7 thresholds and 2 + 4 + 8 = 14 odds factors,
        # however many runs share them.
        policy = solved(U58, 2, 3, grid_size=129)
        elems = {"sigma": 0, "tail": 0}

        def count(cls, name, key):
            orig = getattr(cls, name)

            def counted(self, x, *args):
                elems[key] += np.size(x)
                return orig(self, x, *args)

            monkeypatch.setattr(cls, name, counted)

        count(PolicyTable, "sigma", "sigma")
        count(TypeDistribution, "lr_upper_tail", "tail")
        count(TypeDistribution, "lr_lower_tail", "tail")
        simulate_runs(policy, GameState(L=1.0, B=2, n=3), 20000, seed=4)
        assert 3 <= elems["sigma"] <= 2**3 - 1
        assert 6 <= elems["tail"] <= 2**4 - 2


CHUNK_RUNS = CHUNK_BLOCKS * BLOCK_RUNS
MERGE_CASES = {
    "one-of-one-single-run": (U58, 129, GameState(L=0.7, B=1, n=1), 1),
    "uniform-2-3-partial-last-chunk": (U58, 129, GameState(L=1.0, B=2, n=3), 2 * CHUNK_RUNS + 17),
    "uniform-3-8": (U58, 513, GameState(L=1.0, B=3, n=8), 3 * CHUNK_RUNS),
    "bimodal-5-12": (bimodal_spec(), 129, GameState(L=0.8, B=5, n=12), 3 * CHUNK_RUNS + 5),
    "up-cascade-start": (U58, 2001, GameState(L=4.5, B=2, n=2), CHUNK_RUNS + 1),
    "triangular-2-4": (triangular_spec(), 257, GameState(L=1.2, B=2, n=4), 2 * CHUNK_RUNS + 100),
}


class TestChunks:
    @pytest.mark.parametrize("case", MERGE_CASES)
    def test_merged_chunks_equal_one_whole_batch(self, solved, case):
        # Every per-run column of the chunks, and every field of the merged
        # summary with the run counts per (history, world) that the
        # statistics read, with its dtype and bits.
        spec, grid, st, runs = MERGE_CASES[case]
        policy = solved(spec, st.B, st.n, grid_size=grid)
        want_runs, want = _whole_batch_reference(policy, st, runs, seed=21)
        got_runs = _runs(policy, st, runs, seed=21)
        got = simulate_runs(policy, st, runs, seed=21)
        for name in Runs._fields:
            a, b = getattr(got_runs, name), getattr(want_runs, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        for name in ("code", "odds", "filled", "counts"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name

    def test_chunks_and_their_summaries(self, solved):
        # Chunks of CHUNK_RUNS runs, the last one partial, each on its own
        # histories, which its summary counts and its paths decode; their
        # merged summary is what simulate_runs returns.
        policy = solved(U58, 2, 3, grid_size=129)
        st = GameState(L=1.0, B=2, n=3)
        runs = 2 * CHUNK_RUNS + 17
        chunks = list(simulate_chunks(policy, st, runs, seed=2))
        assert [len(c) for c in chunks] == [CHUNK_RUNS, CHUNK_RUNS, 17]
        for c in chunks:
            h = c.histories
            assert c.history.dtype == np.min_scalar_type(2 * len(h.code))
            assert np.array_equal(h.counts, np.bincount(c.cell, minlength=2 * len(h.code))
                                  .reshape(-1, 2))
            assert np.array_equal(c.paths @ (1 << np.arange(st.n - 1, -1, -1)), h.code)
        merged = reduce(Histories.merge, (c.histories for c in chunks))
        hist = simulate_runs(policy, st, runs, seed=2)
        for name in ("code", "odds", "filled", "counts"):
            assert getattr(merged, name).tobytes() == getattr(hist, name).tobytes(), name

    def test_memory_is_flat_in_the_run_count(self, solved):
        # One chunk of runs is alive at a time: the traced allocation peak
        # of simulate_runs over 10 whole chunks is within 0.5 MB of the one
        # over 2.
        policy = solved(U58, 2, 3, grid_size=129)
        st = GameState(L=1.0, B=2, n=3)

        def peak(runs):
            tracemalloc.start()
            try:
                simulate_runs(policy, st, runs, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2 * CHUNK_RUNS)  # what every call shares, such as numpy's caches
        small, big = peak(2 * CHUNK_RUNS), peak(10 * CHUNK_RUNS)
        assert big - small <= 0.5e6


class TestCascadeStates:
    def test_up_cascade_everyone_invests(self, pol58):
        run = _runs(pol58, GameState(L=4.5, B=2, n=2), 300, seed=1)
        assert np.all(run.actions == 1)
        assert np.all(run.completed)
        # Threshold at the support bottom is uninformative: odds frozen.
        assert np.all(run.L_end == 4.5)

    def test_down_cascade_nobody_invests(self, pol58):
        run = _runs(pol58, GameState(L=0.05, B=2, n=2), 300, seed=1)
        assert np.all(run.actions == 0)
        assert not np.any(run.completed)
        assert np.all(run.L_end == 0.05)


class TestPathConsistency:
    def test_paths_replay_from_actions(self, pol58):
        st = GameState(L=0.9, B=2, n=2)
        run = _runs(pol58, st, 50, seed=7)
        dist = pol58.dist
        for i in range(50):
            L, need = st.L, st.B
            for k in range(st.n):
                x = pol58.sigma(L, need, st.n - k)
                act = run.types[i, k] >= x
                assert act == bool(run.actions[i, k])
                L *= dist.lr_upper_tail(x) if act else dist.lr_lower_tail(x)
                need -= int(act)
            assert run.L_end[i] == pytest.approx(L, rel=1e-12)
            assert run.completed[i] == (need <= 0)

    def test_types_match_world_frequencies(self, pol58):
        # E[t | good] = E[1 - 2q(1-q)] = 0.56 for quality uniform on
        # [0.5, 0.8], and the bad-world mean mirrors it around 1/2.
        run = _runs(pol58, GameState(L=1.0, B=2, n=2), 4000, seed=9)
        good = run.world == 1
        assert run.types[good].mean() == pytest.approx(0.56, abs=0.02)
        assert run.types[~good].mean() == pytest.approx(0.44, abs=0.02)


class TestEstimates:
    def test_estimate_within_three_se(self, pol58):
        st = GameState(L=1.0, B=2, n=2)
        est = estimate_completion(pol58, st, 40000, seed=2)
        assert abs(est.pi0_hat - 64.0 / 225.0) <= 3 * est.se0
        assert abs(est.pi1_hat - 0.64) <= 3 * est.se1
        assert est.count0 > 0 and est.count1 > 0

    def test_settled_states_exact(self, pol58):
        won = estimate_completion(pol58, GameState(L=1.0, B=0, n=2), 10, seed=0)
        lost = estimate_completion(pol58, GameState(L=1.0, B=3, n=2), 10, seed=0)
        assert (won.pi0_hat, won.pi1_hat, won.se0, won.se1) == (1.0, 1.0, 0.0, 0.0)
        assert (lost.pi0_hat, lost.pi1_hat) == (0.0, 0.0)

    def test_empty_world_cell_is_unavailable(self, pol58):
        # Odds this long against the good world never sample it.
        est = estimate_completion(pol58, GameState(L=1e-8, B=2, n=2), 200, seed=4)
        assert est.count0 > 0 and est.count1 == 0
        assert np.isnan(est.pi1_hat)
        assert est.pi0_hat == 0.0

    def test_posterior_is_martingale(self, pol58):
        st = GameState(L=1.0, B=2, n=2)
        run = _runs(pol58, st, 40000, seed=6)
        p_end = run.L_end / (1.0 + run.L_end)
        lam0 = st.L / (1.0 + st.L)
        z = (p_end.mean() - lam0) / (p_end.std(ddof=1) / np.sqrt(len(run.L_end)))
        assert abs(z) <= 3.0

    def test_estimate_is_a_dataclass_with_counts(self, pol58):
        est = estimate_completion(pol58, GameState(L=1.0, B=2, n=2), 100, seed=1)
        assert isinstance(est, CompletionEstimate)
        assert est.count0 + est.count1 == 100


class TestEndOdds:
    def test_completed_runs_respect_learning_cap(self, pol58):
        hist = simulate_runs(pol58, GameState(L=1.0, B=2, n=2), 20000, seed=8)
        stats = end_likelihood_stats(hist, pol58.dist, 1.0)
        assert stats["within_bound"]
        assert stats["max"] < stats["learning_bound"]
        assert stats["q50"] <= stats["q90"] <= stats["q99"] <= stats["max"]

    def test_empty_batch_keeps_every_key(self, pol58):
        hist = simulate_runs(pol58, GameState(L=0.05, B=2, n=2), 50, seed=8)
        stats = end_likelihood_stats(hist, pol58.dist, 0.05)
        Q = pol58.dist.Q
        assert stats == {
            "n_completed": 0,
            "max": None,
            "q50": None,
            "q90": None,
            "q99": None,
            "learning_bound": (Q / (1.0 - Q)) ** 2,
            "within_bound": True,
        }

    def test_moved_odds_inside_up_cascade_are_flagged(self, pol58):
        hist = simulate_runs(pol58, GameState(L=4.5, B=2, n=2), 50, seed=8)
        moved = dataclasses.replace(hist, odds=hist.odds * 1.5)
        # A drive starting in an up-cascade must end at its starting odds.
        with pytest.warns(RuntimeWarning, match="moved from 4.5"):
            stats = end_likelihood_stats(moved, pol58.dist, 4.5)
        assert not stats["within_bound"]

    def test_ordering_scan_finds_no_violations(self, pol58):
        assert pi_ordering_scan(pol58)["violations"] == []

    def test_quantiles_are_numpys_bit_for_bit(self):
        # Of sorted values given once per run, or once per distinct value
        # with cumulative run counts, as end_likelihood_stats reads them.
        rng = np.random.default_rng(5)
        arrays = [rng.lognormal(0.0, 2.0, k) for k in (3, 17, 200, 20_001)]
        arrays += [rng.choice([0.25, 1.5, 4.0], 301), np.full(9, 2.5)]  # ties
        arrays += [np.repeat(rng.lognormal(0.0, 2.0, 6), rng.integers(1, 5000, 6))]
        arrays += [np.array([3.0]), np.array([0.7, 0.2]), np.array([1.0, 1.0])]
        for a in arrays:
            values, counts = np.unique(a, return_counts=True)
            for qs in ([0.5, 0.9, 0.99], [0.0, 0.25, 0.75, 1.0]):
                want = [v.hex() for v in np.quantile(a, qs)]
                for s, cum in ((np.sort(a), np.arange(1, a.size + 1)), (values, np.cumsum(counts))):
                    assert [v.hex() for v in _quantiles(s, cum, qs)] == want


def test_a_cli_simulate_leaves_numpy_ma_unimported(tmp_path):
    # np.quantile calls np.unique, whose first call imports numpy.ma.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (
        "import sys\n"
        "from cascadefund.cli import main\n"
        "main(['simulate', '--B', '2', '--n', '3', '--grid-size', '65', '--runs', '2000',\n"
        f"      '--out', {str(tmp_path / 'sim')!r}])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip().splitlines()[-1] == "False"
