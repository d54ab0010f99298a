"""Numbered end-to-end acceptance checks, one test per headline guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per check.  Each test carries its own tolerance and wall-clock budget and
builds what it needs; solved tables and simulation summaries are cached
at module scope so later checks can reuse them.
"""

import json
import math
import time
import types

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from cascadefund import cli
from cascadefund.beliefs import OutOfSupportWarning, QualitySpec, TypeDistribution
from cascadefund.cascades import (
    cascade_startable,
    down_cascade_bound,
    in_up_cascade,
    learning_bound,
    min_R_for_cascades,
    up_cascade_bound,
)
from cascadefund.engine import (
    GameState,
    backward_induction,
    completion_prob,
    find_roots,
    pi_ordering_scan,
)
from cascadefund.simulate import completion_from_batch, simulate_runs
from cascadefund.unanimity import (
    delegation_analysis,
    profile_utility,
    social_insurance_check,
    solve_unanimity,
)

SEED = 20260816

_DISTS: dict = {}
_POLICIES: dict = {}
_MC: dict = {}

# Simulation configurations: (name, R, B, n).
MC_CONFIGS = (
    ("r50_2of2", 0.50, 2, 2),
    ("r65_2of2", 0.65, 2, 2),
    ("r65_2of3", 0.65, 2, 3),
)


def _dist(R: float, Q: float = 0.8) -> TypeDistribution:
    key = (R, Q)
    if key not in _DISTS:
        _DISTS[key] = TypeDistribution(QualitySpec.uniform(R, Q))
    return _DISTS[key]


def _policy(R: float, B: int, n: int):
    key = (R, B, n)
    if key not in _POLICIES:
        _POLICIES[key] = backward_induction(_dist(R), B, n)
    return _POLICIES[key]


def _mc_data() -> dict:
    """10 start states per configuration, 1e5 runs each, fixed seeds: each
    start state with its runs' per-history summary."""
    if _MC:
        return _MC
    rng = np.random.default_rng(SEED)
    for ci, (name, R, B, n) in enumerate(MC_CONFIGS):
        pol = _policy(R, B, n)
        starts = np.exp(rng.uniform(math.log(0.12), math.log(3.2), 10))
        cells = []
        for k, L0 in enumerate(starts):
            st = GameState(float(L0), B, n)
            cells.append((st, simulate_runs(pol, st, 100_000, seed=SEED + 100 * ci + k)))
        _MC[name] = cells
    return _MC


def test_01_sole_pivotal_mover_inverts_public_odds():
    t0 = time.perf_counter()
    # Wide support so no random draw hits the clipped edges.
    wide = TypeDistribution(QualitySpec.uniform(0.5, 0.995))
    pol = backward_induction(wide, 1, 1)
    Ls = np.random.default_rng(SEED).uniform(0.01, 100.0, 100)
    err = np.abs(pol.sigma(Ls, 1, 1) - 1.0 / (1.0 + Ls))
    assert float(np.max(err)) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_02_two_member_root_matches_quadrature_oracle():
    t0 = time.perf_counter()
    R, Q, L = 0.5, 0.8, 1.0
    gq = 1.0 / (Q - R)

    def w(t):
        return gq * float(R <= t <= Q) + gq * float(R <= 1.0 - t <= Q)

    def tail(omega, x):
        f = (lambda t: w(t) * t) if omega else (lambda t: w(t) * (1.0 - t))
        pts = [p for p in (1.0 - R, R) if x < p < Q]
        val, _ = quad(f, x, Q, points=pts or None, limit=200)
        return val

    # Both members screen at the same cut x; the marginal type is
    # indifferent when L * x/(1-x) * T1(x) = T0(x).
    root = brentq(
        lambda x: L * x / (1.0 - x) * tail(1, x) - tail(0, x),
        1.0 - Q + 1e-9,
        Q - 1e-9,
        xtol=1e-13,
    )
    T1, T0 = tail(1, root), tail(0, root)
    lam = L / (1.0 + L)
    pi1_o, pi0_o = T1 * T1, T0 * T0
    U_o = lam * pi1_o - (1.0 - lam) * pi0_o

    prof = solve_unanimity(L, _dist(0.5), 2)
    assert prof.thresholds[0] == pytest.approx(root, abs=1e-6)
    assert prof.thresholds[1] == pytest.approx(root, abs=1e-6)
    assert prof.pi1 == pytest.approx(pi1_o, abs=1e-6)
    assert prof.pi0 == pytest.approx(pi0_o, abs=1e-6)
    assert prof.utility == pytest.approx(U_o, abs=1e-6)
    assert prof.thresholds[0] == pytest.approx(0.4, abs=1e-6)
    assert prof.pi1 == pytest.approx(0.64, abs=1e-6)
    assert prof.pi0 == pytest.approx(0.284444, abs=1e-6)
    assert prof.utility == pytest.approx(0.177778, abs=1e-6)
    assert time.perf_counter() - t0 < 1.0


def test_03_herding_plateaus_sharp_at_analytic_bounds():
    t0 = time.perf_counter()
    d = _dist(0.5)
    row = _policy(0.5, 2, 2).row(2, 2)
    up = up_cascade_bound(d.Q)
    dn = down_cascade_bound(d.Q, 2)
    nodes, sig = row.L, row.sigma

    hi_mask = nodes >= up
    lo_mask = nodes <= dn
    assert np.all(sig[hi_mask] == d.lo)
    assert np.all(row.pi0[hi_mask] == 1.0) and np.all(row.pi1[hi_mask] == 1.0)
    assert np.all(sig[lo_mask] == d.hi)
    assert np.all(row.pi0[lo_mask] == 0.0) and np.all(row.pi1[lo_mask] == 0.0)

    # Each plateau must begin within one grid cell of its analytic bound.
    step = float(np.max(nodes[1:] / nodes[:-1]))
    pinned_lo = sig == d.lo
    pinned_hi = sig == d.hi
    hi_live = float(np.max(nodes[~pinned_lo]))
    up_start = float(np.min(nodes[pinned_lo & (nodes > 1.0)]))
    assert hi_live < up <= up_start * (1 + 1e-12)
    assert up_start / hi_live <= step * (1 + 1e-9)
    dn_end = float(np.max(nodes[pinned_hi & (nodes < 1.0)]))
    lo_live = float(np.min(nodes[~pinned_hi]))
    assert dn_end * (1 - 1e-12) <= dn < lo_live
    assert lo_live / dn_end <= step * (1 + 1e-9)
    assert time.perf_counter() - t0 < 10.0


def test_04_screening_never_exceeds_stand_alone_cut():
    t0 = time.perf_counter()
    for R in (0.5, 0.65, 0.75):
        d = _dist(R)
        for L in np.geomspace(0.09, 3.7, 23):
            prof = solve_unanimity(float(L), d, 2)
            assert social_insurance_check(d, prof), (R, 2, float(L))
        pol = _policy(R, 4, 4)
        for L in np.geomspace(0.02, 3.7, 23):
            xs = []
            Lc = float(L)
            for m in range(4, 0, -1):
                st = GameState(Lc, m, m)
                rs = find_roots(st, pol)
                x = rs.candidates[rs.selected].x
                xs.append(x)
                Lc *= float(d.lr_upper_tail(x))
            shim = types.SimpleNamespace(thresholds=np.asarray(xs), L=float(L))
            assert social_insurance_check(d, shim), (R, 4, float(L))
    assert time.perf_counter() - t0 < 30.0


def test_05_deferral_regimes_and_critical_reliability():
    t0 = time.perf_counter()
    assert not cascade_startable(_dist(0.5))[0]
    assert cascade_startable(_dist(0.65))[0]
    assert cascade_startable(_dist(0.75))[0]
    assert min_R_for_cascades(0.8) == pytest.approx(0.620204, abs=1e-5)
    assert delegation_analysis(_dist(0.65)).earliest_only
    assert time.perf_counter() - t0 < 5.0


def _sweep_csv(tmp_path, R: float, n: int, name: str) -> np.ndarray:
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"quality": {"kind": "uniform", "R": R, "Q": 0.8}}))
    out = tmp_path / name
    rc = cli.main(
        ["sweep", "--config", str(cfg), "--B", str(n), "--n", str(n), "--out", str(out)]
    )
    assert rc == 0
    lines = (tmp_path / f"{name}.csv").read_text().splitlines()
    assert lines[2].split(",")[0] == "L"
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[3:]])


def test_06_sweep_shapes_across_reliability_configs(tmp_path):
    t0 = time.perf_counter()
    # Columns: L, x_1..x_n, pi0, pi1, utility, delegate_1..n, irregular.

    # Matched reliability (R = 0.5): equal screening at every odds level and
    # invest-for-every-type rows only inside the all-invest herd.
    s50 = _sweep_csv(tmp_path, 0.50, 2, "sweep_r50_n2")
    d50 = _dist(0.50)
    assert float(np.max(np.abs(s50[:, 1] - s50[:, 2]))) <= 1e-6
    for rowv in s50:
        Lc = rowv[0]
        for k in range(2):
            if rowv[6 + k]:
                assert in_up_cascade(Lc, d50.Q), (rowv[0], k)
            Lc *= float(d50.lr_upper_tail(rowv[1 + k]))

    # R = 0.65: a nonempty first-mover deferral interval outside the herd,
    # and a local hump of the first cut within odds 1.8..2.6.
    s65 = _sweep_csv(tmp_path, 0.65, 2, "sweep_r65_n2")
    herd = np.array([in_up_cascade(v, 0.8) for v in s65[:, 0]])
    assert np.any(s65[:, 6].astype(bool) & ~herd)
    w = (s65[:, 0] >= 1.8) & (s65[:, 0] <= 2.6)
    v = s65[w, 1]
    k = int(np.argmax(v))
    assert v[k] > v[0] + 1e-4 and v[k] > v[-1] + 1e-4 and 0 < k < len(v) - 1

    # R = 0.75: sweep completes with finite in-support cuts.
    s75 = _sweep_csv(tmp_path, 0.75, 2, "sweep_r75_n2")
    d75 = _dist(0.75)
    assert s75.shape == (161, 9) and bool(np.all(np.isfinite(s75)))
    for col in (1, 2):
        assert np.all(s75[:, col] >= d75.lo - 1e-12)
        assert np.all(s75[:, col] <= d75.hi + 1e-12)

    # R = 0.65, four members: cuts ordered low-to-high along the move order.
    s65_4 = _sweep_csv(tmp_path, 0.65, 4, "sweep_r65_n4")
    X = s65_4[:, 1:5]
    bad = np.nonzero(np.min(np.diff(X, axis=1), axis=1) < -1e-4)[0]
    detail = "; ".join(
        f"L={s65_4[i, 0]:.6f} x={np.array2string(X[i], precision=6)}"
        for i in bad[:8]
    )
    assert bad.size == 0, (
        f"{bad.size} rows place a later mover below an earlier one: {detail}"
    )
    assert time.perf_counter() - t0 < 60.0


def test_07_simulation_agrees_with_solved_completion_odds():
    t0 = time.perf_counter()
    data = _mc_data()
    cells = ok = 0
    for name, R, B, n in MC_CONFIGS:
        pol = _policy(R, B, n)
        for st, hist in data[name]:
            p0, p1 = completion_prob(st, pol)
            # The per-world means of the runs' filled flags, bit for bit.
            est = completion_from_batch(hist)
            for truth, phat, cnt in ((p0, est.pi0_hat, est.count0), (p1, est.pi1_hat, est.count1)):
                se = math.sqrt(truth * (1.0 - truth) / cnt)
                cells += 1
                ok += abs(phat - truth) <= 3.0 * se
    assert cells == 60
    assert ok >= math.ceil(0.95 * cells), (ok, cells)
    assert time.perf_counter() - t0 < 120.0


def test_08_completed_runs_respect_learning_cap():
    # Piggybacks on the summaries from the simulation agreement check.
    data = _mc_data()
    cap = learning_bound(0.8)
    ends = {}
    for name in ("r50_2of2", "r65_2of2"):
        ends[name] = max(
            float(np.max(hist.odds[hist.filled])) for _, hist in data[name] if np.any(hist.filled)
        )
        assert ends[name] < cap, (name, ends[name])
    # Matched reliability ends inside the one-step herd bound.
    assert ends["r50_2of2"] < up_cascade_bound(0.8), ends["r50_2of2"]


def test_09_distribution_laws_and_cross_solver_agreement(
    dist_u58, dist_triangular, dist_bimodal
):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for d in (dist_u58, dist_triangular, dist_bimodal):
        ys = np.linspace(d.lo + 1e-6, d.hi - 1e-6, 401)

        # Screening updates are monotone in the cut.
        assert np.all(np.diff(d.lr_upper_tail(ys)) > 0)
        assert np.all(np.diff(d.lr_lower_tail(ys)) > 0)

        # Good-world types first-order dominate bad-world types.
        gap = d.cdf(0, ys) - d.cdf(1, ys)
        inner = (ys > d.lo + 1e-3) & (ys < d.hi - 1e-3)
        assert np.all(gap >= -1e-15) and np.all(gap[inner] > 0)
        with pytest.warns(OutOfSupportWarning):
            assert d.cdf(0, d.lo - 0.01) == 0.0 and d.cdf(1, d.lo - 0.01) == 0.0
        with pytest.warns(OutOfSupportWarning):
            assert d.cdf(0, d.hi + 0.01) == 1.0 and d.cdf(1, d.hi + 0.01) == 1.0

        # Density ratio equals the private odds of the type itself.
        f1, f0 = d.pdf(1, ys), d.pdf(0, ys)
        pos = f0 > 0
        ratio_err = np.abs(f1[pos] / f0[pos] - ys[pos] / (1.0 - ys[pos]))
        assert float(np.max(ratio_err)) <= 1e-10

        # Joint value is blind to the order thresholds are listed in.
        for L in (0.6, 1.0, 2.0):
            xs = np.sort(rng.uniform(d.lo, d.hi, 3))
            base = profile_utility(d, L, xs)
            for _ in range(4):
                perm = rng.permutation(xs)
                assert profile_utility(d, L, perm) == pytest.approx(base, abs=1e-12)
            prof = solve_unanimity(L, d, 2)
            assert prof.utility == pytest.approx(
                profile_utility(d, L, prof.thresholds), abs=1e-12
            )

        # Dedicated must-fill ladder against the general engine.
        pol = backward_induction(d, 2, 2)
        row = pol.row(2, 2)
        live = (row.L > 0.12) & (row.L < 3.2) & ~row.irregular
        nodes = row.L[live]
        for L in nodes[:: max(1, nodes.size // 8)]:
            x_eng = float(pol.sigma(float(L), 2, 2))
            x_lad = float(solve_unanimity(float(L), d, 2).thresholds[0])
            assert x_eng == pytest.approx(x_lad, abs=1e-6)
    assert time.perf_counter() - t0 < 60.0


def test_10_partial_requirement_scan_reports():
    report = pi_ordering_scan(_policy(0.65, 2, 3))
    assert report["states_checked"] > 0
    assert isinstance(report["violations"], list)
    # The completion-odds ordering is conjectured, not proven, for partial
    # requirements; the deliverable is the report, not an empty list.
