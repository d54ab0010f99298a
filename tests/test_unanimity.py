"""Exact threshold-profile solver tests for must-fill games.

Uniform quality on [0.5, 0.8] at even odds gives the reference profile:
both thresholds 0.4, completion probabilities 64/225 and 0.64, utility
16/90.  Everything here avoids the grid solver except the sweep helper,
which is allowed to fall back to it for three or more players.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bimodal_spec, interior_zero_spec, triangular_spec

from cascadefund import roots, unanimity
from cascadefund.beliefs import DomainError, QualitySpec, TypeDistribution
from cascadefund.unanimity import (
    DelegationReport,
    asymmetric_profiles,
    completion_prob_unanimity,
    delegation_analysis,
    hazard_J,
    J_monotone_segments,
    profile_utility,
    social_insurance_check,
    solve_unanimity,
    sweep_profiles,
)
from cascadefund.unanimity import (
    _ExactChild,
    _ladder_solve,
    _level_brackets,
    _member_terms,
    _profile_valid,
)

EXACT_SPECS = {
    "uniform-0.5-0.8": lambda: QualitySpec.uniform(0.5, 0.8),
    "uniform-0.65-0.8": lambda: QualitySpec.uniform(0.65, 0.8),
    "uniform-0.75-0.8": lambda: QualitySpec.uniform(0.75, 0.8),
    "triangular": triangular_spec,
    "bimodal": bimodal_spec,
}


# Bits of the exact ladder, recorded as float.hex: solve_unanimity at
# n = 3, each odds of PIN_PROFILE_ODDS giving its thresholds, pi0 and pi1,
# and one _ladder_solve(m = 3) call on PIN_LADDER_ODDS giving x_first, pi0
# and pi1 per odds (no tie at any of them).
PIN_PROFILE_ODDS = (0.4, 0.9, 2.0)
PIN_LADDER_ODDS = (0.02, 0.05, 0.3, 1.0, 2.5, 6.0)
LADDER_PIN = {
    "uniform-0.5-0.8": (
        [
            ("0x1.d88ac8a4020c5p-2", "0x1.d88ac8a4020c5p-2", "0x1.d88ac8a403b86p-2", "0x1.285c20cf0f35ep-4", "0x1.713690450a05fp-2"),
            ("0x1.74e8cc1e4fdf2p-2", "0x1.74e8cc1e4fdf2p-2", "0x1.74e8cc1e528ccp-2", "0x1.ca563029ab405p-3", "0x1.359cba5550d2fp-1"),
            ("0x1.16d99f1a4fdf2p-2", "0x1.16d99f1a4fdf2p-2", "0x1.16d99f1a50848p-2", "0x1.16103c5614361p-1", "0x1.ad721486996e6p-1"),
        ],
        [
            ("0x1.8f3583889893ap-1", "0x1.81a262d75beb3p-19", "0x1.3fef5559edf69p-13"),
            ("0x1.63ea7c546978ep-1", "0x1.680682ef4977fp-11", "0x1.243e514c0aff1p-6"),
            ("0x1.fbd65b205c28ep-2", "0x1.741cd64d03afep-5", "0x1.2210ac35da8aep-2"),
            ("0x1.6825be219fbe7p-2", "0x1.04b7f7940ac50p-2", "0x1.463bde0598a72p-1"),
            ("0x1.fc180e18c0830p-3", "0x1.57b70520948aep-1", "0x1.caca292c7ca16p-1"),
            ("0x1.9999999999998p-3", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ],
    ),
    "uniform-0.65-0.8": (
        [
            ("0x1.0ee33b7047ae0p-2", "0x1.a79b536a4bc6ap-2", "0x1.a79b536a4abbfp-2", "0x1.9ee0f6d50a7fbp-5", "0x1.e47359aa6de50p-2"),
            ("0x1.015cc48b5a1cap-2", "0x1.015cc48b3d709p-2", "0x1.a7660716db795p-2", "0x1.3045857c7d13fp-3", "0x1.3c154284c2c77p-1"),
            ("0x1.9999999999998p-3", "0x1.9999999999998p-3", "0x1.5555555555555p-2", "0x1.6480f2b9d647dp-2", "0x1.86a314dbf86a5p-1"),
        ],
        [
            ("0x1.8f3583889893ap-1", "0x1.81a262d75beb3p-16", "0x1.3fef5559edf69p-10"),
            ("0x1.63ea7c546978ep-1", "0x1.680682ef4977fp-8", "0x1.243e514c0aff1p-3"),
            ("0x1.4bea5459b4394p-2", "0x1.e25dde21a977cp-6", "0x1.a58192f705957p-2"),
            ("0x1.eda3e84ba1cabp-3", "0x1.5c9d3eeb057c3p-3", "0x1.47c3adfb355d1p-1"),
            ("0x1.dc669052ccccdp-3", "0x1.24514423798f4p-1", "0x1.bb18e09f65b46p-1"),
            ("0x1.9999999999998p-3", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ],
    ),
    "interior-zero": (
        [
            ("0x1.e2dc78e341894p-2", "0x1.e2dc78e341894p-2", "0x1.e2dc78e341adap-2", "0x1.58ae4f9237da0p-4", "0x1.941b7aaa7b77dp-2"),
            ("0x1.71af6db720c48p-2", "0x1.71af6db720c48p-2", "0x1.71af6db722671p-2", "0x1.efd93ec28121bp-3", "0x1.55ddf3a9d753cp-1"),
            ("0x1.044b671e0a3d7p-2", "0x1.044b671e0a3d7p-2", "0x1.044b671e0b655p-2", "0x1.d49a661c22315p-2", "0x1.a0507cae2169ep-1"),
        ],
        [
            ("0x1.8f13ec10b3334p-1", "0x1.4312d1f0194d6p-16", "0x1.0ca1f8ac810b6p-10"),
            ("0x1.5cd611166978ep-1", "0x1.acccfd6bc8488p-10", "0x1.7f66d0f237711p-5"),
            ("0x1.d6e4993b20c4ap-2", "0x1.68f832e5673c2p-5", "0x1.1e08f30333781p-2"),
            ("0x1.5ace8f9120c4ap-2", "0x1.f8822a01e17ecp-3", "0x1.5825fb3f94228p-1"),
            ("0x1.e1d1c794b851ep-3", "0x1.2ccbcc0d43bb3p-1", "0x1.bdf66adeb3eafp-1"),
            ("0x1.9999999999998p-3", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ],
    ),
}


def _holds(profiles, want, tol):
    """Whether some profile's sorted thresholds lie within tol of want's."""
    want = np.sort(want)
    return any(np.max(np.abs(np.sort(p.thresholds) - want)) <= tol for p in profiles)


class TestReferenceProfile:
    def test_two_player_thresholds(self, dist_u58):
        prof = solve_unanimity(1.0, dist_u58, 2)
        for x in prof.thresholds:
            assert x == pytest.approx(0.4, abs=1e-10)
        assert prof.kinds == ("interior", "interior")

    def test_two_player_completion_and_utility(self, dist_u58):
        prof = solve_unanimity(1.0, dist_u58, 2)
        assert prof.pi0 == pytest.approx(64.0 / 225.0, abs=1e-9)
        assert prof.pi1 == pytest.approx(0.64, abs=1e-9)
        assert prof.utility == pytest.approx(16.0 / 90.0, abs=1e-9)

    def test_interior_residuals_vanish(self, dist_u58):
        prof = solve_unanimity(1.0, dist_u58, 2)
        for r in prof.residuals:
            assert abs(r) <= 1e-9

    def test_discriminators_agree_at_symmetry(self, dist_u58):
        prof = solve_unanimity(1.0, dist_u58, 2)
        d0, d1 = prof.discriminators
        assert d0 == pytest.approx(d1, rel=1e-9)

    def test_single_player_is_clipped_posterior(self, dist_u58):
        for L in (0.1, 0.3, 1.0, 3.0, 10.0):
            prof = solve_unanimity(L, dist_u58, 1)
            want = float(np.clip(1.0 / (1.0 + L), dist_u58.lo, dist_u58.hi))
            assert prof.thresholds == (want,)


class TestHerdRegions:
    def test_dead_region_exact(self, dist_u58):
        prof = solve_unanimity(0.0624, dist_u58, 2)
        assert prof.thresholds == (dist_u58.hi, dist_u58.hi)
        assert prof.pi0 == 0.0 and prof.pi1 == 0.0
        assert all(k == "herd_decline" for k in prof.kinds)
        # Declining is weakly dominant there: residual cannot favor entry.
        assert all(r <= 0 for r in prof.residuals)

    def test_just_above_dead_bound_is_live(self, dist_u58):
        prof = solve_unanimity(0.0626, dist_u58, 2)
        assert all(k == "interior" for k in prof.kinds)
        assert 0.0 < prof.pi1 < 1e-5

    def test_up_cascade_exact(self, dist_u58):
        prof = solve_unanimity(4.1, dist_u58, 2)
        assert prof.thresholds == (dist_u58.lo, dist_u58.lo)
        assert prof.pi0 == 1.0 and prof.pi1 == 1.0
        assert all(k == "herd_invest" for k in prof.kinds)
        assert all(r >= 0 for r in prof.residuals)


class TestProfileFunctions:
    def test_completion_is_permutation_invariant(self, dist_u58):
        a = completion_prob_unanimity(dist_u58, (0.3, 0.5))
        b = completion_prob_unanimity(dist_u58, (0.5, 0.3))
        assert a == b

    def test_utility_is_permutation_invariant_for_two(self, dist_u58):
        a = profile_utility(dist_u58, 1.0, (0.3, 0.5))
        b = profile_utility(dist_u58, 1.0, (0.5, 0.3))
        assert a == pytest.approx(b, rel=1e-12)

    def test_hazard_closed_form(self, dist_u58):
        # x/(1-x) times the decline-to-invest tail ratio: at 0.4 both
        # tails are uniform so the value is (2/3)*(2/3).
        assert hazard_J(dist_u58, 0.4) == pytest.approx(4.0 / 9.0, rel=1e-12)

    @given(x=st.floats(0.21, 0.79))
    @settings(max_examples=60, deadline=None)
    def test_discriminator_matches_direct_formula(self, x):
        # Member 1's score pits the rival's continuation tail against the
        # rival's tremble, so member 1's own threshold drops out.
        dist = TypeDistribution(QualitySpec.uniform(0.5, 0.8))
        L = 1.3
        got = _member_terms(dist, L, (x, 0.45))[2][1]
        want = L * dist.sf(1, x) ** 2 - dist.sf(0, x) ** 2
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_discriminator_three_members(self, dist_u58):
        L, xs = 1.2, (0.3, 0.45, 0.6)
        T1 = [dist_u58.sf(1, v) for v in xs]
        T0 = [dist_u58.sf(0, v) for v in xs]
        want = max(
            L * T1[j] * T1[1] * T1[2] - T0[j] * T0[1] * T0[2] for j in (1, 2)
        )
        assert _member_terms(dist_u58, L, xs)[2][0] == pytest.approx(
            want, rel=1e-12
        )


class TestLadderDepth:
    def test_three_player_residuals(self, dist_u58):
        prof = solve_unanimity(2.0, dist_u58, 3)
        for r in _member_terms(dist_u58, 2.0, prof.thresholds)[1]:
            assert abs(r) <= 1e-9

    def test_three_player_pi_ordering(self, dist_u58):
        prof = solve_unanimity(2.0, dist_u58, 3)
        assert prof.pi1 > prof.pi0

    @pytest.mark.parametrize("name", sorted(LADDER_PIN))
    def test_three_player_ladder_bits_are_pinned(self, name):
        # The CLI goldens reach the ladder at m <= 2 only; this pins the
        # m = 3 ladder, the engine's reference, bit for bit.
        spec = interior_zero_spec() if name == "interior-zero" else EXACT_SPECS[name]()
        dist = TypeDistribution(spec)
        profiles, ladder = LADDER_PIN[name]
        for L, want in zip(PIN_PROFILE_ODDS, profiles):
            prof = solve_unanimity(L, dist, 3)
            assert tuple(v.hex() for v in (*prof.thresholds, prof.pi0, prof.pi1)) == want
        x, pi0, pi1, tie = _ladder_solve(dist, np.array(PIN_LADDER_ODDS), 3)
        assert [tuple(map(float.hex, map(float, r))) for r in zip(x, pi0, pi1)] == ladder
        assert not tie.any()

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize(
        "spec",
        [QualitySpec.uniform(0.5, 0.8), QualitySpec.uniform(0.65, 0.8),
         QualitySpec.uniform(0.55, 0.999), triangular_spec()],
        ids=["uniform-0.5-0.8", "uniform-0.65-0.8", "uniform-0.55-0.999", "triangular"],
    )
    def test_exact_child_answers_its_dead_cut_without_a_ladder_solve(self, spec, m, monkeypatch):
        # At and below the dead cut the exact child's completion chances
        # are exact zeros, read with no ladder solve; the ladder itself
        # gives the same there.
        dist = TypeDistribution(spec)
        child = _ExactChild(dist, m, 2)
        dead = child.dead * np.array([1.0, 1.0 - 2.0**-52, 0.5, 1e-3])
        _, want0, want1, _ = _ladder_solve(dist, dead, m, 2)
        calls = []

        def counted(*args):
            calls.append(args)
            return _ladder_solve(*args)

        monkeypatch.setattr(unanimity, "_ladder_solve", counted)
        for L in (dead, *dead.tolist()):
            p0, p1 = child.pi_at(L)
            assert np.all(p0 == 0.0) and np.all(p1 == 0.0), L
            assert np.all(child.ratio_at(L) == np.inf), L
        assert calls == []
        assert np.all(want0 == 0.0) and np.all(want1 == 0.0)
        # Just above the cut the child solves the ladder there, and only there
        # (further calls are the recursion, at fewer players).
        child.pi_at(np.append(dead, np.nextafter(child.dead, np.inf)))
        assert [(len(args[1]), args[2]) for args in calls if args[2] == m] == [(1, m)]

    @given(L=st.floats(0.3, 3.9))
    @settings(max_examples=20, deadline=None)
    def test_two_player_system_solves(self, L):
        dist = TypeDistribution(QualitySpec.uniform(0.5, 0.8))
        prof = solve_unanimity(L, dist, 2)
        for kind, r in zip(prof.kinds, _member_terms(dist, L, prof.thresholds)[1]):
            if kind == "interior":
                assert abs(r) <= 1e-8
            elif kind == "herd_invest":
                assert r >= -1e-9
            else:
                assert r <= 1e-9


class TestAsymmetric:
    def test_even_odds_has_only_symmetric(self, dist_u58):
        profs = asymmetric_profiles(1.0, dist_u58, 2)
        assert len(profs) == 1
        x0, x1 = profs[0].thresholds
        assert x0 == pytest.approx(0.4, abs=1e-9)
        assert x1 == pytest.approx(0.4, abs=1e-9)

    def test_solver_picks_highest_utility_profile(self, dist_u658):
        for L in (0.9, 1.6, 2.4):
            profs = asymmetric_profiles(L, dist_u658, 2)
            sol = solve_unanimity(L, dist_u658, 2)
            gaps = [
                max(
                    abs(a - b)
                    for a, b in zip(sorted(p.thresholds), sorted(sol.thresholds))
                )
                for p in profs
            ]
            assert min(gaps) <= 1e-7
            assert sol.utility >= max(p.utility for p in profs) - 1e-9

    def test_asymmetric_beats_symmetric_when_present(self, dist_u658):
        profs = asymmetric_profiles(0.9, dist_u658, 2)
        assert len(profs) == 2
        sym = min(profs, key=lambda p: abs(p.thresholds[0] - p.thresholds[1]))
        asym = max(profs, key=lambda p: abs(p.thresholds[0] - p.thresholds[1]))
        assert asym.utility > sym.utility

    def test_profiles_are_valid_equilibria(self, dist_u658):
        for prof in asymmetric_profiles(1.6, dist_u658, 2):
            for kind, r in zip(prof.kinds, _member_terms(dist_u658, 1.6, prof.thresholds)[1]):
                if kind == "interior":
                    assert abs(r) <= 1e-7
                elif kind == "herd_invest":
                    assert r >= -1e-7
                else:
                    assert r <= 1e-7

    @pytest.mark.parametrize(
        "L, want",
        [
            (0.706269, [0.2374, 0.2374, 0.2804, 0.4114]),
            (0.273193, [0.2, 0.3487, 0.3487, 0.3524]),
        ],
    )
    def test_four_player_profiles_with_three_values(self, dist_u658, L, want):
        # Three distinct thresholds, one on each monotone piece of J: a
        # two-value split cannot reach them.
        profs = asymmetric_profiles(L, dist_u658, 4)
        for prof in profs:
            assert _profile_valid(dist_u658, L, prof.thresholds)
        assert _holds(profs, want, 1e-4)

    def test_set_certifies_the_ladder_and_rejects_the_blend(self, dist_u658):
        # The exact four-player ladder's profile is an equilibrium; the
        # engine sweep's profile at the same odds, interpolated across a
        # selection switch, is not: its interior member at 0.2305 is off
        # indifference by 0.0172.
        L = 0.706269
        profs = asymmetric_profiles(L, dist_u658, 4)
        assert _holds(profs, [0.3494, 0.2, 0.2, 0.3511], 1e-4)
        blend = [0.230501, 0.320663, 0.2, 0.389308]
        assert not _holds(profs, blend, 1e-4)
        assert _member_terms(dist_u658, L, blend)[1][0] == pytest.approx(0.0172, abs=1e-4)

    @pytest.mark.parametrize("S", [1, 3, 5])
    def test_pruned_brackets_equal_the_dense_scan(self, S):
        # Monotone terms along the scan, as on a piece of J: the bounds
        # only drop stretches on which a dense scan finds no switch.
        rng = np.random.default_rng(S)
        K, n = 301, 12
        F0 = np.sort(rng.normal(size=K)) * rng.choice([-1.0, 1.0])
        lpsi = np.sort(-rng.exponential(0.2, size=(K, S)), axis=0)
        lpsi = np.where(rng.random(S) < 0.5, lpsi, lpsi[::-1])
        M = rng.multinomial(n, np.full(S, 1.0 / S), size=400)
        F = F0[:, None] - np.sum(M[None, :, :] * lpsi[:, None, :], axis=2)
        k, row = np.nonzero((F[:-1] > 0.0) != (F[1:] > 0.0))
        got_row, got_k = _level_brackets(F0, lpsi, M)
        assert sorted(zip(got_row, got_k)) == sorted(zip(row, k))
        assert row.size > 0

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", sorted(EXACT_SPECS))
    @given(L=st.floats(0.1, 4.0))
    @settings(max_examples=3, deadline=None)
    def test_exact_ladder_profile_is_enumerated(self, name, n, L):
        dist = TypeDistribution(EXACT_SPECS[name]())
        sol = solve_unanimity(L, dist, n)
        assert _holds(asymmetric_profiles(L, dist, n), sol.thresholds, 1e-9)


class TestHazardSegments:
    def test_wide_uniform_is_single_increasing(self, dist_u58):
        segs = J_monotone_segments(dist_u58)
        assert len(segs) == 1
        assert segs[0][2] == 1

    def test_narrow_uniform_dips_then_rises(self, dist_u758):
        segs = J_monotone_segments(dist_u758)
        assert len(segs) == 2
        (a0, b0, s0), (a1, b1, s1) = segs
        assert (s0, s1) == (-1, 1)
        # The turn sits exactly at the top of the lower support interval,
        # where the density drops to zero.
        assert b0 == a1 == pytest.approx(1.0 - dist_u758.spec.R, abs=1e-12)


class TestDelegation:
    def test_wide_uniform_never_delegates(self, dist_u58):
        rep = delegation_analysis(dist_u58)
        assert isinstance(rep, DelegationReport)
        assert not rep.startable
        assert rep.witness_intervals == ()
        assert not rep.earliest_only and not rep.latest_only

    def test_mid_uniform_delegates_earliest_only(self, dist_u658):
        rep = delegation_analysis(dist_u658)
        assert rep.startable
        assert rep.earliest_only and not rep.latest_only
        (a, b), = rep.witness_intervals
        assert a == pytest.approx(0.3109477, abs=1e-3)
        assert b == pytest.approx(0.3972603, abs=1e-3)

    def test_narrow_uniform_interval_spans_more(self, dist_u758):
        rep = delegation_analysis(dist_u758)
        assert rep.startable
        assert not rep.earliest_only
        (a, b), = rep.witness_intervals
        assert a == pytest.approx(0.2000750, abs=1e-3)
        assert b == pytest.approx(0.4626866, abs=1e-3)

    def test_pattern_flags(self, dist_u658):
        flags_on, flags_off = sweep_profiles(dist_u658, 2, [1.6, 1.0])["delegate"].tolist()
        assert flags_on == [True, False]
        assert flags_off == [False, False]

    def test_social_insurance_on_equilibrium_path(self, dist_u58, dist_u658):
        assert social_insurance_check(dist_u58, solve_unanimity(1.0, dist_u58, 2))
        assert social_insurance_check(dist_u658, solve_unanimity(1.6, dist_u658, 2))


class TestSweep:
    def test_two_player_sweep_fields(self, dist_u658):
        Ls = np.geomspace(0.5, 3.5, 11)
        sw = sweep_profiles(dist_u658, 2, Ls)
        assert set(sw) == {"L", "x", "pi0", "pi1", "utility", "delegate", "irregular"}
        assert sw["x"].shape == (11, 2)
        assert np.array_equal(sw["L"], Ls)

    def test_two_player_delegation_is_first_mover_only(self, dist_u658):
        # The second mover is pivotal and below the up-cascade bound plays
        # an interior threshold, so delegation can only hit mover one.
        sw = sweep_profiles(dist_u658, 2, np.geomspace(0.5, 3.5, 11))
        rows = {tuple(r.astype(bool)) for r in sw["delegate"]}
        assert rows <= {(False, False), (True, False)}
        assert (True, False) in rows

    def test_four_player_delegation_blocks(self, dist_u658, solved):
        # Automatic investing needs the running odds inside a band that
        # depends on how many slots remain, so the delegating movers sit
        # in one contiguous run, not necessarily at the front: an
        # informative first invest can lift the odds into the band.
        pol = solved(dist_u658.spec, 4, 4)
        Ls = np.geomspace(0.5, 3.5, 11)
        sw = sweep_profiles(dist_u658, 4, Ls, policy=pol)
        flags = sw["delegate"].astype(bool)
        for row in flags:
            run = np.flatnonzero(row)
            if run.size:
                assert np.array_equal(run, np.arange(run[0], run[-1] + 1))
        by_L = dict(zip(np.round(sw["L"], 4), map(tuple, flags)))
        assert by_L[0.7379] == (False, True, True, False)
        assert by_L[1.607] == (True, True, True, False)
        assert by_L[3.5] == (False, False, False, False)

    def test_three_player_sweep_needs_a_table(self, dist_u658):
        with pytest.raises(DomainError):
            sweep_profiles(dist_u658, 3, np.geomspace(0.5, 3.5, 11))

    def test_no_player_is_a_domain_error(self, dist_u658):
        # A walk down the must-fill diagonal needs at least one mover.
        with pytest.raises(DomainError, match="at least one player"):
            solve_unanimity(1.0, dist_u658, 0)
        with pytest.raises(DomainError, match="at least one player"):
            sweep_profiles(dist_u658, 0, np.geomspace(0.5, 3.5, 11))

    def test_empty_sweep(self, dist_u658):
        sw = sweep_profiles(dist_u658, 2, np.array([]))
        assert sw["x"].shape == (0, 2)
        assert sw["irregular"].shape == (0,)

    def test_sweep_monotone_completion(self, dist_u658):
        sw = sweep_profiles(dist_u658, 2, np.geomspace(0.5, 3.5, 11))
        assert np.all(np.diff(sw["pi1"]) > -1e-9)
        assert np.all(sw["pi1"] + 1e-12 >= sw["pi0"])

    @pytest.mark.parametrize("name", ["dist_u658", "dist_triangular", "dist_bimodal"])
    def test_one_walk_equals_per_point_solves(self, name, request):
        # The sweep solves every odds point in one ladder walk; each row
        # must equal the profile solved alone.
        dist = request.getfixturevalue(name)
        Ls = np.concatenate([np.geomspace(0.2, 5.0, 17), [1.6]])
        per_L = np.array([solve_unanimity(float(L), dist, 2).thresholds for L in Ls])
        sw = sweep_profiles(dist, 2, Ls)
        assert np.array_equal(sw["x"], per_L)
        flags = per_L <= dist.lo + 1e-9
        assert np.array_equal(sw["delegate"], flags)
        if name == "dist_u658":
            assert flags.any()  # the delegation band is on the path

    def test_sweep_memory_stays_flat(self, dist_bimodal):
        # One ladder walk serves all 321 points; the scan works through a
        # fixed-size block of states, so its peak does not grow with them.
        Ls = np.geomspace(0.05, 5.0, 321)
        sweep_profiles(dist_bimodal, 2, Ls[:2])
        tracemalloc.start()
        try:
            sweep_profiles(dist_bimodal, 2, Ls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_two_player_sweep_reports_selection_ties(self, dist_u658, monkeypatch):
        # The exact ladder carries the first mover's discriminator tie into
        # the sweep's irregular column.  Report a tie at odds above 1.2
        # only; the second mover is pivotal and selects nothing.
        Ls = np.geomspace(0.5, 3.5, 11)
        assert not sweep_profiles(dist_u658, 2, Ls)["irregular"].any()
        real = roots.select
        tied = []

        def tie_above(xs, U, L, *rest):
            if L > 1.2:
                tied.append(L)
            return real(xs, U, L, *rest)[0], bool(L > 1.2)

        monkeypatch.setattr(roots, "select", tie_above)
        sw = sweep_profiles(dist_u658, 2, Ls)
        assert tied
        assert np.array_equal(sw["irregular"], np.isin(Ls, tied))


# SHA-256 of every ThresholdProfile field, as float.hex and kind strings, of
# solve_unanimity and asymmetric_profiles at n = 1..3 on PROFILE_DIGEST_ODDS:
# herd decline, interior, asymmetric, mixed herd and interior, herd invest.
PROFILE_DIGEST_ODDS = (0.05, 0.9, 1.6, 4.0)
PROFILE_DIGESTS = {
    "uniform-0.5-0.8": "1f15cdc69c77e51bf6d99cb4f93f569e8d9d4e569dc9de835e5ac8aa09dc3be1",
    "uniform-0.65-0.8": "5ae1a4b499a8a9b7df1a26cdfe245f6233cdaf0a0bbcd567b7ccd5ca7ea6fd18",
    "bimodal": "bb8737ad73676f8b5391099e909a96dadaabb4cf8e4487c1856c80f6ba0b80fc",
}


def _profile_digest(profiles):
    h = hashlib.sha256()
    for p in profiles:
        h.update(repr(p.kinds).encode())
        for v in (p.L, *p.thresholds, p.pi0, p.pi1, p.utility, *p.residuals, *p.discriminators):
            h.update(float(v).hex().encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PROFILE_DIGESTS))
def test_profiles_keep_their_bits(name):
    dist = TypeDistribution(EXACT_SPECS[name]())
    profiles = [
        p
        for n in (1, 2, 3)
        for L in PROFILE_DIGEST_ODDS
        for p in (solve_unanimity(L, dist, n), *asymmetric_profiles(L, dist, n))
    ]
    assert _profile_digest(profiles) == PROFILE_DIGESTS[name]
