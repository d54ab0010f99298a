"""Exact threshold-profile solver tests for must-fill games.

Uniform quality on [0.5, 0.8] at even odds gives the reference profile:
both thresholds 0.4, completion probabilities 64/225 and 0.64, utility
16/90.  Everything here avoids the grid solver except the sweep helper,
which is allowed to fall back to it for three or more players.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bimodal_spec, triangular_spec

from cascadefund import roots
from cascadefund.beliefs import DomainError, QualitySpec, TypeDistribution
from cascadefund.unanimity import (
    DelegationReport,
    asymmetric_profiles,
    completion_prob_unanimity,
    delegation_analysis,
    delegation_pattern,
    hazard_J,
    J_monotone_segments,
    profile_discriminator,
    profile_utility,
    social_insurance_check,
    solve_unanimity,
    sweep_profiles,
    symmetric_threshold,
)
from cascadefund.unanimity import _level_brackets, _member_residual, _profile_valid

EXACT_SPECS = {
    "uniform-0.5-0.8": lambda: QualitySpec.uniform(0.5, 0.8),
    "uniform-0.65-0.8": lambda: QualitySpec.uniform(0.65, 0.8),
    "uniform-0.75-0.8": lambda: QualitySpec.uniform(0.75, 0.8),
    "triangular": triangular_spec,
    "bimodal": bimodal_spec,
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

    def test_symmetric_root(self, dist_u58):
        assert symmetric_threshold(1.0, dist_u58, 2) == pytest.approx(0.4, abs=1e-10)

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

    def test_to_dict_round_trip_fields(self, dist_u58):
        doc = solve_unanimity(1.0, dist_u58, 2).to_dict()
        assert set(doc) == {"L", "thresholds", "kinds", "pi0", "pi1", "utility"}


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
        got = profile_discriminator(dist, L, (x, 0.45), 1)
        want = L * dist.sf(1, x) ** 2 - dist.sf(0, x) ** 2
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_discriminator_three_members(self, dist_u58):
        L, xs = 1.2, (0.3, 0.45, 0.6)
        T1 = [dist_u58.sf(1, v) for v in xs]
        T0 = [dist_u58.sf(0, v) for v in xs]
        want = max(
            L * T1[j] * T1[1] * T1[2] - T0[j] * T0[1] * T0[2] for j in (1, 2)
        )
        assert profile_discriminator(dist_u58, L, xs, 0) == pytest.approx(
            want, rel=1e-12
        )


class TestLadderDepth:
    def test_three_player_residuals(self, dist_u58):
        prof = solve_unanimity(2.0, dist_u58, 3)
        for i in range(3):
            assert abs(_member_residual(dist_u58, 2.0, prof.thresholds, i)) <= 1e-9

    def test_three_player_pi_ordering(self, dist_u58):
        prof = solve_unanimity(2.0, dist_u58, 3)
        assert prof.pi1 > prof.pi0

    @given(L=st.floats(0.3, 3.9))
    @settings(max_examples=20, deadline=None)
    def test_two_player_system_solves(self, L):
        dist = TypeDistribution(QualitySpec.uniform(0.5, 0.8))
        prof = solve_unanimity(L, dist, 2)
        for i, kind in enumerate(prof.kinds):
            r = _member_residual(dist, L, prof.thresholds, i)
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
            for i, kind in enumerate(prof.kinds):
                r = _member_residual(dist_u658, 1.6, prof.thresholds, i)
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
            assert _profile_valid(dist_u658, L, prof.thresholds, prof.kinds)
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
        assert _member_residual(dist_u658, L, blend, 0) == pytest.approx(0.0172, abs=1e-4)

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
        ((_, flags_on),) = delegation_pattern(dist_u658, 2, 1.6)
        ((_, flags_off),) = delegation_pattern(dist_u658, 2, 1.0)
        assert flags_on == (True, False)
        assert flags_off == (False, False)

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
        # The sweep and the delegation pattern solve every odds point in
        # one ladder walk; each row must equal the profile solved alone.
        dist = request.getfixturevalue(name)
        Ls = np.concatenate([np.geomspace(0.2, 5.0, 17), [1.6]])
        per_L = np.array([solve_unanimity(float(L), dist, 2).thresholds for L in Ls])
        assert np.array_equal(sweep_profiles(dist, 2, Ls)["x"], per_L)
        flags = per_L <= dist.lo + 1e-9
        want = tuple((float(L), tuple(map(bool, row))) for L, row in zip(Ls, flags))
        assert delegation_pattern(dist, 2, Ls) == want
        if name == "dist_u658":
            assert flags.any()  # the delegation band is on the path

    def test_three_player_walk_equals_per_point_solves(self, dist_u658):
        Ls = [0.8, 1.6, 3.0]
        per_L = [solve_unanimity(L, dist_u658, 3).thresholds for L in Ls]
        want = tuple(
            (L, tuple(x <= dist_u658.lo + 1e-9 for x in xs)) for L, xs in zip(Ls, per_L)
        )
        assert delegation_pattern(dist_u658, 3, Ls) == want

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
