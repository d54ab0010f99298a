import numpy as np
import pytest

from cascadefund import roots
from cascadefund.beliefs import QualitySpec, TypeDistribution
from cascadefund.cascades import (
    analyze,
    cascade_startable,
    cascade_trigger,
    down_cascade_bound,
    in_down_cascade,
    in_up_cascade,
    learning_bound,
    min_R_for_cascades,
    up_cascade_bound,
    witness_intervals,
)
from cascadefund.unanimity import delegation_analysis


class TestBounds:
    def test_known_values_at_q08(self):
        assert up_cascade_bound(0.8) == pytest.approx(4.0, rel=1e-12)
        assert down_cascade_bound(0.8, 2) == pytest.approx(0.0625, rel=1e-12)
        assert down_cascade_bound(0.8, 1) == pytest.approx(0.25, rel=1e-12)
        assert learning_bound(0.8) == pytest.approx(16.0, rel=1e-12)

    def test_known_values_at_q09(self):
        assert up_cascade_bound(0.9) == pytest.approx(9.0, rel=1e-12)
        assert learning_bound(0.9) == pytest.approx(81.0, rel=1e-12)

    def test_learning_bound_is_square_of_up(self):
        for Q in (0.6, 0.7, 0.8, 0.95):
            assert learning_bound(Q) == pytest.approx(
                up_cascade_bound(Q) ** 2, rel=1e-12
            )

    def test_membership_predicates(self):
        # Compare at the code's own fp values: 0.8/0.2 is one ulp above 4.
        assert in_up_cascade(up_cascade_bound(0.8), 0.8)
        assert not in_up_cascade(3.999999, 0.8)
        assert in_down_cascade(down_cascade_bound(0.8, 2), 2, 0.8)
        assert not in_down_cascade(0.0626, 2, 0.8)

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            up_cascade_bound(1.0)
        with pytest.raises(ValueError):
            up_cascade_bound(0.4)


class TestTrigger:
    def test_trigger_at_bottom_edge_equals_up_bound(self, dist_u58):
        # (1-x)/x * u(x) -> Q/(1-Q) as x falls to the bottom of the support.
        x = dist_u58.lo
        assert cascade_trigger(dist_u58, x) == pytest.approx(4.0, rel=1e-9)

    def test_trigger_closed_form_u58(self, dist_u58):
        # For qualities uniform on [1/2, Q] the invest update is
        # (Q+x)/(2-Q-x), so the trigger is that times (1-x)/x.
        for x in (0.25, 0.3, 0.45):
            want = (1.0 - x) / x * (0.8 + x) / (1.2 - x)
            assert cascade_trigger(dist_u58, x) == pytest.approx(want, rel=1e-12)


class TestStartability:
    def test_uniform_half_not_startable(self, dist_u58):
        ok, witness = cascade_startable(dist_u58)
        assert not ok and witness is None

    @pytest.mark.parametrize("R", [0.65, 0.75])
    def test_higher_r_startable(self, R):
        dist = TypeDistribution(QualitySpec.uniform(R, 0.8))
        ok, witness = cascade_startable(dist)
        assert ok
        assert dist.lo < witness < 0.5
        assert cascade_trigger(dist, witness) >= 4.0 - 1e-9

    def test_min_r_frozen_value(self):
        # Root of (R/(1-R)) * (Q+R)/(2-Q-R) = Q/(1-Q) at Q = 0.8.
        assert min_R_for_cascades(0.8) == pytest.approx(
            0.620204102886729, abs=1e-12
        )

    @pytest.mark.parametrize("Q", [0.6, 0.7, 0.8, 0.9])
    def test_min_r_identity_and_flip(self, Q):
        R = min_R_for_cascades(Q)
        assert 0.5 <= R < Q
        lhs = (R / (1.0 - R)) * (Q + R) / (2.0 - Q - R)
        assert lhs == pytest.approx(Q / (1.0 - Q), rel=1e-9)
        # Slightly below the minimum no threshold can trigger a cascade;
        # slightly above, one can.
        delta = 1e-3
        below = TypeDistribution(QualitySpec.uniform(max(R - delta, 0.5 + 1e-9), Q))
        above = TypeDistribution(QualitySpec.uniform(R + delta, Q))
        assert not cascade_startable(below)[0]
        assert cascade_startable(above)[0]


# Uniform R just above min_R_for_cascades(0.8), where the trigger reaches
# the bound only in a sliver, three wider uniforms, and the tabulated
# density of the CLI golden outputs.
ONE_SCAN_SPECS = [
    {"kind": "uniform", "R": min_R_for_cascades(0.8) + 1e-5, "Q": 0.8},
    {"kind": "uniform", "R": min_R_for_cascades(0.8) + 3e-5, "Q": 0.8},
    {"kind": "uniform", "R": 0.75, "Q": 0.8},
    {"kind": "uniform", "R": 0.65, "Q": 0.8},
    {"kind": "uniform", "R": 0.5, "Q": 0.8},
    {
        "kind": "tabulated",
        "R": 0.6,
        "Q": 0.85,
        "knots": [[q, d / 0.3] for q, d in ((0.6, 1.0), (0.7, 0.0), (0.75, 2.0), (0.85, 2.0))],
    },
]


@pytest.mark.filterwarnings("ignore::cascadefund.beliefs.OutOfSupportWarning")
@pytest.mark.parametrize("doc", ONE_SCAN_SPECS)
class TestOneTriggerScan:
    def test_startable_agrees_with_delegation(self, doc):
        dist = TypeDistribution(QualitySpec.from_dict(doc))
        iv = delegation_analysis(dist).witness_intervals
        assert cascade_startable(dist) == (bool(iv), iv[0][0] if iv else None)

    def test_delegation_reports_the_scan(self, doc):
        dist = TypeDistribution(QualitySpec.from_dict(doc))
        assert witness_intervals(dist) == delegation_analysis(dist).witness_intervals


class TestHerdPredicates:
    """The engine's herd test at (2, 2), whose invest child is the last mover."""

    def test_against_solved_table(self, dist_u58, solved):
        invest_child = solved(dist_u58.spec, 2, 2).view(1, 1)
        herd_inv, herd_dec = roots.herd_flags(
            dist_u58, invest_child.ratio_at, np.array([0.05, 1.0, 4.5])
        )
        assert herd_dec.tolist() == [True, False, False]
        assert herd_inv[1:].tolist() == [False, True]

    def test_boundaries_match_solved_plateaus(self, dist_u58, solved):
        policy = solved(dist_u58.spec, 2, 2)
        L = policy.row(2, 2).L
        up = dist_u58.Q / (1.0 - dist_u58.Q)
        herd_inv, _ = roots.herd_flags(dist_u58, policy.view(1, 1).ratio_at, L)
        assert np.array_equal(herd_inv, L >= up)


class TestReport:
    def test_analyze_fields(self, dist_u658):
        rep = analyze(dist_u658, 2)
        assert rep.up_bound == pytest.approx(4.0)
        assert rep.down_bound == pytest.approx(0.0625)
        assert rep.learning_bound == pytest.approx(16.0)
        assert rep.startable is True
        assert 0.2 < rep.witness_x < 0.5

    def test_analyze_not_startable(self, dist_u58):
        rep = analyze(dist_u58, 1)
        assert rep.startable is False
        assert rep.witness_x is None
        assert rep.down_bound == pytest.approx(0.25)
