import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from cascadefund.beliefs import (
    BOUNDARY_BAND,
    ConfigError,
    DomainError,
    OutOfSupportWarning,
    QualitySpec,
    TypeDistribution,
    _clamp,
    _seg_int_f1,
    _seg_int_g,
    private_likelihood,
    update_on_decline,
    update_on_invest,
)
from conftest import bimodal_spec, triangular_spec


@st.composite
def uniform_specs(draw):
    R = draw(st.floats(0.5, 0.93))
    Q = draw(st.floats(R + 0.03, 0.98))
    return QualitySpec.uniform(R, Q)


@st.composite
def tabulated_specs(draw):
    R = draw(st.floats(0.5, 0.85))
    Q = draw(st.floats(R + 0.05, 0.97))
    k = draw(st.integers(2, 5))
    interior = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=k - 2, max_size=k - 2)))
    qs = [R] + [R + u * (Q - R) for u in interior] + [Q]
    if len(set(qs)) != len(qs):
        qs = [R, Q]
    ds = draw(st.lists(st.floats(0.1, 3.0), min_size=len(qs), max_size=len(qs)))
    return QualitySpec.tabulated(R, Q, list(zip(qs, ds)), normalize=True)


def any_specs():
    return st.one_of(uniform_specs(), tabulated_specs())


def quad_cdf(dist: TypeDistribution, omega: int, y: float) -> float:
    segs = []
    pts = sorted({dist.lo, 1.0 - dist.R, dist.R, min(y, dist.hi)})
    pts = [p for p in pts if p <= y + 1e-15]
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = quad(lambda t: dist.pdf(omega, t), a, b, limit=200)
        segs.append(val)
    return float(sum(segs))


def reference_tail(dist: TypeDistribution, omega: int, y, upper: bool):
    """Survival (upper) or CDF of one world on the support, segment by segment."""
    b, c0, c1 = dist._breaks, dist._c0, dist._c1
    idx = np.clip(np.searchsorted(b, y, side="right") - 1, 0, len(c0) - 1)
    a, e = (y, b[idx + 1]) if upper else (b[idx], y)
    f1 = _seg_int_f1(a, e, c0[idx], c1[idx])
    if omega == 1:
        return (dist._tail1[idx + 1] if upper else dist._cum1[idx]) + f1
    g = _seg_int_g(a, e, c0[idx], c1[idx])
    return (dist._tail0[idx + 1] if upper else dist._cum0[idx]) + (g - f1)


class TestQualitySpec:
    def test_uniform_roundtrip(self):
        spec = QualitySpec.uniform(0.5, 0.8)
        doc = json.dumps(spec.to_dict())
        assert QualitySpec.from_dict(json.loads(doc)) == spec

    def test_tabulated_roundtrip(self):
        spec = triangular_spec()
        assert QualitySpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_json_example(self):
        spec = QualitySpec.from_dict(json.loads('{"kind": "uniform", "R": 0.5, "Q": 0.8}'))
        assert spec.R == 0.5 and spec.Q == 0.8

    @pytest.mark.parametrize(
        "R,Q",
        [(0.4, 0.8), (0.8, 0.8), (0.85, 0.8), (0.5, 1.0), (0.5, 1.2)],
    )
    def test_bad_bounds_rejected(self, R, Q):
        with pytest.raises(ConfigError):
            QualitySpec.uniform(R, Q)

    def test_tabulated_must_span_support(self):
        with pytest.raises(ConfigError):
            QualitySpec(kind="tabulated", R=0.5, Q=0.8, knots=((0.55, 2.0), (0.8, 2.0)))

    def test_tabulated_needs_unit_mass(self):
        with pytest.raises(ConfigError):
            QualitySpec(kind="tabulated", R=0.5, Q=0.8, knots=((0.5, 5.0), (0.8, 5.0)))

    def test_endpoint_density_must_be_positive(self):
        with pytest.raises(ConfigError):
            QualitySpec.tabulated(0.5, 0.8, [(0.5, 0.0), (0.8, 1.0)], normalize=True)

    def test_interior_zero_density_warns_but_builds(self):
        with pytest.warns(OutOfSupportWarning):
            spec = QualitySpec.tabulated(
                0.5, 0.8, [(0.5, 2.0), (0.65, 0.0), (0.8, 2.0)], normalize=True
            )
        TypeDistribution(spec)


class TestUniformClosedForms:
    """Uniform-quality CDFs agree with quadrature and frozen values."""

    def test_frozen_values(self, dist_u58):
        assert_allclose(dist_u58.cdf(1, 0.4), 0.2, rtol=1e-12)
        assert_allclose(dist_u58.cdf(0, 0.4), 0.28 / 0.6, rtol=1e-12)
        assert_allclose(dist_u58.sf(1, 0.4), 0.8, rtol=1e-12)
        assert_allclose(dist_u58.sf(0, 0.4), 0.32 / 0.6, rtol=1e-12)

    def test_matches_quadrature(self, dist_u58):
        for omega in (0, 1):
            for y in [0.21, 0.3, 0.45, 0.5, 0.55, 0.7, 0.79]:
                assert_allclose(
                    dist_u58.cdf(omega, y), quad_cdf(dist_u58, omega, y), atol=1e-10
                )

    def test_gap_plateau(self, dist_u658):
        # No mass in (1-R, R); CDFs are flat there at the split values.
        xs = np.linspace(0.36, 0.64, 9)
        assert_allclose(dist_u658.cdf(1, xs), 1 - 0.725, rtol=1e-12)
        assert_allclose(dist_u658.cdf(0, xs), 0.725, rtol=1e-12)
        assert_allclose(dist_u658.pdf(1, xs), 0.0, atol=0)

    def test_support_endpoints(self, dist_u58):
        for omega in (0, 1):
            assert dist_u58.cdf(omega, dist_u58.lo) == pytest.approx(0.0, abs=1e-15)
            assert dist_u58.cdf(omega, dist_u58.hi) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_support_clamps_and_warns(self, dist_u58):
        with pytest.warns(OutOfSupportWarning):
            assert dist_u58.cdf(1, 0.05) == 0.0
        with pytest.warns(OutOfSupportWarning):
            assert dist_u58.cdf(0, 0.95) == 1.0


class TestTabulatedForms:
    """Tabulated-quality CDFs agree with adaptive quadrature to 1e-10."""

    @pytest.mark.parametrize("make", [triangular_spec, bimodal_spec])
    def test_matches_quadrature(self, make):
        dist = TypeDistribution(make())
        ys = np.linspace(dist.lo + 1e-6, dist.hi - 1e-6, 17)
        for omega in (0, 1):
            for y in ys:
                assert_allclose(
                    dist.cdf(omega, float(y)),
                    quad_cdf(dist, omega, float(y)),
                    atol=1e-10,
                )

    @pytest.mark.parametrize("make", [triangular_spec, bimodal_spec])
    def test_total_mass_one(self, make):
        dist = TypeDistribution(make())
        for omega in (0, 1):
            assert_allclose(dist.cdf(omega, dist.hi), 1.0, atol=1e-12)

    def test_quality_quantile_inverts_cdf(self, dist_triangular):
        spec = dist_triangular.spec
        us = np.linspace(0.0, 1.0, 41)
        qs = dist_triangular.quality_quantile(us)
        assert np.all(np.diff(qs) >= 0)
        assert qs[0] == pytest.approx(spec.R)
        assert qs[-1] == pytest.approx(spec.Q)
        # Mass below the quantile equals the argument.
        kq = [k[0] for k in spec.knots]
        kd = [k[1] for k in spec.knots]
        for u, q in zip(us[1:-1], qs[1:-1]):
            val, _ = quad(
                lambda t: np.interp(t, kq, kd),
                spec.R,
                q,
                points=[p for p in kq if p < q],
                limit=200,
            )
            assert_allclose(val, u, atol=1e-9)


class TestLikelihoodRatios:
    """Tail likelihood ratios: limits, monotonicity, and frozen values."""

    def test_frozen_values(self, dist_u58):
        assert_allclose(dist_u58.lr_upper_tail(0.4), 1.5, rtol=1e-12)
        assert_allclose(dist_u58.lr_lower_tail(0.4), 0.2 / (0.28 / 0.6), rtol=1e-12)

    def test_limits_at_support_edges(self, dist_u58):
        Q = 0.8
        assert_allclose(dist_u58.lr_upper_tail(Q), Q / (1 - Q), rtol=1e-12)
        assert_allclose(dist_u58.lr_upper_tail(Q - 1e-13), Q / (1 - Q), rtol=1e-12)
        assert dist_u58.lr_upper_tail(1 - Q) == 1.0
        assert_allclose(dist_u58.lr_lower_tail(1 - Q), (1 - Q) / Q, rtol=1e-12)
        assert_allclose(dist_u58.lr_lower_tail(1 - Q + 1e-13), (1 - Q) / Q, rtol=1e-12)
        assert dist_u58.lr_lower_tail(Q) == 1.0

    def test_limit_continuity(self, dist_u58):
        # Values just outside the limit band approach the limit value.
        assert_allclose(dist_u58.lr_upper_tail(0.8 - 1e-9), 4.0, rtol=1e-7)
        assert_allclose(dist_u58.lr_lower_tail(0.2 + 1e-9), 0.25, rtol=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(any_specs())
    def test_monotone_nondecreasing(self, spec):
        dist = TypeDistribution(spec)
        xs = np.linspace(dist.lo, dist.hi, 1000)
        up = dist.lr_upper_tail(xs)
        lo = dist.lr_lower_tail(xs)
        assert np.all(np.diff(up) >= -1e-9)
        assert np.all(np.diff(lo) >= -1e-9)
        assert np.all(up >= 1.0 - 1e-12)
        assert np.all(up <= spec.Q / (1 - spec.Q) + 1e-9)
        assert np.all(lo >= (1 - spec.Q) / spec.Q - 1e-12)
        assert np.all(lo <= 1.0 + 1e-12)

    def test_strictly_increasing_outside_gap(self, dist_u658):
        xs = np.linspace(0.21, 0.34, 50)
        assert np.all(np.diff(dist_u658.lr_upper_tail(xs)) > 0)
        xs = np.linspace(0.66, 0.79, 50)
        assert np.all(np.diff(dist_u658.lr_lower_tail(xs)) > 0)

    @pytest.mark.filterwarnings("ignore::cascadefund.beliefs.OutOfSupportWarning")
    @pytest.mark.parametrize(
        "make",
        [
            lambda: QualitySpec.uniform(0.5, 0.8),
            lambda: QualitySpec.uniform(0.65, 0.8),
            lambda: QualitySpec.tabulated(
                0.6, 0.85, [(0.6, 1.0), (0.7, 0.0), (0.75, 2.0), (0.85, 2.0)], normalize=True
            ),
        ],
        ids=["uniform-R0.5", "uniform-R0.65-gap", "tabulated-interior-zero"],
    )
    def test_ratios_equal_tail_quotients_exactly(self, make):
        # Both ratios share one tail kernel with sf and cdf, so away from
        # their limit bands they are the tail quotients bit for bit.
        dist = TypeDistribution(make())
        rng = np.random.default_rng(7)
        xs = np.concatenate(
            (dist._breaks, [dist.lo, dist.hi], rng.uniform(dist.lo, dist.hi, 2000))
        )
        up = xs[xs < dist.Q - BOUNDARY_BAND]
        assert np.array_equal(dist.lr_upper_tail(up), dist.sf(1, up) / dist.sf(0, up))
        low = xs[xs > dist.lo + BOUNDARY_BAND]
        assert np.array_equal(dist.lr_lower_tail(low), dist.cdf(1, low) / dist.cdf(0, low))
        # The kernel keeps the per-world segment arithmetic, in both modes.
        for upper in (True, False):
            pair = dist._tails(xs, upper)
            for omega in (0, 1):
                assert np.array_equal(pair[omega], dist._tails(xs, upper, omega))
                assert np.array_equal(pair[omega], reference_tail(dist, omega, xs, upper))


def exact_upper_tails(dist: TypeDistribution, y: float):
    """Exact rational tails at y of the stored piecewise-linear quality factor."""
    yq, T0, T1 = Fraction(y), Fraction(0), Fraction(0)
    for a, e, k0, k1 in zip(dist._breaks[:-1], dist._breaks[1:], dist._c0, dist._c1):
        a, e = max(Fraction(a), yq), Fraction(e)
        if e > a:
            k0, k1 = Fraction(k0), Fraction(k1)
            g = k0 * (e - a) + k1 * (e * e - a * a) / 2
            f1 = k0 * (e * e - a * a) / 2 + k1 * (e**3 - a**3) / 3
            T0, T1 = T0 + g - f1, T1 + f1
    return T0, T1


TAIL_SPECS = [
    lambda: QualitySpec.uniform(0.5, 0.8),
    lambda: QualitySpec.uniform(0.55, 0.999),
    bimodal_spec,
    lambda: QualitySpec.tabulated(
        0.6, 0.85, [(0.6, 1.0), (0.7, 0.0), (0.75, 2.0), (0.85, 2.0)], normalize=True
    ),
    lambda: QualitySpec.tabulated(0.5, 0.75, [(0.5, 8.0), (0.75, 9.4e-38)], normalize=True),
]
TAIL_IDS = ["uniform-R0.5", "uniform-Q0.999", "bimodal", "interior-zero", "vanishing-end"]


def _edge_queries(dist, rng):
    """Breakpoints, the support edges and their neighbouring floats, zeros
    of both signs, NaN, points outside the support, and random points."""
    edges = np.array([dist.lo, dist.hi])
    return np.concatenate(
        (
            dist._breaks,
            edges,
            np.nextafter(edges, 0.0),
            np.nextafter(edges, 1.0),
            [0.0, -0.0, 1.0, np.nan, -np.inf, np.inf, dist.lo - 0.1, dist.hi + 0.1],
            rng.uniform(dist.lo, dist.hi, 2000),
        )
    )


@pytest.mark.filterwarnings("ignore::cascadefund.beliefs.OutOfSupportWarning")
@pytest.mark.parametrize("make", TAIL_SPECS, ids=TAIL_IDS)
def test_clamp_is_np_clip_bit_for_bit(make):
    # On dense arrays of every length up to 40 (numpy's vector loops and
    # their tails), on 0-d arrays and on scalars.
    dist = TypeDistribution(make())
    rng = np.random.default_rng(14)
    for lo, hi in ((dist.lo, dist.hi), (0.0, 1.0)):
        base = np.concatenate((_edge_queries(dist, rng)[:-2000], [lo, hi], np.nextafter([lo, hi], 2.0)))
        base = np.concatenate((base, np.nextafter([lo, hi], -1.0), -base))
        for n in range(1, 41):
            x = rng.permutation(np.tile(base, 2))[:n]
            assert np.array_equal(_clamp(x, lo, hi).view(np.int64), np.clip(x, lo, hi).view(np.int64))
        for v in base:
            for x in (v, np.float64(v), np.array(v)):
                got, want = np.float64(_clamp(x, lo, hi)), np.float64(np.clip(x, lo, hi))
                assert got.view(np.int64) == want.view(np.int64), (lo, hi, v)


@pytest.mark.filterwarnings("ignore::cascadefund.beliefs.OutOfSupportWarning")
@pytest.mark.parametrize("make", TAIL_SPECS, ids=TAIL_IDS)
class TestUpperTailPair:
    def test_sf_pair_is_two_sf_calls_bit_for_bit(self, make):
        dist = TypeDistribution(make())
        rng = np.random.default_rng(11)
        edges = np.array([dist.lo, dist.hi])
        ys = np.concatenate(
            (
                dist._breaks,
                np.nextafter(edges, 0.0),
                np.nextafter(edges, 1.0),
                [0.0, 1.0, dist.lo - 0.1, dist.hi + 0.1],
                rng.uniform(dist.lo, dist.hi, 2000),
            )
        )
        p0, p1 = dist.sf_pair(ys)
        assert np.array_equal(p0, dist.sf(0, ys))
        assert np.array_equal(p1, dist.sf(1, ys))

    def test_cdf_pair_is_two_cdf_calls_bit_for_bit(self, make):
        dist = TypeDistribution(make())
        ys = _edge_queries(dist, np.random.default_rng(13))
        f0, f1 = dist.cdf_pair(ys)
        # Bit for bit: NaN and signs of zero too, and each query alone alike.
        for pair, single in ((f0, dist.cdf(0, ys)), (f1, dist.cdf(1, ys))):
            assert np.array_equal(pair.view(np.int64), single.view(np.int64))
        inside = ys[(ys >= dist.lo) & (ys <= dist.hi)]
        for y in inside[::97]:
            assert tuple(map(float, dist.cdf_pair(y))) == (dist.cdf(0, y), dist.cdf(1, y))
        t0, t1 = dist.sf_pair(ys)
        for pair, single in ((t0, dist.sf(0, ys)), (t1, dist.sf(1, ys))):
            assert np.array_equal(pair.view(np.int64), single.view(np.int64))

    def test_cdf_pair_warns_where_cdf_does(self, make):
        dist = TypeDistribution(make())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist.cdf_pair(np.array([dist.lo, 0.5 * (dist.lo + dist.hi), dist.hi]))
        for y in (np.nextafter(dist.lo, 0.0), np.nextafter(dist.hi, 1.0)):
            with pytest.warns(OutOfSupportWarning):
                f0, f1 = dist.cdf_pair(np.array([y]))
            want = (0.0, 0.0) if y < dist.lo else (1.0, 1.0)
            assert (float(f0[0]), float(f1[0])) == want

    def test_sf_error_bounds_the_rounding(self, make):
        dist = TypeDistribution(make())
        rng = np.random.default_rng(12)
        ys = np.concatenate(
            (
                dist.hi - np.geomspace(1e-12, 0.2, 30),
                rng.uniform(dist.lo, dist.hi, 30),
                [dist.lo, dist.hi],
            )
        )
        p0, p1 = dist.sf_pair(ys)
        err = dist.sf_error(ys)
        assert np.all(np.diff(dist.sf_error(np.sort(ys))) <= 0.0)
        for y, a0, a1, e in zip(ys, p0, p1, err):
            T0, T1 = exact_upper_tails(dist, float(y))
            assert abs(Fraction(float(a0)) - T0) <= Fraction(float(e)), y
            assert abs(Fraction(float(a1)) - T1) <= Fraction(float(e)), y


class TestDistributionLaws:
    """Structural laws of the conditional type distributions."""

    @settings(max_examples=40, deadline=None)
    @given(any_specs())
    def test_point_likelihood_ratio(self, spec):
        dist = TypeDistribution(spec)
        ys = np.linspace(dist.lo + 1e-9, dist.hi - 1e-9, 300)
        f1, f0 = dist.pdf(1, ys), dist.pdf(0, ys)
        mask = f0 > 1e-12
        assert_allclose(f1[mask] / f0[mask], ys[mask] / (1 - ys[mask]), rtol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(any_specs())
    def test_state0_dominates(self, spec):
        dist = TypeDistribution(spec)
        ys = np.linspace(dist.lo, dist.hi, 400)
        assert np.all(dist.cdf(0, ys) >= dist.cdf(1, ys) - 1e-12)

    def test_dominance_strict_inside(self, dist_u58):
        ys = np.linspace(0.25, 0.75, 21)
        assert np.all(dist_u58.cdf(0, ys) > dist_u58.cdf(1, ys))

    @settings(max_examples=40, deadline=None)
    @given(any_specs())
    def test_cdf_sf_complement(self, spec):
        dist = TypeDistribution(spec)
        ys = np.linspace(dist.lo, dist.hi, 200)
        for omega in (0, 1):
            assert_allclose(dist.cdf(omega, ys) + dist.sf(omega, ys), 1.0, atol=1e-12)


class TestBeliefUpdates:
    def test_invest_update(self, dist_u58):
        assert_allclose(update_on_invest(1.0, dist_u58, 0.4), 1.5, rtol=1e-12)
        assert_allclose(update_on_invest(2.0, dist_u58, 0.2), 2.0, rtol=1e-12)

    def test_decline_update(self, dist_u58):
        assert_allclose(update_on_decline(1.0, dist_u58, 0.4), 0.2 / (0.28 / 0.6), rtol=1e-12)
        assert_allclose(update_on_decline(2.0, dist_u58, 0.8), 2.0, rtol=1e-12)

    def test_private_likelihood(self):
        assert private_likelihood(2.0, 0.8) == pytest.approx(8.0)
        assert private_likelihood(1.0, 0.5) == pytest.approx(1.0)
        with pytest.raises(DomainError):
            private_likelihood(1.0, 1.0)
        with pytest.raises(DomainError):
            private_likelihood(1.0, 0.0)
        with pytest.raises(DomainError):
            private_likelihood(-1.0, 0.5)

    def test_updates_multiply_to_prior_mean(self, dist_u58):
        # E over actions of the posterior given world w reproduces the
        # conditional action split: sanity identity
        # sf_w * lr_upper-part + cdf_w * lr_lower-part telescopes.
        L, x = 1.7, 0.45
        up = update_on_invest(L, dist_u58, x)
        dn = update_on_decline(L, dist_u58, x)
        lam = L / (1 + L)
        p_invest = lam * dist_u58.sf(1, x) + (1 - lam) * dist_u58.sf(0, x)
        p_decline = 1 - p_invest
        post_mean = p_invest * up / (1 + up) + p_decline * dn / (1 + dn)
        assert_allclose(post_mean, lam, rtol=1e-12)
