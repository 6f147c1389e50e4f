"""Tests for the finite-support per-pixel noise models."""

import math

import numpy as np
import pytest

from critprob.distributions import (
    EPSILON_FLOOR,
    EPSILON_RANGE_FACTOR,
    FiniteDistribution,
    GaussianSampler,
    Support,
    default_epsilon,
    degenerate_width,
    epanechnikov,
    histogram,
    histogram_edges,
    histogram_icdf,
    histogram_table,
    uniform,
)
from critprob.fields import (
    EnsembleStack,
    ModelSpec,
    UncertainField,
    epanechnikov_from_samples,
    histogram_from_samples,
    uniform_from_samples,
)


def bisect_icdf(dist: FiniteDistribution, q: float) -> float:
    """Independent inverse-CDF oracle: bisection on the CDF to 1e-12."""
    lo, hi = dist.support.lo, dist.support.hi
    tol = 1e-12 * (hi - lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if dist.cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ks_distance(draws: np.ndarray, dist: FiniteDistribution) -> float:
    """Kolmogorov-Smirnov distance between draws and the model CDF."""
    x = np.sort(draws)
    n = x.size
    f = dist.cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def pdf_integral(dist: FiniteDistribution, power: int = 0, about: float = 0.0) -> float:
    """Integral of (x - about)**power * pdf(x) over the support.

    8-node Gauss-Legendre on each ``histogram_edges`` piece of the
    support (one piece unless a histogram), exact for the density times
    a polynomial of degree up to 13.
    """
    lo, hi = dist.support.lo, dist.support.hi
    h = dist.bin_weights.size if dist.kind == "histogram" else 1
    edges = histogram_edges(lo, (hi - lo) / h, h)
    xi, w = np.polynomial.legendre.leggauss(8)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        x = 0.5 * (a + b) + 0.5 * (b - a) * xi
        total += 0.5 * (b - a) * float(np.dot(w, dist.pdf(x) * (x - about) ** power))
    return total


def random_distributions(count: int, seed: int) -> list[FiniteDistribution]:
    rng = np.random.default_rng(seed)
    out: list[FiniteDistribution] = []
    for i in range(count):
        lo = float(rng.uniform(-10.0, 10.0))
        width = float(rng.uniform(1e-6, 20.0))
        kind = i % 3
        if kind == 0:
            out.append(uniform(lo, lo + width))
        elif kind == 1:
            out.append(epanechnikov(lo, 0.5 * width))
        else:
            h = int(rng.integers(1, 9))
            out.append(histogram(lo, lo + width, rng.uniform(0.0, 1.0, h) + 1e-3))
    return out


class TestSupport:
    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            Support(1.0, 1.0)
        with pytest.raises(ValueError):
            Support(2.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Support(0.0, math.inf)

    def test_width(self):
        assert Support(1.0, 3.5).width == 2.5

    def test_default_epsilon_scales_with_range(self):
        assert default_epsilon([5.0]) == EPSILON_FLOOR
        assert default_epsilon([0.0, 1000.0]) == pytest.approx(
            EPSILON_RANGE_FACTOR * 1000.0
        )


class TestConstructors:
    def test_uniform_from_samples_range(self):
        d = uniform_from_samples([0.0, 1.0, 2.0])
        assert d.kind == "uniform"
        assert (d.support.lo, d.support.hi) == (0.0, 2.0)
        assert d.pdf(1.0) == pytest.approx(0.5, abs=1e-14)

    def test_uniform_single_sample_widens(self):
        d = uniform_from_samples([5.0])
        assert d.support.lo < 5.0 < d.support.hi
        assert d.support.width == pytest.approx(EPSILON_FLOOR, rel=1e-9)
        assert 0.5 * (d.support.lo + d.support.hi) == pytest.approx(5.0)

    def test_uniform_support_contains_draws(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(0.0, 1.0, 50)
        d = uniform_from_samples(samples)
        assert d.support.lo >= 0.0 and d.support.hi <= 1.0
        assert pdf_integral(d) == pytest.approx(1.0, abs=1e-10)

    def test_empty_samples_error(self):
        for ctor in (
            uniform_from_samples,
            lambda s: epanechnikov_from_samples(s),
            lambda s: histogram_from_samples(s, 4),
        ):
            with pytest.raises(ValueError):
                ctor([])

    def test_non_finite_samples_error(self):
        with pytest.raises(ValueError):
            uniform_from_samples([0.0, math.nan])

    def test_epanechnikov_peak_value(self):
        d = epanechnikov_from_samples([0.0, 1.0, 2.0, 3.0])
        lo, hi = d.support.lo, d.support.hi
        m = 0.5 * (lo + hi)
        assert d.pdf(m) == pytest.approx(3.0 / (2.0 * (hi - lo)), abs=1e-12)

    def test_epanechnikov_center_cdf(self):
        d = epanechnikov(1.0, 1.0)
        assert d.cdf(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_epanechnikov_quarter_point_cdf(self):
        # support [0, 2]: exact CDF value at 0.5
        d = epanechnikov(1.0, 1.0)
        assert d.cdf(0.5) == pytest.approx(0.15625, abs=1e-12)

    def test_epanechnikov_variance_matching(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(2.0, 0.7, 400)
        d = epanechnikov_from_samples(samples)
        halfwidth = 0.5 * d.support.width
        assert halfwidth == pytest.approx(
            math.sqrt(5.0) * samples.std(ddof=1), rel=1e-12
        )
        # distribution variance w^2 / 5 equals the sample variance
        m = 0.5 * (d.support.lo + d.support.hi)
        moment = pdf_integral(d, 2, m)
        assert moment == pytest.approx(samples.var(ddof=1), rel=1e-10)

    def test_epanechnikov_needs_two_samples(self):
        with pytest.raises(ValueError):
            epanechnikov_from_samples([1.0])

    def test_epanechnikov_zero_spread_widens(self):
        d = epanechnikov_from_samples([2.0, 2.0, 2.0])
        assert d.support.width > 0.0
        assert 0.5 * (d.support.lo + d.support.hi) == pytest.approx(2.0)

    @pytest.mark.parametrize("value", [0.1, 0.7, 1.0 / 3.0, 2.2])
    def test_epanechnikov_constant_samples_take_the_floor(self, value):
        # the std of a constant float64 set rounds to 0 or to a few ulps
        # depending on the count; either way the width is the floor
        floor = degenerate_width(value, default_epsilon([value]))
        for n in range(2, 51):
            d = epanechnikov_from_samples([value] * n)
            assert abs(d.support.width - floor) <= 4 * np.spacing(value), n

    def test_epanechnikov_k_must_be_positive(self):
        with pytest.raises(ValueError):
            epanechnikov_from_samples([0.0, 1.0], k=0.0)

    def test_histogram_two_bins(self):
        d = histogram_from_samples([0.0, 1.0, 2.0, 3.0], 2)
        assert d.kind == "histogram"
        assert (d.support.lo, d.support.hi) == (0.0, 3.0)
        assert d.bin_weights == pytest.approx([0.5, 0.5], abs=0.0)

    def test_histogram_top_edge_in_last_bin(self):
        d = histogram_from_samples([0.0, 0.1, 4.0, 4.0], 4)
        assert d.bin_weights == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=0.0)

    def test_histogram_one_bin_equals_uniform(self):
        samples = [0.3, 0.9, 2.4, 1.1]
        h = histogram_from_samples(samples, 1)
        u = uniform_from_samples(samples)
        assert (h.support.lo, h.support.hi) == (u.support.lo, u.support.hi)
        xs = np.linspace(0.3, 2.4, 13)
        assert h.pdf(xs) == pytest.approx(u.pdf(xs), abs=1e-14)
        assert h.cdf(xs) == pytest.approx(u.cdf(xs), abs=1e-14)

    def test_histogram_all_equal_samples(self):
        # equal weights over the bins of the widened range, as a field pixel has
        d = histogram_from_samples([7.0, 7.0], 3)
        assert np.array_equal(d.bin_weights, np.full(3, 1.0 / 3.0))
        half = 0.5 * degenerate_width(7.0, EPSILON_FLOOR)
        lo, hi = d.support.lo, d.support.hi
        assert (lo, hi) == (7.0 - half, 7.0 + half)
        # the bin edges are found in the frame centered on the support, so
        # they keep their precision though ulps of 7 are 1/1126 of the width
        xs = np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 13)
        tol = 4 * np.spacing(1.0)
        assert d.cdf(xs) == pytest.approx(uniform(lo, hi).cdf(xs), abs=tol)

    @pytest.mark.parametrize("value", [1.0, -1.0, 1e4, -1e4, 1e8, -1e8])
    def test_constant_samples_widen_like_field_fit(self, value):
        # eps alone (1e-12) is below ulp(1e4), so these fits used to
        # collapse to zero width; they must widen as from_ensemble does
        samples = [value] * 5
        stack = EnsembleStack(np.full((5, 3, 3), value))
        fits = {
            "uniform": uniform_from_samples(samples),
            "epanechnikov": epanechnikov_from_samples(samples),
            "histogram": histogram_from_samples(samples, 5),
        }
        for kind, d in fits.items():
            field = UncertainField.from_ensemble(stack, ModelSpec(kind=kind, bins=5))
            ref = field.dist_at(1, 1).support
            assert (d.support.lo, d.support.hi) == (ref.lo, ref.hi)
            assert d.support.lo < value < d.support.hi

    def test_histogram_zero_bins_error(self):
        with pytest.raises(ValueError):
            histogram_from_samples([0.0, 1.0], 0)

    def test_histogram_weight_validation(self):
        with pytest.raises(ValueError):
            histogram(0.0, 1.0, [0.5, -0.1])
        with pytest.raises(ValueError):
            histogram(0.0, 1.0, [0.0, 0.0])
        with pytest.raises(ValueError):
            histogram(0.0, 1.0, [])

    def test_histogram_weights_normalized(self):
        d = histogram(0.0, 1.0, [2.0, 6.0])
        assert d.bin_weights == pytest.approx([0.25, 0.75], abs=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FiniteDistribution("triangular", Support(0.0, 1.0))

    def test_non_histogram_rejects_weights(self):
        with pytest.raises(ValueError):
            FiniteDistribution("uniform", Support(0.0, 1.0), [1.0])


class TestCdfSurvival:
    def test_uniform_midpoint(self):
        assert uniform(0.0, 2.0).cdf(1.0) == pytest.approx(0.5, abs=1e-14)

    def test_survival_below_support(self):
        for d in (uniform(0.0, 1.0), epanechnikov(0.5, 0.5), histogram(0.0, 1.0, [1.0, 1.0])):
            assert d.survival(-1.0) == 1.0
            assert d.survival(2.0) == pytest.approx(0.0, abs=1e-12)

    def test_histogram_half_mass(self):
        d = histogram(0.0, 2.0, [0.5, 0.5])
        assert d.cdf(1.0) == pytest.approx(0.5, abs=1e-14)

    def test_random_models_normalized_monotone(self):
        rng = np.random.default_rng(31)
        for d in random_distributions(1000, seed=8):
            lo, hi = d.support.lo, d.support.hi
            assert pdf_integral(d) == pytest.approx(1.0, abs=1e-10)
            assert abs(d.cdf(lo)) <= 1e-10
            assert d.cdf(hi) == pytest.approx(1.0, abs=1e-10)
            xs = np.sort(rng.uniform(lo - 0.1, hi + 0.1, 40))
            fs = d.cdf(xs)
            assert np.all(np.diff(fs) >= -1e-12)

    def test_pointwise_conventions(self):
        # closed support, tails exactly 0 and 1, and a histogram bin that
        # holds its lower edge (the last bin the top as well)
        dists = (
            uniform(0.0, 2.0),
            epanechnikov(1.0, 1.0),
            histogram(0.0, 2.0, [0.25, 0.75]),
            histogram(0.0, 2.0, [0.3, 0.0]),
        )
        for d in dists:
            assert d.pdf(-1e-9) == 0.0 and d.pdf(2.0 + 1e-9) == 0.0
            assert d.cdf(-1e-9) == 0.0 and d.cdf(2.0 + 1e-9) == 1.0
            assert d.cdf(-5.0) == 0.0 and d.cdf(5.0) == 1.0
            assert isinstance(d.pdf(0.5), float) and isinstance(d.cdf(0.5), float)
            assert d.pdf(np.zeros((2, 3))).shape == (2, 3)
            assert d.cdf(np.zeros((2, 3))).shape == (2, 3)
        assert uniform(0.0, 2.0).pdf(0.0) == 0.5 and uniform(0.0, 2.0).pdf(2.0) == 0.5
        hist = dists[2]
        assert hist.pdf(0.0) == 0.25
        assert hist.pdf(1.0) == 0.75 and hist.pdf(np.nextafter(1.0, 0.0)) == 0.25
        assert hist.pdf(2.0) == 0.75
        assert hist.cdf(1.0) == pytest.approx(0.25, abs=1e-15)

    def test_survival_plus_cdf_is_one_exactly(self):
        rng = np.random.default_rng(17)
        for d in random_distributions(30, seed=9):
            lo, hi = d.support.lo, d.support.hi
            xs = rng.uniform(lo - 1.0, hi + 1.0, 100)
            assert np.all(d.survival(xs) + d.cdf(xs) == 1.0)

    def test_pdf_nonnegative(self):
        for d in random_distributions(60, seed=10):
            xs = np.linspace(d.support.lo, d.support.hi, 200)
            assert np.all(d.pdf(xs) >= -1e-12)


class TestNegateAffine:
    def test_negate_uniform(self):
        d = uniform(0.0, 1.0).negate()
        assert (d.support.lo, d.support.hi) == (-1.0, 0.0)
        assert d.kind == "uniform"

    def test_negate_involution(self):
        for d in random_distributions(60, seed=12):
            dd = d.negate().negate()
            assert dd.support.lo == pytest.approx(d.support.lo, abs=1e-12)
            assert dd.support.hi == pytest.approx(d.support.hi, abs=1e-12)
            if d.kind == "histogram":
                h = d.bin_weights.size
                edges = histogram_edges(d.support.lo, d.support.width / h, h)
                again = histogram_edges(dd.support.lo, dd.support.width / h, h)
                assert again == pytest.approx(edges, abs=1e-12)
                assert dd.bin_weights == pytest.approx(d.bin_weights, abs=1e-15)
            xs = np.linspace(d.support.lo, d.support.hi, 17)
            assert dd.pdf(xs) == pytest.approx(d.pdf(xs), abs=1e-12)

    def test_negate_epanechnikov_mean(self):
        d = epanechnikov(1.0, 1.0).negate()
        assert 0.5 * (d.support.lo + d.support.hi) == pytest.approx(-1.0, abs=0.0)

    def test_negate_mirrors_cdf(self):
        for d in random_distributions(30, seed=13):
            nd = d.negate()
            xs = np.linspace(d.support.lo, d.support.hi, 25)
            assert nd.cdf(-xs) == pytest.approx(d.survival(xs), abs=1e-12)

    def test_negate_histogram_reverses_weights(self):
        d = histogram(0.0, 3.0, [0.6, 0.3, 0.1]).negate()
        assert d.bin_weights == pytest.approx([0.1, 0.3, 0.6], abs=1e-15)

    def test_affine_shifts_and_scales(self):
        d = epanechnikov(1.0, 0.5).affine(2.0, 3.0)
        assert (d.support.lo, d.support.hi) == (4.0, 6.0)
        assert pdf_integral(d) == pytest.approx(1.0, abs=1e-12)

    def test_affine_requires_positive_scale(self):
        with pytest.raises(ValueError):
            uniform(0.0, 1.0).affine(-1.0, 0.0)

    def test_affine_cdf_transport(self):
        for d in random_distributions(30, seed=14):
            a, b = 2.5, -1.25
            da = d.affine(a, b)
            xs = np.linspace(d.support.lo, d.support.hi, 21)
            assert da.cdf(a * xs + b) == pytest.approx(d.cdf(xs), abs=1e-9)


class TestSampling:
    def test_uniform_quantile(self):
        assert uniform(0.0, 2.0).sample_u01(0.25) == 0.5

    def test_boundary_draws(self):
        for d in random_distributions(30, seed=15):
            assert d.sample_u01(0.0) == pytest.approx(d.support.lo, abs=1e-12)
            assert d.sample_u01(1.0) == pytest.approx(d.support.hi, abs=1e-12)

    def test_epanechnikov_median(self):
        assert epanechnikov(1.0, 1.0).sample_u01(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_u_out_of_range_error(self):
        d = uniform(0.0, 1.0)
        with pytest.raises(ValueError):
            d.sample_u01(-0.01)
        with pytest.raises(ValueError):
            d.sample_u01(1.01)

    def test_nan_u_rejected(self):
        with pytest.raises(ValueError):
            uniform(0.0, 1.0).sample_u01(math.nan)

    def test_nan_u_in_array_rejected(self):
        with pytest.raises(ValueError):
            histogram(0.0, 1.0, [1.0, 2.0]).sample_u01([math.nan, 0.5])

    def test_monotone_in_u(self):
        us = np.linspace(0.0, 1.0, 101)
        for d in random_distributions(30, seed=16):
            xs = d.sample_u01(us)
            assert np.all(np.diff(xs) >= 0.0)
            assert np.all((xs >= d.support.lo - 1e-12) & (xs <= d.support.hi + 1e-12))

    def test_epanechnikov_matches_bisection_oracle(self):
        rng = np.random.default_rng(18)
        for trial in range(10):
            m = float(rng.uniform(-5.0, 5.0))
            w = float(rng.uniform(0.1, 3.0))
            d = epanechnikov(m, w)
            for q in np.linspace(0.001, 0.999, 23):
                assert d.sample_u01(float(q)) == pytest.approx(
                    bisect_icdf(d, float(q)), abs=1e-9 * w
                )

    def test_histogram_matches_bisection_oracle(self):
        d = histogram(0.0, 4.0, [0.1, 0.4, 0.2, 0.3])
        for q in np.linspace(0.01, 0.99, 33):
            assert d.sample_u01(float(q)) == pytest.approx(
                bisect_icdf(d, float(q)), abs=1e-8
            )

    def test_histogram_zero_weight_bin_round_trip(self):
        # the inverse is set-valued across an empty bin; any selection must
        # still invert the CDF
        d = histogram(0.0, 4.0, [0.1, 0.4, 0.0, 0.5])
        for q in np.linspace(0.0, 1.0, 41):
            x = d.sample_u01(float(q))
            assert d.cdf(x) == pytest.approx(q, abs=1e-12)
            assert 0.0 <= x <= 4.0

    def test_inverse_cdf_round_trip(self):
        us = np.linspace(0.0, 1.0, 41)
        for d in random_distributions(60, seed=19):
            qs = d.cdf(d.sample_u01(us))
            assert qs == pytest.approx(us, abs=1e-9)

    def test_ks_distance_of_draw_block(self):
        rng = np.random.default_rng(20)
        for d in (
            uniform(-2.0, 3.0),
            epanechnikov(0.5, 1.5),
            histogram(0.0, 1.0, [0.2, 0.05, 0.5, 0.25]),
        ):
            draws = d.sample_u01(rng.uniform(0.0, 1.0, 10**5))
            assert ks_distance(draws, d) <= 0.01

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_histogram_icdf_lands_on_bin_edges(self, offset):
        # At each nonzero-mass bin's table CDF value the inverse CDF gives
        # that bin's left edge bit for bit, and the density changes bins
        # exactly there: every bin edge follows the one rule.
        rng = np.random.default_rng(int(offset) % 1000 + 31)
        checked = 0
        for h in range(1, 10):
            rows = 40
            lo = offset + rng.uniform(-1.0, 1.0, rows)
            hi = lo + rng.choice([1e-3, 0.3, 7.0], rows) * rng.uniform(0.5, 1.0, rows)
            weights = rng.uniform(0.05, 1.0, (rows, h))
            weights[rng.uniform(size=(rows, h)) < 0.3] = 0.0
            weights[np.arange(rows), rng.integers(0, h, rows)] = 1.0
            weights /= weights.sum(axis=1, keepdims=True)
            table = histogram_table(lo, hi, weights)
            t_lo, binw, mass, cdf = table
            edges = histogram_edges(t_lo, binw, h)
            # the CDF at every bin's lower edge, one bin per column
            u = cdf[:, 1:-1].copy()
            x = histogram_icdf(*table, u, np.empty_like(u))
            filled = mass[:, 1:-1] > 0.0
            assert np.array_equal(x[filled], edges[:, :-1][filled])
            checked += np.count_nonzero(filled)
            for r in range(0, rows, 7):
                d = histogram(lo[r], hi[r], weights[r])
                density = d.bin_weights / binw[r, 0]
                assert np.array_equal(d.pdf(edges[r, :-1]), density)
                below = np.nextafter(edges[r, 1:], -np.inf)
                assert np.array_equal(d.pdf(below), density)
        assert checked > 1000

    def test_one_uniform_plane_per_draw(self):
        assert uniform(0.0, 1.0).u01_planes == 1


class TestGaussianSampler:
    def test_plane_count(self):
        assert GaussianSampler(0.0, 1.0).u01_planes == 2

    def test_negative_stddev_rejected(self):
        with pytest.raises(ValueError):
            GaussianSampler(0.0, -1.0)

    def test_negate_and_affine(self):
        g = GaussianSampler(2.0, 3.0)
        assert g.negate() == GaussianSampler(-2.0, 3.0)
        assert g.affine(2.0, 1.0) == GaussianSampler(5.0, 6.0)
        with pytest.raises(ValueError):
            g.affine(0.0, 0.0)

    def test_sample_moments(self):
        rng = np.random.default_rng(21)
        g = GaussianSampler(1.5, 0.8)
        u = rng.uniform(0.0, 1.0, (2, 10**5))
        z = g.sample_u01(u)
        assert z.mean() == pytest.approx(1.5, abs=0.02)
        assert z.std() == pytest.approx(0.8, abs=0.02)

    def test_needs_two_planes(self):
        g = GaussianSampler(0.0, 1.0)
        with pytest.raises(ValueError):
            g.sample_u01(np.zeros((3, 5)))

    def test_needs_a_plane_axis(self):
        with pytest.raises(ValueError):
            GaussianSampler(0.0, 1.0).sample_u01(np.zeros(5))

    def test_draws_must_lie_below_one(self):
        # u1 = 1 would give an infinite radius, log1p(-1)
        with pytest.raises(ValueError):
            GaussianSampler(0.0, 1.0).sample_u01([[0.5, 1.0], [0.2, 0.3]])
        with pytest.raises(ValueError):
            GaussianSampler(0.0, 1.0).sample_u01([[0.5, -0.1], [0.2, 0.3]])

    def test_nan_draws_rejected(self):
        with pytest.raises(ValueError):
            GaussianSampler(0.0, 1.0).sample_u01([[math.nan], [0.5]])
