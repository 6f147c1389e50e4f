"""Piecewise-polynomial behavior of the distributions and the closed form.

Densities and CDFs are polynomials between kinks; these tests pin their
pointwise conventions at and beyond the kinks, the Gauss-Legendre tables
that integrate their products, and the range and stability of those
products' integrals.
"""

import numpy as np
import pytest

from critprob import engine
from critprob.distributions import epanechnikov, histogram, uniform
from critprob.engine import NeighborhoodCase, closed_form_triple
from rational_oracle import exact_triple

# 8 ulps of 1, as in the rational-oracle tests
BOUND = 8 * np.finfo(float).eps


def exact_spec(d):
    return (d.kind, d.support.lo, d.support.hi)


class TestEval:
    def test_epanechnikov_pdf_peak(self):
        # peak value 3 / (2 (b - a)) at the mean
        d = epanechnikov(1.0, 1.0)
        assert d.pdf(1.0) == pytest.approx(0.75, abs=1e-12)

    def test_out_of_range_tail_values(self):
        d = uniform(0.0, 1.0)
        assert d.pdf(-0.1) == 0.0 and d.pdf(1.1) == 0.0
        assert d.cdf(-0.1) == 0.0 and d.cdf(1.1) == 1.0
        assert d.survival(-0.1) == 1.0 and d.survival(1.1) == 0.0
        assert d.pdf(0.0) == 1.0 and d.pdf(1.0) == 1.0

    def test_interior_breakpoint_uses_right_piece(self):
        d = histogram(0.0, 2.0, [0.2, 0.8])
        assert d.pdf(1.0) == 0.8
        assert d.pdf(2.0) == 0.8


class TestIntegrate:
    def test_monomials_exact_through_max_degree(self):
        # n nodes mapped onto [lo, hi] are exact for degree 2n - 1
        lo, hi = 0.7, 2.3
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for n, (xi, w) in engine._GAUSS_LEGENDRE.items():
            x = mid + half * xi
            for k in range(2 * n):
                exact = ((hi - mid) ** (k + 1) - (lo - mid) ** (k + 1)) / (k + 1)
                got = half * np.dot(w, (x - mid) ** k)
                assert got == pytest.approx(exact, rel=1e-13, abs=1e-15)

    def test_node_count_limits(self):
        # 3 nodes cover a degree-4 product, 8 a degree-14 one
        assert sorted(engine._GAUSS_LEGENDRE) == [3, 8]
        for n, (xi, w) in engine._GAUSS_LEGENDRE.items():
            assert len(xi) == len(w) == n
            assert w.sum() == pytest.approx(2.0, abs=1e-14)
            assert np.all(np.diff(xi) > 0) and -1.0 < xi[0] and xi[-1] < 1.0


class TestRefineAndMultiply:
    def test_probability_product_integral_in_unit_range(self):
        rng = np.random.default_rng(23)
        for trial in range(30):
            center = uniform(*np.sort(rng.uniform(0.0, 1.0, 2) * [1.0, 1.0] + [0.0, 1.0]))
            nbrs = []
            for _ in range(4):
                lo = float(rng.uniform(-0.5, 0.5))
                hi = lo + float(rng.uniform(0.1, 1.5))
                d = epanechnikov(0.5 * (lo + hi), 0.5 * (hi - lo)) if rng.random() < 0.5 else uniform(lo, hi)
                nbrs.append(d)
            got = closed_form_triple(NeighborhoodCase(center, nbrs))
            want = exact_triple(exact_spec(center), [exact_spec(d) for d in nbrs])
            for p, q in zip(got, want):
                assert 0.0 <= p <= 1.0
                assert abs(p - q) <= BOUND


class TestStability:
    def test_far_from_origin_product(self):
        # narrow supports at large abscissae: the degree-14 product
        # integral matches the same stencil at the origin
        def triple(shift):
            center = epanechnikov(shift + 0.5, 0.5)
            nbrs = [epanechnikov(shift + 0.4 + 0.05 * k, 0.5) for k in range(4)]
            case = NeighborhoodCase(center, nbrs)
            got = closed_form_triple(case)
            want = exact_triple(exact_spec(center), [exact_spec(d) for d in nbrs])
            for p, q in zip(got, want):
                assert abs(p - q) <= BOUND
            return got

        far, base = triple(1e6), triple(0.0)
        assert list(far) == pytest.approx(list(base), abs=1e-9)
