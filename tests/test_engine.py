"""Tests for the critical-point probability engine."""

import itertools
import math
import multiprocessing.process
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critprob.distributions import (
    GaussianSampler,
    epanechnikov,
    histogram,
    histogram_cdf_values,
    histogram_edges,
    histogram_icdf,
    histogram_table,
    uniform,
)
from critprob import engine
from critprob.engine import (
    CHANNELS,
    COMBINATORIAL_MAX_BINS,
    EstimatorSpec,
    NeighborhoodCase,
    PATTERNS,
    ProbabilityTriple,
    case_at,
    classify_field,
    closed_form_triple,
    closed_pattern_prob,
    combinatorial_triple,
    histogram_min_prob_combinatorial,
    local_max_prob,
    local_min_prob,
    mc_all_patterns,
    pixel_index,
    saddle_prob,
    semianalytical_prob,
)
from critprob.fields import EnsembleStack, ModelSpec, UncertainField
from critprob.rngstream import unit_block
from critprob.synth import ackley_ensemble, random_case


def iid_case(dist_factory, count: int) -> NeighborhoodCase:
    return NeighborhoodCase(dist_factory(), tuple(dist_factory() for _ in range(count)))


def oracle_draws(rng, spec, n):
    """Independent sampler used as the brute-force oracle.

    ``spec`` is (kind, params); uses rejection sampling for the quadratic
    bump and bin choice + in-bin uniform for histograms, with none of the
    package's inverse-CDF code.
    """
    kind, params = spec
    if kind == "uniform":
        lo, hi = params
        return rng.uniform(lo, hi, n)
    if kind == "epanechnikov":
        m, w = params
        out = np.empty(n)
        filled = 0
        peak = 0.75 / w
        while filled < n:
            k = int((n - filled) * 1.8) + 16
            x = rng.uniform(m - w, m + w, k)
            t = (x - m) / w
            keep = x[rng.uniform(0.0, peak, k) < peak * (1.0 - t * t)]
            take = min(keep.size, n - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
        return out
    lo, hi, weights = params
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    binw = (hi - lo) / w.size
    j = rng.choice(w.size, size=n, p=w)
    return lo + binw * (j + rng.uniform(0.0, 1.0, n))


def oracle_fractions(rng, specs, n):
    """Pattern fractions of n independent joint draws (4-neighborhood)."""
    c, e, nn, w, s = (oracle_draws(rng, sp, n) for sp in specs)
    p_min = float(np.mean((c < e) & (c < nn) & (c < w) & (c < s)))
    p_max = float(np.mean((c > e) & (c > nn) & (c > w) & (c > s)))
    t1 = (c < e) & (c > nn) & (c < w) & (c > s)
    t2 = (c > e) & (c < nn) & (c > w) & (c < s)
    p_saddle = float(np.mean(t1 | t2))
    return p_min, p_max, p_saddle


class TestSymmetry:
    def test_five_iid_uniform(self):
        case = iid_case(lambda: uniform(0.0, 1.0), 4)
        assert local_min_prob(case) == pytest.approx(0.2, abs=1e-12)
        assert local_max_prob(case) == pytest.approx(0.2, abs=1e-12)
        assert saddle_prob(case) == pytest.approx(1.0 / 15.0, abs=1e-12)

    def test_three_iid_uniform(self):
        case = iid_case(lambda: uniform(0.0, 1.0), 2)
        assert local_min_prob(case) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert local_max_prob(case) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert saddle_prob(case) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_five_iid_epanechnikov(self):
        case = iid_case(lambda: epanechnikov(2.0, 0.7), 4)
        assert local_min_prob(case) == pytest.approx(0.2, abs=1e-12)
        assert saddle_prob(case) == pytest.approx(1.0 / 15.0, abs=1e-12)

    def test_five_iid_histogram(self):
        case = iid_case(lambda: histogram(0.0, 1.0, [0.2, 0.5, 0.3]), 4)
        assert local_min_prob(case) == pytest.approx(0.2, abs=1e-12)
        assert local_max_prob(case) == pytest.approx(0.2, abs=1e-12)
        assert saddle_prob(case) == pytest.approx(1.0 / 15.0, abs=1e-12)

    def test_three_iid_mixed_kinds_sum_to_one(self):
        case = iid_case(lambda: epanechnikov(0.0, 1.0), 2)
        assert closed_form_triple(case).total == pytest.approx(1.0, abs=1e-12)


class TestDisjointSupports:
    def test_certain_minimum(self):
        case = NeighborhoodCase(
            uniform(0.0, 1.0), tuple(uniform(2.0, 3.0) for _ in range(4))
        )
        assert local_min_prob(case) == 1.0
        assert local_max_prob(case) == 0.0
        assert saddle_prob(case) == 0.0

    def test_impossible_minimum(self):
        case = NeighborhoodCase(
            uniform(2.0, 3.0),
            (uniform(0.0, 1.0), uniform(2.0, 3.0), uniform(2.0, 3.0), uniform(2.0, 3.0)),
        )
        assert local_min_prob(case) == 0.0

    def test_certain_maximum(self):
        case = NeighborhoodCase(
            uniform(2.0, 3.0), tuple(uniform(0.0, 1.0) for _ in range(4))
        )
        assert local_max_prob(case) == 1.0

    def test_certain_saddle(self):
        case = NeighborhoodCase(
            uniform(1.0, 2.0),
            (uniform(3.0, 4.0), uniform(-1.0, 0.0), uniform(3.0, 4.0), uniform(-1.0, 0.0)),
        )
        assert saddle_prob(case) == pytest.approx(1.0, abs=1e-12)
        assert local_min_prob(case) == 0.0
        assert local_max_prob(case) == 0.0


class TestAgainstBruteForceOracle:
    def test_overlapping_uniform_case(self):
        specs = [
            ("uniform", (0.0, 2.0)),
            ("uniform", (1.0, 3.0)),
            ("uniform", (0.5, 2.5)),
            ("uniform", (1.5, 3.5)),
            ("uniform", (0.0, 2.0)),
        ]
        case = NeighborhoodCase(
            uniform(0.0, 2.0),
            (uniform(1.0, 3.0), uniform(0.5, 2.5), uniform(1.5, 3.5), uniform(0.0, 2.0)),
        )
        trip = closed_form_triple(case)
        # frozen closed-form values (regression pin)
        assert trip.p_min == pytest.approx(0.41865234375, abs=1e-12)
        assert trip.p_max == pytest.approx(0.008170572916666667, abs=1e-12)
        assert trip.p_saddle == pytest.approx(0.1377604166666667, abs=1e-12)
        n = 10**7
        rng = np.random.default_rng(20260815)
        got = oracle_fractions(rng, specs, n)
        for p, phat in zip(trip, got):
            se = max(np.sqrt(p * (1.0 - p) / n), 1e-12)
            assert abs(p - phat) <= 3.0 * se

    def test_overlapping_mixed_kind_case(self):
        specs = [
            ("epanechnikov", (1.0, 0.9)),
            ("histogram", (0.2, 2.2, [0.3, 0.5, 0.2])),
            ("uniform", (0.5, 2.5)),
            ("epanechnikov", (1.4, 1.0)),
            ("histogram", (-0.2, 1.8, [0.25, 0.25, 0.5])),
        ]
        case = NeighborhoodCase(
            epanechnikov(1.0, 0.9),
            (
                histogram(0.2, 2.2, [0.3, 0.5, 0.2]),
                uniform(0.5, 2.5),
                epanechnikov(1.4, 1.0),
                histogram(-0.2, 1.8, [0.25, 0.25, 0.5]),
            ),
        )
        trip = closed_form_triple(case)
        assert trip.p_min == pytest.approx(0.2680767777717538, abs=1e-12)
        assert trip.p_max == pytest.approx(0.0594104715257872, abs=1e-12)
        assert trip.p_saddle == pytest.approx(0.06347446822834163, abs=1e-12)
        n = 10**7
        rng = np.random.default_rng(99)
        got = oracle_fractions(rng, specs, n)
        for p, phat in zip(trip, got):
            se = max(np.sqrt(p * (1.0 - p) / n), 1e-12)
            assert abs(p - phat) <= 3.0 * se


class TestStructuralProperties:
    def test_negation_duality_bit_identical(self):
        for i in range(15):
            model = ("uniform", "epanechnikov", "histogram")[i % 3]
            case = random_case(seed=100 + i, model=model)
            assert local_max_prob(case) == local_min_prob(case.negate())

    def test_saddle_negation_invariance(self):
        # histogram weights renormalize on each negation, so the match is
        # to rounding, not bitwise
        for i in range(15):
            model = ("uniform", "epanechnikov", "histogram")[i % 3]
            case = random_case(seed=200 + i, model=model)
            assert saddle_prob(case) == pytest.approx(
                saddle_prob(case.negate()), abs=1e-12
            )

    def test_min_max_neighbor_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for i in range(12):
            model = ("uniform", "epanechnikov", "histogram")[i % 3]
            case = random_case(seed=300 + i, model=model)
            base_min = local_min_prob(case)
            base_max = local_max_prob(case)
            perm = tuple(rng.permutation(4))
            shuffled = NeighborhoodCase(
                case.center, tuple(case.neighbors[j] for j in perm)
            )
            assert local_min_prob(shuffled) == pytest.approx(base_min, abs=1e-12)
            assert local_max_prob(shuffled) == pytest.approx(base_max, abs=1e-12)

    def test_saddle_axis_swaps(self):
        for i in range(12):
            model = ("uniform", "epanechnikov", "histogram")[i % 3]
            case = random_case(seed=400 + i, model=model)
            e, n, w, s = case.neighbors
            base = saddle_prob(case)
            assert saddle_prob(
                NeighborhoodCase(case.center, (w, n, e, s))
            ) == pytest.approx(base, abs=1e-12)
            assert saddle_prob(
                NeighborhoodCase(case.center, (e, s, w, n))
            ) == pytest.approx(base, abs=1e-12)

    def test_saddle_quarter_turn_relabel(self):
        # rotating the axis labels swaps the two alternating terms but
        # preserves their sum
        for i in range(12):
            model = ("uniform", "epanechnikov", "histogram")[i % 3]
            case = random_case(seed=500 + i, model=model)
            e, n, w, s = case.neighbors
            rotated = NeighborhoodCase(case.center, (n, w, s, e))
            assert saddle_prob(rotated) == pytest.approx(saddle_prob(case), abs=1e-12)

    def test_affine_invariance(self):
        for i in range(10):
            model = ("uniform", "epanechnikov", "histogram")[i % 3]
            case = random_case(seed=600 + i, model=model)
            base = closed_form_triple(case)
            for alpha, beta in ((1e-3, -10.0), (1e3, 10.0), (2.5, 0.0)):
                moved = closed_form_triple(case.affine(alpha, beta))
                for p, q in zip(base, moved):
                    assert abs(p - q) <= 1e-9

    def test_center_shift_monotonicity(self):
        for i in range(10):
            model = ("uniform", "epanechnikov", "histogram")[i % 3]
            case = random_case(seed=700 + i, model=model)
            last = local_min_prob(case)
            for beta in (0.05, 0.15, 0.4, 1.0):
                lifted = NeighborhoodCase(
                    case.center.affine(1.0, beta), case.neighbors
                )
                cur = local_min_prob(lifted)
                assert cur <= last + 1e-12
                last = cur

    def test_two_neighborhood_completeness(self):
        for i in range(60):
            model = ("uniform", "epanechnikov", "histogram")[i % 3]
            case = random_case(seed=800 + i, model=model, neighborhood=2)
            trip = closed_form_triple(case)
            assert trip.total == pytest.approx(1.0, abs=1e-9)

    def test_four_neighborhood_bounds(self):
        for i in range(60):
            model = ("uniform", "epanechnikov", "histogram")[i % 3]
            case = random_case(seed=900 + i, model=model)
            trip = closed_form_triple(case)
            assert trip.total <= 1.0 + 1e-9
            for p in trip:
                assert -1e-9 <= p <= 1.0 + 1e-9

    def test_wrong_neighbor_count(self):
        with pytest.raises(ValueError):
            NeighborhoodCase(uniform(0.0, 1.0), (uniform(0.0, 1.0),))
        with pytest.raises(ValueError):
            NeighborhoodCase(uniform(0.0, 1.0), tuple(uniform(0.0, 1.0) for _ in range(3)))

    def test_gaussian_center_has_no_closed_form(self):
        case = NeighborhoodCase(
            GaussianSampler(0.0, 1.0), tuple(uniform(0.0, 1.0) for _ in range(4))
        )
        with pytest.raises(TypeError):
            local_min_prob(case)

    def test_pattern_dispatch(self):
        case = random_case(seed=42, model="uniform")
        assert closed_pattern_prob(case, "min") == local_min_prob(case)
        assert closed_pattern_prob(case, "max") == local_max_prob(case)
        assert closed_pattern_prob(case, "saddle") == saddle_prob(case)
        with pytest.raises(ValueError):
            closed_pattern_prob(case, "ridge")

    def test_node_tables_are_exact_to_their_degree(self):
        # n Gauss-Legendre nodes integrate x^k over [-1, 1] exactly for
        # k < 2n: degree 5 for the 3-node table, 15 for the 8-node one
        for n, (xi, w) in engine._GAUSS_LEGENDRE.items():
            for k in range(2 * n):
                exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
                assert np.dot(w, xi**k) == pytest.approx(exact, abs=1e-14)
            assert abs(np.dot(w, xi ** (2 * n)) - 2.0 / (2 * n + 1)) > 1e-6

    def test_probability_triple_iter_total(self):
        trip = ProbabilityTriple(0.1, 0.2, 0.3)
        assert list(trip) == [0.1, 0.2, 0.3]
        assert trip.total == pytest.approx(0.6)


def pattern_stats(xs, patterns):
    """Reference counter: joint draws matching each pattern, along the last axis.

    ``xs`` holds draws for the center then its 2 or 4 neighbors (east,
    north, west, south).  Comparisons are strict, so ties count against
    every pattern.
    """
    c, nbrs = xs[0], xs[1:]
    below = [c < x for x in nbrs]
    above = [c > x for x in nbrs]
    # a saddle is below the first neighbor of each axis pair (east, west)
    # and above the second (north, south), or the reverse
    first = [below[i] if i % 2 == 0 else above[i] for i in range(len(nbrs))]
    second = [above[i] if i % 2 == 0 else below[i] for i in range(len(nbrs))]
    flags = {
        "min": np.logical_and.reduce(below),
        "max": np.logical_and.reduce(above),
        "saddle": np.logical_and.reduce(first) | np.logical_and.reduce(second),
    }
    return {p: np.count_nonzero(flags[p], axis=-1) for p in patterns}


def layout_draws(case, n, seed, pixel):
    """A case's joint draws, rebuilt as the stream layout defines them.

    Each distribution's ``sample_u01`` runs on its consecutive planes of
    the pixel's ``unit_block``.
    """
    dists = (case.center, *case.neighbors)
    u = unit_block(seed, np.array([pixel]), sum(d.u01_planes for d in dists), n)[0]
    xs, first = [], 0
    for d in dists:
        k = d.u01_planes
        xs.append(d.sample_u01(u[first] if k == 1 else u[first : first + k]))
        first += k
    return xs


def shared_draw_fractions(field, r, c, n, seed):
    """A grid pixel's Monte Carlo fractions, rebuilt from the field's draws.

    Each of the five stencil pixels p, p + 1, p - W, p - 1, p + W draws
    its own ``unit_block`` streams (two planes for a Gaussian) and
    transforms them with its own distribution; the pattern counts over
    those five rows are divided by n.
    """
    where = [(r, c), (r, c + 1), (r - 1, c), (r, c - 1), (r + 1, c)]
    dists = [field.dist_at(*rc) for rc in where]
    planes = dists[0].u01_planes
    pixels = np.array([pixel_index(field, *rc) for rc in where])
    u = unit_block(seed, pixels, planes, n)
    xs = [d.sample_u01(u[i, 0] if planes == 1 else u[i]) for i, d in enumerate(dists)]
    stats = pattern_stats(xs, PATTERNS)
    return {p: stats[p] / n for p in PATTERNS}


class TestMonteCarlo:
    def test_seed_determinism(self):
        case = random_case(seed=1, model="epanechnikov")
        a = mc_all_patterns(case, 5000, seed=3, pixel=9)
        b = mc_all_patterns(case, 5000, seed=3, pixel=9)
        assert a == b

    def test_seed_and_pixel_change_stream(self):
        case = random_case(seed=1, model="uniform")
        base = mc_all_patterns(case, 20000, seed=0, pixel=0).p_min
        assert mc_all_patterns(case, 20000, seed=1, pixel=0).p_min != base
        assert mc_all_patterns(case, 20000, seed=0, pixel=1).p_min != base

    def test_disjoint_min_is_exactly_one(self):
        case = NeighborhoodCase(
            uniform(0.0, 1.0), tuple(uniform(2.0, 3.0) for _ in range(4))
        )
        for n in (1, 10, 1000):
            assert mc_all_patterns(case, n).p_min == 1.0

    def test_five_iid_binomial_bound(self):
        case = iid_case(lambda: uniform(0.0, 1.0), 4)
        p = mc_all_patterns(case, 10**6, seed=0).p_min
        assert abs(p - 0.2) <= 0.0013  # 3 sigma for p = 0.2 at n = 1e6

    def test_all_patterns_consistent_with_single(self):
        # the reference counts one pattern at a time
        case = random_case(seed=5, model="histogram")
        trip = mc_all_patterns(case, 4000, seed=7, pixel=3)
        xs = layout_draws(case, 4000, seed=7, pixel=3)
        for pattern, p in zip(PATTERNS, trip):
            assert pattern_stats(xs, (pattern,))[pattern] / 4000 == p

    @pytest.mark.parametrize("n", [1, 333, 2 * engine.TILE_DRAWS + 7])
    def test_draws_follow_stream_layout(self, n):
        mixed = NeighborhoodCase(
            uniform(-0.2, 0.9),
            (
                epanechnikov(0.1, 0.8),
                histogram(-1.0, 1.0, [0.2, 0.0, 0.5, 0.3]),
                uniform(-0.5, 0.5),
                histogram(-0.4, 0.7, [1.0, 2.0]),
            ),
        )
        gauss = NeighborhoodCase(
            GaussianSampler(0.1, 0.5),
            (
                uniform(-0.5, 0.5),
                GaussianSampler(-0.2, 0.3),
                epanechnikov(0.0, 0.6),
                histogram(-0.6, 0.4, [0.3, 0.3, 0.4]),
            ),
        )
        two = NeighborhoodCase(
            histogram(0.0, 1.0, [0.5, 0.5]), (uniform(0.2, 1.1), epanechnikov(0.4, 0.5))
        )
        for case in (mixed, gauss, two):
            trip = mc_all_patterns(case, n, seed=4, pixel=31)
            stats = pattern_stats(layout_draws(case, n, seed=4, pixel=31), PATTERNS)
            assert list(trip) == [stats[p] / n for p in PATTERNS]

    @pytest.mark.parametrize("kind", ["uniform", "histogram"])
    def test_memory_is_bounded_by_the_tile(self, kind):
        # measured peaks 3.52 MiB (uniform) and 4.14 MiB (histogram); a
        # block that hashed in its own splitmix64 scratch peaked at 4.02
        # and 4.64, above the bounds
        bound_mib = {"uniform": 3.9, "histogram": 4.5}[kind]
        case = random_case(seed=8, model=kind)
        mc_all_patterns(case, 1000)  # first-call imports and caches
        tracemalloc.start()
        try:
            mc_all_patterns(case, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20

    def test_gaussian_case_runs(self):
        case = NeighborhoodCase(
            GaussianSampler(0.0, 1.0),
            tuple(GaussianSampler(0.0, 1.0) for _ in range(4)),
        )
        p = mc_all_patterns(case, 10**5, seed=0).p_min
        assert abs(p - 0.2) <= 0.006

    def test_two_neighborhood_mc_sums_to_one(self):
        case = random_case(seed=11, model="uniform", neighborhood=2)
        trip = mc_all_patterns(case, 50000, seed=0)
        assert trip.total == pytest.approx(1.0, abs=1e-12)

    def test_invalid_arguments(self):
        case = random_case(seed=1, model="uniform")
        with pytest.raises(ValueError):
            mc_all_patterns(case, 0)
        with pytest.raises(ValueError):
            mc_all_patterns(case, -5)


def mixed_bin_case(i: int) -> NeighborhoodCase:
    """A histogram case with a different bin count, 1 to 8, at each position.

    Some bins have zero weight; odd ``i`` give 2 neighbors, and
    i % 4 >= 2 puts the supports near 1e3.
    """
    k = 2 if i % 2 else 4
    offset = 1e3 if i % 4 >= 2 else 0.0
    rng = np.random.default_rng(1500 + i)
    dists = []
    for j in range(k + 1):
        bins = 1 + (i + 3 * j) % COMBINATORIAL_MAX_BINS
        weights = rng.uniform(0.1, 1.0, bins)
        if bins > 1:
            weights[(i + j) % bins] = 0.0
        if bins > 2:
            weights[(i + j + 2) % bins] = 0.0
        lo = offset + rng.uniform(-1.0, 1.0)
        dists.append(histogram(lo, lo + rng.uniform(0.3, 2.0), weights))
    return NeighborhoodCase(dists[0], tuple(dists[1:]))


def loop_combinatorial(case: NeighborhoodCase, pattern: str) -> float:
    """Reference: one bin combination and one polynomial piece at a time.

    Sorts the distinct cut points of each term in Python and multiplies
    the linear factors with ``np.convolve``, in the order of operations
    that the vectorized kernel keeps.
    """
    dists = (case.center, *case.neighbors)
    grids = []
    for d in dists:
        lo, hi, w = d.support.lo, d.support.hi, d.bin_weights
        grids.append((lo + (hi - lo) * np.arange(w.size + 1) / w.size, w))
    nbrs = list(range(1, len(dists)))
    first, second = nbrs[0::2], nbrs[1::2]
    terms = {"min": [(nbrs, [])], "max": [([], nbrs)], "saddle": [(first, second), (second, first)]}
    total = 0.0
    for combo in itertools.product(*(range(w.size) for _, w in grids)):
        wprod = math.prod(w[j] for (_, w), j in zip(grids, combo))
        if wprod == 0.0:
            continue
        iv = [(edges[j], edges[j + 1]) for (edges, _), j in zip(grids, combo)]
        (a1, b1), found = iv[0], []
        for above, below in terms[pattern]:
            lo = max([a1] + [iv[i][0] for i in below])
            hi = min([b1] + [iv[i][1] for i in above])
            cuts = {lo, hi} | {iv[i][0] for i in above} | {iv[i][1] for i in below}
            pts = sorted(x for x in cuts if lo <= x <= hi)
            term = 0.0
            for u, v in zip(pts, pts[1:]):
                c, h = 0.5 * (u + v), 0.5 * (v - u)
                coeffs = np.array([1.0 / (b1 - a1)])
                for i in above:
                    a, b = iv[i]
                    if c > a:
                        coeffs = np.convolve(coeffs, [(b - c) / (b - a), -1.0 / (b - a)])
                for i in below:
                    a, b = iv[i]
                    if c < b:
                        coeffs = np.convolve(coeffs, [(c - a) / (b - a), 1.0 / (b - a)])
                acc = 0.0
                for k in range(0, coeffs.size, 2):
                    acc += coeffs[k] * 2.0 * h ** (k + 1) / (k + 1)
                term += acc
            found.append(term)
        total += wprod * sum(found)
    return total


class TestCombinatorial:
    def test_single_bin_reduces_to_uniform(self):
        huni = NeighborhoodCase(
            histogram(0.0, 2.0, [1.0]),
            (
                histogram(1.0, 3.0, [1.0]),
                histogram(0.5, 2.5, [1.0]),
                histogram(1.5, 3.5, [1.0]),
                histogram(0.0, 2.0, [1.0]),
            ),
        )
        uni = NeighborhoodCase(
            uniform(0.0, 2.0),
            (uniform(1.0, 3.0), uniform(0.5, 2.5), uniform(1.5, 3.5), uniform(0.0, 2.0)),
        )
        assert histogram_min_prob_combinatorial(huni) == pytest.approx(
            local_min_prob(uni), abs=1e-12
        )

    def test_one_hot_weights_select_single_kernel(self):
        # weight 1 on the second of four bins over [0, 4] acts as U[1, 2]
        spike = histogram(0.0, 4.0, [0.0, 1.0, 0.0, 0.0])
        case = NeighborhoodCase(
            spike,
            (uniform(0.5, 3.0), uniform(1.2, 2.2), uniform(0.8, 2.8), uniform(1.5, 3.5)),
        )
        hcase = NeighborhoodCase(
            spike,
            tuple(
                histogram(d.support.lo, d.support.hi, [1.0]) for d in case.neighbors
            ),
        )
        bin_case = NeighborhoodCase(uniform(1.0, 2.0), case.neighbors)
        assert histogram_min_prob_combinatorial(hcase) == pytest.approx(
            local_min_prob(bin_case), abs=1e-12
        )

    def test_random_three_bin_case_matches_closed_form(self):
        for i in range(12):
            case = random_case(seed=1000 + i, model="histogram", bins=3)
            assert histogram_min_prob_combinatorial(case) == pytest.approx(
                local_min_prob(case), abs=1e-9
            )

    def test_triple_matches_closed_form(self):
        for i in range(6):
            case = random_case(seed=1100 + i, model="histogram", bins=4)
            comb = combinatorial_triple(case)
            closed = closed_form_triple(case)
            for a, b in zip(comb, closed):
                assert a == pytest.approx(b, abs=1e-9)

    def test_two_neighborhood_triple(self):
        case = random_case(seed=1200, model="histogram", bins=3, neighborhood=2)
        comb = combinatorial_triple(case)
        closed = closed_form_triple(case)
        for a, b in zip(comb, closed):
            assert a == pytest.approx(b, abs=1e-9)
        assert comb.total == pytest.approx(1.0, abs=1e-9)

    def test_triple_matches_closed_form_on_mixed_bins(self):
        for i in range(32):
            case = mixed_bin_case(i)
            sizes = {d.bin_weights.size for d in (case.center, *case.neighbors)}
            assert len(sizes) == len(case.neighbors) + 1
            comb = combinatorial_triple(case)
            for a, b in zip(comb, closed_form_triple(case)):
                assert a == pytest.approx(b, abs=1e-12)
            assert histogram_min_prob_combinatorial(case) == comb.p_min

    def test_kernel_matches_loop_reference(self):
        # The same operations in the same order; only a power of an array
        # may round apart from a power of a scalar (an ulp, on some
        # platforms), so the slack is a few ulps of 1.
        cases = [mixed_bin_case(i) for i in range(8)]
        cases += [random_case(seed=1600 + i, model="histogram", bins=3) for i in range(4)]
        for case in cases:
            for pattern, got in zip(PATTERNS, combinatorial_triple(case)):
                assert got == pytest.approx(loop_combinatorial(case, pattern), rel=0, abs=1e-15)
        field = small_field("histogram", seed=18, shape=(5, 6), bins=2)
        prob = classify_field(field, EstimatorSpec(method="combinatorial"), workers=2)
        for r, c in itertools.product(range(1, 4), range(1, 5)):
            for ch in CHANNELS:
                want = loop_combinatorial(case_at(field, r, c), ch)
                assert prob.channel(ch)[r, c] == pytest.approx(want, rel=0, abs=1e-15)

    def test_bin_count_guard(self):
        case = random_case(seed=1300, model="histogram", bins=COMBINATORIAL_MAX_BINS + 1)
        with pytest.raises(ValueError):
            histogram_min_prob_combinatorial(case)

    def test_non_histogram_rejected(self):
        case = random_case(seed=1400, model="uniform")
        with pytest.raises(ValueError):
            histogram_min_prob_combinatorial(case)


class TestSemianalytical:
    def test_single_bin_converges_to_uniform_closed_form(self):
        case = NeighborhoodCase(
            histogram(0.0, 2.0, [1.0]),
            (
                histogram(1.0, 3.0, [1.0]),
                histogram(0.5, 2.5, [1.0]),
                histogram(1.5, 3.5, [1.0]),
                histogram(0.0, 2.0, [1.0]),
            ),
        )
        closed = local_min_prob(case)
        est = semianalytical_prob(case, "min", c=10**4, seed=0)
        # per-draw values lie in [0, 1]: 3 sigma with the worst-case spread
        assert abs(est - closed) <= 3.0 * 0.5 / 100.0

    def test_seed_determinism(self):
        case = random_case(seed=2000, model="histogram")
        a = semianalytical_prob(case, "saddle", c=3000, seed=5, pixel=2)
        b = semianalytical_prob(case, "saddle", c=3000, seed=5, pixel=2)
        assert a == b
        assert semianalytical_prob(case, "saddle", c=3000, seed=6, pixel=2) != a

    def test_all_patterns_near_closed_form(self):
        for i in range(4):
            case = random_case(seed=2100 + i, model="histogram", bins=5)
            closed = closed_form_triple(case)
            for pattern, p in zip(PATTERNS, closed):
                est = semianalytical_prob(case, pattern, c=20000, seed=i)
                assert abs(est - p) <= 0.02

    def test_two_neighborhood_matches_hand_computation(self):
        case = random_case(seed=2400, model="histogram", neighborhood=2)
        c = 900
        x = case.center.sample_u01(unit_block(6, np.array([4]), 1, c)[0, 0])[None, :]
        cdf = []
        for d in case.neighbors:
            table = histogram_table(
                np.array([d.support.lo]), np.array([d.support.hi]), d.bin_weights[None, :]
            )
            cdf.append(histogram_cdf_values(*table, x, np.empty_like(x))[0])
        (f1, f2), (s1, s2) = cdf, [1.0 - f for f in cdf]
        want = {"min": s1 * s2, "max": f1 * f2, "saddle": s1 * f2 + f1 * s2}
        for pattern in PATTERNS:
            assert semianalytical_prob(case, pattern, c, seed=6, pixel=4) == want[pattern].mean()

    def test_non_histogram_rejected(self):
        case = random_case(seed=2200, model="epanechnikov")
        with pytest.raises(ValueError):
            semianalytical_prob(case, "min", c=100)

    def test_invalid_arguments(self):
        case = random_case(seed=2300, model="histogram")
        with pytest.raises(ValueError):
            semianalytical_prob(case, "min", c=0)
        with pytest.raises(ValueError):
            semianalytical_prob(case, "ridge", c=10)


class TestEstimatorSpec:
    def test_defaults(self):
        spec = EstimatorSpec()
        assert spec.method == "closed_form"

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorSpec(method="bogus")
        with pytest.raises(ValueError):
            EstimatorSpec(n_samples=0)
        with pytest.raises(ValueError):
            EstimatorSpec(c=0)


def assert_same_on_threads(monkeypatch, runs) -> None:
    """Each (field, estimator) run gives the same channels, to the bit, on
    1, 2 and 3 workers, and starts no process: with workers above 1 every
    method runs its chunks on the one thread pool, whose threads are
    joined before ``classify_field`` returns."""
    def no_process(self):
        raise AssertionError("classify_field must not start a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    threads = threading.active_count()
    for field, est in runs:
        one = classify_field(field, est, workers=1)
        for workers in (2, 3):
            many = classify_field(field, est, workers=workers)
            assert threading.active_count() == threads
            for ch in CHANNELS:
                assert np.array_equal(one.channel(ch), many.channel(ch))


def small_field(kind: str, seed: int = 0, shape=(7, 8), members: int = 24,
                bins: int = 4) -> UncertainField:
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, shape)
    stack = EnsembleStack(base + rng.uniform(-0.3, 0.3, (members, *shape)))
    if kind == "histogram":
        model = ModelSpec(kind=kind, bins=bins)
    else:
        model = ModelSpec(kind=kind)
    return UncertainField.from_ensemble(stack, model)


class TestCaseAt:
    def test_neighbor_order(self):
        field = small_field("uniform")
        case = case_at(field, 2, 3)
        assert case.center.support.lo == field.dist_at(2, 3).support.lo
        expected = [(2, 4), (1, 3), (2, 2), (3, 3)]  # E, N, W, S
        for d, (r, c) in zip(case.neighbors, expected):
            assert d.support.lo == field.dist_at(r, c).support.lo
            assert d.support.hi == field.dist_at(r, c).support.hi

    def test_interior_only(self):
        field = small_field("uniform")
        for r, c in ((0, 3), (6, 3), (2, 0), (2, 7)):
            with pytest.raises(ValueError):
                case_at(field, r, c)

    def test_pixel_index_row_major(self):
        field = small_field("uniform")
        assert pixel_index(field, 2, 3) == 2 * 8 + 3
        assert pixel_index(field, 0, 0) == 0


class TestClassifyField:
    def test_boundary_mask_is_one_pixel_frame(self):
        field = small_field("uniform")
        prob = classify_field(field)
        assert not prob.valid[0, :].any()
        assert not prob.valid[-1, :].any()
        assert not prob.valid[:, 0].any()
        assert not prob.valid[:, -1].any()
        assert prob.valid[1:-1, 1:-1].all()
        assert prob.p_min[0, 0] == 0.0

    def test_closed_form_matches_per_case_calls(self):
        rng = np.random.default_rng(3)
        # 38 x 50 = 1900 interior pixels span two or more closed-form
        # blocks of whole rows and end in a partial one; the pixels on
        # either side of every block edge are checked
        base = 10.0 + rng.uniform(-1.0, 1.0, (52, 40))
        two_chunks = EnsembleStack(base + rng.uniform(-0.3, 0.3, (16, 52, 40)))
        for kind in ("uniform", "epanechnikov", "histogram"):
            field = small_field(kind, seed=11)
            pixels = [
                (int(rng.integers(1, field.shape[0] - 1)), int(rng.integers(1, field.shape[1] - 1)))
                for _ in range(20)
            ]
            big = UncertainField.from_ensemble(two_chunks, ModelSpec(kind=kind, bins=5))
            chunk = engine.closed_chunk_pixels(big.model)
            assert 1900 > chunk and 1900 % chunk != 0
            rows = chunk // 38
            assert 50 > rows and 50 % rows != 0
            edges = [r for start in range(rows, 50, rows) for r in (start - 1, start)]
            boundary = [(1 + r, c) for r in (0, *edges, 49) for c in (1, 38)]
            for fld, where in ((field, pixels), (big, boundary)):
                prob = classify_field(fld)
                for r, c in where:
                    trip = closed_form_triple(case_at(fld, r, c))
                    assert prob.p_min[r, c] == pytest.approx(trip.p_min, abs=1e-12)
                    assert prob.p_max[r, c] == pytest.approx(trip.p_max, abs=1e-12)
                    assert prob.p_saddle[r, c] == pytest.approx(trip.p_saddle, abs=1e-12)

    def test_monte_carlo_matches_shared_draws_bitwise(self):
        for kind in ("uniform", "epanechnikov", "histogram", "gaussian"):
            field = small_field(kind, seed=4, shape=(5, 6))
            est = EstimatorSpec(method="monte_carlo", n_samples=400, seed=9)
            prob = classify_field(field, est)
            for r, c in ((1, 1), (2, 3), (3, 4)):
                want = shared_draw_fractions(field, r, c, 400, seed=9)
                assert prob.p_min[r, c] == want["min"]
                assert prob.p_max[r, c] == want["max"]
                assert prob.p_saddle[r, c] == want["saddle"]

    def test_adjacent_pixels_share_their_draws(self):
        # Pixels a = (1, 1) and b = (1, 2) are U(0, 1); every other pixel
        # lies above both (below both in the mirrored field), so each of
        # a and b is the minimum (maximum) about half the time.  In one
        # realization at most one of them can be, so with shared draws
        # the pair's fractions sum to at most 1; draws made afresh for
        # every stencil exceed 1 about half the time.
        lo, hi = np.full((3, 4), 2.0), np.full((3, 4), 3.0)
        lo[1, 1:3], hi[1, 1:3] = 0.0, 1.0
        for bounds in ((lo, hi), (-hi, -lo)):
            field = UncertainField(ModelSpec("uniform"), dict(zip(("lo", "hi"), bounds)))
            for seed in range(8):
                est = EstimatorSpec(method="monte_carlo", n_samples=2000, seed=seed)
                prob = classify_field(field, est)
                p_min, p_max = prob.p_min[1, 1:3], prob.p_max[1, 1:3]
                assert max(p_min.min(), p_max.min()) > 0.4
                assert p_min[0] + p_min[1] <= 1.0
                assert p_max[0] + p_max[1] <= 1.0

    def test_monte_carlo_ties_match_shared_draws_bitwise(self):
        # Pixels 4 ulp wide at 1.0 draw about five distinct values, so
        # adjacent pixels often tie, and ties count against every
        # pattern; one wide pixel gives the rest nonzero fractions.
        lo = np.ones((7, 6))
        hi = lo + 4 * np.spacing(1.0)
        lo[3, 2], hi[3, 2] = 0.5, 1.5
        field = UncertainField(ModelSpec("uniform"), {"lo": lo, "hi": hi})
        n = 500
        u = unit_block(6, [pixel_index(field, 2, 2), pixel_index(field, 2, 3)], 1, n)
        a, b = (field.dist_at(2, col).sample_u01(u[i, 0]) for i, col in enumerate((2, 3)))
        assert 0 < np.count_nonzero(a == b) < n
        est = EstimatorSpec(method="monte_carlo", n_samples=n, seed=6)
        want = {
            (r, c): shared_draw_fractions(field, r, c, n, seed=6)
            for r, c in itertools.product(range(1, 6), range(1, 5))
        }
        for workers in (1, 2, 3):
            prob = classify_field(field, est, workers=workers)
            for (r, c), fractions in want.items():
                for ch in CHANNELS:
                    assert prob.channel(ch)[r, c] == fractions[ch]

    def test_semianalytical_matches_per_case_calls_bitwise(self):
        field = small_field("histogram", seed=5, shape=(5, 6))
        est = EstimatorSpec(method="semianalytical", c=700, seed=2)
        prob = classify_field(field, est)
        for r, c in ((1, 2), (3, 3)):
            px = pixel_index(field, r, c)
            case = case_at(field, r, c)
            for pattern, arr in (("min", prob.p_min), ("max", prob.p_max), ("saddle", prob.p_saddle)):
                assert arr[r, c] == semianalytical_prob(case, pattern, 700, seed=2, pixel=px)

    def test_combinatorial_matches_per_case_calls(self):
        # grid and per-case read the same histogram tables, so they agree
        # bit for bit
        field = small_field("histogram", seed=6, shape=(5, 5), bins=3)
        prob = classify_field(field, EstimatorSpec(method="combinatorial"))
        for r, c in ((1, 1), (2, 3), (3, 2)):
            trip = combinatorial_triple(case_at(field, r, c))
            assert prob.p_min[r, c] == trip.p_min
            assert prob.p_max[r, c] == trip.p_max
            assert prob.p_saddle[r, c] == trip.p_saddle

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_histogram_kinks_are_the_sampler_edges(self, monkeypatch, offset):
        # The closed form integrates between exactly the bin edges on which
        # the inverse CDF of the same table lands, in the center's frame.
        seen = []

        def spy(table, rows, origin):
            edges = closed_edges(table, rows, origin)
            seen.append((rows, origin, edges))
            return edges

        closed_edges = engine._closed_edges
        monkeypatch.setattr(engine, "_closed_edges", spy)
        rng = np.random.default_rng(int(offset) % 1000 + 41)
        for bins in range(1, 10):
            lo = offset + rng.uniform(-0.5, 0.5, (3, 3))
            hi = lo + rng.uniform(0.2, 1.5, (3, 3))
            weights = rng.uniform(0.05, 1.0, (3, 3, bins))
            weights[rng.uniform(size=(3, 3, bins)) < 0.3] = 0.0
            weights[..., rng.integers(0, bins)] = 1.0
            field = UncertainField(
                ModelSpec("histogram", bins=bins), {"lo": lo, "hi": hi, "weights": weights}
            )
            classify_field(field)
            rows, origin, edges = seen.pop()
            # one stencil: the band rows of its five positions, center first
            assert rows.tolist() == [[4, 5, 1, 3, 7]]
            assert origin[0] == 0.5 * (lo[1, 1] + hi[1, 1])
            band = rows[0]
            w = weights.reshape(9, bins)[band]
            _, binw, mass, cdf = histogram_table(
                lo.ravel()[band], hi.ravel()[band], w / w.sum(axis=1, keepdims=True)
            )
            # the supports' table with lo moved into the frame
            frame_lo = (lo.ravel()[band] - origin[0])[:, None]
            kinks = histogram_edges(frame_lo, binw, bins)
            assert np.array_equal(edges[0, :, 1:], kinks)
            u = cdf[:, 1:-1].copy()
            x = histogram_icdf(frame_lo, binw, mass, cdf, u, np.empty_like(u))
            filled = mass[:, 1:-1] > 0.0
            assert np.array_equal(x[filled], kinks[:, :-1][filled])

    def test_constant_field_with_iid_noise(self):
        rng = np.random.default_rng(4)
        members = rng.uniform(-0.3, 0.3, (60, 9, 9)) + 5.0
        field = UncertainField.from_ensemble(EnsembleStack(members), ModelSpec(kind="uniform"))
        prob = classify_field(field)
        inner = (slice(1, -1), slice(1, -1))
        assert np.all(np.abs(prob.p_min[inner] - 0.2) < 0.06)
        assert np.all(np.abs(prob.p_max[inner] - 0.2) < 0.06)
        assert np.all(np.abs(prob.p_saddle[inner] - 1.0 / 15.0) < 0.012)

    def test_worker_count_does_not_change_results(self):
        hist = small_field("histogram", seed=7)
        runs = [
            (hist, EstimatorSpec()),
            (hist, EstimatorSpec(method="monte_carlo", n_samples=300, seed=1)),
            (hist, EstimatorSpec(method="semianalytical", c=500, seed=1)),
            (small_field("uniform", seed=7), EstimatorSpec()),
            (small_field("epanechnikov", seed=7), EstimatorSpec()),
        ]
        # 5 interior rows: one Monte Carlo chunk on one worker, rows 3 + 2
        # on two, each chunk's draws in several blocks
        mc = EstimatorSpec(method="monte_carlo", n_samples=engine.TILE_DRAWS // 6, seed=1)
        runs += [(small_field(kind, seed=7), mc) for kind in ("epanechnikov", "gaussian")]
        for field, est in runs:
            one = classify_field(field, est, workers=1)
            two = classify_field(field, est, workers=2)
            assert np.array_equal(one.p_min, two.p_min)
            assert np.array_equal(one.p_max, two.p_max)
            assert np.array_equal(one.p_saddle, two.p_saddle)
            assert np.array_equal(one.valid, two.valid)

    def test_closed_form_workers_use_no_process_pool(self, monkeypatch):
        # 58 x 58 = 3364 interior pixels: several closed-form blocks of
        # whole rows and a partial tail
        runs = []
        for kind in ("uniform", "epanechnikov", "histogram"):
            field = small_field(kind, seed=13, shape=(60, 60), bins=5)
            chunk = engine.closed_chunk_pixels(field.model)
            assert 3364 > 2 * chunk and 3364 % chunk != 0
            runs.append((field, EstimatorSpec()))
        assert_same_on_threads(monkeypatch, runs)

    def test_monte_carlo_workers_use_no_process_pool(self, monkeypatch):
        # 28 interior rows: tiles of 22 + 6 rows on one worker, each in
        # blocks of 297 + 3 draws; chunks of 14 + 14 rows on two workers
        # and 10 + 10 + 8 on three
        est = EstimatorSpec(method="monte_carlo", n_samples=300, seed=4)
        draws, tiles = engine._mc_tiles(30, 12, 300, engine.GRID_DRAWS)
        assert (draws, [sl.stop - sl.start - 2 for sl in tiles]) == (297, [22, 6])
        runs = [
            (small_field(kind, seed=16, shape=(30, 12), bins=5), est)
            for kind in ("uniform", "histogram", "gaussian")
        ]
        assert_same_on_threads(monkeypatch, runs)

    def test_every_method_runs_on_threads(self, monkeypatch):
        # 10 interior rows of 11 pixels, in blocks of 10 rows on 1 worker,
        # 5 + 5 on 2 and 4 + 4 + 2 on 3: semianalytical tiles of 13 pixels
        # that end in a partial one in every block, and combinatorial
        # steps of 37, 74, 93 and 186 of the 243 bin combinations for
        # blocks of 10, 5, 4 and 2 rows, each ending in a partial one
        hist = small_field("histogram", seed=17, shape=(12, 13), bins=3)
        semi = EstimatorSpec(method="semianalytical", c=2500, seed=4)
        assert engine.TILE_DRAWS // semi.c == 13
        assert [math.ceil(10 / w) for w in (1, 2, 3)] == [10, 5, 4]
        assert [engine.COMB_STENCILS // (11 * r) for r in (10, 5, 4, 2)] == [37, 74, 93, 186]
        assert_same_on_threads(
            monkeypatch, [(hist, semi), (hist, EstimatorSpec(method="combinatorial"))]
        )

    def test_combinatorial_splits_rows_wider_than_its_budget(self):
        # 2 interior rows of 518 pixels: the 512-pixel budget takes each
        # row as blocks of 512 + 6, whose edge falls between field
        # columns 512 and 513
        field = small_field("histogram", seed=19, shape=(4, 520), bins=2)
        est = EstimatorSpec(method="combinatorial")
        one = classify_field(field, est, workers=1)
        three = classify_field(field, est, workers=3)
        for ch in CHANNELS:
            assert np.array_equal(one.channel(ch), three.channel(ch))
        for r, c in itertools.product((1, 2), (511, 512, 513, 518)):
            trip = combinatorial_triple(case_at(field, r, c))
            assert one.p_min[r, c] == trip.p_min
            assert one.p_max[r, c] == trip.p_max
            assert one.p_saddle[r, c] == trip.p_saddle

    def test_closed_form_chunk_layout_does_not_change_results(self, monkeypatch):
        # 5 x 5 = 25 interior pixels: blocks of 1 and 2 pixels of a row
        # (2 + 2 + 1 in each row) and of whole rows for a 7-pixel budget
        subsets = [s for k in (1, 2) for s in itertools.combinations(CHANNELS, k)]
        models = [("uniform", 5), ("epanechnikov", 5)] + [("histogram", b) for b in (1, 5, 9)]
        for kind, bins in models:
            field = small_field(kind, seed=14, shape=(7, 7), bins=bins)
            intervals = 5 * (bins + 1) - 1 if kind == "histogram" else 9
            default = {s: classify_field(field, channels=s) for s in subsets}
            for pixels in (1, 2, 7):
                monkeypatch.setattr(engine, "CLOSED_PLANE", pixels * intervals)
                assert engine.closed_chunk_pixels(field.model) == pixels
                for subset, want in default.items():
                    for workers in (1, 3):
                        got = classify_field(field, channels=subset, workers=workers)
                        for ch in CHANNELS:
                            assert np.array_equal(got.channel(ch), want.channel(ch))
            monkeypatch.undo()

    def test_closed_form_dead_intervals(self, monkeypatch):
        # Kinks outside the center's support are clipped onto its ends and
        # leave zero-width intervals, which add nothing to any channel.
        shape = (6, 7)
        rows, cols = np.indices(shape)
        even = (rows + cols) % 2 == 0
        # The even pixels are [0, 1] and the odd ones [-10, 11], so an even
        # center has every neighbor kink outside its support: one live
        # interval, or one per bin for histograms (with 3 bins the wide
        # pixels' edges are -10, -3, 4 and 11).
        covered = (np.where(even, 0.0, -10.0), np.where(even, 1.0, 11.0), 3)
        # every stencil holds five equal distributions, so all kinks coincide
        equal = (np.zeros(shape), np.ones(shape), 5)
        # unit supports 4 apart: saddles where rows and columns alternate,
        # certain minima and maxima elsewhere
        shift = 4.0 * (cols % 2) - 4.0 * (rows % 2)
        disjoint = (shift, shift + 1.0, 5)
        rng = np.random.default_rng(23)

        def fields(lo, hi, bins):
            yield UncertainField(ModelSpec("uniform"), {"lo": lo, "hi": hi})
            yield UncertainField(
                ModelSpec("epanechnikov"), {"mean": 0.5 * (lo + hi), "halfwidth": 0.5 * (hi - lo)}
            )
            if lo is equal[0]:
                # zero first and last bins, the same at every pixel
                weights = np.broadcast_to([0.0, 2.0, 0.0, 1.0, 0.0], shape + (5,)).copy()
            else:
                weights = rng.uniform(0.5, 1.0, shape + (bins,))
                weights[rows % 3 == 0, 0] = 0.0
                weights[cols % 3 == 1, -1] = 0.0
                weights[(rows + cols) % 4 == 2, bins // 2] = 0.0
            yield UncertainField(
                ModelSpec("histogram", bins=bins), {"lo": lo, "hi": hi, "weights": weights}
            )

        for lo, hi, bins in (covered, equal, disjoint):
            for field in fields(lo, hi, bins):
                prob = classify_field(field)
                for r, c in itertools.product(range(1, shape[0] - 1), range(1, shape[1] - 1)):
                    trip = closed_form_triple(case_at(field, r, c))
                    for ch, want in zip(CHANNELS, trip):
                        assert prob.channel(ch)[r, c] == pytest.approx(want, abs=1e-12)
                    if lo is equal[0]:
                        for ch, want in zip(CHANNELS, (0.2, 0.2, 1.0 / 15.0)):
                            assert prob.channel(ch)[r, c] == pytest.approx(want, abs=1e-12)
                kinks = 5 * (bins + 1) if field.model.kind == "histogram" else 10
                monkeypatch.setattr(engine, "CLOSED_PLANE", kinks - 1)
                assert engine.closed_chunk_pixels(field.model) == 1
                for workers in (1, 3):
                    got = classify_field(field, workers=workers)
                    for ch in CHANNELS:
                        assert np.array_equal(got.channel(ch), prob.channel(ch))
                monkeypatch.undo()

    # measured peaks 3.0 MiB (histogram), 2.0 MiB (Epanechnikov) and 1.7 MiB
    # (uniform)
    @pytest.mark.parametrize(
        "kind, bound_mib", [("histogram", 4), ("epanechnikov", 6), ("uniform", 4)]
    )
    def test_closed_form_memory_is_bounded_by_the_plane(self, kind, bound_mib):
        field = UncertainField.from_ensemble(
            ackley_ensemble(130, 130, members=20, seed=0), ModelSpec(kind=kind, bins=5)
        )
        classify_field(field)  # first-call imports and caches
        tracemalloc.start()
        try:
            classify_field(field, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20

    def test_non_finite_output_raises(self, monkeypatch):
        # the bands of a +/-1e308 raster with a 1e308 error bound; the
        # fitters refuse them, so the field is built directly
        values = np.full((5, 5), 1e308)
        values[2, 2] = -1e308
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = values - 0.5e308, values + 0.5e308
            field = UncertainField(ModelSpec("uniform"), {"lo": lo, "hi": hi})
            with pytest.raises(ValueError, match="not finite") as default:
                classify_field(field)
            # one pixel per chunk: the count is summed over the chunks, so
            # the message is the same on any worker count
            monkeypatch.setattr(engine, "CLOSED_PLANE", 9)
            assert engine.closed_chunk_pixels(field.model) == 1
            for workers in (1, 3):
                with pytest.raises(ValueError) as err:
                    classify_field(field, workers=workers)
                assert str(err.value) == str(default.value)

    def test_chunk_error_propagates_after_the_pool_joins(self, monkeypatch):
        # 5 x 6 = 30 interior pixels in blocks of 4 + 2 pixels of each
        # row: ten blocks on one queue, the third of which fails
        field = small_field("uniform", seed=5)
        monkeypatch.setattr(engine, "CLOSED_PLANE", 4 * 9)
        assert math.ceil(30 / engine.closed_chunk_pixels(field.model)) >= 6
        calls = itertools.count(1)
        chunk_task = engine._chunk_task

        def third_fails(*args):
            if next(calls) == 3:
                raise RuntimeError("third chunk failed")
            return chunk_task(*args)

        monkeypatch.setattr(engine, "_chunk_task", third_fails)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="third chunk failed"):
            classify_field(field, workers=3)
        assert threading.active_count() == threads

    def test_chunk_queue_runs_every_chunk_once(self, monkeypatch):
        # 30 one-pixel blocks on more workers than cores, switching threads
        # as often as the interpreter allows: a corner taken twice or lost
        # shows in the calls or in the output
        field = small_field("histogram", seed=6, bins=3)
        want = classify_field(field)
        monkeypatch.setattr(engine, "CLOSED_PLANE", 5 * 4 - 1)
        assert engine.closed_chunk_pixels(field.model) == 1
        origins = []
        chunk_task = engine._chunk_task

        def recorded(method, kind, band, origin, width, *rest):
            # the field index of the block's first pixel
            origins.append(origin + width + 1)
            return chunk_task(method, kind, band, origin, width, *rest)

        monkeypatch.setattr(engine, "_chunk_task", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = classify_field(field, workers=6)
        finally:
            sys.setswitchinterval(interval)
        rows, cols = np.indices((5, 6)) + 1
        assert sorted(origins) == sorted((rows * 8 + cols).ravel().tolist())
        for ch in CHANNELS:
            assert np.array_equal(got.channel(ch), want.channel(ch))

    # measured 1.3 MiB on one worker and 2.5 MiB on two; a result list
    # and per-channel concatenation took 10.1 MiB on either
    @pytest.mark.parametrize("workers", [1, 2])
    def test_classify_memory_beyond_the_output_is_set_by_the_chunk(self, workers):
        y, x = np.mgrid[0:512, 0:512]
        field = UncertainField.from_scalar(np.sin(x / 7.0) * np.cos(y / 5.0), 0.1)
        classify_field(field, workers=workers)  # first-call imports and caches
        tracemalloc.start()
        try:
            prob = classify_field(field, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(a.nbytes for a in (prob.p_min, prob.p_max, prob.p_saddle, prob.valid))
        assert peak - output < 4 * 2**20

    def test_closed_form_bin_limit(self):
        # each stencil position counts its bin edges in a 12-bit field of
        # one int64, so a 5-point histogram stencil takes 4094 bins at most
        lo = np.zeros((3, 3))
        for bins, fits in ((4094, True), (4095, False)):
            field = UncertainField(
                ModelSpec("histogram", bins=bins),
                {"lo": lo, "hi": lo + 1.0, "weights": np.ones((3, 3, bins))},
            )
            if fits:
                assert classify_field(field).p_min[1, 1] == pytest.approx(0.2)
            else:
                with pytest.raises(ValueError, match="at most 4094 histogram bins"):
                    classify_field(field)

    def test_zero_width_support_raises(self):
        # the fitters widen degenerate pixels, so the field is built
        # directly; a zero-width border pixel is never a center
        lo = np.random.default_rng(2).uniform(0.0, 1.0, (5, 6))
        hi = lo + 0.5
        # a zero-width corner, and a zero-width north neighbor of (1, 2),
        # whose CDF is a step: no warning, and finite probabilities
        hi[0, 0] = lo[0, 0]
        hi[0, 2] = lo[0, 2]

        def fields():
            for kind, params in (
                ("uniform", {"lo": lo, "hi": hi}),
                ("epanechnikov", {"mean": 0.5 * (lo + hi), "halfwidth": 0.5 * (hi - lo)}),
                ("histogram", {"lo": lo, "hi": hi, "weights": np.ones((5, 6, 3))}),
            ):
                yield UncertainField(ModelSpec(kind, bins=3), params)

        for field in fields():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                prob = classify_field(field)
            for ch in CHANNELS:
                inner = prob.channel(ch)[1:-1, 1:-1]
                assert np.isfinite(inner).all()
                assert (inner >= 0.0).all() and (inner <= 1.0 + 1e-15).all()
        hi[2, 3] = lo[2, 3]
        for field in fields():
            with pytest.raises(ValueError, match="1 interior supports have zero or negative"):
                classify_field(field)

    def test_channel_subset(self):
        subsets = [s for k in (1, 2) for s in itertools.combinations(CHANNELS, k)]
        for kind in ("uniform", "epanechnikov", "histogram"):
            field = small_field(kind, seed=8)
            full = classify_field(field)
            for subset in subsets:
                prob = classify_field(field, channels=subset)
                for ch in CHANNELS:
                    if ch in subset:
                        assert np.array_equal(prob.channel(ch), full.channel(ch))
                        assert np.any(prob.channel(ch) != 0.0)
                    else:
                        assert np.all(prob.channel(ch) == 0.0)

    def test_validation_errors(self):
        field = small_field("uniform")
        with pytest.raises(ValueError):
            classify_field(field, channels=("min", "ridge"))
        with pytest.raises(ValueError):
            classify_field(field, workers=0)
        gauss = small_field("gaussian")
        with pytest.raises(ValueError):
            classify_field(gauss)  # no closed form
        with pytest.raises(ValueError):
            classify_field(field, EstimatorSpec(method="semianalytical"))
        with pytest.raises(ValueError):
            classify_field(field, EstimatorSpec(method="combinatorial"))
        big_bins = small_field("histogram", bins=COMBINATORIAL_MAX_BINS + 1)
        with pytest.raises(ValueError):
            classify_field(big_bins, EstimatorSpec(method="combinatorial"))
        tiny = UncertainField.from_ensemble(
            EnsembleStack(np.random.default_rng(0).uniform(0, 1, (4, 2, 3))),
            ModelSpec(kind="uniform"),
        )
        with pytest.raises(ValueError):
            classify_field(tiny)

    def test_sampling_tile_edges_match_reference_bitwise(self):
        n = engine.TILE_DRAWS // 5
        # Monte Carlo tiles of a 6-wide field hold 8 stencil rows, so the
        # 17 interior rows of a 19 x 6 field take tiles of 8 + 8 + 1 rows
        # on one worker, 8 + 1 and 8 on two, and one tile per chunk of
        # 6 + 6 + 5 rows on three.  Every channel subset is checked, on 1,
        # 2 or 3 workers.
        tiles = engine._mc_tiles(19, 6, n, engine.GRID_DRAWS)[1]
        assert [sl.stop - sl.start - 2 for sl in tiles] == [8, 8, 1]
        subsets = [s for k in (1, 2, 3) for s in itertools.combinations(CHANNELS, k)]
        est = EstimatorSpec(method="monte_carlo", n_samples=n, seed=5)
        for kind in ("uniform", "epanechnikov", "histogram", "gaussian"):
            field = small_field(kind, seed=12, shape=(19, 6))
            pixels = list(itertools.product(range(1, 18), range(1, 5)))
            want = {rc: shared_draw_fractions(field, *rc, n, seed=5) for rc in pixels}
            for i, subset in enumerate(subsets):
                prob = classify_field(field, est, channels=subset, workers=1 + i % 3)
                for (r, c), fractions in want.items():
                    for ch in CHANNELS:
                        got = prob.channel(ch)[r, c]
                        assert got == (fractions[ch] if ch in subset else 0.0)
        # semianalytical: a few pixels per tile, so the 16 interior pixels
        # span several tiles and end in a partial one
        tile = max(1, engine.TILE_DRAWS // n)
        assert 16 > tile and 16 % tile != 0
        subsets = [CHANNELS] + [(ch,) for ch in CHANNELS]
        field = small_field("histogram", seed=12, shape=(6, 6))
        est = EstimatorSpec(method="semianalytical", c=n, seed=5)
        for subset in subsets:
            prob = classify_field(field, est, channels=subset)
            for r, c in itertools.product(range(1, 5), repeat=2):
                key = dict(seed=5, pixel=pixel_index(field, r, c))
                case = case_at(field, r, c)
                want = {ch: semianalytical_prob(case, ch, n, **key) for ch in subset}
                for ch in CHANNELS:
                    got = prob.channel(ch)[r, c]
                    assert got == (want[ch] if ch in subset else 0.0)

    def test_mc_chunking_boundary(self):
        # more draws than GRID_DRAWS, and 3 interior rows split 2 + 1 on
        # two workers and 1 + 1 + 1 on three
        field = small_field("uniform", seed=9, shape=(5, 9))
        n = 150_000
        assert n > engine.GRID_DRAWS
        est = EstimatorSpec(method="monte_carlo", n_samples=n, seed=3)
        want = {
            (r, c): shared_draw_fractions(field, r, c, n, seed=3)
            for r, c in itertools.product(range(1, 4), range(1, 8))
        }
        for workers in (1, 2, 3):
            prob = classify_field(field, est, workers=workers)
            for (r, c), fractions in want.items():
                for ch in CHANNELS:
                    assert prob.channel(ch)[r, c] == fractions[ch]

    def test_mc_tile_layout_does_not_change_results(self, monkeypatch):
        # one-draw blocks (more than 255 per tile), blocks of 17 draws
        # that end in a partial one, 11-row tiles, and the default layout
        # of one 18-row tile in one block.  The 18 interior rows of a
        # 20 x 7 field take tiles of 8 + 8 + 2 rows (11 + 7 at 32768, one
        # tile by default) on one worker, 8 + 1 per chunk (one tile at
        # 32768 and by default) on two, and one tile per chunk on three.
        est = EstimatorSpec(method="monte_carlo", n_samples=600, seed=2)
        layouts = {
            1: (1, [8, 8, 2]),
            700: (17, [8, 8, 2]),
            32768: (595, [11, 7]),
            engine.GRID_DRAWS: (600, [18]),
        }
        for kind in ("uniform", "histogram", "gaussian"):
            field = small_field(kind, seed=15, shape=(20, 7))
            want = classify_field(field, est)
            for grid_draws, (draws, rows) in layouts.items():
                monkeypatch.setattr(engine, "GRID_DRAWS", grid_draws)
                got_draws, tiles = engine._mc_tiles(20, 7, 600, grid_draws)
                assert (got_draws, [sl.stop - sl.start - 2 for sl in tiles]) == (draws, rows)
                for workers in (1, 2, 3):
                    got = classify_field(field, est, workers=workers)
                    for ch in CHANNELS:
                        assert np.array_equal(got.channel(ch), want.channel(ch))
            monkeypatch.undo()

    def test_mc_memory_is_bounded_by_the_block(self):
        # measured peak 2.37 MiB at 65536 stencil draws per block (1.35 at
        # 32768, 4.43 at 131072); the bound leaves 25% for other Python
        # and numpy versions, and a block that hashed in its own
        # splitmix64 scratch peaked at 3.66
        field = UncertainField.from_ensemble(
            ackley_ensemble(64, 64, members=20, seed=0), ModelSpec(kind="uniform")
        )
        est = EstimatorSpec(method="monte_carlo", n_samples=2000, seed=0)
        classify_field(field, est)  # first-call imports and caches
        tracemalloc.start()
        try:
            classify_field(field, est, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * 2**20


class TestDegeneratePixels:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "epanechnikov", "histogram"]),
        offset=st.sampled_from([0.0, 1.0, 1e4, 1e8]),
        factor=st.floats(1.0, 2.0),
        sign=st.sampled_from([1.0, -1.0]),
        members=st.integers(2, 6),
        shape=st.tuples(st.integers(3, 6), st.integers(3, 6)),
    )
    def test_constant_ensemble_is_iid(self, kind, offset, factor, sign, members, shape):
        value = sign * offset * factor
        stack = EnsembleStack(np.full((members, *shape), value))
        field = UncertainField.from_ensemble(stack, ModelSpec(kind=kind))
        prob = classify_field(field)
        inner = (slice(1, -1), slice(1, -1))
        chans = np.stack([prob.channel(ch)[inner] for ch in CHANNELS])
        assert np.isfinite(chans).all()
        assert chans.min() >= 0.0 and chans.max() <= 1.0
        assert chans.sum(axis=0).max() <= 1.0
        for got, expect in zip(chans, (0.2, 0.2, 1.0 / 15.0)):
            assert np.abs(got - expect).max() <= 1e-12
