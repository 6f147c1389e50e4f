"""The closed form against exact rational integrals on generated stencils.

``rational_oracle`` integrates each stencil exactly from the floats the
kernel reads, so these tests hold the closed form to a few ulps wherever
the stencil sits: mixed kinds per position, 2 and 4 neighbors, offsets
up to 1e8 with narrow widths, touching, nested and disjoint supports, and
histograms of 1 to 9 bins with empty bins.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from critprob.distributions import epanechnikov, histogram, uniform
from critprob.engine import (
    NeighborhoodCase,
    case_at,
    classify_field,
    closed_form_triple,
    local_max_prob,
    saddle_prob,
)
from critprob.fields import EnsembleStack, ModelSpec, UncertainField
from rational_oracle import exact_triple

KINDS = ("uniform", "epanechnikov", "histogram")

# Largest distance from the exact value: 8 ulps of 1.  Over 12000
# generated stencils the per-case path was within 3.3e-16 of exact, and
# over 6000 the grid within 1.1e-15 (a certain maximum read as 1 - 5 ulps
# far from the origin: the grid does not divide by the quadrature mass).
BOUND = 8 * np.finfo(float).eps
# how far a per-case channel sum may pass 1; seen at most 1 + 4.4e-16
SLACK = 4 * np.finfo(float).eps


@st.composite
def stencils(draw, neighbors=(2, 4), same_kind=None):
    """(kinds, parameters) of a center and its neighbors.

    Each position is a kind and its parameters on a grid of quarter
    widths, so supports often touch, nest or miss each other, moved to
    an offset from 0 to 1e8 at a scale narrow for that offset.  An
    Epanechnikov position is (mean, halfwidth), a histogram one
    (lo, hi, weights) with zero weights allowed.
    """
    n = 1 + draw(st.sampled_from(neighbors))
    offset = draw(st.sampled_from([0.0, 1.0, -1e3, 1e6, 1e8]))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e-4] if offset else [1.0, 1e-3]))
    same = draw(st.booleans()) if same_kind is None else same_kind
    if same:
        kinds = [draw(st.sampled_from(KINDS))] * n
        bins = [draw(st.integers(1, 9))] * n
    else:
        kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n))
        bins = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    params = []
    for kind, h in zip(kinds, bins):
        start = draw(st.integers(-8, 8)) / 4
        width = draw(st.integers(1, 8)) / 4
        if draw(st.booleans()):
            start += draw(st.floats(0.0, 0.25))
        lo, hi = offset + scale * start, offset + scale * (start + width)
        if kind == "epanechnikov":
            params.append((0.5 * (lo + hi), 0.5 * (hi - lo)))
        elif kind == "histogram":
            weights = draw(st.lists(st.integers(0, 4), min_size=h, max_size=h))
            weights[draw(st.integers(0, h - 1))] += 1
            params.append((lo, hi, np.array(weights, dtype=float) / sum(weights)))
        else:
            params.append((lo, hi))
    return kinds, params


def distribution(kind, p):
    if kind == "uniform":
        return uniform(*p)
    if kind == "epanechnikov":
        return epanechnikov(*p)
    return histogram(*p)


def exact_spec(d):
    """The floats the per-case closed form reads from ``d``."""
    lo, hi = d.support.lo, d.support.hi
    if d.kind == "histogram":
        return ("histogram", lo, hi, tuple(d.bin_weights))
    return (d.kind, lo, hi)


def exact_case(case):
    return exact_triple(exact_spec(case.center), [exact_spec(d) for d in case.neighbors])


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stencils())
def test_case_matches_exact(stencil):
    kinds, params = stencil
    dists = [distribution(k, p) for k, p in zip(kinds, params)]
    case = NeighborhoodCase(dists[0], dists[1:])
    got = closed_form_triple(case)
    want = exact_case(case)
    for p, q in zip(got, want):
        assert abs(p - q) <= BOUND
        assert 0.0 <= p <= 1.0
    assert got.total <= 1.0 + SLACK
    # mirror identities: negating every distribution swaps the minimum
    # and the maximum and keeps the saddle
    mirrored = case.negate()
    assert abs(local_max_prob(mirrored) - got.p_min) <= 2 * BOUND
    assert abs(saddle_prob(mirrored) - got.p_saddle) <= 2 * BOUND


def same_kind_field(kinds, params):
    """A 3 x 3 field whose one interior pixel has the given stencil.

    The corners, which no stencil reads, repeat the center.
    """
    kind = kinds[0]
    cells = [(1, 1), (1, 2), (0, 1), (1, 0), (2, 1)]  # center, east, north, west, south
    names = {"uniform": ("lo", "hi"), "epanechnikov": ("mean", "halfwidth")}
    names = names.get(kind, ("lo", "hi", "weights"))
    values = {}
    for i, name in enumerate(names):
        first = np.asarray(params[0][i], dtype=float)
        arr = np.broadcast_to(first, (3, 3) + first.shape).copy()
        for (r, c), p in zip(cells, params):
            arr[r, c] = p[i]
        values[name] = arr
    bins = values["weights"].shape[-1] if kind == "histogram" else 5
    return UncertainField(ModelSpec(kind, bins=bins), values)


def grid_spec(kind, p):
    """The floats the grid kernel reads from one stencil position."""
    if kind == "histogram":
        return ("histogram", p[0], p[1], tuple(p[2]))
    if kind == "epanechnikov":
        # the field's (mean, halfwidth) as its support
        return (kind, p[0] - p[1], p[0] + p[1])
    return (kind, *p)


# The east and north supports touch the center's: the minimum is exactly
# 1.1e-53, and its row sum, unclipped, rounds to -8.3e-44.
TOUCHING_EPANECHNIKOV = (
    ["epanechnikov"] * 5,
    [
        (1.000125, 0.0003749999999999587),  # center
        (0.999, 0.0007500000000000284),  # east
        (1.001125, 0.0006249999999999867),  # north
        (1.0025518594859344, 0.0003750000000000142),  # west
        (1.001875, 0.00012500000000004174),  # south
    ],
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stencils(neighbors=(4,), same_kind=True))
@example(TOUCHING_EPANECHNIKOV)
def test_grid_matches_exact(stencil):
    # no upper check: the grid does not divide by the center's
    # quadrature mass, so a certain pattern can read 1 + 1 ulp there
    kinds, params = stencil
    field = same_kind_field(kinds, params)
    prob = classify_field(field)
    specs = [grid_spec(k, p) for k, p in zip(kinds, params)]
    want = exact_triple(specs[0], specs[1:])
    for ch, q in zip(("min", "max", "saddle"), want):
        assert abs(prob.channel(ch)[1, 1] - q) <= BOUND
        assert prob.channel(ch)[1, 1] >= 0.0


def test_constant_histogram_far_from_the_origin():
    # Every pixel is the same constant, so each support is a few ulps of
    # 1e6 wide and several of its 5 bin edges coincide in absolute
    # coordinates; the per-case closed form works in the center's frame.
    stack = EnsembleStack(np.full((4, 3, 3), 1e6, dtype=np.float32))
    field = UncertainField.from_ensemble(stack, ModelSpec("histogram", bins=5))
    case = case_at(field, 1, 1)
    lo, hi = case.center.support.lo, case.center.support.hi
    edges = lo + (hi - lo) / 5 * np.arange(6)
    assert np.count_nonzero(np.diff(edges) == 0.0) > 0
    got = closed_form_triple(case)
    prob = classify_field(field)
    want = exact_case(case)
    assert got.p_min == pytest.approx(0.2, abs=BOUND)
    for ch, p, q in zip(("min", "max", "saddle"), got, want):
        assert abs(p - q) <= BOUND
        assert abs(prob.channel(ch)[1, 1] - p) <= BOUND


def narrow_field(kind, offset, scale, shape=(10, 12)):
    """A random field of one bounded kind, supports ``scale`` wide at ``offset``.

    Starts and widths are random multiples of ``scale``, so neighboring
    supports overlap; an Epanechnikov field stores (mean, halfwidth).
    """
    rng = np.random.default_rng(49)
    lo = offset + scale * rng.uniform(0.0, 1.0, shape)
    hi = lo + scale * rng.uniform(0.5, 1.5, shape)
    if kind == "epanechnikov":
        return UncertainField(ModelSpec(kind), {"mean": 0.5 * (lo + hi), "halfwidth": 0.5 * (hi - lo)})
    if kind == "uniform":
        return UncertainField(ModelSpec(kind), {"lo": lo, "hi": hi})
    weights = rng.integers(0, 4, shape + (5,)).astype(float)
    weights[..., 2] += 1.0
    return UncertainField(ModelSpec(kind, bins=5), {"lo": lo, "hi": hi, "weights": weights})


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("offset, scale", [(0.0, 1e-3), (1e3, 1e-3), (1e6, 1e-3), (1e8, 1e-4)])
def test_grid_matches_its_cases_far_from_the_origin(kind, offset, scale):
    # the grid and ``case_at`` read one support record, so a pixel agrees
    # with its case to rounding wherever the field sits
    field = narrow_field(kind, offset, scale)
    prob = classify_field(field)
    height, width = field.shape
    for r in range(1, height - 1):
        for c in range(1, width - 1):
            got = closed_form_triple(case_at(field, r, c))
            for ch, q in zip(("min", "max", "saddle"), got):
                assert abs(prob.channel(ch)[r, c] - q) <= BOUND


# Every neighbor's support strictly contains the center's [0, 1], so each
# neighbor CDF changes across the whole center support and the clipped
# kinks leave one live interval.  Its integrand has the top degree: 4 for
# uniform and histogram(1) stencils, 14 for Epanechnikov ones.
COVERING = [(0.0, 1.0), (-0.5, 1.25), (-0.25, 1.5), (-1.0, 1.125), (-0.75, 2.0)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_top_degree_integrand(kind, offset):
    params = []
    for lo, hi in COVERING:
        lo, hi = offset + lo, offset + hi
        if kind == "epanechnikov":
            params.append((0.5 * (lo + hi), 0.5 * (hi - lo)))
        elif kind == "histogram":
            params.append((lo, hi, np.array([1.0])))
        else:
            params.append((lo, hi))
    kinds = [kind] * len(params)
    specs = [grid_spec(k, p) for k, p in zip(kinds, params)]
    want = exact_triple(specs[0], specs[1:])
    prob = classify_field(same_kind_field(kinds, params))
    dists = [distribution(k, p) for k, p in zip(kinds, params)]
    got = closed_form_triple(NeighborhoodCase(dists[0], dists[1:]))
    for ch, p, q in zip(("min", "max", "saddle"), got, want):
        assert 0.0 < q < 1.0
        assert abs(prob.channel(ch)[1, 1] - q) <= BOUND
        assert abs(p - q) <= BOUND
