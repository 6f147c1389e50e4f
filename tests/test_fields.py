"""Tests for ensemble containers and per-pixel model fitting."""

import math
import warnings

import numpy as np
import pytest

from critprob.distributions import (
    GaussianSampler,
    epanechnikov_from_samples,
    histogram_from_samples,
    uniform_from_samples,
)
from critprob.fields import (
    EnsembleStack,
    ModelSpec,
    ProbabilityField,
    UncertainField,
)


def sample_stack(seed: int = 0, shape=(30, 6, 7)) -> EnsembleStack:
    rng = np.random.default_rng(seed)
    return EnsembleStack(rng.uniform(-2.0, 3.0, shape).astype(np.float32))


class TestModelSpec:
    def test_defaults(self):
        spec = ModelSpec(kind="histogram")
        assert spec.bins == 5
        assert spec.k == pytest.approx(math.sqrt(5.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="cauchy")
        with pytest.raises(ValueError):
            ModelSpec(kind="histogram", bins=0)
        with pytest.raises(ValueError):
            ModelSpec(kind="epanechnikov", k=0.0)


class TestEnsembleStack:
    def test_shape_properties(self):
        stack = sample_stack()
        assert stack.members == 30
        assert stack.height == 6
        assert stack.width == 7
        assert stack.values.dtype == np.float32

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleStack(np.zeros((4, 5)))
        with pytest.raises(ValueError):
            EnsembleStack(np.zeros((0, 4, 5)))
        bad = np.zeros((2, 3, 3))
        bad[1, 1, 1] = np.nan
        with pytest.raises(ValueError):
            EnsembleStack(bad)

    def test_values_beyond_float32_rejected(self):
        values = np.full((2, 3, 3), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow float32"):
                EnsembleStack(values)

    def test_normalized_range_and_map(self):
        stack = sample_stack(3)
        norm, scale, offset = stack.normalized()
        assert norm.values.min() == pytest.approx(0.0, abs=1e-7)
        assert norm.values.max() == pytest.approx(1.0, abs=1e-7)
        mapped = scale * stack.values.astype(np.float64) + offset
        assert norm.values == pytest.approx(mapped, abs=1e-6)

    def test_normalized_degenerate(self):
        stack = EnsembleStack(np.full((3, 4, 4), 2.5, dtype=np.float32))
        norm, scale, offset = stack.normalized()
        assert scale == 1.0 and offset == 0.0
        assert np.array_equal(norm.values, stack.values)


class TestFromEnsemble:
    def test_uniform_matches_per_pixel_fit(self):
        stack = sample_stack(1)
        field = UncertainField.from_ensemble(stack, ModelSpec(kind="uniform"))
        samples = stack.values.astype(np.float64)
        for r in range(stack.height):
            for c in range(stack.width):
                ref = uniform_from_samples(samples[:, r, c])
                d = field.dist_at(r, c)
                assert d.support.lo == ref.support.lo
                assert d.support.hi == ref.support.hi

    def test_histogram_matches_per_pixel_fit(self):
        stack = sample_stack(2)
        field = UncertainField.from_ensemble(stack, ModelSpec(kind="histogram", bins=4))
        samples = stack.values.astype(np.float64)
        for r in range(stack.height):
            for c in range(stack.width):
                ref = histogram_from_samples(samples[:, r, c], 4)
                d = field.dist_at(r, c)
                assert d.support.lo == ref.support.lo
                assert np.array_equal(d.bin_weights, ref.bin_weights)

    def test_histogram_weights_sum_to_one(self):
        field = UncertainField.from_ensemble(
            sample_stack(4), ModelSpec(kind="histogram", bins=6)
        )
        sums = field.params["weights"].sum(axis=-1)
        assert sums == pytest.approx(np.ones_like(sums), abs=1e-12)

    def test_epanechnikov_matches_per_pixel_fit(self):
        stack = sample_stack(5)
        field = UncertainField.from_ensemble(stack, ModelSpec(kind="epanechnikov"))
        samples = stack.values.astype(np.float64)
        for r in range(stack.height):
            for c in range(stack.width):
                ref = epanechnikov_from_samples(samples[:, r, c])
                d = field.dist_at(r, c)
                assert d.support.lo == pytest.approx(ref.support.lo, rel=1e-12)
                assert d.support.hi == pytest.approx(ref.support.hi, rel=1e-12)

    def test_epanechnikov_k_parameter(self):
        stack = sample_stack(6)
        field = UncertainField.from_ensemble(stack, ModelSpec(kind="epanechnikov", k=1.0))
        samples = stack.values.astype(np.float64)
        hw = field.params["halfwidth"][2, 2]
        assert hw == pytest.approx(samples[:, 2, 2].std(ddof=1), rel=1e-12)

    def test_spread_models_need_two_members(self):
        single = EnsembleStack(np.zeros((1, 4, 4), dtype=np.float32) + 1.0)
        for kind in ("epanechnikov", "gaussian"):
            with pytest.raises(ValueError):
                UncertainField.from_ensemble(single, ModelSpec(kind=kind))
        # bounded-range models fit fine from one member
        field = UncertainField.from_ensemble(single, ModelSpec(kind="uniform"))
        assert field.dist_at(0, 0).support.width > 0.0

    def test_degenerate_pixels_widened(self):
        for value in (7.0, 1e4, 1e8):
            vals = np.zeros((5, 4, 4), dtype=np.float32)
            vals[:, 2, 2] = value  # constant pixel in an otherwise constant stack
            stack = EnsembleStack(vals)
            for kind, bins in (("uniform", 1), ("histogram", 3), ("epanechnikov", 1)):
                field = UncertainField.from_ensemble(stack, ModelSpec(kind=kind, bins=bins))
                d = field.dist_at(2, 2)
                assert d.support.width > 0.0

    def test_gaussian_fit(self):
        stack = sample_stack(7)
        field = UncertainField.from_ensemble(stack, ModelSpec(kind="gaussian"))
        d = field.dist_at(1, 3)
        assert isinstance(d, GaussianSampler)
        samples = stack.values.astype(np.float64)[:, 1, 3]
        assert d.mean == pytest.approx(samples.mean(), rel=1e-12)
        assert d.stddev == pytest.approx(samples.std(ddof=1), rel=1e-12)

    def test_shape(self):
        field = UncertainField.from_ensemble(sample_stack(), ModelSpec(kind="uniform"))
        assert field.shape == (6, 7)

    def test_overflowing_fit_rejected(self):
        stack = sample_stack()
        stack.values[:, 2, 3] = np.inf  # replaced after the stack's own check
        wide = EnsembleStack(np.random.default_rng(1).uniform(0.0, 1e30, (4, 5, 5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("uniform", "epanechnikov", "histogram", "gaussian"):
                with pytest.raises(ValueError, match="overflows float64"):
                    UncertainField.from_ensemble(stack, ModelSpec(kind=kind))
            with pytest.raises(ValueError, match="overflow float64"):
                UncertainField.from_ensemble(wide, ModelSpec(kind="epanechnikov", k=1e300))


class TestFromScalar:
    def test_support_width_equals_bound(self):
        rng = np.random.default_rng(9)
        raster = rng.uniform(0.0, 10.0, (5, 6))
        field = UncertainField.from_scalar(raster, 0.5)
        for r, c in ((0, 0), (2, 3), (4, 5)):
            d = field.dist_at(r, c)
            assert d.support.width == pytest.approx(0.5, rel=1e-12)
            assert 0.5 * (d.support.lo + d.support.hi) == pytest.approx(raster[r, c])

    def test_zero_bound_widens(self):
        for value in (1.0, 1e4, -1e8):
            field = UncertainField.from_scalar(np.full((3, 3), value), 0.0)
            d = field.dist_at(1, 1)
            assert d.support.width > 0.0
            assert 0.5 * (d.support.lo + d.support.hi) == value

    def test_constant_raster_identical_distributions(self):
        field = UncertainField.from_scalar(np.full((4, 4), 2.0), 0.3)
        a, b = field.dist_at(0, 0), field.dist_at(3, 3)
        assert (a.support.lo, a.support.hi) == (b.support.lo, b.support.hi)

    def test_validation(self):
        with pytest.raises(ValueError):
            UncertainField.from_scalar(np.ones((3, 3)), -0.1)
        with pytest.raises(ValueError):
            UncertainField.from_scalar(np.ones((3, 3)), float("nan"))
        with pytest.raises(ValueError):
            UncertainField.from_scalar(np.ones(9), 0.1)
        bad = np.ones((3, 3))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            UncertainField.from_scalar(bad, 0.1)

    def test_overflowing_fit_rejected(self):
        values = np.full((5, 5), 1e308)
        values[2, 2] = -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="value range .* overflows float64"):
                UncertainField.from_scalar(values, 1e308)
            # a finite value range whose bands overflow
            with pytest.raises(ValueError, match="25 fitted supports overflow float64"):
                UncertainField.from_scalar(np.full((5, 5), 1.7e308), 1e308)


class TestProbabilityField:
    def test_empty(self):
        prob = ProbabilityField.empty(4, 5)
        assert prob.shape == (4, 5)
        assert not prob.valid.any()
        assert prob.p_min.sum() == 0.0

    def test_channel_lookup(self):
        prob = ProbabilityField.empty(3, 3)
        assert prob.channel("min") is prob.p_min
        assert prob.channel("max") is prob.p_max
        assert prob.channel("saddle") is prob.p_saddle
        with pytest.raises(ValueError):
            prob.channel("ridge")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProbabilityField(
                np.zeros((3, 3)),
                np.zeros((3, 3)),
                np.zeros((3, 4)),
                np.zeros((3, 3), dtype=bool),
            )
