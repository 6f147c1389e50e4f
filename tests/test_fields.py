"""Tests for ensemble containers and per-pixel model fitting."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from critprob import fields
from critprob.distributions import GaussianSampler, default_epsilon, degenerate_width
from critprob.fields import (
    EnsembleStack,
    ModelSpec,
    ProbabilityField,
    UncertainField,
    epanechnikov_from_samples,
    histogram_from_samples,
    uniform_from_samples,
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

    def test_overflowing_sample_range_rejected_with_eps(self):
        # the range check of default_epsilon runs when eps is given too
        fits = (
            lambda s: uniform_from_samples(s, eps=1e-12),
            lambda s: histogram_from_samples(s, 3, eps=1e-12),
            lambda s: epanechnikov_from_samples(s, eps=1e-12),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fit in fits:
                with pytest.raises(ValueError, match="value range .* overflows float64"):
                    fit([-1e308, 1e308])

    def test_finite_range_whose_moments_overflow_rejected(self):
        # the range 1.1e308 is finite, but the squares of the moment pass
        # overflow; the fit refuses the support instead of warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="fitted supports overflow float64"):
                epanechnikov_from_samples([-1e308, 1e307])


def whole_stack_fit(values, model: ModelSpec) -> dict:
    """The fit as one pass over a float64 copy of the whole stack."""
    values = np.asarray(values).astype(np.float64)
    eps = default_epsilon(values)
    if model.kind in ("uniform", "histogram"):
        lo, hi = values.min(axis=0), values.max(axis=0)
        degenerate = hi <= lo
        half = 0.5 * degenerate_width(lo, eps)
        lo, hi = np.where(degenerate, lo - half, lo), np.where(degenerate, lo + half, hi)
        if model.kind == "uniform":
            return {"lo": lo, "hi": hi}
        h = model.bins
        values -= lo
        values *= h / (hi - lo)
        idx = np.floor(values, out=values).astype(np.intp)
        np.clip(idx, 0, h - 1, out=idx)
        idx += h * np.arange(lo.size).reshape(lo.shape)
        counts = np.bincount(idx.ravel(), minlength=lo.size * h)
        weights = (counts / idx.shape[0]).reshape(lo.shape + (h,))
        return {"lo": lo, "hi": hi, "weights": weights}
    mean = values.mean(axis=0)
    std = values.std(axis=0, ddof=1)
    if model.kind == "epanechnikov":
        halfwidth = np.maximum(model.k * std, 0.5 * degenerate_width(mean, eps))
        return {"mean": mean, "halfwidth": halfwidth}
    return {"mean": mean, "stddev": std}


FIT_MODELS = [ModelSpec("uniform"), ModelSpec("epanechnikov"), ModelSpec("gaussian"),
              ModelSpec("histogram", bins=4), ModelSpec("histogram", bins=5)]


def model_id(model: ModelSpec) -> str:
    return f"histogram{model.bins}" if model.kind == "histogram" else model.kind


def assert_fit_matches_whole_stack(values, model: ModelSpec) -> None:
    field = UncertainField.from_ensemble(EnsembleStack(values), model)
    ref = whole_stack_fit(values, model)
    assert field.params.keys() == ref.keys()
    for name, expected in ref.items():
        got = field.params[name]
        if name == "weights":  # constant pixels get equal weights, tested below
            live = np.asarray(values).min(axis=0) < np.asarray(values).max(axis=0)
            got, expected = got[live], expected[live]
        assert got.dtype == np.float64
        assert np.array_equal(got, expected), (model, name)


def member_values(shape, seed=0, offset=0.0, constant=True):
    rng = np.random.default_rng(seed)
    values = (offset + rng.normal(0.0, 3.0, shape)).astype(np.float32)
    if constant and shape[1] * shape[2] > 1:
        values[:, -1, 0] = values[0, -1, 0]  # one constant pixel
    return values


class TestTiledFit:
    """Row-tiled fits equal one pass over a float64 copy of the stack, bit for bit."""

    @pytest.mark.parametrize("model", FIT_MODELS, ids=model_id)
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_member_counts(self, model, offset):
        width = 16
        # rows per tile step from 3 to 2 between these member counts
        boundary = fields.FIT_TILE // (3 * width)
        assert fields.FIT_TILE // (boundary * width) == 3
        assert fields.FIT_TILE // ((boundary + 2) * width) == 2
        for members in (1, 2, boundary - 1, boundary, boundary + 1, boundary + 2):
            if members < 2 and model.kind in ("epanechnikov", "gaussian"):
                continue
            values = member_values((members, 7, width), seed=members, offset=offset)
            assert_fit_matches_whole_stack(values, model)

    @pytest.mark.parametrize("model", FIT_MODELS, ids=model_id)
    @pytest.mark.parametrize("shape", [(9, 37, 23), (5, 8, 3), (6, 7, 1), (7, 2, 1),
                                       (4, 1, 5), (3, 1, 1), (50, 13, 1)])
    @pytest.mark.parametrize("tile_rows", [1, 2, 3])
    def test_small_tiles(self, monkeypatch, model, shape, tile_rows):
        # tiles of a few rows, heights that are no multiple of them, and
        # one-column rasters, whose last single row must not be a tile
        members, _, width = shape
        monkeypatch.setattr(fields, "FIT_TILE", tile_rows * members * width)
        for offset in (0.0, 1e6):
            assert_fit_matches_whole_stack(member_values(shape, offset=offset), model)

    def test_row_tiles_cover_rows_once(self, monkeypatch):
        monkeypatch.setattr(fields, "FIT_TILE", 6)
        for members, height, width in ((3, 7, 1), (3, 7, 2), (3, 1, 1), (40, 5, 3)):
            values = np.zeros((members, height, width), dtype=np.float32)
            tiles = [rows for rows, _ in fields._float64_tiles(values)]
            assert [t.start for t in tiles] == [0] + [t.stop for t in tiles[:-1]]
            assert tiles[-1].stop == height
            if width == 1 and height > 1:
                assert all(t.stop - t.start >= 2 for t in tiles)

    @pytest.mark.parametrize("model", FIT_MODELS, ids=model_id)
    def test_float64_and_strided_inputs(self, model):
        wide = np.random.default_rng(3).normal(1e6, 5.0, (6, 9, 14))
        strided = member_values((6, 9, 28))[:, :, ::2]
        assert not strided.flags.c_contiguous
        for values in (wide, strided):
            stack = EnsembleStack(values)
            assert stack.values.dtype == np.float32 and stack.values.flags.c_contiguous
            assert np.array_equal(stack.values, values.astype(np.float32))
            assert_fit_matches_whole_stack(stack.values, model)

    def test_float32_input_is_kept(self):
        values = member_values((4, 5, 6))
        assert EnsembleStack(values).values is values

    def test_normalized_matches_whole_stack(self, monkeypatch):
        monkeypatch.setattr(fields, "FIT_TILE", 2 * 5 * 4)
        values = member_values((5, 7, 4), offset=3.0)
        norm, scale, offset = EnsembleStack(values).normalized()
        vmin = float(values.min())
        expected = ((values.astype(np.float64) - vmin) * scale).astype(np.float32)
        assert np.array_equal(norm.values, expected)
        assert offset == -vmin * scale

    def test_errors_raised_without_warnings(self, monkeypatch):
        monkeypatch.setattr(fields, "FIT_TILE", 8)
        single = EnsembleStack(member_values((1, 4, 4)))
        wide = EnsembleStack(np.random.default_rng(1).uniform(0.0, 1e30, (4, 5, 5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("epanechnikov", "gaussian"):
                with pytest.raises(ValueError, match="needs at least two members"):
                    UncertainField.from_ensemble(single, ModelSpec(kind=kind))
            with pytest.raises(ValueError, match="25 fitted supports overflow float64"):
                UncertainField.from_ensemble(wide, ModelSpec(kind="epanechnikov", k=1e300))
            with pytest.raises(ValueError, match="overflow float32"):
                EnsembleStack(np.full((2, 3, 3), 1e308))
            with pytest.raises(ValueError, match="must be finite"):
                EnsembleStack(np.full((2, 3, 3), np.nan, dtype=np.float32))

    def test_fit_holds_no_float64_stack(self):
        # 40 x 256 x 256 members: 20 MiB in float64, 10 MiB as the float32 stack
        stack = EnsembleStack(member_values((40, 256, 256)))
        for model in (ModelSpec("uniform"), ModelSpec("epanechnikov"), ModelSpec("histogram")):
            UncertainField.from_ensemble(stack, model)
            tracemalloc.start()
            try:
                UncertainField.from_ensemble(stack, model)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # outputs: at most 7 float64 planes of 0.5 MiB (histogram(5): lo, hi, weights)
            assert peak < 8 * 2**20, (model, peak)


class TestDegenerateHistogram:
    @pytest.mark.parametrize("bins", [4, 5])
    def test_constant_pixel_cdf_matches_per_case_fit(self, bins):
        values = np.zeros((6, 3, 3), dtype=np.float32)
        values[:, 0, :] = np.arange(6, dtype=np.float32)[:, None] * 2.0
        values[:, 1, 1] = 7.0
        field = UncertainField.from_ensemble(EnsembleStack(values), ModelSpec("histogram", bins=bins))
        eps = default_epsilon(values.astype(np.float64))
        d = field.dist_at(1, 1)
        ref = histogram_from_samples(values[:, 1, 1].astype(np.float64), bins, eps=eps)
        assert (d.support.lo, d.support.hi) == (ref.support.lo, ref.support.hi)
        assert np.array_equal(field.params["weights"][1, 1], np.full(bins, 1.0 / bins))
        assert np.array_equal(d.bin_weights, ref.bin_weights)
        assert d.cdf(7.0) == pytest.approx(0.5, abs=1e-12)
        lo, hi = d.support.lo, d.support.hi
        for x in np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 23):
            assert d.cdf(x) == pytest.approx(ref.cdf(x), abs=1e-12)


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

    def test_matches_whole_raster_widening(self):
        # pixels near 1e20 have a band below their ulp and are widened;
        # the others keep arr -/+ eb / 2
        rng = np.random.default_rng(4)
        raster = rng.normal(0.0, 2.0, (7, 9))
        raster[2:5, 3:8] += 1e20
        half = 0.5e-3
        field = UncertainField.from_scalar(raster, 2 * half)
        lo, hi = raster - half, raster + half
        degenerate = hi <= lo
        assert degenerate.sum() == 15
        widen = 0.5 * degenerate_width(lo, default_epsilon(raster))
        assert np.array_equal(field.params["lo"], np.where(degenerate, lo - widen, lo))
        assert np.array_equal(field.params["hi"], np.where(degenerate, lo + widen, hi))

    def test_non_finite_and_empty_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            raster = np.ones((3, 4))
            raster[1, 2] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="scalar field values must be finite"):
                    UncertainField.from_scalar(raster, 0.1)
        with pytest.raises(ValueError, match="at least one pixel"):
            UncertainField.from_scalar(np.ones((0, 4)), 0.1)

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
