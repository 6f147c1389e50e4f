"""Tests for the synthetic ensemble generators."""

import numpy as np
import pytest

from critprob.distributions import FiniteDistribution, GaussianSampler
from critprob.synth import (
    MIX_NOISE_AMP,
    ackley,
    ackley_base,
    ackley_ensemble,
    gaussian_mixture_ensemble,
    mixture_base,
    random_case,
)
from test_distributions import pdf_integral


class TestAckley:
    def test_global_minimum_at_origin(self):
        assert ackley(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert ackley(1.0, 1.0) > 0.0

    def test_base_grid_contains_origin_minimum(self):
        base = ackley_base(65, 65)  # odd size puts a grid point at (0, 0)
        assert base[32, 32] == pytest.approx(0.0, abs=1e-12)
        assert base.min() == pytest.approx(0.0, abs=1e-12)
        assert base.shape == (65, 65)

    def test_ensemble_shape_and_determinism(self):
        a = ackley_ensemble(16, 12, members=7, noise_amp=0.3, seed=5)
        b = ackley_ensemble(16, 12, members=7, noise_amp=0.3, seed=5)
        assert a.values.shape == (7, 12, 16)
        assert np.array_equal(a.values, b.values)
        c = ackley_ensemble(16, 12, members=7, noise_amp=0.3, seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_zero_noise_members_identical(self):
        stack = ackley_ensemble(10, 10, members=4, noise_amp=0.0, seed=0)
        for m in range(1, 4):
            assert np.array_equal(stack.values[0], stack.values[m])

    def test_noise_bounded(self):
        stack = ackley_ensemble(20, 20, members=9, noise_amp=0.25, seed=1)
        base = ackley_base(20, 20).astype(np.float32)
        dev = np.abs(stack.values - base[None])
        assert dev.max() <= 0.25 + 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            ackley_ensemble(0, 8)
        with pytest.raises(ValueError):
            ackley_ensemble(8, 8, members=0)
        with pytest.raises(ValueError):
            ackley_ensemble(8, 8, noise_amp=-0.1)


class TestMixture:
    def test_default_member_split(self):
        stack, peaks, outlier_peaks = gaussian_mixture_ensemble(32, 32)
        assert stack.members == 50
        assert len(peaks) == 2
        assert len(outlier_peaks) == 2

    def test_determinism(self):
        a, _, _ = gaussian_mixture_ensemble(24, 24, seed=9)
        b, _, _ = gaussian_mixture_ensemble(24, 24, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_peak_pixels_are_local_maxima_of_base(self):
        base, peaks = mixture_base(48, 48)
        for r, c in peaks:
            window = base[r - 1 : r + 2, c - 1 : c + 2]
            assert base[r, c] == window.max()

    def test_outlier_members_are_rotated_base(self):
        stack, _, _ = gaussian_mixture_ensemble(32, 32, true_members=3, outlier_members=2, seed=4)
        base, _ = mixture_base(32, 32)
        rotated = np.rot90(base).astype(np.float32)
        base32 = base.astype(np.float32)
        for m in range(3):
            assert np.abs(stack.values[m] - base32).max() <= MIX_NOISE_AMP + 1e-6
        for m in range(3, 5):
            assert np.abs(stack.values[m] - rotated).max() <= MIX_NOISE_AMP + 1e-6

    def test_peak_coordinates_rotate(self):
        _, peaks, outlier_peaks = gaussian_mixture_ensemble(40, 40, seed=0)
        n = 40
        expected = [(n - 1 - c, r) for r, c in peaks]
        assert outlier_peaks == expected
        assert set(peaks) != set(outlier_peaks)

    def test_envelope_difference_localized_to_rotation_support(self):
        # where the rotated base deviates from the base, the all-member
        # envelope must widen beyond the true-member envelope; where the
        # two bases agree the envelopes match up to the noise amplitude
        stack, _, _ = gaussian_mixture_ensemble(48, 48, true_members=6, outlier_members=3, seed=2)
        base, _ = mixture_base(48, 48)
        rotated = np.rot90(base)
        vals = stack.values.astype(np.float64)
        true_max = vals[:6].max(axis=0)
        all_max = vals.max(axis=0)
        lift = rotated - base  # outliers raise the max envelope only here
        grew = all_max - true_max
        slack = 2.0 * MIX_NOISE_AMP + 1e-6
        assert np.all(grew <= np.maximum(lift, 0.0) + slack)
        assert np.all(grew >= np.maximum(lift, 0.0) - slack)
        assert grew.max() > 10.0 * MIX_NOISE_AMP  # the rotated bumps do appear

    def test_square_requirement_for_outliers(self):
        with pytest.raises(ValueError):
            gaussian_mixture_ensemble(32, 24, true_members=4, outlier_members=1)
        stack, _, _ = gaussian_mixture_ensemble(32, 24, true_members=4, outlier_members=0)
        assert stack.members == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_mixture_ensemble(16, 16, true_members=0, outlier_members=0)
        with pytest.raises(ValueError):
            gaussian_mixture_ensemble(0, 16)
        with pytest.raises(ValueError):
            gaussian_mixture_ensemble(16, 16, true_members=-1)


class TestRandomCase:
    def test_determinism(self):
        a = random_case(seed=3, model="histogram")
        b = random_case(seed=3, model="histogram")
        assert a.center.support.lo == b.center.support.lo
        assert np.array_equal(a.center.bin_weights, b.center.bin_weights)
        c = random_case(seed=4, model="histogram")
        assert a.center.support.lo != c.center.support.lo

    def test_all_supports_overlap(self):
        for i in range(250):
            model = ("uniform", "epanechnikov", "histogram")[i % 3]
            case = random_case(seed=i, model=model)
            dists = (case.center, *case.neighbors)
            for d in dists:
                assert d.support.lo < -0.15 < 0.15 < d.support.hi

    def test_generated_distributions_valid(self):
        for i in range(120):
            model = ("uniform", "epanechnikov", "histogram")[i % 3]
            case = random_case(seed=5000 + i, model=model, bins=4)
            for d in (case.center, *case.neighbors):
                assert isinstance(d, FiniteDistribution)
                assert pdf_integral(d) == pytest.approx(1.0, abs=1e-10)
                if d.bin_weights is not None:
                    assert d.bin_weights.sum() == pytest.approx(1.0, abs=1e-12)
                    assert np.all(d.bin_weights >= 0.0)

    def test_neighborhood_sizes(self):
        assert len(random_case(seed=0, neighborhood=2).neighbors) == 2
        assert len(random_case(seed=0, neighborhood=4).neighbors) == 4
        with pytest.raises(ValueError):
            random_case(seed=0, neighborhood=3)

    def test_gaussian_model(self):
        case = random_case(seed=7, model="gaussian")
        assert isinstance(case.center, GaussianSampler)
        assert case.center.stddev > 0.0

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            random_case(seed=0, model="levy")
