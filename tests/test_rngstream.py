"""Tests for the counter-based uniform stream."""

import numpy as np
import pytest

from critprob.rngstream import counters, fill_units, stream_keys, unit_block


class TestUnitBlock:
    def test_range_and_shape(self):
        u = unit_block(seed=7, pixels=np.arange(5), planes=3, n=11)
        assert u.shape == (5, 3, 11)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_deterministic(self):
        a = unit_block(seed=1, pixels=np.arange(4), planes=2, n=100)
        b = unit_block(seed=1, pixels=np.arange(4), planes=2, n=100)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = unit_block(seed=1, pixels=np.arange(4), planes=2, n=100)
        b = unit_block(seed=2, pixels=np.arange(4), planes=2, n=100)
        assert not np.array_equal(a, b)

    def test_draws_keyed_by_pixel_not_position(self):
        # a pixel's stream is identical no matter which other pixels share
        # the batch, which is what makes chunked scheduling reproducible
        alone = unit_block(seed=3, pixels=np.array([17]), planes=2, n=64)
        crowd = unit_block(seed=3, pixels=np.array([4, 17, 90]), planes=2, n=64)
        assert np.array_equal(alone[0], crowd[1])

    def test_prefix_stability(self):
        # the first n draws do not depend on how many are requested
        short = unit_block(seed=5, pixels=np.arange(3), planes=1, n=10)
        long = unit_block(seed=5, pixels=np.arange(3), planes=1, n=50)
        assert np.array_equal(short, long[:, :, :10])

    def test_planes_are_distinct(self):
        u = unit_block(seed=9, pixels=np.arange(2), planes=2, n=32)
        assert not np.array_equal(u[:, 0, :], u[:, 1, :])

    def test_fill_units_matches_block_slice(self):
        # the in-place fill used by tiled kernels, on a slice of pixels
        # and one plane, reproduces that slice of the block
        px = np.arange(3, 40)
        blk = unit_block(seed=21, pixels=px, planes=3, n=50)
        keys = stream_keys(21, px, 3)
        assert np.array_equal(stream_keys(21, px[10:15], 3), keys[10:15])
        out = np.empty((5, 50))
        z = np.empty((5, 50), dtype=np.uint64)
        fill_units(keys[10:15, 2], counters(0, 50), out, z)
        assert np.array_equal(out, blk[10:15, 2])

    def test_counter_range_matches_block_slice(self):
        # draws split into sample ranges, as the Monte Carlo kernel does
        # for large draw counts, are the same draws
        px = np.array([42])
        blk = unit_block(seed=11, pixels=px, planes=3, n=20)
        keys = stream_keys(11, px, 3)
        out = np.empty((1, 13))
        z = np.empty((1, 13), dtype=np.uint64)
        for q in range(3):
            fill_units(keys[:, q], counters(7, 20), out, z)
            assert np.array_equal(out, blk[:, q, 7:])

    def test_hash_plane_may_be_the_samples_plane(self):
        # the sampling kernels lend the float plane they fill next as the
        # hash plane: each uniform plane of a stream batch is hashed in
        # it in turn, and the samples then overwrite it
        px = np.arange(8, 14)
        blk = unit_block(seed=5, pixels=px, planes=2, n=30)
        keys = stream_keys(5, px, 2)
        u = np.empty((2, 6, 30))
        x = np.full((6, 30), np.nan)
        for q in range(2):
            fill_units(keys[:, q], counters(0, 30), u[q], x.view(np.uint64))
        np.add(u[0], u[1], out=x)
        assert np.array_equal(u, blk.transpose(1, 0, 2))
        assert np.array_equal(x, blk.sum(axis=1))

    def test_uniform_marginals(self):
        u = unit_block(seed=13, pixels=np.arange(8), planes=1, n=4096).ravel()
        assert u.mean() == pytest.approx(0.5, abs=0.01)
        assert u.var() == pytest.approx(1.0 / 12.0, abs=0.005)
        # coarse equidistribution over 16 cells
        counts = np.bincount((u * 16).astype(int), minlength=16)
        assert counts.min() > 0.8 * u.size / 16
        assert counts.max() < 1.2 * u.size / 16

    def test_no_serial_correlation(self):
        u = unit_block(seed=15, pixels=np.array([0]), planes=1, n=65536)[0, 0]
        corr = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(corr) < 0.02
