"""Tests for the bit-exact UCVF container, CSV export, and heatmaps."""

import itertools
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critprob import field_io
from critprob.field_io import (
    UcvfError,
    UcvfFormatError,
    UcvfPayloadError,
    UcvfValueError,
    export_heatmap,
    load_ensemble,
    load_probability_field,
    load_scalar_field,
    save_ensemble,
    save_probability_field,
    save_scalar_field,
)
from critprob.fields import EnsembleStack, ProbabilityField


def sample_stack(seed: int = 0) -> EnsembleStack:
    rng = np.random.default_rng(seed)
    return EnsembleStack(rng.uniform(-4.0, 4.0, (5, 6, 7)).astype(np.float32))


def sample_prob(seed: int = 1, shape=(5, 6)) -> ProbabilityField:
    rng = np.random.default_rng(seed)
    prob = ProbabilityField.empty(*shape)
    prob.p_min[:] = rng.uniform(0.0, 1.0, shape)
    prob.p_max[:] = rng.uniform(0.0, 1.0, shape)
    prob.p_saddle[:] = rng.uniform(0.0, 1.0, shape)
    prob.valid[1:-1, 1:-1] = True
    prob.p_min[~prob.valid] = 0.0
    prob.p_max[~prob.valid] = 0.0
    prob.p_saddle[~prob.valid] = 0.0
    return prob


def reference_csv(field: ProbabilityField, path) -> None:
    """The CSV table by one ``%`` format per pixel: the bytes the block writer must give."""
    height, width = field.p_min.shape
    xs = range(width)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,p_min,p_max,p_saddle,valid\n")
        # one raster row at a time keeps the formatted text small
        for y in range(height):
            columns = (field.p_min[y], field.p_max[y], field.p_saddle[y], field.valid[y])
            rows = zip(xs, itertools.repeat(y), *(c.tolist() for c in columns))
            fh.write("".join("%d,%d,%.17g,%.17g,%.17g,%d\n" % row for row in rows))


def csv_value_pool() -> np.ndarray:
    """Values that stress %.17g: specials, exact ties, exponent edges, random."""
    rng = np.random.default_rng(12)
    # odd * 2**-19 has 19 decimals ending in 5, so in [0.01, 0.1) the
    # 18th decimal, the 17th significant digit, is an exact tie
    odd = np.arange(5243, 52429, 2)
    edges = []
    for c in (1e-4, 0.1, 1.0):
        lo = hi = c
        for _ in range(3):
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 2.0)
            edges += [lo, hi]
        edges.append(c)
    specials = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                1e-300, 1.5, 2.0, 1e300, -0.5, -1.0, -2.2250738585072014e-308, np.inf, -np.inf]
    pool = np.concatenate(
        [
            specials,
            edges,
            odd * 2.0**-19,
            rng.uniform(0.0, 1.0, 4000),
            10.0 ** rng.uniform(-8.0, 0.0, 4000),
        ]
    )
    assert np.all(odd * 2.0**-19 >= 0.01) and np.all(odd * 2.0**-19 < 0.1)
    return pool


def field_of(values, shape, seed=0) -> ProbabilityField:
    """A field whose three channels hold ``values``, shuffled, and a random mask."""
    rng = np.random.default_rng(seed)
    npix = shape[0] * shape[1]
    picks = np.resize(rng.permutation(values), 3 * npix)
    prob = ProbabilityField.empty(*shape)
    prob.p_min[:], prob.p_max[:], prob.p_saddle[:] = picks.reshape(3, *shape)
    prob.valid[:] = rng.random(shape) < 0.5
    return prob


class TestCsvWriter:
    def assert_reference_bytes(self, prob, tmp_path):
        path, ref = tmp_path / "prob.csv", tmp_path / "ref.csv"
        save_probability_field(prob, path, format="csv")
        reference_csv(prob, ref)
        assert path.read_bytes() == ref.read_bytes()

    def test_value_pool_matches_reference(self, tmp_path):
        pool = csv_value_pool()
        width = 127
        prob = field_of(pool, (-(-len(pool) // width), width))
        self.assert_reference_bytes(prob, tmp_path)

    @pytest.mark.parametrize("block", [1, 7, field_io.CSV_BLOCK])
    @pytest.mark.parametrize("shape", [(7, 13), (5, 11)])
    def test_blocks_end_anywhere(self, tmp_path, monkeypatch, block, shape):
        # 7-pixel blocks end mid-row; on 7 x 13 the last one ends at the last pixel
        monkeypatch.setattr(field_io, "CSV_BLOCK", block)
        specials = np.array([0.0, -0.0, 1.0, 5243 * 2.0**-19, np.nextafter(1e-4, 0.0), 1e-300, 2.0])
        prob = field_of(np.concatenate([specials, csv_value_pool()[-200:]]), shape, seed=block)
        prob.p_min.reshape(-1)[: len(specials)] = specials
        self.assert_reference_bytes(prob, tmp_path)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
    def test_any_float_matches_reference(self, values):
        prob = ProbabilityField.empty(1, len(values))
        prob.p_min[0] = values
        prob.p_max[0] = values[::-1]
        prob.p_saddle[0] = np.roll(values, 1)
        prob.valid[0, ::2] = True
        with tempfile.TemporaryDirectory() as tmp:
            self.assert_reference_bytes(prob, Path(tmp))

    def test_block_working_set(self, tmp_path):
        # the 254 x 254 closed-form uniform classify peaks at about 4 MiB
        # (tracemalloc); the write of its table stays well under that
        prob = field_of(np.random.default_rng(3).uniform(0.0, 1.0, 3 * 254 * 254), (254, 254))
        tracemalloc.start()
        try:
            save_probability_field(prob, tmp_path / "prob.csv", format="csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestEnsembleRoundtrip:
    def test_values_identical(self, tmp_path):
        stack = sample_stack()
        path = tmp_path / "stack.ucvf"
        save_ensemble(stack, path)
        loaded = load_ensemble(path)
        assert np.array_equal(loaded.values, stack.values)
        assert loaded.values.shape == stack.values.shape

    def test_resave_is_byte_identical(self, tmp_path):
        stack = sample_stack(3)
        p1, p2 = tmp_path / "a.ucvf", tmp_path / "b.ucvf"
        save_ensemble(stack, p1)
        save_ensemble(load_ensemble(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_stack_is_writable_float32(self, tmp_path):
        path = tmp_path / "stack.ucvf"
        save_ensemble(sample_stack(), path)
        values = load_ensemble(path).values
        assert values.dtype == np.float32
        assert values.flags.c_contiguous and values.flags.writeable and values.flags.owndata
        values[0, 0, 0] = 1.5
        assert values[0, 0, 0] == 1.5

    def test_load_reads_payload_once(self, tmp_path):
        # 40 x 128 x 128 members, a 2.5 MiB payload: read into the stack's
        # own array, with no bytes copy and no second array
        stack = EnsembleStack(np.random.default_rng(2).normal(size=(40, 128, 128)))
        path = tmp_path / "big.ucvf"
        save_ensemble(stack, path)
        load_ensemble(path)
        tracemalloc.start()
        try:
            loaded = load_ensemble(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.values, stack.values)
        assert peak < 1.1 * stack.values.nbytes

    def test_header_contents(self, tmp_path):
        path = tmp_path / "stack.ucvf"
        save_ensemble(sample_stack(), path)
        header = path.read_bytes().split(b"\n", 1)[0]
        assert header == b"UCVF1 7 6 5"


class TestUcvfErrors:
    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "stack.ucvf"
        save_ensemble(sample_stack(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(UcvfPayloadError):
            load_ensemble(path)

    def test_extra_payload(self, tmp_path):
        path = tmp_path / "stack.ucvf"
        save_ensemble(sample_stack(), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(UcvfPayloadError):
            load_ensemble(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "stack.ucvf"
        save_ensemble(sample_stack(), path)
        raw = path.read_bytes()
        path.write_bytes(b"XCVF1" + raw[5:])
        with pytest.raises(UcvfFormatError):
            load_ensemble(path)

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "stack.ucvf"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(UcvfFormatError):
            load_ensemble(path)

    def test_bad_dimensions(self, tmp_path):
        path = tmp_path / "stack.ucvf"
        path.write_bytes(b"UCVF1 0 4 1\n")
        with pytest.raises(UcvfFormatError):
            load_ensemble(path)
        path.write_bytes(b"UCVF1 x 4 1\n")
        with pytest.raises(UcvfFormatError):
            load_ensemble(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "one.ucvf"
        payload = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(b"UCVF1 1 1 1\n" + payload)
        with pytest.raises(UcvfValueError):
            load_ensemble(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_every_loader(self, tmp_path, bad):
        planes = np.zeros((4, 3, 5), dtype="<f4")
        planes[3, 2, 4] = bad
        path = tmp_path / "bad.ucvf"
        path.write_bytes(b"UCVF1 5 3 4\n" + planes.tobytes())
        with pytest.raises(UcvfValueError):
            load_ensemble(path)
        with pytest.raises(UcvfValueError):
            load_probability_field(path)
        path.write_bytes(b"UCVF1 5 3 1\n" + planes[3].tobytes())
        with pytest.raises(UcvfValueError):
            load_scalar_field(path)

    def test_short_payload_every_loader(self, tmp_path):
        path = tmp_path / "short.ucvf"
        path.write_bytes(b"UCVF1 5 3 4\n" + np.zeros(59, dtype="<f4").tobytes())
        for load in (load_ensemble, load_probability_field):
            with pytest.raises(UcvfPayloadError, match="payload holds 236 bytes, header implies 240"):
                load(path)
        path.write_bytes(b"UCVF1 5 3 1\n" + b"\x00" * 61)
        with pytest.raises(UcvfPayloadError, match="payload holds 61 bytes"):
            load_scalar_field(path)

    def test_error_hierarchy(self):
        assert issubclass(UcvfFormatError, UcvfError)
        assert issubclass(UcvfPayloadError, UcvfError)
        assert issubclass(UcvfValueError, UcvfError)


class TestProbabilityRoundtrip:
    def test_ucvf_resave_byte_identical(self, tmp_path):
        prob = sample_prob()
        p1, p2 = tmp_path / "a.ucvf", tmp_path / "b.ucvf"
        save_probability_field(prob, p1)
        save_probability_field(load_probability_field(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_ucvf_mask_round_trips(self, tmp_path):
        prob = sample_prob()
        path = tmp_path / "prob.ucvf"
        save_probability_field(prob, path)
        loaded = load_probability_field(path)
        assert np.array_equal(loaded.valid, prob.valid)
        assert loaded.p_min == pytest.approx(prob.p_min, abs=1e-7)

    def test_ucvf_channel_count_check(self, tmp_path):
        path = tmp_path / "stack.ucvf"
        save_ensemble(sample_stack(), path)  # 5 channels, not 4
        with pytest.raises(UcvfFormatError):
            load_probability_field(path)

    def test_csv_row_count(self, tmp_path):
        prob = sample_prob(shape=(5, 6))
        path = tmp_path / "prob.csv"
        save_probability_field(prob, path, format="csv")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 5 * 6 + 1
        assert lines[0] == "x,y,p_min,p_max,p_saddle,valid"

    def test_csv_round_trip_exact(self, tmp_path):
        prob = sample_prob(seed=7)
        path = tmp_path / "prob.csv"
        save_probability_field(prob, path, format="csv")
        loaded = load_probability_field(path, format="csv")
        # 17 significant digits reproduce float64 exactly, well under 1e-9
        assert np.array_equal(loaded.p_min, prob.p_min)
        assert np.array_equal(loaded.p_max, prob.p_max)
        assert np.array_equal(loaded.p_saddle, prob.p_saddle)
        assert np.array_equal(loaded.valid, prob.valid)

    def test_csv_single_pixel_round_trips(self, tmp_path):
        prob = ProbabilityField.empty(1, 1)
        prob.p_min[0, 0], prob.p_max[0, 0], prob.p_saddle[0, 0] = 0.25, 0.1, 0.0
        prob.valid[0, 0] = True
        path = tmp_path / "one.csv"
        save_probability_field(prob, path, format="csv")
        loaded = load_probability_field(path, format="csv")
        for name in ("p_min", "p_max", "p_saddle", "valid"):
            assert np.array_equal(getattr(loaded, name), getattr(prob, name))

    @pytest.mark.filterwarnings("ignore:loadtxt")
    def test_csv_truncated_row_raises(self, tmp_path):
        path = tmp_path / "prob.csv"
        save_probability_field(sample_prob(), path, format="csv")
        lines = path.read_text().split("\n")
        lines[3] = lines[3].rsplit(",", 2)[0]
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError):
            load_probability_field(path, format="csv")
        path.write_text("\n".join(lines[:1]))  # header only
        with pytest.raises(ValueError):
            load_probability_field(path, format="csv")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,2,nan,0.5,0,1", "non-finite"),
            ("1,2,0.25,inf,0,1", "non-finite"),
            ("inf,2,0.25,0.5,0,1", "non-finite"),
            ("-1,2,0.25,0.5,0,1", "non-negative integers"),
            ("1,-1,0.25,0.5,0,1", "non-negative integers"),
            ("1.7,2,0.25,0.5,0,1", "non-negative integers"),
            ("1,0.5,0.25,0.5,0,1", "non-negative integers"),
        ],
    )
    def test_csv_bad_row_raises(self, tmp_path, row, message):
        # the UCVF reader refuses non-finite values; a coordinate of -1
        # would wrap into the last column and 1.7 would land in column 1
        path = tmp_path / "prob.csv"
        save_probability_field(sample_prob(), path, format="csv")
        lines = path.read_text().split("\n")
        lines[4] = row
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=message):
            load_probability_field(path, format="csv")

    @pytest.mark.parametrize("edit", ["drop", "repeat", "move"])
    def test_csv_needs_every_pixel_once(self, tmp_path, edit):
        # a 4 x 5 table; line 1 + 1 * 4 + 2 is the row of (x, y) = (2, 1)
        path = tmp_path / "prob.csv"
        save_probability_field(sample_prob(shape=(5, 4)), path, format="csv")
        lines = path.read_text().splitlines()
        at = 1 + 1 * 4 + 2
        assert lines[at].startswith("2,1,")
        if edit == "drop":
            del lines[at]
        elif edit == "repeat":
            lines.append("2,1,0.25,0.25,0.25,1")
        else:  # a repeat in place of a dropped row, so the count is right
            lines[at] = "1,1,0.25,0.25,0.25,1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="each pixel of its 4 x 5 grid once"):
            load_probability_field(path, format="csv")

    def test_csv_integral_float_coordinates_load(self, tmp_path):
        path = tmp_path / "prob.csv"
        path.write_text("x,y,p_min,p_max,p_saddle,valid\n1.0,0,0.25,0.5,0,1\n0,0e0,0,0,0,0\n")
        loaded = load_probability_field(path, format="csv")
        assert loaded.p_min.shape == (1, 2)
        assert loaded.p_max[0, 1] == 0.5 and loaded.valid[0, 1] and not loaded.valid[0, 0]

    def test_ucvf_payload_is_float32_of_channels(self, tmp_path):
        prob = sample_prob(seed=5)
        path = tmp_path / "prob.ucvf"
        save_probability_field(prob, path)
        planes = np.stack([prob.p_min, prob.p_max, prob.p_saddle, prob.valid.astype(np.float64)])
        assert path.read_bytes() == b"UCVF1 6 5 4\n" + planes.astype("<f4").tobytes()

    def test_ucvf_write_working_set(self, tmp_path):
        # the 256 x 256 float32 planes take 1.00 MiB, and the write peaks
        # at 1.005 MiB (tracemalloc), so the payload is written without a
        # second copy; the bound is that peak plus 20%
        shape = (256, 256)
        prob = field_of(np.random.default_rng(3).uniform(0.0, 1.0, 3 * 256 * 256), shape)
        save_probability_field(prob, tmp_path / "warm.ucvf")  # first-call caches
        tracemalloc.start()
        try:
            save_probability_field(prob, tmp_path / "prob.ucvf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 2**20
        assert (tmp_path / "prob.ucvf").read_bytes() == (tmp_path / "warm.ucvf").read_bytes()

    def test_masked_pixels_serialized_invalid(self, tmp_path):
        prob = sample_prob()
        path = tmp_path / "prob.csv"
        save_probability_field(prob, path, format="csv")
        first_row = path.read_text().strip().split("\n")[1]
        assert first_row.endswith(",0")  # (0, 0) is on the masked border

    def test_unknown_format(self, tmp_path):
        prob = sample_prob()
        with pytest.raises(ValueError):
            save_probability_field(prob, tmp_path / "x.bin", format="json")
        with pytest.raises(ValueError):
            load_probability_field(tmp_path / "x.bin", format="json")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_probability_field(tmp_path / "nope.ucvf")


class TestHeatmap:
    def read_pgm(self, path):
        raw = path.read_bytes()
        header, pixels = raw.split(b"\n", 1)
        magic, w, h, maxval = header.split()
        assert magic == b"P5" and maxval == b"255"
        return np.frombuffer(pixels, dtype=np.uint8).reshape(int(h), int(w))

    def test_all_zero_is_black(self, tmp_path):
        prob = ProbabilityField.empty(4, 5)
        prob.valid[:] = True
        path = tmp_path / "zero.pgm"
        export_heatmap(prob, "min", path)
        assert np.all(self.read_pgm(path) == 0)

    def test_unit_probability_is_white(self, tmp_path):
        prob = ProbabilityField.empty(3, 3)
        prob.valid[:] = True
        prob.p_max[1, 1] = 1.0
        path = tmp_path / "one.pgm"
        export_heatmap(prob, "max", path)
        img = self.read_pgm(path)
        assert img[1, 1] == 255
        assert img[0, 0] == 0

    def test_masked_pixels_black(self, tmp_path):
        prob = ProbabilityField.empty(3, 3)
        prob.p_min[:] = 0.9  # probabilities present but everything masked
        path = tmp_path / "masked.pgm"
        export_heatmap(prob, "min", path)
        assert np.all(self.read_pgm(path) == 0)

    def test_gamma_brightens_midrange(self, tmp_path):
        prob = ProbabilityField.empty(1, 9)
        prob.valid[:] = True
        prob.p_min[0] = np.linspace(0.1, 0.9, 9)
        flat = tmp_path / "flat.pgm"
        bright = tmp_path / "bright.pgm"
        export_heatmap(prob, "min", flat, gamma=1.0)
        export_heatmap(prob, "min", bright, gamma=0.5)
        a = self.read_pgm(flat).astype(int)
        b = self.read_pgm(bright).astype(int)
        assert np.all(b >= a)
        assert np.all(b[0, :-1] > a[0, :-1])  # strict in the interior
        assert np.all(np.diff(b[0]) > 0)  # still monotone in p

    def test_rounding(self, tmp_path):
        prob = ProbabilityField.empty(1, 2)
        prob.valid[:] = True
        prob.p_min[0] = [0.5, 0.25]
        path = tmp_path / "round.pgm"
        export_heatmap(prob, "min", path)
        img = self.read_pgm(path)
        assert img[0, 0] == round(255 * 0.5)
        assert img[0, 1] == round(255 * 0.25)

    def test_validation(self, tmp_path):
        prob = sample_prob()
        with pytest.raises(ValueError):
            export_heatmap(prob, "ridge", tmp_path / "x.pgm")
        with pytest.raises(ValueError):
            export_heatmap(prob, "min", tmp_path / "x.pgm", gamma=0.0)
        for gamma in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="gamma must be positive and finite"):
                export_heatmap(prob, "min", tmp_path / "x.pgm", gamma=gamma)
        assert not (tmp_path / "x.pgm").exists()


class TestScalarField:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        raster = rng.uniform(-1.0, 1.0, (4, 6)).astype(np.float32).astype(np.float64)
        path = tmp_path / "scalar.ucvf"
        save_scalar_field(raster, path)
        assert np.array_equal(load_scalar_field(path), raster)

    def test_channel_count_check(self, tmp_path):
        path = tmp_path / "stack.ucvf"
        save_ensemble(sample_stack(), path)
        with pytest.raises(UcvfFormatError):
            load_scalar_field(path)

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ValueError):
            save_scalar_field(np.zeros(5), tmp_path / "x.ucvf")
