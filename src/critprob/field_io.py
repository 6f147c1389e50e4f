"""Raster I/O: UCVF binary stacks, CSV probability tables, P5 heatmaps.

UCVF is a minimal bit-exact container: one ASCII header line
"UCVF1 <width> <height> <channels>\n" followed by channels*height*width
IEEE-754 binary32 values, little-endian, row-major within each channel,
channels concatenated.  The same container stores ensembles (one
channel per member) and probability fields (min, max, saddle, mask).

The CSV table has one row "x,y,p_min,p_max,p_saddle,valid" per pixel,
each probability written exactly as ``%.17g`` writes it, so it reads
back to the same float64.  The writer builds the text of ``CSV_BLOCK``
pixels at a time in numpy, with no per-value formatting for the usual
values: a probability in [1e-4, 1) is m * 2**q with m a 53-bit
integer, its 17 significant decimal digits are m * 5**k / 2**s rounded
half to even, formed exactly in two uint64 limbs, and they are written
after "0." and the leading zeros; +0.0 and 1.0 are "0" and "1".  Each
field of a block goes at fixed places of one uint8 matrix, NUL where a
shorter text leaves places empty, and the non-NUL characters in row
order are the block's text.  Other values (negative, -0.0, above 1,
below 1e-4, non-finite) are formatted one at a time by ``%``.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .fields import CHANNELS, EnsembleStack, ProbabilityField

UCVF_MAGIC = "UCVF1"


class UcvfError(Exception):
    """Base for UCVF parsing failures."""


class UcvfFormatError(UcvfError):
    """Header is not a UCVF header."""


class UcvfPayloadError(UcvfError):
    """Header and payload length disagree."""


class UcvfValueError(UcvfError):
    """Payload holds non-finite values."""


def _write_ucvf(path, width: int, height: int, planes: np.ndarray) -> None:
    header = f"{UCVF_MAGIC} {width} {height} {planes.shape[0]}\n"
    data = np.ascontiguousarray(planes, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data)


def _read_ucvf(path) -> tuple[int, int, np.ndarray]:
    """Header dimensions and a new (channels, height, width) float32 array.

    The payload is read straight into the array, with no bytes copy;
    its values are not checked here.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n"):
            raise UcvfFormatError("missing header line")
        try:
            fields = header.decode("ascii").split()
        except UnicodeDecodeError as exc:
            raise UcvfFormatError("header is not ASCII") from exc
        if len(fields) != 4 or fields[0] != UCVF_MAGIC:
            raise UcvfFormatError(f"expected '{UCVF_MAGIC} <w> <h> <c>' header")
        try:
            width, height, channels = (int(v) for v in fields[1:])
        except ValueError as exc:
            raise UcvfFormatError("header dimensions are not integers") from exc
        if width < 1 or height < 1 or channels < 1:
            raise UcvfFormatError("header dimensions must be positive")
        size = os.fstat(fh.fileno()).st_size - len(header)
        expected = 4 * width * height * channels
        if size != expected:
            raise UcvfPayloadError(f"payload holds {size} bytes, header implies {expected}")
        planes = np.empty((channels, height, width), dtype="<f4")
        read = fh.readinto(planes)
        if read != expected:
            raise UcvfPayloadError(f"payload holds {read} bytes, header implies {expected}")
    return width, height, planes


def _read_finite_ucvf(path) -> tuple[int, int, np.ndarray]:
    width, height, planes = _read_ucvf(path)
    if not np.isfinite(planes).all():
        raise UcvfValueError("payload holds non-finite values")
    return width, height, planes


def save_ensemble(stack: EnsembleStack, path) -> None:
    _write_ucvf(path, stack.width, stack.height, stack.values)


def load_ensemble(path) -> EnsembleStack:
    """The member stack of an ensemble UCVF, kept in the array it was read into."""
    _, _, planes = _read_ucvf(path)
    try:
        return EnsembleStack(planes)
    except ValueError as exc:  # the stack's own finiteness check
        raise UcvfValueError("payload holds non-finite values") from exc


_CSV_HEADER = b"x,y,p_min,p_max,p_saddle,valid\n"
_CSV_SEPARATORS = b",,,,,\n"
# Pixels per CSV block.  Swept on a 256 x 256 table of closed-form
# uniform probabilities (2-core x86 host, 2 MiB L2 per core, numpy
# 2.4.6; median of 15 interleaved in-process writes, then the
# tracemalloc peak of one write): 1024 pixels 129 ms / 0.27 MiB, 2048
# 85 / 0.52, 4096 66 / 1.03, 8192 54 / 2.06, 16384 50 / 4.10, 32768
# 56 / 8.20, 65536 65 / 16.4.  Small blocks pay the fixed numpy calls
# of each block; the peak doubles with the block, and from 8192 on
# the time no longer falls by more than the spread (quartiles about
# 10 ms wide).
CSV_BLOCK = 8192
_ZERO = ord("0")
# "0." + up to three zeros + 17 digits: the widest fast-path value
_FIXED_WIDTH = 22
# the longest %.17g text of any float64, as of -2.2250738585072014e-308
_FLOAT_WIDTH = 24
_POW5 = np.array([5**k for k in range(22)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)


def _decimal17(x, e10):
    """round-half-even(x * 10**(16 - e10)) exactly, for x in [1e-4, 1).

    With x = m * 2**q, m a 53-bit integer, and k = 16 - e10, that is
    m * 5**k / 2**s with s = -(k + q), between 32 and 50 here.  For
    k <= 21, 5**k < 2**49, so m * 5**k is formed exactly in two uint64
    limbs from 32-bit halves, and quotient and remainder are read off them.
    """
    mant, exp = np.frexp(x)
    m = np.ldexp(mant, 53).astype(np.uint64)
    k = 16 - e10
    s = (53 - k - exp).astype(np.uint64)
    p = _POW5[k]
    m_hi, m_lo = m >> np.uint64(32), m & _LOW32
    p_hi, p_lo = p >> np.uint64(32), p & _LOW32
    low = m_lo * p_lo
    cross = m_hi * p_lo + m_lo * p_hi
    lo = low + ((cross & _LOW32) << np.uint64(32))
    hi = m_hi * p_hi + (cross >> np.uint64(32)) + (lo < low)
    d = (hi << (np.uint64(64) - s)) | (lo >> s)
    rest = lo & ((np.uint64(1) << s) - np.uint64(1))
    half = np.uint64(1) << (s - np.uint64(1))
    d += (rest > half) | ((rest == half) & ((d & np.uint64(1)) == 1))
    return d


def _put_float(v, chars) -> None:
    """Write ``v`` as ``%.17g`` into the (``_FLOAT_WIDTH``, pixels) ``chars``.

    Each column of ``chars`` takes one value, NUL where it has no
    character.  Values in [1e-4, 1) are written as "0." + (-e10 - 1)
    zeros + their 17 significant digits less trailing zeros, and +0.0
    and 1.0 as "0" and "1".  Every other value (-0.0, negative, above 1,
    below 1e-4, non-finite) is formatted on its own by ``%``.
    """
    fast = (v >= 1e-4) & (v < 1.0)
    unit = (v == 1.0) | ((v == 0.0) & ~np.signbit(v))
    x = np.where(fast, v, 0.5)  # the other columns are overwritten below
    e10 = np.floor(np.log10(x)).astype(np.int64)
    d = _decimal17(x, e10)
    # log10 may miss the exponent by one beside a power of ten, and a
    # rounding up to 10**17 moves it up one, as %g takes it; one step back
    # into [10**16, 10**17) settles both
    step = (d >= 10**17).astype(np.int64) - (d < 10**16)
    redo = np.flatnonzero(step)
    if redo.size:
        e10[redo] += step[redo]
        d[redo] = _decimal17(x[redo], e10[redo])
    chars[0] = _ZERO
    chars[1] = ord(".")
    chars[2:5] = _ZERO * (np.arange(3)[:, None] < -1 - e10)
    chars[_FIXED_WIDTH:] = 0
    # digits last to first, from the uint32 halves below and above 10**9
    # (rows 13-21 and 5-12): a uint32 floor division by a scalar is the
    # fast one; a digit is written once it or a later one is nonzero
    seen = np.zeros(len(v), dtype=bool)
    high = d // np.uint64(10**9)
    for part, rows in ((d - high * np.uint64(10**9), range(21, 12, -1)), (high, range(12, 4, -1))):
        part = part.astype(np.uint32)
        for j in rows:
            quot = part // np.uint32(10)
            digit = part - quot * np.uint32(10)
            seen |= digit != 0
            np.multiply(digit + _ZERO, seen, out=chars[j], casting="unsafe")
            part = quot
    cols = np.flatnonzero(unit)
    chars[0, cols] = _ZERO + (v[cols] == 1.0)
    chars[1:, cols] = 0
    cols = np.flatnonzero(~(fast | unit))
    if cols.size:
        texts = [("%.17g" % t).encode("ascii") for t in v[cols].tolist()]
        text = np.array(texts, dtype=f"S{_FLOAT_WIDTH}").view(np.uint8)
        chars[:, cols] = text.reshape(cols.size, _FLOAT_WIDTH).T


def _put_int(v, chars) -> None:
    """Write non-negative integers ``v`` as ``%d`` into (W, pixels) ``chars``, NUL in front."""
    for j in range(len(chars) - 1, -1, -1):
        quot = v // 10
        chars[j] = v - quot * 10 + _ZERO
        if j < len(chars) - 1:
            chars[j] *= v > 0
        v = quot


def _csv_rows(xs, ys, floats, valid, int_widths) -> bytes:
    """The CSV rows of one block of pixels, as ``%d,%d,%.17g,%.17g,%.17g,%d``.

    Each field is laid out at fixed places in one (columns, pixels)
    uint8 matrix, right-aligned for integers, then a row for its
    separator, with NUL where a shorter text leaves places empty.  Read
    as (pixels, columns), row-major, the non-NUL characters are the text.
    """
    widths = [*int_widths, _FLOAT_WIDTH, _FLOAT_WIDTH, _FLOAT_WIDTH, 1]
    ends = np.cumsum(np.add(widths, 1))
    chars = np.empty((ends[-1], len(xs)), dtype=np.uint8)
    slots = [chars[e - w - 1 : e - 1] for e, w in zip(ends, widths)]
    for e, sep in zip(ends, _CSV_SEPARATORS):
        chars[e - 1] = sep
    _put_int(xs, slots[0])
    _put_int(ys, slots[1])
    for v, slot in zip(floats, slots[2:5]):
        _put_float(v, slot)
    slots[5][0] = valid + _ZERO
    rows = chars.T
    return rows[rows != 0].tobytes()


def _write_csv(field: ProbabilityField, path) -> None:
    height, width = field.p_min.shape
    npix = height * width
    floats = [c.reshape(-1) for c in (field.p_min, field.p_max, field.p_saddle)]
    valid = field.valid.reshape(-1)
    int_widths = (len(str(width - 1)), len(str(height - 1)))
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER)
        for start in range(0, npix, CSV_BLOCK):
            stop = min(start + CSV_BLOCK, npix)
            ys, xs = np.divmod(np.arange(start, stop), width)
            block = [c[start:stop] for c in floats]
            fh.write(_csv_rows(xs, ys, block, valid[start:stop], int_widths))


def save_probability_field(field: ProbabilityField, path, format: str = "ucvf") -> None:
    """Write (min, max, saddle, mask) channels as UCVF, or a CSV table."""
    if format == "ucvf":
        height, width = field.p_min.shape
        planes = np.empty((4, height, width), dtype="<f4")
        for plane, channel in zip(planes, (field.p_min, field.p_max, field.p_saddle, field.valid)):
            plane[...] = channel
        _write_ucvf(path, width, height, planes)
        return
    if format == "csv":
        _write_csv(field, path)
        return
    raise ValueError(f"unknown format {format!r}")


def load_probability_field(path, format: str = "ucvf") -> ProbabilityField:
    if format == "ucvf":
        width, height, planes = _read_finite_ucvf(path)
        if planes.shape[0] != 4:
            raise UcvfFormatError("probability fields carry exactly 4 channels")
        out = ProbabilityField.empty(height, width)
        out.p_min[:] = planes[0]
        out.p_max[:] = planes[1]
        out.p_saddle[:] = planes[2]
        out.valid[:] = planes[3] >= 0.5
        return out
    if format == "csv":
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape[0] == 0 or table.shape[1] != 6:
            raise ValueError(f"expected rows of 6 fields, read a {table.shape} table")
        if not np.isfinite(table).all():
            raise ValueError("CSV table holds non-finite values")
        coords = table[:, :2]
        if np.any(coords < 0.0) or np.any(coords != np.floor(coords)):
            raise ValueError("CSV pixel coordinates must be non-negative integers")
        xs, ys = coords.T.astype(int)
        height, width = ys.max() + 1, xs.max() + 1
        # the writer writes every pixel once; a dropped row would load as
        # p = 0 and invalid, and a repeated one would overwrite the first
        if table.shape[0] != height * width or np.any(np.bincount(ys * width + xs) != 1):
            raise ValueError(
                f"CSV table must hold each pixel of its {width} x {height} grid once, "
                f"read {table.shape[0]} rows"
            )
        out = ProbabilityField.empty(height, width)
        out.p_min[ys, xs] = table[:, 2]
        out.p_max[ys, xs] = table[:, 3]
        out.p_saddle[ys, xs] = table[:, 4]
        out.valid[ys, xs] = table[:, 5] >= 0.5
        return out
    raise ValueError(f"unknown format {format!r}")


def export_heatmap(field: ProbabilityField, channel: str, path, gamma: float = 1.0) -> None:
    """8-bit grayscale P5 image of one channel; masked pixels are black."""
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError("gamma must be positive and finite")
    p = np.clip(field.channel(channel), 0.0, 1.0)
    gray = np.round(255.0 * p**gamma)
    gray[~field.valid] = 0.0
    height, width = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5 {width} {height} 255\n".encode("ascii"))
        fh.write(gray.astype(np.uint8).tobytes())


def save_scalar_field(values: np.ndarray, path) -> None:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("scalar field must be a 2-D raster")
    _write_ucvf(path, arr.shape[1], arr.shape[0], arr[None].astype(np.float32))


def load_scalar_field(path) -> np.ndarray:
    width, height, planes = _read_finite_ucvf(path)
    if planes.shape[0] != 1:
        raise UcvfFormatError("scalar fields carry exactly 1 channel")
    return np.array(planes[0], dtype=np.float64)
