"""Raster I/O: UCVF binary stacks, CSV probability tables, P5 heatmaps.

UCVF is a minimal bit-exact container: one ASCII header line
"UCVF1 <width> <height> <channels>\n" followed by channels*height*width
IEEE-754 binary32 values, little-endian, row-major within each channel,
channels concatenated.  The same container stores ensembles (one
channel per member) and probability fields (min, max, saddle, mask).
"""

from __future__ import annotations

import itertools

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
        fh.write(data.tobytes())


def _read_ucvf(path) -> tuple[int, int, np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise UcvfFormatError("missing header line")
    try:
        fields = raw[:newline].decode("ascii").split()
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
    payload = raw[newline + 1 :]
    expected = 4 * width * height * channels
    if len(payload) != expected:
        raise UcvfPayloadError(
            f"payload holds {len(payload)} bytes, header implies {expected}"
        )
    planes = np.frombuffer(payload, dtype="<f4").reshape(channels, height, width)
    if not np.isfinite(planes).all():
        raise UcvfValueError("payload holds non-finite values")
    return width, height, planes


def save_ensemble(stack: EnsembleStack, path) -> None:
    _write_ucvf(path, stack.width, stack.height, stack.values)


def load_ensemble(path) -> EnsembleStack:
    _, _, planes = _read_ucvf(path)
    return EnsembleStack(np.array(planes, dtype=np.float32))


def save_probability_field(field: ProbabilityField, path, format: str = "ucvf") -> None:
    """Write (min, max, saddle, mask) channels as UCVF, or a CSV table."""
    if format == "ucvf":
        planes = np.stack(
            [
                field.p_min,
                field.p_max,
                field.p_saddle,
                field.valid.astype(np.float64),
            ]
        )
        height, width = field.p_min.shape
        _write_ucvf(path, width, height, planes)
        return
    if format == "csv":
        height, width = field.p_min.shape
        xs = range(width)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("x,y,p_min,p_max,p_saddle,valid\n")
            # one raster row at a time keeps the formatted text small
            for y in range(height):
                columns = (field.p_min[y], field.p_max[y], field.p_saddle[y], field.valid[y])
                rows = zip(xs, itertools.repeat(y), *(c.tolist() for c in columns))
                fh.write("".join("%d,%d,%.17g,%.17g,%.17g,%d\n" % row for row in rows))
        return
    raise ValueError(f"unknown format {format!r}")


def load_probability_field(path, format: str = "ucvf") -> ProbabilityField:
    if format == "ucvf":
        width, height, planes = _read_ucvf(path)
        if planes.shape[0] != 4:
            raise UcvfFormatError("probability fields carry exactly 4 channels")
        out = ProbabilityField.empty(height, width)
        out.p_min[:] = planes[0]
        out.p_max[:] = planes[1]
        out.p_saddle[:] = planes[2]
        out.valid[:] = planes[3] >= 0.5
        return out
    if format == "csv":
        table = np.genfromtxt(path, delimiter=",", skip_header=1)
        if table.ndim == 1:
            table = table[None, :]
        xs = table[:, 0].astype(int)
        ys = table[:, 1].astype(int)
        height, width = ys.max() + 1, xs.max() + 1
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
    if gamma <= 0:
        raise ValueError("gamma must be positive")
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
    width, height, planes = _read_ucvf(path)
    if planes.shape[0] != 1:
        raise UcvfFormatError("scalar fields carry exactly 1 channel")
    return np.array(planes[0], dtype=np.float64)
