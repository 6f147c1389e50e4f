"""Grid containers: member ensembles, fitted uncertainty fields, results.

An ensemble holds the raw member rasters (float32, members x height x
width).  Fitting reduces it to one bounded distribution per pixel,
stored as flat parameter arrays per model so grid-level math can run
vectorized; ``dist_at`` materializes the distribution object for a
single pixel from those same parameters, so case-level and grid-level
code always see identical values.  One fitter, ``_fit``, serves
both: a single set of samples (``uniform_from_samples`` and its kin)
is fitted as a one-pixel field.

Fits never widen the whole stack to float64.  Ranges come from the
float32 per-pixel minimum and maximum, which float64 holds exactly;
histogram counts, means and standard deviations run over tiles of
whole pixel rows, about ``FIT_TILE`` float64 elements each, so a fit's
working memory is set by the tile and its outputs, not by the member
count.  Each tile runs the same float64 operations, in the same order
per pixel, as one pass over the whole stack would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist
from .distributions import FiniteDistribution, GaussianSampler

MODEL_KINDS = ("uniform", "epanechnikov", "histogram", "gaussian")
CHANNELS = ("min", "max", "saddle")
# Float64 elements in one row tile of a fit (a tile holds at least one
# row).  Swept on 50-member stacks (2-core x86 host, 2 MiB L2 per core,
# numpy 2.4.6; median of 11 to 41 interleaved in-process fits, then the
# tracemalloc peak of one fit), Epanechnikov / histogram(5) times at
# 2**14, 2**15, 2**16 and 2**17 elements: 256 x 256, 21.4 / 34.0,
# 16.3 / 28.6, 12.7 / 27.4 and 14.9 / 28.2 ms, peaks 3.2 / 4.4, 3.3 /
# 4.7, 3.2 / 5.6 and 3.7 / 7.1 MiB; 512 x 512, 62 / 112, 64 / 113,
# 61 / 101 and 58 / 110 ms (quartiles up to 20 ms wide), histogram peak
# 16.9, 16.9, 17.5 and 19.3 MiB.  Smaller tiles pay numpy's fixed cost
# per call on narrow tiles; larger ones raise the histogram peak and
# gain no time.  The uniform fit reads no tiles.
FIT_TILE = 1 << 16


def _float64_tiles(values: np.ndarray):
    """(rows, float64 copy of ``values[:, rows]``) over tiles of whole pixel rows.

    A tile holds about ``FIT_TILE`` values.  None holds a lone pixel of
    a larger raster: numpy sums one pixel's members pairwise but several
    pixels' members one member at a time, so a one-pixel tile would
    round differently from the whole stack.  A last single row of a
    one-column raster joins the tile before it.
    """
    members, height, width = values.shape
    least = 2 if width == 1 and height > 1 else 1
    step = max(least, FIT_TILE // (members * width))
    start = 0
    while start < height:
        stop = start + step
        if height - stop < least:
            stop = height
        rows = slice(start, stop)
        yield rows, values[:, rows].astype(np.float64)
        start = stop


def _widen_degenerate(lo: np.ndarray, hi: np.ndarray, eps: float) -> np.ndarray:
    """Widen zero-width [lo, hi] ranges in place, around lo; return their mask."""
    degenerate = hi <= lo
    center = lo[degenerate]
    half = 0.5 * dist.degenerate_width(center, eps)
    lo[degenerate] = center - half
    hi[degenerate] = center + half
    return degenerate


def _require_finite_supports(lo: np.ndarray, hi: np.ndarray) -> None:
    """Refuse fitted supports whose bounds or widths overflow float64.

    The width hi - lo is finite only where both bounds are.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bad = np.count_nonzero(~np.isfinite(hi - lo))
    if bad:
        raise ValueError(f"{bad} fitted supports overflow float64")


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every value is finite: a NaN or an infinity reaches min or max."""
    return math.isfinite(arr.min()) and math.isfinite(arr.max())


@dataclass(frozen=True)
class ModelSpec:
    """Which distribution family to fit, plus its shape parameters."""

    kind: str
    bins: int = 5
    k: float = math.sqrt(5.0)

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.bins < 1:
            raise ValueError("bins must be at least 1")
        if not self.k > 0.0:
            raise ValueError("k must be positive")


@dataclass
class EnsembleStack:
    """Member rasters, shape (members, height, width), float32."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.ndim != 3:
            raise ValueError("ensemble values must be 3-D (members, height, width)")
        if arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValueError("ensemble needs at least one member and one pixel")
        if not _all_finite(arr):
            raise ValueError("ensemble values must be finite")
        if arr.dtype != np.float32 or not arr.flags.c_contiguous:
            with np.errstate(over="ignore"):
                arr = np.ascontiguousarray(arr, dtype=np.float32)
            if not _all_finite(arr):
                raise ValueError("ensemble values overflow float32")
        self.values = arr

    @property
    def members(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]

    def normalized(self) -> tuple["EnsembleStack", float, float]:
        """Affine copy rescaled to [0, 1]; returns (stack, scale, offset).

        The map is v' = scale * v + offset.  Critical-point probabilities
        are invariant under this map, so it is purely a conditioning aid.
        """
        vmin = float(self.values.min())
        vmax = float(self.values.max())
        if vmax <= vmin:
            return EnsembleStack(self.values.copy()), 1.0, 0.0
        scale = 1.0 / (vmax - vmin)
        offset = -vmin * scale
        rescaled = np.empty_like(self.values)
        for rows, tile in _float64_tiles(self.values):
            rescaled[:, rows] = (tile - vmin) * scale
        return EnsembleStack(rescaled), scale, offset


def _fit(values: np.ndarray, model: ModelSpec, eps: float | None = None) -> dict[str, np.ndarray]:
    """Parameter arrays of ``model`` fitted at every pixel of ``values``.

    ``values`` is a (members, height, width) array of any float dtype.
    ``eps`` is the degenerate-pixel widening; by default it is scaled
    to the range of ``values``.  A range that overflows float64 raises
    ValueError whether or not ``eps`` is given.
    """
    members = values.shape[0]
    if members < 2 and model.kind in ("epanechnikov", "gaussian"):
        raise ValueError(f"{model.kind} fit needs at least two members")
    # float32 and float64 extremes are exact in float64
    if model.kind in ("uniform", "histogram"):
        lo = values.min(axis=0).astype(np.float64)
        hi = values.max(axis=0).astype(np.float64)
        scaled = dist.default_epsilon((lo.min(), hi.max()))
        eps = scaled if eps is None else eps
        degenerate = _widen_degenerate(lo, hi, eps)
        if model.kind == "uniform":
            return {"lo": lo, "hi": hi}
        h = model.bins
        scale = h / (hi - lo)
        weights = np.empty(lo.shape + (h,))
        for rows, tile in _float64_tiles(values):
            tile -= lo[rows]
            tile *= scale[rows]
            idx = np.floor(tile, out=tile).astype(np.intp)
            np.clip(idx, 0, h - 1, out=idx)
            # one count per (pixel, bin), all members in one pass
            pixels = idx[0].size
            idx += h * np.arange(pixels).reshape(idx.shape[1:])
            counts = np.bincount(idx.ravel(), minlength=pixels * h)
            weights[rows] = (counts / members).reshape(idx.shape[1:] + (h,))
        # a constant pixel spreads its widened range evenly over the h bins
        weights[degenerate] = 1.0 / h
        return {"lo": lo, "hi": hi, "weights": weights}
    scaled = dist.default_epsilon((values.min(), values.max()))
    eps = scaled if eps is None else eps
    mean = np.empty(values.shape[1:])
    std = np.empty(values.shape[1:])
    # squares of a finite range may overflow; the checks below refuse it
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, tile in _float64_tiles(values):
            mean[rows] = tile.mean(axis=0)
            std[rows] = tile.std(axis=0, ddof=1)
    if model.kind == "epanechnikov":
        with np.errstate(over="ignore"):
            halfwidth = np.maximum(model.k * std, 0.5 * dist.degenerate_width(mean, eps))
            _require_finite_supports(mean - halfwidth, mean + halfwidth)
        return {"mean": mean, "halfwidth": halfwidth}
    return {"mean": mean, "stddev": std}


class UncertainField:
    """One fitted distribution per pixel, stored as parameter arrays.

    ``params`` holds (height, width)-shaped arrays whose names depend on
    the model kind:

    - uniform:       lo, hi
    - epanechnikov:  mean, halfwidth
    - histogram:     lo, hi, weights (height, width, bins)
    - gaussian:      mean, stddev

    The kernels read a bounded kind as its support, as ``dist_at`` does.
    """

    def __init__(self, model: ModelSpec, params: dict[str, np.ndarray]) -> None:
        self.model = model
        self.params = params
        first = next(iter(params.values()))
        self.height = int(first.shape[0])
        self.width = int(first.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return self.height, self.width

    def dist_at(self, row: int, col: int):
        """Materialize the pixel's distribution from the stored parameters."""
        p = self.params
        kind = self.model.kind
        if kind == "uniform":
            return dist.uniform(p["lo"][row, col], p["hi"][row, col])
        if kind == "epanechnikov":
            return dist.epanechnikov(p["mean"][row, col], p["halfwidth"][row, col])
        if kind == "histogram":
            return dist.histogram(
                p["lo"][row, col], p["hi"][row, col], p["weights"][row, col]
            )
        return GaussianSampler(float(p["mean"][row, col]), float(p["stddev"][row, col]))

    # -- fitting -----------------------------------------------------------

    @classmethod
    def from_ensemble(cls, stack: EnsembleStack, model: ModelSpec) -> "UncertainField":
        """Fit the chosen model independently at every pixel.

        Degenerate pixels (all members equal) are widened by an epsilon
        proportional to the global data range, and by at least
        ``distributions.DEGENERATE_ULPS`` ulps of their value, so every
        support has positive width; a degenerate histogram pixel gets
        equal bin weights.  The per-case ``*_from_samples`` fitters are
        one-pixel fits of this same fitter.  Raises ValueError when the
        value range overflows float64, or an Epanechnikov support does
        (a large ``k``).
        """
        return cls(model, _fit(stack.values, model))

    @classmethod
    def from_scalar(cls, values: np.ndarray, error_bound: float) -> "UncertainField":
        """Uniform field from a plain raster with a +/- error_bound / 2 band.

        Pixels whose band has no width (a zero bound, or one below the
        value's ulp) get the degenerate-pixel widening of
        ``from_ensemble``, so supports keep positive width.  Raises
        ValueError when the value range or a band overflows float64.
        """
        if not error_bound >= 0.0:
            raise ValueError("error bound must be nonnegative")
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("scalar field must be 2-D")
        if arr.size == 0:
            raise ValueError("scalar field needs at least one pixel")
        vmin, vmax = arr.min(), arr.max()
        if not (math.isfinite(vmin) and math.isfinite(vmax)):
            raise ValueError("scalar field values must be finite")
        eps = dist.default_epsilon((vmin, vmax))
        half = 0.5 * error_bound
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = arr - half, arr + half
            _widen_degenerate(lo, hi, eps)
        _require_finite_supports(lo, hi)
        return cls(ModelSpec("uniform"), {"lo": lo, "hi": hi})


# -- per-case fits: one-pixel fields ------------------------------------

def _fit_samples(samples, model: ModelSpec, eps: float | None) -> FiniteDistribution:
    """The distribution ``_fit`` gives a one-pixel field of ``samples``."""
    arr = np.asarray(samples, dtype=float).reshape(-1, 1, 1)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return UncertainField(model, _fit(arr, model, eps)).dist_at(0, 0)


def uniform_from_samples(samples, eps: float | None = None) -> FiniteDistribution:
    """Range-fitted uniform; a degenerate range is widened by ``degenerate_width``."""
    return _fit_samples(samples, ModelSpec("uniform"), eps)


def epanechnikov_from_samples(
    samples, k: float = math.sqrt(5.0), eps: float | None = None
) -> FiniteDistribution:
    """Moment-fitted quadratic bump: mean +/- k * sample stddev.

    The default k = sqrt(5) makes the fitted variance equal the sample
    variance.  The halfwidth is at least half ``degenerate_width``, so a
    zero-spread sample set is widened.
    """
    return _fit_samples(samples, ModelSpec("epanechnikov", k=k), eps)


def histogram_from_samples(samples, bins: int, eps: float | None = None) -> FiniteDistribution:
    """Equal-width histogram over the sample range.

    A sample equal to the top edge lands in the last bin.  All-equal
    samples give equal weights over ``bins`` bins, ``degenerate_width``
    wide.
    """
    return _fit_samples(samples, ModelSpec("histogram", bins=bins), eps)


@dataclass
class ProbabilityField:
    """Per-pixel probabilities of each critical-point type.

    The one-pixel border has no full neighborhood and is marked invalid
    (``valid`` False, probabilities zero).
    """

    p_min: np.ndarray
    p_max: np.ndarray
    p_saddle: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        shape = self.p_min.shape
        for arr in (self.p_max, self.p_saddle, self.valid):
            if arr.shape != shape:
                raise ValueError("all channels must share one shape")

    @property
    def shape(self) -> tuple[int, int]:
        return self.p_min.shape

    def channel(self, name: str) -> np.ndarray:
        if name not in CHANNELS:
            raise ValueError(f"unknown channel {name!r}")
        return {"min": self.p_min, "max": self.p_max, "saddle": self.p_saddle}[name]

    @classmethod
    def empty(cls, height: int, width: int) -> "ProbabilityField":
        zero = np.zeros((height, width), dtype=np.float64)
        return cls(zero, zero.copy(), zero.copy(), np.zeros((height, width), dtype=bool))
