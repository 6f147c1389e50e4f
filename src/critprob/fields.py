"""Grid containers: member ensembles, fitted uncertainty fields, results.

An ensemble holds the raw member rasters (float32, members x height x
width).  Fitting reduces it to one bounded distribution per pixel,
stored as flat parameter arrays per model so grid-level math can run
vectorized; ``dist_at`` materializes the distribution object for a
single pixel from those same parameters, so case-level and grid-level
code always see identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist
from .distributions import FiniteDistribution, GaussianSampler, Support

MODEL_KINDS = ("uniform", "epanechnikov", "histogram", "gaussian")
CHANNELS = ("min", "max", "saddle")


def _widen_degenerate(lo: np.ndarray, hi: np.ndarray, eps: float):
    """Replace zero-width [lo, hi] ranges by a widened range around lo."""
    degenerate = hi <= lo
    half = 0.5 * dist.degenerate_width(lo, eps)
    return np.where(degenerate, lo - half, lo), np.where(degenerate, lo + half, hi)


def _require_finite_supports(lo: np.ndarray, hi: np.ndarray) -> None:
    """Refuse fitted supports whose bounds or widths overflow float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        width = hi - lo
    bad = np.count_nonzero(~(np.isfinite(lo) & np.isfinite(hi) & np.isfinite(width)))
    if bad:
        raise ValueError(f"{bad} fitted supports overflow float64")


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
        if not np.isfinite(arr).all():
            raise ValueError("ensemble values must be finite")
        with np.errstate(over="ignore"):
            values = np.ascontiguousarray(arr, dtype=np.float32)
        if not np.isfinite(values).all():
            raise ValueError("ensemble values overflow float32")
        self.values = values

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
        rescaled = (self.values.astype(np.float64) - vmin) * scale
        return EnsembleStack(rescaled.astype(np.float32)), scale, offset


class UncertainField:
    """One fitted distribution per pixel, stored as parameter arrays.

    ``params`` holds (height, width)-shaped arrays whose names depend on
    the model kind:

    - uniform:       lo, hi
    - epanechnikov:  mean, halfwidth
    - histogram:     lo, hi, weights (height, width, bins)
    - gaussian:      mean, stddev
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
        support has positive width.  The per-case ``*_from_samples``
        fitters use the same rule.  Raises ValueError when the value
        range overflows float64, or an Epanechnikov support does (a
        large ``k``).
        """
        values = stack.values.astype(np.float64)
        if values.shape[0] < 2 and model.kind in ("epanechnikov", "gaussian"):
            raise ValueError(f"{model.kind} fit needs at least two members")
        eps = dist.default_epsilon(values)
        if model.kind in ("uniform", "histogram"):
            lo, hi = _widen_degenerate(values.min(axis=0), values.max(axis=0), eps)
            if model.kind == "uniform":
                return cls(model, {"lo": lo, "hi": hi})
            h = model.bins
            # in place: ``values`` is this fit's own copy
            values -= lo
            values *= h / (hi - lo)
            idx = np.floor(values, out=values).astype(np.intp)
            np.clip(idx, 0, h - 1, out=idx)
            # one count per (pixel, bin), all members in one pass
            idx += h * np.arange(lo.size).reshape(lo.shape)
            counts = np.bincount(idx.ravel(), minlength=lo.size * h)
            weights = (counts / idx.shape[0]).reshape(lo.shape + (h,))
            return cls(model, {"lo": lo, "hi": hi, "weights": weights})
        mean = values.mean(axis=0)
        std = values.std(axis=0, ddof=1)
        if model.kind == "epanechnikov":
            with np.errstate(over="ignore"):
                halfwidth = np.maximum(model.k * std, 0.5 * dist.degenerate_width(mean, eps))
                _require_finite_supports(mean - halfwidth, mean + halfwidth)
            return cls(model, {"mean": mean, "halfwidth": halfwidth})
        return cls(model, {"mean": mean, "stddev": std})

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
        if not np.isfinite(arr).all():
            raise ValueError("scalar field values must be finite")
        half = 0.5 * error_bound
        eps = dist.default_epsilon(arr)
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = _widen_degenerate(arr - half, arr + half, eps)
        _require_finite_supports(lo, hi)
        return cls(ModelSpec("uniform"), {"lo": lo, "hi": hi})


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
