"""Finite-support distribution models for per-pixel uncertainty.

Three bounded families share one representation: uniform over a range,
Epanechnikov (quadratic bump) over a range, and histograms with
equal-width bins.  Each exposes its density and distribution function
as piecewise polynomials, which is what the closed-form critical-point
integrals consume.  Degenerate fits (all samples equal) are widened to
a tiny positive width so that ties between point masses resolve
continuously instead of producing zero-width supports.

``GaussianSampler`` is an unbounded model used only for Monte Carlo
comparisons; it has no piecewise form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .piecewise import PiecewisePolynomial

EPSILON_FLOOR = 1e-12
EPSILON_RANGE_FACTOR = 1e-9
# A widened support spans at least this many ulps of its value, so its
# bounds stay distinct however far the value sits from the origin.
DEGENERATE_ULPS = 4

_KINDS = ("uniform", "epanechnikov", "histogram")


def default_epsilon(values) -> float:
    """Widening width for degenerate supports, scaled to the data range.

    Raises ValueError when the range is not finite, as it is when it
    overflows float64.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return EPSILON_FLOOR
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(arr.max() - arr.min())
    if not math.isfinite(spread):
        raise ValueError(
            f"the value range {float(arr.min()):g} to {float(arr.max()):g} overflows float64"
        )
    return max(EPSILON_FLOOR, EPSILON_RANGE_FACTOR * spread)


def degenerate_width(center, eps: float):
    """Support width given to a zero-spread fit at ``center``."""
    return np.maximum(eps, DEGENERATE_ULPS * np.spacing(np.abs(center)))


@dataclass(frozen=True)
class Support:
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __post_init__(self) -> None:
        if not math.isfinite(self.lo) or not math.isfinite(self.hi):
            raise ValueError("support bounds must be finite")
        if not self.hi > self.lo:
            raise ValueError(f"support must have positive width, got [{self.lo}, {self.hi}]")


# -- vectorized sampling kernels -----------------------------------------
#
# Each kernel turns uniform [0, 1) planes into draws written to ``out``
# and may overwrite its uniform inputs.  Parameters broadcast against the
# planes: scalars, or (pixels, 1) columns with one row per distribution.
# Grid pixels and single distributions run these same floating-point
# operations, so their draws agree bit for bit.  The uniform and Gaussian
# kernels allocate nothing; the others allocate only their boundary masks
# and, for histograms, per-draw bin lookups.

def uniform_icdf(lo, hi, u, out):
    """(1 - u) * lo + u * hi."""
    np.subtract(1.0, u, out=out)
    out *= lo
    u *= hi
    out += u
    return out


def epanechnikov_icdf(mean, halfwidth, u, out):
    # The quadratic-bump CDF is a monotone cubic; its root has the exact
    # trigonometric form 2 sin(arcsin(2u - 1) / 3).
    np.multiply(u, 2.0, out=out)
    out -= 1.0
    np.arcsin(out, out=out)
    out /= 3.0
    np.sin(out, out=out)
    out *= 2.0
    out *= halfwidth
    out += mean
    np.copyto(out, mean - halfwidth, where=u == 0.0)
    np.copyto(out, mean + halfwidth, where=u == 1.0)
    return out


def box_muller(mean, stddev, u1, u2, out):
    """Normal draws mean + stddev * sqrt(-2 log(1 - u1)) cos(2 pi u2)."""
    np.negative(u1, out=out)
    np.log1p(out, out=out)
    out *= -2.0
    np.sqrt(out, out=out)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    out *= u2
    out *= stddev
    out += mean
    return out


def _bin_entries(cum, weights, j):
    """``cum`` and ``weights`` at bin ``j`` of each row, as new arrays.

    One flat ``np.take`` per table, over row * width + j, in place of
    ``take_along_axis``, which builds a broadcast index for each axis.
    ``j`` is shifted in place and restored.
    """
    rows = np.arange(j.shape[0])[:, None]
    h = weights.shape[1]
    j += rows * (h + 1)
    cw = np.take(cum, j)
    j -= rows
    wj = np.take(weights, j)
    j -= rows * h
    return cw, wj


def histogram_icdf(lo, binw, weights, cum, u, out):
    """Inverse CDF for equal-width histograms.

    ``weights`` is (P, h), ``cum`` is the (P, h + 1) inclusive prefix sum
    starting at 0, ``lo`` and ``binw`` are (P, 1), ``u`` is (P, n).
    """
    h = weights.shape[1]
    top = u == 1.0
    j = np.zeros(u.shape, dtype=np.intp)
    for k in range(1, h):
        j += u >= cum[:, k : k + 1]
    cw, wj = _bin_entries(cum, weights, j)
    # position within the bin, 0 in a bin of zero weight
    u -= cw
    filled = wj > 0.0
    np.divide(u, wj, out=u, where=filled)
    np.copyto(u, 0.0, where=np.logical_not(filled, out=filled))
    # left bin edge lo + binw * j
    np.multiply(binw, j, out=cw)
    cw += lo
    np.subtract(1.0, u, out=out)
    out *= cw
    cw += binw
    u *= cw
    out += u
    np.copyto(out, lo + binw * h, where=top)
    return out


def histogram_cdf_values(lo, binw, weights, cum, x, out):
    """CDF of an equal-width histogram at ``x`` into ``out``; same shapes as above."""
    h = weights.shape[1]
    np.subtract(x, lo, out=out)
    out /= binw
    j = np.floor(out, out=out).astype(np.intp)
    np.clip(j, 0, h - 1, out=j)
    cw, wj = _bin_entries(cum, weights, j)
    np.multiply(binw, j, out=out)
    out += lo
    np.subtract(x, out, out=out)
    out /= binw
    out *= wj
    out += cw
    return np.clip(out, 0.0, 1.0, out=out)


def histogram_table(lo, hi, weights):
    """Equal-width histograms as the kernels above take them.

    ``lo`` and ``hi`` are (P,) support bounds and ``weights`` the (P, h)
    bin masses, already normalized: they are used as given.  Returns the
    (P, 1) columns ``lo`` and bin width, the weights, and their (P, h + 1)
    prefix sums from 0, whose last entry is set to exactly 1 however the
    sum rounds.
    """
    h = weights.shape[1]
    cum = np.zeros((weights.shape[0], h + 1))
    # column adds in cumsum's order give its bits; cumsum walks many
    # short rows one at a time
    for j in range(h):
        np.add(cum[:, j], weights[:, j], out=cum[:, j + 1])
    cum[:, -1] = 1.0
    return lo[:, None], ((hi - lo) / h)[:, None], weights, cum


def icdf_sampler(kind: str, lo, hi, weights):
    """Inverse-CDF kernel of a bounded kind and its parameter columns.

    ``lo`` and ``hi`` are (P,) support bounds, ``weights`` the (P, h)
    normalized bin masses of histograms (None otherwise).  The kernel is
    called as ``kernel(*params, u, out)`` on (P, n) planes.
    """
    if kind == "histogram":
        return histogram_icdf, histogram_table(lo, hi, weights)
    lo, hi = lo[:, None], hi[:, None]
    if kind == "uniform":
        return uniform_icdf, (lo, hi)
    return epanechnikov_icdf, (0.5 * (lo + hi), 0.5 * (hi - lo))


# -- distribution objects ------------------------------------------------

class FiniteDistribution:
    """A bounded per-pixel uncertainty model.

    The density and distribution function are built lazily: sampling and
    histogram arithmetic never touch them, only the closed-form
    integrals do.
    """

    __slots__ = ("kind", "support", "bin_weights", "_pdf", "_cdf", "_survival")

    u01_planes = 1  # independent uniform planes consumed per draw

    def __init__(self, kind: str, support: Support, bin_weights=None) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {kind!r}")
        if kind == "histogram":
            w = np.asarray(bin_weights, dtype=float)
            if w.ndim != 1 or w.size == 0:
                raise ValueError("histogram needs a 1-D, non-empty weight array")
            if np.any(w < 0.0) or not np.all(np.isfinite(w)):
                raise ValueError("histogram weights must be finite and non-negative")
            total = w.sum()
            if total <= 0.0:
                raise ValueError("histogram weights must not all be zero")
            bin_weights = w / total
        elif bin_weights is not None:
            raise ValueError(f"{kind} takes no bin weights")
        self.kind = kind
        self.support = support
        self.bin_weights = bin_weights
        self._pdf = None
        self._cdf = None
        self._survival = None

    def __repr__(self) -> str:
        extra = f", bins={self.bin_weights.size}" if self.kind == "histogram" else ""
        return f"FiniteDistribution({self.kind}, [{self.support.lo}, {self.support.hi}]{extra})"

    # -- piecewise forms -------------------------------------------------

    @property
    def pdf_poly(self) -> PiecewisePolynomial:
        if self._pdf is None:
            lo, hi = self.support.lo, self.support.hi
            if self.kind == "uniform":
                self._pdf = PiecewisePolynomial([lo, hi], [[1.0 / (hi - lo)]])
            elif self.kind == "epanechnikov":
                w = 0.5 * (hi - lo)
                self._pdf = PiecewisePolynomial(
                    [lo, hi], [[0.75 / w, 0.0, -0.75 / w**3]]
                )
            else:
                h = self.bin_weights.size
                edges = lo + (hi - lo) * np.arange(h + 1) / h
                binw = (hi - lo) / h
                self._pdf = PiecewisePolynomial(
                    edges, [[wk / binw] for wk in self.bin_weights]
                )
        return self._pdf

    @property
    def cdf_poly(self) -> PiecewisePolynomial:
        if self._cdf is None:
            self._cdf = self.pdf_poly.antiderivative()
        return self._cdf

    @property
    def survival_poly(self) -> PiecewisePolynomial:
        if self._survival is None:
            cdf = self.cdf_poly
            pieces = []
            for coeffs in cdf.pieces:
                neg = -coeffs
                neg[0] += 1.0
                pieces.append(neg)
            self._survival = PiecewisePolynomial(
                cdf.breakpoints,
                pieces,
                below_value=1.0,
                above_value=1.0 - cdf.above_value,
            )
        return self._survival

    # -- pointwise evaluation ---------------------------------------------

    def pdf(self, x):
        return self.pdf_poly.eval(x)

    def cdf(self, x):
        return self.cdf_poly.eval(x)

    def survival(self, x):
        return 1.0 - self.cdf(x)

    # -- transforms --------------------------------------------------------

    def negate(self) -> "FiniteDistribution":
        """Distribution of -X (mirror through zero)."""
        lo, hi = self.support.lo, self.support.hi
        weights = None if self.bin_weights is None else self.bin_weights[::-1]
        return FiniteDistribution(self.kind, Support(-hi, -lo), weights)

    def affine(self, alpha: float, beta: float) -> "FiniteDistribution":
        """Distribution of alpha * X + beta for alpha > 0."""
        if not alpha > 0.0:
            raise ValueError("affine scale must be positive")
        lo, hi = self.support.lo, self.support.hi
        return FiniteDistribution(
            self.kind,
            Support(alpha * lo + beta, alpha * hi + beta),
            self.bin_weights,
        )

    # -- sampling -----------------------------------------------------------

    def sampler(self):
        """Inverse-CDF kernel and its one-row parameters (see ``icdf_sampler``)."""
        weights = None if self.bin_weights is None else self.bin_weights[None, :]
        return icdf_sampler(
            self.kind, np.array([self.support.lo]), np.array([self.support.hi]), weights
        )

    def sample_u01(self, u):
        """Inverse-CDF transform of uniform [0, 1] draws ``u``."""
        arr = np.asarray(u, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ValueError("u must lie in [0, 1]")
        kernel, params = self.sampler()
        out = np.empty((1, arr.size))
        kernel(*params, arr.reshape(1, -1).copy(), out)
        return float(out[0, 0]) if arr.ndim == 0 else out.reshape(arr.shape)


@dataclass(frozen=True)
class GaussianSampler:
    """Unbounded normal model, Monte Carlo only (no closed form)."""

    mean: float
    stddev: float

    u01_planes = 2

    def __post_init__(self) -> None:
        if self.stddev < 0.0 or not math.isfinite(self.stddev):
            raise ValueError("stddev must be finite and non-negative")

    def negate(self) -> "GaussianSampler":
        return GaussianSampler(-self.mean, self.stddev)

    def affine(self, alpha: float, beta: float) -> "GaussianSampler":
        if not alpha > 0.0:
            raise ValueError("affine scale must be positive")
        return GaussianSampler(alpha * self.mean + beta, alpha * self.stddev)

    def sample_u01(self, u):
        """Box-Muller transform of a (..., 2, n) block of uniform [0, 1) draws."""
        u = np.asarray(u, dtype=float)
        if u.ndim < 2 or u.shape[-2] != 2:
            raise ValueError("Gaussian draws need two uniform planes")
        if not np.all((u >= 0.0) & (u < 1.0)):
            raise ValueError("u must lie in [0, 1)")
        u2 = u[..., 1, :].copy()
        return box_muller(self.mean, self.stddev, u[..., 0, :], u2, np.empty(u2.shape))


# -- direct constructors --------------------------------------------------

def uniform(lo: float, hi: float) -> FiniteDistribution:
    return FiniteDistribution("uniform", Support(float(lo), float(hi)))

def epanechnikov(mean: float, halfwidth: float) -> FiniteDistribution:
    if not halfwidth > 0.0:
        raise ValueError("halfwidth must be positive")
    return FiniteDistribution(
        "epanechnikov", Support(float(mean - halfwidth), float(mean + halfwidth))
    )

def histogram(lo: float, hi: float, weights) -> FiniteDistribution:
    return FiniteDistribution("histogram", Support(float(lo), float(hi)), weights)


# -- fitted constructors ---------------------------------------------------

def _as_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr


def uniform_from_samples(samples, eps: float | None = None) -> FiniteDistribution:
    """Range-fitted uniform; a degenerate range is widened by ``degenerate_width``."""
    arr = _as_samples(samples)
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        eps = default_epsilon(arr) if eps is None else eps
        half = 0.5 * degenerate_width(lo, eps)
        lo, hi = lo - half, lo + half
    return uniform(lo, hi)


def epanechnikov_from_samples(
    samples, k: float = math.sqrt(5.0), eps: float | None = None
) -> FiniteDistribution:
    """Moment-fitted quadratic bump: mean +/- k * sample stddev.

    The default k = sqrt(5) makes the fitted variance equal the sample
    variance.  A zero-spread sample set is widened by ``degenerate_width``.
    """
    arr = _as_samples(samples)
    if arr.size < 2:
        raise ValueError("need at least two samples to estimate spread")
    if not k > 0.0:
        raise ValueError("k must be positive")
    mean = float(arr.mean())
    halfwidth = k * float(arr.std(ddof=1))
    if halfwidth <= 0.0:
        eps = default_epsilon(arr) if eps is None else eps
        halfwidth = 0.5 * degenerate_width(mean, eps)
    return epanechnikov(mean, halfwidth)


def histogram_from_samples(samples, bins: int, eps: float | None = None) -> FiniteDistribution:
    """Equal-width histogram over the sample range.

    A sample equal to the top edge lands in the last bin.  All-equal
    samples produce a single bin of weight 1, ``degenerate_width`` wide.
    """
    if not bins >= 1:
        raise ValueError("bins must be at least 1")
    arr = _as_samples(samples)
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        eps = default_epsilon(arr) if eps is None else eps
        half = 0.5 * degenerate_width(lo, eps)
        return histogram(lo - half, lo + half, [1.0])
    idx = np.floor((arr - lo) * (bins / (hi - lo))).astype(np.intp)
    np.clip(idx, 0, bins - 1, out=idx)
    counts = np.bincount(idx, minlength=bins).astype(float)
    return histogram(lo, hi, counts / arr.size)
