"""Finite-support distribution models for per-pixel uncertainty.

Three bounded families share one representation: uniform over a range,
Epanechnikov (quadratic bump) over a range, and histograms with
equal-width bins.  Each evaluates its density and distribution function
pointwise, on the closed support with tails 0 and 1; the closed-form
critical-point integrals evaluate the same formulas on their own nodes
(``engine._closed_chunk``).  The module also holds the vectorized
inverse-CDF sampling kernels, the one histogram table and the width
given to zero-spread supports; fitting lives in ``fields``.

``GaussianSampler`` is an unbounded model used only for Monte Carlo
comparisons; it has no closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _bin_entries(mass, cdf, j):
    """``mass`` and ``cdf`` of bin ``j`` of each row, as new arrays.

    Bin j sits at column j + 1 of both ``histogram_table`` tables.  One
    flat ``np.take`` per table, over row * width + j + 1, in place of
    ``take_along_axis``, which builds a broadcast index for each axis.
    ``j`` is shifted in place and restored.
    """
    shift = np.arange(j.shape[0])[:, None] * mass.shape[1] + 1
    j += shift
    wj, cw = np.take(mass, j), np.take(cdf, j)
    j -= shift
    return wj, cw


def histogram_icdf(lo, binw, mass, cdf, u, out):
    """Inverse CDF for equal-width histograms.

    ``lo``, ``binw``, ``mass`` and ``cdf`` are a ``histogram_table``;
    ``u`` is (P, n).
    """
    h = mass.shape[1] - 2
    top = u == 1.0
    j = np.zeros(u.shape, dtype=np.intp)
    for k in range(2, h + 1):  # the lower edges of bins 1 .. h - 1
        j += u >= cdf[:, k : k + 1]
    wj, cw = _bin_entries(mass, cdf, j)
    # position within the bin, 0 in a bin of zero weight
    u -= cw
    filled = wj > 0.0
    np.divide(u, wj, out=u, where=filled)
    np.copyto(u, 0.0, where=np.logical_not(filled, out=filled))
    # left bin edge lo + binw * j, as ``histogram_edges`` gives it
    np.multiply(binw, j, out=cw)
    cw += lo
    np.subtract(1.0, u, out=out)
    out *= cw
    cw += binw
    u *= cw
    out += u
    np.copyto(out, lo + binw * h, where=top)
    return out


def histogram_cdf_values(lo, binw, mass, cdf, x, out):
    """CDF of an equal-width histogram at ``x`` into ``out``; same shapes as above."""
    h = mass.shape[1] - 2
    np.subtract(x, lo, out=out)
    out /= binw
    j = np.floor(out, out=out).astype(np.intp)
    np.clip(j, 0, h - 1, out=j)
    wj, cw = _bin_entries(mass, cdf, j)
    np.multiply(binw, j, out=out)
    out += lo
    np.subtract(x, out, out=out)
    out /= binw
    out *= wj
    out += cw
    return np.clip(out, 0.0, 1.0, out=out)


def histogram_edges(lo, binw, h):
    """The h + 1 edges ``lo + binw * k`` of equal-width bins, k = 0 .. h.

    The one bin-edge rule, which the lookups above apply to their bin j.
    ``lo`` and ``binw`` are scalars or ``histogram_table`` columns.
    """
    return lo + binw * np.arange(h + 1)


def histogram_table(lo, hi, weights):
    """The one table of equal-width histograms, which every estimator reads.

    ``lo`` and ``hi`` are (P,) support bounds and ``weights`` the (P, h)
    bin masses, already normalized: they are used as given.  Returns the
    (P, 1) columns ``lo`` and bin width and two (P, h + 2) tables, the
    masses (0, w, 0) and the CDF at the bins' lower edges (0, cum, 1),
    whose last entry is exactly 1 however the sum rounds.  Bin j is at
    column j + 1, so a bin index clipped to [-1, h] reads either side of
    the support too.
    """
    p, h = weights.shape
    mass = np.zeros((p, h + 2))
    mass[:, 1:-1] = weights
    cdf = np.zeros((p, h + 2))
    # column adds in cumsum's order give its bits; cumsum walks many
    # short rows one at a time
    for j in range(1, h):
        np.add(cdf[:, j], weights[:, j - 1], out=cdf[:, j + 1])
    cdf[:, -1] = 1.0
    return lo[:, None], ((hi - lo) / h)[:, None], mass, cdf


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
    """A bounded per-pixel uncertainty model."""

    __slots__ = ("kind", "support", "bin_weights")

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

    def __repr__(self) -> str:
        extra = f", bins={self.bin_weights.size}" if self.kind == "histogram" else ""
        return f"FiniteDistribution({self.kind}, [{self.support.lo}, {self.support.hi}]{extra})"

    # -- pointwise evaluation ---------------------------------------------

    def pdf(self, x):
        """Density at ``x``, on the closed support and 0 outside it.

        A histogram bin holds its lower edge, and the last bin the top.
        """
        arr = np.asarray(x, dtype=float)
        lo, hi = self.support.lo, self.support.hi
        if self.kind != "histogram":
            out = np.full(arr.shape, 1.0 / (hi - lo))
            if self.kind == "epanechnikov":
                # 6 t (1 - t) times the uniform density, as the kernel weighs it
                t = (arr - lo) / (hi - lo)
                out *= 6.0 * (t * (1.0 - t))
        else:
            h = self.bin_weights.size
            binw = (hi - lo) / h
            j = np.searchsorted(histogram_edges(lo, binw, h), arr, side="right") - 1
            out = self.bin_weights[np.clip(j, 0, h - 1)] / binw
        out = np.where((arr >= lo) & (arr <= hi), out, 0.0)
        return float(out) if arr.ndim == 0 else out

    def cdf(self, x):
        """Distribution function at ``x``: 0 below the support, 1 above it."""
        arr = np.asarray(x, dtype=float)
        lo, hi = self.support.lo, self.support.hi
        if self.kind != "histogram":
            out = np.clip((arr - lo) / (hi - lo), 0.0, 1.0)
            if self.kind == "epanechnikov":
                out = out * out * (3.0 - 2.0 * out)
        else:
            # centered on the support, where the edges of a narrow one far
            # from the origin keep their precision; halves cannot overflow
            m = 0.5 * lo + 0.5 * hi
            shifted = np.array([lo - m]), np.array([hi - m])
            table = histogram_table(*shifted, self.bin_weights[None, :])
            out = np.empty((1, arr.size))
            histogram_cdf_values(*table, (arr - m).reshape(1, -1), out)
            out = out.reshape(arr.shape)
        out = np.where(arr < lo, 0.0, np.where(arr > hi, 1.0, out))
        return float(out) if arr.ndim == 0 else out

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
