"""Independent reference for critical-point probabilities and fits.

Nothing here calls critprob.  Each distribution is a plain parameter
record with its own pdf and CDF written out below, and the three
probabilities are integrals of the center pdf against products of
neighbor CDF / survival factors, computed by adaptive quadrature
(``scipy.integrate.quad``) split at every support end and bin edge.
Between those breakpoints every integrand is a polynomial of degree at
most 14, which the 21-point Gauss-Kronrod rule integrates exactly, so
the reference is exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad


@dataclass(frozen=True)
class Dist:
    """A bounded distribution: uniform, epanechnikov or histogram on [lo, hi]."""

    kind: str
    lo: float
    hi: float
    weights: tuple = ()

    def __post_init__(self) -> None:
        if not self.hi > self.lo:
            raise ValueError(f"empty support [{self.lo}, {self.hi}]")
        if self.kind == "histogram":
            total = math.fsum(self.weights)
            object.__setattr__(self, "weights", tuple(w / total for w in self.weights))
        elif self.kind not in ("uniform", "epanechnikov"):
            raise ValueError(f"unknown kind {self.kind!r}")

    def breakpoints(self) -> list[float]:
        if self.kind != "histogram":
            return [self.lo, self.hi]
        h = len(self.weights)
        return [self.lo + (self.hi - self.lo) * k / h for k in range(h + 1)]

    def pdf(self, x: float) -> float:
        if not self.lo < x < self.hi:
            return 0.0
        width = self.hi - self.lo
        if self.kind == "uniform":
            return 1.0 / width
        if self.kind == "epanechnikov":
            a = 0.5 * width
            u = (x - 0.5 * (self.lo + self.hi)) / a
            return 0.75 / a * (1.0 - u * u)
        h = len(self.weights)
        binw = width / h
        j = min(int((x - self.lo) / binw), h - 1)
        return self.weights[j] / binw

    def cdf(self, x: float) -> float:
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        width = self.hi - self.lo
        if self.kind == "uniform":
            return (x - self.lo) / width
        if self.kind == "epanechnikov":
            u = (x - 0.5 * (self.lo + self.hi)) / (0.5 * width)
            return 0.5 + 0.75 * u - 0.25 * u * u * u
        h = len(self.weights)
        binw = width / h
        j = min(int((x - self.lo) / binw), h - 1)
        below = math.fsum(self.weights[:j])
        return min(1.0, below + self.weights[j] * (x - (self.lo + j * binw)) / binw)


def _integrate(f, center: Dist, points: list[float]) -> float:
    value, _ = quad(
        f, center.lo, center.hi, points=points, limit=400, epsabs=1e-15, epsrel=1e-13
    )
    return value


def triple(center: Dist, neighbors) -> tuple[float, float, float]:
    """(p_min, p_max, p_saddle) for a center and its 2 or 4 axis neighbors.

    Neighbors are ordered east, north, west, south (2-neighbor cases: a, b).
    A saddle is the center below east/west and above north/south, or the
    reverse; with two neighbors, below one and above the other.
    """
    nbrs = tuple(neighbors)
    if len(nbrs) not in (2, 4):
        raise ValueError("a neighborhood has 2 or 4 neighbors")
    inner = sorted(
        {p for d in (center, *nbrs) for p in d.breakpoints() if center.lo < p < center.hi}
    )

    def p_min(x):
        out = center.pdf(x)
        for d in nbrs:
            out *= 1.0 - d.cdf(x)
        return out

    def p_max(x):
        out = center.pdf(x)
        for d in nbrs:
            out *= d.cdf(x)
        return out

    if len(nbrs) == 2:
        above, below = (nbrs[0],), (nbrs[1],)
    else:
        above, below = (nbrs[0], nbrs[2]), (nbrs[1], nbrs[3])

    def p_saddle(x):
        first = second = 1.0
        for d in above:
            f = d.cdf(x)
            first *= 1.0 - f
            second *= f
        for d in below:
            f = d.cdf(x)
            first *= f
            second *= 1.0 - f
        return center.pdf(x) * (first + second)

    return tuple(_integrate(f, center, inner) for f in (p_min, p_max, p_saddle))


# -- fitted-parameter definitions ------------------------------------------


def check_uniform_fit(lo, hi, members) -> list[str]:
    """Uniform fit: lo and hi are the member minimum and maximum."""
    m = np.asarray(members, dtype=np.float64)
    errors = []
    if not np.array_equal(lo, m.min(axis=0)):
        errors.append("uniform lo differs from the member minimum")
    if not np.array_equal(hi, m.max(axis=0)):
        errors.append("uniform hi differs from the member maximum")
    return errors


def check_histogram_fit(lo, hi, weights, members, bins: int) -> list[str]:
    """Histogram fit: range as uniform, weights are counts / members."""
    m = np.asarray(members, dtype=np.float64)
    errors = check_uniform_fit(lo, hi, m)
    w = np.asarray(weights)
    if w.shape != lo.shape + (bins,):
        return errors + [f"histogram weights have shape {w.shape}"]
    counts = w * m.shape[0]
    if (w < 0.0).any():
        errors.append("histogram weights are negative")
    if np.abs(counts - np.round(counts)).max() > 1e-9:
        errors.append("histogram weights are not multiples of 1/members")
    if np.abs(w.sum(axis=-1) - 1.0).max() > 1e-12:
        errors.append("histogram weights do not sum to 1")
    return errors


def epanechnikov_params(members, k: float = math.sqrt(5.0)):
    """Moment fit: member mean and k times the sample (ddof=1) std."""
    m = np.asarray(members, dtype=np.float64)
    mean = m.mean(axis=0)
    var = ((m - mean) ** 2).sum(axis=0) / (m.shape[0] - 1)
    return mean, k * np.sqrt(var)


def check_epanechnikov_fit(mean, halfwidth, members) -> list[str]:
    ref_mean, ref_half = epanechnikov_params(members)
    scale = max(1.0, float(np.abs(ref_mean).max()))
    errors = []
    if np.abs(mean - ref_mean).max() > 1e-12 * scale:
        errors.append("epanechnikov mean differs from the member mean")
    if np.abs(halfwidth - ref_half).max() > 1e-12 * scale:
        errors.append("epanechnikov halfwidth differs from sqrt(5) * member std")
    return errors
