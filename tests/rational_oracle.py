"""Exact critical-point probabilities in rational arithmetic.

An independent check of the closed form that imports nothing from
critprob.  Every float is an exact rational, and so is every integral of
the bounded kinds: uniform and histogram densities are piecewise
constant and the Epanechnikov density is quadratic, 6 t (1 - t) / (hi -
lo) on t = (x - lo) / (hi - lo) with CDF 3 t^2 - 2 t^3, so each probability
is a sum of polynomial integrals between consecutive kinks, taken here
exactly with ``fractions.Fraction`` and rounded once at the end.

A distribution is a tuple of floats, the values the closed form reads:

- ``("uniform", lo, hi)``;
- ``("epanechnikov", lo, hi)``;
- ``("histogram", lo, hi, weights)``, with bin k on
  [lo + k (hi - lo) / h, lo + (k + 1) (hi - lo) / h] and the weights
  divided by their exact sum.
"""

from __future__ import annotations

from fractions import Fraction


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _prod(polys):
    out = [Fraction(1)]
    for p in polys:
        out = _mul(out, p)
    return out


def _add(p, q):
    if len(p) < len(q):
        p, q = q, p
    return [a + (q[i] if i < len(q) else 0) for i, a in enumerate(p)]


def _scaled(p, k):
    return [k * c for c in p]


def _integral(p, length):
    """Integral of ``p`` in t over [0, length]."""
    total, power = Fraction(0), length
    for k, c in enumerate(p):
        total += c * power / (k + 1)
        power *= length
    return total


class _Exact:
    """One distribution in rationals: its kinks, density and CDF."""

    def __init__(self, dist) -> None:
        self.kind = dist[0]
        self.lo, self.hi = Fraction(dist[1]), Fraction(dist[2])
        if self.kind != "histogram":
            self.kinks = [self.lo, self.hi]
            return
        weights = [Fraction(w) for w in dist[3]]
        total = sum(weights)
        self.weights = [w / total for w in weights]
        h = len(weights)
        self.binw = (self.hi - self.lo) / h
        self.kinks = [self.lo + k * self.binw for k in range(h + 1)]
        self.below = [sum(self.weights[:j]) for j in range(h)]

    def on(self, a, b):
        """Density and CDF on [a, b], polynomials in t = x - a.

        [a, b] lies between two consecutive kinks of the distribution.
        """
        mid = (a + b) / 2
        if mid <= self.lo:
            return [Fraction(0)], [Fraction(0)]
        if mid >= self.hi:
            return [Fraction(0)], [Fraction(1)]
        if self.kind != "histogram":
            w = self.hi - self.lo
            t = [(a - self.lo) / w, 1 / w]
            if self.kind == "uniform":
                return [1 / w], t
            t2 = _mul(t, t)
            pdf = _scaled(_add(t, _scaled(t2, -1)), 6 / w)
            return pdf, _add(_scaled(t2, 3), _scaled(_mul(t2, t), -2))
        j = min(int((mid - self.lo) / self.binw), len(self.weights) - 1)
        slope = self.weights[j] / self.binw
        return [slope], [self.below[j] + slope * (a - self.kinks[j]), slope]


def exact_triple(center, neighbors) -> tuple[float, float, float]:
    """(p_min, p_max, p_saddle) of a center and its 2 or 4 neighbors.

    Neighbors are east, north, west and south, or east and north.  The
    saddle is below the east (and west) neighbor and above the north
    (and south) one, or the reverse.
    """
    c = _Exact(center)
    nbrs = [_Exact(d) for d in neighbors]
    cuts = sorted({k for d in (c, *nbrs) for k in d.kinks if c.lo <= k <= c.hi})
    sums = [Fraction(0)] * 3
    for a, b in zip(cuts[:-1], cuts[1:]):
        pdf, _ = c.on(a, b)
        cdf = [d.on(a, b)[1] for d in nbrs]
        sf = [_add([Fraction(1)], [-x for x in f]) for f in cdf]
        # the factors of the east/west axis and of the north/south one
        ew_b, ew_a = (_prod(fs[0::2]) for fs in (sf, cdf))
        ns_b, ns_a = (_prod(fs[1::2]) for fs in (sf, cdf))
        terms = (
            _mul(ew_b, ns_b),
            _mul(ew_a, ns_a),
            _add(_mul(ew_b, ns_a), _mul(ew_a, ns_b)),
        )
        for i, term in enumerate(terms):
            sums[i] += _integral(_mul(pdf, term), b - a)
    return tuple(float(s) for s in sums)

