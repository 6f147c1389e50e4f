"""Critical-point probabilities for uncertain pixel neighborhoods.

A pixel is compared against its axis neighbors (east, north, west,
south, in that order; a 1-D variant uses just the first two).  With
independent per-pixel distributions the probability that the center is
a local minimum is

    integral of pdf_c(x) * prod_i survival_i(x) dx

over the overlap of the supports, which is a piecewise-polynomial
integrand and therefore integrates exactly.  Local maxima reduce to
minima of the negated case.  A saddle needs the center below both
east/west neighbors and above both north/south neighbors, or the
reverse; each of those is the same kind of product integral with a mix
of survival and distribution factors.

One kernel, ``_closed_chunk``, evaluates these integrals for a batch of
stencils at once on flat parameter arrays, with one node set per pixel
for all three channels.  Every bounded kind enters as its support (lo,
hi[, weights]), the floats its ``dist_at`` holds, through one table
(``_closed_table``) that a grid block builds once per band pixel and
reads through a (5, pixels) position index.  Each stencil is shifted so
the center's support is centered on zero; every kink (support end or
``histogram_edges`` bin edge of the five positions) is clipped to the
center's support and sorted once, and Gauss-Legendre nodes on each
interval between kinks (8 when any position is Epanechnikov, 3
otherwise) integrate every channel exactly.  A kink outside the
center's support is clipped onto one of its ends, so it leaves an
interval of zero width, whose terms would be exactly +0.0; on the
Ackley ensembles of perfbench's closed-grid workload that is 44% of the
uniform and Epanechnikov intervals and 24% of the histogram(5) ones.
The rest of the kernel runs on the live intervals alone, those of
nonzero width, taken as one flat list with the pixel row of each.  What
does not depend on the node is found once per live interval and
position: the CDF value at the midpoint and its slope, and for the
center its density times the half-width.  A histogram position's bin
comes out of the sort: each of its kinks carries a count in one bit
field per position, and the running sum of the sorted counts gives the
bin at every interval, where one lookup reads the CDF at the bin's left
edge, its slope and the edge.  Uniform and Epanechnikov positions are
taken on the support's line t = (x - lo) / (hi - lo): the CDFs are t
and t^2 (3 - 2 t), and an Epanechnikov center weighs the uniform
density by 6 t (1 - t).  The nodes come in symmetric pairs +-x, whose
slope times x is found once, and the middle node of the 3-node rule,
x = 0, reads each midpoint value as it is.  One node at a time, the
center weight and the neighbor CDFs are written in place into a few
fixed (rows, live intervals) buffers, and every channel, a different
product of the same rows, adds its node term to its own row.  One
segmented sum (``np.add.reduceat``) then adds each pixel's live
intervals in order, so a pixel's sum never depends on the block.  A
closed-form block holds at most ``CLOSED_PLANE // intervals`` pixels
(9 intervals for uniform and Epanechnikov stencils, ``5 * (bins + 1) -
1`` for histograms), so a plane has at most about ``CLOSED_PLANE``
elements and the kernel's working set stays near the cache whatever
the field size or model.  Per-pixel work never depends on how pixels
are split into blocks, so results are identical for any worker count or
plane budget.

Monte Carlo draws one realization of the field per sample: pixel p's
value at sample i is counter i of p's own streams (one plane, two for a
Gaussian), made once and read by each of the up to five stencils that
hold p.  Every stencil still sees five independent draws from its five
distributions, so each pixel's estimate keeps its Binomial(n, p) / n
law, but the estimates of neighboring pixels are correlated.  The
kernel counts the stencils of a block of rows.  A grid block is whole
interior rows plus the row above and below; a tile of stencil rows
draws its rows and one more above and below into one (rows, width,
draws) buffer per block of ``GRID_DRAWS`` stencil draws.  Two adjacent
pixels are compared once per block, over shifted slices of that
buffer, and both stencils that hold the pair read the result; each
channel then joins a stencil's east/west flags with its north/south
flags, as the closed form multiplies its ``ew`` and ``ns`` factors.
The semianalytical estimator walks each block in tiles of
``max(1, TILE_DRAWS // c)`` pixels for ``c`` center draws per pixel.
Every tile fills the same buffers in place (counter-based uniform
draws, the inverse-CDF transform, the comparison flags), so memory is
set by the tile, not by the block or the draw count, and stays in
cache.  Draws are keyed by pixel and counts are integers, so tiles
change no result.

The single-case estimators run the same kernels on one stencil.  A
case's closed form is a one-pixel batch of ``_closed_chunk`` whose
positions are grouped by kind and bin count, so mixed kinds and the
2-neighbor form share the grid's kernel; each channel is divided by the
center density's quadrature mass, the sum of the same node weights, so
a certain pattern is exactly 1, and clipped into [0, 1].  Grid pixels
are not divided, so the two agree to rounding, not to the bit.  The
maximum of a single case is still the minimum of the negated case, so
``local_max_prob`` and ``local_min_prob`` mirror each other bit for bit.
In ``mc_all_patterns`` the case's distributions take consecutive planes
of the streams of the case's ``pixel`` key, center first, and fill the
center and the four edge cells of a 3 x 3 block, in blocks of
``TILE_DRAWS`` draws; the corners are never drawn or read, and a
2-neighbor case copies its east and north draws to the west and south.
So a grid pixel, whose neighbors draw from their own streams, differs from the Monte Carlo estimate of its case;
``semianalytical_prob`` gives its grid pixel's value bit for bit.  The
combinatorial kernel takes steps of (bin combination, pixel) stencils:
a grid block's steps hold a few combinations of all its pixels, and
``combinatorial_triple``'s hold many combinations of its one pixel.

``classify_field`` works on blocks: rectangles of interior pixels, each
read with the one-pixel halo of its stencils as one 2-D slice of the
parameter planes.  A block is whole interior rows, as many as its
method's pixel budget holds, or part of one row when a row holds more.
Each stencil position is a shifted slice of the band, and each channel
is written back with one slice assignment.  The blocks wait in one
queue.  With more than one worker, every method's blocks run on one
thread pool: each kernel is a run of vectorized numpy passes, which
release the interpreter lock, and threads share the parameter arrays.
Each worker takes the next block off the queue and writes its channels
straight into the output planes as it finishes, so no block's result
outlives it, and what ``classify_field`` holds besides its output is
set by the block, not by the field.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rngstream
from .distributions import (
    FiniteDistribution,
    GaussianSampler,
    box_muller,
    histogram_cdf_values,
    histogram_edges,
    histogram_table,
    icdf_sampler,
)
from .fields import CHANNELS, ProbabilityField, UncertainField

PATTERNS = ("min", "max", "saddle")
ESTIMATOR_METHODS = ("closed_form", "monte_carlo", "semianalytical", "combinatorial")
COMBINATORIAL_MAX_BINS = 8

# Gauss-Legendre nodes and weights on [-1, 1]: n nodes integrate
# polynomials up to degree 2n - 1 exactly.  A product of a center density
# and four neighbor CDFs has degree 4 when every factor is uniform or
# histogram, and at most 14 with Epanechnikov ones.
_GAUSS_LEGENDRE = {n: np.polynomial.legendre.leggauss(n) for n in (3, 8)}


@dataclass(frozen=True)
class NeighborhoodCase:
    """A center distribution plus its 2 or 4 axis neighbors."""

    center: object
    neighbors: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "neighbors", tuple(self.neighbors))
        if len(self.neighbors) not in (2, 4):
            raise ValueError("a neighborhood has exactly 2 or 4 neighbors")

    def negate(self) -> "NeighborhoodCase":
        return NeighborhoodCase(
            self.center.negate(), tuple(d.negate() for d in self.neighbors)
        )

    def affine(self, alpha: float, beta: float) -> "NeighborhoodCase":
        return NeighborhoodCase(
            self.center.affine(alpha, beta),
            tuple(d.affine(alpha, beta) for d in self.neighbors),
        )


@dataclass(frozen=True)
class ProbabilityTriple:
    p_min: float
    p_max: float
    p_saddle: float

    def __iter__(self):
        return iter((self.p_min, self.p_max, self.p_saddle))

    @property
    def total(self) -> float:
        return self.p_min + self.p_max + self.p_saddle


@dataclass(frozen=True)
class EstimatorSpec:
    """How to estimate per-pixel probabilities.

    ``n_samples`` applies to monte_carlo, ``c`` to semianalytical.
    ``seed`` keys the deterministic sample streams.
    """

    method: str = "closed_form"
    n_samples: int = 2000
    c: int = 10000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in ESTIMATOR_METHODS:
            raise ValueError(f"unknown estimator method {self.method!r}")
        if self.n_samples < 1 or self.c < 1:
            raise ValueError("sample counts must be positive")


def _require_bounded(case: NeighborhoodCase) -> None:
    for d in (case.center, *case.neighbors):
        if not isinstance(d, FiniteDistribution):
            raise TypeError(
                "closed-form evaluation needs bounded distributions; "
                "Gaussian models support Monte Carlo only"
            )


def _require_histograms(case: NeighborhoodCase) -> None:
    for d in (case.center, *case.neighbors):
        if not isinstance(d, FiniteDistribution) or d.kind != "histogram":
            raise ValueError("this estimator is defined for histogram inputs only")


# ---------------------------------------------------------------------------
# closed form, single neighborhood
# ---------------------------------------------------------------------------

def _case_groups(case: NeighborhoodCase) -> list:
    """The ``_closed_chunk`` groups of a case as a one-pixel stencil.

    Positions are grouped by kind and bin count, center first.  Every
    distribution enters as its support, (lo, hi[, weights]), and each
    group's ``_closed_table`` holds one row per position.
    """
    dists = (case.center, *case.neighbors)
    found = {}
    for i, d in enumerate(dists):
        bins = 0 if d.bin_weights is None else d.bin_weights.size
        found.setdefault((d.kind, bins), []).append(i)
    groups = []
    for (kind, _), positions in found.items():
        params = {
            "lo": np.array([dists[i].support.lo for i in positions]),
            "hi": np.array([dists[i].support.hi for i in positions]),
        }
        if kind == "histogram":
            params["weights"] = np.array([dists[i].bin_weights for i in positions])
        index = np.arange(len(positions))[:, None]
        groups.append((kind, positions, _closed_table(kind, params), index))
    return groups


def _closed_case(case: NeighborhoodCase, channels) -> dict[str, float]:
    """Channels of one case, each divided by the center's quadrature mass.

    The quadrature of the center density alone, on the same nodes and in
    the same order, rounds away from 1 by an ulp or so; a certain
    pattern's channel is that same sum, so after the division it is
    exactly 1.  The ratio is then clipped into [0, 1], where the exact
    value lies, so the clip, a guard against rounding, moves it only
    toward that value.
    """
    _require_bounded(case)
    out = _closed_chunk(_case_groups(case), (*channels, "mass"))
    mass = out.pop("mass")[0]
    return {ch: float(np.clip(v[0] / mass, 0.0, 1.0)) for ch, v in out.items()}


def local_min_prob(case: NeighborhoodCase) -> float:
    """Probability that the center draws strictly below every neighbor."""
    return _closed_case(case, ("min",))["min"]


def local_max_prob(case: NeighborhoodCase) -> float:
    """Probability of a local maximum; exactly the negated-case minimum."""
    _require_bounded(case)
    return local_min_prob(case.negate())


def saddle_prob(case: NeighborhoodCase) -> float:
    """Probability of a saddle: one alternating pattern or its mirror.

    Both terms are taken on the same nodes, so negating every
    distribution swaps them and leaves the sum unchanged to rounding.
    """
    return _closed_case(case, ("saddle",))["saddle"]


def closed_form_triple(case: NeighborhoodCase) -> ProbabilityTriple:
    found = _closed_case(case, ("min", "saddle"))
    return ProbabilityTriple(found["min"], local_max_prob(case), found["saddle"])


def closed_pattern_prob(case: NeighborhoodCase, pattern: str) -> float:
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    if pattern == "min":
        return local_min_prob(case)
    if pattern == "max":
        return local_max_prob(case)
    return saddle_prob(case)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _fold(ufunc, arrays, out: np.ndarray) -> np.ndarray:
    """Left fold of a binary ufunc over two or more arrays, into ``out``."""
    ufunc(arrays[0], arrays[1], out=out)
    for a in arrays[2:]:
        ufunc(out, a, out=out)
    return out


def _case_sampler(d):
    """Sampler of one distribution as a one-pixel batch (see ``_sampler``)."""
    if isinstance(d, GaussianSampler):
        return 2, box_muller, (np.array([[d.mean]]), np.array([[d.stddev]]))
    return 1, *d.sampler()


# cells of center, east, north, west and south in a 3 x 3 block
_CASE_CELLS = (4, 5, 1, 3, 7)


def mc_all_patterns(
    case: NeighborhoodCase, n: int, seed: int = 0, pixel: int = 0
) -> ProbabilityTriple:
    """Monte Carlo pattern fractions over n joint inverse-CDF draws.

    All three patterns come from one set of draws, deterministic for a
    given (seed, pixel) key: the distributions take consecutive planes
    of the pixel's streams, center first (two planes for a Gaussian).
    The standard error is at most 0.5 / sqrt(n).
    """
    if n < 1:
        raise ValueError("n must be positive")
    samplers = [_case_sampler(d) for d in (case.center, *case.neighbors)]
    first = np.cumsum([0] + [per for per, _, _ in samplers])
    keys = rngstream.stream_keys(seed, [pixel], int(first[-1]))
    groups = [
        (cell, keys[:, a:b], kernel, params)
        for cell, (_, kernel, params), a, b in zip(_CASE_CELLS, samplers, first[:-1], first[1:])
    ]
    copies = ()
    if len(case.neighbors) == 2:
        # west and south hold copies of the east and north draws, so each
        # axis pair holds one neighbor twice and the patterns are those
        # of the two neighbors
        copies = tuple(zip(_CASE_CELLS[3:], _CASE_CELLS[1:3]))
    stats = _mc_chunk(groups, 3, 3, n, PATTERNS, TILE_DRAWS, copies)
    return ProbabilityTriple(*(float(stats[p][0]) for p in PATTERNS))


# ---------------------------------------------------------------------------
# histogram-only estimators
# ---------------------------------------------------------------------------

def _uniform_kernel_term(intervals, above, below) -> np.ndarray:
    """Exact pattern probability of a batch of all-uniform stencils.

    ``intervals`` holds the (lo, hi) arrays of each position over the
    batch, center first.  The center must fall below the intervals at
    the positions in ``above`` and above those in ``below``.  The cut
    points are clipped into the range [lo, hi] where that can happen and
    sorted; on each piece the integrand is a polynomial around the piece
    midpoint, one linear factor per interval, and its even coefficients
    integrate exactly.  Clipped or repeated cuts leave pieces of zero
    width, which add zero, as does every piece where hi <= lo.
    """
    a1, b1 = lo, hi = intervals[0]
    above, below = [intervals[i] for i in above], [intervals[i] for i in below]
    for a, _ in below:
        lo = np.maximum(lo, a)
    for _, b in above:
        hi = np.minimum(hi, b)
    pts = np.stack([lo, hi, *(a for a, _ in above), *(b for _, b in below)])
    np.maximum(pts, lo, out=pts)
    np.minimum(pts, hi, out=pts)
    pts.sort(axis=0)
    mid = 0.5 * (pts[:-1] + pts[1:])
    half = 0.5 * (pts[1:] - pts[:-1])
    coeffs = np.zeros((1 + len(above) + len(below), *mid.shape))
    coeffs[0] = 1.0 / (b1 - a1)
    # survival is 1 below a and linear inside; the cdf is 1 above b.  A
    # factor of 1 leaves the coefficients as they are.
    factors = [(mid > a, (b - mid) / (b - a), -1.0 / (b - a)) for a, b in above]
    factors += [(mid < b, (mid - a) / (b - a), 1.0 / (b - a)) for a, b in below]
    for degree, (inside, const, slope) in enumerate(factors, 1):
        shifted = coeffs[:degree] * np.where(inside, slope, 0.0)
        coeffs[: degree + 1] *= np.where(inside, const, 1.0)
        coeffs[1 : degree + 1] += shifted
    pieces = coeffs[0] * 2.0 * half
    for k in range(2, coeffs.shape[0], 2):
        pieces += coeffs[k] * 2.0 * half ** (k + 1) / (k + 1)
    return sum(pieces[1:], pieces[0])


def _comb_samplers(case: NeighborhoodCase) -> list:
    """The ``_case_sampler`` of each position of a histogram case, center first."""
    _require_histograms(case)
    dists = (case.center, *case.neighbors)
    for d in dists:
        if d.bin_weights.size > COMBINATORIAL_MAX_BINS:
            raise ValueError(
                f"combinatorial cost grows as bins**{len(dists)}; "
                f"refusing more than {COMBINATORIAL_MAX_BINS} bins"
            )
    return [_case_sampler(d) for d in dists]


# Stencils, bin combinations times pixels, per combinatorial block; its
# coefficient arrays take 200 bytes per 4-neighbor stencil.  A 24 x 24
# histogram(3) classify on one worker of a 2-core x86 host, median of 5
# interleaved runs: one combination per block 0.44 s, 1024 stencils
# 0.35, 2048 0.31, 4096 0.30, 8192 0.29, 32768 0.54.
COMB_STENCILS = 4096


def _comb_chunk(samplers, channels) -> dict[str, np.ndarray]:
    """Combinatorial probabilities of a batch of histogram stencils.

    ``samplers`` holds the histogram ``_sampler`` triples of each
    position, center first, as the semianalytical kernel takes them;
    bin counts may differ by position.  Every combination of one bin per
    position is an all-uniform stencil with an exact answer, cut at the
    tables' ``histogram_edges`` and weighted by their bin masses.  Each
    pattern lists the neighbors the center must fall below and those it
    must fall above.  Each pixel adds its combinations one at a time in
    one fixed order, so its sum never depends on the batch or the block.
    """
    tables = [params for _, _, params in samplers]
    edges = [histogram_edges(lo, binw, mass.shape[1] - 2) for lo, binw, mass, _ in tables]
    nbrs = list(range(1, len(tables)))
    # below the first neighbor of each axis pair and above the second,
    # or the reverse
    first, second = nbrs[0::2], nbrs[1::2]
    terms = {"min": [(nbrs, [])], "max": [([], nbrs)], "saddle": [(first, second), (second, first)]}
    m = edges[0].shape[0]
    combos = np.array(list(itertools.product(*(range(e.shape[1] - 1) for e in edges))))
    step = max(1, COMB_STENCILS // m)
    out = {ch: np.zeros((1, m)) for ch in channels}
    for start in range(0, len(combos), step):
        bins = combos[start : start + step].T
        # (combinations, pixels) bin ends and the product of the bin masses
        intervals = [(e[:, j].T, e[:, j + 1].T) for e, j in zip(edges, bins)]
        wprod = math.prod(mass[:, j + 1].T for (_, _, mass, _), j in zip(tables, bins))
        for ch in channels:
            found = [_uniform_kernel_term(intervals, *term) for term in terms[ch]]
            weighted = wprod * sum(found[1:], found[0])
            # running sums add the block's combinations one at a time
            out[ch] = np.add.accumulate(np.concatenate([out[ch], weighted]))[-1:]
    return {ch: total[0] for ch, total in out.items()}


def histogram_min_prob_combinatorial(case: NeighborhoodCase) -> float:
    """Local-minimum probability by summing over all bin combinations.

    Every combination of one bin per distribution is a small all-uniform
    case with an exact answer; weighting by the bin-mass product gives
    the histogram answer.  Cost grows as bins**(neighbors + 1), so this
    serves as a cross-check for the factorized product integral rather
    than as a production path.
    """
    return float(_comb_chunk(_comb_samplers(case), ("min",))["min"][0])


def combinatorial_triple(case: NeighborhoodCase) -> ProbabilityTriple:
    stats = _comb_chunk(_comb_samplers(case), PATTERNS)
    return ProbabilityTriple(*(float(stats[p][0]) for p in PATTERNS))


def semianalytical_prob(
    case: NeighborhoodCase, pattern: str, c: int, seed: int = 0, pixel: int = 0
) -> float:
    """Sampled-center estimator for histogram neighborhoods.

    Draws c center values, then multiplies the neighbors' exact
    conditional probabilities (survival or CDF at the drawn value, a
    prefix-sum lookup per neighbor) and averages.  Converges to the
    closed form as c grows.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    if c < 1:
        raise ValueError("c must be positive")
    _require_histograms(case)
    samplers = [_case_sampler(d) for d in (case.center, *case.neighbors)]
    stats = _semi_chunk(samplers, np.array([pixel], dtype=np.uint64), c, seed, (pattern,))
    return float(stats[pattern][0])


def _conditional_pattern(cdf, sf, pattern: str, out: np.ndarray) -> np.ndarray:
    """Combine neighbor CDF values at the drawn centers into one pattern.

    ``cdf`` and ``sf`` hold each neighbor's CDF and survival values,
    shape (neighbors, ...); ``out`` is a (2, ...) work area whose first
    entry receives the result.
    """
    if pattern == "min":
        return _fold(np.multiply, sf, out[0])
    if pattern == "max":
        return _fold(np.multiply, cdf, out[0])
    # below the first neighbor of each axis pair and above the second,
    # or the reverse
    k = len(cdf)
    first = [sf[i] if i % 2 == 0 else cdf[i] for i in range(k)]
    second = [cdf[i] if i % 2 == 0 else sf[i] for i in range(k)]
    total = _fold(np.multiply, first, out[0])
    total += _fold(np.multiply, second, out[1])
    return total


# ---------------------------------------------------------------------------
# grid classification
# ---------------------------------------------------------------------------

def case_at(field: UncertainField, row: int, col: int) -> NeighborhoodCase:
    """The 4-neighborhood at an interior pixel (east, north, west, south)."""
    height, width = field.shape
    if not (1 <= row < height - 1 and 1 <= col < width - 1):
        raise ValueError("neighborhood requires an interior pixel")
    return NeighborhoodCase(
        field.dist_at(row, col),
        (
            field.dist_at(row, col + 1),
            field.dist_at(row - 1, col),
            field.dist_at(row, col - 1),
            field.dist_at(row + 1, col),
        ),
    )


def pixel_index(field: UncertainField, row: int, col: int) -> int:
    """Flat pixel key used for the deterministic per-pixel sample streams."""
    return row * field.width + col


def _support_params(kind: str, p: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Field parameters as the support record (lo, hi[, weights]) the kernels read.

    A field stores Epanechnikov pixels as (mean, halfwidth); their support
    (mean - halfwidth, mean + halfwidth) is the ``Support`` of ``dist_at``.
    """
    if kind != "epanechnikov":
        return p
    return {"lo": p["mean"] - p["halfwidth"], "hi": p["mean"] + p["halfwidth"]}


def _band_params(kind: str, band: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A 2-D band of field pixels as per-pixel support records.

    Histogram weights are normalized here, as ``FiniteDistribution``
    does; the kernels' histogram tables use the weights as given.
    """
    if "weights" in band:
        w = band["weights"]
        band = {**band, "weights": w / w.sum(axis=-1, keepdims=True)}
    return _support_params(kind, band)


def _closed_table(kind: str, p: dict[str, np.ndarray]):
    """The table the closed form reads for a batch of supports.

    ``p`` is a support record of (B,) ends and, for histograms, (B, bins)
    normalized weights.  Returns (lo, hi, offsets, line): the support
    ends and, for histograms, two (B, bins + 2) tables whose column c
    stands for bin c - 1 (columns 0 and bins + 1 are the pads below and
    above the support): ``offsets`` holds each bin's left edge less
    ``lo`` (0 on the pad below), and ``line`` the ``histogram_table`` CDF
    at that edge plus i times the CDF's slope on the bin, its mass over
    the bin width (0 on the pads).  For the other kinds ``offsets`` is
    None and ``line`` the slope of the support's line t = (x - lo) /
    (hi - lo).  The table depends on no frame, so a grid block builds it
    once per band pixel.
    """
    lo, hi = p["lo"], p["hi"]
    # a support of zero width, which a stencil may read only as a
    # neighbor, gets an infinite slope that no live interval reads
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind != "histogram":
            return lo, hi, None, None, 1.0 / (hi - lo)
        _, binw, slope, cdf = histogram_table(lo, hi, p["weights"])
        # each mass becomes its slope, in place; the pads stay 0
        np.divide(slope[:, 1:-1], binw, out=slope[:, 1:-1])
    offsets = np.zeros(slope.shape)
    offsets[:, 1:] = histogram_edges(0.0, binw, slope.shape[1] - 2)
    return lo, hi, offsets, cdf, slope


def _closed_edges(table, rows, origin) -> np.ndarray:
    """Histogram bin edges of each stencil position in its center's frame.

    ``rows`` holds the (pixels, positions) rows of ``table`` (see
    ``_closed_table``) and ``origin`` each pixel's center midpoint.
    Probabilities are shift-invariant; in the shifted frame node
    coordinates are on the scale of the support widths, so narrow
    supports far from the origin keep their relative precision.  Returns
    (pixels, positions, bins + 2): column k + 1 is edge k, lo + binw * k
    in the frame as ``histogram_edges`` gives it, and column 0 repeats
    edge 0, so column c holds the left edge of the table's column c.
    """
    lo, _, offsets, _, _ = table
    frame_lo = np.take(lo, rows)
    frame_lo -= origin[:, None]
    edges = np.take(offsets, rows, axis=0)
    edges += frame_lo[..., None]
    return edges


# Elements of one (pixels, intervals) plane of the closed-form kernel:
# 1536 pixels of a uniform or Epanechnikov stencil, 476 of histogram(5).
# The budget bounds the dense planes of kinks and their sort; the rows
# of the live intervals that the lines and the node loop fill grow with
# it.  Swept on a 2-core x86 host (2 MiB L2 per core), Ackley fields of
# 50 members, `classify_field` on one worker, each budget against 9216
# in alternating pairs (10 at 64^2, 8 at 256^2), change of the median
# time, uniform / Epanechnikov / histogram(5):
#    11520  64^2  -1.2 / -5.2 / +1.2%   256^2  -3.7 / +9.9 /  0.0%
#    13824  64^2  -5.0 / -3.4 / -5.5%   256^2  -5.2 / -4.0 / +3.2%
#    18432  64^2 -10.1 / -7.1 / +70%    256^2 -10.6 / -1.8 / -11.6%
# At 256^2 a histogram(5) block is one 254-pixel row up to 13824, so its
# figures there are noise.  At 18432 a 64^2 histogram(5) block of 620
# pixels holds about 14600 live intervals and falls out of the cache.
# The 64^2 tracemalloc peak of a classify, 9216 -> 13824: 1.38 -> 2.01,
# 1.59 -> 2.32 and 1.90 -> 2.53 MiB, under the 2.59 MiB of the
# histogram(5) classify before this kernel.
CLOSED_PLANE = 13824


def closed_chunk_pixels(model) -> int:
    """Pixels per closed-form block: as many as fit one plane of ``CLOSED_PLANE``.

    A stencil has 10 kinks (two support ends at five positions), or
    ``5 * (bins + 1)`` bin edges for histograms, so one fewer interval.
    """
    kinks = 5 * (model.bins + 1) if model.kind == "histogram" else 10
    return max(1, CLOSED_PLANE // (kinks - 1))


def _closed_chunk(groups, channels) -> dict[str, np.ndarray]:
    """All requested channels of a pixel chunk from one shared node set.

    ``groups`` lists the stencil positions of each kind and bin count as
    (kind, positions, table, index): the ascending positions (0 the
    center, then east, north, west and south, or east and north alone),
    a ``_closed_table`` of supports, and the (len(positions), pixels)
    rows of that table at those positions.  A grid block is one group of
    all five positions over the table of its band pixels; a single case
    has a group for each kind and bin count among its distributions, one
    table row per position.  Every kink is clipped to the center's
    support and sorted once; the center density and the neighbor CDFs
    are evaluated on the resulting Gauss-Legendre nodes, and each
    channel is a different product of those same values.  This is exact:
    every factor is a polynomial between consecutive kinks, and each
    channel's integrand vanishes outside its own range.  ``channels``
    may also name ``"mass"``, the sum of the node weights alone, the
    center density's quadrature mass.

    A kink outside the center's support is clipped onto one of its ends
    and leaves an interval of zero width, whose terms would be exactly
    +0.0; only the L live intervals, those of nonzero width, are
    evaluated, as one flat list with the pixel row of each.  When any
    position is a histogram the kinks are argsorted: each histogram kink
    carries a code that adds 1 to its position's bit field, so the
    running sum of the sorted codes counts, at each interval's left end,
    the position's edges at or below it, whatever the order of tied
    kinks.  That count is the column of the position's bin in its row of
    the frame's tables, where one lookup each reads the bin's left edge,
    the CDF there and the slope, so the CDF at the midpoint is ``cdf +
    slope * (mid - edge)``; a histogram center reads its slope alone.  A
    uniform or Epanechnikov position is taken on its support's line t =
    (x - lo) / (hi - lo), clipped into [0, 1], with zero slope outside
    the support.  Every position's slope is scaled to the unit node
    coordinate, so a line's value at node x is ``at_mid + slope * x``.

    The nodes come in symmetric pairs -x, +x: the slopes times x are
    found once for both, in place of the slopes when the rule has one
    pair, and the middle node of an odd rule, x = 0, reads each
    ``at_mid`` as it is, between the last pair's two nodes, so the
    3-node rule adds its nodes in ascending order.  A node's factors are
    written in place into fixed buffers of L columns: the neighbor
    survivals and CDFs, whose east and north rows then take the products
    below and above each axis pair, with the node weight joined to the
    east/west one; its min, max and saddle terms (and its weight, for the
    mass) are added to one row each.  One segmented sum
    (``np.add.reduceat``) then adds each pixel's live intervals in
    order, so a pixel's rounding never depends on the chunk.  A sum
    below 0, which only rounding could give, is raised to +0.0.
    """
    _, _, (c_lo, c_hi, *_), c_index = groups[0]
    origin = 0.5 * (np.take(c_lo, c_index[0]) + np.take(c_hi, c_index[0]))
    npix = origin.size
    # one line row per position: the center first, then the neighbors,
    # Epanechnikov ones last
    slots = sorted(
        ((g, i) for g, group in enumerate(groups) for i in range(len(group[1]))),
        key=lambda s: (groups[s[0]][1][s[1]] != 0, groups[s[0]][0] == "epanechnikov"),
    )
    line_of = {s: r for r, s in enumerate(slots)}
    nrows = len(slots)
    # one bit field per position counts up to bins + 1 edges
    counted = [table[2].shape[1] - 1 for kind, _, table, _ in groups if kind == "histogram"]
    bits = max(counted, default=0).bit_length()
    if bits * nrows > 63:
        raise ValueError(
            f"the closed form takes at most {(1 << 63 // nrows) - 2} histogram bins"
        )
    # each group's positions in the center's frame, and their kinks
    frames, kinks, codes = [], [], []
    for g, (kind, positions, table, index) in enumerate(groups):
        rows = index.T
        lines = [line_of[g, i] for i in range(len(positions))]
        if kind == "histogram":
            edges = _closed_edges(table, rows, origin)
            cdf, slope = (np.take(t, rows, axis=0) for t in table[3:])
            frames.append((kind, lines, (edges, cdf, slope)))
            kinks.append(edges[..., 1:])
            codes.append(np.repeat(1 << (bits * np.array(lines)), edges.shape[2] - 1))
        else:
            lo, hi = np.take(table[0], rows), np.take(table[1], rows)
            lo -= origin[:, None]
            hi -= origin[:, None]
            frames.append((kind, lines, (lo, np.take(table[4], rows))))
            kinks.append(np.stack([lo, hi], axis=1))
            codes.append(np.zeros(2 * len(positions), dtype=np.int64))
    # kinks are clipped to the center's support: its first and last edge
    kind, _, data = frames[0]
    if kind == "histogram":
        first, last = data[0][:, 0, 1], data[0][:, 0, -1]
    else:
        first, last = kinks[0][:, 0, 0], kinks[0][:, 1, 0]
    kinks = [np.maximum(k, first[:, None, None]).reshape(npix, -1) for k in kinks]
    kinks = kinks[0] if len(kinks) == 1 else np.concatenate(kinks, axis=1)
    np.minimum(kinks, last[:, None], out=kinks)
    nk = kinks.shape[1]
    if counted:
        order = np.argsort(kinks, axis=1)
        state = np.take(np.concatenate(codes), order)
        np.cumsum(state, axis=1, out=state)
        order += nk * np.arange(npix)[:, None]
        pts = np.take(kinks, order)
        del order
    else:
        kinks.sort(axis=1)
        pts = kinks
    del kinks
    # intervals of nonzero width; NaN widths stay, so NaN reaches the sums
    gaps = np.subtract(pts[:, 1:], pts[:, :-1])
    live_mask = gaps != 0.0
    live = np.flatnonzero(live_mask)
    size = live.size
    row = live // (nk - 1)
    left = live + row  # each interval's left end among the sorted kinks
    mid = np.take(pts, left)
    if counted:
        state = np.take(state, left)
    left += 1
    mid += np.take(pts, left)
    mid *= 0.5
    half = np.take(gaps, live)
    half *= 0.5
    del pts, gaps, left, live
    # each line row's value at the midpoint and its slope per unit node
    # coordinate, group by group
    parts = []
    for kind, lines, data in frames:
        if kind == "histogram":
            # the bin of each position at each interval: its edges at or
            # below the left end, read from its bit field of the state
            edges, cdf, slope = data
            n, cols = edges.shape[1:]
            at = state >> (bits * np.array(lines))[:, None]
            at &= (1 << bits) - 1
            at += (cols * np.arange(n))[:, None]
            at += row * (n * cols)
            # the CDF at the bin's left edge plus the slope times the
            # distance from it; a histogram center needs its slope alone
            slope = np.take(slope, at)
            at_mid = np.empty((n, size))
            if lines[0] == 0:
                at_mid[0] = 0.0
                at = at[1:]
            rest = at_mid[n - at.shape[0] :]
            np.take(edges, at, out=rest)
            np.subtract(mid, rest, out=rest)
            rest *= slope[n - at.shape[0] :]
            rest += np.take(cdf, at)
            np.minimum(rest, 1.0, out=rest)
            slope *= half
        else:
            # the support's line t, with zero slope outside the support
            lo, inv = data
            n = lo.shape[1]
            at = row * n + np.arange(n)[:, None]
            at_mid = np.take(lo, at)
            np.subtract(mid, at_mid, out=at_mid)
            slope = np.take(inv, at)
            at_mid *= slope
            # a support of zero width has an infinite slope, and t is
            # -inf or +inf on every live interval
            np.minimum(slope, np.finfo(float).max, out=slope)
            slope *= (at_mid > 0.0) & (at_mid < 1.0)
            slope *= half
            np.maximum(at_mid, 0.0, out=at_mid)
            np.minimum(at_mid, 1.0, out=at_mid)
        parts.append((lines, slope, at_mid))
    # each pixel's live intervals, one segment of the sums
    counts = np.bincount(row, minlength=npix)
    del at, mid, half, frames, row
    if len(parts) == 1:
        _, slope, at_mid = parts[0]
    else:
        slope, at_mid = np.empty((2, nrows, size))
        for lines, part_slope, part_mid in parts:
            slope[lines], at_mid[lines] = part_slope, part_mid
    kinds = [groups[g][0] for g, _ in slots]
    order = [groups[g][1][i] for g, i in slots[1:]]
    nbr = len(order)
    density, c_mid, nbr_slope, nbr_mid = slope[0], at_mid[0], slope[1:], at_mid[1:]
    linear = slice(0, sum(kind != "epanechnikov" for kind in kinds[1:]))
    cubic = slice(linear.stop, nbr)
    epan = kinds[0] == "epanechnikov"
    xi, wts = _GAUSS_LEGENDRE[8 if "epanechnikov" in kinds else 3]
    mass = "mass" in channels
    nch = 3 + mass
    n = xi.size
    # slope times x, shared by the nodes -x and +x, in place of the slope
    # when the rule has one pair; [sf, cdf] of each neighbor at one node,
    # whose rows then take the pair products; the node's weight, center
    # density included; the node's terms and their sums
    if n // 2 == 1:
        shift = nbr_slope
    else:
        shift = np.empty((nbr + epan, size))
    sf_cdf = np.empty((2, nbr, size))
    sf, cdf = sf_cdf
    g = np.empty(size)
    terms = np.empty((nch, size))
    acc = np.empty((nch, size))
    east, north = sf_cdf[:, order.index(1)], sf_cdf[:, order.index(2)]
    if nbr == 4:
        west, south = sf_cdf[:, order.index(3)], sf_cdf[:, order.index(4)]
        cross = west
    else:
        cross = np.empty((2, size))

    def add_node(k, sign, first):
        """Add the terms of node k, at ``sign`` times the pair's x."""
        op = np.add if sign > 0 else np.subtract
        if sign:
            op(nbr_mid, shift[:nbr], out=cdf)
        else:
            # the middle node, x = 0, reads each midpoint value as it is
            np.copyto(cdf, nbr_mid)
        if cubic.stop > cubic.start:
            # CDF t^2 (3 - 2 t), with sf as scratch
            t, s = cdf[cubic], sf[cubic]
            np.multiply(t, -2.0, out=s)
            s += 3.0
            t *= t
            t *= s
        np.subtract(1.0, cdf, out=sf)
        if epan:
            # with the terms as scratch until they are found
            op(c_mid, shift[nbr], out=g)
            np.subtract(1.0, g, out=terms[0])
            np.multiply(g, terms[0], out=g)
            # 6 t (1 - t) times the uniform density
            np.multiply(g, density, out=g)
            np.multiply(g, 6.0 * wts[k], out=g)
        else:
            np.multiply(density, wts[k], out=g)
        # [below, above] the east/west pair and the north/south pair, in
        # the east and north rows; the weight joins the east/west factors
        if nbr == 4:
            np.multiply(east, west, out=east)
            np.multiply(north, south, out=north)
        np.multiply(east, g, out=east)
        # min: below all neighbors; max: above all; saddle: below one
        # pair and above the other, either way round
        out = acc if first else terms
        np.multiply(east, north, out=out[:2])
        np.multiply(east, north[::-1], out=cross)
        np.add(cross[0], cross[1], out=out[2])
        if mass:
            np.copyto(out[3], g)
        if not first:
            np.add(acc, terms, out=acc)

    for k in range(n // 2):
        x = xi[n - 1 - k]  # the pair's nodes are -x and +x
        np.multiply(nbr_slope, x, out=shift[:nbr])
        if epan:
            np.multiply(density, x, out=shift[nbr])
        add_node(k, -1, k == 0)
        if n % 2 and k == n // 2 - 1:
            # an odd rule adds its nodes in ascending order
            add_node(n // 2, 0, False)
        add_node(n - 1 - k, 1, False)
    # each pixel's live intervals in order
    if size:
        starts = np.cumsum(counts)
        starts -= counts
        sums = np.add.reduceat(acc, np.minimum(starts, size - 1), axis=1)
        sums[:, counts == 0] = 0.0
    else:
        sums = np.zeros((nch, npix))
    np.maximum(sums, 0.0, out=sums)
    found = dict(zip((*CHANNELS, "mass"), sums))
    return {ch: found[ch] for ch in channels}


# Draws per tile of the semianalytical kernel (pixels times draws) and
# per block of single-case Monte Carlo.  A Monte Carlo block takes about
# 16 bytes per drawn cell (the uniform plane and the draws, which hold
# the plane's splitmix64 hash until the kernel fills them; 24 for a
# Gaussian's two planes) and 12 per stencil (comparison and pair flags,
# hit counters); a single case's 3 x 3 block holds nine cells for its
# one stencil, about 96 bytes per draw, so a uniform case at 10^6 draws
# peaks at 3.5 MiB here, against 7.0 MiB at 65536.
TILE_DRAWS = 32768

# Stencil draws per block of grid Monte Carlo, about 33 bytes each on a
# 64-wide grid, so a block of a 64 x 64 uniform field peaks at 2.4 MiB
# (tracemalloc; 1.4 at 32768, 4.4 at 131072).  Fewer draws per block
# mean more numpy calls per draw (about 45 per block) and, on the thread
# pool, more passes of the interpreter lock.  Measured on a 2-core x86
# host (48 KiB L1d, 2 MiB L2 per core), Monte Carlo (2000) of a 64 x 64
# Ackley field, uniform / histogram(5) / Gaussian, the best of 3 calls,
# median of 5 interleaved rounds, at 1 worker and at 2 workers:
#    16384  0.160 / 0.406 / 0.549 s   0.155 / 0.306 / 0.371 s
#    32768  0.128 / 0.335 / 0.461     0.099 / 0.196 / 0.292
#    65536  0.107 / 0.331 / 0.468     0.079 / 0.192 / 0.265
#    98304  0.116 / 0.305 / 0.515     0.076 / 0.189 / 0.295
#   131072  0.133 / 0.344 / 0.540     0.080 / 0.202 / 0.284
GRID_DRAWS = 65536


def _tiles(npix: int, n: int):
    """Tile size and pixel slices for ``n`` draws per pixel."""
    size = min(npix, max(1, TILE_DRAWS // n))
    return size, [slice(s, min(s + size, npix)) for s in range(0, npix, size)]


def _sampler(kind: str, p: dict[str, np.ndarray]):
    """Uniform planes, sampling kernel and parameters of a batch of pixels.

    Parameters are (pixels, 1) columns or (pixels, bins + 2) tables, so a
    tile slices them by rows; a histogram's are its ``histogram_table``.
    ``_case_sampler`` builds the same values from a distribution object,
    so a grid pixel and its distribution draw bit for bit the same
    values from the same streams.
    """
    if kind == "gaussian":
        return 2, box_muller, (p["mean"][:, None], p["stddev"][:, None])
    return 1, *icdf_sampler(kind, p["lo"], p["hi"], p.get("weights"))


# Stencil rows per Monte Carlo tile, at least.  A tile draws its own rows
# and one more above and below, which the neighboring tiles draw again,
# so the repeated draws stay near 2 / _TILE_ROWS; more rows make shorter
# draw blocks.  On the host of the GRID_DRAWS figures, at 32768 stencil
# draws per block, Monte Carlo (2000) of a 64 x 64 field on one worker,
# median of 5 runs, uniform / histogram(5): 4 rows 0.16 / 0.43 s, 8 rows
# 0.14 / 0.36, 16 rows 0.15 / 0.37, 32 rows 0.15 / 0.37, and the whole
# chunk 0.16 / 0.39.
_TILE_ROWS = 8


def _mc_tiles(rows: int, width: int, n: int, budget: int):
    """Draws per block and the row tiles of the Monte Carlo kernel.

    A tile is a run of stencil rows, enough for ``budget // n`` stencils
    or ``_TILE_ROWS`` rows if that is more, and takes its draws in blocks
    of ``budget`` stencil draws in all.  Each tile is given as the slice
    of block rows it draws, its stencil rows plus the row above and
    below.
    """
    inner = width - 2
    size = min(rows - 2, max(_TILE_ROWS, -(-(budget // n) // inner)))
    draws = min(n, max(1, budget // (size * inner)))
    tiles = [slice(r - 1, min(r + size, rows - 1) + 1) for r in range(1, rows - 1, size)]
    return draws, tiles


def _shaped(buf: np.ndarray, *shape: int) -> np.ndarray:
    """Contiguous view of the leading elements of the flat ``buf``."""
    return buf[: math.prod(shape)].reshape(shape)


def _mc_chunk(groups, rows, width, n, channels, budget, copies=()) -> dict[str, np.ndarray]:
    """Monte Carlo fractions of the stencils of a block of cells.

    The block is ``rows`` x ``width`` cells, and a stencil is centered on
    every cell off its edge, in row-major order.  ``groups`` lists sets
    of distributions as (first, keys, kernel, params): the (m, planes)
    stream keys of m distributions, which fill the flat cells first ..
    first + m - 1, and the ``_sampler`` kernel and parameters that turn
    their uniform planes into draws.  Draw i of a cell is counter i of
    its streams, made once per block of a tile and read by every stencil
    of the tile that holds the cell, so stencils that share a cell see
    the same value.  A cell no stencil reads may be left out.  Blocks
    hold about ``budget`` stencil draws (see ``_mc_tiles``).  ``copies``
    lists (cell, source) pairs of a block drawn in one tile: the cell
    takes the source cell's draws instead of drawing its own.

    The comparisons of two adjacent cells are made once, over shifted
    slices of the draws, for each horizontal pair of a stencil row and
    each vertical pair of an inner column; every stencil reads its east
    and west, north and south flags from those planes.  Each channel
    then joins the east/west flags with the north/south ones, as the
    closed form multiplies its pair factors.  Comparisons are strict, so
    ties count against every pattern.

    Every block reuses the same buffers: the uniform planes, the draws,
    the comparison and pair flags.  A group's uniform planes are hashed,
    one after the other, in the draw cells the kernel then fills from
    them, so drawing needs no scratch of its own.  Matches add up in
    uint8 counters, moved to the int64 counts every 255 blocks and at
    the end of a tile.
    Counts are integers, divided by ``n`` once, so the tile and block
    layout changes no result.
    """
    draws, tiles = _mc_tiles(rows, width, n, budget)
    inner = width - 2
    size = max(sl.stop - sl.start for sl in tiles)  # block rows of a tile
    # the most cells of one group that one tile draws
    piece = max(
        min(first + keys.shape[0], sl.stop * width) - max(first, sl.start * width)
        for sl in tiles
        for first, keys, _, _ in groups
    )
    u = np.empty(max(keys.shape[1] for _, keys, _, _ in groups) * piece * draws)
    xs = np.empty(size * width * draws)
    # each cell below and above its right neighbor in a stencil row, and
    # its lower neighbor in an inner column
    across = np.empty(2 * (size - 2) * (width - 1) * draws, dtype=bool)
    down = np.empty(2 * (size - 1) * inner * draws, dtype=bool)
    # the center below and above its east/west pair, its north/south
    # pair, and one channel's term
    pairs = np.empty(5 * (size - 2) * inner * draws, dtype=bool)
    hits = np.empty(len(channels) * (size - 2) * inner * draws, dtype=np.uint8)
    counts = {ch: np.zeros((rows - 2) * inner, dtype=np.int64) for ch in channels}
    for sl in tiles:
        t = sl.stop - sl.start - 2  # stencil rows
        c0, c1 = sl.start * width, sl.stop * width
        tile_stencils = slice(sl.start * inner, (sl.start + t) * inner)
        tile_hits = _shaped(hits, len(channels), t, inner, draws)
        tile_hits.fill(0)
        for block, start in enumerate(range(0, n, draws)):
            ctr = rngstream.counters(start, min(start + draws, n))
            m = ctr.size
            x = _shaped(xs, t + 2, width, m)
            cells = x.reshape(-1, m)
            for first, keys, kernel, params in groups:
                a0, a1 = max(first, c0), min(first + keys.shape[0], c1)
                if a0 >= a1:
                    continue
                own = slice(a0 - first, a1 - first)
                planes = _shaped(u, keys.shape[1], a1 - a0, m)
                # the cells hash their own draws before the kernel fills them
                drawn = cells[a0 - c0 : a1 - c0]
                for q, plane in enumerate(planes):
                    rngstream.fill_units(keys[own, q], ctr, plane, drawn.view(np.uint64))
                kernel(*(p[own] for p in params), *planes, drawn)
            for cell, source in copies:
                cells[cell] = cells[source]
            h, v = x[1:-1], x[:, 1:-1]  # stencil rows, inner columns
            lt_h, gt_h = _shaped(across, 2, t, width - 1, m)
            lt_v, gt_v = _shaped(down, 2, t + 1, inner, m)
            np.less(h[:, :-1], h[:, 1:], out=lt_h)
            np.greater(h[:, :-1], h[:, 1:], out=gt_h)
            np.less(v[:-1], v[1:], out=lt_v)
            np.greater(v[:-1], v[1:], out=gt_v)
            ew_b, ew_a, ns_b, ns_a, term = _shaped(pairs, 5, t, inner, m)
            np.logical_and(lt_h[:, 1:], gt_h[:, :-1], out=ew_b)
            np.logical_and(gt_h[:, 1:], lt_h[:, :-1], out=ew_a)
            np.logical_and(gt_v[:-1], lt_v[1:], out=ns_b)
            np.logical_and(lt_v[:-1], gt_v[1:], out=ns_a)
            for i, ch in enumerate(channels):
                acc = tile_hits[i, ..., :m]
                if ch == "min":
                    np.logical_and(ew_b, ns_b, out=term)
                elif ch == "max":
                    np.logical_and(ew_a, ns_a, out=term)
                else:
                    # the two saddle terms are disjoint, since the center
                    # cannot be both below and above its east neighbor
                    np.add(acc, np.logical_and(ew_b, ns_a, out=term).view(np.uint8), out=acc)
                    np.logical_and(ew_a, ns_b, out=term)
                np.add(acc, term.view(np.uint8), out=acc)
            if block % 255 == 254 or start + draws >= n:
                for i, ch in enumerate(channels):
                    found = tile_hits[i].sum(axis=-1, dtype=np.int64)
                    counts[ch][tile_stencils] += found.reshape(-1)
                tile_hits.fill(0)
    return {ch: counts[ch] / n for ch in channels}


def _semi_chunk(samplers, px_idx, c, seed, channels) -> dict[str, np.ndarray]:
    """Semianalytical estimates of a pixel batch through the same tile loop.

    ``samplers`` are histogram ``_sampler`` triples, center first; the
    neighbors' tables are what ``histogram_cdf_values`` reads.  A
    pixel's c draws stay in one tile, so each mean keeps its summation
    order.
    """
    _, kernel, center = samplers[0]
    nbrs = [params for _, _, params in samplers[1:]]
    keys = rngstream.stream_keys(seed, px_idx, 1)[:, 0]
    ctr = rngstream.counters(0, c)
    size, tiles = _tiles(px_idx.size, c)
    u = np.empty((size, c))
    x = np.empty((size, c))
    cdf = np.empty((len(nbrs), size, c))
    sf = np.empty((len(nbrs), size, c))
    terms = np.empty((2, size, c))
    out = {ch: np.empty(px_idx.size) for ch in channels}
    for sl in tiles:
        k = sl.stop - sl.start
        rngstream.fill_units(keys[sl], ctr, u[:k], x[:k].view(np.uint64))
        kernel(*(a[sl] for a in center), u[:k], x[:k])
        for i, params in enumerate(nbrs):
            histogram_cdf_values(*(a[sl] for a in params), x[:k], cdf[i, :k])
        np.subtract(1.0, cdf[:, :k], out=sf[:, :k])
        for ch in channels:
            pattern = _conditional_pattern(cdf[:, :k], sf[:, :k], ch, terms[:, :k])
            out[ch][sl] = pattern.mean(axis=-1)
    return out


def _stencil(a: np.ndarray) -> np.ndarray:
    """Center, east, north, west and south of every interior pixel of a
    (rows, cols[, bins]) band, as (5, pixels[, bins])."""
    shifted = np.stack([a[1:-1, 1:-1], a[1:-1, 2:], a[:-2, 1:-1], a[1:-1, :-2], a[2:, 1:-1]])
    return shifted.reshape((5, -1) + a.shape[2:])


def _chunk_task(method, kind, band, origin, width, estimator, channels) -> dict[str, np.ndarray]:
    """One block of ``classify_field``: a rectangle of interior pixels.

    ``band`` holds the field's (rows, cols[, bins]) parameters of the
    block and the one-pixel halo around it; ``origin`` is the flat field
    index of the band's first pixel and ``width`` the field's width, so
    band pixel (i, j) is field pixel ``origin + width * i + j``, the key
    of its sample streams.  Monte Carlo draws every pixel of the band
    once per sample; the closed form builds one table of the band's
    pixels and reads each stencil position through a (5, pixels) index;
    the other methods take each stencil position as a shifted slice of
    the band.  So every copy scales with the block.  Results are the
    block's pixels in row-major order.
    """
    rows, cols = next(iter(band.values())).shape[:2]
    params = _band_params(kind, band)
    if method == "closed_form":
        # one table row per band pixel, read by each stencil position
        flat = {name: a.reshape((-1,) + a.shape[2:]) for name, a in params.items()}
        index = _stencil(np.arange(rows * cols).reshape(rows, cols))
        return _closed_chunk([(kind, range(5), _closed_table(kind, flat), index)], channels)
    pixels = origin + width * np.arange(rows)[:, None] + np.arange(cols)
    if method == "monte_carlo":
        # the block's pixels are every interior pixel of the band
        by_pixel = {name: a.reshape((-1,) + a.shape[2:]) for name, a in params.items()}
        per, kernel, columns = _sampler(kind, by_pixel)
        keys = rngstream.stream_keys(estimator.seed, pixels, per)
        return _mc_chunk(
            [(0, keys, kernel, columns)], rows, cols, estimator.n_samples, channels, GRID_DRAWS
        )
    stacked = {name: _stencil(a) for name, a in params.items()}
    pos = [{name: arr[i] for name, arr in stacked.items()} for i in range(5)]
    samplers = [_sampler(kind, p) for p in pos]
    if method == "combinatorial":
        return _comb_chunk(samplers, channels)
    return _semi_chunk(samplers, pixels[1:-1, 1:-1], estimator.c, estimator.seed, channels)


def classify_field(
    field: UncertainField,
    estimator: EstimatorSpec | None = None,
    workers: int = 1,
    channels=CHANNELS,
) -> ProbabilityField:
    """Per-pixel critical-point probabilities over the interior pixels.

    The one-pixel border is marked invalid.  Work is split into blocks
    of whole interior rows, one block per worker (the closed form and
    combinatorial blocks are smaller still, and a row wider than their
    budget is split), pulled from one queue, and with ``workers`` above
    1 the blocks of every method run on one thread pool.  Each block's
    channels are written into the output planes as it finishes, so no
    result list is kept.  An error in a block is raised once every pool
    thread has joined.  Per-pixel math never crosses block boundaries,
    and sample streams are keyed by pixel index, so the output is
    identical for any ``workers`` value or block layout.  Raises
    ValueError if any requested channel has a non-finite interior value,
    as it does when a field's supports overflow float64.
    """
    estimator = estimator or EstimatorSpec()
    if isinstance(channels, str):
        channels = (channels,)
    for ch in channels:
        if ch not in CHANNELS:
            raise ValueError(f"unknown channel {ch!r}")
    height, width = field.shape
    if height < 3 or width < 3:
        raise ValueError("field must be at least 3 x 3 to have interior pixels")
    kind = field.model.kind
    method = estimator.method
    if method == "closed_form" and kind == "gaussian":
        raise ValueError("Gaussian fields have no closed form; use monte_carlo")
    if method in ("semianalytical", "combinatorial") and kind != "histogram":
        raise ValueError(f"{method} estimation is defined for histogram fields only")
    if method == "combinatorial" and field.model.bins > COMBINATORIAL_MAX_BINS:
        raise ValueError(
            f"combinatorial estimation refuses more than {COMBINATORIAL_MAX_BINS} bins"
        )
    if workers < 1:
        raise ValueError("workers must be positive")
    if method == "closed_form":
        # a center of zero width has no live interval, and the kernel
        # would give it 0 for every channel
        sup = _support_params(kind, {n: a[1:-1, 1:-1] for n, a in field.params.items()})
        zero = np.count_nonzero(sup["hi"] <= sup["lo"])
        del sup
        if zero:
            raise ValueError(f"{zero} interior supports have zero or negative width")

    rows, inner = height - 2, width - 2
    # pixels per block: a worker's share of whole interior rows, which
    # Monte Carlo and semianalytical take as it is
    budget = inner * math.ceil(rows / workers)
    if method == "combinatorial":
        budget = min(budget, 512)
    elif method == "closed_form":
        # sized by the plane budget; see CLOSED_PLANE
        budget = min(budget, closed_chunk_pixels(field.model))
    # whole rows, or the budget's pixels of one row when a row holds more
    block_rows, block_cols = max(1, budget // inner), min(budget, inner)
    out = ProbabilityField.empty(height, width)
    out.valid[1:-1, 1:-1] = True
    targets = [out.channel(ch)[1:-1, 1:-1] for ch in channels]
    # one queue of block corners in the interior, shared by every worker
    corners = itertools.product(range(0, rows, block_rows), range(0, inner, block_cols))
    lock = threading.Lock()

    def drain() -> None:
        """Run blocks off the queue until it is empty, writing each into
        the output as it finishes."""
        while True:
            with lock:
                corner = next(corners, None)
            if corner is None:
                return
            top, left = corner
            bottom, right = min(top + block_rows, rows), min(left + block_cols, inner)
            # the block's field rows and columns with the halo around them
            band = {
                name: arr[top : bottom + 2, left : right + 2] for name, arr in field.params.items()
            }
            try:
                result = _chunk_task(
                    method, kind, band, top * width + left, width, estimator, channels
                )
            except BaseException:
                with lock:  # the other workers stop at their next block
                    for _ in corners:
                        pass
                raise
            for ch, target in zip(channels, targets):
                target[top:bottom, left:right] = result[ch].reshape(bottom - top, right - left)

    tasks = min(workers, math.ceil(rows / block_rows) * math.ceil(inner / block_cols))
    if tasks == 1:
        drain()
    else:
        with ThreadPoolExecutor(max_workers=tasks) as pool:
            # each thread runs in a copy of the caller's context, so the
            # caller's np.errstate holds in it as on one worker
            futures = [pool.submit(contextvars.copy_context().run, drain) for _ in range(tasks)]
        # the pool's threads have joined; a block's error is raised here
        for f in futures:
            f.result()
    with np.errstate(over="ignore", invalid="ignore"):
        totals = [target.sum() for target in targets]
    for ch, target, total in zip(channels, targets, totals):
        # the sum is finite when every value is, unless the values are
        # huge; only then are they counted, so the common case needs no
        # field-sized scratch
        if not math.isfinite(total):
            bad = target.size - np.count_nonzero(np.isfinite(target))
            if bad:
                raise ValueError(f"{bad} interior p_{ch} values are not finite")
    return out
