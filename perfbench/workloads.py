"""The four benchmark workloads: seeded inputs, the timed pipeline, checks.

Each workload drives critprob's public API the way the CLI does (load,
fit, classify, write) and wraps every call into the package in a span,
so the same ``pipeline`` serves the untraced end-to-end runs (with a
``NullTracer``) and the traced per-layer runs.  Inputs come from this
module's own generator, keyed by the workload seed.  ``check`` runs
after timing and compares outputs with the independent quadrature
reference in ``reference.py`` or with properties the method must have,
never with a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(_SRC))

import critprob as cp  # noqa: E402
from critprob import rngstream  # noqa: E402

import reference as ref  # noqa: E402
from tracing import NullTracer  # noqa: E402

if not Path(cp.__file__).resolve().is_relative_to(_SRC):
    raise ImportError(f"critprob must come from {_SRC}, found {cp.__file__}")

MODELS = ("uniform", "epanechnikov", "histogram")
CASE_GROUPS = ("uniform", "epanechnikov", "histogram", "mixed", "2nbr")
HIST_BINS = 5
WORKERS = os.cpu_count() or 1
MC_DRAWS = 2000
REF_PIXELS = 16  # seeded interior pixels per model checked against the reference
REF_TOL = 1e-9
GAMMA = 0.7


# -- inputs ----------------------------------------------------------------


def ackley_members(rng, size: int, members: int, noise: float, spacing: float) -> np.ndarray:
    """Ackley surface on a size x size grid plus N(0, noise) per member.

    The grid is centred on a seeded shift of the origin, with the given
    pixel spacing; a smaller size is a crop of the same surface.
    """
    shift = rng.uniform(-0.5, 0.5, size=2)
    t = (np.arange(size) - 0.5 * (size - 1)) * spacing
    x = t[None, :] + shift[0]
    y = t[:, None] + shift[1]
    base = (
        -20.0 * np.exp(-0.2 * np.sqrt(0.5 * (x * x + y * y)))
        - np.exp(0.5 * (np.cos(2.0 * np.pi * x) + np.cos(2.0 * np.pi * y)))
        + math.e
        + 20.0
    )
    noisy = base[None] + noise * rng.standard_normal((members, size, size))
    return noisy.astype(np.float32)


def write_ucvf(path: Path, planes: np.ndarray) -> None:
    """UCVF1 header plus little-endian float32 planes, written without critprob."""
    channels, height, width = planes.shape
    with open(path, "wb") as fh:
        fh.write(f"UCVF1 {width} {height} {channels}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(planes, dtype="<f4").tobytes())


def read_ucvf(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    newline = raw.index(b"\n")
    _, width, height, channels = raw[:newline].split()
    shape = (int(channels), int(height), int(width))
    return np.frombuffer(raw[newline + 1 :], dtype="<f4").reshape(shape)


def degenerate_pixels(members: np.ndarray) -> int:
    """Pixels whose members are all equal (kept out of every workload)."""
    return int((members.max(axis=0) == members.min(axis=0)).sum())


# -- shared checks -----------------------------------------------------------


def channels(prob) -> np.ndarray:
    return np.stack([prob.p_min, prob.p_max, prob.p_saddle])


def check_prob_field(prob, label: str) -> list[str]:
    """Border invalid and zero; interior finite, in [0, 1], summing to <= 1."""
    errors = []
    inner = np.zeros(prob.shape, dtype=bool)
    inner[1:-1, 1:-1] = True
    if not np.array_equal(prob.valid, inner):
        errors.append(f"{label}: validity mask is not exactly the interior")
    chans = channels(prob)
    if (chans[:, ~inner] != 0.0).any():
        errors.append(f"{label}: border pixels are not zero")
    vals = chans[:, inner]
    if not np.isfinite(vals).all():
        errors.append(f"{label}: non-finite probabilities")
    elif vals.min() < 0.0 or vals.max() > 1.0:
        errors.append(f"{label}: probabilities outside [0, 1]")
    elif vals.sum(axis=0).max() > 1.0 + 1e-12:
        errors.append(f"{label}: p_min + p_max + p_saddle exceeds 1")
    return errors


def check_reference(prob, dist_at, rng, label: str) -> list[str]:
    """A seeded sample of interior pixels matches the quadrature reference."""
    height, width = prob.shape
    rows = rng.integers(1, height - 1, size=REF_PIXELS)
    cols = rng.integers(1, width - 1, size=REF_PIXELS)
    worst = 0.0
    for r, c in zip(rows, cols):
        nbrs = (dist_at(r, c + 1), dist_at(r - 1, c), dist_at(r, c - 1), dist_at(r + 1, c))
        expect = ref.triple(dist_at(r, c), nbrs)
        got = (prob.p_min[r, c], prob.p_max[r, c], prob.p_saddle[r, c])
        worst = max(worst, max(abs(a - b) for a, b in zip(got, expect)))
    if not worst <= REF_TOL:
        return [f"{label}: sampled pixels differ from the reference by {worst:.3g}"]
    return []


def check_ucvf_output(path: Path, prob, label: str) -> list[str]:
    """The written UCVF equals the float32 cast of the result, mask as 0/1."""
    expect = np.stack([*channels(prob), prob.valid.astype(np.float64)]).astype(np.float32)
    if not np.array_equal(read_ucvf(path), expect):
        return [f"{label}: UCVF read back differs from the float32 result"]
    return []


def digest(value) -> str:
    """Hash of every result array in a pipeline output."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, cp.ProbabilityField):
            for arr in (*channels(v), v.valid):
                h.update(arr.tobytes())
        elif isinstance(v, np.ndarray):
            h.update(v.tobytes())
        elif isinstance(v, tuple):
            for item in v:
                feed(item)
        elif isinstance(v, dict):
            for key in sorted(v):
                feed(v[key])

    feed(value)
    return h.hexdigest()


# -- workloads ---------------------------------------------------------------


class Workload:
    """One pipeline over seeded inputs in ``workdir``.

    ``items`` is the pixels one pipeline run classifies, ``interior`` the
    interior pixels of one classify call, ``draws`` the Monte Carlo draws
    of one run, ``pool_span`` the span of the call that ``extras`` repeats
    with one worker, and ``case_counts`` the cases per group that
    ``extras`` times.
    """

    name = ""
    interior = 0
    draws = 0
    degenerate = 0
    pool_span = ""
    case_counts: dict[str, int] = {}

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.tiny = tiny
        self.outputs: list[Path] = []
        self.workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Generate the inputs from the seed and write them to ``workdir``."""
        raise NotImplementedError

    def pipeline(self, tr):
        raise NotImplementedError

    def extras(self, tr, out) -> None:
        """Layer measurements made outside the pipeline, traced runs only."""

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.outputs)


class ClosedGrid(Workload):
    """Ensemble UCVF -> fit -> closed-form classify (1 worker) -> UCVF, per model."""

    name = "closed-grid"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.size = 10 if tiny else 64
        self.members_n = 8 if tiny else 50
        self.input = self.workdir / "ensemble.ucvf"
        self.outputs = [self.workdir / f"prob-{m}.ucvf" for m in MODELS]
        self.interior = (self.size - 2) ** 2
        self.items = len(MODELS) * self.interior

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.members = ackley_members(rng, self.size, self.members_n, 0.3, 0.125)
        self.degenerate = degenerate_pixels(self.members)
        write_ucvf(self.input, self.members)
        self.cases = CaseBatch(self.seed, self.tiny)
        self.case_counts = self.cases.counts

    def extras(self, tr, out):
        self.cases.run(tr)

    def pipeline(self, tr):
        out = {}
        for model, path in zip(MODELS, self.outputs):
            with tr.span("field_io.load_ensemble"):
                stack = cp.load_ensemble(self.input)
            with tr.span(f"fields.fit.{model}"):
                field = cp.UncertainField.from_ensemble(
                    stack, cp.ModelSpec(model, bins=HIST_BINS)
                )
            with tr.span(f"engine.classify.{model}"):
                prob = cp.classify_field(field, workers=1)
            with tr.span("field_io.save_ucvf"):
                cp.save_probability_field(prob, path)
            out[model] = (field, prob)
        return out

    def check(self, out):
        m64 = self.members.astype(np.float64)
        lo, hi = m64.min(axis=0), m64.max(axis=0)
        mean, half = ref.epanechnikov_params(m64)
        rng = np.random.default_rng([self.seed, 1])
        errors = []
        for model, path in zip(MODELS, self.outputs):
            field, prob = out[model]
            p = field.params
            if model == "uniform":
                errors += ref.check_uniform_fit(p["lo"], p["hi"], m64)

                def dist_at(r, c):
                    return ref.Dist("uniform", lo[r, c], hi[r, c])

            elif model == "epanechnikov":
                errors += ref.check_epanechnikov_fit(p["mean"], p["halfwidth"], m64)

                def dist_at(r, c):
                    return ref.Dist(
                        "epanechnikov", mean[r, c] - half[r, c], mean[r, c] + half[r, c]
                    )

            else:
                errors += ref.check_histogram_fit(
                    p["lo"], p["hi"], p["weights"], m64, HIST_BINS
                )
                weights = p["weights"]

                def dist_at(r, c):
                    return ref.Dist("histogram", lo[r, c], hi[r, c], tuple(weights[r, c]))

            errors += check_prob_field(prob, model)
            errors += check_reference(prob, dist_at, rng, model)
            errors += check_ucvf_output(path, prob, model)
        return errors + self.cases.check(self.cases.run(NullTracer()))


class ScalarIO(Workload):
    """Scalar UCVF -> from_scalar -> closed-form classify (nproc workers) -> CSV, UCVF, PGM."""

    name = "scalar-io"
    pool_span = "engine.classify.uniform"
    error_bound = 0.5

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.size = 12 if tiny else 256
        self.input = self.workdir / "scalar.ucvf"
        self.csv = self.workdir / "prob.csv"
        self.ucvf = self.workdir / "prob.ucvf"
        self.pgm = self.workdir / "p_max.pgm"
        self.outputs = [self.csv, self.ucvf, self.pgm]
        self.interior = (self.size - 2) ** 2
        self.items = self.interior

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.values = ackley_members(rng, self.size, 1, 0.05, 1.0 / 32)[0]
        write_ucvf(self.input, self.values[None])

    def pipeline(self, tr):
        with tr.span("field_io.load_scalar"):
            values = cp.load_scalar_field(self.input)
        with tr.span("fields.from_scalar"):
            field = cp.UncertainField.from_scalar(values, self.error_bound)
        with tr.span(self.pool_span):
            prob = cp.classify_field(field, workers=WORKERS)
        with tr.span("field_io.save_csv"):
            cp.save_probability_field(prob, self.csv, format="csv")
        with tr.span("field_io.save_ucvf"):
            cp.save_probability_field(prob, self.ucvf)
        with tr.span("field_io.export_heatmap"):
            cp.export_heatmap(prob, "max", self.pgm, gamma=GAMMA)
        return field, prob

    def extras(self, tr, out):
        with tr.span("engine.classify_w1"):
            cp.classify_field(out[0], workers=1)

    def check(self, out):
        field, prob = out
        v = self.values.astype(np.float64)
        half = 0.5 * self.error_bound
        errors = []
        if not (
            np.array_equal(field.params["lo"], v - half)
            and np.array_equal(field.params["hi"], v + half)
        ):
            errors.append("from_scalar bounds differ from value -/+ eb/2")

        def dist_at(r, c):
            return ref.Dist("uniform", v[r, c] - half, v[r, c] + half)

        errors += check_prob_field(prob, "scalar")
        errors += check_reference(prob, dist_at, np.random.default_rng([self.seed, 1]), "scalar")
        errors += check_ucvf_output(self.ucvf, prob, "scalar")
        errors += self._check_csv(prob)
        errors += self._check_pgm(prob)
        return errors

    def _check_csv(self, prob) -> list[str]:
        height, width = prob.shape
        lines = self.csv.read_text(encoding="ascii").splitlines()
        if len(lines) != width * height + 1 or lines[0] != "x,y,p_min,p_max,p_saddle,valid":
            return [f"CSV holds {len(lines)} lines, expected {width * height + 1}"]
        table = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
        ys, xs = np.divmod(np.arange(width * height), width)
        expect = np.column_stack(
            [xs, ys, *(ch.reshape(-1) for ch in channels(prob)), prob.valid.reshape(-1)]
        )
        if not np.array_equal(table, expect):
            return ["CSV values differ from the result"]
        return []

    def _check_pgm(self, prob) -> list[str]:
        height, width = prob.shape
        raw = self.pgm.read_bytes()
        header = f"P5 {width} {height} 255\n".encode("ascii")
        gray = np.round(255.0 * np.clip(prob.p_max, 0.0, 1.0) ** GAMMA)
        gray[~prob.valid] = 0.0
        if raw != header + gray.astype(np.uint8).tobytes():
            return ["PGM bytes differ from round(255 * clip(p_max)^gamma)"]
        return []


class MonteCarloUniform(Workload):
    """Ensemble UCVF -> uniform fit -> Monte Carlo classify (nproc workers) -> UCVF."""

    name = "mc-uniform"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.size = 12 if tiny else 64
        self.members_n = 6 if tiny else 20
        self.input = self.workdir / "ensemble.ucvf"
        self.output = self.workdir / "prob-mc.ucvf"
        self.outputs = [self.output]
        self.interior = (self.size - 2) ** 2
        self.items = self.interior
        self.draws = 5 * MC_DRAWS * self.interior
        self.estimator = cp.EstimatorSpec("monte_carlo", n_samples=MC_DRAWS, seed=seed)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.members = ackley_members(rng, self.size, self.members_n, 0.3, 0.125)
        self.degenerate = degenerate_pixels(self.members)
        write_ucvf(self.input, self.members)

    def pipeline(self, tr):
        with tr.span("field_io.load_ensemble"):
            stack = cp.load_ensemble(self.input)
        with tr.span("fields.fit.uniform"):
            field = cp.UncertainField.from_ensemble(stack, cp.ModelSpec("uniform"))
        with tr.span("engine.mc"):
            prob = cp.classify_field(field, self.estimator, workers=WORKERS)
        with tr.span("field_io.save_ucvf"):
            cp.save_probability_field(prob, self.output)
        return field, prob

    def extras(self, tr, out):
        # the engine's Monte Carlo chunk size, so blocks match in shape
        chunk = max(1, 2_000_000 // MC_DRAWS)
        rows, cols = np.mgrid[1 : self.size - 1, 1 : self.size - 1]
        px = (rows * self.size + cols).reshape(-1).astype(np.uint64)
        with tr.span("rngstream.unit_block"):
            for start in range(0, px.size, chunk):
                rngstream.unit_block(self.seed, px[start : start + chunk], 5, MC_DRAWS)

    def check(self, out):
        field, mc = out
        m64 = self.members.astype(np.float64)
        lo, hi = m64.min(axis=0), m64.max(axis=0)
        errors = ref.check_uniform_fit(field.params["lo"], field.params["hi"], m64)
        closed = cp.classify_field(field, workers=1)

        def dist_at(r, c):
            return ref.Dist("uniform", lo[r, c], hi[r, c])

        errors += check_prob_field(closed, "closed form")
        errors += check_reference(closed, dist_at, np.random.default_rng([self.seed, 1]), "closed form")
        errors += check_prob_field(mc, "monte carlo")
        errors += check_ucvf_output(self.output, mc, "monte carlo")
        n = MC_DRAWS
        for name, p_mc, p_cf in zip(("min", "max", "saddle"), channels(mc), channels(closed)):
            p_mc, p_cf = p_mc[1:-1, 1:-1], p_cf[1:-1, 1:-1]
            counts = p_mc * n
            if np.abs(counts - np.round(counts)).max() > 1e-9:
                errors.append(f"MC {name}: values are not multiples of 1/{n}")
            if (p_mc[p_cf == 0.0] != 0.0).any():
                errors.append(f"MC {name}: nonzero where the exact value is 0")
            se = np.sqrt(p_cf * (1.0 - p_cf) / n)
            inside = np.abs(p_mc - p_cf) <= 4.0 * se
            if inside.mean() < 0.99:
                errors.append(f"MC {name}: only {inside.mean():.2%} of pixels within 4 SE")
        errors += self._check_worker_invariance(field)
        return errors

    def _check_worker_invariance(self, field) -> list[str]:
        small = cp.UncertainField(
            field.model, {k: v[:12, :12].copy() for k, v in field.params.items()}
        )
        one = cp.classify_field(small, self.estimator, workers=1)
        many = cp.classify_field(small, self.estimator, workers=max(2, WORKERS))
        if not np.array_equal(channels(one), channels(many)):
            return ["MC output depends on the worker count"]
        return []


class CaseBatch:
    """A seeded batch of NeighborhoodCases for the per-case path.

    40 cases in each group of CASE_GROUPS (2 when tiny), plus one 4- and
    one 2-neighbor i.i.d. case per kind.  ``counts`` gives the cases per
    group.
    """

    def __init__(self, seed: int, tiny: bool = False) -> None:
        rng = np.random.default_rng([seed, 2])
        cases = []  # (group, iid, reference dists)
        for group in CASE_GROUPS:
            for i in range(2 if tiny else 40):
                n = 2 if group == "2nbr" else 4
                # mixed kinds cycle in a fixed order, so the work per case
                # does not depend on the seed
                kinds = [group if group in MODELS else MODELS[(i + j) % 3] for j in range(n + 1)]
                center = random_dist(rng, kinds[0], rng.uniform(-1.0, 1.0))
                dists = [center] + [overlapping_dist(rng, k, center) for k in kinds[1:]]
                cases.append((group, False, dists))
        for kind in MODELS:
            d = random_dist(rng, kind, rng.uniform(-1.0, 1.0))
            cases.append((kind, True, [d] * 5))
            cases.append(("2nbr", True, [d] * 3))
        self.cases = [
            (group, iid, dists, cp.NeighborhoodCase(to_critprob(dists[0]), tuple(map(to_critprob, dists[1:]))))
            for group, iid, dists in cases
        ]
        self.counts = {g: sum(c[0] == g for c in self.cases) for g in CASE_GROUPS}

    def run(self, tr) -> np.ndarray:
        out = np.empty((len(self.cases), 3))
        for i, (group, _, _, case) in enumerate(self.cases):
            with tr.span(f"engine.case.{group}"):
                out[i] = tuple(cp.closed_form_triple(case))
        return out

    def check(self, out) -> list[str]:
        errors = []
        if not np.isfinite(out).all() or out.min() < 0.0 or out.max() > 1.0:
            errors.append("case probabilities outside [0, 1]")
        if out.sum(axis=1).max() > 1.0 + 1e-12:
            errors.append("case probabilities sum above 1")
        worst = 0.0
        for row, (group, iid, dists, _) in zip(out, self.cases):
            worst = max(worst, np.abs(row - ref.triple(dists[0], dists[1:])).max())
            if len(dists) == 3 and abs(row.sum() - 1.0) > REF_TOL:
                errors.append(f"2-neighbor case totals {row.sum()!r}, not 1")
            if iid:
                expect = (1 / 3, 1 / 3, 1 / 3) if len(dists) == 3 else (0.2, 0.2, 1 / 15)
                if np.abs(row - expect).max() > REF_TOL:
                    errors.append(f"i.i.d. {group} case gives {tuple(row)}")
        if not worst <= REF_TOL:
            errors.append(f"cases differ from the reference by {worst:.3g}")
        return errors


def random_dist(rng, kind: str, loc: float) -> ref.Dist:
    width = rng.uniform(0.2, 2.0)
    lo = loc - width * rng.uniform(0.2, 0.8)
    if kind != "histogram":
        return ref.Dist(str(kind), lo, lo + width)
    counts = rng.multinomial(50, np.full(HIST_BINS, 1.0 / HIST_BINS))
    return ref.Dist("histogram", lo, lo + width, tuple(counts / 50.0))


def overlapping_dist(rng, kind: str, center: ref.Dist) -> ref.Dist:
    """A random neighbor whose support overlaps the center's.

    Cases with every neighbor on one side of the center are left out: the
    closed form returns 1 + 1 ulp for their certain extremum.
    """
    while True:
        d = random_dist(rng, kind, 0.5 * (center.lo + center.hi) + rng.normal(0.0, 0.4))
        if d.lo < center.hi and d.hi > center.lo:
            return d


def to_critprob(d: ref.Dist):
    if d.kind == "uniform":
        return cp.uniform(d.lo, d.hi)
    if d.kind == "epanechnikov":
        return cp.epanechnikov(0.5 * (d.lo + d.hi), 0.5 * (d.hi - d.lo))
    return cp.histogram(d.lo, d.hi, d.weights)


WORKLOADS = {w.name: w for w in (ClosedGrid, ScalarIO, MonteCarloUniform)}
