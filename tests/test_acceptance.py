"""Acceptance gate: ten end-to-end behavior checks with stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live); slower checks also enforce their wall-clock budget.
"""

import math
import time

import numpy as np

from critprob.bench import convergence_study, robustness_ratio, timing_report
from critprob.distributions import epanechnikov, histogram, uniform
from critprob.engine import (
    EstimatorSpec,
    NeighborhoodCase,
    PATTERNS,
    classify_field,
    closed_form_triple,
    closed_pattern_prob,
    histogram_min_prob_combinatorial,
    mc_all_patterns,
    semianalytical_prob,
)
from critprob.fields import ModelSpec, UncertainField
from critprob.synth import ackley_ensemble, gaussian_mixture_ensemble, random_case

BOUNDED_MODELS = ("uniform", "epanechnikov", "histogram")


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{num:2d}/10] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _iid_dist(kind: str):
    if kind == "uniform":
        return uniform(-0.7, 1.1)
    if kind == "epanechnikov":
        return epanechnikov(0.2, 0.9)
    return histogram(-1.0, 1.0, [0.1, 0.3, 0.25, 0.2, 0.15])


def _uniform_ackley_field(width: int, height: int, members: int = 50, seed: int = 0):
    stack = ackley_ensemble(width, height, members=members, noise_amp=0.3, seed=seed)
    return UncertainField.from_ensemble(stack, ModelSpec("uniform"))


def test_01_symmetry_exactness():
    started = time.perf_counter()
    worst = 0.0
    for kind in BOUNDED_MODELS:
        five = NeighborhoodCase(_iid_dist(kind), tuple(_iid_dist(kind) for _ in range(4)))
        trip = closed_form_triple(five)
        worst = max(
            worst,
            abs(trip.p_min - 0.2),
            abs(trip.p_max - 0.2),
            abs(trip.p_saddle - 1.0 / 15.0),
        )
        three = NeighborhoodCase(_iid_dist(kind), tuple(_iid_dist(kind) for _ in range(2)))
        trip2 = closed_form_triple(three)
        worst = max(
            worst,
            abs(trip2.p_min - 1.0 / 3.0),
            abs(trip2.p_max - 1.0 / 3.0),
            abs(trip2.p_saddle - 1.0 / 3.0),
            abs(trip2.total - 1.0),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, "i.i.d. symmetry exactness", ok, f"max dev {worst:.2e}, {elapsed:.2f} s")


def test_02_closed_form_matches_mc_oracle():
    n = 1_000_000
    cases_per_model = 500
    worst_fraction = 1.0
    details = []
    for offset, kind in enumerate(BOUNDED_MODELS):
        within = {p: 0 for p in PATTERNS}
        for i in range(cases_per_model):
            seed = 1000 * offset + i
            case = random_case(seed, model=kind, neighborhood=4)
            closed = closed_form_triple(case)
            sampled = mc_all_patterns(case, n, seed=seed, pixel=i)
            for pattern, p, q in zip(PATTERNS, closed, sampled):
                se = math.sqrt(p * (1.0 - p) / n)
                if abs(p - q) <= 4.0 * se:
                    within[pattern] += 1
        fractions = {p: within[p] / cases_per_model for p in PATTERNS}
        worst_fraction = min(worst_fraction, min(fractions.values()))
        details.append(
            kind + " " + " ".join(f"{p}={fractions[p]:.3f}" for p in PATTERNS)
        )
    ok = worst_fraction >= 0.99
    _report(2, "closed form vs MC(1e6) within 4 SE", ok, "; ".join(details))


def test_03_histogram_combinatorial_equivalence():
    worst = 0.0
    for i in range(200):
        case = random_case(3000 + i, model="histogram", bins=1 + i % 4)
        fast = closed_pattern_prob(case, "min")
        direct = histogram_min_prob_combinatorial(case)
        worst = max(worst, abs(fast - direct))
    ok = worst <= 1e-9
    _report(3, "histogram min: factorized vs combinatorial", ok, f"max dev {worst:.2e}")


def test_04_mc_convergence_toward_closed_form():
    started = time.perf_counter()
    field = _uniform_ackley_field(64, 64)
    report = convergence_study(field, "min", [100, 2000], seed=1)
    elapsed = time.perf_counter() - started
    coarse, fine = report.rmse_per_count
    ratio = coarse / fine
    ok = fine < coarse and 2.0 <= ratio <= 7.0 and elapsed < 120.0
    _report(
        4,
        "MC RMSE shrinks toward closed form",
        ok,
        f"rmse(100)={coarse:.4f}, rmse(2000)={fine:.4f}, ratio={ratio:.2f}, {elapsed:.1f} s",
    )


def test_05_closed_form_speedup_over_mc():
    started = time.perf_counter()
    field = _uniform_ackley_field(64, 64)
    speedups = {}
    for channel in ("min", "saddle"):
        report = timing_report(
            field,
            [EstimatorSpec("monte_carlo", n_samples=2000, seed=0), EstimatorSpec("closed_form")],
            repeats=3,
            channels=(channel,),
        )
        speedups[channel] = report.rows[1].speedup
    elapsed = time.perf_counter() - started
    ok = min(speedups.values()) >= 10.0 and elapsed < 300.0
    _report(
        5,
        "closed form >= 10x faster than MC(2000)",
        ok,
        f"min {speedups['min']:.1f}x, saddle {speedups['saddle']:.1f}x, {elapsed:.1f} s",
    )


def test_06_outlier_robustness_ordering():
    stack, true_peaks, outlier_peaks = gaussian_mixture_ensemble(
        128, 128, true_members=40, outlier_members=10, seed=0
    )
    ratios = {}
    for label, model in (
        ("uniform", ModelSpec("uniform")),
        ("epanechnikov", ModelSpec("epanechnikov")),
        ("histogram", ModelSpec("histogram", bins=5)),
    ):
        ratios[label] = robustness_ratio(stack, model, true_peaks, outlier_peaks)
    ok = (
        ratios["histogram"] > ratios["uniform"]
        and ratios["epanechnikov"] >= ratios["uniform"]
    )
    _report(
        6,
        "histogram most outlier-robust",
        ok,
        ", ".join(f"{k}={v:.3f}" for k, v in ratios.items()),
    )


def test_07_affine_invariance():
    worst = 0.0
    for i in range(100):
        case = random_case(5000 + i, model=BOUNDED_MODELS[i % 3])
        base = tuple(closed_form_triple(case))
        for alpha in (1e-3, 1.0, 1e3):
            for beta in (-10.0, 0.0, 10.0):
                moved = tuple(closed_form_triple(case.affine(alpha, beta)))
                worst = max(worst, max(abs(a - b) for a, b in zip(base, moved)))
    ok = worst < 1e-9
    _report(7, "probabilities invariant under x -> a*x + b", ok, f"max dev {worst:.2e}")


def test_08_semianalytical_convergence():
    c = 10_000
    sq_sum = 0.0
    count = 0
    deterministic = True
    for i in range(100):
        case = random_case(7000 + i, model="histogram", bins=5)
        closed = closed_form_triple(case)
        for pattern, p in zip(PATTERNS, closed):
            est = semianalytical_prob(case, pattern, c, seed=11, pixel=i)
            again = semianalytical_prob(case, pattern, c, seed=11, pixel=i)
            deterministic = deterministic and est == again
            sq_sum += (est - p) ** 2
            count += 1
    rmse_val = math.sqrt(sq_sum / count)

    stack = ackley_ensemble(16, 16, members=12, noise_amp=0.3, seed=2)
    field = UncertainField.from_ensemble(stack, ModelSpec("histogram", bins=4))
    spec = EstimatorSpec("semianalytical", c=c, seed=3)
    one = classify_field(field, spec, workers=1)
    two = classify_field(field, spec, workers=2)
    worker_independent = all(
        np.array_equal(one.channel(ch), two.channel(ch)) for ch in ("min", "max", "saddle")
    )
    ok = rmse_val < 0.01 and deterministic and worker_independent
    _report(
        8,
        "semianalytical(c=1e4) near closed form",
        ok,
        f"rmse {rmse_val:.4f}, deterministic={deterministic}, "
        f"worker independent={worker_independent}",
    )


def test_09_parallel_determinism_and_pixel_scaling():
    field = _uniform_ackley_field(48, 48, members=12, seed=4)
    closed = EstimatorSpec("closed_form")
    sampled = EstimatorSpec("monte_carlo", n_samples=400, seed=7)
    identical = True
    for spec in (closed, sampled):
        one = classify_field(field, spec, workers=1)
        two = classify_field(field, spec, workers=2)
        identical = identical and all(
            np.array_equal(one.channel(ch), two.channel(ch))
            for ch in ("min", "max", "saddle")
        )
        identical = identical and np.array_equal(one.valid, two.valid)

    small = _uniform_ackley_field(160, 160, members=12, seed=5)
    large = _uniform_ackley_field(320, 160, members=12, seed=5)
    classify_field(small, closed)  # warm up caches before timing

    # The two sizes are timed in alternating rounds, so a change in the
    # host's load during the runs weighs on both medians alike.
    times = {id(small): [], id(large): []}
    for _ in range(7):
        for f in (small, large):
            t0 = time.perf_counter()
            classify_field(f, closed)
            times[id(f)].append(time.perf_counter() - t0)
    t_small, t_large = (sorted(times[id(f)])[3] for f in (small, large))
    ratio = t_large / t_small
    ok = identical and ratio <= 2.5
    _report(
        9,
        "bit-identical across workers; ~linear in pixels",
        ok,
        f"identical={identical}, 2x-pixel time ratio {ratio:.2f}",
    )


def test_10_two_neighborhood_completeness():
    worst = 0.0
    for i in range(500):
        case = random_case(9000 + i, model=BOUNDED_MODELS[i % 3], neighborhood=2)
        worst = max(worst, abs(closed_form_triple(case).total - 1.0))
    ok = worst <= 1e-9
    _report(10, "2-neighborhood probabilities sum to 1", ok, f"max dev {worst:.2e}")
