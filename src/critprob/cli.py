"""Command-line surface: compute, from-scalar, synth, validate, bench."""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import bench, field_io, synth
from .engine import EstimatorSpec, classify_field
from .fields import CHANNELS, ModelSpec, UncertainField

MODEL_FLAGS = {
    "uniform": "uniform",
    "epanechnikov": "epanechnikov",
    "histogram": "histogram",
    "gaussian-mc": "gaussian",
}
ESTIMATOR_FLAGS = {
    "closed": "closed_form",
    "mc": "monte_carlo",
    "semi": "semianalytical",
    "comb": "combinatorial",
}


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=sorted(MODEL_FLAGS), default="uniform")
    parser.add_argument("--bins", type=int, default=5, help="histogram bin count")
    parser.add_argument(
        "--k", type=float, default=math.sqrt(5.0), help="Epanechnikov halfwidth multiple of the stddev"
    )


def _add_estimator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--estimator", choices=sorted(ESTIMATOR_FLAGS), default="closed")
    parser.add_argument("--samples", type=int, default=2000, help="Monte Carlo draws per pixel")
    parser.add_argument("--c", type=int, default=10000, help="semianalytical center draws")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="probability output (.csv for CSV, else UCVF)")
    parser.add_argument("--heatmap", help="grayscale P5 heatmap path")
    parser.add_argument("--channel", choices=CHANNELS, default="min")
    parser.add_argument("--gamma", type=float, default=1.0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critprob",
        description="Critical-point probabilities for uncertain scalar fields",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    compute = sub.add_parser("compute", help="classify an ensemble UCVF")
    compute.add_argument("input", help="ensemble UCVF path")
    _add_model_flags(compute)
    _add_estimator_flags(compute)
    compute.add_argument("--normalize", choices=("on", "off"), default="off")
    _add_output_flags(compute)

    scalar = sub.add_parser("from-scalar", help="classify a scalar UCVF with an error bound")
    scalar.add_argument("input", help="scalar UCVF path (one channel)")
    scalar.add_argument("--eb", type=float, required=True, help="uniform error-bound width")
    _add_estimator_flags(scalar)
    _add_output_flags(scalar)

    synth_cmd = sub.add_parser("synth", help="write a synthetic ensemble UCVF")
    synth_cmd.add_argument("kind", choices=("ackley", "mixture"))
    synth_cmd.add_argument("--out", required=True)
    synth_cmd.add_argument("--width", type=int, default=None)
    synth_cmd.add_argument("--height", type=int, default=None)
    synth_cmd.add_argument("--members", type=int, default=50)
    synth_cmd.add_argument("--noise-amp", type=float, default=0.3)
    synth_cmd.add_argument("--outlier-members", type=int, default=10)
    synth_cmd.add_argument("--seed", type=int, default=0)

    validate = sub.add_parser("validate", help="fuzz closed form against the MC oracle")
    validate.add_argument("--cases", type=int, default=500)
    validate.add_argument("--model", choices=sorted(MODEL_FLAGS), default="uniform")
    validate.add_argument("--bins", type=int, default=5)
    validate.add_argument("--neighborhood", type=int, choices=(2, 4), default=4)
    validate.add_argument("--samples", type=int, default=100000)
    validate.add_argument("--seed", type=int, default=0)

    bench_cmd = sub.add_parser("bench", help="convergence, timing, robustness reports")
    bench_cmd.add_argument("--samples", type=int, default=2000)
    bench_cmd.add_argument("--seed", type=int, default=0)
    bench_cmd.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    bench_cmd.add_argument("--bins", type=int, default=5)
    bench_cmd.add_argument("--out", help="prefix for CSV report files")
    return parser


def _print_config(args: argparse.Namespace) -> None:
    pairs = ", ".join(f"{k}={v!r}" for k, v in sorted(vars(args).items()))
    print(f"config: {pairs}")


def _validated_estimator(args: argparse.Namespace, parser: argparse.ArgumentParser) -> EstimatorSpec:
    if args.samples < 1 or args.c < 1:
        parser.error("--samples and --c must be positive")
    if args.workers < 1:
        parser.error("--workers must be positive")
    return EstimatorSpec(
        ESTIMATOR_FLAGS[args.estimator], n_samples=args.samples, c=args.c, seed=args.seed
    )


def _validate_outputs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if not (args.gamma > 0 and math.isfinite(args.gamma)):
        parser.error("--gamma must be positive and finite")


def _write_outputs(prob, args: argparse.Namespace) -> None:
    if args.out:
        fmt = "csv" if str(args.out).endswith(".csv") else "ucvf"
        field_io.save_probability_field(prob, args.out, format=fmt)
        print(f"wrote probabilities to {args.out} ({fmt})")
    if args.heatmap:
        field_io.export_heatmap(prob, args.channel, args.heatmap, gamma=args.gamma)
        print(f"wrote {args.channel} heatmap to {args.heatmap}")


def _run_compute(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.bins < 1:
        parser.error("--bins must be positive")
    if args.k <= 0:
        parser.error("--k must be positive")
    estimator = _validated_estimator(args, parser)
    _validate_outputs(args, parser)
    stack = field_io.load_ensemble(args.input)
    if args.normalize == "on":
        stack, scale, offset = stack.normalized()
        print(f"normalized values with v' = {scale!r} * v + {offset!r}")
    model = ModelSpec(MODEL_FLAGS[args.model], bins=args.bins, k=args.k)
    field = UncertainField.from_ensemble(stack, model)
    del stack  # the field holds no reference to the members; free them before classify
    prob = classify_field(field, estimator, workers=args.workers)
    _write_outputs(prob, args)
    return 0


def _run_from_scalar(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.eb < 0:
        parser.error("--eb must be nonnegative")
    estimator = _validated_estimator(args, parser)
    _validate_outputs(args, parser)
    values = field_io.load_scalar_field(args.input)
    field = UncertainField.from_scalar(values, args.eb)
    prob = classify_field(field, estimator, workers=args.workers)
    _write_outputs(prob, args)
    return 0


def _run_synth(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    default = 64 if args.kind == "ackley" else 128
    width = default if args.width is None else args.width
    height = default if args.height is None else args.height
    if width < 1 or height < 1:
        parser.error("--width and --height must be positive")
    if args.kind == "ackley":
        if args.members < 1 or args.noise_amp < 0:
            parser.error("--members must be >= 1 and --noise-amp >= 0")
        stack = synth.ackley_ensemble(
            width, height, members=args.members, noise_amp=args.noise_amp, seed=args.seed
        )
        field_io.save_ensemble(stack, args.out)
        print(f"wrote {stack.members}-member {width}x{height} ackley ensemble to {args.out}")
        return 0
    true_members = args.members - args.outlier_members
    if true_members < 0 or args.outlier_members < 0:
        parser.error("--members must cover --outlier-members")
    stack, true_peaks, outlier_peaks = synth.gaussian_mixture_ensemble(
        width,
        height,
        true_members=true_members,
        outlier_members=args.outlier_members,
        seed=args.seed,
    )
    field_io.save_ensemble(stack, args.out)
    print(
        f"wrote {stack.members}-member {width}x{height} mixture ensemble to {args.out}; "
        f"true peaks {true_peaks}, outlier peaks {outlier_peaks}"
    )
    return 0


def _run_validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.cases < 1 or args.samples < 1 or args.bins < 1:
        parser.error("--cases, --samples and --bins must be positive")
    if args.model == "gaussian-mc":
        parser.error("validate compares against the closed form; pick a bounded model")
    summary = bench.validate_random_cases(
        args.cases,
        model=MODEL_FLAGS[args.model],
        neighborhood=args.neighborhood,
        samples=args.samples,
        seed=args.seed,
        bins=args.bins,
    )
    print(summary.to_text())
    return 0


def _run_bench(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.samples < 1 or args.workers < 1 or args.bins < 1:
        parser.error("--samples, --workers and --bins must be positive")
    stack = synth.ackley_ensemble(64, 64, members=50, noise_amp=0.3, seed=args.seed)
    field = UncertainField.from_ensemble(stack, ModelSpec("uniform"))
    report = bench.convergence_study(
        field, "min", [100, args.samples], seed=args.seed, workers=args.workers
    )
    print(report.to_text())
    timing = bench.timing_report(
        field,
        [
            EstimatorSpec("monte_carlo", n_samples=args.samples, seed=args.seed),
            EstimatorSpec("closed_form"),
        ],
        workers=args.workers,
        repeats=5,
    )
    print(timing.to_text())
    mix, true_peaks, outlier_peaks = synth.gaussian_mixture_ensemble(128, 128, seed=args.seed)
    lines = ["robustness (p_max near true peaks / near outlier peaks):"]
    for label, model in (
        ("uniform", ModelSpec("uniform")),
        ("epanechnikov", ModelSpec("epanechnikov")),
        (f"histogram({args.bins})", ModelSpec("histogram", bins=args.bins)),
    ):
        ratio = bench.robustness_ratio(
            mix, model, true_peaks, outlier_peaks, workers=args.workers
        )
        lines.append(f"  {label:<16s} {ratio:.3f}")
    print("\n".join(lines))
    if args.out:
        with open(f"{args.out}.convergence.csv", "w", encoding="ascii") as fh:
            fh.write(report.to_csv())
        with open(f"{args.out}.timing.csv", "w", encoding="ascii") as fh:
            fh.write(timing.to_csv())
        print(f"wrote {args.out}.convergence.csv and {args.out}.timing.csv")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _print_config(args)
    runners = {
        "compute": _run_compute,
        "from-scalar": _run_from_scalar,
        "synth": _run_synth,
        "validate": _run_validate,
        "bench": _run_bench,
    }
    try:
        return runners[args.subcommand](args, parser)
    except (OSError, field_io.UcvfError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
