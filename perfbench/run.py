"""End-to-end and per-layer benchmark of the critprob classify pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run sets the workload up several times (inputs
generated and written, plus one untimed warm-up pipeline each), repeats
the pipeline untraced for ``--seconds``, checks the outputs, and
measures peak RSS in a fresh process; it prints the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced pipelines for
``--seconds`` and prints the per-layer metrics taken from the spans.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
FRESH_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mib": "MiB"}


FIELD_IO_CALLS = ("load_ensemble", "load_scalar", "save_csv", "export_heatmap", "save_ucvf")


def per_layer_units() -> dict[str, str]:
    units = {f"field_io.{n}_s": "s" for n in FIELD_IO_CALLS}
    units["field_io.bytes_written"] = "count"
    units.update({f"fields.fit_s.{m}": "s" for m in wl.MODELS})
    units["fields.from_scalar_s"] = "s"
    units["fields.fit_peak_mib"] = "MiB"
    units["fields.degenerate_pixels"] = "count"
    units.update({f"engine.classify_s.{m}": "s" for m in wl.MODELS})
    units.update({f"engine.ns_per_pixel.{m}": "ns" for m in wl.MODELS})
    units["engine.classify_peak_mib"] = "MiB"
    units["engine.classify_w1_s"] = "s"
    units["engine.classify_wN_s"] = "s"
    units["engine.pool_speedup"] = "ratio"
    units["engine.mc_s"] = "s"
    units["engine.mc_draws_per_s"] = "1/s"
    units.update({f"engine.case_us.{g}": "us" for g in wl.CASE_GROUPS})
    units["rngstream.unit_block_s"] = "s"
    units["rngstream.draws"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def fresh_peak_rss_mib(work: wl.Workload) -> float:
    """Peak RSS of a new process that runs the pipeline once.

    The value is the high-water RSS of that process plus that of its
    largest waited-for child (the process pool's workers).
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", work.name,
           "--seed", str(work.seed), "--fresh", str(work.workdir)]
    if work.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=FRESH_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["peak_rss_mib"]


def run_fresh(name: str, seed: int, workdir: Path, tiny: bool) -> None:
    wl.WORKLOADS[name](seed, workdir, tiny).pipeline(NullTracer())
    # VmHWM, unlike RUSAGE_SELF, does not carry over the launching
    # process's peak across exec
    status = Path("/proc/self/status").read_text()
    own_kib = int(next(line for line in status.splitlines() if line.startswith("VmHWM:")).split()[1])
    kib = own_kib + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"peak_rss_mib": kib / 1024.0}))


def final_checks(work: wl.Workload, out, digests: set[str]) -> list[str]:
    """The workload's own checks, plus ones every workload must pass."""
    errors = work.check(out)
    if len(digests) != 1:
        errors.append("repeated pipeline runs gave different outputs")
    if work.degenerate:
        errors.append(f"{work.degenerate} input pixels have all members equal")
    return errors


def run_untraced(work: wl.Workload, seconds: float):
    null = NullTracer()
    digests = set()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work.setup()
        digests.add(wl.digest(work.pipeline(null)))
        setups.append(time.perf_counter() - t0)
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        out = work.pipeline(null)
        walls.append(time.perf_counter() - t0)
        digests.add(wl.digest(out))
    errors = final_checks(work, out, digests)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": work.items / wall,
        "peak_rss_mib": fresh_peak_rss_mib(work),
    }
    return errors, len(walls), metrics


def run_traced(work: wl.Workload, seconds: float):
    null = NullTracer()
    work.setup()
    digests = {wl.digest(work.pipeline(null))}
    # allocation peaks are deterministic, so one tracemalloc pass gives them
    memory = Tracer(memory=True)
    with memory.iteration(0):
        digests.add(wl.digest(work.pipeline(memory)))
    tracer = Tracer()
    plain = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while not rounds or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        digests.add(wl.digest(work.pipeline(null)))
        plain.append(time.perf_counter() - t0)
        with tracer.iteration(rounds):
            with tracer.span("pipeline"):
                out = work.pipeline(tracer)
            work.extras(tracer, out)
        digests.add(wl.digest(out))
        rounds += 1
    errors = final_checks(work, out, digests)
    return errors, rounds, layer_metrics(work, tracer, memory, statistics.median(plain))


def layer_metrics(
    work: wl.Workload, tracer: Tracer, memory: Tracer, plain_wall: float
) -> dict[str, float]:
    """Per-layer figures: times are medians over traced iterations of
    per-iteration sums, peaks come from the tracemalloc pass.

    A layer a workload does not call reads 0.
    """
    iterations = list(tracer.by_iteration().values())

    def seconds(name):
        return statistics.median(
            sum(s.seconds for s in spans if s.name == name) for spans in iterations
        )

    def peak(*prefixes):
        return max((s.peak_mib for s in memory.spans if s.name.startswith(prefixes)), default=0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"field_io.{n}_s": seconds(f"field_io.{n}") for n in FIELD_IO_CALLS}
    m["field_io.bytes_written"] = work.bytes_written()
    for model in wl.MODELS:
        m[f"fields.fit_s.{model}"] = seconds(f"fields.fit.{model}")
    m["fields.from_scalar_s"] = seconds("fields.from_scalar")
    m["fields.fit_peak_mib"] = peak("fields.")
    m["fields.degenerate_pixels"] = work.degenerate
    for model in wl.MODELS:
        m[f"engine.classify_s.{model}"] = seconds(f"engine.classify.{model}")
        m[f"engine.ns_per_pixel.{model}"] = 1e9 * ratio(m[f"engine.classify_s.{model}"], work.interior)
    m["engine.classify_peak_mib"] = peak("engine.classify", "engine.mc")
    w1 = seconds("engine.classify_w1")
    wn = seconds(work.pool_span) if work.pool_span else 0.0
    m["engine.classify_w1_s"] = w1
    m["engine.classify_wN_s"] = wn
    m["engine.pool_speedup"] = ratio(w1, wn)
    m["engine.mc_s"] = seconds("engine.mc")
    m["engine.mc_draws_per_s"] = ratio(work.draws, m["engine.mc_s"])
    for group in wl.CASE_GROUPS:
        m[f"engine.case_us.{group}"] = 1e6 * ratio(
            seconds(f"engine.case.{group}"), work.case_counts.get(group, 0)
        )
    m["rngstream.unit_block_s"] = seconds("rngstream.unit_block")
    m["rngstream.draws"] = work.draws
    m["trace.overhead_s"] = seconds("pipeline") - plain_wall
    return m


def execute(name: str, seed: int, seconds: float, trace: bool, workdir: Path, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    work = wl.WORKLOADS[name](seed, workdir, tiny)
    errors, rounds, metrics = (run_traced if trace else run_untraced)(work, seconds)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    units = per_layer_units() if trace else END_TO_END
    return {
        "correct": not errors,
        "attempted": rounds,
        "failed": 0,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--fresh", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.fresh:
        run_fresh(args.workload, args.seed, Path(args.fresh), args.tiny)
        return 0
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace), workdir, args.tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
