"""Smoke test of the benchmark: every workload and every check once, tiny sizes."""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl
from tracing import NullTracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_runs_and_passes_checks(name, trace, tmp_path):
    result = run.execute(name, seed=3, seconds=0.0, trace=trace, workdir=tmp_path, tiny=True)
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_checks_reject_wrong_grid_results(tmp_path):
    work = wl.ClosedGrid(0, tmp_path, tiny=True)
    work.setup()
    out = work.pipeline(NullTracer())
    assert work.check(out) == []
    out["epanechnikov"][1].p_min[1:-1, 1:-1] += 1e-7
    errors = work.check(out)
    assert any("reference" in e for e in errors)
    assert any("UCVF" in e for e in errors)


def test_checks_reject_wrong_case_results():
    batch = wl.CaseBatch(0, tiny=True)
    out = batch.run(NullTracer())
    assert batch.check(out) == []
    out[0, 0] += 1e-7
    assert any("reference" in e for e in batch.check(out))


@pytest.mark.xfail(
    strict=True,
    reason="closed form returns 1 + 1 ulp when the center is certainly above every neighbor",
)
def test_certain_maximum_stays_within_unit_interval():
    members = np.zeros((4, 3, 3), dtype=np.float32)
    members += np.array([0.0, 0.31, 0.62, 1.0], dtype=np.float32)[:, None, None]
    members[:, 1, 1] += 2.0
    field = wl.cp.UncertainField.from_ensemble(
        wl.cp.EnsembleStack(members), wl.cp.ModelSpec("uniform")
    )
    assert wl.check_prob_field(wl.cp.classify_field(field), "uniform") == []
