"""Smoke tests for the benchmark itself, at reduced size.

    python3 -m pytest perfbench/test_smoke.py     # about a minute

They run each workload with --size smoke, untraced and traced, and check
that no operation fails and that every per-layer metric is nonzero on the
workload that should move it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

SETS = ("Cap", "Polytope", "PolyconvexUnion", "Complement", "Reflection")
CLI = {"cli.main.self_s", "cli.parse_set.self_s", "process.cpu_s"}
NONZERO = {
    "cap-oracle": CLI | {
        "estimation.adaptive_quad.calls", "estimation.adaptive_quad.evals",
        "estimation.adaptive_quad.self_s", "geometry.slice_cap_fraction.calls",
        "geometry.slice_cap_fraction.self_s", "perimeter.perimeter_cap.calls",
        "perimeter.perimeter_cap.self_s", "limits.sweep_s_to_1.self_s",
    },
    "mc-perimeter": CLI
    | {f"sets.{t}.contains.{q}" for t in SETS for q in ("points", "self_s", "hit_frac")}
    | {f"sets.{t}.boundary_distance.{q}" for t in SETS for q in ("points", "self_s")}
    | {
        "geometry.sample_uniform.points", "geometry.sample_uniform.self_s",
        "geometry.sample_at_distance.points", "geometry.sample_at_distance.self_s",
        "estimation.RadialProposal.init.calls", "estimation.RadialProposal.init.self_s",
        "estimation.RadialProposal.sample_weighted.draws",
        "estimation.RadialProposal.sample_weighted.self_s",
        "estimation.mc_estimate.calls", "estimation.mc_estimate.samples",
        "estimation.mc_estimate.self_s", "perimeter.perimeter_mc.self_s",
        "perimeter.seminorm_mc.self_s", "limits.sweep_s_to_minus_inf.self_s",
        "limits.sweep_seminorm_to_minus_inf.self_s",
    },
    "integral-geometry": CLI | {
        "integral_geometry.sample_plane_batch.planes",
        "integral_geometry.sample_plane_batch.self_s",
        "integral_geometry.crofton_estimate.calls",
        "integral_geometry.crofton_estimate.self_s",
        "integral_geometry.bp_check.planes", "integral_geometry.bp_check.self_s",
        "geometry.sample_uniform.points", "geometry.sample_uniform.self_s",
    },
}
# A tangent great circle has probability ~1e-9 per plane, so resamples are
# usually 0; the overhead is a difference of two timings and may be 0 or
# negative; no layer may be missing.
MAY_BE_ZERO = {
    "integral_geometry.crofton_estimate.degenerate_resamples",
    "trace.overhead_frac",
    "trace.missing_layers",
}


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT, script: Path = RUN):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done


def last_json(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_and_reports_end_to_end_metrics(workload):
    result = last_json(run_benchmark(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_output_and_reports_layers(workload):
    result = last_json(run_benchmark(workload, 1))
    # failed counts traced outputs that differ from the untraced ones
    assert result["correct"] and result["failed"] == 0
    names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["metrics"]["trace.missing_layers"]["value"] == 0
    zero = sorted(n for n in NONZERO[workload] if result["metrics"][n]["value"] <= 0)
    assert zero == []


def test_every_layer_metric_is_expected_nonzero_somewhere():
    covered = set().union(*NONZERO.values()) | MAY_BE_ZERO
    assert {m["name"] for m in BENCHMARK["per_layer"]} == covered


def test_missing_layer_is_reported_not_raised(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import spherefrac.cli  # noqa: F401
    import tracing

    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (
        tracing.Layer("cli", "no_such_function"),
        tracing.Layer("sets", "contains", owner="NoSuchSet"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["cli.no_such_function", "sets.NoSuchSet.contains"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("cap-oracle", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert "{" not in done.stdout
