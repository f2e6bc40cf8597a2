"""spherefrac benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cap-oracle --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
cap-oracle, mc-perimeter, integral-geometry; --workload all runs the three
in turn.

With --trace 0 the run measures, from fresh processes started from the
checkout's own `src/`:
  wall_s             sum over operations of the median seconds per execution
  setup_s            median, over 5 fresh processes, of the time from process
                     start to the first operation (interpreter, imports, inputs)
  peak_rss_mb        peak resident memory of the workload process
  mc_s_to_rse_1e-3   projected seconds to bring every Monte Carlo estimate to
                     0.1% relative standard error (deterministic operations
                     count at their measured time)
and prints failed_frac, the share of executed operations that failed.  The
three times are scaled to a reference machine speed measured alongside them
(speed.py); the raw values are printed as raw.*.  With --trace 1 the run
reports the per-layer metrics of tracing.py instead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The full result, with provenance and every operation,
is written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("cap-oracle", "mc-perimeter", "integral-geometry")
SETUP_PROBES = 4  # set-up-only processes; the workload process is one more sample
CHILD_TIMEOUT_S = 170.0

sys.path.insert(0, str(HERE))
from provenance import BLAS_ENV, BLAS_THREADS  # noqa: E402
from speed import NOMINAL_S  # noqa: E402


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in BLAS_ENV:
        env[name] = BLAS_THREADS
    env["SOURCE_DATE_EPOCH"] = "0"  # pins the JSON timestamp, see spherefrac.cli
    env.pop("SPHEREFRAC_SEED", None)
    return env


def run_worker(args: list, timeout: float):
    """Start a worker; return (seconds from start to READY, RESULT payload or
    None, mean reference-kernel seconds of a --setup-only worker or None)."""
    cmd = [sys.executable, str(WORKER)] + args
    ready = None
    payload = None
    kernel = None
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, text=True) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.startswith("READY") and ready is None:
                    ready = time.perf_counter() - start
                elif line.startswith("KERNEL "):
                    kernel = float(line[len("KERNEL "):])
                elif line.startswith("RESULT "):
                    payload = json.loads(line[len("RESULT "):])
            rc = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0 or ready is None:
        raise BenchmarkError(f"worker {' '.join(args)} exited with code {rc}")
    return ready, payload, kernel


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    setup = []  # (raw seconds, mean kernel seconds in that process)
    if not trace:
        for _ in range(SETUP_PROBES):
            ready, _, kernel = run_worker(base + ["--setup-only"], CHILD_TIMEOUT_S)
            setup.append((ready, kernel))
    ready, result, _ = run_worker(
        base + ["--seconds", str(seconds), "--trace", str(trace)], CHILD_TIMEOUT_S)
    if result is None:
        raise BenchmarkError("worker printed no result")
    if not trace:
        setup.append((ready, result["raw"]["kernel_s"]))
        scaled = statistics.median(t * NOMINAL_S / k for t, k in setup)
        result["metrics"]["setup_s"] = {"value": scaled, "unit": "s"}
        result["raw"]["setup_s"] = statistics.median(t for t, _ in setup)
    result["setup_samples_s"] = setup
    result["workload"] = workload
    result["seed"] = seed
    result["trace"] = trace
    return result


def summary_line(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def print_report(result: dict) -> None:
    prov = result["provenance"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"rounds {result['rounds']}")
    print(f"provenance: commit {prov['git_commit']}  spherefrac {prov['spherefrac']}  "
          f"python {prov['python']}  numpy {prov['numpy']}  scipy {prov['scipy']}  "
          f"blas {prov['blas']['name']} {prov['blas']['version']} "
          f"threads {prov['blas']['threads']}  nproc {prov['nproc']}  "
          f"cpu {prov['cpu_model']}  caches {prov['caches']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<56} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in result["raw"].items():
        print(f"  {'raw.' + name:<56} {value:>16.6g}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':<56} {failed / attempted:>16.6g} 1  ({failed} of {attempted})")
    for op in result["operations"]:
        for problem in op["problems"]:
            print(f"  FAILED {op['label']}: {problem}")
    if result["missing_layers"]:
        print(f"  missing layers: {', '.join(result['missing_layers'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced sample counts and grid, for the smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spherefrac" / "__init__.py").is_file():
        print(f"run.py: no spherefrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.size)
            path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
            print_report(result)
            results.append(result)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(summary_line(results[0])), flush=True)
    else:
        print(json.dumps({r["workload"]: summary_line(r) for r in results}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
