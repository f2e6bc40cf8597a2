"""One benchmark workload in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--size full|smoke]
    python3 perfbench/worker.py --workload W --seed N --setup-only

run.py starts it.  The worker imports spherefrac, builds the workload's
operations and prints READY; run.py times set-up up to that line.  With
--setup-only it then prints KERNEL, the mean seconds of five runs of the
reference kernel in speed.py, and exits.  Otherwise it runs whole rounds of
the operations while the next round still fits in S seconds, always at
least one, and runs the reference kernel before each untraced operation.
Every operation is an in-process call to `spherefrac.cli.main(argv)` whose
output is checked against its reference.
The last stdout line is RESULT followed by a JSON summary.

With --trace 1 each operation runs untraced and then traced; the two
outputs must be byte-identical, and the traced passes give per-layer counts
and self times.  Operations alternate between JSON and CSV output from one
round and operation to the next, so both formats are exercised.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

FORMATS = ("json", "csv")
TARGET_RSE = 1e-3
SETUP_KERNEL_SAMPLES = 5


@dataclass
class Execution:
    seconds: float
    cpu_s: float
    rc: int | None
    text: str
    stderr: str
    error: str | None = None


@dataclass
class OpRecord:
    label: str
    argv: list
    seconds: list = field(default_factory=list)
    cpu_s: list = field(default_factory=list)
    traced_seconds: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    failed: int = 0
    rows: list | None = None

    def note(self, problems: list, rows: list | None) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(p for p in problems if p not in self.problems)
        elif rows is not None:
            self.rows = rows


def execute(cli, argv: list) -> Execution:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an operation that raises is a failed operation
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    return Execution(seconds, cpu_s, rc, out.getvalue(), err.getvalue(), error)


def execute_traced(tracer, cli, argv: list) -> Execution:
    tracer.install()
    try:
        return execute(cli, argv)
    finally:
        tracer.uninstall()


def _number(text: str):
    value = float(text)
    return None if math.isnan(value) else value


def parse_rows(text: str, fmt: str) -> list:
    """Rows as dicts of param, value, error, target, deviation (None = missing)."""
    if fmt == "json":
        return json.loads(text)["rows"]
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(_number, line.split(",")))) for line in lines[1:]]


def judge(op, ex: Execution, fmt: str):
    """(problems, rows): problems is empty when the operation passed."""
    if ex.error is not None:
        return [ex.error], None
    allowed = (0, 2) if op.monte_carlo else (0,)
    if ex.rc not in allowed:
        tail = ex.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {ex.rc}: {tail[0]}"], None
    try:
        rows = parse_rows(ex.text, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable {fmt} output: {exc}"], None
    return op.check(rows), rows


def mc_seconds_to_rse(seconds: float, rows: list, monte_carlo: bool) -> float:
    """Projected seconds to bring every estimate of one operation to TARGET_RSE.

    Rows with a reported error are Monte Carlo estimates sharing the
    operation's time equally; each scales as (rse / TARGET_RSE)^2.  A
    deterministic operation counts at its measured time."""
    if not monte_carlo:
        return seconds
    rses = [abs(r["error"] / r["value"]) for r in rows
            if r["error"] is not None and r["value"]]
    return sum(seconds / len(rses) * (rse / TARGET_RSE) ** 2 for rse in rses)


def run(args) -> dict:
    from spherefrac import cli

    import provenance
    import tracing
    from speed import Speedometer
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload](args.seed, args.size)
    print("READY", flush=True)
    speed = Speedometer()
    if args.setup_only:
        for _ in range(SETUP_KERNEL_SAMPLES):
            speed.sample()
        print(f"KERNEL {speed.mean()!r}", flush=True)
        return {}

    tracer = tracing.Tracer() if args.trace else None
    records = [OpRecord(op.label, op.argv) for op in ops]
    layer_rounds = []
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while True:
        round_start = time.perf_counter()
        span_mark = tracer.mark() if tracer else 0
        for i, (op, rec) in enumerate(zip(ops, records)):
            fmt = FORMATS[(i + rounds) % 2]
            argv = op.argv + ["--format", fmt]
            # the traced execution goes first on alternate operations, so
            # warm-up costs do not bias trace.overhead_frac
            traced_first = tracer is not None and (i + rounds) % 2 == 1
            traced = execute_traced(tracer, cli, argv) if traced_first else None
            if tracer is None:
                speed.sample()
            ex = execute(cli, argv)
            if tracer is not None and not traced_first:
                traced = execute_traced(tracer, cli, argv)
            rec.seconds.append(ex.seconds)
            rec.cpu_s.append(ex.cpu_s)
            rec.note(*judge(op, ex, fmt))
            attempted += 1
            if traced is not None:
                rec.traced_seconds.append(traced.seconds)
                problems, _ = judge(op, traced, fmt)
                if traced.text != ex.text:
                    problems.append(f"traced {fmt} output differs from the untraced output")
                rec.note(problems, None)
                attempted += 1
        if tracer:
            layer_rounds.append(tracing.round_metrics(
                tracer.take_counts(), tracer.self_times(span_mark, tracer.mark())))
        rounds += 1
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break

    op_seconds = [statistics.median(rec.seconds) for rec in records]
    wall_s = sum(op_seconds)
    metrics = {}
    if tracer:
        traced_s = sum(statistics.median(rec.traced_seconds) for rec in records)
        for name, unit in tracing.layer_metrics():
            values = [r[name] for r in layer_rounds]
            metrics[name] = (statistics.median(values), unit)
        metrics["process.cpu_s"] = (sum(statistics.median(rec.cpu_s) for rec in records), "s")
        metrics["trace.overhead_frac"] = (traced_s / wall_s - 1.0, "frac")
        metrics["trace.missing_layers"] = (len(tracer.missing), "count")
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.save_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        mc_s = sum(mc_seconds_to_rse(t, rec.rows or [], op.monte_carlo)
                   for t, rec, op in zip(op_seconds, records, ops))
        factor = speed.factor()
        raw = {"wall_s": wall_s, "mc_s_to_rse_1e-3": mc_s, "speed_factor": factor,
               "kernel_s": speed.mean(), "kernel_samples": len(speed.samples)}
        metrics["wall_s"] = (wall_s * factor, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["mc_s_to_rse_1e-3"] = (mc_s * factor, "s")
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": sum(rec.failed for rec in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw": raw if tracer is None else {},
        "missing_layers": tracer.missing if tracer else [],
        "operations": [rec.__dict__ for rec in records],
        "provenance": provenance.collect(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    if not args.setup_only:
        print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
