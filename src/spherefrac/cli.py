"""Experiment runner.

Every estimator and verifier is a subcommand emitting CSV or JSON with a
fixed schema.  CSV columns are always param,value,error,target,deviation
(17 significant digits, `nan` for missing); sweeps append one final line
holding the extrapolated limit, with param set to the limit point of the
sweep parameter (1 for s->1, inf for t->infinity).  JSON output is a single
result record carrying the config, a sha256 hash of its canonical form, all
rows, the limit report, and the pass/fail verdicts.

Exit codes: 0 success, 1 usage or config error, 2 verdict failure,
3 numerical failure.  A warning from the library goes to stderr as one
`spherefrac: warning:` line and leaves the exit code alone; a perimeter
that overflows a float is a config error.  --n must lie
in [1, 342] (bp-check: [1, 260]).  Seeds come from --seed, else the
SPHEREFRAC_SEED environment variable (decimal or 0x-hex), else the fixed
default 0xC0FFEE, and identical configs rerun to byte-identical rows.

Set grammar (angles in radians):
    cap:<x,y,...>:<r>        geodesic cap with the given center and radius
    poly:<u1;u2;...>         intersection of halfspaces x.u_i <= 0
    union:<desc>+<desc>      union; it has targets only where its parts are
                             shown disjoint (sets._shown_disjoint)
    compl:<desc>             complement
    refl:<desc>              antipodal image
    arcs:<start,len;...>     arc union on the circle (n = 1)

Function grammar: coord:<i> | abs-coord:<i> | const:<c>, c finite.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np

from .estimation import NonFiniteSampleError, RandomStream
from .geometry import _row_dots, sphere_surface
from .integral_geometry import bp_check, crofton_estimate
from .limits import (
    DEFAULT_S0_GRID,
    DEFAULT_S1_GRID,
    DEFAULT_T_GRID,
    beta_asymptotic_check,
    isoperimetric_comparison,
    isoperimetric_profile,
    relative_deviation,
    s_to_zero_vanishing_check,
    sweep_s_to_1,
    sweep_s_to_minus_inf,
    sweep_seminorm_to_minus_inf,
)
from .perimeter import (
    METHODS,
    Constant,
    Coordinate,
    perimeter_by_method,
    perimeter_minus_n,
    validate_s,
)
from .sets import (
    ArcUnion,
    Cap,
    Complement,
    DegenerateCircleError,
    PolyconvexUnion,
    Polytope,
    Reflection,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERDICT = 2
EXIT_NUMERICAL = 3

DEFAULT_SEED = 0xC0FFEE
SEED_ENV_VAR = "SPHEREFRAC_SEED"

# default verdict thresholds on the extrapolated relative deviation
THRESHOLDS = {
    "sweep-s1": 0.02,
    "sweep-sinf": 0.03,
    "seminorm-sweep": 0.05,
    "beta-check": 0.001,
}


class SetSyntaxError(ValueError):
    """Malformed set/function description, annotated with its position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position


# ---------------------------------------------------------------------------
# set and function descriptions


def _parse_vector(text: str, offset: int) -> np.ndarray:
    vals = []
    pos = offset
    for part in text.split(","):
        try:
            vals.append(float(part))
        except ValueError:
            raise SetSyntaxError(pos, f"expected a number, got {part!r}") from None
        pos += len(part) + 1
    return np.asarray(vals)


def _warn(message) -> None:
    print(f"spherefrac: warning: {message}", file=sys.stderr)


def _warn_if_unnormalized(v: np.ndarray, label: str) -> None:
    norm = float(np.linalg.norm(v))
    # a zero or non-finite vector is not normalized but rejected by the set
    if 0.0 < norm < math.inf and abs(norm - 1.0) > 1e-6:
        _warn(f"{label} had |v| = {norm:.8g}, normalizing")


def _split_union(body: str):
    """Split on '+' separators, skipping signs (after e/E or a delimiter)."""
    pieces, starts, start = [], [], 0
    for i, ch in enumerate(body):
        if ch == "+" and i > start and body[i - 1] not in "eE:,;+":
            pieces.append(body[start:i])
            starts.append(start)
            start = i + 1
    pieces.append(body[start:])
    starts.append(start)
    return pieces, starts


def parse_set(text: str, offset: int = 0):
    """Build a set object from its description (grammar in the module doc)."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise SetSyntaxError(offset, "expected '<kind>:...'")
    body = offset + len(kind) + 1
    if kind == "cap":
        head, sep2, rtext = rest.rpartition(":")
        if not sep2:
            raise SetSyntaxError(body, "cap needs 'cap:<coords>:<radius>'")
        center = _parse_vector(head, body)
        if center.size < 2:
            raise SetSyntaxError(body, "cap center needs at least 2 coordinates")
        _warn_if_unnormalized(center, "cap center")
        try:
            radius = float(rtext)
        except ValueError:
            raise SetSyntaxError(body + len(head) + 1, f"bad radius {rtext!r}") from None
        try:
            return Cap(center, radius)
        except ValueError as exc:
            raise SetSyntaxError(offset, str(exc)) from None
    if kind == "poly":
        rows = []
        pos = body
        for chunk in rest.split(";"):
            row = _parse_vector(chunk, pos)
            _warn_if_unnormalized(row, "polytope normal")
            rows.append(row)
            pos += len(chunk) + 1
        try:
            return Polytope(np.stack(rows))
        except ValueError as exc:
            raise SetSyntaxError(offset, str(exc)) from None
    if kind == "arcs":
        arcs = []
        pos = body
        for chunk in rest.split(";"):
            pair = _parse_vector(chunk, pos)
            if pair.size != 2:
                raise SetSyntaxError(pos, "each arc is '<start>,<length>'")
            arcs.append((float(pair[0]), float(pair[1])))
            pos += len(chunk) + 1
        try:
            return ArcUnion(tuple(arcs))
        except ValueError as exc:
            raise SetSyntaxError(offset, str(exc)) from None
    if kind == "compl":
        return Complement(parse_set(rest, body))
    if kind == "refl":
        return Reflection(parse_set(rest, body))
    if kind == "union":
        pieces, starts = _split_union(rest)
        if len(pieces) < 2:
            raise SetSyntaxError(body, "union needs at least two '+'-joined parts")
        parts = tuple(parse_set(p, body + st) for p, st in zip(pieces, starts))
        try:
            return PolyconvexUnion(parts)
        except ValueError as exc:
            raise SetSyntaxError(offset, str(exc)) from None
    raise SetSyntaxError(offset, f"unknown set kind {kind!r}")


def render_set(E) -> str:
    """Description string that parses back to a set with the same membership."""
    if isinstance(E, Cap):
        return "cap:" + ",".join(map(_fmt, E.center)) + ":" + _fmt(E.radius)
    if isinstance(E, Polytope):
        return "poly:" + ";".join(",".join(map(_fmt, row)) for row in E.normals)
    if isinstance(E, PolyconvexUnion):
        return "union:" + "+".join(render_set(p) for p in E.parts)
    if isinstance(E, Complement):
        return "compl:" + render_set(E.inner)
    if isinstance(E, Reflection):
        return "refl:" + render_set(E.inner)
    if isinstance(E, ArcUnion):
        return "arcs:" + ";".join(f"{_fmt(a)},{_fmt(b)}" for a, b in E.arcs)
    raise TypeError(f"cannot render {type(E).__name__}")


def parse_function(text: str, n: int):
    """(callable on (N, n+1) points, Lipschitz constant) for a description:
    a perimeter.Coordinate or Constant, which carries its pair law."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise SetSyntaxError(0, "expected 'coord:<i>', 'abs-coord:<i>' or 'const:<c>'")
    body = len(kind) + 1
    if kind in ("coord", "abs-coord"):
        try:
            i = int(rest)
        except ValueError:
            raise SetSyntaxError(body, f"bad coordinate index {rest!r}") from None
        if not 0 <= i <= n:
            raise SetSyntaxError(body, f"coordinate index must lie in [0, {n}]")
        return Coordinate(i, absolute=kind == "abs-coord"), 1.0
    if kind == "const":
        try:
            return Constant(float(rest)), 0.0
        except ValueError:
            raise SetSyntaxError(body, f"bad constant {rest!r}") from None
    raise SetSyntaxError(0, f"unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# seeds, output, records


def resolve_seed(flag_value: str | None) -> int:
    text = flag_value if flag_value is not None else os.environ.get(SEED_ENV_VAR)
    if text is None:
        return DEFAULT_SEED
    try:
        return int(text, 0)
    except ValueError:
        raise ValueError(f"bad seed {text!r}: expected decimal or 0x-hex") from None


def _fmt(x) -> str:
    """x with 17 significant digits, or nan for None."""
    if x is None:
        return "nan"
    return format(float(x), ".17g")


def _row(param, value, error, target=None, deviation=None) -> dict:
    return {
        "param": param,
        "value": value,
        "error": error,
        "target": target,
        "deviation": deviation,
    }


def _sweep_rows(rows, report, limit_param: float):
    out = [
        _row(r.param, r.value, r.error, report.target, relative_deviation(r.value, report.target))
        for r in rows
    ]
    out.append(_row(limit_param, report.extrapolated, None, report.target, report.deviation))
    return out


def _limit_dict(report):
    return {
        "extrapolated": report.extrapolated,
        "fit_order": report.fit_order,
        "target": report.target,
        "deviation": report.deviation,
    }


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        when = datetime.datetime.fromtimestamp(int(epoch), tz=datetime.timezone.utc)
    else:
        when = datetime.datetime.now(tz=datetime.timezone.utc)
    return when.isoformat(timespec="seconds")


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def build_record(experiment: str, config: dict, rows, limit, verdicts, detail, seed: int) -> dict:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return {
        "experiment": experiment,
        "timestamp": _timestamp(),
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "config": config,
        "rows": rows,
        "limit": limit,
        "verdicts": verdicts,
        "detail": detail,
        "seed": seed,
    }


def write_output(record: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        lines = ["param,value,error,target,deviation"]
        for r in record["rows"]:
            lines.append(
                ",".join(_fmt(r[k]) for k in ("param", "value", "error", "target", "deviation"))
            )
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(_json_safe(record), indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _float_list(text: str):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every main call
    of the process; its defaults are immutable, so no call sees another's."""
    parser = _Parser(prog="spherefrac", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    # the run flags, each registered only on the subcommands that read it
    run_flags = {
        "seed": dict(help="RNG seed (decimal or 0x-hex)"),
        "samples": dict(type=int, default=1_000_000,
                        help="MC samples per estimate (at least 2); on S^2 (--n 2) the estimate is "
                        "R = min(32, samples) lattice rotations of samples // R each, so it uses "
                        "R * (samples // R) of them"),
        "threshold": dict(type=float, help="verdict threshold override"),
    }

    def add(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        for flag in flags:
            p.add_argument(f"--{flag}", **run_flags[flag])
        return p

    p = add("perimeter", "fractional s-perimeter of one set", "seed", "samples", "threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, dest="set_desc")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--method", choices=METHODS, default="auto")

    p = add("isoperimetric", "randomized two-cap isoperimetric trials", "seed", "samples")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--trials", type=int, default=50)

    p = add("sweep-s1", "surface-area limit sweep (1-s) P_s, s -> 1",
            "seed", "samples", "threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, dest="set_desc")
    p.add_argument("--s-grid", type=_float_list, default=DEFAULT_S1_GRID)
    p.add_argument("--method", choices=METHODS, default="auto")

    p = add("sweep-sinf", "antipodal limit sweep t^n P~_(-t), t -> infinity",
            "seed", "samples", "threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, dest="set_desc")
    p.add_argument("--t-grid", type=_float_list, default=DEFAULT_T_GRID)

    # the rows are exact and read neither --seed nor --samples, which stay
    # accepted so that existing invocations still run
    p = add("seminorm-sweep", "seminorm limit sweep t^n [f]^p, t -> infinity",
            "seed", "samples", "threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--t-grid", type=_float_list, default=DEFAULT_T_GRID)

    p = add("crofton", "mean great-circle crossing count vs boundary measure", "seed")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, dest="set_desc")
    p.add_argument("--planes", type=int, default=100_000)

    p = add("bp-check", "two-point plane identity check", "seed")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--kernel", choices=("const", "dot2"), default="dot2",
                   help="const: f=1 (closed form 16 pi^2 at n=2); dot2: f=(1+x.y)^2")
    p.add_argument("--pairs", type=int, default=1_000_000)
    p.add_argument("--planes", type=int, default=1000)

    p = add("beta-check", "t^n B(n, tp-n+1) -> (n-1)!/p^n", "threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--t-grid", type=_float_list, default=DEFAULT_T_GRID)

    p = add("s0-check", "vanishing of |s| [f] as s -> 0^-")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--function", default="coord:0")
    p.add_argument("--s-grid", type=_float_list, default=DEFAULT_S0_GRID)

    p = add("profile", "isoperimetric profile gamma(alpha) over cap measures")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--alpha-grid", type=_float_list, default=None)

    return parser


# Largest --n: from n = 343 the measure omega_(n+1) of S^n overflows a
# float (math.gamma((n + 1) / 2) does), and every subcommand needs it.
# bp-check keeps its own, lower bound (integral_geometry._MAX_BP_DIMENSION).
MAX_DIMENSION = 342


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"--n must lie in [1, {MAX_DIMENSION}], got {n}")


def _check_dimension(E, n: int) -> None:
    _check_n(n)
    if E.dimension != n:
        raise ValueError(f"set lives on S^{E.dimension} but --n is {n}")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (rows, limit, verdicts, detail)


def _run_perimeter(args, stream):
    E = parse_set(args.set_desc)
    _check_dimension(E, args.n)
    s = validate_s(args.s)
    method, value, error = perimeter_by_method(E, s, args.method, args.samples, stream)
    target = None
    alpha = E.exact_measure()
    if s == -float(args.n) and alpha is not None:
        target = perimeter_minus_n(args.n, alpha)
    deviation = relative_deviation(value, target)
    verdicts = {}
    if args.threshold is not None and deviation is not None:
        verdicts["within_threshold"] = deviation <= args.threshold
    detail = {"method": method, "set": render_set(E)}
    return [_row(s, value, error, target, deviation)], None, verdicts, detail


def _run_isoperimetric(args, stream):
    _check_n(args.n)
    _need_two(args.samples, "samples")
    report = isoperimetric_comparison(
        args.n, args.s, trials=args.trials, samples=args.samples, rng=stream
    )
    rows = [
        _row(i, t.union_perimeter.value, t.union_perimeter.std_error,
             t.cap_perimeter, t.margin_sigmas)
        for i, t in enumerate(report.trials)
    ]
    verdicts = {"all_trials_directional": report.passed}
    detail = {
        "direction": report.direction,
        "failures": report.failures,
        "note": "deviation column holds the signed sigma margin, not a relative error",
    }
    return rows, None, verdicts, detail


def _run_sweep_s1(args, stream):
    E = parse_set(args.set_desc)
    _check_dimension(E, args.n)
    rows, report = sweep_s_to_1(
        args.n, E, args.s_grid, args.method, samples=args.samples, rng=stream
    )
    verdicts = {}
    threshold = args.threshold if args.threshold is not None else THRESHOLDS["sweep-s1"]
    if report.deviation is not None:
        verdicts["within_threshold"] = report.deviation <= threshold
    detail = {"method": rows[0].method, "set": render_set(E), "threshold": threshold}
    return _sweep_rows(rows, report, 1.0), _limit_dict(report), verdicts, detail


def _run_sweep_sinf(args, stream):
    _need_two(args.samples, "samples")
    E = parse_set(args.set_desc)
    _check_dimension(E, args.n)
    rows, report = sweep_s_to_minus_inf(
        args.n, E, args.t_grid, samples=args.samples, rng=stream
    )
    threshold = args.threshold if args.threshold is not None else THRESHOLDS["sweep-sinf"]
    verdicts = {"within_threshold": report.deviation <= threshold}
    detail = {"method": rows[0].method, "set": render_set(E), "threshold": threshold}
    return _sweep_rows(rows, report, math.inf), _limit_dict(report), verdicts, detail


def _run_seminorm_sweep(args, stream):
    _check_n(args.n)
    f, _ = parse_function(args.function, args.n)
    rows, report = sweep_seminorm_to_minus_inf(args.n, f, args.p, args.t_grid)
    threshold = args.threshold if args.threshold is not None else THRESHOLDS["seminorm-sweep"]
    verdicts = {}
    if report.target and report.target > 0:
        verdicts["within_threshold"] = report.deviation <= threshold
    detail = {"method": rows[0].method, "function": args.function, "p": args.p,
              "threshold": threshold}
    return _sweep_rows(rows, report, math.inf), _limit_dict(report), verdicts, detail


def _need_two(count: int, what: str) -> None:
    """One sample has an infinite error bar, under which every 3-sigma
    verdict would pass; fewer than two is a config error."""
    if count < 2:
        raise ValueError(f"need at least two {what} for an error bar, got {count}")


def _run_crofton(args, stream):
    _need_two(args.planes, "planes")
    E = parse_set(args.set_desc)
    _check_dimension(E, args.n)
    report = crofton_estimate(E, planes=args.planes, rng=stream)
    est = report.crossings
    rows = [_row(args.planes, est.value, est.std_error, report.target,
                 relative_deviation(est.value, report.target))]
    verdicts = {}
    if report.target is not None:
        verdicts["within_3_sigma"] = abs(est.value - report.target) <= 3.0 * est.std_error
    detail = {
        "set": render_set(E),
        "degenerate_resamples": report.degenerate_resamples,
        "sigmas": report.deviation_sigmas,
    }
    return rows, None, verdicts, detail


def dot2_kernel(x, y):
    """bp-check's dot2 kernel (1 + x.y)^2, broadcast over leading axes.

    The dot product comes from row-wise passes, which add in np.sum's order
    without the (..., n+1) product array.
    """
    return (1.0 + _row_dots(x, y)) ** 2


def _run_bp_check(args, stream):
    if args.kernel == "const":
        f = lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
    else:
        f = dot2_kernel
    _need_two(args.pairs, "pairs")
    _need_two(args.planes, "planes")
    report = bp_check(args.n, f, pairs=args.pairs, planes=args.planes, rng=stream)
    combined = math.hypot(report.direct.std_error, report.plane_side.std_error)
    rel = relative_deviation(report.direct.value, report.plane_side.value)
    rows = [_row(args.n, report.direct.value, combined, report.plane_side.value, rel)]
    verdicts = {"sides_agree": report.deviation_sigmas <= 3.0 or rel <= 1e-4}
    detail = {
        "kernel": args.kernel,
        "constant": report.constant,
        "direct": {"value": report.direct.value, "std_error": report.direct.std_error},
        "plane_side": {"value": report.plane_side.value, "std_error": report.plane_side.std_error},
        "sigmas": report.deviation_sigmas,
    }
    return rows, None, verdicts, detail


def _run_beta_check(args, stream):
    _check_n(args.n)
    rows, report = beta_asymptotic_check(args.n, args.p, args.t_grid)
    threshold = args.threshold if args.threshold is not None else THRESHOLDS["beta-check"]
    verdicts = {"within_threshold": report.deviation <= threshold}
    detail = {"p": args.p, "threshold": threshold}
    return _sweep_rows(rows, report, math.inf), _limit_dict(report), verdicts, detail


def _run_s0_check(args, stream):
    _check_n(args.n)
    f, lipschitz = parse_function(args.function, args.n)
    rows, report = s_to_zero_vanishing_check(args.n, f, lipschitz, args.s_grid)
    out = [_row(r.param, r.value, r.error) for r in rows]
    verdicts = {
        "monotone_within_3se": report.monotone_within_3se,
        "final_below_bound": report.final_below_bound,
    }
    detail = {"function": args.function, "scale": report.scale, "bound": report.bound}
    return out, None, verdicts, detail


def _run_profile(args, stream):
    _check_n(args.n)
    total = sphere_surface(args.n)
    grid = args.alpha_grid
    if grid is None:
        grid = [frac * total for frac in (0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.97, 0.995)]
    rows, report = isoperimetric_profile(args.n, args.s, grid)
    out = [_row(r.param, r.value, r.error) for r in rows]
    verdicts = {"gamma_vanishes_at_full_measure": report.tail_vanishes}
    detail = {"max_value": report.max_value, "s": args.s}
    return out, None, verdicts, detail


_HANDLERS = {
    "perimeter": _run_perimeter,
    "isoperimetric": _run_isoperimetric,
    "sweep-s1": _run_sweep_s1,
    "sweep-sinf": _run_sweep_sinf,
    "seminorm-sweep": _run_seminorm_sweep,
    "crofton": _run_crofton,
    "bp-check": _run_bp_check,
    "beta-check": _run_beta_check,
    "s0-check": _run_s0_check,
    "profile": _run_profile,
}

_CONFIG_SKIP = {"out", "format", "command"}


def _config_dict(args) -> dict:
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in _CONFIG_SKIP or value is None:
            continue
        out[key] = value
    return out


def _show_warning(message, category, filename, lineno, file=None, line=None):
    _warn(message)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _main(argv)


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = resolve_seed(getattr(args, "seed", None))
    except ValueError as exc:
        print(f"spherefrac: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = _config_dict(args)
    if hasattr(args, "seed"):
        config["seed"] = seed
    try:
        rows, limit, verdicts, detail = _HANDLERS[args.command](args, RandomStream(seed))
    except SetSyntaxError as exc:
        print(f"spherefrac: config error in description: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"spherefrac: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonFiniteSampleError, DegenerateCircleError) as exc:
        print(f"spherefrac: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    record = build_record(args.command, config, rows, limit, verdicts, detail, seed)
    write_output(record, args.format, args.out)
    failed = [name for name, ok in verdicts.items() if not ok]
    if failed:
        print(f"spherefrac: verdict failure: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
