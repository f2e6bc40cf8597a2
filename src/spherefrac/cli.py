"""Experiment runner.

Every estimator and verifier is a subcommand emitting CSV or JSON with a
fixed schema.  CSV columns are always param,value,error,target,deviation
(17 significant digits, `nan` for missing); sweeps append one final line
holding the extrapolated limit, with param set to the limit point of the
sweep parameter (1 for s->1, inf for t->infinity).  JSON output is a single
result record carrying the config, a sha256 hash of its canonical form, all
rows, the limit report, and the pass/fail verdicts.

Exit codes: 0 success, 1 usage or config error, 2 verdict failure,
3 numerical failure.  A warning from the library, such as perimeter_mc's
infinite-variance warning, goes to stderr as one `spherefrac: warning:`
line and leaves the exit code alone.  Seeds come from --seed, else the
SPHEREFRAC_SEED environment variable (decimal or 0x-hex), else the fixed
default 0xC0FFEE, and identical configs rerun to byte-identical rows.

Set grammar (angles in radians):
    cap:<x,y,...>:<r>        geodesic cap with the given center and radius
    poly:<u1;u2;...>         intersection of halfspaces x.u_i <= 0
    union:<desc>+<desc>      disjoint union (disjointness spot-checked)
    compl:<desc>             complement
    refl:<desc>              antipodal image
    arcs:<start,len;...>     arc union on the circle (n = 1)

Function grammar: coord:<i> | abs-coord:<i> | const:<c>.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np

from .estimation import NonFiniteSampleError, QuadratureError, RandomStream
from .geometry import _row_dots, sphere_surface
from .integral_geometry import bp_check, crofton_estimate
from .limits import (
    DEFAULT_S0_GRID,
    DEFAULT_S1_GRID,
    DEFAULT_T_GRID,
    beta_asymptotic_check,
    isoperimetric_comparison,
    isoperimetric_profile,
    s_to_zero_vanishing_check,
    sweep_s_to_1,
    sweep_s_to_minus_inf,
    sweep_seminorm_to_minus_inf,
)
from .perimeter import (
    CAP_TOL,
    perimeter_cap,
    perimeter_circle_exact,
    perimeter_mc,
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


def _warn_if_unnormalized(v: np.ndarray, label: str) -> None:
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-6:
        print(f"warning: {label} had |v| = {norm:.8g}, normalizing", file=sys.stderr)


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
            union = PolyconvexUnion(parts)
        except ValueError as exc:
            raise SetSyntaxError(offset, str(exc)) from None
        # the sampled check uses its own fixed stream so output stays
        # deterministic regardless of --seed
        if not union.probably_disjoint(RandomStream(0)):
            print(
                "warning: union parts overlap in sampling; "
                "exact measure and targets are disabled",
                file=sys.stderr,
            )
            union = PolyconvexUnion(parts, assume_disjoint=False)
        return union
    raise SetSyntaxError(offset, f"unknown set kind {kind!r}")


def _num(x: float) -> str:
    return format(float(x), ".17g")


def render_set(E) -> str:
    """Description string that parses back to a set with the same membership."""
    if isinstance(E, Cap):
        return "cap:" + ",".join(map(_num, E.center)) + ":" + _num(E.radius)
    if isinstance(E, Polytope):
        return "poly:" + ";".join(",".join(map(_num, row)) for row in E.normals)
    if isinstance(E, PolyconvexUnion):
        return "union:" + "+".join(render_set(p) for p in E.parts)
    if isinstance(E, Complement):
        return "compl:" + render_set(E.inner)
    if isinstance(E, Reflection):
        return "refl:" + render_set(E.inner)
    if isinstance(E, ArcUnion):
        return "arcs:" + ";".join(f"{_num(a)},{_num(b)}" for a, b in E.arcs)
    raise TypeError(f"cannot render {type(E).__name__}")


def parse_function(text: str, n: int):
    """(callable on (N, n+1) points, Lipschitz constant) for a description."""
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
        if kind == "coord":
            return (lambda x: np.asarray(x, dtype=float)[..., i]), 1.0
        return (lambda x: np.abs(np.asarray(x, dtype=float)[..., i])), 1.0
    if kind == "const":
        try:
            c = float(rest)
        except ValueError:
            raise SetSyntaxError(body, f"bad constant {rest!r}") from None
        return (lambda x: np.full(np.asarray(x).shape[:-1], c)), 0.0
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


def _rel_dev(value, target):
    if target is None:
        return None
    if target == 0.0:
        return abs(value)
    return abs(value - target) / abs(target)


def _sweep_rows(rows, report, limit_param: float):
    out = [
        _row(r.param, r.value, r.error, report.target, _rel_dev(r.value, report.target))
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spherefrac", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add(name, help_text, **kwargs):
        p = sub.add_parser(name, help=help_text, **kwargs)
        p.add_argument("--seed", default=None, help="RNG seed (decimal or 0x-hex)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--samples", type=int, default=1_000_000, help="MC samples per estimate")
        p.add_argument("--tol", type=float, default=CAP_TOL,
                       help="relative tolerance of the cap oracle, also its reported "
                            "relative error (default %(default)g)")
        p.add_argument("--threshold", type=float, default=None, help="verdict threshold override")
        return p

    p = add("perimeter", "fractional s-perimeter of one set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, dest="set_desc")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--method", choices=("auto", "mc", "cap_oracle", "circle_exact"), default="auto")

    p = add("isoperimetric", "randomized two-cap isoperimetric trials")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--trials", type=int, default=50)

    p = add("sweep-s1", "surface-area limit sweep (1-s) P_s, s -> 1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, dest="set_desc")
    p.add_argument("--s-grid", type=_float_list, default=list(DEFAULT_S1_GRID))
    p.add_argument("--method", choices=("auto", "mc", "cap_oracle", "circle_exact"), default="auto")

    p = add("sweep-sinf", "antipodal limit sweep t^n P~_(-t), t -> infinity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, dest="set_desc")
    p.add_argument("--t-grid", type=_float_list, default=list(DEFAULT_T_GRID))

    p = add("seminorm-sweep", "seminorm limit sweep t^n [f]^p, t -> infinity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--t-grid", type=_float_list, default=list(DEFAULT_T_GRID))

    p = add("crofton", "mean great-circle crossing count vs boundary measure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, dest="set_desc")
    p.add_argument("--planes", type=int, default=100_000)

    p = add("bp-check", "two-point plane identity check")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--kernel", choices=("const", "dot2"), default="dot2",
                   help="const: f=1 (closed form 16 pi^2 at n=2); dot2: f=(1+x.y)^2")
    p.add_argument("--pairs", type=int, default=1_000_000)
    p.add_argument("--planes", type=int, default=1000)

    p = add("beta-check", "t^n B(n, tp-n+1) -> (n-1)!/p^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--t-grid", type=_float_list, default=list(DEFAULT_T_GRID))

    p = add("s0-check", "vanishing of |s| [f] as s -> 0^-")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--function", default="coord:0")
    p.add_argument("--s-grid", type=_float_list, default=list(DEFAULT_S0_GRID))

    p = add("profile", "isoperimetric profile gamma(alpha) over cap measures")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--alpha-grid", type=_float_list, default=None)

    return parser


def _check_dimension(E, n: int) -> None:
    if E.dimension != n:
        raise ValueError(f"set lives on S^{E.dimension} but --n is {n}")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (rows, limit, verdicts, detail)


def _auto_method(E, requested: str) -> str:
    if requested != "auto":
        return requested
    if isinstance(E, Cap):
        return "cap_oracle"
    if isinstance(E, ArcUnion):
        return "circle_exact"
    return "mc"


def _run_perimeter(args, stream):
    E = parse_set(args.set_desc)
    _check_dimension(E, args.n)
    s = validate_s(args.s)
    method = _auto_method(E, args.method)
    if method == "cap_oracle":
        if not isinstance(E, Cap):
            raise ValueError("cap_oracle needs a cap set")
        value = perimeter_cap(args.n, s, E.radius, tol=args.tol)
        error = abs(value) * args.tol
    elif method == "circle_exact":
        if not isinstance(E, ArcUnion):
            raise ValueError("circle_exact needs an arcs set")
        value, error = perimeter_circle_exact(E, s), 0.0
    else:
        est = perimeter_mc(E, s, args.samples, stream)
        value, error = est.value, est.std_error
    target = None
    alpha = E.exact_measure()
    if s == -float(args.n) and alpha is not None:
        target = perimeter_minus_n(args.n, alpha)
    deviation = _rel_dev(value, target)
    verdicts = {}
    if args.threshold is not None and deviation is not None:
        verdicts["within_threshold"] = deviation <= args.threshold
    detail = {"method": method, "set": render_set(E)}
    return [_row(s, value, error, target, deviation)], None, verdicts, detail


def _run_isoperimetric(args, stream):
    report = isoperimetric_comparison(
        args.n, args.s, trials=args.trials, samples=args.samples,
        rng=stream, cap_tol=args.tol,
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
    method = _auto_method(E, args.method)
    rng = stream if method == "mc" else None
    rows, report = sweep_s_to_1(
        args.n, E, args.s_grid, method, samples=args.samples, rng=rng, tol=args.tol
    )
    verdicts = {}
    threshold = args.threshold if args.threshold is not None else THRESHOLDS["sweep-s1"]
    if report.deviation is not None:
        verdicts["within_threshold"] = report.deviation <= threshold
    detail = {"method": method, "set": render_set(E), "threshold": threshold}
    return _sweep_rows(rows, report, 1.0), _limit_dict(report), verdicts, detail


def _run_sweep_sinf(args, stream):
    E = parse_set(args.set_desc)
    _check_dimension(E, args.n)
    rows, report = sweep_s_to_minus_inf(
        args.n, E, args.t_grid, samples=args.samples, rng=stream
    )
    threshold = args.threshold if args.threshold is not None else THRESHOLDS["sweep-sinf"]
    verdicts = {"within_threshold": report.deviation <= threshold}
    detail = {"set": render_set(E), "threshold": threshold}
    return _sweep_rows(rows, report, math.inf), _limit_dict(report), verdicts, detail


def _run_seminorm_sweep(args, stream):
    f, _ = parse_function(args.function, args.n)
    rows, report = sweep_seminorm_to_minus_inf(
        args.n, f, args.p, args.t_grid, samples=args.samples, rng=stream
    )
    threshold = args.threshold if args.threshold is not None else THRESHOLDS["seminorm-sweep"]
    verdicts = {}
    if report.target and report.target > 0:
        verdicts["within_threshold"] = report.deviation <= threshold
    detail = {"function": args.function, "p": args.p, "threshold": threshold}
    return _sweep_rows(rows, report, math.inf), _limit_dict(report), verdicts, detail


def _run_crofton(args, stream):
    E = parse_set(args.set_desc)
    _check_dimension(E, args.n)
    report = crofton_estimate(E, planes=args.planes, rng=stream)
    est = report.crossings
    rows = [_row(args.planes, est.value, est.std_error, report.target,
                 _rel_dev(est.value, report.target))]
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
    report = bp_check(args.n, f, pairs=args.pairs, planes=args.planes, rng=stream)
    combined = math.hypot(report.direct.std_error, report.plane_side.std_error)
    rel = _rel_dev(report.direct.value, report.plane_side.value)
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
    rows, report = beta_asymptotic_check(args.n, args.p, args.t_grid)
    threshold = args.threshold if args.threshold is not None else THRESHOLDS["beta-check"]
    verdicts = {"within_threshold": report.deviation <= threshold}
    detail = {"p": args.p, "threshold": threshold}
    return _sweep_rows(rows, report, math.inf), _limit_dict(report), verdicts, detail


def _run_s0_check(args, stream):
    f, lipschitz = parse_function(args.function, args.n)
    rows, report = s_to_zero_vanishing_check(
        args.n, f, lipschitz, args.s_grid, samples=args.samples, rng=stream
    )
    out = [_row(r.param, r.value, r.error) for r in rows]
    verdicts = {
        "monotone_within_3se": report.monotone_within_3se,
        "final_below_bound": report.final_below_bound,
    }
    detail = {"function": args.function, "scale": report.scale, "bound": 0.05 * report.scale}
    return out, None, verdicts, detail


def _run_profile(args, stream):
    total = sphere_surface(args.n)
    grid = args.alpha_grid
    if grid is None:
        grid = [frac * total for frac in (0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.97, 0.995)]
    rows, report = isoperimetric_profile(args.n, args.s, grid, tol=args.tol)
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
    print(f"spherefrac: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _main(argv)


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = resolve_seed(args.seed)
    except ValueError as exc:
        print(f"spherefrac: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = _config_dict(args)
    config["seed"] = seed
    try:
        rows, limit, verdicts, detail = _HANDLERS[args.command](args, RandomStream(seed))
    except SetSyntaxError as exc:
        print(f"spherefrac: config error in description: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"spherefrac: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureError, NonFiniteSampleError, DegenerateCircleError) as exc:
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
