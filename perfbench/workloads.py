"""The benchmark's workloads: CLI operations and their reference checks.

Each operation is one argv list for `spherefrac.cli.main`.  The workload
seed draws a random rotation of every set and each operation's `--seed`;
every check below holds for any seed because the perimeter, the Crofton
mean and the two-point integral are rotation invariant.

References come from `references.json` (written by `make_refs.py`) or from
the exact s = -n pivot |E| (omega_(n+1) - |E|).  Deterministic values must
match to a relative tolerance; Monte Carlo values must fall within 4
combined standard errors of their reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references.json"

HALF_PI = math.pi / 2.0
# r = pi/2 is left out of the grid to keep a pass short; the hemisphere is
# still run by sweep-s1
RADII = {"0.5": 0.5, "2": 2.0}

CAP_GRID_S = (-4.0, -2.0, -0.5, 0.3, 0.7)
SMOKE_CAP_GRID_S = (-4.0, -2.0, 0.7)
MC_GRID_S = (-2.0, -0.5, 0.3)
S1_GRID = (0.9, 0.95, 0.99)
T_GRID = (20.0, 40.0, 80.0)

# Sets on S^2 before rotation.  The two caps of the union are pi/2 apart,
# more than the sum 1.4 of their radii, so the union is disjoint.
MC_CAP = ((0.0, 0.0, 1.0), 1.0)
UNION_CAPS = (((0.0, 0.0, 1.0), 0.6), ((1.0, 0.0, 0.0), 0.8))
OCTANT_NORMALS = ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))
OCTANT_MEASURE = math.pi / 2.0
OCTANT_BOUNDARY = 3.0 * HALF_PI

# Deterministic oracle rows: relative tolerance 10x the CLI's default
# quadrature tolerance (1e-8 for s <= 0.9, 1e-6 above).
def oracle_rtol(s: float) -> float:
    return 1e-5 if s > 0.9 else 1e-7


MC_SIGMAS = 4.0

SIZES = {
    "full": {"samples": 1_000_000, "planes": 1_000_000, "bp_pairs": 1_000_000, "bp_planes": 1000},
    "smoke": {"samples": 100_000, "planes": 100_000, "bp_pairs": 100_000, "bp_planes": 100},
}


@dataclass
class Op:
    """One CLI invocation with the check its output must pass."""

    label: str
    argv: list
    monte_carlo: bool
    check: Callable[[list], list] = field(repr=False)


# The closed forms below do not import spherefrac, so no reference depends
# on the code under test.
def sphere_surface(k: int) -> float:
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def cap_area(n: int, r: float) -> float:
    """H^n measure of a radius-r cap on S^n (n = 2 or 3), in closed form."""
    if n == 2:
        return 2.0 * math.pi * (1.0 - math.cos(r))
    if n == 3:
        return 2.0 * math.pi * (r - math.sin(r) * math.cos(r))
    raise ValueError(f"no closed-form cap area for n = {n}")


def pivot(n: int, measure: float) -> float:
    """Exact s = -n perimeter |E| (omega_(n+1) - |E|)."""
    return measure * (sphere_surface(n) - measure)


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["values"]


def limit_weights(hs) -> np.ndarray:
    """Weights of the rows in the least-squares intercept the sweeps report."""
    design = np.column_stack([np.ones(len(hs)), np.asarray(hs, dtype=float)])
    return np.linalg.pinv(design)[0]


# ---------------------------------------------------------------------------
# set descriptions


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _key(x: float) -> str:
    """Spelling of a parameter in reference keys and operation labels."""
    return format(float(x), "g")


def _vec(v) -> str:
    return ",".join(_num(c) for c in v)


def cap_desc(center, radius: float, rot: np.ndarray) -> str:
    return f"cap:{_vec(rot @ np.asarray(center, dtype=float))}:{_num(radius)}"


def octant_desc(rot: np.ndarray) -> str:
    return "poly:" + ";".join(_vec(rot @ np.asarray(u)) for u in OCTANT_NORMALS)


def union_desc(rot: np.ndarray) -> str:
    return "union:" + "+".join(cap_desc(c, r, rot) for c, r in UNION_CAPS)


def random_rotation(dim: int, gen: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(gen.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def union_measure() -> float:
    return sum(cap_area(2, r) for _, r in UNION_CAPS)


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output passes


def _row_count(rows, expected: int) -> list:
    if len(rows) != expected:
        return [f"expected {expected} rows, got {len(rows)}"]
    return []


def _rel_close(label: str, value, ref: float, rtol: float) -> list:
    if value is None or not math.isfinite(value):
        return [f"{label}: non-finite value {value!r}"]
    if abs(value - ref) > rtol * abs(ref):
        return [f"{label}: {value!r} vs reference {ref!r} (rtol {rtol:g})"]
    return []


def _sigma_close(label: str, value, error, ref: float, ref_error: float) -> list:
    if value is None or not math.isfinite(value):
        return [f"{label}: non-finite value {value!r}"]
    if error is None or not (math.isfinite(error) and error > 0.0):
        return [f"{label}: reported error {error!r} is not a positive finite number"]
    combined = math.hypot(error, ref_error)
    if abs(value - ref) > MC_SIGMAS * combined:
        z = abs(value - ref) / combined
        return [f"{label}: {value!r} vs reference {ref!r} is {z:.2f} combined sigma"]
    return []


def check_oracle(ref: float, rtol: float):
    def check(rows):
        return _row_count(rows, 1) or _rel_close("value", rows[0]["value"], ref, rtol)

    return check


def check_mc(ref: float, ref_error: float):
    def check(rows):
        return _row_count(rows, 1) or _sigma_close(
            "value", rows[0]["value"], rows[0]["error"], ref, ref_error
        )

    return check


def check_deterministic_sweep(refs: list, ref_limit: float, rtols: list):
    def check(rows):
        problems = _row_count(rows, len(refs) + 1)
        if problems:
            return problems
        for i, (ref, rtol) in enumerate(zip(refs, rtols)):
            problems += _rel_close(f"row {i}", rows[i]["value"], ref, rtol)
        problems += _rel_close("limit", rows[-1]["value"], ref_limit, max(rtols))
        return problems

    return check


def check_mc_sweep(refs: list, ref_errors: list, hs: list):
    """Rows within 4 sigma; the limit row against the extrapolated references,
    with the rows' errors propagated through the least-squares intercept."""
    weights = limit_weights(hs)
    ref_limit = float(weights @ np.asarray(refs))
    ref_limit_error = float(math.sqrt(np.sum((weights * np.asarray(ref_errors)) ** 2)))

    def check(rows):
        problems = _row_count(rows, len(refs) + 1)
        if problems:
            return problems
        for i, (ref, ref_error) in enumerate(zip(refs, ref_errors)):
            problems += _sigma_close(
                f"row {i}", rows[i]["value"], rows[i]["error"], ref, ref_error
            )
        if problems:
            return problems
        errors = np.array([row["error"] for row in rows[:-1]])
        limit_error = float(math.sqrt(np.sum((weights * errors) ** 2)))
        problems += _sigma_close(
            "limit", rows[-1]["value"], limit_error, ref_limit, ref_limit_error
        )
        return problems

    return check


def check_bp(exact: float):
    """Both sides of the two-point identity against the exact integral.

    The CSV row carries the direct side as value, the plane side as target
    and their combined error, which bounds each side's own error."""

    def check(rows):
        problems = _row_count(rows, 1)
        if problems:
            return problems
        row = rows[0]
        problems += _sigma_close("direct side", row["value"], row["error"], exact, 0.0)
        problems += _sigma_close("plane side", row["target"], row["error"], exact, 0.0)
        return problems

    return check


# ---------------------------------------------------------------------------
# workloads


def _op_seeds(gen: np.random.Generator):
    while True:
        yield str(int(gen.integers(0, 2**32)))


def cap_oracle(seed: int, size: str) -> list:
    """Deterministic cap oracle: perimeter --method cap_oracle plus sweep-s1."""
    refs = load_references()
    gen = np.random.default_rng(seed)
    seeds = _op_seeds(gen)
    grid_s = CAP_GRID_S if size == "full" else SMOKE_CAP_GRID_S
    ops = []
    for n in (2, 3):
        rot = random_rotation(n + 1, gen)
        axis = (0.0,) * n + (1.0,)
        for s in grid_s:
            for rname, r in RADII.items():
                if s == -n:
                    ref = pivot(n, cap_area(n, r))
                else:
                    ref = refs[f"cap n={n} s={_key(s)} r={rname}"]["value"]
                argv = ["perimeter", "--n", str(n), "--set", cap_desc(axis, r, rot),
                        "--s", _num(s), "--method", "cap_oracle", "--seed", next(seeds)]
                ops.append(Op(f"cap_oracle n={n} s={_key(s)} r={rname}", argv, False,
                              check_oracle(ref, oracle_rtol(s))))
    rot = random_rotation(3, gen)
    rows = [refs[f"sweep-s1 s={_key(s)}"]["value"] for s in S1_GRID]
    ops.append(Op(
        "sweep-s1 hemisphere",
        ["sweep-s1", "--n", "2", "--set", cap_desc((0.0, 0.0, 1.0), HALF_PI, rot),
         "--seed", next(seeds)],
        False,
        check_deterministic_sweep(rows, refs["sweep-s1 limit"]["value"],
                                  [oracle_rtol(s) for s in S1_GRID]),
    ))
    return ops


def mc_perimeter(seed: int, size: str) -> list:
    """Point-pair Monte Carlo perimeters of every set type, plus the two
    antipodal (t -> infinity) sweeps.  s >= 1/2 is left out: there the
    estimator's variance is infinite and its standard error means nothing."""
    refs = load_references()
    sizes = SIZES[size]
    gen = np.random.default_rng(seed)
    seeds = _op_seeds(gen)
    rot = random_rotation(3, gen)
    cap_measure = cap_area(2, MC_CAP[1])
    sets = [
        ("cap", cap_desc(MC_CAP[0], MC_CAP[1], rot), cap_measure, "cap n=2 s={s} r=1"),
        ("octant", octant_desc(rot), OCTANT_MEASURE, "mc octant s={s}"),
        ("union", union_desc(rot), union_measure(), "mc union s={s}"),
        # P_s(E^c) = P_s(E) and P_s(-E) = P_s(E)
        ("compl-union", "compl:" + union_desc(rot), union_measure(), "mc union s={s}"),
        ("refl-octant", "refl:" + octant_desc(rot), OCTANT_MEASURE, "mc octant s={s}"),
    ]
    ops = []
    for name, desc, measure, ref_key in sets:
        for s in MC_GRID_S:
            if s == -2.0:
                ref, ref_error = pivot(2, measure), 0.0
            else:
                entry = refs[ref_key.format(s=_key(s))]
                ref, ref_error = entry["value"], entry.get("error", 0.0)
            argv = ["perimeter", "--n", "2", "--set", desc, "--s", _num(s), "--method", "mc",
                    "--samples", str(sizes["samples"]), "--seed", next(seeds)]
            ops.append(Op(f"mc {name} s={_key(s)}", argv, True, check_mc(ref, ref_error)))
    hs = [1.0 / t for t in T_GRID]
    sinf = [refs[f"sweep-sinf t={_key(t)}"] for t in T_GRID]
    ops.append(Op(
        "sweep-sinf hemisphere",
        ["sweep-sinf", "--n", "2", "--set", cap_desc((0.0, 0.0, 1.0), HALF_PI, rot),
         "--samples", str(sizes["samples"]), "--seed", next(seeds)],
        True,
        check_mc_sweep([e["value"] for e in sinf], [e.get("error", 0.0) for e in sinf], hs),
    ))
    semi = [refs[f"seminorm t={_key(t)}"] for t in T_GRID]
    ops.append(Op(
        "seminorm-sweep coord:0",
        ["seminorm-sweep", "--n", "2", "--function", "coord:0",
         "--samples", str(sizes["samples"]), "--seed", next(seeds)],
        True,
        check_mc_sweep([e["value"] for e in semi], [e["error"] for e in semi], hs),
    ))
    return ops


def integral_geometry(seed: int, size: str) -> list:
    """Crofton crossing counts and the two-point plane identity."""
    sizes = SIZES[size]
    gen = np.random.default_rng(seed)
    seeds = _op_seeds(gen)
    rot = random_rotation(3, gen)
    omega_2 = sphere_surface(1)
    # Crofton target (2 / omega_n) H^(n-1)(boundary E); a cap of radius r
    # on S^2 has boundary length 2 pi sin r.
    crofton_sets = [
        ("cap r=0.5", cap_desc((0.0, 0.0, 1.0), 0.5, rot), 2.0 * math.sin(0.5)),
        ("cap r=2", cap_desc((0.0, 0.0, 1.0), 2.0, rot), 2.0 * math.sin(2.0)),
        ("octant", octant_desc(rot), 2.0 * OCTANT_BOUNDARY / omega_2),
        ("union", union_desc(rot), sum(2.0 * math.sin(r) for _, r in UNION_CAPS)),
    ]
    ops = []
    for name, desc, target in crofton_sets:
        argv = ["crofton", "--n", "2", "--set", desc, "--planes", str(sizes["planes"]),
                "--seed", next(seeds)]
        ops.append(Op(f"crofton {name}", argv, True, check_mc(target, 0.0)))
    # integral of (1 + x.y)^2 over S^2 x S^2: (4 pi)^2 (1 + 1/3)
    exact = (4.0 * math.pi) ** 2 * 4.0 / 3.0
    ops.append(Op(
        "bp-check dot2",
        ["bp-check", "--kernel", "dot2", "--pairs", str(sizes["bp_pairs"]),
         "--planes", str(sizes["bp_planes"]), "--seed", next(seeds)],
        True,
        check_bp(exact),
    ))
    return ops


WORKLOADS = {
    "cap-oracle": cap_oracle,
    "mc-perimeter": mc_perimeter,
    "integral-geometry": integral_geometry,
}
