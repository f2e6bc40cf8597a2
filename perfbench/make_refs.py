"""Regenerate perfbench/references.json, the benchmark's stored references.

    python3 perfbench/make_refs.py            # about 2 minutes on one core

Deterministic references are the cap oracle `perimeter_cap` at tol 1e-10
(1e-8 for s > 0.9), two orders tighter than the CLI default the benchmark
runs at.  Monte Carlo references use 20x the benchmark's 1e6 samples, an
unrotated set and a seed no benchmark run uses; their standard error is
stored and folded into each check.  The s = -n pivot needs no stored value.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from spherefrac import (  # noqa: E402
    Cap,
    PolyconvexUnion,
    Polytope,
    RandomStream,
    perimeter_cap,
    perimeter_mc,
    seminorm_mc,
)
from spherefrac.limits import extrapolate  # noqa: E402

REF_SEED = 201111562
REF_SAMPLES = 20_000_000
TIGHT_TOL = 1e-10
TIGHT_TOL_NEAR_1 = 1e-8


def _tight(s: float) -> float:
    return TIGHT_TOL_NEAR_1 if s > 0.9 else TIGHT_TOL


def oracle_refs(out: dict) -> None:
    for n in (2, 3):
        for s in wl.CAP_GRID_S:
            if s == -n:
                continue
            for rname, r in wl.RADII.items():
                out[f"cap n={n} s={wl._key(s)} r={rname}"] = {
                    "value": perimeter_cap(n, s, r, tol=_tight(s)),
                    "source": f"perimeter_cap tol={_tight(s):g}",
                }
    for s in wl.MC_GRID_S:
        if s != -2.0:
            out[f"cap n=2 s={wl._key(s)} r=1"] = {
                "value": perimeter_cap(2, s, wl.MC_CAP[1], tol=_tight(s)),
                "source": f"perimeter_cap tol={_tight(s):g}",
            }
    rows = []
    for s in wl.S1_GRID:
        value = (1.0 - s) * perimeter_cap(2, s, wl.HALF_PI, tol=_tight(s))
        rows.append(value)
        out[f"sweep-s1 s={wl._key(s)}"] = {
            "value": value,
            "source": f"(1 - s) perimeter_cap tol={_tight(s):g}",
        }
    limit = extrapolate([1.0 - s for s in wl.S1_GRID], rows).extrapolated
    out["sweep-s1 limit"] = {"value": limit, "source": "least-squares intercept of the rows"}
    for t in wl.T_GRID:
        # normalized kernel (d/pi)^-(n+s) = pi^(n+s) d^-(n+s), at s = -t
        value = t**2 * math.pi ** (2.0 - t) * perimeter_cap(2, -t, wl.HALF_PI, tol=TIGHT_TOL)
        out[f"sweep-sinf t={wl._key(t)}"] = {
            "value": value,
            "source": f"t^2 pi^(2-t) perimeter_cap(2, -t, pi/2) tol={TIGHT_TOL:g}",
        }


def mc_refs(out: dict) -> None:
    octant = Polytope(np.array(wl.OCTANT_NORMALS))
    union = PolyconvexUnion(tuple(Cap(np.array(c), r) for c, r in wl.UNION_CAPS))
    streams = RandomStream(REF_SEED).split(8)
    jobs = [
        ("mc octant s=-0.5", lambda st: perimeter_mc(octant, -0.5, REF_SAMPLES, st)),
        ("mc octant s=0.3", lambda st: perimeter_mc(octant, 0.3, REF_SAMPLES, st)),
        ("mc union s=-0.5", lambda st: perimeter_mc(union, -0.5, REF_SAMPLES, st)),
        ("mc union s=0.3", lambda st: perimeter_mc(union, 0.3, REF_SAMPLES, st)),
    ]
    coord0 = lambda x: np.asarray(x, dtype=float)[..., 0]  # noqa: E731
    for t in wl.T_GRID:
        jobs.append((
            f"seminorm t={wl._key(t)}",
            lambda st, t=t: seminorm_mc(coord0, 2, 1.0, -t, REF_SAMPLES, st),
            t**2,
        ))
    for job, stream in zip(jobs, streams):
        key, run = job[0], job[1]
        scale = job[2] if len(job) > 2 else 1.0
        est = run(stream)
        out[key] = {
            "value": scale * est.value,
            "error": scale * est.std_error,
            "source": f"Monte Carlo, {REF_SAMPLES} samples, seed {REF_SEED}",
        }
        print(key, out[key], flush=True)


def main() -> int:
    start = time.perf_counter()
    values: dict = {}
    oracle_refs(values)
    print(f"oracle references done in {time.perf_counter() - start:.1f} s", flush=True)
    mc_refs(values)
    record = {
        "note": __doc__.strip().splitlines()[0],
        "generated_with": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "seconds": round(time.perf_counter() - start, 1),
        },
        "values": dict(sorted(values.items())),
    }
    with open(wl.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
