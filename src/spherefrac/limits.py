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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .estimation import Estimate, as_stream
from .geometry import geodesic_distance, sample_uniform, sphere_surface, volume_radius
from .integral_geometry import symmetric_overlap_measure
from .perimeter import (
    _cap_oracle,
    _jacobi_gap_rule,
    perimeter_by_method,
    perimeter_mc,
    validate_p,
)
from .sets import Cap, PolyconvexUnion

DEFAULT_S1_GRID = (0.9, 0.95, 0.99)
DEFAULT_T_GRID = (20.0, 40.0, 80.0)
DEFAULT_S0_GRID = (-0.3, -0.1, -0.03, -0.01)


def _strict_grid(values, name: str, inside, where: str) -> list:
    """values as floats; a ValueError unless every value is inside and
    each is larger than the one before (a repeated value is refused: two
    rows at one abscissa say nothing about a limit)."""
    grid = [float(v) for v in values]
    if not all(inside(v) for v in grid) or not all(a < b for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be strictly increasing {where}")
    return grid


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
        return relative_deviation(self.extrapolated, self.target)


def relative_deviation(value: float, target: float | None) -> float | None:
    """|value - target| / |target|, absolute when target == 0, None without a target."""
    if target is None:
        return None
    if target == 0.0:
        return abs(value)
    return abs(value - target) / abs(target)


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
    return math.exp(_log_concentration_constant(n, p))


def _log_concentration_constant(n: int, p: float) -> float:
    """log c_(n,p), finite where c_(n,p) itself over- or underflows."""
    return math.log(sphere_surface(n - 1)) + n * math.log(math.pi) + math.lgamma(n) - n * math.log(p)


def sweep_s_to_1(
    n: int,
    E,
    s_grid=DEFAULT_S1_GRID,
    method: str = "auto",
    samples: int = 1_000_000,
    rng=None,
):
    """Rows of (1-s) P_s(E) over s_grid with the extrapolated s->1 limit.

    The limit equals (omega_(n+1)/omega_2) H^(n-1)(boundary E); the target
    is attached when the set knows its boundary measure.  E must live on
    S^n.  Each row is perimeter.perimeter_by_method's for method, which
    auto sets to the cap oracle for a cap, the circle formula on S^1 and
    otherwise perimeter_mc's sliced estimator, whose variance stays finite
    up to s -> 1, so one samples count serves every row; value and error
    are scaled by (1-s).  rng, when given, is split into one stream per
    row; mc needs it.
    """
    grid = _strict_grid(s_grid, "s_grid", lambda s: 0.0 < s < 1.0, "inside (0, 1)")
    if E.dimension != n:
        raise ValueError(f"set lives on S^{E.dimension} but n is {n}")
    streams = [None] * len(grid) if rng is None else as_stream(rng).split(len(grid))
    rows = []
    for s, stream in zip(grid, streams):
        used, value, error = perimeter_by_method(E, s, method, samples, stream)
        rows.append(SweepRow(s, (1.0 - s) * value, (1.0 - s) * error, used))
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

    Each row is perimeter.perimeter_by_method's auto choice on the
    normalized kernel, scaled by t^n: the cap oracle for a cap, the circle
    formula on S^1, and otherwise perimeter_mc's sliced estimator over
    samples great circles, from the row's own stream.  The cap oracle's
    rows carry its error bar, the larger of its rule levels' difference and
    a relative floor, which stays positive where the value is exact (a
    hemisphere meets every great circle in a semicircle).  rng, when given,
    is split into one stream per row and one for the target; perimeter_mc
    rows and a sampled target need it.
    """
    grid = _strict_grid(t_grid, "t_grid", lambda t: t > n, f"with every t > n = {n}")
    _check_t_powers(n, grid)
    streams = [None] * (len(grid) + 1) if rng is None else as_stream(rng).split(len(grid) + 1)
    rows = []
    for t, stream in zip(grid, streams):
        used, value, error = perimeter_by_method(E, -t, "auto", samples, stream, normalized=True)
        rows.append(SweepRow(t, t**n * value, t**n * error, used))
    overlap = symmetric_overlap_measure(E, overlap_samples, streams[-1]).value
    target = concentration_constant(n, 1.0) * overlap
    report = extrapolate([1.0 / t for t in grid], [row.value for row in rows], target)
    return rows, report


def sweep_seminorm_to_minus_inf(n: int, f, p: float, t_grid=DEFAULT_T_GRID):
    """Rows of t^n [f]^p at s = -t with the antipodal-difference target
    c_(n,p) int |f(x) - f(-x)|^p.  A t whose t^n overflows a float, and a
    kernel exponent -(n + s p) that is not finite, are ValueErrors.

    f carries its pair law (f.log_pair_law, e.g. perimeter.Coordinate or
    Constant); one without is a ValueError.  Each row is _log_seminorm_row's
    Gauss-Jacobi sum, method "exact", and the target c_(n,p) omega_(n+1)
    M(pi) is exact too, as the pair at distance pi is (x, -x): 0 for a law
    that is 0 there (|x_i|, and a constant, whose rows are 0 as well).
    Rows or a target that overflow or underflow a float are ValueErrors.
    """
    p = validate_p(p)
    grid = _strict_grid(t_grid, "t_grid", lambda t: t > n / p, f"with every t > n/p = {n / p}")
    _check_t_powers(n, grid)
    exponent = grid[-1] * p - n  # -(n + s p) at the largest t
    if not math.isfinite(exponent):
        raise ValueError(f"the kernel exponent must be finite, got {exponent} on S^{n}")
    return _exact_seminorm_sweep(n, p, grid, _pair_law(f, n, p), exponent)


def _pair_law(f, n: int, p: float):
    """f's log pair law on S^n at p as a function of the gap alone; a
    ValueError where f carries none."""
    if not hasattr(f, "log_pair_law"):
        raise ValueError(f"{type(f).__name__} carries no pair law: a seminorm needs "
                         "E[|f(x) - f(y)|^p | d(x, y)] (perimeter.Coordinate, Constant)")
    return functools.partial(f.log_pair_law, n, p)


# The exact seminorm rows' relative error floor, by measurement: against
# the 40-digit pins of tests/oracles.SEMINORM_ROWS (t from 20 to 1e5) the
# rows are within 3.6e-15 for n <= 3 and 2.2e-14 at n = 50, and against
# 40-digit values up to n = 342 and p = 1000 within 3.4e-13, the roundoff
# of logs that reach 660; the rule's two levels agree to 2.8e-14 on both.
# The pins of |x_0| and of x_0 near 0 (s from -0.01 to -1e3) hold within
# 4.9e-14 at p in {1, 2}; at p = 1.5, where |x_0|'s law goes like
# (pi - theta)^1.5, the levels differ by up to 1.1e-6 and the rows are
# within 1e-7.
SEMINORM_TOL = 1e-12


def _exact_seminorm_sweep(n: int, p: float, grid, log_law, exponent: float):
    """Rows and report of sweep_seminorm_to_minus_inf for the pair law
    log_law of the gap; exponent, the kernel's at the largest t, names a
    value out of range."""
    log_antipodal = float(log_law(np.zeros(1))[0])
    target = 0.0
    if log_antipodal > -math.inf:
        log_target = (_log_concentration_constant(n, p) + math.log(sphere_surface(n))
                      + p * math.log(2.0) + log_antipodal)
        target = _normal_float(log_target, "the target", n, p, exponent)
    rows = [SweepRow(t, *_exact_row(n, p, t, log_law, n, "a row t^n [f]^p", exponent), "exact")
            for t in grid]
    report = extrapolate([1.0 / t for t in grid], [row.value for row in rows], target)
    return rows, report


def _exact_row(n: int, p: float, t: float, log_law, power: float, what: str, exponent: float):
    """(value, error) of t^power [f]^p at s = -t from _log_seminorm_row: the
    error is the larger of its two levels' difference and SEMINORM_TOL
    |value|, and a value outside a normal float is _normal_float's
    ValueError, naming what and exponent."""
    log_value, log_coarse = _log_seminorm_row(n, p, t, log_law, power)
    if log_value == -math.inf:
        return 0.0, 0.0
    value = _normal_float(log_value, what, n, p, exponent)
    return value, max(value * abs(math.expm1(log_coarse - log_value)), SEMINORM_TOL * value)


def _log_seminorm_row(n: int, p: float, t: float, log_law, power: float):
    """log t^power [f]^p at s = -t for f with the pair law log_law, on the
    Gauss rule of _jacobi_gap_rule at 40 + n // 2 nodes and on a coarse
    level of 20 + n // 2, which also integrates the rule's x^(n-1) e^-x-like
    weight near the antipode; -inf where the law is 0 at every node.

    Grouping the pairs by their distance theta = pi v, with M(theta) the
    mean of |f(x) - f(y)|^p over pairs at theta and R = M / (2 sin(theta/2))^p
    the ratio log_law gives,

        [f]^p = omega_(n+1) omega_n int_0^pi M(theta) (theta/pi)^-(n+sp) sin^(n-1) theta d theta
              = omega_(n+1) omega_n pi^(n+p) int_0^1 v^beta R sinc(v)^(n-1) sinc(v/2)^p dv,

    beta = p (1 - s) - 1 > 0 and sinc(v) = sin(pi v) / (pi v).  The rule
    takes v = 1 - u in its gap u = x / beta, which keeps its digits at the
    antipode, and log_law takes u too.  As sin(pi v) = sin(pi u), c sinc(v)
    = sinc(u) c u / v, taken from u where u < 1/2 and as it is from
    v = 1 - u, exact for u >= 1/2, elsewhere, so neither form divides
    roundoff by a small u or v.  With c = beta where beta > 1 (far below
    0), c^-(n-1) joins t^(n-1) as (t/beta)^(n-1), and neither grows with t;
    otherwise c = 1.  The rule's 1/(1 + beta) joins t as t/(beta + 1), and
    the sum is taken as a log-sum, so no factor over- or underflows for
    n <= 342.
    """
    beta = p * (1.0 + t) - 1.0
    lead = n - 1 if beta > 1.0 else 0  # the power of c = beta
    log_scale = (math.log(sphere_surface(n)) + math.log(sphere_surface(n - 1))
                 + (n + p) * math.log(math.pi) + lead * math.log(t / beta)
                 + math.log(t / (beta + 1.0)) + (power - lead - 1) * math.log(t))
    out = []
    for count in (40 + n // 2, 20 + n // 2):
        x, w = _jacobi_gap_rule(count, beta)
        u = x / beta
        log_sinc = np.where(u < 0.5, np.log(np.sinc(u) * (x if lead else u)) - np.log1p(-u),
                            np.log(np.sinc(1.0 - u)) + (math.log(beta) if lead else 0.0))
        terms = (np.log(w) + (n - 1) * log_sinc + p * np.log(np.sinc(0.5 - 0.5 * u)) + log_law(u))
        peak = terms.max()
        out.append(peak if peak == -math.inf else log_scale + peak + math.log(np.exp(terms - peak).sum()))
    return out


def _normal_float(log_value: float, what: str, n: int, p: float, exponent: float) -> float:
    """exp(log_value), or a ValueError where it is not a normal float."""
    if not math.log(np.finfo(float).tiny) <= log_value < math.log(np.finfo(float).max):
        raise ValueError(f"the kernel exponent {exponent:g} on S^{n} at p = {p:g} leaves {what} "
                         "outside the range of a float")
    return math.exp(log_value)


def _check_t_powers(n: int, grid) -> None:
    """A ValueError when t^n overflows a float on an increasing t-grid."""
    try:
        grid[-1] ** n
    except OverflowError:
        raise ValueError(f"t^n overflows a float at t = {grid[-1]:g}, n = {n}") from None


def beta_asymptotic_check(n: int, p: float, t_grid=DEFAULT_T_GRID):
    """Rows of t^n B(n, tp - n + 1) against the limit (n-1)!/p^n; a row or
    limit that overflows a float is a ValueError."""
    if not (math.isfinite(p) and p > 0.0):
        raise ValueError(f"p must be a finite number > 0, got {p}")
    grid = _strict_grid(t_grid, "t_grid", lambda t: t * p > n, f"with every t > n/p = {n / p}")
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
    """Verdicts for the s -> 0^- decay of |s| [f]_(s,1), with the Lipschitz
    bound on [f]_(s,1) at the last s (scale) and on the last row (bound)."""

    monotone_within_3se: bool
    final_below_bound: bool
    scale: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.monotone_within_3se and self.final_below_bound


def _lipschitz_seminorm_bound(n: int, s: float, lipschitz: float) -> float:
    """Bound on the normalized-kernel seminorm [f]_(s,1) of an L-Lipschitz f
    on S^n, s < 0: |f(x) - f(y)| <= L d(x, y), so it is the seminorm of the
    pair law M(theta) = L theta,

        [f]_(s,1) <= L omega_(n+1) omega_n int_0^pi theta (theta/pi)^-(n+s) sin^(n-1) theta d theta,

    on _log_seminorm_row's rule, in logs, so it stays a normal float where
    omega_(n+1) omega_n underflows (n >= 261).  0 for L = 0.
    """
    if lipschitz == 0.0:
        return 0.0
    # L theta / (2 sin(theta/2)) = L / sinc(v/2) at theta = pi v, v = 1 - gap
    law = lambda gap: math.log(lipschitz) - np.log(np.sinc(0.5 - 0.5 * gap))
    return math.exp(_log_seminorm_row(n, 1.0, -s, law, 0)[0])


def s_to_zero_vanishing_check(n: int, f, lipschitz: float, s_grid=DEFAULT_S0_GRID):
    """Rows of |s| [f]^1 over s_grid rising to 0^-, with decay verdicts.

    Each row is _log_seminorm_row's on f's pair law (f.log_pair_law; one
    without is a ValueError), method "exact", with _exact_row's error.
    Checks that the sequence decreases monotonically within 3 combined
    errors and that the last row, at s, sits below the kernel's own
    Lipschitz bound |s| _lipschitz_seminorm_bound(n, s, lipschitz).
    """
    grid = _strict_grid(s_grid, "s_grid", lambda s: -1.0 < s < 0.0, "inside (-1, 0)")
    law = _pair_law(f, n, 1.0)
    rows = [SweepRow(s, *_exact_row(n, 1.0, -s, law, 1, "a row |s| [f]", -(n + s)), "exact")
            for s in grid]
    monotone = True
    for prev, cur in zip(rows, rows[1:]):
        slack = 3.0 * math.hypot(prev.error, cur.error)
        if cur.value > prev.value + slack:
            monotone = False
    scale = _lipschitz_seminorm_bound(n, grid[-1], lipschitz)
    bound = abs(grid[-1]) * scale
    # <= so a constant f passes
    report = VanishingReport(monotone, rows[-1].value <= bound, scale, bound)
    return rows, report


@dataclass(frozen=True)
class ProfileReport:
    """Isoperimetric profile gamma(alpha) = P_s(cap of measure alpha)/alpha."""

    max_value: float
    tail_vanishes: bool  # last row < 10% of the max


def isoperimetric_profile(n: int, s: float, alpha_grid):
    """Profile rows gamma = P_s(C(a^-1(alpha)))/alpha over a measure grid,
    from the cap oracle, whose error each row divides by alpha too."""
    total = sphere_surface(n)
    grid = _strict_grid(
        alpha_grid, "alpha_grid", lambda a: 0.0 < a < total, f"inside (0, {total:.6g})"
    )
    rows = []
    for alpha in grid:
        value, error = _cap_oracle(n, s, volume_radius(n, alpha))
        rows.append(SweepRow(alpha, value / alpha, error / alpha, "cap_oracle"))
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
) -> ComparisonReport:
    """Randomized isoperimetric trials: two-cap unions against matched caps.

    For each trial, P_s of a random disjoint two-cap union (MC) is compared
    with P_s of the cap of equal measure (the cap oracle).  For s > -n
    the union must exceed the cap by more than 3 standard errors; for
    s < -n the inequality reverses.  s = -n is the degenerate pivot where
    the perimeter depends on the measure alone, so it is rejected here.

    The union's perimeter is one perimeter_mc run of samples per trial
    (the sliced great-circle estimator), and the margin is its z-score
    against the cap, with the oracle's error bar added in quadrature.
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
        cap_value, cap_error = _cap_oracle(n, s, volume_radius(n, alpha))
        est = perimeter_mc(union, s, samples, stream)
        combined = math.hypot(est.std_error, cap_error)
        margin = direction * (est.value - cap_value) / combined if combined > 0 else math.inf
        out.append(
            ComparisonTrial((cap1.radius, cap2.radius), alpha, est, cap_value, margin)
        )
    return ComparisonReport(tuple(out), direction)
