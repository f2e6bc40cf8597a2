"""Fractional s-perimeters and seminorms on S^n.

The s-perimeter of E is the double integral of d(x,y)^-(n+s) over x in E,
y outside E, with geodesic distance d; s ranges over (-inf, 1).  The
normalized variant replaces d by d/pi.  Positive s concentrates the kernel
at the boundary (singular regime), s in [-n, 0] keeps it integrable (mild),
and s < -n flips the kernel into one that rewards antipodal separation
(smooth regime).
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.special import betainc

from .estimation import Estimate, RadialProposal, adaptive_quad, mc_estimate
from .geometry import cap_area, sample_at_distance, sample_uniform, sphere_surface
from .sets import ArcUnion, TWO_PI

_THETA_MIN_FLOOR = 1e-14


def validate_s(s: float) -> float:
    s = float(s)
    if not math.isfinite(s) or s >= 1.0:
        raise ValueError(f"s must be a finite number < 1, got {s}")
    return s


def s_regime(s: float, n: int) -> str:
    """Kernel regime: 'singular' for s in (0,1), 'mild' for s in [-n, 0], 'smooth' below."""
    s = validate_s(s)
    if s > 0.0:
        return "singular"
    if s >= -float(n):
        return "mild"
    return "smooth"


def perimeter_minus_n(n: int, measure: float) -> float:
    """Exact s = -n perimeter: H^n(E) * (omega_(n+1) - H^n(E)).

    At s = -n the kernel is constant 1, so the double integral only sees the
    measures of E and its complement.
    """
    total = sphere_surface(n)
    if not 0.0 <= measure <= total + 1e-9:
        raise ValueError(f"measure must lie in [0, {total}]")
    return measure * (total - measure)


# ---------------------------------------------------------------------------
# Monte Carlo estimators


def _power_law_above_boundary(E, x, s: float, gen):
    """(theta, weight * sinc^(n-1)) for theta ~ theta^(-1-s) on [t_min(x), pi].

    t_min is the set's boundary-distance lower bound at x, so the shell that
    cannot reach the complement is never sampled.  s = 0 takes the power
    law's logarithmic limit theta = t_min (pi/t_min)^u.
    """
    t_min = np.maximum(E.boundary_distance(x), _THETA_MIN_FLOOR)
    u = gen.random(len(x))
    if s == 0.0:
        z = np.log(math.pi / t_min)
        theta = t_min * np.exp(u * z)
    else:
        lo = t_min ** (-s)
        hi = math.pi ** (-s)
        theta = (lo + u * (hi - lo)) ** (-1.0 / s)
        z = (lo - hi) / s
    return theta, z * np.sinc(theta / math.pi) ** (E.dimension - 1)


def perimeter_mc(
    E,
    s: float,
    samples: int = 1_000_000,
    rng=None,
    normalized: bool = False,
    chunk_size: int = 1 << 16,
) -> Estimate:
    """Monte Carlo s-perimeter of E.

    Scheme: x uniform on S^n, kept when it lands in E; for each kept x a
    radial distance theta drawn by importance sampling, y uniform on the
    distance-theta sphere around x, and the indicator of y outside E.  For
    s < 0 theta comes from RadialProposal, whose weighted kernel lies within
    a factor (4/pi)^(n-1) of a constant.  For s >= 0 the kernel is not
    integrable at 0, and theta follows the power law theta^(-1-s) on
    [t_min(x), pi], with t_min the set's boundary-distance lower bound; the
    weighted kernel is then at most t_min^-s / s, or log(pi/t_min) at s = 0.

    For s >= 1/2 that weight has infinite variance, because t_min is
    roughly uniform near 0: the estimate stays unbiased, but its standard
    error is no valid error bar, and a RuntimeWarning says so.

    Returns an Estimate of the perimeter (kernel (d/pi)^-(n+s) when
    normalized=True).
    """
    s = validate_s(s)
    n = E.dimension
    scale = sphere_surface(n) * sphere_surface(n - 1)
    if s >= 0.0:
        probe = np.zeros((1, n + 1))
        probe[0, 0] = 1.0
        if E.boundary_distance(probe) is None:
            raise ValueError("s >= 0 needs a set with a boundary_distance bound")
        if normalized:
            scale *= math.pi ** (n + s)

        def radial(x, gen):
            return _power_law_above_boundary(E, x, s, gen)

    else:
        # normalized in the proposal's weight: for large -s the plain
        # weight's factor pi^(1-n-s) overflows
        proposal = RadialProposal(n, -(n + s), normalized=normalized)

        def radial(x, gen):
            return proposal.sample_weighted(len(x), gen)

    if s >= 0.5:
        warnings.warn(
            f"perimeter_mc at s = {s} >= 1/2 has infinite variance; "
            "its standard error is not a valid error bar",
            RuntimeWarning,
            stacklevel=2,
        )

    def sampler(count, gen):
        x = sample_uniform(n, count, gen)
        inside = E.contains(x)
        x = x[inside]
        theta, wk = radial(x, gen)
        return inside, wk, sample_at_distance(x, theta, gen)

    def integrand(batch):
        inside, wk, y = batch
        values = np.zeros(inside.size)
        values[inside] = scale * wk * ~E.contains(y)
        return values

    return mc_estimate(sampler, integrand, samples, rng, chunk_size)


def seminorm_mc(
    f,
    n: int,
    p: float,
    s: float,
    samples: int = 1_000_000,
    rng=None,
    chunk_size: int = 1 << 16,
) -> Estimate:
    """Gagliardo-type seminorm: double integral of |f(x)-f(y)|^p / dtilde^(n+sp).

    dtilde is the normalized distance d/pi and s must be negative (the
    positive-s seminorm of a generic f is infinite).  f must accept point
    arrays of shape (N, n+1) and return (N,) values.
    """
    s = validate_s(s)
    if s >= 0.0:
        raise ValueError("seminorm estimator requires s < 0")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    omega = sphere_surface(n) * sphere_surface(n - 1)
    proposal = RadialProposal(n, -(n + s * p), normalized=True)

    def sampler(count, gen):
        x = sample_uniform(n, count, gen)
        theta, wk = proposal.sample_weighted(count, gen)
        y = sample_at_distance(x, theta, gen)
        return x, wk, y

    def integrand(batch):
        x, wk, y = batch
        fx = np.asarray(f(x), dtype=float)
        fy = np.asarray(f(y), dtype=float)
        return omega * wk * np.abs(fx - fy) ** p

    return mc_estimate(sampler, integrand, samples, rng, chunk_size)


# ---------------------------------------------------------------------------
# cap oracle


# Relative tolerance of the cap oracle, and the relative error it reports.
CAP_TOL = 1e-8

# 48-point Gauss-Legendre rule on [0, 1] for the crescent's radial integral
_CRESCENT_V, _CRESCENT_W = np.polynomial.legendre.leggauss(48)
_CRESCENT_V = 0.5 * (_CRESCENT_V + 1.0)
_CRESCENT_W = 0.5 * _CRESCENT_W


def _cap_crescent(n: int, r: float, theta):
    """Measure K(theta) of the part of a radius-r cap outside a copy of it
    whose center is moved a distance theta; needs n >= 2 and r <= pi/2.

    The great sphere bisecting the two centers splits the cap into a near
    and a far side, and K = |near side| - |far side|, because the copy's
    part on the near side mirrors the cap's far side.  In polar coordinates
    (rho, u) about the cap's center, the geodesic sphere of radius rho lies
    wholly on the near side while rho <= h = min(theta/2, r).  A larger one
    has direction u on the far side when cos(angle(u, axis)) > tau =
    tan h / tan rho, so its net share of directions is P(|cos| < tau) =
    I_(tau^2)(1/2, (n-1)/2), the regularized incomplete beta:

        K = cap_area(n, h) + omega_n int_h^r sin^(n-1)(rho) I_(tau^2)(1/2, (n-1)/2) d rho.

    Every term is positive, so small theta loses no digits (unlike
    cap_area - lens).  The substitution rho = h + (r - h) v^6 makes the
    (rho - h)^((n-1)/2) start of the integrand smooth and spreads the
    nodes over its layer of width ~h, for a fixed 48-point rule in v.
    Vectorized over theta.
    """
    h = np.minimum(0.5 * np.asarray(theta, dtype=float), r)[..., None]
    span = r - h
    rho = h + span * _CRESCENT_V**6
    tau2 = np.minimum((np.tan(h) / np.tan(rho)) ** 2, 1.0)
    share = np.sin(rho) ** (n - 1) * betainc(0.5, 0.5 * (n - 1), tau2)
    lateral = (share * 6.0 * span * _CRESCENT_V**5) @ _CRESCENT_W
    return cap_area(n, h[..., 0]) + sphere_surface(n - 1) * lateral


def perimeter_cap(n: int, s: float, r: float, tol: float = CAP_TOL) -> float:
    """Deterministic s-perimeter of a radius-r cap on S^n from its covariogram.

    Grouping the pairs of points by their distance theta gives

        P_s(C_r) = omega_n int_0^pi theta^-(n+s) sin^(n-1)(theta) K(theta) d theta,

    with K the crescent measure of _cap_crescent.  P_s(E) = P_s(E^c) reduces
    r to at most pi/2; K is then the constant cap_area(n, r) on [2r, pi].
    On [0, 2r] the integrand is theta^-s R(theta) with
    R = sinc^(n-1)(theta/pi) K(theta)/theta, which is finite at 0:

        R(0) = H^(n-1)(boundary) Gamma(n/2) / (2 sqrt(pi) Gamma((n+1)/2)),

    so (1-s) P_s tends to omega_n R(0) as s -> 1.  For s > 0 the head
    R(0) (2r)^(1-s)/(1-s) is taken in closed form and the rest, whose
    integrand vanishes like theta^(1-s) at 0, by adaptive quadrature.

    tol is the relative accuracy; against 40-digit values for n in {2, 3}
    the error stays below tol/5 for every tol from 1e-3 to 1e-12.  n = 1
    delegates to the exact circle formula.
    """
    s = validate_s(s)
    if not (0.0 <= r <= math.pi):
        raise ValueError(f"cap radius must lie in [0, pi], got {r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if r <= 0.0 or r >= math.pi:
        return 0.0
    if n == 1:
        return perimeter_circle_exact(ArcUnion([(-r, 2.0 * r)]), s)
    r = min(r, math.pi - r)
    omega_n = sphere_surface(n - 1)

    def reduced(theta):
        return np.sinc(theta / math.pi) ** (n - 1) * _cap_crescent(n, r, theta) / theta

    if s > 0.0:
        r0 = (
            omega_n * math.sin(r) ** (n - 1) * math.gamma(0.5 * n)
            / (2.0 * math.sqrt(math.pi) * math.gamma(0.5 * (n + 1)))
        )
        near = r0 * (2.0 * r) ** (1.0 - s) / (1.0 - s) + adaptive_quad(
            lambda t: t**-s * (reduced(t) - r0), 0.0, 2.0 * r, tol=tol
        )
    else:
        near = adaptive_quad(lambda t: t**-s * reduced(t), 0.0, 2.0 * r, tol=tol)
    far = 0.0
    if 2.0 * r < math.pi:
        far = cap_area(n, r) * adaptive_quad(
            lambda t: t ** (-n - s) * np.sin(t) ** (n - 1), 2.0 * r, math.pi, tol=tol
        )
    return omega_n * (near + far)


# ---------------------------------------------------------------------------
# exact one-dimensional formulas


def _power_quotient(x, s: float):
    """(x^-s - 1) / s for x > 0, with its limit -log x at s = 0; 0 at x = 0.

    expm1 keeps the difference exact to roundoff when s log x is small;
    below |s log x| = 1e-8 the series -log x (1 - s log x / 2) takes over,
    which also covers s = 0 and subnormal s.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    log_x = np.log(x[pos])
    z = -s * log_x
    small = np.abs(z) < 1e-8
    q = np.empty_like(z)
    q[small] = -log_x[small] * (1.0 + 0.5 * z[small])
    q[~small] = np.expm1(z[~small]) / s
    out[pos] = q
    return out


def _circle_G(x, s: float):
    """Second antiderivative of the periodic kernel delta(x)^-(1+s) on [0, 2 pi].

    G''(x) = min(x, 2pi - x)^-(1+s), matched C^1 at pi.  Double integrals of
    the kernel over a rectangle [a,b] x [alpha,beta] reduce to
    G(beta-a) - G(beta-b) - G(alpha-a) + G(alpha-b), in which affine terms
    of G cancel.  G is therefore taken up to the affine term
    x / (s (1-s)), which leaves

        G(x) = -x q(x) / (1-s)                                  (x <= pi),
        G(x) = -y q(y) / (1-s) + 2 (x - pi) (1/(1-s) - q(pi))   (x > pi),

    with y = 2pi - x and q(x) = (x^-s - 1)/s (_power_quotient).  No term
    grows like 1/s, so s near 0 loses no digits to cancellation, and s = 0
    is the logarithmic limit x log x, continued above pi by
    y log y + 2 (1 + log pi)(x - pi).
    """
    x = np.asarray(x, dtype=float)
    y = TWO_PI - x
    inv = 1.0 / (1.0 - s)
    lower = -inv * x * _power_quotient(x, s)
    upper = -inv * y * _power_quotient(y, s) + 2.0 * (x - math.pi) * (inv - _power_quotient(math.pi, s))
    return np.where(x <= math.pi, lower, upper)


def perimeter_circle_exact(E: ArcUnion, s: float) -> float:
    """Exact s-perimeter of an arc union on S^1.

    Summed in closed form over (arc, complement-gap) pairs: with the gap
    shifted by whole turns to a representative [alpha, beta] ahead of the
    arc [a, b], the pair contributes
    G(beta-a) - G(beta-b) - G(alpha-a) + G(alpha-b) with G the matched
    second antiderivative of the intrinsic-distance kernel.
    Empty and full unions have zero perimeter.
    """
    s = validate_s(s)
    if not isinstance(E, ArcUnion):
        raise TypeError("perimeter_circle_exact expects an ArcUnion")
    if E.is_empty() or E.is_full():
        return 0.0
    starts = [a for a, _ in E.arcs]
    ends = [a + la for a, la in E.arcs]
    k = len(starts)
    total = 0.0
    for i in range(k):
        for j in range(k):
            # gap j runs from ends[j] to starts[nxt], a turn later for the
            # last gap, and is moved a turn ahead when it lies behind arc i.
            # Every offset is a difference of these shared endpoint values
            # plus whole turns, so it is exactly 0 or 2 pi where the gap
            # meets arc i: G is far from 0 at a roundoff-sized argument.
            nxt = (j + 1) % k
            wrap = TWO_PI if nxt == 0 else 0.0
            if starts[nxt] + wrap - ends[j] <= 1e-12:
                continue
            ahead = TWO_PI if j < i else 0.0
            args = np.array([
                (starts[nxt] - starts[i]) + (ahead + wrap),
                (starts[nxt] - ends[i]) + (ahead + wrap),
                (ends[j] - starts[i]) + ahead,
                (ends[j] - ends[i]) + ahead,
            ])
            ga, gb, gc, gd = _circle_G(np.clip(args, 0.0, TWO_PI), s)
            total += float(ga - gb - gc + gd)
    return total


def _finite_power_terms(s: float, *diffs) -> float:
    """Sum of signed |diff|^(1-s) terms, skipping infinite differences.

    Infinite endpoints always enter in cancelling pairs, so dropping them
    realizes the finite limit of the antiderivative formula.
    """
    out = 0.0
    for sign, d in diffs:
        if math.isinf(d):
            continue
        out += sign * abs(d) ** (1.0 - s)
    return out


def interval_perimeter_exact(intervals, window, s: float) -> float:
    """Exact line-case s-perimeter of disjoint intervals relative to a window.

    intervals is a list of (a, b) with a < b, pairwise disjoint and
    contained in window = (lo, hi); lo/hi may be -inf/+inf.  The value is
    the closed-form sum over (interval, gap) pairs of

        (1/(s(1-s))) [ (a-alpha)^(1-s) - (a-beta)^(1-s)
                       + (b-beta)^(1-s) - (b-alpha)^(1-s) ]

    with |.| powers; unbounded gaps drop their two cancelling terms.
    Requires 0 < s < 1.
    """
    s = validate_s(s)
    if not 0.0 < s < 1.0:
        raise ValueError("the interval formula is for s in (0, 1)")
    lo, hi = float(window[0]), float(window[1])
    ivs = sorted((float(a), float(b)) for a, b in intervals)
    for a, b in ivs:
        if not a < b:
            raise ValueError("intervals need a < b")
        if a < lo - 1e-12 or b > hi + 1e-12:
            raise ValueError("intervals must lie inside the window")
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        if a2 < b1:
            raise ValueError("intervals overlap")
    if not ivs:
        return 0.0
    gaps = []
    if lo < ivs[0][0]:
        gaps.append((lo, ivs[0][0]))
    for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
        if a2 > b1:
            gaps.append((b1, a2))
    if hi > ivs[-1][1]:
        gaps.append((ivs[-1][1], hi))
    c = 1.0 / (s * (1.0 - s))
    total = 0.0
    for a, b in ivs:
        for alpha, beta in gaps:
            total += c * _finite_power_terms(
                s, (1.0, a - alpha), (-1.0, a - beta), (1.0, b - beta), (-1.0, b - alpha)
            )
    return total


def interval_perimeter_localized(intervals, window, s: float, eps: float) -> float:
    """Epsilon-localized interval perimeter: only pairs with |x - y| < eps.

    Each relative boundary point (interval endpoint interior to the window)
    contributes eps^(1-s)/(1-s) exactly, provided eps is smaller than half
    the shortest interval or gap, so (1-s) times this tends to the boundary
    point count as s -> 1.
    """
    s = validate_s(s)
    if not 0.0 < s < 1.0:
        raise ValueError("the localized formula is for s in (0, 1)")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    lo, hi = float(window[0]), float(window[1])
    count = 0
    for a, b in intervals:
        if not a < b:
            raise ValueError("intervals need a < b")
        if 2.0 * eps > b - a:
            raise ValueError("eps must be below half the shortest interval")
        count += int(a > lo) + int(b < hi)
    return count * eps ** (1.0 - s) / (1.0 - s)


# ---------------------------------------------------------------------------
# antipodal concentration (deterministic)


def antipodal_concentration_quad(n: int, p: float, t: float, delta: float = math.pi, tol: float = 1e-10) -> float:
    """t^n times the normalized-kernel mass a distance-delta antipodal cap carries.

    Computes t^n * omega_n * int_(pi-delta)^pi sin^(n-1)(theta) (theta/pi)^(tp-n)
    d theta.  For large t the integrand concentrates in a layer of width
    ~pi/t at theta = pi, so the evaluation substitutes
    theta = pi exp(-x/(tp-n+1)), which flattens the power kernel into e^-x
    exactly; the remaining factor is smooth and adaptive quadrature is
    reliable for any t.

    As t grows this tends to omega_n pi^n (n-1)!/p^n independently of delta.
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    if t * p <= n:
        raise ValueError(f"need t > n/p for an integrable normalized kernel, got t={t}")
    if not 0.0 < delta <= math.pi:
        raise ValueError("delta must lie in (0, pi]")
    q = t * p - n + 1.0
    x_cut = 46.0 + 3.0 * n
    if delta < math.pi:
        x_cut = min(x_cut, -q * math.log1p(-delta / math.pi))

    def g(x):
        theta = math.pi * np.exp(-x / q)
        return np.exp(-x) * np.sin(theta) ** (n - 1)

    integral = (math.pi / q) * adaptive_quad(g, 0.0, x_cut, tol=tol)
    return t**n * sphere_surface(n - 1) * integral
