"""Fractional s-perimeters and seminorms on S^n.

The s-perimeter of E is the double integral of d(x,y)^-(n+s) over x in E,
y outside E, with geodesic distance d; s ranges over (-inf, 1).  The
normalized variant replaces d by d/pi.  Positive s concentrates the kernel
at the boundary (singular regime), s in [-n, 0] keeps it integrable (mild),
and s < -n flips the kernel into one that rewards antipodal separation
(smooth regime).

perimeter_mc is the sliced estimator for every s < 1: by the two-point
great-circle identity of integral_geometry.bp_check, P_s(E) is c_n times
the Haar mean of a circle double integral over the set's trace, which
_GreatCircleKernel evaluates exactly from one matched antiderivative of
the kernel, so its variance is finite for every s < 1.

seminorm_mc is the one point-pair estimator: x uniform, y at a distance
drawn from RadialProposal.  Since |1_E(x) - 1_E(y)| counts each pair of E
x E^c once in each order, P_s(E) is half the p = 1 seminorm of E's
indicator, and _perimeter_point_pairs takes it so.  It rests on no
great-circle identity and serves the s < 0 where the kernel's series would
cancel too many digits (_sliced_supports: n > 12, and smaller n far below
0), and limits.sweep_s_to_minus_inf.
"""

from __future__ import annotations

import math

import numpy as np

from .estimation import Estimate, RadialProposal, adaptive_quad, mc_estimate
from .geometry import _beta_half, cap_area, sample_at_distance, sample_uniform, sphere_surface
from .integral_geometry import _circle_mean, bp_constant
from .sets import ENDPOINT_MARGIN, TWO_PI, ArcUnion, trace


def validate_s(s: float) -> float:
    s = float(s)
    if not math.isfinite(s) or s >= 1.0:
        raise ValueError(f"s must be a finite number < 1, got {s}")
    return s


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


def perimeter_mc(
    E,
    s: float,
    samples: int = 1_000_000,
    rng=None,
    normalized: bool = False,
) -> Estimate:
    """Monte Carlo s-perimeter of E by the sliced estimator of _perimeter_sliced.

    samples great circles each contribute c_n times the exact circle double
    integral of their trace; the variance is finite for every s < 1.  On
    S^2 the circles are 32 rotations of a Fibonacci lattice and the
    Estimate's samples is 32, the rotation count; elsewhere it is samples.
    The set needs a great-circle trace (sets.trace); one without is a
    ValueError.

    Where _GreatCircleKernel refuses (n, s) (_sliced_supports: n > 12, and
    smaller n far below s = 0), s >= 0 is a ValueError, and s < 0 takes the
    point-pair estimator _perimeter_point_pairs, whose Estimate's samples is
    samples.

    Returns an Estimate of the perimeter (kernel (d/pi)^-(n+s) when
    normalized=True).
    """
    s = validate_s(s)
    if s < 0.0 and not _sliced_supports(E.dimension, s):
        # the kernel's series would cancel too many digits, while point
        # pairs keep a finite variance for s < 0
        return _perimeter_point_pairs(E, s, samples, rng, normalized)
    return _perimeter_sliced(E, s, samples, rng, normalized)


def _scale_overflow(n: int, s: float) -> ValueError:
    return ValueError(f"the kernel's scale pi^(1-n-s) overflows a float at s = {s:g}, n = {n}")


def _finite(value: float, n: int, s: float) -> float:
    """value, or _scale_overflow's ValueError where it is not finite."""
    if not math.isfinite(value):
        raise _scale_overflow(n, s)
    return value


def _perimeter_point_pairs(E, s: float, samples: int, rng, normalized: bool = False) -> Estimate:
    """Point-pair s-perimeter of E for s < 0, on any set with contains.

    |1_E(x) - 1_E(y)| = 1_E(x) 1_(E^c)(y) + 1_(E^c)(x) 1_E(y), so P_s(E)
    is half the p = 1 seminorm of E's indicator, which seminorm_mc
    estimates in the normalized kernel; the plain kernel multiplies it by
    pi^-(n+s).  It rests on no great-circle identity, so it checks the
    sliced estimator independently.  A plain kernel whose factor or value
    overflows a float is a ValueError.  So is an estimate of 0 on a set
    whose boundary_measure() is not 0: every sampled pair gave 0, because
    none straddled the boundary or its weight underflowed, or the mean
    underflowed, and the error bar 0 would claim an exact value.
    """
    n = E.dimension
    factor = 0.5
    if not normalized:
        try:
            factor *= math.pi ** -(n + s)
        except OverflowError:
            raise _scale_overflow(n, s) from None
    semi = seminorm_mc(E.contains, n, 1.0, s, samples, rng)
    est = Estimate(factor * semi.value, factor * semi.std_error, semi.samples)
    if est.value == 0.0 and E.boundary_measure() != 0.0:
        raise ValueError(
            f"every sampled point pair gave 0 at n = {n}, samples = {samples}, or their mean "
            "underflowed: the estimate would read 0 with error 0, which is not exact for a "
            "set with a boundary"
        )
    if not (math.isfinite(est.value) and math.isfinite(est.std_error)):
        raise _scale_overflow(n, s)
    return est


def seminorm_mc(
    f,
    n: int,
    p: float,
    s: float,
    samples: int = 1_000_000,
    rng=None,
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
    omega_n1, omega_n = sphere_surface(n), sphere_surface(n - 1)
    omega = omega_n1 * omega_n
    proposal = RadialProposal(n, -(n + s * p))

    def sampler(count, gen):
        x = sample_uniform(n, count, gen)
        theta, wk = proposal.sample_weighted(count, gen)
        y = sample_at_distance(x, theta, gen)
        return x, wk, y

    def integrand(batch):
        x, wk, y = batch
        fx = np.asarray(f(x), dtype=float)
        fy = np.asarray(f(y), dtype=float)
        # the measures' product underflows from n = 261: apply them one at a time
        weight = omega * wk if omega >= np.finfo(float).tiny else omega_n1 * (omega_n * wk)
        return weight * np.abs(fx - fy) ** p

    return mc_estimate(sampler, integrand, samples, rng)


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
    I_(tau^2)(1/2, (n-1)/2), the regularized incomplete beta, which
    geometry._beta_half sums in closed form (the Student-t finite sums):

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
    share = np.sin(rho) ** (n - 1) * _beta_half(n - 1, tau2)
    lateral = (share * 6.0 * span * _CRESCENT_V**5) @ _CRESCENT_W
    return cap_area(n, h[..., 0]) + sphere_surface(n - 1) * lateral


def perimeter_cap(n: int, s: float, r: float, tol: float = CAP_TOL) -> float:
    """Deterministic s-perimeter of a radius-r cap on S^n from its covariogram.

    Grouping the pairs of points by their distance theta gives

        P_s(C_r) = omega_n int_0^pi theta^-(n+s) sin^(n-1)(theta) K(theta) d theta,

    with K the crescent measure of _cap_crescent, built from finite sums
    only: the Student-t sums for I_x(1/2, (n-1)/2) and cap_area's closed
    forms (a continued fraction from n = 4 on).  P_s(E) = P_s(E^c) reduces
    r to at most pi/2; K is then the constant cap_area(n, r) on [2r, pi].
    On [0, 2r] the integrand is theta^-s R(theta) with
    R = sinc^(n-1)(theta/pi) K(theta)/theta, which is finite at 0:

        R(0) = H^(n-1)(boundary) Gamma(n/2) / (2 sqrt(pi) Gamma((n+1)/2)),

    so (1-s) P_s tends to omega_n R(0) as s -> 1.  For s > 0 the head
    R(0) (2r)^(1-s)/(1-s) is taken in closed form and the rest, whose
    integrand vanishes like theta^(1-s) at 0, by adaptive quadrature.

    tol is the relative accuracy; against 40-digit values for n in {2, 3}
    the error stays below tol/5 for every tol from 1e-3 to 1e-12.  n = 1
    delegates to the exact circle formula.  A value that overflows a float
    (s far below -n) is a ValueError.
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
    return _finite(omega_n * (near + far), n, s)


# ---------------------------------------------------------------------------
# exact one-dimensional formulas


def _power_quotient(x, s: float):
    """(x^-s - 1) / s for x > 0, with its limit -log x at s = 0; 0 at x = 0.

    Taken as expm1(-s log x) / s, which keeps its digits wherever s log x
    is a normal number, that is for |s| >= 1e-200 (|log x| is at least
    1.1e-16 unless x is 1, where q is 0).  Below that the limit -log x is
    exact to |s log x| / 2 relative, which also covers s = 0 and subnormal
    s.
    """
    x = np.asarray(x, dtype=float)
    log_x = np.log(np.where(x > 0.0, x, 1.0))
    if abs(s) < 1e-200:
        return -log_x
    return np.expm1(-s * log_x) / s


# Largest condition number of the hemisphere's circle value that
# _GreatCircleKernel accepts (_sliced_supports): its relative rounding error
# is then about 1e6 eps, 1e-10.  For s >= 0 this admits n <= 12 (3.5e5 at
# n = 12; n = 13 gives 1.2e6); below 0 the number grows like |s|^(n-1).
_MAX_CONDITION = 1e6


def _remainder_coefficients(n: int, s: float):
    """The coefficients c_j = a_j / ((2j-s)(2j+1-s)) of _GreatCircleKernel's
    remainder, j = 1, 2, ... until c_j pi^(2j) drops below roundoff of the
    running sum of |c_j| pi^(2j); None when 199 terms do not get there
    (n >= 108 at s = 0).

    a_j are the Taylor coefficients of (sin x / x)^(n-1) in x^2, from the
    powers of sin(x)/x = sum_i f_i x^(2i) by Miller's recurrence
    b_k = (1/k) sum_(i=1..k) (n i - k) f_i b_(k-i).  n = 1 has none.
    """
    if n == 1:
        return []
    p2 = math.pi * math.pi
    f = [1.0]
    b = [1.0]
    coef = []
    growth = 0.0
    for k in range(1, 200):
        f.append(-f[-1] / ((2 * k) * (2 * k + 1)))
        b.append(sum((n * i - k) * f[i] * b[k - i] for i in range(1, k + 1)) / k)
        coef.append(b[k] / ((2 * k - s) * (2 * k + 1 - s)))
        size = abs(coef[-1]) * p2**k
        growth += size
        if size < 1e-18 * max(growth, 1.0) and k > 2:
            return coef
    return None


def _sliced_supports(n: int, s: float) -> bool:
    """Whether _GreatCircleKernel takes (n, s): the hemisphere's value in
    the unit pi, 2 sum_(j>=0) a_j pi^(2j) / (2j+1-s) (a_0 = 1), has a
    condition number sum |terms| / |sum| of at most _MAX_CONDITION.

    It is taken at min(s, 0): the number falls as s rises, so every s >= 0
    gets the dimensions of s = 0, n <= 12.  Below 0 the kernel
    (sin x / x)^(n-1) x^-(1+s) of the remainder moves toward pi, where the
    terms of the series cancel, and the number grows like |s|^(n-1): it
    passes n = 2 down to s = -2.7e5, n = 3 to -387, n = 4 to -52, n = 8 to
    -5.0 and n = 12 to -0.49.  A series that does not reach roundoff
    (_remainder_coefficients is None) is refused too.
    """
    s = min(s, 0.0)
    coef = _remainder_coefficients(n, s)
    if coef is None:
        return False
    j = np.arange(1, len(coef) + 1)
    # c_j (2j - s) = a_j / (2j+1-s)
    terms = np.concatenate([[1.0 / (1.0 - s)], np.array(coef) * (2 * j - s) * math.pi ** (2.0 * j)])
    return bool(np.sum(np.abs(terms)) <= _MAX_CONDITION * abs(np.sum(terms)))


class _GreatCircleKernel:
    """Matched second antiderivative G of the great-circle kernel
    k(delta) = delta^-(n+s) |sin delta|^(n-1), delta = min(x, 2 pi - x),
    and the circle double integrals built from it; with normalized=True the
    kernel is pi^(n+s) k, that of (d/pi)^-(n+s).

    Double integrals of k over a rectangle [a,b] x [alpha,beta] reduce to
    G(beta-a) - G(beta-b) - G(alpha-a) + G(alpha-b), in which affine terms
    of G cancel.  G is therefore taken up to the affine term x / (s (1-s))
    of the circle's own kernel delta^-(1+s), which leaves its singular part
    -x q(x) / (1-s), q(x) = (x^-s - 1)/s (_power_quotient): no term grows
    like 1/s, so s near 0 loses no digits to cancellation, and s = 0 is the
    logarithmic limit x log x.  The rest is the remainder R, whose second
    derivative is delta^-(1+s) ((sin delta / delta)^(n-1) - 1):

        G(x) = -x q(x) / (1-s) + R(x),
        R(x) = x^(1-s) sum_(j>=1) c_j x^(2j),   c_j = a_j / ((2j-s)(2j+1-s)),

    on [0, pi], with a_j the Taylor coefficients of (sin delta / delta)^(n-1)
    in delta^2 (_remainder_coefficients), and G(x) = G(2 pi - x) +
    2 (x - pi) G'(pi) above pi, so that G is C^1 at pi and G(0) = 0.  The
    series is summed until its terms at pi drop below roundoff (14 terms
    for n = 2, 18 for n = 3); n = 1, the circle itself, has no remainder.
    An (n, s) that _sliced_supports refuses is a ValueError.

    For s < 0, x^(1-s) reaches pi^(1-s), which overflows a float from
    s = -619 on, so lengths are then measured in the unit L = pi: with
    x = L u the double integrals are L^(1-s) times those of the same form
    in u, with c_j L^(2j) for c_j and 1 for pi, and every power of u stays
    at most 1.  For s >= 0, where x^(1-s) stays below pi, the unit is
    L = 1.  G, W and circle_values take radians and return scale times the
    values in the unit, scale being L^(1-s), times pi^(n+s) when
    normalized; a plain kernel whose scale overflows a float is a
    ValueError.
    """

    def __init__(self, n: int, s: float, normalized: bool = False):
        if not _sliced_supports(n, s):
            raise ValueError(
                f"the sliced perimeter supports n <= 12 for s >= 0 and fewer below, got "
                f"n = {n}, s = {s:g}: its kernel series would cancel too many digits"
            )
        self.s = s
        if s >= 0.0:
            self.unit = 1.0
            self.scale = math.pi ** (n + s) if normalized else 1.0
        else:
            self.unit = math.pi
            # pi^(1-s) pi^(n+s) = pi^(n+1); pi^(1-s) is formed as pi^n pi^(1-n-s),
            # the factor whose overflow the error names
            try:
                self.scale = math.pi ** (n + 1) if normalized else math.pi**n * math.pi ** (1 - n - s)
            except OverflowError:
                raise _scale_overflow(n, s) from None
            if not math.isfinite(self.scale):
                raise _scale_overflow(n, s)
        coef = _remainder_coefficients(n, s)
        j = np.arange(1, len(coef) + 1)
        self.coef = np.array(coef) * self.unit ** (2 * j)
        # pi and 2 pi in the unit; G'(h) = 1/(1-s) - q(h) + R'(h) with
        # R'(u) = sum_j c_j (2j+1-s) u^(2j-s)
        self.half = math.pi / self.unit
        self.turn = TWO_PI / self.unit
        h2 = self.half * self.half
        self.slope_in_unit = (
            1.0 / (1.0 - s)
            - float(_power_quotient(self.half, s))
            + self.half**-s * float(np.sum(self.coef * (2 * j + 1 - s) * h2**j))
        )
        self.slope = self.scale / self.unit * self.slope_in_unit  # G'(pi) in radians

    def lower(self, u):
        """G on [0, pi], in the unit."""
        u = np.asarray(u, dtype=float)
        q = _power_quotient(u, self.s)
        out = u * q
        out *= -1.0 / (1.0 - self.s)
        if self.coef.size:
            t = u * u
            acc = t * self.coef[-1]
            acc += self.coef[-2]
            for c in self.coef[-3::-1]:
                acc *= t
                acc += c
            # u^(1-s) = u (1 + s q)
            q *= self.s
            q += 1.0
            q *= u
            acc *= t
            acc *= q
            out += acc
        return out

    def G(self, x):
        """G on [0, 2 pi], of x in radians."""
        u = np.asarray(x, dtype=float) / self.unit
        g = self.lower(np.minimum(u, self.turn - u))
        return self.scale * np.where(u > self.half, g + 2.0 * (u - self.half) * self.slope_in_unit, g)

    def W(self, length):
        """Double integral of k over an arc of the given length and its gap:
        2 (m G'(pi) - G(m)) with m = min(length, 2 pi - length), which is 0
        for an arc within ENDPOINT_MARGIN of empty or full."""
        m = np.minimum(length, TWO_PI - length)
        m = np.where(m < ENDPOINT_MARGIN, 0.0, m) / self.unit
        out = m * self.slope_in_unit
        out -= self.lower(m)
        out *= 2.0 * self.scale
        return out

    def circle_values(self, start, length):
        """V = int_A int_(A^c) k over each row's trace A, from sets.trace
        arcs (start, length) of shape (m, K) with disjoint slots:

            V = sum_i W(l_i) - 2 sum_(i<j) X(I_i, I_j),

        X the double integral of k over two arcs.  With I_i = [0, l_i] and
        I_j = [d, d + l_j], d the start of j a turn ahead of the start of i,
        X = G(d + l_j) - G(d + l_j - l_i) - G(d) + G(d - l_i).  W is 0 on
        empty and full slots (a full slot is alone on its row), and X is
        only evaluated on rows where both slots hold an arc.  An argument of
        G within ENDPOINT_MARGIN of 0 or 2 pi is exactly that, so arcs that
        touch up to roundoff add up to the arc they form."""
        V = self.W(length).sum(axis=1)
        start, length = start.T, length.T  # slot-major: contiguous rows
        k = length.shape[0]
        proper = (length > ENDPOINT_MARGIN) & (length < TWO_PI - ENDPOINT_MARGIN)
        for i in range(k):
            for j in range(i + 1, k):
                both = np.flatnonzero(proper[i] & proper[j])
                if both.size == 0:
                    continue
                li, lj = length[i, both], length[j, both]
                d = start[j, both] - start[i, both]
                d += np.where(d < 0.0, TWO_PI, 0.0)
                far = d + lj
                args = np.clip(np.stack([far, far - li, d, d - li]), 0.0, TWO_PI)
                args[args < ENDPOINT_MARGIN] = 0.0
                args[args > TWO_PI - ENDPOINT_MARGIN] = TWO_PI
                ga, gb, gc, gd = self.G(args)
                V[both] -= 2.0 * (ga - gb - gc + gd)
        return V


def _perimeter_sliced(E, s: float, circles: int, rng, normalized: bool = False) -> Estimate:
    """Sliced s-perimeter of E from the two-point great-circle identity.

    With f(x, y) = 1_E(x) 1_(E^c)(y) d(x, y)^-(n+s) the identity checked
    by integral_geometry.bp_check gives P_s(E) = c_n E_L[V(trace_L E)] for
    a Haar great circle L, where V is the circle double integral of
    _GreatCircleKernel over the trace's arcs and their gaps.  sets.trace gives
    the arcs exactly, so each circle's value is exact, and bounded for
    every s < 1: the estimate's variance is finite where the point-pair
    estimator's is not (s >= 1/2).  A hemisphere meets every circle in a
    semicircle, so its estimate is exact and its std_error 0 up to roundoff.

    The mean over circles is integral_geometry._circle_mean: on S^2, 32
    Haar rotations of a Fibonacci lattice of circles // 32 poles, one
    sample each (randomized quasi-Monte Carlo; the error bar has 31 degrees
    of freedom); elsewhere iid circles in chunks.  Degenerate circles are
    redrawn as in crofton_estimate.  Valid for every s < 1.
    """
    n = E.dimension
    axes = np.eye(n + 1)
    try:
        trace(E, axes[:1], axes[1:2])
    except TypeError:
        raise ValueError(f"no great-circle trace for {type(E).__name__}: "
                         "the sliced perimeter needs sets.trace") from None
    kernel = _GreatCircleKernel(n, s, normalized)
    scale = bp_constant(n)
    values = lambda start, length: scale * kernel.circle_values(start, length)
    est, _ = _circle_mean(E, values, circles, rng)
    return est


def perimeter_circle_exact(E, s: float) -> float:
    """Exact s-perimeter of a set on S^1.

    On S^1 the one great circle is the sphere, and c_1 = 1, so the
    perimeter is the circle value of _GreatCircleKernel(1, s) on the set's
    own trace: sets.trace on the frame e = (1, 0), f = (0, 1).  Any set
    with a trace on S^1 works, arc unions and their complements and
    reflections among them.  Empty and full sets have zero perimeter; a set
    on another sphere is a TypeError, and a value that overflows a float a
    ValueError.
    """
    s = validate_s(s)
    if E.dimension != 1:
        raise TypeError(f"perimeter_circle_exact expects a set on S^1, got one on S^{E.dimension}")
    axes = np.eye(2)
    start, length, _ = trace(E, axes[:1], axes[1:])
    return _finite(float(_GreatCircleKernel(1, s).circle_values(start, length)[0]), 1, s)


def _interval_gap_pair(a: float, b: float, alpha: float, beta: float, s: float) -> float:
    """Double integral of |x - y|^-(1+s) over an interval (a, b) and a
    disjoint gap (alpha, beta), either of whose ends may be infinite.

    In closed form it is (1/(s(1-s))) sum sign |d|^(1-s) over
    d = a - alpha (+), a - beta (-), b - beta (+), b - alpha (-).  With
    |d|^(1-s) = |d| + s |d| q(|d|), q = _power_quotient, the |d| parts sum
    to 0, which leaves sum sign |d| q(|d|) / (1-s): no term grows like
    1/s, so small s loses no digits to cancellation.  An infinite gap end
    drops its two terms, whose |d|^(1-s) parts cancel in the limit, but
    whose |d| q(|d|) parts tend to (b - a)/s; that term is added back.
    """
    diffs = np.array([a - alpha, a - beta, b - beta, b - alpha])
    finite = np.isfinite(diffs)
    d = np.abs(diffs[finite])
    total = float(np.array([1.0, -1.0, 1.0, -1.0])[finite] @ (d * _power_quotient(d, s)))
    if not finite.all():
        total += (b - a) / s
    return total / (1.0 - s)


def interval_perimeter_exact(intervals, window, s: float) -> float:
    """Exact line-case s-perimeter of disjoint intervals relative to a window.

    intervals is a list of (a, b) with a < b, pairwise disjoint and
    contained in window = (lo, hi); lo/hi may be -inf/+inf.  The value is
    the closed-form sum over (interval, gap) pairs of

        (1/(s(1-s))) [ (a-alpha)^(1-s) - (a-beta)^(1-s)
                       + (b-beta)^(1-s) - (b-alpha)^(1-s) ]

    with |.| powers; unbounded gaps drop their two cancelling terms.  Each
    pair is summed without the 1/s prefactor (_interval_gap_pair), so the
    value keeps full relative precision as s -> 0.  Requires 0 < s < 1.
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
    return sum(_interval_gap_pair(a, b, alpha, beta, s) for a, b in ivs for alpha, beta in gaps)


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
