"""Fractional s-perimeters and seminorms on S^n.

The s-perimeter of E is the double integral of d(x,y)^-(n+s) over x in E,
y outside E, with geodesic distance d; s ranges over (-inf, 1).  The
normalized variant replaces d by d/pi.  Positive s concentrates the kernel
at the boundary (singular regime), s in [-n, 0] keeps it integrable (mild),
and s < -n flips the kernel into one that rewards antipodal separation
(smooth regime).

perimeter_mc is the sliced estimator for every n and s < 1: by the
two-point great-circle identity of integral_geometry.bp_check, P_s(E) is
c_n times the Haar mean of a circle double integral over the set's trace,
which _GreatCircleKernel evaluates exactly from one matched antiderivative
of the kernel, so its variance is finite for every s < 1.

perimeter_cap, the cap oracle, is the same identity on a cap: a circle
meets a cap in one arc, whose length depends only on the squared length
u ~ Beta(1, (n-1)/2) of the cap center's projection onto the circle's
plane, so the Haar mean is one integral in u, taken on a fixed tanh-sinh
rule at two nested levels over the same kernel.

The functions of the CLI's grammar (Coordinate, Constant) carry their
pair law, as sets carry boundary_measure(): the mean of |f(x) - f(y)|^p
over pairs at distance theta, as a ratio to (2 sin(theta/2))^p.  A
seminorm is then one integral over theta, which limits takes on
_jacobi_gap_rule; no estimator here draws point pairs.

perimeter_by_method is the one place that picks among the cap oracle, the
circle formula and perimeter_mc for a set, plain or normalized, and the
error each reports.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .estimation import Estimate
from .geometry import _x_minus_sin, sphere_surface
from .integral_geometry import _circle_mean
from .sets import ENDPOINT_MARGIN, TWO_PI, ArcUnion, Cap, trace


def validate_s(s: float) -> float:
    s = float(s)
    if not math.isfinite(s) or s >= 1.0:
        raise ValueError(f"s must be a finite number < 1, got {s}")
    return s


def validate_p(p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise ValueError(f"p must be a finite number >= 1, got {p}")
    return p


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
    """Monte Carlo s-perimeter of E (kernel (d/pi)^-(n+s) when
    normalized=True) from the two-point great-circle identity.

    With f(x, y) = 1_E(x) 1_(E^c)(y) d(x, y)^-(n+s) the identity checked
    by integral_geometry.bp_check gives P_s(E) = c_n E_L[V(trace_L E)] for
    a Haar great circle L, where V is the circle double integral of
    _GreatCircleKernel over the trace's arcs and their gaps.  sets.trace
    gives the arcs exactly, so each circle's value is exact and bounded
    for every s < 1, and the variance finite (a point pair's is not for
    s >= 1/2).  A hemisphere meets every circle in a semicircle, so its
    estimate is exact.  A set without a great-circle trace is a ValueError.

    The mean over samples circles, and its error bar, are those of
    integral_geometry._circle_mean: on S^2 the Estimate's samples is its
    32 lattice rotations, the error bar's degrees of freedom 31.

    c_n is subnormal from n = 261, so its product with the kernel's scale
    is formed in logs; a product that is still subnormal is a ValueError,
    and so is an estimate of 0 on a set with a boundary.
    """
    s = validate_s(s)
    n = E.dimension
    axes = np.eye(n + 1)
    try:
        trace(E, axes[:1], axes[1:2])
    except TypeError:
        raise ValueError(f"no great-circle trace for {type(E).__name__}: "
                         "the sliced perimeter needs sets.trace") from None
    kernel = _sliced_kernel(n, s, normalized)
    if kernel.scale < np.finfo(float).tiny:
        raise ValueError(f"c_n times the kernel's scale underflows a float at n = {n}, s = {s:g}")
    est, _ = _circle_mean(E, kernel.circle_values, samples, rng)
    # error 0 would claim a 0 exact; a covering union's None boundary keeps it
    if est.value == 0.0 and E.boundary_measure():
        raise ValueError(f"every sampled circle gave 0 at n = {n}, samples = {samples}: the "
                         "estimate would read 0 with error 0, which is not exact for a set "
                         "with a boundary")
    return est


def _sliced_kernel(n: int, s: float, normalized: bool = False) -> _GreatCircleKernel:
    """_GreatCircleKernel(n, s, normalized) whose scale carries c_n =
    omega_(n+1) omega_n / (4 pi) too.  c_n is subnormal from n = 261, so the
    product is formed in logs; one that overflows is _scale_overflow's
    ValueError, and one that is subnormal is the caller's to refuse."""
    kernel = _GreatCircleKernel(n, s, normalized)
    # each factor of c_n is a normal float for n <= 342
    log_scale = math.log(sphere_surface(n)) + math.log(sphere_surface(n - 1) / (4.0 * math.pi))
    try:
        kernel.scale = math.exp(log_scale + math.log(kernel.scale))
    except OverflowError:
        raise _scale_overflow(n, s) from None
    return kernel


def _scale_overflow(n: int, s: float) -> ValueError:
    return ValueError(f"the kernel's scale pi^(1-n-s) overflows a float at s = {s:g}, n = {n}")


def _finite(value: float, n: int, s: float) -> float:
    """value, or _scale_overflow's ValueError where it is not finite."""
    if not math.isfinite(value):
        raise _scale_overflow(n, s)
    return value


class Coordinate:
    """f(x) = x_i, or |x_i| with absolute=True, on point arrays (..., n+1).

    A pair at distance theta spans a Haar great circle, on which
    x_i = a cos(phi - phi_0) with a^2 ~ Beta(1, (n-1)/2) (a = 1 on S^1),
    and the pair's midpoint angle psi on it is uniform.  With h = theta/2,
    x_i at the pair is a cos(psi -+ h), so

        E[|f(x) - f(y)|^p | d(x, y) = theta] = E[a^p] m(theta),

    E[a^p] = Gamma(1 + p/2) Gamma((n+1)/2) / Gamma((n+1+p)/2), and m the
    mean over psi of the difference's p-th power.  For x_i the difference
    is 2 sin h sin psi, so m = (2 sin h)^p E|sin U|^p, and the law's ratio
    to (2 sin h)^p is the constant E|x_0|^p = Gamma((n+1)/2)
    Gamma((p+1)/2) / (sqrt(pi) Gamma((n+1+p)/2)).  For |x_i| it is
    2 sin h sin psi where cos(psi -+ h) have one sign (|cos psi| > sin h)
    and 2 cos h cos psi where they have two; folding the pieces between
    those breakpoints onto [0, pi/2] leaves

        m = (2/pi) [(2 sin h)^p S(pi/2 - h) + (2 cos h)^p S(h)],  S(l) = int_0^l sin^p,

    and with S(l) = l sin^p(l) J(l), J(l) = int_0^1 (sin(l y) / sin l)^p dy
    in (0, 1], the ratio is (2/pi) E[a^p] cos^p(h) (l J(l) + h J(h)),
    l = pi/2 - h, with no factor that over- or underflows.  J is taken on
    _tanh_sinh_rule, which its y^p at 0 does not slow.  At theta = pi
    the ratio is 0: |x_i| is even.
    """

    def __init__(self, index: int, absolute: bool = False):
        self.index, self.absolute = index, absolute

    def __call__(self, x):
        values = np.asarray(x, dtype=float)[..., self.index]
        return np.abs(values) if self.absolute else values

    def log_pair_law(self, n: int, p: float, gap):
        """log of E[|f(x) - f(y)|^p | d(x, y) = theta] / (2 sin(theta/2))^p at
        theta = pi (1 - gap), for an array of gaps in [0, 1]; -inf where the
        law is 0."""
        gap = np.asarray(gap, dtype=float)
        if not self.absolute:
            return np.full(gap.shape, math.lgamma(0.5 * (n + 1)) + math.lgamma(0.5 * (p + 1))
                           - 0.5 * math.log(math.pi) - math.lgamma(0.5 * (n + 1 + p)))
        y, _, w = _tanh_sinh_rule()
        # the pieces' lengths l = pi gap / 2 and h = pi/2 - l, as rows
        lengths = 0.5 * math.pi * np.stack([gap, 1.0 - gap])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.sin(lengths[..., None] * y) / np.sin(lengths)[..., None]
            pieces = np.where(lengths > 0.0, lengths * (ratio**p @ w), 0.0)
            log_amplitude = (math.lgamma(1.0 + 0.5 * p) + math.lgamma(0.5 * (n + 1))
                             - math.lgamma(0.5 * (n + 1 + p)))
            return (log_amplitude + math.log(2.0 / math.pi) + p * np.log(np.sin(lengths[0]))
                    + np.log(pieces.sum(axis=0)))


class Constant:
    """f(x) = c, finite: every pair's difference is 0, and so is its law."""

    def __init__(self, value: float):
        if not math.isfinite(value):
            raise ValueError(f"a constant function must be finite, got {value}")
        self.value = value

    def __call__(self, x):
        return np.full(np.asarray(x).shape[:-1], self.value)

    def log_pair_law(self, n: int, p: float, gap):
        return np.full(np.shape(gap), -math.inf)


# ---------------------------------------------------------------------------
# cap oracle


# The cap oracle's relative error bar, by measurement: against the 40-digit
# pins of tests/oracles.CAP_PERIMETERS (n in {2, 3}, s from -4 to 0.999) it
# is within 8.2e-15, against 40-digit hemispheres up to n = 230 within
# 2.1e-12 (worst near s = -1, where the kernel's W keeps 6e-12), and its
# two rule levels agree to 6e-15.
CAP_TOL = 1e-11

# Far below 0 the kernel resolves a layer of width (n+1)/|s| at the
# antipode from lengths that carry roundoff of 1e-16, so the oracle's
# relative error grows like |s|: against 40-digit normalized hemispheres
# (n in {2, 3}, |s| up to 1.4e5, beyond which the kernel's series no
# longer converges) it is within 8e-17 |s|, which _FAR_TOL |s| bounds.
_FAR_TOL = 4e-16

# The tanh-sinh rule's nodes on t in [-_TANH_SINH_SPAN, _TANH_SINH_SPAN]:
# at t = 4 a node is 6e-38 from its end, and its weight below 1e-36.
_TANH_SINH_NODES, _TANH_SINH_SPAN = 513, 4.0


@functools.cache
def _tanh_sinh_rule():
    """Tanh-sinh rule (v, 1 - v, w) for int_0^1 f(v) dv (Takahasi and Mori,
    Publ. RIMS 9, 1974): v = (1 + tanh(pi/2 sinh t)) / 2 at _TANH_SINH_NODES
    equally spaced t, with both distances to the ends formed without
    cancellation, and w = h pi cosh(t) v (1 - v).  Every other node, at
    twice its weight, is the coarse level."""
    t = np.linspace(-_TANH_SINH_SPAN, _TANH_SINH_SPAN, _TANH_SINH_NODES)
    q = math.pi * np.sinh(t)
    v, rest = 1.0 / (1.0 + np.exp(-q)), 1.0 / (1.0 + np.exp(q))
    return v, rest, (t[1] - t[0]) * math.pi * np.cosh(t) * v * rest


def _cap_oracle(n: int, s: float, r: float, normalized: bool = False):
    """(value, error) of perimeter_cap(n, s, r), or with normalized=True of
    the same rule on the kernel (d/pi)^-(n+s): the error is the larger of
    the difference of the rule's two levels and max(CAP_TOL, _FAR_TOL |s|)
    |value|."""
    s = validate_s(s)
    if not (0.0 <= r <= math.pi):
        raise ValueError(f"cap radius must lie in [0, pi], got {r}")
    if r <= 0.0 or r >= math.pi:
        return 0.0, 0.0
    if n == 1:
        return _circle_exact(ArcUnion([(-r, 2.0 * r)]), s, normalized)
    r = min(r, math.pi - r)
    kernel = _sliced_kernel(n, s, normalized)
    v, rest, w = _tanh_sinh_rule()
    a = math.sin(r) ** 2
    # u = cos^2 r + a v and 1 - u = a (1 - v); the arc's half length is
    # atan2(sqrt(u - cos^2 r), cos r)
    length = 2.0 * np.arctan2(math.sin(r) * np.sqrt(v), math.cos(r))
    terms = w * kernel.W(length) * (a * rest) ** (0.5 * (n - 3))
    factor = 0.5 * (n - 1) * a
    value = _finite(factor * float(terms.sum()), n, s)
    if kernel.scale < np.finfo(float).tiny or value < np.finfo(float).tiny:
        raise ValueError(f"the cap oracle's value underflows a float at n = {n}, s = {s:g}, r = {r:g}")
    coarse = 2.0 * factor * float(terms[::2].sum())
    return value, max(abs(value - coarse), _relative_floor(s) * value)


def _relative_floor(s: float) -> float:
    """max(CAP_TOL, _FAR_TOL |s|), the least relative error the cap oracle
    and the circle formula report."""
    return max(CAP_TOL, _FAR_TOL * abs(s))


def perimeter_cap(n: int, s: float, r: float) -> float:
    """Deterministic s-perimeter of a radius-r cap on S^n, from the sliced
    identity of perimeter_mc on one _GreatCircleKernel(n, s).

    P_s(E) = P_s(E^c) reduces r to at most pi/2.  A Haar great circle meets
    the cap where its center's projection onto the circle's plane, of
    length rho, exceeds cos r: in one arc of length 2 arccos(cos r / rho).
    With u = rho^2 ~ Beta(1, (n-1)/2),

        P_s(C_r) = c_n int_(cos^2 r)^1 W(2 arccos(cos r / sqrt u)) ((n-1)/2) (1-u)^((n-3)/2) du,

    W the kernel's value of one arc and c_n = omega_(n+1) omega_n / (4 pi).
    The integrand has power-type singularities at both ends: W of a short
    arc in powers of its length, which grows like sqrt(u - cos^2 r), and
    (1-u)^((n-3)/2).  A fixed tanh-sinh rule in u (_tanh_sinh_rule) takes
    both at its double-exponential rate; its 513 nodes and the 257 of its
    coarse level agree to 6e-15.  The reported error (perimeter_by_method)
    is the larger of that difference and CAP_TOL |value|; CAP_TOL gives
    the measured error bar.

    n = 1 delegates to the exact circle formula.  A value that overflows a
    float (s far below -n), or underflows it for 0 < r < pi, is a
    ValueError.
    """
    return _cap_oracle(n, s, r)[0]


# ---------------------------------------------------------------------------
# the great-circle kernel


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


# At and below s = _POSITIVE_FORM_BELOW, _GreatCircleKernel takes the
# positive form of G.  Measured against 40-digit values and each other: H0
# grows like 1/|s| near 0, where W loses digits to it (2e-10 at n = 50,
# s = -0.001), while the split form's parts grow like x^(1-s) / (s (1-s))
# and cancel as s falls (5e-10 at n = 50, s = -5; none left at n = 200,
# s = -20).  At s = -1 both keep W within 6e-12 for every n <= 342.
# Far below 0, log H0 falls by about (n-1) log|s| over a layer of width
# delta = (n+1)/|s| at y = 1, which takes O(|s|^(1/2)) terms in y (850 at
# n = 2, s = -2e4, each a pass over every circle), and O(log|s|) (29) in
# tau = log(1 + (1-y)/delta) / log(1 + 1/delta), taken below s =
# -_LAYER_BELOW (n+1): for delta above 1/4 the map costs terms (n = 13,
# s = -20: 39 against 36).
_POSITIVE_FORM_BELOW, _LAYER_BELOW = -1.0, 4.0

# Share of the largest Chebyshev coefficient below which the series is cut
# (its FFT's roundoff is below 1e-16 of it), and the most terms tried.
_PLATEAU, _MAX_DEGREE = 4e-15, 4096


def _jacobi_rule(nodes: int, beta: float):
    """Gauss rule (v, w) for int_0^1 v^beta f(v) dv, beta > -1 (Golub and
    Welsch, Math. Comp. 23, 1969), from _golub_welsch on the Jacobi matrix
    of the orthonormal polynomials of weight v^beta."""
    j = np.arange(1.0, nodes)
    ab = 2.0 * j + beta
    diag = 0.5 + 0.5 * np.concatenate([[beta / (beta + 2.0)], beta * beta / (ab * (ab + 2.0))])
    off = j * (j + beta) / (ab * np.sqrt(ab * ab - 1.0))
    v, first = _golub_welsch(diag, off)
    return v, first / (1.0 + beta)


def _jacobi_gap_rule(nodes: int, beta: float):
    """The Gauss rule of _jacobi_rule for beta > 0 in the scaled gap
    x = beta (1 - v): (x, w) with int_0^1 v^beta f(v) dv = sum w f(1 - x/beta)
    / (1 + beta) and sum w = 1.

    Its Jacobi matrix is that of the weight (1 - x/beta)^beta on [0, beta],
    whose entries (2j + 1 + 2j(j+1)/beta) / ((1 + 2j/beta)(1 + (2j+2)/beta))
    and j (1 + j/beta) / (q sqrt(q^2 - beta^-2)), q = 1 + 2j/beta, neither
    cancel nor overflow.  So each node keeps its relative digits however
    close to 1 its v lies, where 1 - v from _jacobi_rule's v keeps only
    those of 1e-16 / (1 - v); as beta grows the rule tends to
    Gauss-Laguerre's."""
    j = np.arange(float(nodes))
    r = 1.0 / beta
    diag = (2.0 * j + 1.0 + 2.0 * j * (j + 1.0) * r) / ((1.0 + 2.0 * j * r) * (1.0 + (2.0 * j + 2.0) * r))
    q = 1.0 + 2.0 * j[1:] * r
    off = j[1:] * (1.0 + j[1:] * r) / (q * np.sqrt(q * q - r * r))
    return _golub_welsch(diag, off)


def _golub_welsch(diag, off):
    """Nodes and weights, summing to 1, of the Gauss rule of a Jacobi
    matrix: its eigenvalues, and p_0^2 / sum_j p_j(x)^2 of its orthonormal
    p_j from their recurrence, renormalized at each step so nothing
    overflows."""
    nodes = len(diag)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    prev, cur, first = np.zeros(nodes), np.ones(nodes), np.ones(nodes)
    for k in range(nodes - 1):
        prev, cur = cur, ((x - diag[k]) * cur - (off[k - 1] * prev if k else 0.0)) / off[k]
        norm = 1.0 / np.sqrt(1.0 + cur * cur)
        first *= norm * norm
        prev, cur = prev * norm, cur * norm
    return x, first


def _chebyshev_series(f):
    """Chebyshev coefficients of f(y) on [0, 1] in t = 2y - 1, from f at
    16, 32, ... Chebyshev points until the last half fall below _PLATEAU,
    and cut there (Trefethen, Approximation Theory and Approximation
    Practice, 2013).  Not getting there by _MAX_DEGREE is a ValueError."""
    degree = 16
    while True:
        k = np.arange(degree)
        vals = f(0.5 + 0.5 * np.cos((k + 0.5) * (math.pi / degree)))
        if not np.all(np.isfinite(vals)):
            raise ValueError("the great-circle kernel's table underflows a float")
        # 2 sum_j f_j cos(k theta_j), theta_j = (j + 1/2) pi / degree, by one FFT
        coef = np.fft.fft(np.concatenate([vals, vals[::-1]]))[:degree]
        coef = (coef * np.exp(-0.5j * math.pi / degree * k)).real / degree
        coef[0] *= 0.5
        noise = _PLATEAU * np.abs(coef).max()
        if np.all(np.abs(coef[degree // 2 :]) <= noise):
            keep = np.flatnonzero(np.abs(coef) > noise)
            return coef[: keep[-1] + 1] if keep.size else coef[:0]
        if degree >= _MAX_DEGREE:
            raise ValueError(f"the great-circle kernel's series does not converge in {degree} terms")
        degree *= 2


class _GreatCircleKernel:
    """Matched second antiderivative G of the great-circle kernel
    k(delta) = delta^-(n+s) |sin delta|^(n-1), delta = min(x, 2 pi - x),
    and the circle double integrals built from it; with normalized=True the
    kernel is pi^(n+s) k, that of (d/pi)^-(n+s).

    Double integrals of k over a rectangle [a,b] x [alpha,beta] reduce to
    G(beta-a) - G(beta-b) - G(alpha-a) + G(alpha-b), in which affine terms
    of G cancel.  On [0, pi], G(x) = int_0^x (x - t) k(t) dt with t = x v
    is the positive integral x^(1-s) H0(x) at and below s =
    _POSITIVE_FORM_BELOW, and above it, up to an affine term, the circle
    kernel's part -x q(x) / (1-s), q = (x^-s - 1)/s (_power_quotient, with
    no 1/s term and the limit x log x at s = 0), plus a remainder:

        G(x) = -x q(x) / (1-s) + x^(1-s) H(x),
        H(x)  = int_0^1 (1-v) v^-(1+s) (sinc(x v)^(n-1) - 1) dv,
        H0(x) = int_0^1 (1-v) v^-(1+s) sinc(x v)^(n-1) dv.

    H, or log H0, is smooth and even in x: it is tabulated once as a
    Chebyshev series in y = (x/pi)^2 (_chebyshev_series), or far below 0 in
    the log variable of _LAYER_BELOW's layer, from a Gauss-Jacobi rule
    (_jacobi_rule) of weight v^(1-s), with sinc^(n-1) - 1 formed as
    expm1((n-1) log1p(-(z - sin z)/z)), or of weight v^-(1+s), taken in the
    layer on _jacobi_gap_rule, whose nodes keep their gap 1 - v.  G'(pi) is
    its own sum on that rule.  Above pi, G(x) = G(2 pi - x) + 2 (x - pi)
    G'(pi), so G is C^1 at pi.  n = 1, the circle itself, has H = 0.

    For s < 0, x^(1-s) overflows a float from s = -619 on, so lengths are
    then measured in the unit L = pi, in which every power of u = x / L
    stays at most 1; for s >= 0, L = 1.  G, W and circle_values take
    radians and return scale times the values in the unit, scale being
    L^(1-s), times pi^(n+s) when normalized; a plain kernel whose scale
    overflows a float is a ValueError.
    """

    def __init__(self, n: int, s: float, normalized: bool = False):
        self.s = s
        if s >= 0.0:
            self.unit = 1.0
            self.scale = math.pi ** (n + s) if normalized else 1.0
        else:
            self.unit = math.pi
            # pi^(1-s) pi^(n+s) = pi^(n+1); pi^(1-s) is formed as pi^n pi^(1-n-s),
            # the factor whose overflow the error names
            try:
                self.scale = _finite(math.pi ** (n + 1) if normalized else math.pi**n * math.pi ** (1 - n - s), n, s)
            except OverflowError:
                raise _scale_overflow(n, s) from None
        self.half = math.pi / self.unit  # pi in the unit
        self.positive = s <= _POSITIVE_FORM_BELOW
        self.layer = (n + 1) / -s if s < -_LAYER_BELOW * (n + 1) else 0.0
        # doubling these nodes moves no W by more than 3e-13 for n <= 342
        beta = -1.0 - s if self.positive else 1.0 - s
        if self.layer:  # nodes by their gap to 1, which 1 - v would lose
            gap, w = _jacobi_gap_rule(40 + n // 2, beta)
            gap /= beta
            v, w, mass = 1.0 - gap, w / (1.0 + beta), w * gap / (1.0 + beta)
        else:
            v, w = _jacobi_rule(40 + n // 2, beta)
            mass = w - w * v

        def integrand(x):
            z = np.multiply.outer(x, v)
            if n == 1:  # sinc^0, also where z is 0 or pi to roundoff
                log_sinc = np.zeros_like(z)
            else:
                log_sinc = (n - 1) * np.log1p(-_x_minus_sin(z) / z)
            return np.exp(log_sinc) if self.positive else np.expm1(log_sinc) / (v * v)

        table = lambda y: integrand(math.pi * np.sqrt(y)) @ mass
        if self.layer:  # 2 tau - 1 = (2 log(1 + delta - y) - 2 log delta) / stretch - 1
            stretch = math.log1p(1.0 / self.layer)
            self.affine = (2.0 / stretch, 2.0 * math.log(self.layer) / stretch + 1.0)
            # a table that underflows is _chebyshev_series's ValueError, not a warning
            with np.errstate(divide="ignore"):
                self.coef = _chebyshev_series(lambda tau: np.log(table(1.0 - self.layer * np.expm1(stretch * tau))))
        else:  # 2 y - 1
            self.affine = (2.0 / (self.half * self.half), 1.0)
            self.coef = _chebyshev_series((lambda y: np.log(table(y))) if self.positive else table)
        # G'(pi) = pi^-s int_0^1 v^-(1+s) sinc(pi v)^(n-1) dv, or above the
        # positive form 1/(1-s) - q(pi) plus that integral of sinc^(n-1) - 1
        self.slope_in_unit = self.half**-s * float(integrand(np.array([math.pi]))[0] @ w)
        if not self.positive:
            self.slope_in_unit += 1.0 / (1.0 - s) - float(_power_quotient(self.half, s))

    def _series(self, u):
        """H or log H0 at u in the unit: Clenshaw's recurrence on three buffers."""
        t = u * u
        if self.layer:
            t *= -1.0 / (self.half * self.half)
            t += 1.0 + self.layer
            np.log(t, out=t)
        t *= self.affine[0]
        t -= self.affine[1]
        twice = t + t
        b1, b2, spare = np.zeros_like(t), np.zeros_like(t), np.empty_like(t)
        for c in self.coef[:0:-1]:
            np.multiply(twice, b1, out=spare)
            spare -= b2
            spare += c
            b1, b2, spare = spare, b1, b2
        b1 *= t
        b1 -= b2
        b1 += self.coef[0]
        return b1

    def lower(self, u):
        """G on [0, pi], in the unit."""
        u = np.asarray(u, dtype=float)
        if self.positive:
            with np.errstate(divide="ignore"):
                out = np.log(u)
            out *= 1.0 - self.s
            out += self._series(u)
            return np.exp(out, out=out)
        q = _power_quotient(u, self.s)
        out = u * q
        out *= -1.0 / (1.0 - self.s)
        if self.coef.size:
            q *= self.s
            q += 1.0
            out += u * q * self._series(u)  # u^(1-s) = u (1 + s q)
        return out

    def G(self, x):
        """G on [0, 2 pi], of x in radians."""
        u = np.asarray(x, dtype=float) / self.unit
        g = self.lower(np.minimum(u, 2.0 * self.half - u))
        return self.scale * np.where(u > self.half, g + 2.0 * (u - self.half) * self.slope_in_unit, g)

    def W(self, length):
        """Double integral of k over an arc of the given length and its gap:
        2 (m G'(pi) - G(m)) with m = min(length, 2 pi - length), which is 0
        for an arc within ENDPOINT_MARGIN of empty or full."""
        m = np.minimum(length, TWO_PI - length)
        m = np.where(m < ENDPOINT_MARGIN, 0.0, m) / self.unit
        return 2.0 * self.scale * (m * self.slope_in_unit - self.lower(m))

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
    return _circle_value(E, _GreatCircleKernel(1, s))


def _circle_exact(E, s: float, normalized: bool = False):
    """(value, error) of the circle formula on E, a set on S^1, plain or
    normalized: the error is the cap oracle's floor _relative_floor(s)
    |value|.  Against 40-digit values of one to three arcs at s in {-80,
    -4, -0.5, 0.5, 0.99} the formula is within 4.1e-15 relative."""
    value = _circle_value(E, _GreatCircleKernel(1, s, normalized))
    return value, _relative_floor(s) * abs(value)


def _circle_value(E, kernel: _GreatCircleKernel) -> float:
    """The circle value of an n = 1 kernel on the trace of E, a set on S^1,
    on the frame e = (1, 0), f = (0, 1); a ValueError where it overflows."""
    axes = np.eye(2)
    start, length, _ = trace(E, axes[:1], axes[1:])
    return _finite(float(kernel.circle_values(start, length)[0]), 1, kernel.s)


# ---------------------------------------------------------------------------
# choice of method


# The methods of perimeter_by_method, and the choices of the CLI's --method.
METHODS = ("auto", "mc", "cap_oracle", "circle_exact")


def perimeter_by_method(
    E,
    s: float,
    method: str = "auto",
    samples: int = 1_000_000,
    rng=None,
    normalized: bool = False,
):
    """(method, value, error) of P_s(E) by one of METHODS, on the kernel
    (d/pi)^-(n+s) when normalized=True.

    auto picks cap_oracle for a Cap, circle_exact for any other set on S^1
    and mc otherwise.  cap_oracle (perimeter_cap, E a Cap) reports the
    larger of its rule levels' difference and the floor
    max(CAP_TOL, _FAR_TOL |s|) |value|, circle_exact
    (perimeter_circle_exact, E on S^1) that floor, so a cap and an arc on
    S^1 report the same row, and mc (perimeter_mc, at least two samples
    from rng) its standard error.  A method that does not fit E is a
    ValueError.
    """
    s = validate_s(s)
    if method == "auto":
        method = "cap_oracle" if isinstance(E, Cap) else "circle_exact" if E.dimension == 1 else "mc"
    if method == "cap_oracle":
        if not isinstance(E, Cap):
            raise ValueError(f"cap_oracle needs a cap, got a {type(E).__name__}")
        return (method, *_cap_oracle(E.dimension, s, E.radius, normalized))
    if method == "circle_exact":
        if E.dimension != 1:
            raise ValueError(f"circle_exact needs a set on S^1, got one on S^{E.dimension}")
        return (method, *_circle_exact(E, s, normalized))
    if method == "mc":
        # one sample has an infinite error bar, under which every 3-sigma verdict would pass
        if samples < 2:
            raise ValueError(f"need at least two samples for an error bar, got {samples}")
        est = perimeter_mc(E, s, samples, rng, normalized)
        return method, est.value, est.std_error
    raise ValueError(f"unknown method {method!r}: expected one of {', '.join(METHODS)}")
