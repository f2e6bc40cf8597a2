"""Independent reference computations used to pin test targets.

Everything here is deliberately naive and self-contained: dense midpoint
rules, dense walks along great circles, closed-form recursions, integer
pair counting, a covariogram quadrature on the circle, and the plain forms
of membership tests and samplers that the library computes faster,
sharing no code path with the routines they check, plus high-precision
cap perimeters, great-circle kernel values and the rows of both t ->
infinity sweeps and of the seminorms of x_0 near s = 0 and of |x_0|
pinned from mpmath computations (CAP_PERIMETERS, KERNEL_W,
NORMALIZED_CAP_ROWS, SEMINORM_ROWS, NEAR_ZERO_SEMINORM_ROWS and
ABS_SEMINORM_ROWS, whose comments say how they were made).  seminorm_mc,
the point-pair seminorm estimator that left the library with its
RadialProposal, sample_at_distance and _lattice_points, checks the exact
seminorm rows, which integrate a pair law over distances, from pairs
drawn one by one; point_pair_perimeter, half the seminorm of a set's
indicator, is the perimeter estimator that rests on no great-circle
identity.  The covariogram cap oracle (covariogram_cap_perimeter, from a
cap's crescent measure on the adaptive Gauss(7/15) quadrature
adaptive_quad, both of which left the library) is the reference that
shares no code with the great-circle kernel.  The perimeter of a disjoint
cap union adds its perimeters to a Gauss-Legendre cross term, to check
the sliced estimator on a set with two boundaries.  Four references
are the serial forms of faster paths that must equal them to the
bit, so they reuse those paths' rules, pooling and samplers: adaptive_quad
with one integrand call per Gauss pair, the one-thread chunk loop of
mc_estimate, crofton_estimate as that chunk loop (with one trace
per chunk of iid circles, or one rotated pole lattice per chunk on S^2),
and bp_check's plane side as that chunk loop with one plane after another
on the library's weight table.  The sliced perimeter's circle values have a
scalar form: a loop over (arc, gap) pairs, one circle after another, on
the library's matched antiderivative of the kernel.  Last come the closed
forms of the line case (interval_perimeter_exact and _localized) and the
antipodal-concentration quadrature of the t -> infinity limit, which only
the acceptance criteria and their tests use.
"""

import heapq
import math

import numpy as np
from scipy.integrate import quad

from spherefrac.estimation import Estimate, NonFiniteSampleError, _checked_values, as_stream, mc_estimate
from spherefrac.geometry import _row_dots, _row_norms, cap_area, sample_uniform, sphere_surface
from spherefrac.integral_geometry import (
    CroftonReport,
    _circle_weights,
    _lattice,
    _rotated_lattice_mean,
    bp_constant,
)
from spherefrac.perimeter import _power_quotient, validate_p, validate_s
from spherefrac.sets import ArcUnion, trace

TWO_PI = 2.0 * math.pi


def arc_membership(phi, arcs):
    """Wrap-aware membership of angles phi in a list of (start, length) arcs."""
    phi = np.asarray(phi, dtype=float)
    m = np.zeros(phi.shape, dtype=bool)
    for start, length in arcs:
        m |= (phi - start) % TWO_PI < length
    return m


def circle_pair_counts(mask):
    """Counts c_k of pairs (i in E, j not in E) with (i - j) mod N = k.

    Circular cross-correlation of the 0/1 mask with its complement via FFT;
    the result is rounded back to exact integers, so the midpoint double sum
    assembled from it equals the naive N^2 loop to roundoff.
    """
    m = np.asarray(mask, dtype=float)
    fm = np.fft.rfft(m)
    fc = np.fft.rfft(1.0 - m)
    counts = np.fft.irfft(fm * np.conj(fc), n=m.size)
    return np.rint(counts).astype(np.int64)


def circle_perimeter_midpoint(arcs, s, nodes=2000):
    """Midpoint double Riemann sum of the circle kernel over E x E^c.

    The nodes x nodes product rule with cell centers (k + 1/2) h, h = 2 pi /
    nodes; arc endpoints are expected to sit on cell edges so that the
    indicator is exact per cell.  Collapsed through the pair-distance counts,
    which leaves the sum itself unchanged.
    """
    h = TWO_PI / nodes
    phi = (np.arange(nodes) + 0.5) * h
    counts = circle_pair_counts(arc_membership(phi, arcs))
    k = np.arange(nodes)
    delta = np.minimum(k, nodes - k) * h
    good = delta > 0.0
    return h * h * float(np.sum(counts[good] * delta[good] ** (-(1.0 + s))))


def circle_perimeter_refined(arcs, s, nodes=2000):
    """Midpoint oracle with one Richardson step in h^(1-s).

    The product midpoint rule carries an O(h^(1-s)) bias from the cells
    hugging the kernel singularity at the arc endpoints (measurable: halving
    h shrinks the defect by 2^(1-s)).  Pairing the rule at nodes and 2*nodes
    removes that leading term while using nothing but midpoint sums.
    """
    coarse = circle_perimeter_midpoint(arcs, s, nodes)
    fine = circle_perimeter_midpoint(arcs, s, 2 * nodes)
    w = 2.0 ** (1.0 - s)
    return (w * fine - coarse) / (w - 1.0)


def circle_perimeter_quad(arcs, s):
    """Circle s-perimeter from the pair-distance covariogram, by scipy quad.

    With g(t) = |{x in E : x + t not in E}|, the double integral over
    E x E^c is int_0^pi delta^-(1+s) (g(delta) + g(-delta)) d delta.  g is
    |E| minus the overlap of E with its shift, summed over whole-turn
    translates of interval pairs; it is piecewise linear, with kinks at the
    endpoint differences, which are handed to quad as break points.  Near
    0, g(delta) grows like delta, so the integrand is bounded for s <= 0.
    """
    arcs = [(float(a) % TWO_PI, float(la)) for a, la in arcs]
    total = sum(la for _, la in arcs)

    def g(t):
        overlap = 0.0
        for a, la in arcs:
            for b, lb in arcs:
                for k in range(-2, 3):
                    lo = max(a, b - t + k * TWO_PI)
                    hi = min(a + la, b - t + lb + k * TWO_PI)
                    overlap += max(0.0, hi - lo)
        return total - overlap

    ends = [e for a, la in arcs for e in (a, a + la)]
    kinks = sorted({
        d for e in ends for f in ends
        for d in (abs(e - f) % TWO_PI, TWO_PI - abs(e - f) % TWO_PI)
        if 0.0 < d < math.pi
    })
    value, _ = quad(
        lambda d: d ** (-1.0 - s) * (g(d) + g(-d)),
        0.0, math.pi, points=kinks or None, limit=500, epsabs=0.0, epsrel=1e-12,
    )
    return value


def random_grid_arcs(gen, nodes=2000, max_arcs=3):
    """Random disjoint (start, length) arcs with endpoints on the cell edges
    of an `nodes`-cell midpoint partition, so the midpoint oracle represents
    the same set exactly."""
    n_arcs = int(gen.integers(1, max_arcs + 1))
    while True:
        idx = np.sort(gen.integers(0, nodes, size=2 * n_arcs))
        if len(np.unique(idx)) == 2 * n_arcs:
            break
    h = TWO_PI / nodes
    return [
        (float(idx[2 * i] * h), float((idx[2 * i + 1] - idx[2 * i]) * h))
        for i in range(n_arcs)
    ]


def polytope_boundary_measure(normals, resolution=1e-3):
    """Dense-sampling boundary length of the polytope {x : x.u_i <= 0} on S^2.

    Each face lies on the great circle orthogonal to its normal; walking
    that circle at the given angular resolution and counting the points
    satisfying the remaining halfspace constraints approximates the face's
    arc length to O(resolution).  Shares no code with the library's traces.
    """
    u = np.atleast_2d(np.asarray(normals, dtype=float))
    if u.shape[1] != 3:
        raise ValueError("the dense boundary oracle is implemented for S^2 only")
    u = u / np.linalg.norm(u, axis=1)[:, None]
    k = u.shape[0]
    steps = int(math.ceil(TWO_PI / resolution))
    phis = (np.arange(steps) + 0.5) * (TWO_PI / steps)
    total = 0.0
    for j in range(k):
        # orthonormal basis of the face plane
        seed = np.array([1.0, 0.0, 0.0]) if abs(u[j, 0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e = seed - (seed @ u[j]) * u[j]
        e /= np.linalg.norm(e)
        f = np.cross(u[j], e)
        pts = np.cos(phis)[:, None] * e + np.sin(phis)[:, None] * f
        others = np.delete(u, j, axis=0)
        ok = np.all(pts @ others.T <= 0.0, axis=1)
        total += (TWO_PI / steps) * float(ok.sum())
    return total


def cap_contains_arccos(center, radius, points):
    """Open-cap membership by geodesic distance: arccos(<x, c>) < radius,
    with the inner product clamped to [-1, 1]."""
    dot = np.sum(np.asarray(points, dtype=float) * np.asarray(center, dtype=float), axis=-1)
    return np.arccos(np.clip(dot, -1.0, 1.0)) < radius


def polytope_contains_matmul(normals, points):
    """Polytope membership from the full (N, k) matrix of face dot products."""
    dots = np.asarray(points, dtype=float) @ np.asarray(normals, dtype=float).T
    return np.all(dots <= 0.0, axis=-1)


def sample_plane_batch_masked(n, count, gen):
    """Haar frames by Gram-Schmidt on fresh Gaussian pairs, redrawing every
    pair with a norm of 1e-12 or below and scattering the good rows through
    boolean masks.  Draws the same random numbers as the library sampler."""
    es = np.empty((count, n + 1))
    fs = np.empty((count, n + 1))
    need = np.ones(count, dtype=bool)
    while np.any(need):
        k = int(need.sum())
        g1 = gen.standard_normal((k, n + 1))
        g2 = gen.standard_normal((k, n + 1))
        n1 = np.linalg.norm(g1, axis=1)
        ok1 = n1 > 1e-12
        e = np.where(ok1[:, None], g1 / np.maximum(n1, 1e-300)[:, None], 0.0)
        g2 = g2 - np.sum(g2 * e, axis=1, keepdims=True) * e
        n2 = np.linalg.norm(g2, axis=1)
        ok = ok1 & (n2 > 1e-12)
        f = np.where(ok[:, None], g2 / np.maximum(n2, 1e-300)[:, None], 0.0)
        slots = np.flatnonzero(need)[ok]
        es[slots] = e[ok]
        fs[slots] = f[ok]
        need[slots] = False
    return es, fs


def polytope_trace_trig(normals, es, fs, margin=1e-9):
    """Polytope trace on great circles by evaluating every other face at each
    face's zeros atan2(b_j, a_j) +- pi/2 through cos and sin.  Returns
    (start, length, degenerate) with start and length of shape (m,)."""
    a = es @ normals.T
    b = fs @ normals.T
    m, k = a.shape
    degenerate = np.zeros(m, dtype=bool)
    zeros = []
    for offset in (0.5 * math.pi, -0.5 * math.pi):
        at = np.zeros(m)
        found = np.zeros(m, dtype=bool)
        for j in range(k):
            in_plane = np.hypot(a[:, j], b[:, j]) < margin
            degenerate |= in_plane
            phi = np.arctan2(b[:, j], a[:, j]) + offset
            cos_phi, sin_phi = np.cos(phi), np.sin(phi)
            good = ~in_plane
            for i in range(k):
                if i != j:
                    val = a[:, i] * cos_phi + b[:, i] * sin_phi
                    degenerate |= np.abs(val) < margin
                    good &= val < 0.0
            at = np.where(good, phi, at)
            found |= good
        zeros.append((at, found))
    (entry, has_entry), (leave, has_exit) = zeros
    arc = has_entry & has_exit
    start = np.where(arc, entry % TWO_PI, 0.0)
    length = np.where(arc, (leave - entry) % TWO_PI, 0.0)
    return start, length, degenerate


def sample_at_distance_projected(x, theta, rng):
    """Points at geodesic distance theta from x: a Gaussian projected off x,
    normalized to the tangent direction u, and cos(theta) x + sin(theta) u
    renormalized.  Draws the same random numbers as the library sampler,
    one Gaussian row per point and a fresh row for each zero projection."""
    x = np.asarray(x, dtype=float)
    g = rng.standard_normal(x.shape)
    g = g - np.sum(g * x, axis=-1, keepdims=True) * x
    norms = np.linalg.norm(g, axis=-1)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        fresh = rng.standard_normal((int(bad.sum()), x.shape[-1]))
        xb = x[bad] if x.ndim > 1 else x[None]
        fresh = fresh - np.sum(fresh * xb, axis=-1, keepdims=True) * xb
        g[bad] = fresh
        norms = np.linalg.norm(g, axis=-1)
    u = g / norms[..., None]
    th = np.broadcast_to(np.asarray(theta, dtype=float), x.shape[:-1])[..., None]
    y = np.cos(th) * x + np.sin(th) * u
    return y / np.linalg.norm(y, axis=-1, keepdims=True)


def sine_moment(k, nodes=200_000):
    """Midpoint rule for the moment integral of sin^k over [0, pi]."""
    h = math.pi / nodes
    theta = (np.arange(nodes) + 0.5) * h
    return h * float(np.sum(np.sin(theta) ** k))


def sphere_surface_recursive(k):
    """H^k(S^k) from the slicing recursion, independent of gamma functions.

    H^m(S^m) = H^(m-1)(S^(m-1)) * integral of sin^(m-1) over [0, pi], seeded
    with the circle circumference.
    """
    if k == 0:
        return 2.0
    val = TWO_PI
    for m in range(2, k + 1):
        val *= sine_moment(m - 1)
    return val


def cap_area_midpoint(n, r, nodes=200_000):
    """Cap measure omega_n * integral of sin^(n-1) over [0, r], midpoint rule."""
    h = r / nodes
    t = (np.arange(nodes) + 0.5) * h
    return sphere_surface_recursive(n - 1) * h * float(np.sum(np.sin(t) ** (n - 1)))


# High-precision cap perimeters P_s(C_r) on S^n, keyed by (n, s), one value
# per radius in CAP_RADII.  Made with mpmath at 40 digits from the
# covariogram form P_s = omega_n int_0^pi theta^-(n+s) sin^(n-1)(theta)
# K(theta) d theta, with r reduced to pi - r when r > pi/2 (P_s(E) = P_s(E^c))
# and the exact crescents for theta < 2r (K = cap_area(n, r) beyond):
#   n = 2: K = 2 tau - 4 cos r asin(cot r tan(theta/2)),
#          tau = 2 asin(sin(theta/2) / sin r);
#   n = 3: K = 4 pi [(h/2 - sin(2h)/4) + tan h (sin^2 r - sin^2 h)/2], h = theta/2.
# The stretch [0, 1e-60] of the theta^-s R(theta) integral,
# R = (sin theta/theta)^(n-1) K/theta, is the analytic head
# R(0) eps^(1-s)/(1-s) with R(0) = omega_n sin^(n-1)(r) Gamma(n/2) /
# (2 sqrt(pi) Gamma((n+1)/2)); the rest is mpmath.quad split at 10^-55,
# 10^-50, ..., 10^-5, 0.1, r and 2r.  A rerun at 60 digits moved no value
# by more than 3e-20 relative, and the s = -n values reproduce the pivot
# |C| (omega_(n+1) - |C|) to 4e-41.
CAP_RADII = (0.5, math.pi / 2, 2.0)
CAP_PERIMETERS = {
    (2, -4.0): (28.221581920471056, 152.76585850986515, 119.41733797958547),
    (2, -0.5): (6.940432295804048, 22.48956776585879, 19.49264507087388),
    (2, 0.3): (10.38816010897273, 27.062029706493004, 24.069370766220533),
    (2, 0.7): (21.399657590974407, 49.24177432179606, 44.358090834644784),
    (2, 0.9): (61.34150526479104, 132.25889020508015, 119.89073383970423),
    (2, 0.95): (121.5323516912808, 257.7426160330184, 234.00277947307788),
    (2, 0.99): (603.4589144829265, 1262.9107261994845, 1148.007208420076),
    (2, 0.999): (6025.623967859063, 12572.61271780829, 11431.891806142918),
    (3, -4.0): (15.316436107522165, 173.00684650988782, 123.79493771158691),
    (3, -0.5): (7.333141709624835, 48.060112975049954, 38.04498982627538),
    (3, 0.3): (13.166587315264824, 70.2163666845788, 56.906410804471776),
    (3, 0.7): (29.874517752383948, 142.13794826216886, 116.52962662967278),
    (3, 0.9): (90.04612538125006, 403.7496583776828, 332.8915954224137),
    (3, 0.95): (180.70084909924006, 798.1393218922746, 658.9932374634933),
    (3, 0.99): (906.555709154446, 3956.096144566835, 3270.0694993327443),
    (3, 0.999): (9073.201464260685, 39486.60059359661, 32647.467387797897),
}


# t^2 P~_(-t)(C_r) on S^2, the sweep-sinf rows of a cap in the normalized
# kernel (d/pi)^-(2-t), at t in FAR_T, per radius.  Made with mpmath at 40
# digits from the covariogram form 2 pi t^2 int_0^pi (theta/pi)^(t-2)
# sin(theta) K(theta) d theta of CAP_PERIMETERS (K = 2 theta for the
# hemisphere; the crescent below theta = 2r and cap_area beyond for r = 1),
# taken in x = t (1 - theta/pi), split at x in {1, 4, 10, 20, 40, 80, 200}
# and at theta = 2r, and integrated twice, the second time divided by the
# first result, since mpmath's tolerance is absolute.  A rerun at 50 digits
# on other splits moved no value by more than 3e-41 relative.
FAR_T = (20.0, 80.0, 1e3, 1e4, 1e5)
NORMALIZED_CAP_ROWS = {
    math.pi / 2: (
        "363.961644462330568462047511705",
        "384.268760133338091871157533277",
        "389.243294477152851640025304172",
        "389.597365963069968852330570156",
        "389.632467426799030958058798872",
    ),
    1.0: (
        "184.580401365570033717977016934",
        "181.113074023041277026292366415",
        "179.2924681260964030159913033",
        "179.132833753989012498292503713",
        "179.11672913376282791752724366",
    ),
}


# t^n [x_0]^p at s = -t, the seminorm-sweep rows of f = x_0 in the
# normalized kernel, at t in FAR_T, per (n, p).  Made with mpmath at 40
# digits from the distance form omega_(n+1) omega_n E|x_0|^p pi^(n+p)
# int_0^1 v^beta sinc(v)^(n-1) sinc(v/2)^p dv, beta = p (1 + t) - 1, with
# E|x_0|^p = Gamma((n+1)/2) Gamma((p+1)/2) / (sqrt(pi) Gamma((n+1+p)/2)),
# taken in x = beta (1 - v) split at x in {1, 4, 10, 20, 40, 60, 80, 120,
# 200, 400, 1000}, with the integrand scaled by beta^(n-1) / (pi^(n-1)
# (n-1)!) and integrated twice as above.  A rerun at 50 digits on other
# splits moved no value by more than 6e-41 relative.  t = 20 lies below
# n/p = 50 for n = 50, outside the sweep's grid but not the rule's reach.
SEMINORM_ROWS = {
    (1, 1.0): (
        "49.9982252695016916072085553505",
        "50.2468162079842138015841338113",
        "50.2653588038419501055057944023",
        "50.2654812175576436959839392611",
        "50.2654824450345532129808490708",
    ),
    (2, 1.0): (
        "790.775785534569115817181630159",
        "787.091183625292445959130735702",
        "780.039348742902444575634074948",
        "779.350528770807315707028627621",
        "779.28051973131232030700103363",
    ),
    (2, 1.5): (
        "396.989885894832683828244233929",
        "394.575290230105179665911125175",
        "392.10062144244425668812236046",
        "391.868954251800521502976385025",
        "391.845478110310434142951629687",
    ),
    (3, 2.0): (
        "1995.78377055802561451989123361",
        "1954.18792287528828151483314415",
        "1925.63271392645561083009314414",
        "1923.06650546238171408290103952",
        "1922.80722584192010641430630336",
    ),
    (50, 1.0): (
        "2.42116844484316384094411733958e+52",
        "4.10944012250498854338498137505e+63",
        "7.41509161931263582631940619584e+64",
        "2.95946972174191917379629361084e+64",
        "2.65547794276484926300790265685e+64",
    ),
}


# t^n [|x_0|]^p at s = -t, the rows of f = |x_0| in the normalized kernel,
# at s in ABS_S, per (n, p): seminorm-sweep rows where t > n/p, and for
# p = 1 the s0-check rows |s| [f] times |s|^(n-1).  Made with mpmath at 45
# digits from the distance form t^n omega_(n+1) omega_n E[a^p]
# int_0^pi m(theta) (theta/pi)^(tp-n) sin^(n-1) theta d theta, with
# E[a^p] = Gamma(1 + p/2) Gamma((n+1)/2) / Gamma((n+1+p)/2) and m the
# folded mean of perimeter.Coordinate's docstring, its S(l) = int_0^l sin^p
# in closed form (p = 1, 2) or as half the incomplete beta function
# B(sin^2 l; (p+1)/2, 1/2) (mpmath.betainc).  That m matched the raw mean
# of ||cos phi| - |cos(phi + theta)||^p over phi, split at its four
# breakpoints, to 4e-46 at theta in {0.3, 2} and to 2e-26 at
# pi (1 - 1e-6), where the raw form's short pieces limit mpmath.quad.
# The integral is taken in x = beta
# (1 - theta/pi), beta = p (1 + t) - 1, split at x in {1, 4, 10, 20, 40,
# 80, 200, 400, 1000}, and integrated twice as above.  A rerun at 60 digits
# on other splits moved no printed digit.
ABS_S = (-0.01, -0.3, -20.0, -80.0, -1e3)
ABS_SEMINORM_ROWS = {
    (1, 1.0): (
        "4.03135647849684817999153726012e-1",
        "8.23903779993525053599315353468",
        "3.47433313615825892864907334227",
        "9.55756227357061054980610815478e-1",
        "7.8754110003069290504082149613e-2",
    ),
    (2, 1.0): (
        "4.81210035137459317157030344e-2",
        "2.74482799889956606174252714398e+1",
        "1.04651465058998305258961211829e+2",
        "2.96213340027058956636854367209e+1",
        "2.44234320704213741214861321744",
    ),
    (2, 1.5): (
        "2.67104189994272697414290814265e-2",
        "1.38282968557982808463937111638e+1",
        "1.30171221871947781365173741562e+1",
        "1.8723481463480792579201342785",
        "4.39925321327214935735592109265e-2",
    ),
    (3, 2.0): (
        "9.92161034491956917380308856401e-4",
        "1.30677565950800192347121501336e+1",
        "2.84121352722456665209450144112e+1",
        "2.12370791977154444511145279353",
        "1.41850073433288786849170344795e-2",
    ),
    (50, 1.0): (
        "6.123105306092290436109946555e-100",
        "1.81373640636663196657972222866e-26",
        "1.75768032002561113863649679324e+52",
        "2.01000048724499803632445180265e+63",
        "5.55547892337945303324169967989e+63",
    ),
}

# t^n [x_0]^p at s in ABS_S[:2], near 0, per (n, p): SEMINORM_ROWS' s0-check
# end (for p = 1, |s| [x_0] times |s|^(n-1)).  Made as ABS_SEMINORM_ROWS,
# with E|x_0|^p (2 sin(theta/2))^p in place of E[a^p] m(theta), and again
# at 60 digits on other splits, which moved no printed digit.
NEAR_ZERO_SEMINORM_ROWS = {
    (1, 1.0): ("6.81546763168489114682647883487e-1", "1.54863445116405423388922607719e+1"),
    (2, 1.0): ("6.63019067839868046071462171062e-2", "4.04310749983503757409112321378e+1"),
    (2, 1.5): ("4.75076092863090313510330149538e-2", "2.76417505739957111023352712046e+1"),
    (3, 2.0): ("1.94665513759073532831753093606e-3", "2.93415332013644236087942434518e+1"),
    (50, 1.0): ("6.44160438991187898132396730047e-100", "1.92669692660360431819218532478e-26"),
}


# ---------------------------------------------------------------------------
# point pairs: the seminorm estimator that left the library, kept as the
# independent check of the exact seminorm rows and of the sliced perimeter


class RadialProposal:
    """Exact importance sampler for the radial factor of geodesic polar integrals.

    Target on [0, pi]: sin^(n-1)(theta) (theta/pi)^exponent, the radial
    factor of the normalized kernel.  The draw is w = theta/pi ~ Beta(a, n)
    with a = exponent + n; its density w^(a-1) (1-w)^(n-1) has both
    endpoint orders of the target, so

        weight * sin^(n-1)(theta) * (theta/pi)^exponent
            = pi B(a, n) (sin(pi w) / (w (1-w)))^(n-1).

    With m = min(w, 1-w), so that w (1-w) = m (1-m), the ratio
    sin(pi w) / (w (1-w)) = pi sinc(m) / (1-m) lies in [pi, 4] and is
    finite at both ends, also for draws that underflow to w = 0, so every
    weight lies within a factor (4/pi)^(n-1) of the smallest.

    Construction fails when the target is not normalizable, i.e. a <= 0
    (the s >= 0 singular regime of the perimeter kernel), when the exponent
    is not finite, and when the target's mass pi B(a, n) underflows a
    float, so that every weight would be 0.
    """

    def __init__(self, n: int, exponent: float):
        if n < 1:
            raise ValueError("sphere dimension must be >= 1")
        a = exponent + n
        if not math.isfinite(a):
            raise ValueError(f"the kernel exponent must be finite, got {exponent} on S^{n}")
        if a <= 0.0:
            raise ValueError(
                "density sin^(n-1)(theta) * theta^exponent is not normalizable at 0 "
                f"(exponent {exponent}, n {n}); this is the s >= 0 singular regime"
            )
        # B(a, n) = (n-1)! / prod_(k<n) (a + k) for the integer n keeps its
        # digits where lgamma(a) - lgamma(a + n) cancels (large a)
        log_mass = math.log(math.pi) + math.lgamma(n) - sum(math.log(a + k) for k in range(n))
        if log_mass < math.log(np.finfo(float).tiny):
            raise ValueError(f"the kernel exponent {exponent:g} on S^{n} leaves a mass "
                             "pi B(exponent + n, n) that underflows a float")
        self.n = int(n)
        self._a = a
        self._scale = math.exp(log_mass)

    def sample_weighted(self, count: int, rng: np.random.Generator):
        """(theta, wk) with wk = weight * sin^(n-1)(theta) * (theta/pi)^exponent.

        Means of wk * g(theta) estimate int_0^pi g sin^(n-1)(theta)
        (theta/pi)^exponent d theta.
        """
        w = rng.beta(self._a, self.n, size=count)
        m = np.minimum(w, 1.0 - w)
        ratio = math.pi * np.sinc(m) / (1.0 - m)
        return math.pi * w, self._scale * ratio ** (self.n - 1)


def sample_at_distance(x: np.ndarray, theta, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the geodesic sphere at distance theta around x.

    x has shape (..., n+1), or (n+1,) for one point; theta broadcasts
    against its leading shape.  An isotropic Gaussian projected off x gives
    the tangent direction u, uniform on the unit tangent sphere, and the
    point is cos(theta) x + sin(theta) u.  One Gaussian row is drawn per
    point, and a row that projects to zero is redrawn.  The work is done in
    place on the Gaussian array.  Output rows are renormalized; the realized
    distance matches theta to ~1e-10.
    """
    x = np.asarray(x, dtype=float)
    g = rng.standard_normal(x.shape)
    g -= _row_dots(g, x)[..., None] * x
    norms = _row_norms(g)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        fresh = rng.standard_normal((int(bad.sum()), x.shape[-1]))
        xb = x[bad] if x.ndim > 1 else x[None]
        fresh -= _row_dots(fresh, xb)[..., None] * xb
        g[bad] = fresh
        norms = _row_norms(g)
    th = np.broadcast_to(np.asarray(theta, dtype=float), x.shape[:-1])
    g /= norms[..., None]
    g *= np.sin(th)[..., None]
    g += np.cos(th)[..., None] * x
    g /= _row_norms(g)[..., None]
    return g


def _lattice_points(start: int, stop: int, size: int) -> np.ndarray:
    """Rows start .. stop-1 of the Fibonacci lattice (_lattice), shape (stop - start, 3)."""
    z, rho, cos_phi, sin_phi = _lattice(start, stop, size)
    return np.stack([rho * cos_phi, rho * sin_phi, z], axis=1)


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

    Each pair is a point x and a point y at a distance theta from it, drawn
    by RadialProposal, in a uniform direction (sample_at_distance).  On S^2
    (n = 2) the points x are R = min(32, samples) Haar rotations of a
    Fibonacci lattice of samples // R points
    (integral_geometry._rotated_lattice_mean), so R * (samples // R) pairs
    are drawn; theta and the direction are iid draws from the rotation's
    own stream.  The Estimate's samples is then R, and its error bar, the
    spread of the R rotation means, has R - 1 degrees of freedom.  On other
    spheres x is iid uniform and samples counts the pairs.  A NaN or
    infinite pair value raises NonFiniteSampleError naming the lowest such
    pair, numbered rotation * (samples // R) + row on S^2.  The result is
    the same to the bit on any number of CPUs; samples < 1 is a ValueError.
    """
    s = validate_s(s)
    if s >= 0.0:
        raise ValueError("seminorm estimator requires s < 0")
    p = validate_p(p)
    if samples < 1:
        raise ValueError("need at least one sample")
    omega_n1, omega_n = sphere_surface(n), sphere_surface(n - 1)
    omega = omega_n1 * omega_n
    proposal = RadialProposal(n, -(n + s * p))

    def pairs(x, gen):
        theta, wk = proposal.sample_weighted(len(x), gen)
        return x, wk, sample_at_distance(x, theta, gen)

    def integrand(batch):
        x, wk, y = batch
        fx = np.asarray(f(x), dtype=float)
        fy = np.asarray(f(y), dtype=float)
        # the measures' product underflows from n = 261: apply them one at a time
        weight = omega * wk if omega >= np.finfo(float).tiny else omega_n1 * (omega_n * wk)
        return weight * np.abs(fx - fy) ** p

    if n != 2:
        iid = lambda count, gen: pairs(sample_uniform(n, count, gen), gen)
        return mc_estimate(iid, integrand, samples, rng)

    def rotation(q, gen):
        def block(first, points):
            # the rows q p of the lattice points p
            x = points[:, :1] * q[:, 0] + points[:, 1:2] * q[:, 1] + points[:, 2:] * q[:, 2]
            values = np.asarray(integrand(pairs(x, gen)), dtype=float)
            return float(np.sum(_checked_values(values, len(x), first)))

        return block

    return _rotated_lattice_mean(samples, rng, _lattice_points, rotation)


def point_pair_perimeter(E, s: float, samples: int, rng) -> Estimate:
    """Point-pair s-perimeter of E for s < 0 in the normalized kernel
    (d/pi)^-(n+s), on any set with contains: half the p = 1 seminorm_mc of
    E's indicator, as |1_E(x) - 1_E(y)| counts each pair of E x E^c once in
    each order.  It rests on no great-circle identity."""
    semi = seminorm_mc(E.contains, E.dimension, 1.0, s, samples, rng)
    return Estimate(0.5 * semi.value, 0.5 * semi.std_error, semi.samples)


# W(m) = 2 int_0^pi k(d) min(d, m) dd of the plain great-circle kernel
# k(d) = d^-(n+s) sin^(n-1)(d), at m in KERNEL_LENGTHS, per (n, s).  Made
# with mpmath at 45 digits as 2 (int_0^m d k(d) dd + m int_m^pi k(d) dd),
# split at pi 2^-j (j = 1..13) and pi j / 48; the d^-s singularity at 0 is
# taken on [0, pi / 8192] after d = (pi / 8192) w^(1/(1-s)), which makes it
# smooth.  mpmath's error estimates are below 1e-40 relative; without that
# substitution the s = 0.9 values were off by 5e-6.
KERNEL_LENGTHS = (0.1, 1.0, math.pi)
KERNEL_W = {
    (2, 0.9): (
        "17.48309166477324967645423929413179681026",
        "20.66729375041474010941679582530897692349",
        "21.04965614398676567896072529957878676232",
    ),
    (2, 0.5): (
        "2.203310291243719215210750159036362107696",
        "4.81991275409943474169370575298371869975",
        "5.302938506082166986111491922157947440888",
    ),
    (2, 0.0): (
        "0.7598630152509546299323778575569705757831",
        "3.047636088641073745842620793588955118614",
        "3.703874103964932340722106740315982726692",
    ),
    (2, -0.5): (
        "0.4459784909798761353470213033241538502881",
        "2.673701749005100768155803966680272303212",
        "3.579325877936579835204088053666040260241",
    ),
    (2, -1.0): (
        "0.3603901876187863118489682747130194969057",
        "2.731103351494286876037526897783670203602",
        "4.0",
    ),
    (2, -20.0): (
        "4518897.741128554598539171194130800710793",
        "45188977.40715518351843455822879465642446",
        "128680715.6127309926946433888703891897337",
    ),
    (2, -300.0): (
        "3.112807113142281333733565647709072123268e+143",
        "3.112807113142281333733565647709072123268e+144",
        "9.714201032977464938458251468699488512456e+144",
    ),
    (3, 0.9): (
        "17.42900347041802925853959486666814766251",
        "20.25375859405528065733462995601992763242",
        "20.45419664100816936225045237757159686967",
    ),
    (3, 0.5): (
        "2.150316619518892470335998882932695143639",
        "4.371632167986297350335931974700344107543",
        "4.615502025685186106453159927437421694302",
    ),
    (3, 0.0): (
        "0.7020433838390241954251847260141346572722",
        "2.52096698111507807236646818407593697395",
        "2.836303152265256900491560324599498858285",
    ),
    (3, -0.5): (
        "0.3772468804883305870448083909852605640551",
        "2.021561180222703985036823614998886884018",
        "2.434753766308268201604378660040753982905",
    ),
    (3, -1.0): (
        "0.2736358678202517560135377902910521332073",
        "1.889006051893622764660867316045406271336",
        "2.437653393057224411810710341436684144412",
    ),
    (3, -20.0): (
        "471991.6918752159969657789061952296631748",
        "4719916.915168336068257980804922098931088",
        "12799945.77822600674100943904901371117691",
    ),
    (3, -300.0): (
        "2.088452104170783805533021476074006793311e+141",
        "2.088452104170783805533021476074006793311e+142",
        "6.4956917185777875288370111309445359646e+142",
    ),
    (13, 0.9): (
        "17.17281400045040071053439696484251958213",
        "18.78501294049598311902903416127977268736",
        "18.79019437757255001364778145027924943039",
    ),
    (13, 0.5): (
        "1.948427809851866297111958709651033847131",
        "3.027052732037145591960644435385782380308",
        "3.032720462201010994161009543370763762472",
    ),
    (13, 0.0): (
        "0.532456377431687474791438185834703031944",
        "1.231190312210755238286693979248057528361",
        "1.237553645943220551312298965941344864388",
    ),
    (13, -0.5): (
        "0.2190887107321275152115547338914319655987",
        "0.7055126503687750770608330681751469362261",
        "0.7126869557807936000701427593574897040613",
    ),
    (13, -1.0): (
        "0.1137885694676442833407855533016589131887",
        "0.4753029209154258940573487881604912493877",
        "0.4834268704817658238376629633057418760393",
    ),
    (13, -20.0): (
        "5.861568287061240750198745783048338411351",
        "58.61479815603804869870099199816945552099",
        "109.0151072985698198196507704056815352143",
    ),
    (13, -300.0): (
        "1.050011007312966743982961943700961169017e+125",
        "1.050011007312966743982961943700961169017e+126",
        "3.157053114189505348316980668544604210029e+126",
    ),
    (50, 0.9): (
        "16.78253483761887386037545667428934798252",
        "17.52557274815760996127891354293387180996",
        "17.52557373411445604768446648183016321885",
    ),
    (50, 0.5): (
        "1.714208581723789635424922117508844916842",
        "2.14197275030918002745872812215918750824",
        "2.141973770819468694305917168234117460317",
    ),
    (50, 0.0): (
        "0.3950694216525000820311446213674841306944",
        "0.6183269660123887531788492844213227274907",
        "0.6183280321443929760648258489182485068664",
    ),
    (50, -0.5): (
        "0.130451926276801036950795923403044892766",
        "0.2522985343361761368497426049568243880873",
        "0.2522996489902205889962758391031930627268",
    ),
    (50, -1.0): (
        "0.0519667405707521519170303156376148570677",
        "0.1214494438990477613871970237194764168348",
        "0.1214506102096143579160307063411870406786",
    ),
    (50, -20.0): (
        "0.00001756484259142684661882496376132979466804",
        "0.0001680895000812950429518428770214244412077",
        "0.000183751982052464643174595280180462939294",
    ),
    (50, -300.0): (
        "2.142417840126922803761787729379346369407e+88",
        "2.142417840126922803761787729379346369407e+89",
        "5.687717046372639384304731124761764845654e+89",
    ),
    (200, 0.9): (
        "16.1367246185618757008051733771159135352",
        "16.3421739749881062493353313002744896694",
        "16.34217397498810624976879726285726390046",
    ),
    (200, 0.5): (
        "1.407132323491298801238938831043245784366",
        "1.510320481337198850559036504188604473978",
        "1.510320481337198850996997191548495601132",
    ),
    (200, 0.0): (
        "0.2630744346361627212419668397730414787257",
        "0.3075363214613015389389213720840592650983",
        "0.3075363214613015393825969701615076745597",
    ),
    (200, -0.5): (
        "0.06896915244442262184467807004742939133944",
        "0.08854909480831844471017833204465047372737",
        "0.08854909480831844515967856913169365722304",
    ),
    (200, -1.0): (
        "0.02127186872447501742523548358004374676882",
        "0.03009016681692027374949423882123374052904",
        "0.03009016681692027420493160075501800017334",
    ),
    (200, -20.0): (
        "0.00000000002017169069040636414591001495153015316814",
        "0.00000000010821230070627656906244939347784044089",
        "0.0000000001082123015096151629030405985936725948009",
    ),
    (200, -300.0): (
        "6580524399712874311590.331348629960845736",
        "65805243997128743115903.31348629960845736",
        "120884340390705139147309.1508718255781605",
    ),
    (342, 0.9): (
        "15.8113127715927427870715848326317327879",
        "15.90832002416565407899832822157676897095",
        "15.90832002416565407899832822158024788511",
    ),
    (342, 0.5): (
        "1.27370448876596500511396332469791691568",
        "1.320233221295840186488060594261990790214",
        "1.320233221295840186488060594265491430781",
    ),
    (342, 0.0): (
        "0.2161898200853614516619271020204607226566",
        "0.2350077844123700735096977866403319369845",
        "0.235007784412370073509697786643860018441",
    ),
    (342, -0.5): (
        "0.05142806656568361272416625911134444028477",
        "0.05915575299441143176039294832473161491004",
        "0.05915575299441143176039294832828745604275",
    ),
    (342, -1.0): (
        "0.01435045792270454254799547457037862141913",
        "0.01757467173952198523094230480142014445653",
        "0.01757467173952198523094230480500406893272",
    ),
    (342, -20.0): (
        "9.676442272314924286035327731127506092413e-14",
        "3.983370548986933729720251968461058934654e-13",
        "3.983370548986933779223539032284974914663e-13",
    ),
    (342, -300.0): (
        "0.0000000004861318979387795760438363630684492129177",
        "0.000000004861318979387795760436680773931573054304",
        "0.000000007235452090318230653890045232135866403414",
    ),
}


# ---------------------------------------------------------------------------
# adaptive quadrature and the covariogram cap oracle


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within its subdivision budget."""


# 7- and 15-point Gauss-Legendre nodes for the embedded error estimate,
# and both rules' nodes in the order the integrand gets them
_G7_X, _G7_W = np.polynomial.legendre.leggauss(7)
_G15_X, _G15_W = np.polynomial.legendre.leggauss(15)
_PAIR_X = np.concatenate((_G7_X, _G15_X))


def _gauss_rules(f, intervals):
    """(value, error) of the Gauss(7/15) pair on each (a, b) in intervals,
    from one call of f on all their nodes."""
    halves = [0.5 * (b - a) for a, b in intervals]
    xs = np.concatenate(
        [0.5 * (a + b) + half * _PAIR_X for (a, b), half in zip(intervals, halves)]
    )
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError("quadrature integrand must be vectorized over node arrays")
    rules = []
    for half, row in zip(halves, vals.reshape(len(halves), -1)):
        coarse = half * float(_G7_W @ row[:7])
        fine = half * float(_G15_W @ row[7:])
        rules.append((fine, abs(fine - coarse)))
    return rules


# adaptive_quad's subdivision budget: the deepest bisection and the most intervals
_MAX_DEPTH, _MAX_INTERVALS = 60, 200_000


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Globally adaptive Gauss(7/15) integral of f over [a, b].

    The worst interval (largest embedded-rule error) is bisected until the
    summed error drops below tol relative to the running total.  f must
    accept node arrays: it gets the 22 nodes of [a, b] in one call, then,
    per bisection, the 2 x 22 nodes of both halves in one call, so it is
    called 1 + (number of bisections) times.  Nodes are interior, so
    integrable endpoint singularities are tolerated.

    Raises QuadratureError when the subdivision budget (depth _MAX_DEPTH or
    _MAX_INTERVALS intervals) is exhausted, reporting the worst interval.
    """
    if not (b > a):
        if b == a:
            return 0.0
        raise ValueError("integration bounds must satisfy a <= b")
    [(val, err)] = _gauss_rules(f, [(a, b)])
    # heap of (-error, tiebreak, a, b, value, depth)
    heap = [(-err, 0, a, b, val, 0)]
    total_val, total_err = val, err
    counter = 1
    while total_err > tol * max(abs(total_val), 1e-300):
        if len(heap) >= _MAX_INTERVALS:
            raise QuadratureError(
                f"interval budget exhausted: {len(heap)} intervals, error {total_err:.3e}"
            )
        neg_err, _, ia, ib, ival, depth = heapq.heappop(heap)
        if depth >= _MAX_DEPTH:
            raise QuadratureError(
                f"subdivision depth {_MAX_DEPTH} exceeded on [{ia!r}, {ib!r}] "
                f"with interval error {-neg_err:.3e}"
            )
        mid = 0.5 * (ia + ib)
        (lv, le), (rv, re) = _gauss_rules(f, [(ia, mid), (mid, ib)])
        total_val += lv + rv - ival
        total_err += le + re - (-neg_err)
        heapq.heappush(heap, (-le, counter, ia, mid, lv, depth + 1))
        heapq.heappush(heap, (-re, counter + 1, mid, ib, rv, depth + 1))
        counter += 2
    return total_val


def _beta_half(m: int, x):
    """I_x(1/2, m/2) for integer m >= 1: the Student-t distribution's finite
    sums (Abramowitz & Stegun 26.7.3-4), with y = 1 - x,

        even m: sqrt(x) sum_(j < m/2) b_j y^j,  b_j = b_(j-1) (2j - 1) / 2j,
        odd m:  (2/pi) [arcsin sqrt(x) + sqrt(x y) sum_(j < (m-1)/2) a_j y^j],
                a_j = a_(j-1) 2j / (2j + 1),

    with b_0 = a_0 = 1.  Every term is positive, so small x keeps its
    relative accuracy.  m = 1 is (2/pi) arcsin sqrt(x) and m = 2 is
    sqrt(x).  Vectorized over x in [0, 1].
    """
    x = np.asarray(x, dtype=float)
    root = np.sqrt(x)
    if m == 1:
        return (2.0 / math.pi) * np.arcsin(root)
    y = 1.0 - x
    odd = m % 2
    # nested: 1 + q_1 y (1 + q_2 y (1 + ...)), q_j the ratio of term j to j - 1
    series = 1.0
    for j in range(m // 2 - 1, 0, -1):
        series = 1.0 + (2 * j - 1 + odd) / (2 * j + odd) * y * series
    if odd:
        return (2.0 / math.pi) * (np.arcsin(root) + root * np.sqrt(y) * series)
    return root * series


def _crescent_rule(nodes: int):
    """Gauss-Legendre rule on [0, 1] for the crescent's radial integral:
    48 nodes up to n = 50 and 96 above, where sin^(n-1) rho needs them.
    Against the sliced hemisphere at s in {0, -1, -n}, 48 are off by 3e-8
    at n = 100 and 7e-6 at n = 200, and 96 by at most 2e-12 to n = 260."""
    v, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (v + 1.0), 0.5 * w


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
    _beta_half sums in closed form (the Student-t finite sums):

        K = cap_area(n, h) + omega_n int_h^r sin^(n-1)(rho) I_(tau^2)(1/2, (n-1)/2) d rho.

    Every term is positive, so small theta loses no digits (unlike
    cap_area - lens).  rho = h + (r - h) v^6 makes the (rho - h)^((n-1)/2)
    start of the integrand smooth for a fixed rule in v (_crescent_rule)
    and spreads its nodes over the layer of width ~h.  Vectorized over theta.
    """
    v, w = _crescent_rule(48 if n <= 50 else 96)
    h = np.minimum(0.5 * np.asarray(theta, dtype=float), r)[..., None]
    span = r - h
    rho = h + span * v**6
    tau2 = np.minimum((np.tan(h) / np.tan(rho)) ** 2, 1.0)
    share = np.sin(rho) ** (n - 1) * _beta_half(n - 1, tau2)
    # one sum per theta, so K at a node does not depend on the other nodes
    # of its call: a BLAS matrix-vector product sums the last (count mod 4)
    # rows in another order
    lateral = np.einsum("...j,j->...", share * 6.0 * span * v**5, w)
    return cap_area(n, h[..., 0]) + sphere_surface(n - 1) * lateral


def covariogram_cap_perimeter(n: int, s: float, r: float, tol: float = 1e-8) -> float:
    """P_s of a radius-r cap on S^n, n >= 2, from its covariogram, sharing
    no code with the great-circle kernel.  Grouping the pairs of points by
    their distance theta gives

        P_s(C_r) = omega_n int_0^pi theta^-(n+s) sin^(n-1)(theta) K(theta) d theta,

    with K the crescent measure of _cap_crescent.  P_s(E) = P_s(E^c)
    reduces r to at most pi/2; K is then the constant cap_area(n, r) on
    [2r, pi].  On [0, 2r] the integrand is theta^-s R(theta) with
    R = sinc^(n-1)(theta/pi) K(theta)/theta, finite at 0:

        R(0) = H^(n-1)(boundary) Gamma(n/2) / (2 sqrt(pi) Gamma((n+1)/2)).

    For s > 0 the head R(0) (2r)^(1-s)/(1-s) is taken in closed form and
    the rest, whose integrand vanishes like theta^(1-s) at 0, by
    adaptive_quad at relative tolerance tol.  Against 40-digit values for
    n in {2, 3} the error stays below tol/5 for every tol from 1e-3 to
    1e-12; the crescent rule holds it to about 2e-11 up to n = 50 and to
    2e-12 from there to n = 260.
    """
    if r <= 0.0 or r >= math.pi:
        return 0.0
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


def mc_estimate_serial(sampler, integrand, n_samples, rng, chunk_size=1 << 16):
    """mc_estimate's chunk loop in the calling thread, chunk after chunk."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    stream = as_stream(rng)
    n_chunks = (n_samples + chunk_size - 1) // chunk_size
    total = None
    done = 0
    for child in stream.split(n_chunks):
        count = min(chunk_size, n_samples - done)
        done += count
        values = np.asarray(integrand(sampler(count, child.generator)), dtype=float)
        if values.shape != (count,):
            raise ValueError(f"integrand returned shape {values.shape}, expected ({count},)")
        if not np.all(np.isfinite(values)):
            idx = int(np.flatnonzero(~np.isfinite(values))[0])
            raise NonFiniteSampleError(
                f"non-finite integrand value {values[idx]!r} at sample {done - count + idx}"
            )
        part = Estimate.from_values(values)
        total = part if total is None else total.merge(part)
    return total


def adaptive_quad_pairwise(f, a, b, tol=1e-10, max_depth=60, max_intervals=200000):
    """adaptive_quad's loop with one call of f per Gauss(7/15) pair, on the
    library's nodes and weights: each bisection evaluates the left half,
    then the right half."""

    def gauss_pair(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        xs = np.concatenate((mid + half * _G7_X, mid + half * _G15_X))
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape != xs.shape:
            raise ValueError("quadrature integrand must be vectorized over node arrays")
        coarse = half * float(_G7_W @ vals[:7])
        fine = half * float(_G15_W @ vals[7:])
        return fine, abs(fine - coarse)

    if b == a:
        return 0.0
    val, err = gauss_pair(a, b)
    heap = [(-err, 0, a, b, val, 0)]
    total_val, total_err = val, err
    counter = 1
    while total_err > tol * max(abs(total_val), 1e-300):
        if len(heap) >= max_intervals:
            raise QuadratureError(f"interval budget exhausted: {len(heap)} intervals")
        neg_err, _, ia, ib, ival, depth = heapq.heappop(heap)
        if depth >= max_depth:
            raise QuadratureError(f"subdivision depth {max_depth} exceeded")
        mid = 0.5 * (ia + ib)
        lv, le = gauss_pair(ia, mid)
        rv, re = gauss_pair(mid, ib)
        total_val += lv + rv - ival
        total_err += le + re - (-neg_err)
        heapq.heappush(heap, (-le, counter, ia, mid, lv, depth + 1))
        heapq.heappush(heap, (-re, counter + 1, mid, ib, rv, depth + 1))
        counter += 2
    return total_val


def crofton_estimate_serial(E, planes, rng, chunk_size, max_resample_rounds=100):
    """crofton_estimate as mc_estimate_serial's chunk loop: each chunk draws
    masked Haar frames from its child stream, traces them at once, and
    redraws its degenerate circles from the same generator."""
    n = E.dimension
    resamples = 0

    def crossings(count, gen):
        es, fs = sample_plane_batch_masked(n, count, gen)
        _, length, bad = trace(E, es, fs)
        return 2.0 * np.count_nonzero((length > 0.0) & (length < TWO_PI), axis=1), bad

    def chunk(count, gen):
        nonlocal resamples
        counts, bad = crossings(count, gen)
        for _ in range(max_resample_rounds):
            if not np.any(bad):
                break
            resamples += int(bad.sum())
            idx = np.flatnonzero(bad)
            counts[idx], bad[idx] = crossings(idx.size, gen)
        assert not np.any(bad)
        return counts

    est = mc_estimate_serial(chunk, lambda counts: counts, planes, rng, chunk_size)
    bm = E.boundary_measure()
    target = None if bm is None else 2.0 * bm / sphere_surface(n - 1)
    return CroftonReport(est, target, resamples)


def fibonacci_lattice(poles):
    """Poles p_i = (rho cos phi, rho sin phi, z) of the Fibonacci lattice on
    S^2, z = 1 - (2i+1)/poles, phi = i pi (3 - sqrt 5), with the frames
    e_i = (-sin phi, cos phi, 0) and f_i = (-z cos phi, -z sin phi, rho) of
    the great circles orthogonal to them.  Returns (p, e, f), each (poles, 3).
    rho is sqrt((1 - z)(1 + z)), exact to an ulp also near the poles, and
    phi is i times the rounded golden angle, the lattice's definition."""
    i = np.arange(poles, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / poles
    rho = np.sqrt((1.0 - z) * (1.0 + z))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    p = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    e = np.column_stack([-np.sin(phi), np.cos(phi), np.zeros(poles)])
    f = np.column_stack([-z * np.cos(phi), -z * np.sin(phi), rho])
    return p, e, f


def crofton_lattice_serial(E, planes, rng, block, max_resample_rounds=100):
    """crofton_estimate on S^2 as mc_estimate_serial's loop over rotations,
    one child stream each: the rotation q, the whole pole lattice rotated by
    one matmul, traced in slices of `block` rows, each slice's degenerate
    circles redrawn as masked Haar frames from the rotation's generator.
    Counts are integers, so frames that differ from the library's in the
    last bit give the same means unless a circle sits within roundoff of
    the degeneracy margin."""
    rotations = min(32, planes)
    poles = planes // rotations
    _, e, f = fibonacci_lattice(poles)
    resamples = 0

    def crossings(es, fs):
        _, length, bad = trace(E, es, fs)
        return 2.0 * np.count_nonzero((length > 0.0) & (length < TWO_PI), axis=1), bad

    def rotation(count, gen):
        nonlocal resamples
        assert count == 1
        # Haar on O(3): Q of a Gaussian matrix's QR times the signs of diag R
        q, r = np.linalg.qr(gen.standard_normal((3, 3)))
        q = q @ np.diag(np.sign(np.diag(r)))
        es, fs = e @ q.T, f @ q.T
        total = 0.0
        for start in range(0, poles, block):
            counts, bad = crossings(es[start : start + block], fs[start : start + block])
            for _ in range(max_resample_rounds):
                if not np.any(bad):
                    break
                resamples += int(bad.sum())
                idx = np.flatnonzero(bad)
                counts[idx], bad[idx] = crossings(*sample_plane_batch_masked(2, idx.size, gen))
            assert not np.any(bad)
            total += float(counts.sum())
        return np.array([total / poles])

    est = mc_estimate_serial(rotation, lambda means: means, rotations, rng, 1)
    return CroftonReport(est, 2.0 * E.boundary_measure() / TWO_PI, resamples)


def sliced_value_serial(arcs, kernel):
    """One circle's V = int_A int_(A^c) k for the arcs A = [(start, length)],
    as a scalar sum over (arc, gap) pairs with the matched antiderivative
    kernel.G: with the gap shifted by whole turns to [alpha, beta] ahead of
    the arc [a, b], a pair adds G(beta-a) - G(beta-b) - G(alpha-a) +
    G(alpha-b).  Every offset is a difference of shared endpoint values plus
    whole turns, so it is exactly 0 or 2 pi where a gap meets an arc."""
    E = ArcUnion([(a, la) for a, la in arcs if la > 0.0])
    if E.is_empty() or E.is_full():
        return 0.0
    starts = [a for a, _ in E.arcs]
    ends = [a + la for a, la in E.arcs]
    k = len(starts)
    total = 0.0
    for i in range(k):
        for j in range(k):
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
            ga, gb, gc, gd = kernel.G(np.clip(args, 0.0, TWO_PI))
            total += float(ga - gb - gc + gd)
    return total


def sliced_values_serial(start, length, kernel):
    """sliced_value_serial row by row over sets.trace arcs of shape (m, K)."""
    return np.array([sliced_value_serial(list(zip(a, la)), kernel)
                     for a, la in zip(start, length)])


def disjoint_cap_union_perimeter(caps, s, nodes=64):
    """P_s of a union of disjoint caps on S^2, caps a list of (center, radius).

    P_s(A u B) = P_s(A) + P_s(B) - 2 X(A, B) with X(A, B) the integral of
    d(x, y)^-(2+s) over A x B, which is smooth as the caps are apart.  Each
    X is a tensor Gauss-Legendre rule in geodesic polar coordinates
    (rho, psi) about each cap's center, area element sin(rho) d rho d psi,
    nodes points per axis; the cap perimeters come from
    covariogram_cap_perimeter at tol 1e-12, which shares no code with the
    sliced estimator this checks.  For radii 0.6 and 0.8 with centers pi/2 apart, at
    s in {0.3, -0.5}, the sum moves by under 3e-14 from 64 to 80 nodes
    (by 8e-12 from 48 to 64)."""
    x_gl, w_gl = np.polynomial.legendre.leggauss(nodes)

    def polar_rule(center, radius):
        # points and area weights of the cap, on a frame (c, u, v)
        c = np.asarray(center, dtype=float)
        c = c / np.linalg.norm(c)
        u = np.cross(c, [1.0, 0.0, 0.0] if abs(c[0]) < 0.9 else [0.0, 1.0, 0.0])
        u /= np.linalg.norm(u)
        v = np.cross(c, u)
        rho = 0.5 * radius * (x_gl + 1.0)
        psi = math.pi * (x_gl + 1.0)
        w = np.outer(0.5 * radius * w_gl * np.sin(rho), math.pi * w_gl).ravel()
        rr, pp = np.meshgrid(rho, psi, indexing="ij")
        pts = (np.cos(rr)[..., None] * c
               + np.sin(rr)[..., None] * (np.cos(pp)[..., None] * u + np.sin(pp)[..., None] * v))
        return pts.reshape(-1, 3), w

    rules = [polar_rule(c, r) for c, r in caps]
    total = sum(covariogram_cap_perimeter(2, s, r, tol=1e-12) for _, r in caps)
    for a in range(len(rules)):
        for b in range(a + 1, len(rules)):
            (xa, wa), (xb, wb) = rules[a], rules[b]
            d = np.arccos(np.clip(xa @ xb.T, -1.0, 1.0))
            total -= 2.0 * float(wa @ d ** (-(2.0 + s)) @ wb)
    return total


def circle_integrals_serial(n, f, es, fs, nodes):
    """bp_check's per-plane product rule, one plane after another, on the
    library's weight table (checked on its own against quadrature)."""
    weights = _circle_weights(n, nodes)
    phis = TWO_PI / nodes * np.arange(nodes)
    vals = np.empty(len(es))
    for i in range(len(es)):
        pts = np.cos(phis)[:, None] * es[i] + np.sin(phis)[:, None] * fs[i]
        fmat = np.asarray(f(pts[:, None, :], pts[None, :, :]), dtype=float)
        vals[i] = np.einsum("ij,ij->", fmat, weights)
    return vals


def bp_plane_side_serial(n, f, planes, rng, nodes, chunk_size):
    """bp_check's plane side as mc_estimate_serial's chunk loop: each chunk
    draws masked Haar frames from its child stream and integrates f over
    its circles one after another.  rng is bp_check's own seed."""
    plane_stream = as_stream(rng).split(2)[1]

    def integrals(frames):
        return bp_constant(n) * circle_integrals_serial(n, f, *frames, nodes)

    return mc_estimate_serial(
        lambda count, gen: sample_plane_batch_masked(n, count, gen),
        integrals, planes, plane_stream, chunk_size,
    )


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
