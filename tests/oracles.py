"""Independent reference computations used to pin test targets.

Everything here is deliberately naive and self-contained: dense midpoint
rules, dense walks along great circles, closed-form recursions, integer
pair counting, a covariogram quadrature on the circle, and the plain forms
of membership tests and samplers that the library computes faster,
sharing no code path with the routines they check, plus high-precision
cap perimeters pinned from an mpmath computation (CAP_PERIMETERS, whose
comment says how they were made).  The perimeter of a disjoint cap union
adds the cap oracle's perimeters to a Gauss-Legendre cross term, to check
the point-pair estimator on a set with two boundaries.  Three references
are the serial forms of faster library paths that must equal them to the
bit, so they reuse the library's pooling and samplers: the one-thread chunk
loop of mc_estimate, crofton_estimate as that chunk loop (with one trace
per chunk of iid circles, or one rotated pole lattice per chunk on S^2),
and bp_check's plane side as that chunk loop with one plane after another
on the library's weight table.
"""

import math

import numpy as np
from scipy.integrate import quad

from spherefrac.estimation import Estimate, NonFiniteSampleError, as_stream
from spherefrac.geometry import sphere_surface
from spherefrac.integral_geometry import CroftonReport, _circle_weights, bp_constant
from spherefrac.perimeter import perimeter_cap
from spherefrac.sets import trace

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


def polytope_boundary_distance_matmul(normals, points):
    """Polytope boundary distance from the full (N, k) matrix of face dot
    products: the least |pi/2 - angle to a face normal|."""
    dots = np.asarray(points, dtype=float) @ np.asarray(normals, dtype=float).T
    angles = np.arccos(np.clip(dots, -1.0, 1.0))
    return np.min(np.abs(0.5 * math.pi - angles), axis=-1)


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


def disjoint_cap_union_perimeter(caps, s, nodes=64):
    """P_s of a union of disjoint caps on S^2, caps a list of (center, radius).

    P_s(A u B) = P_s(A) + P_s(B) - 2 X(A, B) with X(A, B) the integral of
    d(x, y)^-(2+s) over A x B, which is smooth as the caps are apart.  Each
    X is a tensor Gauss-Legendre rule in geodesic polar coordinates
    (rho, psi) about each cap's center, area element sin(rho) d rho d psi,
    nodes points per axis; the cap perimeters come from perimeter_cap at
    tol 1e-12.  For radii 0.6 and 0.8 with centers pi/2 apart, at
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
    total = sum(perimeter_cap(2, s, r, tol=1e-12) for _, r in caps)
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
