"""Random great circles: plane sampling, a Blaschke-Petkantschin style
two-point identity, and Crofton crossing counts.

The identity checked by bp_check: for integrable f on S^n x S^n,

    integral f  =  c_n * average over Haar 2-planes L of
                   double integral over the circle S^n cap L of
                   f(x, y) * grad2(x, y)^(n-1),

where grad2(x, y) = sqrt(1 - (x.y)^2) and c_n = omega_(n+1) omega_n /
(omega_1 omega_2).  The Haar average over the Grassmannian of 2-planes is
normalized to total mass 1.  Crofton: the mean crossing count of the
boundary of E equals (2/omega_n) H^(n-1)(boundary E).

A circle is a frame (e, f) of sample_plane_batch, parametrized as
phi -> cos(phi) e + sin(phi) f.  Crossings come from sets.trace: open arcs
(start, start + length), length 0 for an empty slot and 2 pi for the full
circle, with circles tangent to the boundary or through a polytope corner
(margin 1e-9) flagged as degenerate.

All estimators are mc_estimate means whose chunks draw from their own
child streams, on worker threads.  Crofton counts, antipodal gains
(symmetric_overlap_measure) and the sliced perimeter of perimeter.py are
means of a per-circle value over great circles, all taken by
_circle_mean.  On S^2 these are means over Haar rotations of one
Fibonacci lattice (_rotated_lattice_mean) of great-circle poles
(_lattice_frames).  A chunk is one rotation, and the estimate is the
randomized quasi-Monte Carlo mean of the rotations' means (Owen, Monte
Carlo theory, methods and examples, 2013), whose error bar is the spread
of _ROTATIONS rotation means.  On other spheres a chunk is _TRACE_BLOCK iid Haar circles.
Either way a chunk resamples its own degenerate circles, so the report
depends only on (seed, planes, _TRACE_BLOCK).  A bp_check chunk of
_PLANE_BLOCK Haar planes integrates f over all its circles at once, so the
plane side depends only on (seed, planes, nodes, _PLANE_BLOCK).

The in-circle double integral is a spectral product rule (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review 56,
2014): f is sampled on a nodes x nodes grid of the circle, and the weight
|sin(phi - psi)|^(n-1), kinked on the diagonal for even n, is integrated
exactly through its Fourier series (_circle_weights).  The rule is exact
for every f whose degree in each circle angle is below nodes / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import Estimate, as_stream, mc_estimate
from .geometry import _row_dots, _row_norms, cap_area, sample_uniform, sphere_surface
from .sets import TWO_PI, Cap, DegenerateCircleError, _gaps, _half_turn, rotated, trace


def bp_constant(n: int) -> float:
    """c_n = omega_(n+1) omega_n / (omega_1 omega_2); c_2 = 2 pi."""
    return sphere_surface(n) * sphere_surface(n - 1) / (sphere_surface(0) * sphere_surface(1))


def sample_plane_batch(n: int, count: int, gen: np.random.Generator):
    """Orthonormal frames (es, fs) of count Haar planes, shape (count, n+1) each.

    Gram-Schmidt in place: es and fs are drawn as two (count, n+1) Gaussian
    arrays, es is normalized, and fs is projected off es and normalized.
    Rows with a norm of 1e-12 or below, before or after the projection (a
    probability-zero event), are redrawn in rounds: each round draws new es
    rows, then new fs rows, for the rows still bad, in row order.  n < 1 is
    a ValueError: S^0 holds no great circle, and every projection is 0.

    Runs in the calling thread; callers that want every CPU call it once
    per mc_estimate chunk, each with its own generator.
    """
    if n < 1:
        raise ValueError(f"great circles need a sphere of dimension n >= 1, got {n}")
    es = gen.standard_normal((count, n + 1))
    fs = gen.standard_normal((count, n + 1))
    bad = _orthonormalize(es, fs)
    while np.any(bad):
        idx = np.flatnonzero(bad)
        e_new = gen.standard_normal((idx.size, n + 1))
        f_new = gen.standard_normal((idx.size, n + 1))
        bad[idx] = _orthonormalize(e_new, f_new)
        es[idx] = e_new
        fs[idx] = f_new
    return es, fs


def _orthonormalize(es, fs):
    """Gram-Schmidt of matching rows in place; True where a norm is <= 1e-12."""
    n1 = _row_norms(es)
    es /= np.maximum(n1, 1e-300)[:, None]
    fs -= _row_dots(fs, es)[:, None] * es
    n2 = _row_norms(fs)
    fs /= np.maximum(n2, 1e-300)[:, None]
    return (n1 <= 1e-12) | (n2 <= 1e-12)


# Most circles crofton_estimate builds and traces at once: a chunk of iid
# circles (n != 2), or a block of one rotated lattice (n = 2).  Degenerate
# circles are redrawn per block from the chunk's generator, so the report
# depends on this value.  Every worker holds one block's frames and trace
# temporaries, and nothing holds all planes: octant crofton at 1e6 iid
# planes on 2 CPUs peaked at 75 MB RSS (58 MB before the call), against
# 91 MB with 1 << 16, 67 MB with 1 << 14, and 141 MB when all frames were
# drawn first.  At 1e6 planes a lattice of 31250 poles is one block.
_TRACE_BLOCK = 1 << 15
# Rounds of redraws a block of circles gets for its degenerate circles, after
# which _circle_mean raises DegenerateCircleError.
_MAX_RESAMPLE_ROUNDS = 100
# Haar rotations of the lattice behind every S^2 mean of _rotated_lattice_mean:
# each is one mc_estimate sample, so the error bar has _ROTATIONS - 1
# degrees of freedom.
_ROTATIONS = 32
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# Planes per chunk of bp_check's plane side: each chunk draws its frames
# from its own child stream, so the report depends on this value.  At the
# default 32 nodes a chunk calls f once on 64 grids of 32^2 points,
# _GRID_POINTS in all; larger grids are split into calls of at most
# _GRID_POINTS points, which bounds f's temporaries and changes no bit.
# 1000 dot2 planes on a 2-CPU machine took 16 ms on 2 threads against 19 ms
# on one (medians of 30); with blocks of 16 and 32 two threads were slower.
_PLANE_BLOCK = 64
_GRID_POINTS = 1 << 16
# Largest sphere bp_check runs on: from n = 261 omega_(n+1)^2, the scale of
# both sides, is subnormal, and from n = 343 omega_(n+1) overflows.
_MAX_BP_DIMENSION = 260


@dataclass(frozen=True)
class BPReport:
    """Both sides of the two-point plane identity, with their errors."""

    direct: Estimate
    plane_side: Estimate
    constant: float

    @property
    def deviation_sigmas(self) -> float:
        """|direct - plane side| over the combined error; inf on a gap with
        zero error, NaN when an error is infinite (a side of one sample)."""
        gap = abs(self.direct.value - self.plane_side.value)
        combined = math.hypot(self.direct.std_error, self.plane_side.std_error)
        if math.isinf(combined):
            return math.nan
        return gap / combined if combined > 0 else math.inf


def _circle_weights(n: int, nodes: int) -> np.ndarray:
    """Product-rule weights of the in-circle double integral, (nodes, nodes).

    The double integral of F(phi, psi) |sin(phi - psi)|^(n-1) over the
    torus is sum_ij F(phi_i, phi_j) W[i, j] on the nodes phi_i = i h,
    h = 2 pi / nodes, with W[i, j] = W_((i - j) mod nodes) and

        W_m = h^2 sum_(|k| <= nodes/2) w_k cos(k m h),

    the +-nodes/2 terms halved for even nodes.  w_k are the Fourier
    coefficients of w(u) = |sin u|^(n-1), which has no odd modes:
    w_0 = Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2)) and
    w_(k+2) = w_k (k - n + 1) / (k + n + 1), a recurrence that ends by
    itself for odd n.  The sum is exact whenever F is a trigonometric
    polynomial of degree below nodes / 2 in each angle.
    """
    half = nodes // 2
    coef = np.zeros(half + 1)
    coef[0] = math.exp(math.lgamma(0.5 * n) - math.lgamma(0.5 * (n + 1))) / math.sqrt(math.pi)
    for k in range(0, half - 1, 2):
        coef[k + 2] = coef[k] * (k - n + 1) / (k + n + 1)
    # cos(k m h) pairs the +k and -k modes; the +-nodes/2 pair is halved
    coef[1:] *= 2.0
    if nodes % 2 == 0:
        coef[half] *= 0.5
    h = 2.0 * math.pi / nodes
    m = np.arange(nodes)
    table = h * h * (np.cos(h * (np.outer(m, np.arange(half + 1)) % nodes)) @ coef)
    return table[(m[:, None] - m[None, :]) % nodes]


def _circle_integrals(f, es, fs, weights: np.ndarray) -> np.ndarray:
    """Double integrals of f(x, y) |sin(phi - psi)|^(n-1) over the circles
    (es[b], fs[b]), by the product rule of _circle_weights.  f is called on
    points of shapes (B, N, 1, n+1) and (B, 1, N, n+1), for as many circles
    B at a time as fit in _GRID_POINTS grid points (at least one)."""
    nodes = weights.shape[0]
    phis = (2.0 * math.pi / nodes) * np.arange(nodes)
    cos_phi, sin_phi = np.cos(phis)[:, None], np.sin(phis)[:, None]
    step = max(1, _GRID_POINTS // (nodes * nodes))
    out = np.empty(len(es))
    for i in range(0, len(es), step):
        pts = cos_phi * es[i : i + step, None, :] + sin_phi * fs[i : i + step, None, :]
        fvals = np.asarray(f(pts[:, :, None, :], pts[:, None, :, :]), dtype=float)
        out[i : i + step] = np.einsum("bij,ij->b", fvals, weights)
    return out


def bp_check(n: int, f, pairs: int = 1_000_000, planes: int = 1000, rng=None, nodes: int = 32) -> BPReport:
    """Monte Carlo check of the two-point plane identity for a kernel f.

    f(x, y) must broadcast over point arrays of shape (..., n+1).  The
    direct side samples independent uniform pairs.  The plane side draws
    Haar circles and evaluates each in-circle double integral by the
    spectral product rule of _circle_weights on a nodes x nodes grid: the
    |sin|^(n-1) weight is integrated exactly, and the rule is exact for any
    f whose degree in each circle angle is below nodes / 2 (degree 2 for
    the const and dot2 kernels and for x_0^2 y_1^2).  The grid holds the
    diagonal x = y, whose weight is not 0, so f must be finite there: a
    kernel singular on the diagonal, such as d(x, y)^-(n+s), gives an
    infinite or NaN integral and raises NonFiniteSampleError.  n < 1,
    n > 260 (where omega_(n+1)^2 is subnormal), planes < 1 and nodes < 2
    are ValueErrors, raised before either side runs.

    Both sides are mc_estimate means: the direct side over pairs, the plane
    side over planes in chunks of _PLANE_BLOCK, each chunk drawing its
    frames from its own child stream and calling f once for all its
    circles.  Chunks run on worker threads, so f may be called from several
    threads at once and must not share mutable state.  The report is the
    same to the bit on any number of CPUs.  Raises NonFiniteSampleError if
    a direct sample or a plane's integral is NaN or infinite, naming the
    lowest-numbered failing sample or plane.
    """
    if n < 1:
        raise ValueError(f"great circles need a sphere of dimension n >= 1, got {n}")
    if n > _MAX_BP_DIMENSION:
        raise ValueError(
            f"bp_check supports n <= {_MAX_BP_DIMENSION}, got {n}: beyond it omega_(n+1)^2 "
            "is subnormal or overflows"
        )
    if planes < 1:
        raise ValueError("need at least one plane")
    if nodes < 2:
        raise ValueError("need at least two nodes per circle")
    stream = as_stream(rng)
    direct_stream, plane_stream = stream.split(2)
    total = sphere_surface(n)

    def sampler(count, gen):
        return sample_uniform(n, count, gen), sample_uniform(n, count, gen)

    def integrand(batch):
        x, y = batch
        return np.asarray(f(x, y), dtype=float) * total * total

    direct = mc_estimate(sampler, integrand, pairs, direct_stream)

    c = bp_constant(n)
    weights = _circle_weights(n, nodes)
    haar_frames = lambda count, gen: sample_plane_batch(n, count, gen)
    circle_integrals = lambda frames: c * _circle_integrals(f, *frames, weights)
    plane_est = mc_estimate(haar_frames, circle_integrals, planes, plane_stream, chunk_size=_PLANE_BLOCK)
    return BPReport(direct, plane_est, c)


@dataclass(frozen=True)
class CroftonReport:
    crossings: Estimate
    target: float | None
    degenerate_resamples: int

    @property
    def deviation_sigmas(self) -> float | None:
        """|mean - target| over the standard error; None without a target,
        NaN when the error is infinite (one circle)."""
        if self.target is None:
            return None
        if math.isinf(self.crossings.std_error):
            return math.nan
        if self.crossings.std_error == 0.0:
            return math.inf if self.crossings.value != self.target else 0.0
        return abs(self.crossings.value - self.target) / self.crossings.std_error


def _haar_rotation(gen: np.random.Generator) -> np.ndarray:
    """Haar-random 3x3 orthogonal matrix: the Q of a Gaussian matrix's QR,
    its columns' signs fixed by the diagonal of R."""
    q, r = np.linalg.qr(gen.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def _lattice(start: int, stop: int, size: int):
    """(z, rho, cos phi, sin phi) of rows start .. stop-1 of the size-point
    Fibonacci lattice on S^2, whose row i is the point
    (rho cos phi, rho sin phi, z), z = 1 - (2i+1)/size, rho = sqrt(1 - z^2),
    phi = i pi (3 - sqrt 5)."""
    i = np.arange(start, stop, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / size
    rho = np.sqrt((1.0 - z) * (1.0 + z))
    i *= _GOLDEN_ANGLE
    return z, rho, np.cos(i), np.sin(i)


def _lattice_frames(start: int, stop: int, poles: int):
    """Frames (es, fs) of the great circles whose poles are rows start ..
    stop-1 of the Fibonacci lattice (_lattice): e = (-sin phi, cos phi, 0),
    f = (-z cos phi, -z sin phi, rho)."""
    z, rho, cos_phi, sin_phi = _lattice(start, stop, poles)
    es = np.zeros((stop - start, 3))
    fs = np.empty((stop - start, 3))
    es[:, 0] = -sin_phi
    es[:, 1] = cos_phi
    fs[:, 0] = -z * cos_phi
    fs[:, 1] = -z * sin_phi
    fs[:, 2] = rho
    return es, fs


def _rotated_lattice_mean(samples: int, rng, lattice, rotation) -> Estimate:
    """Randomized quasi-Monte Carlo mean over R = min(_ROTATIONS, samples)
    Haar rotations of a Fibonacci lattice of size = samples // R rows on
    S^2: an mc_estimate with one sample per rotation, so the Estimate's
    samples is R and its error bar has R - 1 degrees of freedom.

    lattice(start, stop, size) builds rows of the unrotated lattice:
    _lattice_frames here, and the lattice's points in the point-pair
    estimator of tests/oracles.py.  Each rotation draws its Haar rotation q
    first from its own child stream gen, then calls rotation(q, gen) once;
    that returns block(first, rows), the sum of the per-row values of a
    block of rows under q, which may draw more from gen.  first numbers the block's first row among all R * size:
    rotation r's row i is r * size + i.  The rotation's sample is the sum
    over its blocks over size.  A block holds at most _TRACE_BLOCK rows:
    the unrotated lattice is built once per call when it fits in one block,
    and block by block in every rotation otherwise, so memory stays flat in
    samples.  The result is the same to the bit on any number of CPUs.
    """
    rotations = min(_ROTATIONS, samples)
    size = samples // rotations
    blocks = [(a, min(a + _TRACE_BLOCK, size)) for a in range(0, size, _TRACE_BLOCK)]
    shared = lattice(0, size, size) if len(blocks) == 1 else None
    stream = as_stream(rng)
    # mc_estimate hands chunk r the stream's child number first_child + r
    first_child = stream.seed_sequence.n_children_spawned

    def rotation_mean(count, gen):  # count is 1: a chunk is one rotation
        offset = (gen.bit_generator.seed_seq.spawn_key[-1] - first_child) * size
        block = rotation(_haar_rotation(gen), gen)
        total = 0.0
        for a, b in blocks:
            total += block(offset + a, shared if shared is not None else lattice(a, b, size))
        return np.array([total / size])

    return mc_estimate(rotation_mean, lambda means: means, rotations, stream, chunk_size=1)


def _circle_mean(E, circle_values, planes: int, rng):
    """Mean of circle_values(start, length) over Haar great circles, and the
    count of degenerate circles redrawn.

    circle_values maps a block of sets.trace arcs, shapes (m, K), to the m
    circles' values.  On S^2 (n = 2) the mean is _rotated_lattice_mean's
    over R = min(_ROTATIONS, planes) rotations of a lattice of planes // R
    poles (_lattice_frames), so R * (planes // R) circles are traced.  A
    rotation q traces the rotated set sets.rotated(E, q^T) on the unrotated
    lattice, which is the lattice rotated by q traced on E.  On other
    spheres the mean is an mc_estimate over iid Haar circles in chunks of
    _TRACE_BLOCK.

    Each rotation or chunk draws from its own child stream: first q, then
    the iid Haar circles (sample_plane_batch) that replace its degenerate
    circles, at most _MAX_RESAMPLE_ROUNDS times per block (then
    DegenerateCircleError).  The result is therefore a deterministic
    function of (seed, planes, _TRACE_BLOCK), the same to the bit on any
    number of CPUs.  planes < 1 is a ValueError.
    """
    if planes < 1:
        raise ValueError("need at least one plane")
    n = E.dimension
    resamples = []  # one entry per block, in any order

    def resolved(traced, es, fs, gen):
        # values of the circles (es, fs) on the set traced, degenerate ones redrawn
        start, length, bad = trace(traced, es, fs)
        values = circle_values(start, length)
        idx = np.flatnonzero(bad)
        redrawn = 0
        for _ in range(_MAX_RESAMPLE_ROUNDS):
            if idx.size == 0:
                break
            redrawn += idx.size
            start, length, bad = trace(E, *sample_plane_batch(n, idx.size, gen))
            values[idx] = circle_values(start, length)
            idx = idx[bad]
        if idx.size:
            raise DegenerateCircleError(
                f"{idx.size} circles still degenerate after {_MAX_RESAMPLE_ROUNDS} resample rounds"
            )
        resamples.append(redrawn)
        return values

    if n == 2:
        def rotation(q, gen):
            turned = rotated(E, q.T)
            return lambda first, frames: float(np.sum(resolved(turned, *frames, gen)))

        est = _rotated_lattice_mean(planes, rng, _lattice_frames, rotation)
    else:
        iid = lambda count, gen: resolved(E, *sample_plane_batch(n, count, gen), gen)
        est = mc_estimate(iid, lambda values: values, planes, rng, chunk_size=_TRACE_BLOCK)
    return est, sum(resamples)


def _crossing_counts(start, length):
    """Boundary crossings of each circle: twice its arcs that are neither
    empty nor full."""
    return 2.0 * np.count_nonzero((length > 0.0) & (length < TWO_PI), axis=1)


def crofton_estimate(E, planes: int = 100_000, rng=None) -> CroftonReport:
    """Mean boundary crossing count over Haar circles, with its Crofton target.

    A circle crosses the boundary twice per arc of its trace (sets.trace)
    that is neither empty nor the full circle.  Degenerate circles
    (tangencies and corner passes, margin 1e-9) are redrawn as iid Haar
    circles (sample_plane_batch) and counted; the target
    (2/omega_n) H^(n-1)(boundary E) is attached when the set knows its
    boundary measure.  planes < 1 is a ValueError: a mean over no circles is
    not an exact zero.

    The mean is _circle_mean's.  On S^2 (n = 2) the circles are
    R = min(_ROTATIONS, planes) independent Haar rotations of a Fibonacci
    lattice of planes // R poles, so R * (planes // R) circles are traced,
    up to R - 1 fewer than planes.  Every rotated pole is uniform, so each
    rotation's mean crossing count is unbiased, and the lattice makes it far
    less variable than a mean of as many iid circles: crossings.samples is
    R, and its standard error is the spread of the R rotation means, with
    R - 1 degrees of freedom.  On other spheres the circles are iid and
    crossings.samples is planes.  A block or chunk redraws its degenerate
    circles at most _MAX_RESAMPLE_ROUNDS times (then DegenerateCircleError),
    and the report is the same to the bit on any number of CPUs.
    """
    est, resamples = _circle_mean(E, _crossing_counts, planes, rng)
    n = E.dimension
    bm = E.boundary_measure()
    target = None if bm is None else 2.0 * bm / sphere_surface(n - 1)
    return CroftonReport(est, target, resamples)


def _antipodal_gains(start, length):
    """|A u (A + pi)| - |A| for the disjoint slots A of each row: the arc
    the antipodal image adds, as 2 pi less the complement of A's slots and
    their half turns, less |A|."""
    both = np.concatenate([start, _half_turn(start)], axis=1)
    _, gaps = _gaps(both, np.concatenate([length, length], axis=1))
    return TWO_PI - gaps.sum(axis=1) - length.sum(axis=1)


def symmetric_overlap_measure(E, samples: int = 100_000, rng=None) -> Estimate:
    """H^n((-E) intersect E^c), the mass the antipodal image gains over E.

    Exact for caps: a(min(r, pi - r)).  Otherwise -E traces A + pi where E
    traces A, and a circle's gain |A u (A + pi)| - |A| is exact arc algebra
    on the sets.trace slots: exact on S^1, where the one circle is the
    sphere.  A uniform point of a Haar circle is uniform on S^n, so for
    n >= 2 the measure is omega_(n+1) / (2 pi) times the mean gain over
    samples circles (_circle_mean, as for crofton_estimate; rng required).
    """
    n = E.dimension
    if isinstance(E, Cap):
        return Estimate.exact(cap_area(n, min(E.radius, math.pi - E.radius)))
    if n == 1:
        axes = np.eye(2)
        start, length, _ = trace(E, axes[:1], axes[1:])
        return Estimate.exact(float(_antipodal_gains(start, length)[0]))
    scale = sphere_surface(n) / TWO_PI
    est, _ = _circle_mean(E, lambda start, length: scale * _antipodal_gains(start, length), samples, rng)
    return est
