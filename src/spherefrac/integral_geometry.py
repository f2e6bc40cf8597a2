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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import Estimate, NonFiniteSampleError, _map_ordered, as_stream, mc_estimate
from .geometry import _row_dots, _row_norms, sample_uniform, sphere_surface
from .sets import TWO_PI, DegenerateCircleError, trace


def bp_constant(n: int) -> float:
    """c_n = omega_(n+1) omega_n / (omega_1 omega_2); c_2 = 2 pi."""
    return sphere_surface(n) * sphere_surface(n - 1) / (sphere_surface(0) * sphere_surface(1))


def sample_plane_batch(n: int, count: int, gen: np.random.Generator):
    """Orthonormal frames (es, fs) of count Haar planes, shape (count, n+1) each.

    Gram-Schmidt in place: es and fs are drawn as two (count, n+1) Gaussian
    arrays, es is normalized, and fs is projected off es and normalized.
    Rows with a norm of 1e-12 or below, before or after the projection (a
    probability-zero event), are redrawn in rounds: each round draws new es
    rows, then new fs rows, for the rows still bad, in row order.

    The two Gaussian draws are made in the calling thread; the Gram-Schmidt
    runs in row blocks on worker threads (_for_blocks).  Every row is
    computed on its own, so the frames are the same to the bit on any
    number of CPUs.
    """
    es = gen.standard_normal((count, n + 1))
    fs = gen.standard_normal((count, n + 1))
    bad = np.empty(count, dtype=bool)

    def block(rows):
        bad[rows] = _orthonormalize(es[rows], fs[rows])

    _for_blocks(block, count, _TRACE_BLOCK)
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


# Rows per task of sample_plane_batch and circles per sets.trace call in
# crofton_estimate; no result depends on it.  Every worker holds one block's
# trace temporaries, several times the block's frames, so the block is half
# the 1 << 16 of the serial path: octant crofton at 1e6 planes on 2 CPUs
# peaks at about 130 MB, against 136 MB with 1 << 16 and 148 MB serial.
# 1 << 14 made the traces 20% slower.
_TRACE_BLOCK = 1 << 15
# planes per task of bp_check's plane side
_PLANE_BLOCK = 16


def _for_blocks(fn, count: int, size: int) -> None:
    """fn(rows) for the slices rows = [lo, lo + size) covering range(count),
    as tasks on worker threads (estimation._map_ordered)."""
    _map_ordered(lambda i: fn(slice(i * size, (i + 1) * size)), -(-count // size))


@dataclass(frozen=True)
class BPReport:
    """Both sides of the two-point plane identity, with their errors."""

    direct: Estimate
    plane_side: Estimate
    constant: float

    @property
    def deviation_sigmas(self) -> float:
        gap = abs(self.direct.value - self.plane_side.value)
        combined = math.hypot(self.direct.std_error, self.plane_side.std_error)
        return gap / combined if combined > 0 else math.inf


def bp_check(n: int, f, pairs: int = 1_000_000, planes: int = 1000, rng=None, nodes: int = 256) -> BPReport:
    """Monte Carlo check of the two-point plane identity for a kernel f.

    f(x, y) must broadcast over point arrays of shape (..., n+1).  The
    direct side samples independent uniform pairs.  The plane side draws
    Haar circles and evaluates the in-circle double integral by a midpoint
    tensor rule at nodes^2 points; the midpoint offset keeps the |sin|^(n-1)
    weight kink off the grid diagonal.  planes < 1 and nodes < 2 are
    ValueErrors.

    Both sides run on worker threads (mc_estimate, and ranges of planes),
    so f may be called from several threads at once and must not share
    mutable state; the report is the same to the bit on any number of
    CPUs.  Raises NonFiniteSampleError if a direct sample or a plane's
    integral is NaN or infinite, naming the lowest-numbered failing plane.
    """
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
    es, fs = sample_plane_batch(n, planes, plane_stream.generator)
    c = bp_constant(n)
    plane_est = Estimate.from_values(c * _circle_integrals(n, f, es, fs, nodes))
    return BPReport(direct, plane_est, c)


def _circle_integrals(n, f, es, fs, nodes):
    """Midpoint tensor rule for the double integral of f |sin|^(n-1) over
    each circle (es[i], fs[i]), in ranges of _PLANE_BLOCK planes per task."""
    h = 2.0 * math.pi / nodes
    phis = (np.arange(nodes) + 0.5) * h
    weights = np.abs(np.sin(phis[:, None] - phis[None, :])) ** (n - 1)
    cos_phi, sin_phi = np.cos(phis)[:, None], np.sin(phis)[:, None]
    vals = np.empty(es.shape[0])

    def block(planes):
        for i in range(vals.size)[planes]:
            pts = cos_phi * es[i] + sin_phi * fs[i]
            fmat = np.asarray(f(pts[:, None, :], pts[None, :, :]), dtype=float)
            value = h * h * float(np.sum(fmat * weights))
            if not math.isfinite(value):
                raise NonFiniteSampleError(f"non-finite circle integral {value!r} at plane {i}")
            vals[i] = value

    _for_blocks(block, vals.size, _PLANE_BLOCK)
    return vals


@dataclass(frozen=True)
class CroftonReport:
    crossings: Estimate
    target: float | None
    degenerate_resamples: int

    @property
    def deviation_sigmas(self) -> float | None:
        if self.target is None:
            return None
        if self.crossings.std_error == 0.0:
            return math.inf if self.crossings.value != self.target else 0.0
        return abs(self.crossings.value - self.target) / self.crossings.std_error


def _crossings(E, es, fs):
    m = es.shape[0]
    counts = np.empty(m)
    degenerate = np.empty(m, dtype=bool)

    def block(rows):
        _, length, bad = trace(E, es[rows], fs[rows])
        counts[rows] = 2.0 * np.count_nonzero((length > 0.0) & (length < TWO_PI), axis=1)
        degenerate[rows] = bad

    _for_blocks(block, m, _TRACE_BLOCK)
    return counts, degenerate


def crofton_estimate(E, planes: int = 100_000, rng=None, max_resample_rounds: int = 100) -> CroftonReport:
    """Mean boundary crossing count over Haar circles, with its Crofton target.

    A circle crosses the boundary twice per arc of its trace (sets.trace)
    that is neither empty nor the full circle.  Degenerate circles
    (tangencies and corner passes, margin 1e-9) are resampled in place and
    counted; the target (2/omega_n) H^(n-1)(boundary E) is attached when
    the set knows its boundary measure.  planes < 1 is a ValueError: a mean
    over no circles is not an exact zero.

    Frames and traces run in blocks of _TRACE_BLOCK circles on worker
    threads, one per CPU this process may use; each block writes its own
    rows, so the report is the same to the bit on any number of CPUs.
    """
    if planes < 1:
        raise ValueError("need at least one plane")
    n = E.dimension
    gen = as_stream(rng).generator
    es, fs = sample_plane_batch(n, planes, gen)
    counts, bad = _crossings(E, es, fs)
    resamples = 0
    rounds = 0
    while np.any(bad):
        rounds += 1
        if rounds > max_resample_rounds:
            raise DegenerateCircleError(
                f"{int(bad.sum())} circles still degenerate after {max_resample_rounds} resample rounds"
            )
        resamples += int(bad.sum())
        es_new, fs_new = sample_plane_batch(n, int(bad.sum()), gen)
        c_new, bad_new = _crossings(E, es_new, fs_new)
        idx = np.flatnonzero(bad)
        counts[idx] = c_new
        bad[idx] = bad_new
    bm = E.boundary_measure()
    target = None if bm is None else 2.0 * bm / sphere_surface(n - 1)
    return CroftonReport(Estimate.from_values(counts), target, resamples)
