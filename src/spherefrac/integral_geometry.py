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

from .estimation import Estimate, as_stream, mc_estimate
from .geometry import sample_uniform, sphere_surface
from .sets import TWO_PI, DegenerateCircleError, trace


def bp_constant(n: int) -> float:
    """c_n = omega_(n+1) omega_n / (omega_1 omega_2); c_2 = 2 pi."""
    return sphere_surface(n) * sphere_surface(n - 1) / (sphere_surface(0) * sphere_surface(1))


def sample_plane_batch(n: int, count: int, gen: np.random.Generator):
    """Orthonormal frames (es, fs) of count Haar planes, shape (count, n+1) each.

    Gram-Schmidt on two Gaussian vectors; degenerate draws (norms below
    1e-12 after projection) are resampled, a probability-zero event.
    """
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
        need[np.flatnonzero(need)[ok]] = False
    return es, fs


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
    weight kink off the grid diagonal.
    """
    stream = as_stream(rng)
    direct_stream, plane_stream = stream.split(2)
    total = sphere_surface(n)

    def sampler(count, gen):
        return sample_uniform(n, count, gen), sample_uniform(n, count, gen)

    def integrand(batch):
        x, y = batch
        return np.asarray(f(x, y), dtype=float) * total * total

    direct = mc_estimate(sampler, integrand, pairs, direct_stream)

    h = 2.0 * math.pi / nodes
    phis = (np.arange(nodes) + 0.5) * h
    weights = np.abs(np.sin(phis[:, None] - phis[None, :])) ** (n - 1)
    gen = plane_stream.generator
    c = bp_constant(n)
    vals = np.empty(planes)
    es, fs = sample_plane_batch(n, planes, gen)
    for i in range(planes):
        pts = np.cos(phis)[:, None] * es[i] + np.sin(phis)[:, None] * fs[i]
        fmat = np.asarray(f(pts[:, None, :], pts[None, :, :]), dtype=float)
        vals[i] = h * h * float(np.sum(fmat * weights))
    plane_est = Estimate.from_values(c * vals)
    return BPReport(direct, plane_est, c)


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
    _, length, degenerate = trace(E, es, fs)
    return 2.0 * np.count_nonzero((length > 0.0) & (length < TWO_PI), axis=1), degenerate


def crofton_estimate(E, planes: int = 100_000, rng=None, max_resample_rounds: int = 100) -> CroftonReport:
    """Mean boundary crossing count over Haar circles, with its Crofton target.

    A circle crosses the boundary twice per arc of its trace (sets.trace)
    that is neither empty nor the full circle.  Degenerate circles
    (tangencies and corner passes, margin 1e-9) are resampled in place and
    counted; the target (2/omega_n) H^(n-1)(boundary E) is attached when
    the set knows its boundary measure.
    """
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
