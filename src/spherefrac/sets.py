"""Measurable subsets of S^n: caps, geodesic polytopes, unions, arc unions.

Membership tests are vectorized: `points` arguments are arrays of shape
(..., n+1) of unit vectors and the result has the leading shape.  Boundary
distances are lower bounds on the true distance to the topological boundary,
which is exactly what the positive-s estimators need (they may only skip a
shell that is certain to stay on one side).

`trace` is the one great-circle primitive: for a batch of frames (e, f) it
returns the exact parameter arcs of phi -> cos(phi) e + sin(phi) f inside a
set, as open arcs (start, start + length) with start reduced mod 2 pi,
length 0 for an empty slot and 2 pi for the full circle, together with a
mask of the circles that are tangent to the boundary or pass through a
polytope corner to within DEGENERACY_MARGIN = 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimation import Estimate, as_stream, mc_estimate
from .geometry import (
    cap_area,
    circle_distance,
    geodesic_distance,
    sample_uniform,
    sphere_surface,
    unit_vector,
    volume_radius,
)

TWO_PI = 2.0 * math.pi


class DegenerateCircleError(RuntimeError):
    """A great circle is tangent to (or grazes a corner of) the set boundary."""


@dataclass(frozen=True)
class Cap:
    """Open geodesic cap {x : d(center, x) < radius} on S^n.

    Membership is the dot product test x . center > cos(radius), the same
    open cap as d(center, x) < radius: radius 0 is empty (a dot product may
    exceed 1 by an ulp, so it gets no threshold) and radius pi is everything
    but the antipode of the center.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", unit_vector(self.center))
        r = float(self.radius)
        if not (0.0 <= r <= math.pi):
            raise ValueError(f"cap radius must lie in [0, pi], got {r}")
        object.__setattr__(self, "radius", r)

    @property
    def dimension(self) -> int:
        return self.center.size - 1

    def contains(self, points) -> np.ndarray:
        threshold = math.cos(self.radius) if self.radius > 0.0 else math.inf
        return np.asarray(points, dtype=float) @ self.center > threshold

    def boundary_distance(self, points) -> np.ndarray:
        return np.abs(self.radius - geodesic_distance(points, self.center))

    def boundary_measure(self) -> float:
        n = self.dimension
        return sphere_surface(n - 1) * math.sin(self.radius) ** (n - 1)

    def exact_measure(self) -> float:
        return cap_area(self.dimension, self.radius)


@dataclass(frozen=True)
class Polytope:
    """Intersection of closed hemispheres {x : x . u <= 0} over outward normals u.

    Membership ANDs one matrix-vector product x . u <= 0 per face, which
    holds no (N, k) array.  The boundary distance takes the face dot
    products face-major, as (k, N), so that each face's arccos runs on one
    contiguous row before the np.minimum fold.  The nonempty-interior flag
    is caller-asserted; nothing here verifies it.
    """

    normals: np.ndarray
    assume_nonempty_interior: bool = True

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.normals, dtype=float))
        if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] < 2:
            raise ValueError("normals must be a nonempty (k, n+1) array")
        norms = np.linalg.norm(u, axis=1)
        if np.any(norms == 0.0) or not np.all(np.isfinite(u)):
            raise ValueError("normals must be finite and nonzero")
        object.__setattr__(self, "normals", u / norms[:, None])

    @property
    def dimension(self) -> int:
        return self.normals.shape[1] - 1

    def contains(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        inside = points @ self.normals[0] <= 0.0
        for u in self.normals[1:]:
            inside &= points @ u <= 0.0
        return inside

    def boundary_distance(self, points) -> np.ndarray:
        # distance to the nearest face great-subsphere: |pi/2 - angle to its
        # normal|, folded over the faces' rows of dot products
        points = np.asarray(points, dtype=float)
        out = None
        for dots in self.normals @ points.reshape(-1, points.shape[-1]).T:
            d = np.abs(0.5 * math.pi - np.arccos(np.clip(dots, -1.0, 1.0)))
            out = d if out is None else np.minimum(out, d)
        return out.reshape(points.shape[:-1])

    def _face_arcs(self):
        """Each face's trace arc on S^2: (j, e, f, start, length) for face j
        with its circle phi -> cos(phi) e + sin(phi) f, where the arc is the
        trace of the other faces (the full circle for a single face).  None
        for n != 2, and when a face circle is degenerate for the other faces
        (three faces through one vertex, or two faces on one great circle)."""
        if self.dimension != 2:
            return None
        k = self.normals.shape[0]
        arcs = []
        for j in range(k):
            e, f = np.linalg.svd(self.normals[j : j + 1])[2][1:]
            if k == 1:
                return [(j, e, f, 0.0, TWO_PI)]
            others = Polytope(np.delete(self.normals, j, axis=0))
            start, length, degenerate = trace(others, e[None], f[None])
            if degenerate[0]:
                return None
            arcs.append((j, e, f, float(start[0, 0]), float(length[0, 0])))
        return arcs

    def boundary_measure(self):
        """Boundary length on S^2: the sum of the face arcs; None wherever
        _face_arcs is None."""
        arcs = self._face_arcs()
        return None if arcs is None else sum(length for *_, length in arcs)

    def exact_measure(self):
        """Area on S^2 by Gauss-Bonnet: 2 pi minus the exterior angles
        arccos(u_i . u_j) at the vertices, where faces i and j meet at an end
        of face j's arc (face i is the one whose great circle passes closest
        to that end).  Every vertex ends two arcs, so each end adds half its
        angle; a boundary with no vertex is one great circle.  Faces with no
        arc enclose nothing: the area is 0.  None wherever _face_arcs is
        None."""
        arcs = self._face_arcs()
        if arcs is None:
            return None
        if not any(length > 0.0 for *_, length in arcs):
            return 0.0
        total = TWO_PI
        for j, e, f, start, length in arcs:
            if 0.0 < length < TWO_PI:
                for phi in (start, start + length):
                    vertex = math.cos(phi) * e + math.sin(phi) * f
                    dots = np.abs(self.normals @ vertex)
                    dots[j] = math.inf
                    cos_angle = float(self.normals[j] @ self.normals[int(np.argmin(dots))])
                    total -= 0.5 * math.acos(min(1.0, max(-1.0, cos_angle)))
        return total


@dataclass(frozen=True)
class PolyconvexUnion:
    """Finite union of caps/polytopes; disjointness is caller-asserted."""

    parts: tuple
    assume_disjoint: bool = True

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("union needs at least one part")
        dims = {p.dimension for p in parts}
        if len(dims) != 1:
            raise ValueError(f"union parts live on different spheres: dimensions {sorted(dims)}")
        object.__setattr__(self, "parts", parts)

    @property
    def dimension(self) -> int:
        return self.parts[0].dimension

    def contains(self, points) -> np.ndarray:
        out = self.parts[0].contains(points)
        for p in self.parts[1:]:
            out = out | p.contains(points)
        return out

    def boundary_distance(self, points):
        # valid as a lower bound when the parts are disjoint
        dists = [p.boundary_distance(points) for p in self.parts]
        if any(d is None for d in dists):
            return None
        return np.min(np.stack(dists, axis=-1), axis=-1)

    def boundary_measure(self):
        if not self.assume_disjoint:
            return None
        vals = [p.boundary_measure() for p in self.parts]
        if any(v is None for v in vals):
            return None
        return float(sum(vals))

    def exact_measure(self):
        if not self.assume_disjoint:
            return None
        vals = [p.exact_measure() for p in self.parts]
        if any(v is None for v in vals):
            return None
        return float(sum(vals))

    def probably_disjoint(self, rng, samples: int = 10000) -> bool:
        """Sample-based disjointness check: no point may hit two parts."""
        gen = as_stream(rng).generator
        x = sample_uniform(self.dimension, samples, gen)
        hits = np.zeros(samples, dtype=int)
        for p in self.parts:
            hits += p.contains(x).astype(int)
        return bool(np.all(hits <= 1))


@dataclass(frozen=True)
class Complement:
    """Complement of a set; shares its boundary."""

    inner: object

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    def contains(self, points) -> np.ndarray:
        return ~self.inner.contains(points)

    def boundary_distance(self, points):
        return self.inner.boundary_distance(points)

    def boundary_measure(self):
        return self.inner.boundary_measure()

    def exact_measure(self):
        m = self.inner.exact_measure()
        if m is None:
            return None
        return sphere_surface(self.dimension) - m


@dataclass(frozen=True)
class Reflection:
    """Antipodal image -E = {-x : x in E}."""

    inner: object

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    def contains(self, points) -> np.ndarray:
        return self.inner.contains(-np.asarray(points, dtype=float))

    def boundary_distance(self, points):
        return self.inner.boundary_distance(-np.asarray(points, dtype=float))

    def boundary_measure(self):
        return self.inner.boundary_measure()

    def exact_measure(self):
        return self.inner.exact_measure()


# ---------------------------------------------------------------------------
# circle sets (n = 1)


def _normalize_arcs(arcs):
    cleaned = []
    for start, length in arcs:
        length = float(length)
        if length <= 0.0:
            raise ValueError(f"arc length must be positive, got {length}")
        if length > TWO_PI + 1e-12:
            raise ValueError(f"arc length exceeds the circle, got {length}")
        cleaned.append((float(start) % TWO_PI, min(length, TWO_PI)))
    cleaned.sort()
    return cleaned


@dataclass(frozen=True)
class ArcUnion:
    """Union of disjoint open arcs on S^1, each as (start, length) in radians.

    Starts are reduced mod 2 pi and sorted; overlapping arcs are a
    construction error (touching endpoints are allowed).  An empty list is
    the empty set; total length 2 pi is the full circle.
    """

    arcs: tuple = field(default_factory=tuple)

    def __post_init__(self):
        cleaned = _normalize_arcs(self.arcs)
        total = sum(length for _, length in cleaned)
        if total > TWO_PI + 1e-9:
            raise ValueError(f"arcs cover more than the circle: total length {total}")
        for i in range(1, len(cleaned)):
            prev_end = cleaned[i - 1][0] + cleaned[i - 1][1]
            if cleaned[i][0] < prev_end - 1e-12:
                raise ValueError("arcs overlap after normalization")
        if len(cleaned) > 1:
            wrap_end = cleaned[-1][0] + cleaned[-1][1]
            if wrap_end > TWO_PI + cleaned[0][0] + 1e-12:
                raise ValueError("arcs overlap across the wrap point")
        object.__setattr__(self, "arcs", tuple(cleaned))

    @property
    def dimension(self) -> int:
        return 1

    def measure(self) -> float:
        return float(sum(length for _, length in self.arcs))

    def exact_measure(self) -> float:
        return self.measure()

    def is_full(self) -> bool:
        return self.measure() >= TWO_PI - 1e-12

    def is_empty(self) -> bool:
        return not self.arcs

    def angles(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.arctan2(pts[..., 1], pts[..., 0]) % TWO_PI

    def contains_angle(self, phi) -> np.ndarray:
        phi = np.asarray(phi, dtype=float) % TWO_PI
        out = np.zeros(phi.shape, dtype=bool)
        for start, length in self.arcs:
            out |= ((phi - start) % TWO_PI) < length
        return out

    def contains(self, points) -> np.ndarray:
        return self.contains_angle(self.angles(points))

    def boundary_distance(self, points):
        if self.is_empty() or self.is_full():
            return np.full(np.asarray(points, dtype=float).shape[:-1], math.pi)
        phi = self.angles(points)
        ends = np.array([e for start, length in self.arcs for e in (start, start + length)])
        return np.min(circle_distance(phi[..., None], ends[None, :]), axis=-1)

    def boundary_measure(self) -> float:
        """H^0 of the boundary: two endpoints per arc, none for empty/full."""
        if self.is_empty() or self.is_full():
            return 0.0
        return 2.0 * len(self.arcs)

    def gaps(self) -> "ArcUnion":
        """Complementary arcs (the closure's complement, up to endpoints)."""
        if self.is_empty():
            return ArcUnion([(0.0, TWO_PI)])
        if self.is_full():
            return ArcUnion([])
        out = []
        k = len(self.arcs)
        for i in range(k):
            end = self.arcs[i][0] + self.arcs[i][1]
            nxt = self.arcs[(i + 1) % k][0] + (TWO_PI if i == k - 1 else 0.0)
            if nxt - end > 1e-12:
                out.append((end % TWO_PI, nxt - end))
        return ArcUnion(out)

    def shifted(self, delta: float) -> "ArcUnion":
        return ArcUnion([(start + delta, length) for start, length in self.arcs])

    def intersect(self, other: "ArcUnion") -> "ArcUnion":
        """Intersection, again as a disjoint ArcUnion."""
        if self.is_empty() or other.is_empty():
            return ArcUnion([])
        if self.is_full():
            return other
        if other.is_full():
            return self
        out = []
        for sa, la in self.arcs:
            for sb, lb in other.arcs:
                # shift b's start next to a and clip
                sb_rel = (sb - sa) % TWO_PI
                for offset in (0.0, -TWO_PI):
                    lo = max(0.0, sb_rel + offset)
                    hi = min(la, sb_rel + offset + lb)
                    if hi - lo > 1e-12:
                        out.append(((sa + lo) % TWO_PI, hi - lo))
        return ArcUnion(out)


# ---------------------------------------------------------------------------
# derived operations


def rearrangement(n: int, measure: float, center) -> Cap:
    """Cap at `center` with prescribed H^n measure (the symmetric rearrangement)."""
    return Cap(np.asarray(center, dtype=float), volume_radius(n, measure))


def symmetric_overlap_measure(E, samples: int = 100000, rng=None) -> Estimate:
    """H^n((-E) intersect E^c), the mass the antipodal image gains over E.

    Exact for caps (a(min(r, pi - r))) and for arc unions (arc algebra);
    otherwise an mc_estimate over samples uniform points, with a standard
    error, in which case rng is required.
    """
    if isinstance(E, Cap):
        r = E.radius
        return Estimate.exact(cap_area(E.dimension, min(r, math.pi - r)))
    if isinstance(E, ArcUnion):
        return Estimate.exact(E.shifted(math.pi).intersect(E.gaps()).measure())
    if rng is None:
        raise ValueError("Monte Carlo overlap needs an rng")
    n = E.dimension
    total = sphere_surface(n)

    def gained(x):
        return (E.contains(-x) & ~E.contains(x)) * total

    return mc_estimate(lambda count, gen: sample_uniform(n, count, gen), gained, samples, rng)


# ---------------------------------------------------------------------------
# traces on great circles

DEGENERACY_MARGIN = 1e-9


def trace(E, es, fs):
    """Exact arcs of {phi : cos(phi) e + sin(phi) f in E} on a batch of circles.

    es and fs are orthonormal frames of shape (m, n+1), as
    integral_geometry.sample_plane_batch returns them.  The result is
    (start, length, degenerate): start and length have shape (m, K), where
    K is fixed by the set (1 for a cap or a polytope, the sum over parts for
    a union, the arc count for an arc union, the inner K but at least 1 for
    a complement, the inner K for a reflection).
    Slot k of row i is the open parameter arc (start, start + length) with
    start reduced mod 2 pi; an empty slot has length 0 and the full circle
    has length 2 pi, so a row crosses the boundary 2 * #{0 < length < 2 pi}
    times.  degenerate, shape (m,), flags circles tangent to the boundary or
    through a polytope corner, to the margin 1e-9; their arcs are not
    reliable.

    Caps are solved in closed form (membership pulls back to
    A cos(phi - phi0) > cos r).  A polytope's arc runs between the zeros
    atan2(f.u, e.u) +- pi/2 of its faces that satisfy every other face,
    which one cross product per face pair decides (_polytope_trace).
    A complement's arcs are the gaps of the inner trace; a reflection's are
    the inner arcs shifted by pi, as point(phi + pi) = -point(phi).  On S^1
    (arc unions) the circle is the whole sphere, so the arcs are the set's
    own, in the frame's parameter.
    """
    es = np.asarray(es, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if isinstance(E, Cap):
        return _cap_trace(E, es, fs)
    if isinstance(E, Polytope):
        return _polytope_trace(E, es, fs)
    if isinstance(E, PolyconvexUnion):
        parts = [trace(p, es, fs) for p in E.parts]
        start = np.concatenate([p[0] for p in parts], axis=1)
        length = np.concatenate([p[1] for p in parts], axis=1)
        return start, length, np.logical_or.reduce([p[2] for p in parts])
    if isinstance(E, Complement):
        start, length, degenerate = trace(E.inner, es, fs)
        return (*_gaps(start, length), degenerate)
    if isinstance(E, Reflection):
        start, length, degenerate = trace(E.inner, es, fs)
        return (start + math.pi) % TWO_PI, length, degenerate
    if isinstance(E, ArcUnion):
        return _arc_union_trace(E, es, fs)
    raise TypeError(f"no great-circle trace for {type(E).__name__}")


def _cap_trace(E: Cap, es, fs):
    a = es @ E.center
    b = fs @ E.center
    amp = np.hypot(a, b)
    cos_r = math.cos(E.radius)
    crosses = amp > abs(cos_r)
    half = np.arccos(np.clip(cos_r / np.maximum(amp, 1e-300), -1.0, 1.0))
    start = np.where(crosses, _wrap(np.arctan2(b, a) - half), 0.0)
    length = np.where(crosses, 2.0 * half, TWO_PI if cos_r < 0.0 else 0.0)
    degenerate = np.abs(amp - abs(cos_r)) < DEGENERACY_MARGIN
    return start[:, None], length[:, None], degenerate


def _polytope_trace(E: Polytope, es, fs):
    """Face i pulls back to a_i cos(phi) + b_i sin(phi) <= 0, a closed half
    circle entered at phi_j = atan2(b_j, a_j) + pi/2 and left at its - pi/2
    zero; the trace, their intersection, is one arc from the entry to the
    exit that satisfy every other face.

    With rho_j = sqrt(a_j^2 + b_j^2), face i at face j's entry takes the
    value a_i cos(phi_j) + b_i sin(phi_j) = (a_j b_i - a_i b_j) / rho_j, and
    at j's exit the same with the sign flipped.  The cross product is
    antisymmetric in i and j, so one per face pair decides by its sign
    whether face i holds at j's entry (cross < 0) and exit (cross > 0), and
    face j at i's entry (cross > 0) and exit (cross < 0); the 1e-9 margin
    reads |cross| < 1e-9 rho.  No trig is taken except arctan2 for the
    entry and exit that each arc keeps.
    """
    a = E.normals @ es.T  # (k, m): row j is face j's a_j on every circle
    b = E.normals @ fs.T
    k, m = a.shape
    rho = np.sqrt(a * a + b * b)
    # a face whose plane holds the circle has no transversal zeros
    in_plane = rho < DEGENERACY_MARGIN
    degenerate = np.logical_or.reduce(in_plane, axis=0)
    tol = DEGENERACY_MARGIN * rho
    enters = ~in_plane
    leaves = ~in_plane
    for j in range(k):
        for i in range(j + 1, k):
            cross = a[j] * b[i] - a[i] * b[j]  # face i at j's entry, times rho_j
            size = np.abs(cross)
            degenerate |= (size < tol[j]) | (size < tol[i])
            neg = cross < 0.0
            pos = cross > 0.0
            enters[j] &= neg
            leaves[j] &= pos
            enters[i] &= pos
            leaves[i] &= neg
    # the last valid face wins; several only occur on degenerate circles
    entry_face = np.full(m, -1)
    exit_face = np.full(m, -1)
    for j in range(k):
        entry_face[enters[j]] = j
        exit_face[leaves[j]] = j
    rows = np.flatnonzero((entry_face >= 0) & (exit_face >= 0))
    at_entry = entry_face[rows] * m + rows  # flat indices into (k, m)
    at_exit = exit_face[rows] * m + rows
    a, b = a.ravel(), b.ravel()
    entry = np.arctan2(b[at_entry], a[at_entry]) + 0.5 * math.pi
    leave = np.arctan2(b[at_exit], a[at_exit]) - 0.5 * math.pi
    start = np.zeros((m, 1))
    length = np.zeros((m, 1))
    start[rows, 0] = _wrap(entry)
    length[rows, 0] = _wrap(leave - entry)
    return start, length, degenerate


def _wrap(x):
    """x mod 2 pi for x in [-2 pi, 2 pi), the value np.remainder gives
    there, at a fraction of its cost: one conditional whole turn."""
    return np.where(x < 0.0, x + TWO_PI, x)


def _gaps(start, length):
    """Per-row complementary arcs of disjoint (start, length) slots."""
    m, k = start.shape
    if k == 0:
        return np.zeros((m, 1)), np.full((m, 1), TWO_PI)
    nonempty = length > 0.0
    order = np.argsort(np.where(nonempty, start, np.inf), axis=1)
    start = np.take_along_axis(start, order, axis=1)
    end = start + np.take_along_axis(length, order, axis=1)
    count = nonempty.sum(axis=1)[:, None]
    slot = np.arange(k)[None, :]
    # gap i runs from the end of arc i to the start of arc i + 1, and the
    # last one to the first start a turn later
    following = np.where(slot == count - 1, start[:, :1] + TWO_PI, np.roll(start, -1, axis=1))
    used = slot < count
    gap_start = np.where(used, end % TWO_PI, 0.0)
    gap_length = np.where(used, np.maximum(following - end, 0.0), 0.0)
    gap_length[:, 0] = np.where(count[:, 0] == 0, TWO_PI, gap_length[:, 0])
    return gap_start, gap_length


def _arc_union_trace(E: ArcUnion, es, fs):
    # the frame maps phi to the angle rotation + phi, or rotation - phi when
    # it is left-handed
    rotation = np.arctan2(es[:, 1], es[:, 0])[:, None]
    forward = (es[:, 0] * fs[:, 1] - es[:, 1] * fs[:, 0] > 0.0)[:, None]
    arcs = np.array(E.arcs, dtype=float).reshape(-1, 2)
    arc_start, arc_length = arcs[:, 0], arcs[:, 1]
    start = np.where(forward, arc_start - rotation, rotation - arc_start - arc_length) % TWO_PI
    length = np.broadcast_to(arc_length, start.shape).copy()
    return start, length, np.zeros(es.shape[0], dtype=bool)
