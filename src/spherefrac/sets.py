"""Measurable subsets of S^n: caps, geodesic polytopes, unions, arc unions.

Membership tests are vectorized: `points` arguments are arrays of shape
(..., n+1) of unit vectors and the result has the leading shape.

`trace` is the one great-circle primitive: for a batch of frames (e, f) it
returns the exact parameter arcs of phi -> cos(phi) e + sin(phi) f inside a
set, as open arcs (start, start + length) with start reduced mod 2 pi,
length 0 for an empty slot and 2 pi for the full circle, together with a
mask of the circles that are tangent to the boundary or pass through a
polytope corner to within DEGENERACY_MARGIN = 1e-9.  `rotated` turns a set
on S^2, so that a rotated batch of circles can be traced as the fixed batch
on the set turned back.

Arc algebra on a circle runs on these (start, length) slots alone, and
takes one operation: the complement (_gaps) of slots that may overlap.  A
union is the complement of its complement, integral_geometry's antipodal
gain is read off the complement of A and its half turn A + pi
(_half_turn), and the kernel's double integrals
(perimeter._GreatCircleKernel.circle_values) read the slots as they are.
Two slot ends within ENDPOINT_MARGIN = 1e-12 of each other, mod 2 pi, are
one point: touching slots leave no gap, so their union is one arc, and
they give the kernel's antiderivative an argument of exactly 0 or 2 pi,
where an ulp between them would read as a sliver of arc, whose
s-perimeter grows without bound as s -> 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import cap_area, sphere_surface, unit_vector

TWO_PI = 2.0 * math.pi
ENDPOINT_MARGIN = 1e-12  # arc ends this close, mod 2 pi, are one point


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

    def boundary_measure(self) -> float:
        """H^(n-1) of the boundary sphere, and exactly 0 for the empty and
        the full cap (radius 0 or pi), where the formula would give 2 for
        the empty cap on S^1 and omega_n sin(pi)^(n-1) for the full cap."""
        if self.radius in (0.0, math.pi):
            return 0.0
        n = self.dimension
        return sphere_surface(n - 1) * math.sin(self.radius) ** (n - 1)

    def exact_measure(self) -> float:
        return cap_area(self.dimension, self.radius)


@dataclass(frozen=True)
class Polytope:
    """Intersection of closed hemispheres {x : x . u <= 0} over outward normals u.

    Membership ANDs one matrix-vector product x . u <= 0 per face, which
    holds no (N, k) array.  Normals are normalized, and of exact duplicates
    the first stays.  Two exactly opposite normals leave no interior, only
    a piece of their common great sphere: such a polytope is empty, with
    measure and boundary measure 0 and an empty trace on every circle.  As
    rounding is symmetric in sign, a negation stays exact when the
    normals are normalized or rotated.
    """

    normals: np.ndarray
    empty: bool = field(init=False)

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.normals, dtype=float))
        if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] < 2:
            raise ValueError("normals must be a nonempty (k, n+1) array")
        norms = np.linalg.norm(u, axis=1)
        if np.any(norms == 0.0) or not np.all(np.isfinite(u)):
            raise ValueError("normals must be finite and nonzero")
        u = u / norms[:, None]
        rows = u.tolist()  # a few faces: list tests beat numpy's per-call cost
        first = [i for i, row in enumerate(rows) if row not in rows[:i]]
        object.__setattr__(self, "normals", u[first])
        object.__setattr__(self, "empty", any([-x for x in row] in rows for row in rows))

    @property
    def dimension(self) -> int:
        return self.normals.shape[1] - 1

    def contains(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        inside = points @ self.normals[0] <= 0.0
        for u in self.normals[1:]:
            inside &= points @ u <= 0.0
        return inside

    def _face_arcs(self):
        """Each face's trace arc on S^2: (j, e, f, start, length) for face j
        with its circle phi -> cos(phi) e + sin(phi) f, where the arc is the
        trace of the other faces (the full circle for a single face).  No
        arcs for an empty polytope, and None for any other on n != 2 or when
        a face circle is degenerate for the other faces (as where three faces
        pass through one vertex)."""
        if self.empty:
            return []
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
        return None if arcs is None else sum((length for *_, length in arcs), 0.0)

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
    """Finite union of sets of one sphere.  Where every pair of parts is
    _shown_disjoint, disjoint holds and the measures are the parts' sums;
    elsewhere they are None."""

    parts: tuple
    disjoint: bool = field(init=False)

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("union needs at least one part")
        dims = {p.dimension for p in parts}
        if len(dims) != 1:
            raise ValueError(f"union parts live on different spheres: dimensions {sorted(dims)}")
        object.__setattr__(self, "parts", parts)
        pairs = ((a, b) for i, a in enumerate(parts) for b in parts[i + 1 :])
        object.__setattr__(self, "disjoint", all(_shown_disjoint(a, b) for a, b in pairs))

    @property
    def dimension(self) -> int:
        return self.parts[0].dimension

    def contains(self, points) -> np.ndarray:
        out = self.parts[0].contains(points)
        for p in self.parts[1:]:
            out = out | p.contains(points)
        return out

    def boundary_measure(self):
        return self._parts_sum("boundary_measure")

    def exact_measure(self):
        return self._parts_sum("exact_measure")

    def _parts_sum(self, measure: str):
        if not self.disjoint:
            return None
        vals = [getattr(p, measure)() for p in self.parts]
        return None if any(v is None for v in vals) else float(sum(vals))


def _shown_disjoint(a, b) -> bool:
    """Exact sufficient rule: caps at least the sum of their radii apart; no
    other pair.  Polytopes on either side of one face are not shown
    disjoint: the face lies inside their union, so their boundary measures
    and crossing counts do not add up."""
    if isinstance(a, Cap) and isinstance(b, Cap):
        # unlike arccos of the dot product, this keeps every digit near 0 and pi
        gap = 2.0 * math.atan2(np.linalg.norm(a.center - b.center),
                               np.linalg.norm(a.center + b.center))
        return gap >= a.radius + b.radius
    return False


@dataclass(frozen=True)
class Complement:
    """Complement of a set; shares its boundary."""

    inner: object

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    def contains(self, points) -> np.ndarray:
        return ~self.inner.contains(points)

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
        if length > TWO_PI + ENDPOINT_MARGIN:
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
            if cleaned[i][0] < prev_end - ENDPOINT_MARGIN:
                raise ValueError("arcs overlap after normalization")
        if len(cleaned) > 1:
            wrap_end = cleaned[-1][0] + cleaned[-1][1]
            if wrap_end > TWO_PI + cleaned[0][0] + ENDPOINT_MARGIN:
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
        return self.measure() >= TWO_PI - ENDPOINT_MARGIN

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

    def boundary_measure(self) -> float:
        """H^0 of the boundary: two endpoints per arc, none for empty/full."""
        if self.is_empty() or self.is_full():
            return 0.0
        return 2.0 * len(self.arcs)


# ---------------------------------------------------------------------------
# derived operations


def rotated(E, q):
    """The image {q x : x in E} of a set on S^2 under an orthogonal 3x3 q.

    A circle traces a set as its rotated copy traces the rotated set:
    trace(E, es @ q.T, fs @ q.T) equals trace(rotated(E, q.T), es, fs) up
    to roundoff, since (q e) . c = e . (q^T c).  Rotating the set costs a
    few vector products where rotating the frames costs two (m, 3) matrix
    products.
    """
    q = np.asarray(q, dtype=float)
    if isinstance(E, Cap):
        return Cap(q @ E.center, E.radius)
    if isinstance(E, Polytope):
        return Polytope(E.normals @ q.T)
    if isinstance(E, PolyconvexUnion):
        return PolyconvexUnion(tuple(rotated(p, q) for p in E.parts))
    if isinstance(E, Complement):
        return Complement(rotated(E.inner, q))
    if isinstance(E, Reflection):
        return Reflection(rotated(E.inner, q))
    raise TypeError(f"cannot rotate {type(E).__name__}")


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
    a complement, the inner K for a reflection).  Slots are disjoint: a
    disjoint union's are its parts', any other union's the complement of
    their complement (_gaps twice), which is exact for any parts.  An empty
    polytope's slot is empty and never degenerate.
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
        if not E.disjoint:
            start, length = _gaps(*_gaps(start, length))
        return start, length, np.logical_or.reduce([p[2] for p in parts])
    if isinstance(E, Complement):
        start, length, degenerate = trace(E.inner, es, fs)
        return (*_gaps(start, length), degenerate)
    if isinstance(E, Reflection):
        start, length, degenerate = trace(E.inner, es, fs)
        return _half_turn(start), length, degenerate
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
    reads |cross| < 1e-9 rho.  No trig is taken except one arctan2 per face,
    for its entry and exit.
    """
    if E.empty:
        empty = np.zeros((es.shape[0], 1))
        return empty, empty.copy(), np.zeros(es.shape[0], dtype=bool)
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
    entry = np.zeros(m)
    leave = np.zeros(m)
    for j in range(k):
        phi = np.arctan2(b[j], a[j])
        entry = np.where(enters[j], phi + 0.5 * math.pi, entry)
        leave = np.where(leaves[j], phi - 0.5 * math.pi, leave)
    arc = enters.any(axis=0) & leaves.any(axis=0)
    start = np.where(arc, _wrap(entry), 0.0)[:, None]
    length = np.where(arc, _wrap(leave - entry), 0.0)[:, None]
    return start, length, degenerate


def _wrap(x):
    """x mod 2 pi for x in [-2 pi, 2 pi), the value np.remainder gives
    there, at a fraction of its cost: one conditional whole turn."""
    return np.where(x < 0.0, x + TWO_PI, x)


def _half_turn(start):
    """Slot starts shifted by pi, reduced mod 2 pi: the trace of the
    antipodal image, as point(phi + pi) = -point(phi)."""
    start = start + math.pi
    return np.where(start >= TWO_PI, start - TWO_PI, start)


def _gaps(start, length):
    """Per-row complementary arcs of (start, length) slots that may overlap.

    Gap i runs from the end of slot i, taken mod 2 pi, to the nearest start
    ahead of it, a turn later when that start lies behind the end (its own
    start for a lone slot); its length is that start, plus the turn, minus
    the end.  An end held by another live slot opens no gap: one strictly
    inside that slot, or one it shares with a lower-numbered slot.  A start
    within ENDPOINT_MARGIN of the end, on either side, is the end itself,
    so touching slots leave no gap, and slots and gaps shorter than the
    margin are empty.  Gap i takes slot i, empty where slot i is or its end
    is held; a row with no slot has one full gap in slot 0.  The union of
    the slots is the complement of their complement, _gaps(*_gaps(...)).
    """
    m, k = start.shape
    if k == 0:
        return np.zeros((m, 1)), np.full((m, 1), TWO_PI)
    # slot-major rows, so every step below runs on contiguous (m,) arrays;
    # an empty slot's start is nan, which no comparison holds and fmin skips
    length = length.T
    live = length > ENDPOINT_MARGIN
    start = np.where(live, start.T, np.nan)
    end = start + length
    end = np.where(end >= TWO_PI, end - TWO_PI, end)
    # end i is strictly inside slot j when start j is further ahead than
    # inside, and at its end when further ahead than at_end but not inside;
    # a start within the margin of end i opens no gap anyway
    inside = TWO_PI + ENDPOINT_MARGIN - length
    at_end = inside - 2.0 * ENDPOINT_MARGIN
    gap_start = np.zeros((k, m))
    gap_length = np.zeros((k, m))
    for i in range(k):
        gap = np.full(m, np.inf)
        opens = live[i].copy()
        for j in range(k):
            # start j as turns ahead of end i, in [-margin, 2 pi - margin]
            ahead = start[j] - end[i]
            ahead = np.where(ahead < -ENDPOINT_MARGIN, ahead + TWO_PI, ahead)
            ahead = np.where(ahead > TWO_PI - ENDPOINT_MARGIN, ahead - TWO_PI, ahead)
            np.fmin(gap, ahead, out=gap)
            if j != i:
                opens &= ~(ahead > (at_end[j] if j < i else inside[j]))
        gap_length[i] = np.where(opens & (gap >= ENDPOINT_MARGIN), gap, 0.0)
        gap_start[i] = np.where(live[i], end[i], 0.0)
    gap_length[0] = np.where(live.any(axis=0), gap_length[0], TWO_PI)
    return gap_start.T, gap_length.T


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
