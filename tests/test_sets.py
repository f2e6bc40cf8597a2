import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spherefrac import (
    ArcUnion,
    Cap,
    Complement,
    Polytope,
    PolyconvexUnion,
    RandomStream,
    Reflection,
    cap_area,
    geodesic_distance,
    mc_estimate,
    sample_uniform,
    sphere_surface,
    symmetric_overlap_measure,
    trace,
    unit_vector,
)
from spherefrac.integral_geometry import sample_plane_batch

from oracles import (
    cap_contains_arccos,
    polytope_boundary_measure,
    polytope_contains_matmul,
    polytope_trace_trig,
)

Z = (0.0, 0.0, 1.0)


def octant():
    # outward normals: inside means every coordinate is nonnegative
    return Polytope(-np.eye(3))


# ---------------------------------------------------------------------------
# caps


def test_cap_membership_measure_and_boundary():
    cap = Cap(Z, 0.8)
    assert cap.dimension == 2
    gen = np.random.default_rng(0)
    x = sample_uniform(2, 2000, gen)
    d = geodesic_distance(x, np.asarray(Z))
    assert np.array_equal(cap.contains(x), d < 0.8)
    assert cap.exact_measure() == pytest.approx(cap_area(2, 0.8), rel=1e-14)
    assert cap.boundary_measure() == pytest.approx(2.0 * math.pi * math.sin(0.8), rel=1e-12)


def test_cap_validation():
    with pytest.raises(ValueError):
        Cap(Z, -0.1)
    with pytest.raises(ValueError):
        Cap(Z, 3.5)


def points_at_distance(center, d, gen, count):
    """count points at geodesic distance d from center, built from a unit
    tangent direction v as cos(d) center + sin(d) v."""
    v = sample_uniform(center.size - 1, count, gen)
    v -= (v @ center)[:, None] * center
    v /= np.linalg.norm(v, axis=1)[:, None]
    return math.cos(d) * center + math.sin(d) * v


@pytest.mark.parametrize("n", [2, 3])
def test_cap_dot_product_membership_matches_arccos_form(n):
    gen = np.random.default_rng(10 + n)
    x = sample_uniform(n, 1_000_000, gen)
    for radius in (0.0, 1e-3, 0.8, math.pi / 2, 2.5, math.pi):
        cap = Cap(sample_uniform(n, 1, gen)[0], radius)
        c = cap.center
        pts = np.concatenate([x, [c, -c]])
        assert np.array_equal(cap.contains(pts), cap_contains_arccos(c, radius, pts))
        assert cap.contains(c) == (radius > 0.0)
    for radius in (1e-3, 0.8, math.pi / 2, 2.5, math.pi - 1e-3):
        cap = Cap(sample_uniform(n, 1, gen)[0], radius)
        for offset, inside in ((-1e-9, True), (1e-9, False)):
            pts = points_at_distance(cap.center, radius + offset, gen, 10_000)
            got = cap.contains(pts)
            assert np.all(got == inside)
            assert np.array_equal(got, cap_contains_arccos(cap.center, radius, pts))


# ---------------------------------------------------------------------------
# polytopes


def test_octant_membership_and_boundary_distance():
    E = octant()
    inside = unit_vector((1.0, 1.0, 1.0))
    outside = unit_vector((-1.0, 1.0, 1.0))
    assert E.contains(np.array([inside]))[0]
    assert not E.contains(np.array([outside]))[0]


@pytest.mark.parametrize("seed", range(4))
def test_polytope_facewise_membership_matches_matmul_form(seed):
    gen = np.random.default_rng(20 + seed)
    E = octant() if seed == 0 else random_trace_set(gen, "polytope")
    x = sample_uniform(2, 1_000_000, gen)
    assert np.array_equal(E.contains(x), polytope_contains_matmul(E.normals, x))
    tested = 0
    for j, u in enumerate(E.normals):
        # points of face j's great circle well inside the other faces,
        # moved 1e-9 into and out of the halfspace of face j
        q = sample_uniform(2, 4000, gen)
        q -= (q @ u)[:, None] * u
        q /= np.linalg.norm(q, axis=1)[:, None]
        q = q[np.all(q @ np.delete(E.normals, j, axis=0).T < -1e-6, axis=1)]
        for offset, inside in ((-1e-9, True), (1e-9, False)):
            pts = math.cos(offset) * q + math.sin(offset) * u
            got = E.contains(pts)
            assert np.all(got == inside)
            assert np.array_equal(got, polytope_contains_matmul(E.normals, pts))
        tested += len(q)
    assert tested > 1000


def test_membership_takes_one_point():
    p = unit_vector((1.0, 1.0, 1.0))
    cap, E = Cap(p, 0.5), octant()
    union = PolyconvexUnion((Cap(-p, 0.3), E))
    for S in (cap, E, union, Complement(cap), Reflection(E)):
        assert np.ndim(S.contains(p)) == 0
        assert S.contains(p) == S.contains(p[None])[0]
    assert cap.contains(p) and E.contains(p) and union.contains(-p)
    assert not (cap.contains(-p) or E.contains(-p) or Complement(cap).contains(p))
    assert Reflection(E).contains(-p)
    # p . p = 1 + 2^-52 > cos(0), yet the radius-0 cap stays empty
    assert p @ p > 1.0 and not Cap(p, 0.0).contains(p)


def test_octant_measure_against_mc():
    E = octant()
    total = sphere_surface(2)
    est = mc_estimate(
        lambda count, gen: sample_uniform(2, count, gen),
        lambda x: E.contains(x) * total,
        200_000,
        RandomStream(1),
    )
    assert abs(est.value - math.pi / 2.0) < 4.0 * est.std_error


# ---------------------------------------------------------------------------
# unions, complements, reflections


def test_union_measure_and_disjointness_probe():
    a, b = Cap(Z, 0.5), Cap((1.0, 0.0, 0.0), 0.6)
    union = PolyconvexUnion((a, b))
    assert union.exact_measure() == pytest.approx(
        cap_area(2, 0.5) + cap_area(2, 0.6), rel=1e-12
    )
    assert union.disjoint
    overlapping = PolyconvexUnion((Cap(Z, 1.0), Cap(Z, 0.5)))
    assert not overlapping.disjoint
    assert overlapping.exact_measure() is None
    gen = np.random.default_rng(2)
    x = sample_uniform(2, 500, gen)
    assert np.array_equal(union.contains(x), a.contains(x) | b.contains(x))


def test_union_disjointness_rules():
    # caps at least r1 + r2 apart, tangent ones included; no other pair is
    # shown disjoint, not even polytopes on either side of one face
    tangent = PolyconvexUnion((Cap(Z, math.pi / 4), Cap((1.0, 0.0, 0.0), math.pi / 4)))
    assert tangent.disjoint
    assert not PolyconvexUnion((Cap(Z, math.pi / 4), Cap((1.0, 0.0, 0.0), 0.786))).disjoint
    lune = Polytope([(1.0, 0.0, 0.0), (0.0, 0.0, -1.0)])
    assert not PolyconvexUnion((lune, Polytope([(-2.0, 0.0, 0.0), (0.0, 1.0, 0.0)]))).disjoint
    assert not PolyconvexUnion((lune, Polytope([(-1.0, 1e-17, 0.0)]))).disjoint
    assert not PolyconvexUnion((lune, Cap((-1.0, 0.0, 0.0), 0.1))).disjoint
    three = PolyconvexUnion((Cap(Z, 0.3), Cap((1.0, 0.0, 0.0), 0.3), Cap((0.0, 0.0, -1.0), 1.4)))
    assert not three.disjoint  # the last two caps overlap
    assert three.exact_measure() is None and three.boundary_measure() is None


def test_polytope_faces_are_cleaned_up():
    # exact duplicates are one face, in first-seen order; two opposite
    # normals leave an empty polytope with an empty, unflagged trace
    P = Polytope([(0.0, 0.0, -2.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)])
    assert P.normals.tolist() == [[0.0, 0.0, -1.0], [0.0, -1.0, 0.0]]
    assert not P.empty
    empty = Polytope([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-3.0, 0.0, 0.0)])
    assert empty.empty
    assert (empty.exact_measure(), empty.boundary_measure()) == (0.0, 0.0)
    es, fs = sample_plane_batch(2, 100, np.random.default_rng(7))
    start, length, degenerate = trace(empty, es, fs)
    assert not length.any() and not degenerate.any()
    slab = Polytope([(1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0)])
    assert slab.empty and (slab.exact_measure(), slab.boundary_measure()) == (0.0, 0.0)


def test_complement_flips_membership_and_measure():
    cap = Cap(Z, 1.2)
    comp = Complement(cap)
    gen = np.random.default_rng(3)
    x = sample_uniform(2, 500, gen)
    assert np.array_equal(comp.contains(x), ~cap.contains(x))
    assert comp.exact_measure() == pytest.approx(
        sphere_surface(2) - cap_area(2, 1.2), rel=1e-12
    )
    assert comp.boundary_measure() == pytest.approx(cap.boundary_measure(), rel=1e-14)


def test_reflection_is_antipodal_image():
    E = Cap((1.0, 0.0, 0.0), 0.7)
    R = Reflection(E)
    gen = np.random.default_rng(4)
    x = sample_uniform(2, 500, gen)
    assert np.array_equal(R.contains(x), E.contains(-x))
    assert R.exact_measure() == pytest.approx(E.exact_measure(), rel=1e-14)


# ---------------------------------------------------------------------------
# arc unions


def test_arc_union_normalization_and_measure():
    with pytest.raises(ValueError):
        ArcUnion([(0.0, 1.0), (0.5, 1.0)])  # overlapping arcs are rejected
    E = ArcUnion([(2.0, 0.5), (0.0, 1.0)])  # sorted on construction
    assert E.measure() == pytest.approx(1.5, rel=1e-12)
    assert E.arcs[0][0] == pytest.approx(0.0)
    wrap = ArcUnion([(2.0 * math.pi - 0.5, 1.0)])  # crosses the cut
    assert wrap.measure() == pytest.approx(1.0, rel=1e-12)
    assert wrap.contains_angle(np.array([0.2]))[0]
    assert not wrap.contains_angle(np.array([1.2]))[0]


def test_arc_union_boundary_measure():
    E = ArcUnion([(0.0, 1.0), (2.0, 0.5)])
    assert E.boundary_measure() == 4.0
    assert ArcUnion([]).boundary_measure() == 0.0
    assert ArcUnion([(1.0, 2.0 * math.pi)]).boundary_measure() == 0.0


def test_symmetric_overlap_measure_exact_routes():
    # cap: the reflected cap sits at distance pi, overlap a(min(r, pi - r))
    for r in (0.4, math.pi / 2, 2.4):
        est = symmetric_overlap_measure(Cap(Z, r))
        assert est.std_error == 0.0
        assert est.value == pytest.approx(cap_area(2, min(r, math.pi - r)), rel=1e-12)
    # arcs: [0,1] reflected is [pi, pi+1], disjoint from [0,1]
    est = symmetric_overlap_measure(ArcUnion([(0.0, 1.0)]))
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_symmetric_overlap_measure_mc_route():
    # the mean gain |A u (A + pi)| - |A| over great circles; the octant's
    # antipodal image is disjoint from it, so the overlap is its area pi/2
    E = octant()
    est = symmetric_overlap_measure(E, samples=400_000, rng=RandomStream(5))
    assert abs(est.value - math.pi / 2.0) < 4.0 * est.std_error
    assert est.std_error < 1e-4
    with pytest.raises(ValueError):
        symmetric_overlap_measure(E)  # the circles need a seed


def test_symmetric_overlap_measure_of_sets_whose_image_touches_them():
    # a half space's antipodal image is its complement: every circle gains
    # the other half, and the mean is exact
    half = Polytope([(0.0, 0.0, -1.0)])
    est = symmetric_overlap_measure(half, samples=32 * 64, rng=RandomStream(6))
    assert est.value == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert est.std_error < 1e-12
    # on S^1 arcs that are their own half turn gain nothing, and a half
    # circle gains the other half, which touches it at both ends
    E = ArcUnion([(0.0, 0.5 * math.pi), (math.pi, 0.5 * math.pi)])
    assert symmetric_overlap_measure(E).value == 0.0
    assert symmetric_overlap_measure(Complement(E)).value == 0.0
    half = symmetric_overlap_measure(ArcUnion([(0.3, math.pi)]))
    assert half.value == pytest.approx(math.pi, rel=1e-12) and half.std_error == 0.0


# ---------------------------------------------------------------------------
# traces on great circles

EQUATOR = (np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]]))


def crossings(E, es, fs):
    _, length, _ = trace(E, es, fs)
    return 2 * np.count_nonzero((length > 0.0) & (length < 2.0 * math.pi), axis=1)


def circle_points(es, fs, phi):
    return np.cos(phi)[..., None] * es[:, None, :] + np.sin(phi)[..., None] * fs[:, None, :]


def test_circle_trace_through_cap_center():
    E = Cap((1.0, 0.0, 0.0), 0.6)
    start, length, degenerate = trace(E, *EQUATOR)
    assert start.shape == length.shape == (1, 1)
    assert degenerate.shape == (1,) and not degenerate[0]
    assert length[0, 0] == pytest.approx(1.2, abs=1e-12)
    assert start[0, 0] == pytest.approx(2.0 * math.pi - 0.6, abs=1e-12)
    assert crossings(E, *EQUATOR)[0] == 2


def test_circle_trace_missing_the_set():
    E = Cap(Z, 0.8)  # the equator stays at distance pi/2 - never inside
    _, length, degenerate = trace(E, *EQUATOR)
    assert length[0, 0] == 0.0 and not degenerate[0]
    assert crossings(E, *EQUATOR)[0] == 0
    # its complement, and a cap holding the equator, take the full circle
    assert trace(Complement(E), *EQUATOR)[1][0, 0] == 2.0 * math.pi
    assert trace(Cap(Z, 2.5), *EQUATOR)[1][0, 0] == 2.0 * math.pi


def test_crossing_count_polytope_vertices():
    E = octant()
    # the equator lies in one face's plane and passes through two vertices:
    # the trace is flagged degenerate, not silently counted
    assert trace(E, *EQUATOR)[2][0]
    e = unit_vector((1.0, 0.2, 0.1))
    f = unit_vector(np.cross(e, Z))
    start, length, degenerate = trace(E, e[None], f[None])
    assert not degenerate[0]
    assert crossings(E, e[None], f[None])[0] == 2
    # both endpoints lie on a face and the midpoint is inside
    ends = circle_points(e[None], f[None], start + np.array([[0.0, 1.0]]) * length)[0]
    assert np.all(np.min(np.abs(ends), axis=1) < 1e-12)
    assert E.contains(circle_points(e[None], f[None], start + 0.5 * length)[0])[0]


def test_tangent_circle_is_degenerate():
    assert trace(Cap(Z, math.pi / 2), *EQUATOR)[2][0]


def test_union_crossings_add():
    a = Cap((1.0, 0.0, 0.0), 0.4)
    b = Cap((-1.0, 0.0, 0.0), 0.3)
    union = PolyconvexUnion((a, b))
    start, length, _ = trace(union, *EQUATOR)
    assert np.allclose(length, [[0.8, 0.6]], atol=1e-12)
    assert np.allclose(start, [[2.0 * math.pi - 0.4, math.pi - 0.3]], atol=1e-12)
    assert crossings(union, *EQUATOR)[0] == 4


def test_arc_union_trace_is_the_set_in_the_frame_parameter():
    E = ArcUnion([(0.5, 1.0), (3.0, 2.0)])
    # one right-handed and one left-handed frame
    es = np.array([[math.cos(1.0), math.sin(1.0)], [math.cos(1.0), math.sin(1.0)]])
    fs = np.array([[-math.sin(1.0), math.cos(1.0)], [math.sin(1.0), -math.cos(1.0)]])
    start, length, degenerate = trace(E, es, fs)
    assert start.shape == (2, 2) and not np.any(degenerate)
    assert np.allclose(length, [[1.0, 2.0]] * 2, atol=1e-12)
    for phi, inside in ((start + 0.5 * length, True), (start - 1e-6, False),
                        (start + length + 1e-6, False)):
        assert np.all(E.contains(circle_points(es, fs, phi)) == inside)
    assert crossings(E, es, fs).tolist() == [4, 4]
    # the empty arc union has no slots; its complement has one full slot
    assert trace(ArcUnion([]), es, fs)[1].shape == (2, 0)
    assert np.all(trace(Complement(ArcUnion([])), es, fs)[1] == 2.0 * math.pi)


def random_trace_set(gen, kind):
    """A random cap, polytope with an interior point, or disjoint two-cap union."""
    if kind == "cap":
        return Cap(sample_uniform(2, 1, gen)[0], gen.uniform(0.05, math.pi - 0.05))
    if kind == "polytope":
        interior = sample_uniform(2, 1, gen)[0]
        normals = sample_uniform(2, int(gen.integers(1, 6)), gen)
        return Polytope(-normals * np.sign(normals @ interior)[:, None])
    c1, c2 = sample_uniform(2, 2, gen)
    room = float(geodesic_distance(c1, c2)) - 0.05
    if room <= 0.1:
        c2 = -c1
        room = math.pi - 0.05
    r1 = gen.uniform(0.02, room - 0.04)
    r2 = gen.uniform(0.01, room - r1)
    return PolyconvexUnion((Cap(c1, r1), Cap(c2, r2)))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["cap", "polytope", "union"]),
    wrap=st.sampled_from([None, Complement, Reflection]),
)
def test_trace_arcs_are_exact(seed, kind, wrap):
    gen = np.random.default_rng(seed)
    inner = random_trace_set(gen, kind)
    E = inner if wrap is None else wrap(inner)
    es, fs = sample_plane_batch(2, 64, gen)
    start, length, degenerate = trace(E, es, fs)
    assert start.shape == length.shape and degenerate.shape == (64,)
    ok = ~degenerate
    arcs = ok[:, None] & (length > 0.0)
    proper = arcs & (length < 2.0 * math.pi)
    # midpoints inside; points 1e-6 beyond either endpoint outside, and
    # 1e-6 within it inside
    assert np.all(E.contains(circle_points(es, fs, start + 0.5 * length))[arcs])
    long_arcs = proper & (length > 1e-5)
    probes = (
        (start - 1e-6, proper, False),
        (start + length + 1e-6, proper, False),
        (start + 1e-6, long_arcs, True),
        (start + length - 1e-6, long_arcs, True),
    )
    for phi, rows, inside in probes:
        assert np.all(E.contains(circle_points(es, fs, phi))[rows] == inside)
    inner_start, inner_length, inner_degenerate = trace(inner, es, fs)
    assert np.array_equal(degenerate, inner_degenerate)
    if wrap is Reflection:
        assert np.array_equal(start, (inner_start + math.pi) % (2.0 * math.pi))
        assert np.array_equal(length, inner_length)
    if wrap is Complement:
        assert np.array_equal(crossings(E, es, fs)[ok], crossings(inner, es, fs)[ok])


def polytope_around(gen, k):
    """k random faces around a random interior point."""
    interior = sample_uniform(2, 1, gen)[0]
    normals = sample_uniform(2, k, gen)
    return Polytope(-normals * np.sign(normals @ interior)[:, None])


def frames_through(points, gen):
    """Frames of random great circles through the given unit points."""
    f = sample_uniform(2, len(points), gen)
    f -= np.sum(f * points, axis=1)[:, None] * points
    return points, f / np.linalg.norm(f, axis=1)[:, None]


def aimed_frames(E, gen, count):
    """Circles within 1e-12 to 1e-6 of a vertex (two face circles meeting),
    and circles within 1e-12 to 1e-6 of lying in a face's plane."""
    u = E.normals
    k = len(u)
    eps = 10.0 ** gen.uniform(-12.0, -6.0, count)[:, None]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    pick = np.array(pairs)[gen.integers(0, len(pairs), count)]
    v = np.cross(u[pick[:, 0]], u[pick[:, 1]])
    v *= gen.choice((-1.0, 1.0), count)[:, None] / np.linalg.norm(v, axis=1)[:, None]
    t = sample_uniform(2, count, gen)
    t -= np.sum(t * v, axis=1)[:, None] * v
    t /= np.linalg.norm(t, axis=1)[:, None]
    p = v + eps * t
    near_vertex = frames_through(p / np.linalg.norm(p, axis=1)[:, None], gen)
    w = u[gen.integers(0, k, count)]
    e = sample_uniform(2, count, gen)
    e -= np.sum(e * w, axis=1)[:, None] * w
    e /= np.linalg.norm(e, axis=1)[:, None]
    g = np.cross(w, e)
    near_face = (e, np.cos(eps) * g + np.sin(eps) * w)
    return near_vertex, near_face


@pytest.mark.parametrize("seed", range(4))
def test_polytope_trace_matches_trig_form(seed):
    gen = np.random.default_rng(40 + seed)
    E = octant() if seed == 0 else polytope_around(gen, 2 + seed)
    frames = [sample_plane_batch(2, 200_000, gen), *aimed_frames(E, gen, 20_000)]
    degenerate_seen = 0
    for es, fs in frames:
        start, length, degenerate = trace(E, es, fs)
        s_ref, l_ref, d_ref = polytope_trace_trig(E.normals, es, fs)
        assert np.array_equal(length[:, 0], l_ref)
        assert np.array_equal(degenerate, d_ref)
        assert np.max(np.abs(start[:, 0] - s_ref)) <= 1e-15
        crossings = (length[:, 0] > 0.0) & (length[:, 0] < 2.0 * math.pi)
        assert np.array_equal(crossings, (l_ref > 0.0) & (l_ref < 2.0 * math.pi))
        degenerate_seen += int(degenerate.sum())
    # the aimed circles reach both sides of the 1e-9 margin
    assert 5_000 < degenerate_seen < 35_000


def test_polytope_boundary_measure_is_exact_on_s2():
    assert octant().boundary_measure() == pytest.approx(1.5 * math.pi, abs=1e-12)
    assert Polytope([(0.0, 0.0, 1.0)]).boundary_measure() == 2.0 * math.pi
    assert Polytope(-np.eye(4)).boundary_measure() is None
    assert Polytope(-np.eye(2)).boundary_measure() is None
    # a third face through the octant's vertex (0, 0, 1) makes two face
    # circles degenerate there: no value rather than a wrong one
    assert Polytope([(-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, -1, 0)]).boundary_measure() is None
    # complements and reflections share the boundary
    assert Complement(octant()).boundary_measure() == octant().boundary_measure()


def regular_polygon(k, inradius):
    """Outward normals of the regular k-gon about the north pole whose edges
    lie at distance inradius from the pole."""
    phi = 2.0 * math.pi * np.arange(k) / k
    return np.column_stack([np.cos(phi) * math.cos(inradius), np.sin(phi) * math.cos(inradius),
                            np.full(k, -math.sin(inradius))])


def test_polytope_exact_measure_closed_forms():
    assert octant().exact_measure() == pytest.approx(0.5 * math.pi, rel=0.0, abs=1e-15)
    assert Polytope([(0.0, 0.0, 1.0)]).exact_measure() == 2.0 * math.pi
    for theta in (0.2, 1.0, 0.5 * math.pi, 2.5):
        # the lune 0 <= longitude <= theta, angle theta at both poles
        lune = Polytope([(0.0, -1.0, 0.0), (-math.sin(theta), math.cos(theta), 0.0)])
        assert lune.exact_measure() == pytest.approx(2.0 * theta, rel=0.0, abs=1e-14)
    for k in (3, 4, 5, 8):
        for inradius in (0.3, 0.7, 1.2):
            # Girard: k interior angles 2 arccos(cos rho sin(pi/k)) less (k - 2) pi
            girard = 2 * k * math.acos(math.cos(inradius) * math.sin(math.pi / k)) - (k - 2) * math.pi
            P = Polytope(regular_polygon(k, inradius))
            assert P.exact_measure() == pytest.approx(girard, rel=0.0, abs=1e-14)
            assert Complement(P).exact_measure() == pytest.approx(4.0 * math.pi - girard,
                                                                  rel=0.0, abs=1e-14)
            assert Reflection(P).exact_measure() == P.exact_measure()


def test_polytope_exact_measure_is_none_with_boundary_measure():
    for P in (Polytope(-np.eye(4)), Polytope(-np.eye(2)),
              Polytope([(-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, -1, 0)])):
        assert P.boundary_measure() is None
        assert P.exact_measure() is None
        assert Complement(P).exact_measure() is None


def test_polytope_exact_measure_matches_mc_and_ignores_redundant_faces():
    gen = np.random.default_rng(12)
    total = sphere_surface(2)
    for seed in range(6):
        k = int(gen.integers(2, 7))
        interior = sample_uniform(2, 1, gen)[0]
        normals = sample_uniform(2, k, gen)
        normals = -normals * np.sign(normals @ interior)[:, None]
        P = Polytope(normals)
        est = mc_estimate(lambda count, g: sample_uniform(2, count, g),
                          lambda x: P.contains(x) * total, 200_000, RandomStream(seed))
        assert abs(P.exact_measure() - est.value) < 4.0 * est.std_error
    # a face whose circle misses the octant adds no vertex
    redundant = Polytope(np.vstack([-np.eye(3), [[-1.0, -1.0, -1.0]]]))
    assert redundant.exact_measure() == pytest.approx(0.5 * math.pi, rel=0.0, abs=1e-15)
    # faces that enclose nothing have no arc, and no area
    empty = Polytope(np.vstack([-np.eye(3), [[1.0, 1.0, 1.0]]]))
    assert empty.boundary_measure() == 0.0
    assert empty.exact_measure() == 0.0


def test_polytope_boundary_measure_matches_dense_oracle():
    gen = np.random.default_rng(11)
    resolution = 1e-3
    for _ in range(20):
        k = int(gen.integers(2, 7))
        interior = sample_uniform(2, 1, gen)[0]
        normals = sample_uniform(2, k, gen)
        normals = -normals * np.sign(normals @ interior)[:, None]
        exact = Polytope(normals).boundary_measure()
        # each face arc has two endpoints, each off by at most one step
        step = 2.0 * math.pi / math.ceil(2.0 * math.pi / resolution)
        assert abs(exact - polytope_boundary_measure(normals, resolution)) <= 2 * k * step
