"""The sliced perimeter estimator, for every s < 1.

perimeter_mc averages, over Haar great circles, c_n times the exact circle
double integral V of the kernel delta^-(n+s) |sin delta|^(n-1) over the
circle's trace and its gaps.  Checked here: the matched antiderivative G
against quadrature, the vectorized V against the scalar (arc, gap) loop of
oracles.py, the hemisphere's constant V against the covariogram cap
oracle of oracles.py (the library's cap oracle runs on the same kernel, so
it cannot check it), the error bars against that oracle over many seeds,
the point-pair estimator of oracles.py against it at s < 0, and the traces
the estimator rests on (rotated sets, overlapping unions).
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import spherefrac.integral_geometry as ig
from spherefrac import (
    ArcUnion,
    Cap,
    Complement,
    PolyconvexUnion,
    Polytope,
    RandomStream,
    Reflection,
    cap_area,
    crofton_estimate,
    estimation,
    perimeter_circle_exact,
    perimeter_mc,
    perimeter_minus_n,
    sets,
)
from spherefrac.cli import main, parse_set
from spherefrac.integral_geometry import bp_constant, sample_plane_batch
from spherefrac.perimeter import _GreatCircleKernel
from spherefrac.sets import rotated, trace

from oracles import (
    KERNEL_LENGTHS,
    KERNEL_W,
    covariogram_cap_perimeter,
    disjoint_cap_union_perimeter,
    point_pair_perimeter,
    sliced_values_serial,
)
from test_mc_parallel import SETS

TWO_PI = 2.0 * math.pi
Z = (0.0, 0.0, 1.0)
UNION_CAPS = (((0.0, 0.0, 1.0), 0.6), ((1.0, 0.0, 0.0), 0.8))
# two radius-1 caps whose centers are arccos(0.8) apart: they overlap
OVERLAPPING = "union:cap:0,0,1:1+cap:0,0.6,0.8:1"


def pole(n):
    p = np.zeros(n + 1)
    p[-1] = 1.0
    return p


def force_workers(monkeypatch, count):
    monkeypatch.setattr(estimation, "_worker_count", lambda: count)


# ---------------------------------------------------------------------------
# the kernel's antiderivative


def kernel(n, s):
    return lambda d: d ** -(n + s) * np.sin(d) ** (n - 1)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("s", (-0.5, 0.3, 0.9))
@pytest.mark.parametrize("m", (0.1, 1.0, 2.5))
def test_single_arc_value_matches_quadrature(n, s, m):
    # W(m) = 2 int_0^pi k(delta) min(delta, m) d delta
    k = kernel(n, s)
    near = quad(lambda d: k(d) * d, 0.0, m, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    far = quad(k, m, math.pi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    got = _GreatCircleKernel(n, s).W(np.array([m, TWO_PI - m]))
    assert got == pytest.approx([2.0 * (near + m * far)] * 2, rel=1e-9)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("s", (-3.0, 0.0, 0.5, 0.99))
def test_antiderivative_gives_the_double_integral_over_two_arcs(n, s):
    # G(beta-a) - G(beta-b) - G(alpha-a) + G(alpha-b) is the integral of
    # k(delta(y - x)) over x in [a, b], y in [alpha, beta]; the second pair
    # reaches offsets beyond pi, where G continues as G(2 pi - x) + ...
    K = _GreatCircleKernel(n, s)
    k = kernel(n, s)
    assert K.G(np.array([0.0]))[0] == 0.0
    for (a, b), (alpha, beta) in (((0.2, 1.1), (2.0, 2.5)), ((0.2, 1.1), (1.5, 4.0))):
        def inner(x):
            pts = [x + math.pi] if alpha < x + math.pi < beta else None
            return quad(lambda y: k(min(y - x, TWO_PI - (y - x))), alpha, beta,
                        points=pts, epsabs=0.0, epsrel=1e-12, limit=200)[0]

        ref = quad(inner, a, b, epsabs=0.0, epsrel=1e-11, limit=200)[0]
        ga, gb, gc, gd = K.G(np.array([beta - a, beta - b, alpha - a, alpha - b]))
        assert ga - gb - gc + gd == pytest.approx(ref, rel=1e-9)
    # C^1 at pi, with slope G'(pi)
    h = 1e-4
    slope = (K.G(np.array([math.pi + h]))[0] - K.G(np.array([math.pi - h]))[0]) / (2.0 * h)
    assert slope == pytest.approx(K.scale / K.unit * K.slope_in_unit, rel=1e-7)


def test_arc_union_perimeter_is_exact_on_every_circle():
    # on S^1 the one great circle is the sphere, and c_1 = 1; the kernel
    # has no remainder
    assert _GreatCircleKernel(1, 0.3).coef.size == 0
    E = ArcUnion([(0.3, 1.7), (2.9, 0.4), (4.0, 1.5)])
    est = perimeter_mc(E, 0.3, 5000, RandomStream(3))
    exact = perimeter_circle_exact(E, 0.3)
    assert est.value == pytest.approx(exact, rel=1e-12)
    assert est.std_error <= 1e-12 * exact


@pytest.mark.parametrize("n, s", sorted(KERNEL_W))
def test_kernel_matches_40_digit_values(n, s):
    # one table per (n, s) from n = 2 to 342 and s = 0.9 to -300, both sides
    # of the switch to the positive form at s = -1
    got = _GreatCircleKernel(n, s).W(np.array(KERNEL_LENGTHS))
    ref = np.array([float(v) for v in KERNEL_W[n, s]])
    assert np.allclose(got, ref, rtol=1e-12 if n <= 13 else 1e-9, atol=0.0)


@pytest.mark.parametrize("n, s", [(3, -500.0), (12, -1.0), (50, -5.0)]
                         + [(n, s) for n in (13, 50, 100, 200) for s in (0.9, 0.5, 0.0, -1.0, -20.0)])
def test_the_kernel_takes_the_dimensions_the_series_refused(n, s):
    # the Taylor series' condition number grew like |s|^(n-1), and its rule
    # refused these; the hemisphere's value checks the table against the
    # covariogram oracle, whose crescent rule holds to n = 200
    ref = covariogram_cap_perimeter(n, s, math.pi / 2, tol=1e-12)
    got = bp_constant(n) * _GreatCircleKernel(n, s).W(np.array([math.pi]))[0]
    assert got == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_the_series_converges_for_large_dimensions():
    # from n = 108 the 199 Taylor terms did not reach roundoff, and from
    # n = 143 the truncated sum made a cap's sliced perimeter negative
    for n in (108, 143, 200, 342):
        for s in (-1.0, 0.0, 0.5):
            assert 0 < _GreatCircleKernel(n, s).coef.size < 160
    est = perimeter_mc(Cap(pole(143), 1.4), 0.5, 20_000, RandomStream(1))
    assert abs(est.value - covariogram_cap_perimeter(143, 0.5, 1.4)) < 3.0 * est.std_error


@pytest.mark.parametrize("n, s", ((3, -380.0), (8, -5.0), (12, -0.45)))
def test_hemisphere_value_holds_at_the_edge_of_the_condition_rule(n, s):
    # where the Taylor series kept the fewest digits that its condition
    # rule accepted
    ref = covariogram_cap_perimeter(n, s, math.pi / 2, tol=1e-12)
    got = bp_constant(n) * _GreatCircleKernel(n, s).W(np.array([math.pi]))[0]
    assert got == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("n, s", ((13, 0.3), (13, -1.0), (12, -4.0)))
def test_sliced_values_hold_where_point_pairs_stood_in(n, s):
    # (13, 0.3) raised, and the other two took point pairs: perimeter_mc
    # has one path, the sliced kernel, at every n and s
    est = perimeter_mc(Cap(pole(n), 1.0), s, 100_000, RandomStream(1))
    z = (est.value - covariogram_cap_perimeter(n, s, 1.0)) / est.std_error
    print(f"n={n}, s={s}: sliced z = {z:.2f}")
    assert abs(z) < 3.0


@pytest.mark.parametrize("s", (-4.0, -0.5))
@pytest.mark.parametrize("name", ("cap", "octant", "union"))
def test_point_pairs_agree_with_the_sliced_value_below_zero(name, s):
    # the point pairs rest on no great-circle identity, so this checks the
    # identity at s < 0 by an independent estimator (normalized kernel)
    E = parse_set(SETS[name])
    pairs = point_pair_perimeter(E, s, 1_000_000, RandomStream(93))
    sliced = perimeter_mc(E, s, 32 * 4096, RandomStream(94), normalized=True)
    combined = math.hypot(pairs.std_error, sliced.std_error)
    z = (pairs.value - sliced.value) / combined
    print(f"{name} s={s}: point pairs - sliced = {z:.2f} sigma")
    assert abs(z) < 4.0


@pytest.mark.parametrize("t", (20.0, 80.0))
def test_point_pair_hemisphere_rows_are_tight_and_honest(t):
    # the sweep-sinf rows before they took the cap oracle: half the
    # indicator's seminorm is symmetric in the pair, and at large t almost
    # every drawn pair straddles a hemisphere, so the relative error falls
    # below the one-sided estimator's 1e-3
    est = point_pair_perimeter(Cap(Z, math.pi / 2), -t, 1_000_000, RandomStream(95))
    ref = math.pi ** (2.0 - t) * covariogram_cap_perimeter(2, -t, math.pi / 2, tol=1e-12)
    z = (est.value - ref) / est.std_error
    print(f"t={t}: rse {est.std_error / est.value:.2e}, z = {z:.2f}")
    assert abs(z) < 4.0
    assert est.std_error <= 5e-4 * est.value


def test_point_pair_error_bar_covers_at_the_nominal_rate():
    # 200 streams of 20000 pairs on the r = 1 cap at s = -4 against the cap
    # oracle, in the normalized kernel; the share within 1.96 sigma must be
    # near 0.95
    s = -4.0
    truth = math.pi ** (2.0 + s) * covariogram_cap_perimeter(2, s, 1.0, tol=1e-12)
    E = Cap(Z, 1.0)
    runs = 200
    covered = 0
    for stream in RandomStream(96).split(runs):
        est = point_pair_perimeter(E, s, 20_000, stream)
        covered += abs(est.value - truth) <= 1.96 * est.std_error
    share = covered / runs
    print(f"point-pair coverage: {share:.3f}")
    assert 0.90 <= share <= 0.99


def test_point_pairs_refuse_an_estimate_that_no_pair_reaches():
    # a radius-1 cap takes about 1e-26 of S^342: no circle of 1000 meets it,
    # and 0 with error 0 would pass every sigma check; in the plain kernel
    # c_n pi^(1-s) already underflows
    with pytest.raises(ValueError, match=r"n = 342, samples = 1000"):
        perimeter_mc(Cap(pole(342), 1.0), -1.0, 1000, RandomStream(1), normalized=True)
    with pytest.raises(ValueError, match=r"underflows a float at n = 342, s = -1"):
        perimeter_mc(Cap(pole(342), 1.0), -1.0, 1000, RandomStream(1))
    # where the boundary is empty, 0 is exact
    for full in (Cap(pole(13), 0.0), Cap(pole(13), math.pi), Cap(Z, math.pi), ArcUnion([(0.5, TWO_PI)])):
        est = perimeter_mc(full, -1.0, 1000, RandomStream(2))
        assert (est.value, est.std_error) == (0.0, 0.0)
    # and where it is unknown: two overlapping caps that cover S^2 are no
    # disjoint union, so boundary_measure() is None, and every circle's
    # trace is full
    covering = parse_set("union:cap:0,0,1:2+cap:0,0,-1:2")
    assert covering.boundary_measure() is None
    for s in (-1.0, 0.3):
        est = perimeter_mc(covering, s, 1000, RandomStream(2))
        assert (est.value, est.std_error) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# circle values: vectorized against the scalar loop


def random_arc_rows(gen, rows):
    """(start, length) of shape (rows, 3): 1-3 disjoint arcs per row in
    random slots, cut at sorted random points and turned by a random angle,
    so that some arcs wrap past 2 pi; then one full and one empty row."""
    start = np.zeros((rows + 2, 3))
    length = np.zeros((rows + 2, 3))
    for r in range(rows):
        k = int(gen.integers(1, 4))
        cuts = np.sort(gen.uniform(0.0, TWO_PI, 2 * k))
        turn = gen.uniform(0.0, TWO_PI)
        slots = gen.permutation(3)[:k]
        for slot, a, b in zip(slots, cuts[0::2], cuts[1::2]):
            start[r, slot] = (a + turn) % TWO_PI
            length[r, slot] = b - a
    length[rows, 0] = TWO_PI
    return start, length


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("s", (-0.5, 0.3, 0.999))
def test_vectorized_values_equal_the_scalar_loop(n, s):
    gen = np.random.default_rng(80)
    start, length = random_arc_rows(gen, 300)
    assert np.any(start + length > TWO_PI)  # wrapped arcs are among them
    K = _GreatCircleKernel(n, s)
    got = K.circle_values(start, length)
    ref = sliced_values_serial(start, length, K)
    assert got[-2:].tolist() == [0.0, 0.0]
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", sorted(SETS) + ["overlapping"])
def test_values_of_traces_equal_the_scalar_loop(name):
    E = parse_set(OVERLAPPING if name == "overlapping" else SETS[name])
    es, fs = sample_plane_batch(2, 2000, np.random.default_rng(81))
    start, length, degenerate = trace(E, es, fs)
    K = _GreatCircleKernel(2, 0.999)
    got = K.circle_values(start, length)[~degenerate]
    ref = sliced_values_serial(start[~degenerate], length[~degenerate], K)
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", sorted(SETS))
def test_complement_and_reflection_keep_every_circle_value(name):
    # V(A^c) = V(A) and V(A + pi) = V(A) on each circle, to roundoff
    inner = parse_set(SETS[name])
    es, fs = sample_plane_batch(2, 2000, np.random.default_rng(82))
    K = _GreatCircleKernel(2, 0.999)
    start, length, degenerate = trace(inner, es, fs)
    ref = K.circle_values(start, length)[~degenerate]
    for wrapped in (Complement(inner), Reflection(inner)):
        got = K.circle_values(*trace(wrapped, es, fs)[:2])[~degenerate]
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# the estimate: exact cases, error bars, worker counts


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("s", (-3.0, -0.5, 0.3, 0.9, 0.99))
def test_hemisphere_value_is_exact(n, s):
    # every great circle cuts a hemisphere in a semicircle, so every circle
    # has the same V and the estimate is exact; its standard error is
    # roundoff, so the check is relative
    ref = covariogram_cap_perimeter(n, s, math.pi / 2, tol=1e-12)
    assert bp_constant(n) * _GreatCircleKernel(n, s).W(np.array([math.pi]))[0] == pytest.approx(
        ref, rel=1e-12)
    est = perimeter_mc(Cap(pole(n), math.pi / 2), s, 32 * 512, RandomStream(83))
    assert est.value == pytest.approx(ref, rel=1e-12)
    assert est.std_error <= 1e-12 * ref


@pytest.mark.parametrize("m", (1.0, math.pi))
def test_normalized_kernel_stays_finite_where_the_plain_scale_overflows(m):
    # at s = -700 pi^(1-s) overflows a float; lengths in the unit pi keep
    # every power at most 1, and the normalized kernel's scale is pi^(n+1)
    n, s = 2, -700.0
    k = lambda d: (d / math.pi) ** -(n + s) * np.sin(d) ** (n - 1)
    near = quad(lambda d: k(d) * d, 0.0, m, points=[0.99 * m], epsabs=0.0, epsrel=1e-12, limit=200)[0]
    far = 0.0
    if m < math.pi:
        far = quad(k, m, math.pi, points=[0.99 * math.pi], epsabs=0.0, epsrel=1e-12, limit=200)[0]
    got = _GreatCircleKernel(n, s, normalized=True).W(np.array([m]))[0]
    assert got == pytest.approx(2.0 * (near + m * far), rel=1e-9)


def test_normalized_kernel_holds_far_below_zero():
    # W(1) and W(pi) of the normalized kernel on S^2, from mpmath at 40
    # digits split at pi (1 - 40 j / |s|); the Taylor series read them
    # 7e-8 off at s = -2e4 and 2e-5 off at s = -1e5.  A series in y took
    # 850 and 1834 terms for the layer at y = 1, each a pass over every
    # circle; in the layer's log variable it takes about 30
    for s, ref in ((-2e4, (4.935048831243142750864504e-8, 1.550236283957894757525386e-7)),
                   (-1e5, (1.973940617675925108351441e-9, 6.201193318006696286522945e-9))):
        K = _GreatCircleKernel(2, s, normalized=True)
        assert K.coef.size <= 40
        assert np.allclose(K.W(np.array([1.0, math.pi])), ref, rtol=1e-10, atol=0.0)
    # on S^342 at s = -2000, H0 underflows a float before pi, and so does
    # its log: a ValueError, and no longer after a divide-by-zero warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="table underflows a float"):
            _GreatCircleKernel(342, -2000.0, normalized=True)


def test_error_bars_are_honest_against_the_cap_oracle():
    # z of the radius-1 cap against the oracle over 20 seeds: mean near 0,
    # spread near 1 (t with 31 degrees of freedom has sd 1.03)
    for s in (-0.5, 0.3, 0.9):
        ref = covariogram_cap_perimeter(2, s, 1.0, tol=1e-12)
        zs = []
        for stream in RandomStream(84).split(20):
            est = perimeter_mc(Cap(Z, 1.0), s, 32 * 8192, stream)
            assert est.samples == 32
            assert est.std_error < 1e-4 * ref
            zs.append((est.value - ref) / est.std_error)
        print(f"s={s}: z mean {np.mean(zs):.2f}, sd {np.std(zs, ddof=1):.2f}")
        assert abs(np.mean(zs)) < 0.75
        assert 0.6 < np.std(zs, ddof=1) < 1.5


def test_error_bar_covers_at_the_nominal_rate(monkeypatch):
    # as crofton_estimate's coverage test: 200 seeds of 32 rotations of 256
    # poles per set, |value - truth| / error against the two-sided 95%
    # quantile of t with 31 degrees of freedom.  The octant's truth is a run
    # of 32 x 65536 circles, whose error is about 1/16 of a small run's
    monkeypatch.setattr(estimation, "_worker_count", lambda: 1)
    s = 0.5
    octant = Polytope(-np.eye(3))
    truths = {
        "cap r=0.5": (Cap(Z, 0.5), covariogram_cap_perimeter(2, s, 0.5, tol=1e-12)),
        "cap r=2": (Cap(Z, 2.0), covariogram_cap_perimeter(2, s, 2.0, tol=1e-12)),
        "octant": (octant, perimeter_mc(octant, s, 32 * 65536, RandomStream(85)).value),
        "union": (PolyconvexUnion(tuple(Cap(c, r) for c, r in UNION_CAPS)),
                  disjoint_cap_union_perimeter(UNION_CAPS, s)),
    }
    runs = 200
    quantile = stats.t.ppf(0.975, 31)
    allowed = 3.0 * math.sqrt(0.95 * 0.05 / runs)
    shares = {}
    for k, (name, (E, truth)) in enumerate(truths.items()):
        covered = 0
        for stream in RandomStream(86 + k).split(runs):
            est = perimeter_mc(E, s, 32 * 256, stream)
            covered += abs(est.value - truth) <= quantile * est.std_error
        shares[name] = covered / runs
    print("sliced coverage: " + ", ".join(f"{name} {share:.3f}" for name, share in shares.items()))
    assert all(abs(share - 0.95) <= allowed for share in shares.values()), shares


@pytest.mark.parametrize("desc", ("cap:0,0,0,1:1", "compl:poly:-1,0,0,0;0,-1,0,0;0,0,-1,0"))
def test_iid_circles_off_s2_give_equal_estimates_on_any_worker_count(monkeypatch, desc):
    # S^3 has no lattice: chunks of _TRACE_BLOCK iid circles
    E = parse_set(desc)
    results = []
    for count in (1, 2, 3):
        force_workers(monkeypatch, count)
        results.append(perimeter_mc(E, 0.7, 2 * ig._TRACE_BLOCK + 77, RandomStream(87)))
    assert results[0].samples == 2 * ig._TRACE_BLOCK + 77
    assert results[1] == results[0] and results[2] == results[0]


def test_degenerate_circles_are_redrawn_on_any_worker_count(monkeypatch):
    # a wide margin flags about one circle in 150, which each rotation
    # redraws as Haar circles from its own generator
    E = Cap(Z, 1.0)
    plain = perimeter_mc(E, 0.3, 32 * 4096, RandomStream(88))
    monkeypatch.setattr(sets, "DEGENERACY_MARGIN", 5e-3)
    results = []
    for count in (1, 2, 3):
        force_workers(monkeypatch, count)
        results.append(perimeter_mc(E, 0.3, 32 * 4096, RandomStream(88)))
    assert results[0] != plain
    assert results[1] == results[0] and results[2] == results[0]


def test_sets_without_a_trace_are_rejected():
    class Blob:
        dimension = 2

        def contains(self, points):
            return np.asarray(points)[..., 2] > 0.0

    for s in (-0.5, 0.0, 0.5):
        with pytest.raises(ValueError, match="no great-circle trace for Blob"):
            perimeter_mc(Blob(), s, 1000, RandomStream(1))


# ---------------------------------------------------------------------------
# the traces it rests on


@pytest.mark.parametrize("name", sorted(SETS))
def test_a_rotated_set_traces_as_rotated_circles(name):
    E = parse_set(SETS[name])
    gen = np.random.default_rng(89)
    es, fs = sample_plane_batch(2, 500, gen)
    q = ig._haar_rotation(gen)
    start, length, bad = trace(rotated(E, q.T), es, fs)
    ref_start, ref_length, ref_bad = trace(E, es @ q.T, fs @ q.T)
    ok = ~bad & ~ref_bad
    assert np.mean(ok) > 0.99
    assert np.allclose(length[ok], ref_length[ok], rtol=0.0, atol=1e-12)
    proper = ok[:, None] & (ref_length > 0.0) & (ref_length < TWO_PI)
    turn = (start - ref_start + math.pi) % TWO_PI - math.pi
    assert np.all(np.abs(turn[proper]) < 1e-12)


def test_rotated_keeps_the_disjointness_flag_and_rejects_circle_sets():
    gen = np.random.default_rng(93)
    for desc, disjoint in ((OVERLAPPING, False), (FACE_SHARING, False), (SETS["union"], True)):
        union = parse_set(desc)
        assert union.disjoint == disjoint
        for _ in range(100):
            assert rotated(union, ig._haar_rotation(gen)).disjoint == disjoint
    with pytest.raises(TypeError):
        rotated(ArcUnion([(0.0, 1.0)]), np.eye(2))


# (slots of one row, their union) on the circle
MERGE_CASES = [
    ([(0.5, 1.0), (1.2, 1.0)], [(0.5, 1.7)]),            # overlap
    ([(1.0, 3.0), (2.0, 0.5)], [(1.0, 3.0)]),            # nested
    ([(1.0, 1.0), (1.0, 1.0)], [(1.0, 1.0)]),            # equal
    ([(1.0, 1.0), (2.0, 1.0)], [(1.0, 2.0)]),            # touching
    ([(6.0, 1.0), (0.5, 0.5)], [(6.0, 1.0 + TWO_PI - 6.0)]),  # across 2 pi
    ([(0.0, 4.0), (3.0, 4.0)], [(0.0, TWO_PI)]),         # covers the circle
    ([(1.0, 0.5), (3.0, 0.5)], [(1.0, 0.5), (3.0, 0.5)]),  # disjoint
    ([(0.0, 0.0), (0.0, 0.0)], []),                      # empty
    ([(0.1, 0.7), (0.8, 0.5)], [(0.1, 1.2)]),            # touching, an ulp apart
    # nested, both ending at the same point up to roundoff across 2 pi: each
    # end read as inside the other slot, and the union as the full circle
    ([(5.273816224487821, 1.9387906445438965), (0.12832973513896673, 0.8010918267131653)],
     [(5.273816224487821, 1.9387906445438965)]),
]


def row_arcs(start, length):
    """The nonempty (start, length) slots of a one-row trace, sorted."""
    return sorted((a, la) for a, la in zip(start[0], length[0]) if la > 0.0)


def assert_arcs(got, expected):
    assert len(got) == len(expected)
    assert np.allclose(got, sorted(expected), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("slots, merged", MERGE_CASES)
def test_gaps_of_overlapping_slots_are_the_complement_of_their_union(slots, merged):
    # the union's arcs are disjoint and sorted: each gap runs from an arc's
    # end to the next arc's start
    if not merged:
        complement = [(0.0, TWO_PI)]
    elif merged[0][1] == TWO_PI:
        complement = []
    else:
        following = [a for a, _ in merged[1:]] + [merged[0][0] + TWO_PI]
        complement = [((a + la) % TWO_PI, b - a - la) for (a, la), b in zip(merged, following)]
    start = np.array([[a for a, _ in slots]])
    length = np.array([[la for _, la in slots]])
    assert_arcs(row_arcs(*sets._gaps(start, length)), complement)


@pytest.mark.parametrize("slots, merged", MERGE_CASES)
def test_merged_slots_are_the_union_of_the_arcs(slots, merged):
    # the union is the complement of the complement
    start = np.array([[a for a, _ in slots]])
    length = np.array([[la for _, la in slots]])
    assert_arcs(row_arcs(*sets._gaps(*sets._gaps(start, length))), merged)


@pytest.mark.parametrize("seed", range(5))
def test_merged_traces_of_random_overlapping_caps_are_exact(seed):
    # for the union and its complement and reflection: midpoints inside the
    # set, points 1e-6 beyond either end outside it, and no two slots of a
    # row overlapping
    gen = np.random.default_rng(seed)
    caps = tuple(Cap(gen.standard_normal(3), gen.uniform(0.2, 2.5))
                 for _ in range(int(gen.integers(2, 4))))
    union = PolyconvexUnion(caps)
    assert not union.disjoint
    es, fs = sample_plane_batch(2, 500, gen)
    phi = gen.uniform(0.0, TWO_PI, (500, 64))
    for E in (union, Complement(union), Reflection(union)):
        start, length, degenerate = trace(E, es, fs)
        ok = ~degenerate
        proper = ok[:, None] & (length > 0.0) & (length < TWO_PI)

        def inside(phi):
            return E.contains(np.cos(phi)[..., None] * es[:, None, :]
                              + np.sin(phi)[..., None] * fs[:, None, :])

        assert np.all(inside(start + 0.5 * length)[ok[:, None] & (length > 0.0)])
        assert not np.any(inside(start - 1e-6)[proper])
        assert not np.any(inside(start + length + 1e-6)[proper])
        assert np.all(length[ok].sum(axis=1) <= TWO_PI + 1e-12)
        # the trace holds exactly the points the set holds
        in_slots = np.zeros(phi.shape, dtype=bool)
        for k in range(start.shape[1]):
            in_slots |= (phi - start[:, k : k + 1]) % TWO_PI < length[:, k : k + 1]
        assert np.array_equal(in_slots[ok], inside(phi)[ok])


def cap_lens_area(r1, r2, d):
    """Area of two caps' intersection on S^2, centers d apart: over the
    polar angle theta about the first center, the angular share of the
    second cap, by quadrature."""
    def share(theta):
        c = (math.cos(r2) - math.cos(theta) * math.cos(d)) / (math.sin(theta) * math.sin(d))
        return 2.0 * math.acos(min(1.0, max(-1.0, c)))

    return quad(lambda t: math.sin(t) * share(t), 0.0, r1, epsabs=0.0, epsrel=1e-13,
                limit=200)[0]


def two_cap_union_boundary(r, d):
    """Boundary length of the union of two radius-r caps whose centers are d
    apart: each circle outside the other cap, whose points at azimuth phi
    about its center lie inside the other cap for
    cos phi > cos r (1 - cos d) / (sin r sin d)."""
    c = math.cos(r) * (1.0 - math.cos(d)) / (math.sin(r) * math.sin(d))
    return 2.0 * math.sin(r) * (TWO_PI - 2.0 * math.acos(c))


def test_overlapping_union_crossings_count_its_boundary():
    # the parts' slots used to be concatenated, so the count was the two
    # caps' counts added: 3.366 against the union's 2 L / 2 pi = 1.914
    E = parse_set(OVERLAPPING)
    truth = 2.0 * two_cap_union_boundary(1.0, math.acos(0.8)) / TWO_PI
    assert truth == pytest.approx(1.9141, abs=1e-4)
    report = crofton_estimate(E, 100_000, RandomStream(3))
    assert report.target is None
    assert abs(report.crossings.value - truth) < 4.0 * report.crossings.std_error


def test_overlapping_union_sliced_value():
    # at s = -2 the kernel is 1 and P = |E| (4 pi - |E|); at s = 0.5 a cap
    # with a smaller cap inside it is the larger cap
    E = parse_set(OVERLAPPING)
    measure = 2.0 * cap_area(2, 1.0) - cap_lens_area(1.0, 1.0, math.acos(0.8))
    est = perimeter_mc(E, -2.0, 32 * 4096, RandomStream(90))
    assert abs(est.value - perimeter_minus_n(2, measure)) < 4.0 * est.std_error
    nested = PolyconvexUnion((Cap(Z, 1.0), Cap((0.0, 0.3, 1.0), 0.5)))
    est = perimeter_mc(nested, 0.5, 32 * 4096, RandomStream(91))
    assert abs(est.value - covariogram_cap_perimeter(2, 0.5, 1.0, tol=1e-12)) < 4.0 * est.std_error


# two radius-0.5 caps 0.99 apart, whose lens covers 7.8e-5 of the sphere:
# a sampled overlap check of 10000 points missed it, and every number
# printed was the disjoint union's
THIN_LENS = "union:cap:0,0,1:0.5+cap:0.8360259786005205,0,0.5486898605815875:0.5"


def test_a_thin_lens_makes_no_disjoint_union(capsys):
    # perimeter read 16.97716 +- 0.00012 (174 sigma off) against a target
    # of 16.96489, and crofton 1.9186 against a target of 1.9177; neither
    # target is known for overlapping caps
    measure = 2.0 * cap_area(2, 0.5) - cap_lens_area(0.5, 0.5, 0.99)
    assert perimeter_minus_n(2, measure) == pytest.approx(16.955559359619162, rel=1e-12)
    assert main(["perimeter", "--n", "2", "--set", THIN_LENS, "--s", "-2", "--method", "mc",
                 "--samples", "131072"]) == 0
    _, value, error, target, _ = capsys.readouterr().out.splitlines()[1].split(",")
    assert target == "nan"
    assert abs(float(value) - 16.955559359619162) < 4.0 * float(error)
    assert main(["crofton", "--n", "2", "--set", THIN_LENS, "--planes", "100000"]) == 0
    _, value, error, target, _ = capsys.readouterr().out.splitlines()[1].split(",")
    assert target == "nan"
    truth = 2.0 * two_cap_union_boundary(0.5, 0.99) / TWO_PI
    assert abs(float(value) - truth) < 4.0 * float(error)


def test_duplicate_faces_are_one_face():
    # the doubled face flagged every circle degenerate, and both estimates
    # gave up after 100 redraw rounds
    hemisphere, doubled = parse_set("poly:0,0,-1"), parse_set("poly:0,0,-1;0,0,-1")
    assert np.array_equal(doubled.normals, hemisphere.normals)
    for s in (-2.0, 0.3):
        assert (perimeter_mc(doubled, s, 4096, RandomStream(94))
                == perimeter_mc(hemisphere, s, 4096, RandomStream(94)))
    assert crofton_estimate(doubled, 4096, RandomStream(95)) == crofton_estimate(
        hemisphere, 4096, RandomStream(95))


# Two octants that share the face x = 0 and two wedges that overlap: either
# union is the lune {y >= 0, z >= 0}, and neither is shown disjoint, so
# their slots are merged.  On many circles two of their slots end at one
# point up to roundoff, which used to read as a sliver of arc (the octants,
# 34 sigma off at s = 0.9, when they were shown disjoint) or as the full
# circle (the wedges' merged slots, on about 1.2% of circles).
FACE_SHARING = "union:poly:-1,0,0;0,-1,0;0,0,-1+poly:1,0,0;0,-1,0;0,0,-1"
OVERLAPPING_WEDGES = "union:poly:-1,-0.3,0;0,-1,0;0,0,-1+poly:1,-0.3,0;0,-1,0;0,0,-1"
LUNE = Polytope([(0.0, -1.0, 0.0), (0.0, 0.0, -1.0)])


@pytest.mark.parametrize("desc", (FACE_SHARING, OVERLAPPING_WEDGES), ids=("octants", "wedges"))
def test_unions_with_touching_slots_are_the_lune_they_form(desc):
    E = parse_set(desc)
    assert not E.disjoint
    for s in (0.3, 0.9, 0.99):
        est = perimeter_mc(E, s, 32 * 4096, RandomStream(5))
        ref = perimeter_mc(LUNE, s, 32 * 4096, RandomStream(92))
        combined = math.hypot(est.std_error, ref.std_error)
        assert abs(est.value - ref.value) < 3.0 * combined, (s, est, ref)


def test_overlapping_wedges_cross_the_lune_boundary_twice():
    # the lune's boundary is two half great circles, which every circle
    # crosses once each: the count is 2 on every circle, and the error 0
    report = crofton_estimate(parse_set(OVERLAPPING_WEDGES), 100_000, RandomStream(3))
    assert abs(report.crossings.value - 2.0) <= 3.0 * report.crossings.std_error


def test_face_sharing_octants_read_as_the_lune_they_form():
    # on the same circles the octants' merged slots are the lune's up to
    # roundoff; when shown disjoint, they read a Crofton count of 2.99994 +-
    # 0.00047 against a target of 3, their shared face counted in both parts
    octants = parse_set(FACE_SHARING)
    report = crofton_estimate(octants, 100_000, RandomStream(3))
    assert report.crossings == crofton_estimate(LUNE, 100_000, RandomStream(3)).crossings
    assert (report.crossings.value, report.crossings.std_error) == (2.0, 0.0)
    assert report.target is None
    for s in (-2.0, 0.9):
        est = perimeter_mc(octants, s, 32 * 1024, RandomStream(5))
        ref = perimeter_mc(LUNE, s, 32 * 1024, RandomStream(5))
        assert est.value == pytest.approx(ref.value, rel=1e-12)
        assert est.std_error == pytest.approx(ref.std_error, rel=1e-6)
