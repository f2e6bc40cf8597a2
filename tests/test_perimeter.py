import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spherefrac import (
    ArcUnion,
    Cap,
    Complement,
    RandomStream,
    adaptive_quad,
    antipodal_concentration_quad,
    cap_area,
    interval_perimeter_exact,
    interval_perimeter_localized,
    perimeter_cap,
    perimeter_circle_exact,
    perimeter_mc,
    perimeter_minus_n,
    s_regime,
    seminorm_mc,
    sphere_surface,
    validate_s,
)

from spherefrac.perimeter import CAP_TOL, _cap_crescent

from oracles import CAP_PERIMETERS, CAP_RADII, circle_perimeter_midpoint, circle_perimeter_quad

Z = (0.0, 0.0, 1.0)
INF = math.inf


# ---------------------------------------------------------------------------
# parameter plumbing


def test_validate_s_rejects_the_closed_endpoint():
    assert validate_s(-50.0) == -50.0
    assert validate_s(0.999) == 0.999
    for bad in (1.0, 1.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            validate_s(bad)


def test_s_regime_labels():
    assert s_regime(0.5, 2) == "singular"
    assert s_regime(0.0, 2) == "mild"
    assert s_regime(-2.0, 2) == "mild"
    assert s_regime(-2.1, 2) == "smooth"


def test_perimeter_minus_n_closed_form():
    omega = sphere_surface(2)
    assert perimeter_minus_n(2, 0.0) == 0.0
    assert perimeter_minus_n(2, omega) == pytest.approx(0.0, abs=1e-12)
    assert perimeter_minus_n(2, 2.0 * math.pi) == pytest.approx(4.0 * math.pi**2, rel=1e-14)
    with pytest.raises(ValueError):
        perimeter_minus_n(2, omega + 0.1)


# ---------------------------------------------------------------------------
# exact circle formula


@pytest.mark.parametrize("s", [-2.0, -0.5])
def test_circle_exact_matches_midpoint_oracle_smooth_kernel(s):
    # endpoints sit on cell edges so the indicator is exact on the grid;
    # s = -2 has a bounded kernel and the midpoint rule is O(h^2), while
    # s = -0.5 carries an O(h^1.5) corner term, hence the looser tolerance
    h0 = 2.0 * math.pi / 1000.0
    E = ArcUnion([(32 * h0, 207 * h0), (478 * h0, 143 * h0)])
    exact = perimeter_circle_exact(E, s)
    brute = circle_perimeter_midpoint(E.arcs, s, nodes=4000)
    rel = 1e-6 if s <= -1.0 else 2e-5
    assert exact == pytest.approx(brute, rel=rel)


def test_circle_exact_edge_cases():
    assert perimeter_circle_exact(ArcUnion([]), -0.5) == 0.0
    full = ArcUnion([(0.0, 2.0 * math.pi)])
    assert perimeter_circle_exact(full, -0.5) == 0.0
    assert perimeter_circle_exact(full, 0.0) == 0.0
    with pytest.raises(ValueError):
        perimeter_circle_exact(ArcUnion([(0.0, 1.0)]), 1.0)
    with pytest.raises(TypeError):
        perimeter_circle_exact(Cap(Z, 1.0), -0.5)


def random_arc_union(gen):
    """1 to 4 disjoint arcs between sorted uniform cut points."""
    cuts = np.sort(gen.uniform(0.0, 2.0 * math.pi, 2 * int(gen.integers(1, 5))))
    return ArcUnion([(float(a), float(b - a)) for a, b in zip(cuts[::2], cuts[1::2])])


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    s=st.one_of(st.just(0.0), st.floats(min_value=-0.5, max_value=0.999)),
)
def test_circle_exact_is_rotation_complement_and_reflection_invariant(seed, s):
    gen = np.random.default_rng(seed)
    E = random_arc_union(gen)
    p = perimeter_circle_exact(E, s)
    assert p > 0.0
    rotated = E.shifted(float(gen.uniform(0.0, 2.0 * math.pi)))
    for image in (rotated, E.gaps(), E.shifted(math.pi)):
        assert perimeter_circle_exact(image, s) == pytest.approx(p, rel=1e-12)


@pytest.mark.parametrize("arcs", [[(0.0, 1.0)], [(0.3, 1.7), (2.9, 0.4), (4.0, 1.5)]])
def test_circle_exact_at_s_zero_is_the_logarithmic_limit(arcs):
    E = ArcUnion(arcs)
    p0 = perimeter_circle_exact(E, 0.0)
    assert p0 == pytest.approx(circle_perimeter_quad(E.arcs, 0.0), rel=1e-12)
    assert perimeter_circle_exact(E.gaps(), 0.0) == pytest.approx(p0, rel=1e-12)
    # s = +-1e-7 move P by about 1e-7 P'; the kernel's antiderivative has
    # no 1/s term, so their mean is P(0) up to the s^2 term
    below, above = perimeter_circle_exact(E, -1e-7), perimeter_circle_exact(E, 1e-7)
    assert below == pytest.approx(p0, rel=1e-6) and above == pytest.approx(p0, rel=1e-6)
    assert 0.5 * (below + above) == pytest.approx(p0, rel=1e-12)
    # a subnormal or tiny s is P(0), not an overflow of 1/s
    for tiny in (5e-324, -1e-300, 1e-12):
        assert perimeter_circle_exact(E, tiny) == pytest.approx(p0, rel=1e-11)
    # the quadrature oracle itself, where the power-law formula holds
    for s in (-0.5, 0.3):
        assert perimeter_circle_exact(E, s) == pytest.approx(
            circle_perimeter_quad(E.arcs, s), rel=1e-12
        )


def test_circle_exact_complement_symmetry():
    E = ArcUnion([(0.1, 0.7), (2.0, 1.1)])
    for s in (-1.5, -0.5, 0.3, 0.7):
        assert perimeter_circle_exact(E, s) == pytest.approx(
            perimeter_circle_exact(E.gaps(), s), rel=1e-11
        )


@pytest.mark.parametrize("t", [5.11, 2.0 * math.pi - 1.3, 1.0, 3.7, 6.2])
def test_circle_exact_is_rotation_invariant_near_s_1(t):
    # an arc ending past the wrap point used to meet its own gap at a
    # roundoff-sized offset, where G(x) = -x^(1-s)/(s(1-s)) is far from 0
    ref = perimeter_circle_exact(ArcUnion([(0.0, 1.3)]), 0.99)
    assert perimeter_circle_exact(ArcUnion([(t, 1.3)]), 0.99) == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# interval formulas on the line


def test_interval_perimeter_exact_unit_interval_closed_form():
    # single interval in the full line: both gaps are half-lines and the
    # pair sum collapses to 2 / (s (1 - s))
    for s in (0.3, 0.7, 0.9):
        value = interval_perimeter_exact([(0.0, 1.0)], (-INF, INF), s)
        assert value == pytest.approx(2.0 / (s * (1.0 - s)), rel=1e-12)


def test_interval_perimeter_exact_window_and_validation():
    # complements are taken inside the window: E = [0,1] in (0,2) interacts
    # only with (1,2), giving (2 - 2^(1-s)) / (s (1-s))
    s = 0.5
    v = interval_perimeter_exact([(0.0, 1.0)], (0.0, 2.0), s)
    assert v == pytest.approx((2.0 - 2.0 ** (1.0 - s)) / (s * (1.0 - s)), rel=1e-12)
    with pytest.raises(ValueError):
        interval_perimeter_exact([(1.0, 0.0)], (-INF, INF), 0.5)
    with pytest.raises(ValueError):
        interval_perimeter_exact([(0.0, 1.0), (0.5, 2.0)], (-INF, INF), 0.5)
    with pytest.raises(ValueError):
        interval_perimeter_exact([(0.0, 1.0)], (-INF, INF), -0.5)


def test_interval_perimeter_localized_closed_form():
    for s, eps in ((0.3, 0.2), (0.9, 0.4)):
        v = interval_perimeter_localized([(0.0, 1.0)], (-INF, INF), s, eps)
        assert v == pytest.approx(2.0 * eps ** (1.0 - s) / (1.0 - s), rel=1e-12)
    with pytest.raises(ValueError):
        interval_perimeter_localized([(0.0, 1.0)], (-INF, INF), 0.5, 0.6)


# ---------------------------------------------------------------------------
# cap oracle


def test_perimeter_cap_validation_and_degenerate_radii():
    with pytest.raises(ValueError):
        perimeter_cap(2, -1.0, -0.1)
    with pytest.raises(ValueError):
        perimeter_cap(2, -1.0, 3.5)
    with pytest.raises(ValueError):
        perimeter_cap(2, -1.0, 1.0, tol=0.0)  # would exhaust the quadrature budget
    assert perimeter_cap(2, -1.0, 0.0) == 0.0
    assert perimeter_cap(2, -1.0, math.pi) == 0.0


def test_perimeter_cap_n1_delegates_to_circle_formula():
    r = 0.9
    expected = perimeter_circle_exact(ArcUnion([(-r, 2.0 * r)]), -0.7)
    assert perimeter_cap(1, -0.7, r) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_perimeter_cap_pivot_identity(n):
    gen = np.random.default_rng(6)
    omega = sphere_surface(n)
    for r in gen.uniform(0.1, math.pi - 0.1, size=5):
        a = cap_area(n, float(r))
        assert perimeter_cap(n, -float(n), float(r)) == pytest.approx(
            a * (omega - a), rel=1e-8
        )


@pytest.mark.parametrize("n,s", sorted(CAP_PERIMETERS))
def test_perimeter_cap_error_bar_is_honest(n, s):
    # the reported error |value| * tol must cover the distance to values
    # pinned at 40 digits, all the way to s -> 1
    for r, pinned in zip(CAP_RADII, CAP_PERIMETERS[(n, s)]):
        value = perimeter_cap(n, s, r)
        assert abs(value - pinned) <= abs(value) * CAP_TOL, (r, value, pinned)


def test_cap_crescent_matches_closed_forms_on_s2_and_s3():
    for r in (0.2, 1.0, math.pi / 2):
        theta = np.concatenate((np.logspace(-12, -1, 12), np.linspace(0.1, 2.0 * r, 40)))
        h = 0.5 * theta
        # n = 2: full cap minus the lens of two radius-r caps theta apart
        tau = 2.0 * np.arcsin(np.minimum(np.sin(h) / math.sin(r), 1.0))
        lens_free = 2.0 * tau - 4.0 * math.cos(r) * np.arcsin(
            np.minimum(np.tan(h) / math.tan(r), 1.0)
        )
        assert np.allclose(_cap_crescent(2, r, theta), lens_free, rtol=1e-12, atol=0.0)
        s3 = 4.0 * math.pi * (
            (h / 2.0 - np.sin(2.0 * h) / 4.0) + np.tan(h) * (math.sin(r) ** 2 - np.sin(h) ** 2) / 2.0
        )
        assert np.allclose(_cap_crescent(3, r, theta), s3, rtol=1e-12, atol=0.0)
        # past 2r the copy is disjoint and the crescent is the whole cap
        assert _cap_crescent(3, r, 2.0 * r + 0.1) == pytest.approx(cap_area(3, r), rel=1e-14)


def test_perimeter_cap_complement_symmetry():
    for s in (-3.0, -0.5, 0.5):
        left = perimeter_cap(2, s, 1.1)
        right = perimeter_cap(2, s, math.pi - 1.1)
        assert left == pytest.approx(right, rel=1e-7)


def test_perimeter_cap_monotone_in_radius_up_to_hemisphere():
    values = [perimeter_cap(2, 0.3, r) for r in (0.3, 0.8, 1.2, math.pi / 2)]
    assert all(x < y for x, y in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def test_perimeter_mc_agrees_with_oracle_mild_and_singular():
    # s = 0 is the power law's logarithmic limit above the boundary distance
    cap = Cap(Z, 1.0)
    for s in (-0.5, 0.0, 0.5):
        oracle = perimeter_cap(2, s, 1.0)
        est = perimeter_mc(cap, s, 200_000, RandomStream(11))
        assert abs(est.value - oracle) < 4.0 * est.std_error


def test_perimeter_mc_complement_symmetry_statistical():
    cap = Cap(Z, 0.9)
    a = perimeter_mc(cap, -1.5, 200_000, RandomStream(12))
    b = perimeter_mc(Complement(cap), -1.5, 200_000, RandomStream(13))
    assert abs(a.value - b.value) < 4.0 * math.hypot(a.std_error, b.std_error)


@pytest.mark.parametrize("s", [-8.0, -0.5, 0.3])
def test_perimeter_mc_normalized_scaling_is_exact(s):
    # one sampler per regime: the same seed gives the same draws, and the
    # normalized kernel only rescales them by pi^(n+s)
    cap = Cap(Z, 1.0)
    plain = perimeter_mc(cap, s, 50_000, RandomStream(14))
    tilde = perimeter_mc(cap, s, 50_000, RandomStream(14), normalized=True)
    assert tilde.value == pytest.approx(math.pi ** (2.0 + s) * plain.value, rel=1e-12)


def test_perimeter_mc_warns_that_its_error_bar_fails_from_s_one_half():
    cap = Cap(Z, 1.0)
    with pytest.warns(RuntimeWarning, match="infinite variance"):
        perimeter_mc(cap, 0.5, 1000, RandomStream(17))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        perimeter_mc(cap, 0.3, 1000, RandomStream(17))


def test_perimeter_mc_positive_s_requires_boundary_distance():
    class Blob:
        dimension = 2

        def contains(self, points):
            return np.asarray(points)[:, 2] > 0.0

        def boundary_distance(self, points):
            return None

    for s in (0.0, 0.5):
        with pytest.raises(ValueError):
            perimeter_mc(Blob(), s, 1000, RandomStream(1))


# ---------------------------------------------------------------------------
# seminorms


def test_seminorm_mc_validation():
    f = lambda x: x[:, 0]
    with pytest.raises(ValueError):
        seminorm_mc(f, 2, 1.0, 0.5, 1000, RandomStream(1))
    with pytest.raises(ValueError):
        seminorm_mc(f, 2, 0.5, -1.0, 1000, RandomStream(1))


def test_seminorm_mc_constant_function_is_zero():
    est = seminorm_mc(lambda x: np.ones(len(x)), 2, 1.0, -1.0, 10_000, RandomStream(2))
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_seminorm_mc_coordinate_function_matches_quadrature():
    # for f = x_1 and p = 2 the pair average reduces to a 1-d integral:
    # E|f(x)-f(y)|^2 at distance theta is 2 (1 - cos theta) / (n + 1)
    n, s, p = 2, -1.2, 2.0

    def h(theta):
        return (
            2.0 / (n + 1)
            * (1.0 - np.cos(theta))
            * (theta / math.pi) ** (-(n + s * p))
            * np.sin(theta) ** (n - 1)
        )

    target = sphere_surface(n) * sphere_surface(n - 1) * adaptive_quad(
        h, 0.0, math.pi, tol=1e-10
    )
    est = seminorm_mc(lambda x: x[:, 0], n, p, s, 400_000, RandomStream(3))
    assert abs(est.value - target) < 4.0 * est.std_error


# ---------------------------------------------------------------------------
# antipodal concentration quadrature


def test_antipodal_concentration_quad_limit_and_delta_independence():
    limit = sphere_surface(1) * math.pi**2  # omega_2 pi^2 1!/1 = 2 pi^3
    v = antipodal_concentration_quad(2, 1.0, 1e4, math.pi)
    assert v == pytest.approx(limit, rel=3e-3)
    # mass concentrates at theta = pi, so a half-width window sees all of it
    w = antipodal_concentration_quad(2, 1.0, 1e4, math.pi / 2)
    assert w == pytest.approx(v, rel=1e-8)
    assert antipodal_concentration_quad(2, 1.0, 50.0, math.pi) > 0.0


def test_antipodal_concentration_quad_validation():
    with pytest.raises(ValueError):
        antipodal_concentration_quad(2, 1.0, 1.5, math.pi)  # t p <= n
    with pytest.raises(ValueError):
        antipodal_concentration_quad(2, 0.5, 100.0, 4.0)  # delta > pi
    with pytest.raises(ValueError):
        antipodal_concentration_quad(2, 0.5, 100.0, 0.0)
