import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import beta, betainc

from spherefrac import (
    cap_area,
    geodesic_distance,
    sample_at_distance,
    sample_uniform,
    sphere_surface,
    unit_vector,
    volume_radius,
)
from oracles import _beta_half, cap_area_midpoint, sample_at_distance_projected, sphere_surface_recursive


def test_sphere_surface_closed_forms():
    assert sphere_surface(0) == 2.0
    assert sphere_surface(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_surface(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_surface(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_sphere_surface_matches_slicing_recursion(k):
    assert sphere_surface(k) == pytest.approx(sphere_surface_recursive(k), rel=1e-8)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [0.3, 1.0, math.pi / 2, 2.5])
def test_cap_area_matches_midpoint_rule(n, r):
    assert cap_area(n, r) == pytest.approx(cap_area_midpoint(n, r), rel=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cap_area_endpoints_and_monotonicity(n):
    assert cap_area(n, 0.0) == 0.0
    assert cap_area(n, math.pi) == pytest.approx(sphere_surface(n), rel=1e-12)
    radii = np.linspace(0.0, math.pi, 50)
    areas = cap_area(n, radii)
    assert np.all(np.diff(areas) > 0.0)


@pytest.mark.parametrize("r", [-0.1, 3.2, math.nan, [0.5, math.nan]])
def test_cap_area_rejects_radii_outside_0_pi(r):
    # a nan radius passed the range check and came back as a nan area
    with pytest.raises(ValueError, match=r"cap radius must lie in \[0, pi\]"):
        cap_area(4, r)


def test_beta_half_matches_scipy_betainc():
    # the Student-t sums for every m = n - 1 of a sphere up to n = 342
    x = np.concatenate(([0.0], np.logspace(-300, 0, 301), [1.0]))
    for m in range(1, 342):
        np.testing.assert_allclose(
            _beta_half(m, x), betainc(0.5, 0.5 * m, x), rtol=1e-13, atol=0.0, err_msg=f"m = {m}"
        )


def test_cap_area_matches_the_incomplete_beta_form():
    # |S^n| I_u(n/2, n/2), u = sin^2(r/2), as scipy evaluates it.  Below
    # 1e-290 scipy's value loses its digits near underflow (at n = 38 and
    # r = 1.6e-8 it is 65% above a 50-digit value that cap_area matches to
    # 1e-15), so smaller areas are not compared
    radii = np.concatenate((np.logspace(-8, math.log10(math.pi), 200), [math.pi / 2]))
    for n in range(1, 343):
        half = 0.5 * n
        if n == 1:
            expected = 2.0 * radii
        else:
            expected = (
                sphere_surface(n - 1) * 2.0 ** (n - 1) * beta(half, half)
                * betainc(half, half, np.sin(0.5 * radii) ** 2)
            )
        normal = expected >= 1e-290
        np.testing.assert_allclose(
            cap_area(n, radii[normal]), expected[normal],
            rtol=1e-12 if n <= 12 else 1e-11, atol=0.0, err_msg=f"n = {n}",
        )


@given(
    n=st.sampled_from([1, 2, 3]),
    frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_volume_radius_inverts_cap_area(n, frac):
    alpha = frac * sphere_surface(n)
    r = volume_radius(n, alpha)
    assert 0.0 <= r <= math.pi
    assert cap_area(n, r) == pytest.approx(alpha, rel=1e-9, abs=1e-12)


def test_geodesic_distance_basic_identities():
    gen = np.random.default_rng(1)
    x = sample_uniform(2, 64, gen)
    y = sample_uniform(2, 64, gen)
    z = sample_uniform(2, 64, gen)
    assert np.allclose(geodesic_distance(x, x), 0.0, atol=1e-7)
    assert np.allclose(geodesic_distance(x, -x), math.pi, atol=1e-7)
    assert np.allclose(geodesic_distance(x, y), geodesic_distance(y, x))
    d = geodesic_distance(x, y)
    assert np.all(d <= geodesic_distance(x, z) + geodesic_distance(z, y) + 1e-12)


def test_unit_vector_normalizes():
    v = unit_vector((3.0, 0.0, 4.0))
    assert np.allclose(v, (0.6, 0.0, 0.8))
    assert np.linalg.norm(unit_vector((1e-3, -2e-3, 5e-3))) == pytest.approx(1.0, rel=1e-14)


def test_sample_uniform_moments():
    gen = np.random.default_rng(2)
    for n in (1, 2, 3):
        x = sample_uniform(n, 40_000, gen)
        assert x.shape == (40_000, n + 1)
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
        assert np.all(np.abs(x.mean(axis=0)) < 0.05)
        cov = x.T @ x / len(x)
        assert np.allclose(cov, np.eye(n + 1) / (n + 1), atol=0.02)


def test_sample_at_distance_hits_requested_distance():
    gen = np.random.default_rng(3)
    x = sample_uniform(2, 5000, gen)
    theta = gen.uniform(1e-6, math.pi - 1e-6, size=5000)
    y = sample_at_distance(x, theta, gen)
    assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-10)
    assert np.allclose(geodesic_distance(x, y), theta, atol=1e-7)


def realized_distance(x, y):
    # 2 atan2(|y - x|, |y + x|) keeps full precision near 0 and pi
    return 2.0 * np.arctan2(np.linalg.norm(y - x, axis=-1), np.linalg.norm(y + x, axis=-1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_samplers_match_plain_forms_on_the_same_seed(n):
    count = 200_000
    x = sample_uniform(n, count, np.random.default_rng(7))
    g = np.random.default_rng(7).standard_normal((count, n + 1))
    assert np.max(np.abs(x - g / np.linalg.norm(g, axis=1)[:, None])) <= 1e-13
    theta = np.random.default_rng(8).uniform(0.0, math.pi, count)
    theta[:2] = (0.0, math.pi)
    y = sample_at_distance(x, theta, np.random.default_rng(9))
    ref = sample_at_distance_projected(x, theta, np.random.default_rng(9))
    assert np.max(np.abs(y - ref)) <= 1e-13
    assert np.max(np.abs(realized_distance(x, y) - theta)) <= 1e-10
    # one point and a scalar distance
    y1 = sample_at_distance(x[0], 0.5, np.random.default_rng(10))
    assert y1.shape == (n + 1,)
    assert np.max(np.abs(y1 - sample_at_distance_projected(x[0], 0.5, np.random.default_rng(10)))) <= 1e-13
    assert abs(realized_distance(x[0], y1) - 0.5) <= 1e-10


class ScriptedNormals:
    """Stands in for a Generator: standard_normal returns the scripted
    arrays in turn, so a draw can be made to fail on purpose."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def standard_normal(self, shape):
        out = np.array(self.arrays.pop(0), dtype=float)
        assert out.shape == tuple(np.atleast_1d(shape))
        return out


def test_samplers_redraw_degenerate_rows():
    # a zero Gaussian row, and one parallel to x, have no direction
    x = sample_uniform(2, 1, ScriptedNormals([[0.0, 0.0, 0.0]], [[0.0, 3.0, 4.0]]))
    assert np.array_equal(x, [[0.0, 0.6, 0.8]])
    z = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    rng = ScriptedNormals([[0.0, 0.0, 2.0], [0.0, 1.0, 0.0]], [[1.0, 0.0, 5.0]])
    y = sample_at_distance(z, 0.5, rng)
    assert np.allclose(y, [[math.sin(0.5), 0.0, math.cos(0.5)],
                           [math.cos(0.5), math.sin(0.5), 0.0]], atol=1e-15)
    y1 = sample_at_distance(z[0], 0.5, ScriptedNormals([0.0, 0.0, -1.0], [[0.0, 2.0, 0.0]]))
    assert np.allclose(y1, [0.0, math.sin(0.5), math.cos(0.5)], atol=1e-15)


def test_sample_at_distance_azimuth_is_isotropic():
    # mean of y should align with x, with the transverse parts averaging out
    gen = np.random.default_rng(4)
    x = np.tile(unit_vector((0.0, 0.0, 1.0)), (20_000, 1))
    y = sample_at_distance(x, np.full(20_000, 1.0), gen)
    assert abs(y[:, 2].mean() - math.cos(1.0)) < 1e-12
    assert np.all(np.abs(y[:, :2].mean(axis=0)) < 0.02)


def test_great_circle_frame_and_distance():
    gen = np.random.default_rng(5)
    e = sample_uniform(2, 1, gen)[0]
    g = sample_uniform(2, 1, gen)[0]
    f = unit_vector(g - np.dot(g, e) * e)

    def point(phi):
        return np.cos(phi)[:, None] * e + np.sin(phi)[:, None] * f

    phi = np.linspace(0.0, 2.0 * math.pi, 17)
    assert np.allclose(np.linalg.norm(point(phi), axis=-1), 1.0, atol=1e-12)
    # the ambient geodesic distance is the parameter gap folded into [0, pi]
    psi = np.linspace(-3.0, 9.0, 17)
    d = geodesic_distance(point(phi), point(psi))
    gap = np.abs(phi - psi) % (2.0 * math.pi)
    assert np.allclose(np.minimum(gap, 2.0 * math.pi - gap), d, atol=1e-7)
