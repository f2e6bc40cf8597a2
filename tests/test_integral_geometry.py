import inspect
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from spherefrac import (
    Cap,
    PolyconvexUnion,
    Polytope,
    RandomStream,
    bp_check,
    bp_constant,
    crofton_estimate,
    estimation,
)
import spherefrac.integral_geometry as ig
from spherefrac.integral_geometry import sample_plane_batch

from oracles import polytope_boundary_measure, sample_plane_batch_masked
from test_geometry import ScriptedNormals


def octant():
    return Polytope(-np.eye(3))


def const_kernel(x, y):
    return np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))


def dot2(x, y):
    return (1.0 + np.sum(x * y, axis=-1)) ** 2


def x0_y1_squared(x, y):
    """Not a function of x.y, so its circle integral depends on the plane."""
    return x[..., 0] ** 2 * y[..., 1] ** 2


def test_bp_constant_closed_forms():
    assert bp_constant(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert bp_constant(3) == pytest.approx(2.0 * math.pi**2, rel=1e-14)


def test_sample_plane_batch_frames_are_orthonormal():
    es, fs = sample_plane_batch(3, 500, np.random.default_rng(5))
    assert es.shape == fs.shape == (500, 4)
    assert np.allclose(np.linalg.norm(es, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(fs, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.sum(es * fs, axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sample_plane_batch_matches_masked_form_on_the_same_seed(n):
    es, fs = sample_plane_batch(n, 200_000, np.random.default_rng(30 + n))
    es_ref, fs_ref = sample_plane_batch_masked(n, 200_000, np.random.default_rng(30 + n))
    assert np.array_equal(es, es_ref)
    assert np.array_equal(fs, fs_ref)


def test_sample_plane_batch_redraws_degenerate_rows():
    # row 0 has a zero e, row 2 an f parallel to e; both are redrawn, in
    # order, from the second pair of draws, and row 2 once more from the third
    script = [
        [[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [0.0, 0.0, 3.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -2.0]],
        [[0.0, 4.0, 3.0], [1.0, 1.0, 1.0]],
        [[1.0, 0.0, 0.0], [2.0, 2.0, 2.0]],
        [[0.0, 0.0, 5.0]],
        [[3.0, 4.0, 0.0]],
    ]
    es, fs = sample_plane_batch(2, 3, ScriptedNormals(*script))
    es_ref, fs_ref = sample_plane_batch_masked(2, 3, ScriptedNormals(*script))
    assert np.array_equal(es, es_ref)
    assert np.array_equal(fs, fs_ref)
    assert np.array_equal(es, [[0.0, 0.8, 0.6], [1 / 3, 2 / 3, 2 / 3], [0.0, 0.0, 1.0]])
    assert np.array_equal(fs, [[1.0, 0.0, 0.0], fs_ref[1], [0.6, 0.8, 0.0]])


def test_sample_plane_batch_is_isotropic():
    # first frame vector should be uniform: its coordinates have mean 0
    es, _ = sample_plane_batch(2, 20_000, np.random.default_rng(8))
    assert np.all(np.abs(es.mean(axis=0)) < 4.0 / math.sqrt(20_000))


def test_bp_check_constant_kernel():
    # f = 1: both sides equal omega_3^2 = 16 pi^2; the product rule is
    # exact for a constant, so the plane side is too, up to roundoff
    report = bp_check(2, lambda x, y: np.ones(np.broadcast(x, y).shape[:-1]),
                      pairs=20_000, planes=50, rng=RandomStream(21))
    exact = (4.0 * math.pi) ** 2
    assert report.direct.value == pytest.approx(exact, rel=1e-12)
    assert report.direct.std_error == 0.0
    assert report.plane_side.value == pytest.approx(exact, rel=1e-13)


def test_bp_check_quadratic_kernel():
    # f = (1 + x.y)^2 integrates to omega_3^2 (1 + 1/3) since E[(x.y)^2] = 1/3
    report = bp_check(2, dot2, pairs=200_000, planes=200, rng=RandomStream(22))
    exact = (4.0 * math.pi) ** 2 * (4.0 / 3.0)
    assert abs(report.direct.value - exact) < 4.0 * report.direct.std_error
    assert report.deviation_sigmas < 4.0
    assert report.constant == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_bp_check_plane_dependent_kernel_matches_haar_average():
    # f = x_0^2 y_1^2 integrates to (4 pi / 3)^2.  Unlike const and dot2 it
    # is not rotation invariant, so its circle integral varies with the
    # plane and the plane side averages it over the frame sampler's planes
    report = bp_check(2, x0_y1_squared, pairs=200_000, planes=2000, rng=RandomStream(28))
    exact = (4.0 * math.pi / 3.0) ** 2
    assert report.plane_side.std_error > 0.01 * exact
    assert abs(report.direct.value - exact) < 4.0 * report.direct.std_error
    assert abs(report.plane_side.value - exact) < 4.0 * report.plane_side.std_error


# ---------------------------------------------------------------------------
# the plane side's spectral product rule

DEFAULT_NODES = inspect.signature(bp_check).parameters["nodes"].default
# omega_(n+1) = H^n(S^n), and the sine moments int_0^pi sin^(n-1) u du and
# int_0^pi sin^(n-1) u cos(2u) du, in closed form for n = 1 .. 4
SPHERE = {1: 2.0 * math.pi, 2: 4.0 * math.pi, 3: 2.0 * math.pi**2, 4: 8.0 * math.pi**2 / 3.0}
SINE_MOMENTS = {1: (math.pi, 0.0), 2: (2.0, -2.0 / 3.0), 3: (math.pi / 2.0, -math.pi / 4.0),
                4: (4.0 / 3.0, -4.0 / 5.0)}


def plane_integrals(n, f, es, fs, nodes):
    """c_n times the product-rule double integral over each circle."""
    return bp_constant(n) * ig._circle_integrals(f, es, fs, ig._circle_weights(n, nodes))


@pytest.mark.parametrize("n", (1, 2, 3, 4, 7, 30))
@pytest.mark.parametrize("nodes", (2, 3, 16, 31, 32, 64))
def test_circle_weights_match_quadrature_of_the_fourier_series(n, nodes):
    # w_k = (1/pi) int_0^pi sin^(n-1) u cos(k u) du by QUADPACK's cosine-
    # weighted rule, and W_m = h^2 sum over |k| <= nodes/2 of
    # w_k cos(k m h), the +-nodes/2 terms halved for even nodes
    h = 2.0 * math.pi / nodes
    ks = np.arange(-(nodes // 2), nodes // 2 + 1)
    w_hat = np.array([
        0.0 if k % 2 else quad(lambda u: math.sin(u) ** (n - 1), 0.0, math.pi, weight="cos",
                               wvar=abs(k), epsabs=1e-13, epsrel=1e-12, limit=200)[0] / math.pi
        for k in ks
    ])
    if nodes % 2 == 0:
        w_hat[[0, -1]] *= 0.5
    m = np.arange(nodes)
    row = h * h * (np.cos(h * (np.outer(m, ks) % nodes)) @ w_hat)
    expected = row[(m[:, None] - m[None, :]) % nodes]
    got = ig._circle_weights(n, nodes)
    assert got.shape == (nodes, nodes)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_product_rule_is_exact_on_closed_forms(n):
    # const and dot2 integrate to omega^2 and omega^2 (1 + 1/(n+1)) over
    # every circle; x_0^2 y_1^2, with x_0^2 = A + B cos 2phi + C sin 2phi and
    # y_1^2 = A' + ..., to c_n (4 pi S0 A A' + 2 pi S2 (B B' + C C'))
    es, fs = sample_plane_batch(n, 16, np.random.default_rng(70 + n))
    omega2 = SPHERE[n] ** 2
    s0, s2 = SINE_MOMENTS[n]
    # (cos phi e_i + sin phi f_i)^2 = A + B cos 2phi + C sin 2phi
    parts = lambda i: ((es[:, i] ** 2 + fs[:, i] ** 2) / 2, (es[:, i] ** 2 - fs[:, i] ** 2) / 2,
                       es[:, i] * fs[:, i])
    (a0, b0, c0), (a1, b1, c1) = parts(0), parts(1)
    x0y1 = bp_constant(n) * (4.0 * math.pi * s0 * a0 * a1 + 2.0 * math.pi * s2 * (b0 * b1 + c0 * c1))
    cases = ((const_kernel, omega2), (dot2, omega2 * (n + 2) / (n + 1)), (x0_y1_squared, x0y1))
    for f, exact in cases:
        got = plane_integrals(n, f, es, fs, DEFAULT_NODES)
        assert np.max(np.abs(got / exact - 1.0)) <= 1e-12


def test_bp_check_dot2_plane_side_is_exact():
    report = bp_check(2, dot2, pairs=1000, planes=300, rng=RandomStream(71))
    assert report.plane_side.value == pytest.approx(64.0 * math.pi**2 / 3.0, rel=1e-13)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_default_nodes_match_a_1024_node_rule_on_smooth_kernels(n):
    # kernels of every degree in the circle angles: the default grid is
    # within 1e-9 of the 1024-node rule on each plane (a 256-node midpoint
    # rule is off by 4e-4 at n = 2 and by 1e-7 at n = 4)
    def exp8(x, y):
        return np.exp(8.0 * np.sum(x * y, axis=-1))

    def exp3(x, y):
        return np.exp(3.0 * x[..., 0] * y[..., 1])

    es, fs = sample_plane_batch(n, 16, np.random.default_rng(80 + n))
    for f in (exp8, exp3):
        ref = plane_integrals(n, f, es, fs, 1024)
        got = plane_integrals(n, f, es, fs, DEFAULT_NODES)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-9


def test_plane_counts_below_one_are_rejected():
    E = Cap((0.0, 0.0, 1.0), 0.8)
    with pytest.raises(ValueError, match="at least one plane"):
        crofton_estimate(E, planes=0, rng=RandomStream(1))
    with pytest.raises(ValueError, match="at least one plane"):
        bp_check(2, lambda x, y: np.ones(np.broadcast(x, y).shape[:-1]),
                 pairs=100, planes=0, rng=RandomStream(1))


def test_one_sample_gives_nan_sigmas_not_zero():
    # one circle or one pair has an infinite error bar: no deviation is
    # measured, where 0 sigmas would read as agreement
    report = crofton_estimate(Cap((0.0, 0.0, 1.0), 0.8), planes=1, rng=RandomStream(2))
    assert report.crossings.std_error == math.inf
    assert math.isnan(report.deviation_sigmas)
    bp = bp_check(2, lambda x, y: np.ones(np.broadcast(x, y).shape[:-1]),
                  pairs=1, planes=3, rng=RandomStream(2), nodes=8)
    assert bp.direct.std_error == math.inf
    assert math.isnan(bp.deviation_sigmas)


def test_crofton_cap_matches_boundary_length():
    report = crofton_estimate(Cap((0.0, 0.0, 1.0), 0.8), planes=20_000, rng=RandomStream(23))
    assert report.target == pytest.approx(2.0 * math.sin(0.8), rel=1e-12)
    assert report.deviation_sigmas < 4.0


def test_crofton_cap_crossings_are_zero_or_two():
    report = crofton_estimate(Cap((0.0, 0.0, 1.0), 0.4), planes=5_000, rng=RandomStream(24))
    # mean of a {0, 2} variable stays in [0, 2]
    assert 0.0 < report.crossings.value < 2.0
    assert report.degenerate_resamples == 0


def test_polytope_boundary_oracle_octant():
    # three quarter-circle edges
    assert polytope_boundary_measure(octant().normals) == pytest.approx(1.5 * math.pi, abs=0.01)
    with pytest.raises(ValueError):
        polytope_boundary_measure(-np.eye(4))


def test_crofton_octant_matches_dense_boundary_oracle():
    report = crofton_estimate(octant(), planes=20_000, rng=RandomStream(25))
    dense = 2.0 * polytope_boundary_measure(octant().normals) / (2.0 * math.pi)
    assert report.target == pytest.approx(dense, abs=0.01)
    assert report.deviation_sigmas < 4.0


def test_crofton_union_crossings_add():
    caps = PolyconvexUnion((Cap((0.0, 0.0, 1.0), 0.5), Cap((1.0, 0.0, 0.0), 0.5)))
    report = crofton_estimate(caps, planes=20_000, rng=RandomStream(26))
    assert report.target == pytest.approx(4.0 * math.sin(0.5), rel=1e-12)
    assert report.deviation_sigmas < 4.0


def test_crofton_error_bar_covers_at_the_nominal_rate(monkeypatch):
    # on S^2 the error bar is the spread of 32 rotation means, so
    # |mean - target| / error is t-distributed with 31 degrees of freedom;
    # over 200 seeds per set, the share inside the two-sided 95% quantile
    # must lie within 3 binomial sigma of 95%.  Reports are the same on any
    # worker count; one worker saves the thread start-up of 800 small calls
    # (about 8 s against 14 s on 2 CPUs).
    monkeypatch.setattr(estimation, "_worker_count", lambda: 1)
    sets = {
        "cap r=0.5": Cap((0.0, 0.0, 1.0), 0.5),
        "cap r=2": Cap((0.0, 0.0, 1.0), 2.0),
        "octant": octant(),
        "union": PolyconvexUnion((Cap((0.0, 0.0, 1.0), 0.6), Cap((1.0, 0.0, 0.0), 0.8))),
    }
    runs = 200
    quantile = stats.t.ppf(0.975, 31)
    allowed = 3.0 * math.sqrt(0.95 * 0.05 / runs)
    shares = {}
    for k, (name, E) in enumerate(sets.items()):
        covered = 0
        for stream in RandomStream(70 + k).split(runs):
            report = crofton_estimate(E, planes=32 * 256, rng=stream)
            assert report.crossings.samples == 32
            covered += abs(report.crossings.value - report.target) <= quantile * report.crossings.std_error
        shares[name] = covered / runs
    print("crofton coverage: " + ", ".join(f"{name} {share:.3f}" for name, share in shares.items()))
    assert all(abs(share - 0.95) <= allowed for share in shares.values()), shares
