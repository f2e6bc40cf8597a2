import math

import numpy as np
import pytest

from spherefrac import (
    Cap,
    PolyconvexUnion,
    Polytope,
    RandomStream,
    bp_check,
    bp_constant,
    crofton_estimate,
    trace,
)
from spherefrac.integral_geometry import _crossings, sample_plane_batch

from oracles import polytope_boundary_measure, sample_plane_batch_masked
from test_geometry import ScriptedNormals


def octant():
    return Polytope(-np.eye(3))


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
    # f = 1: both sides equal omega_3^2 = 16 pi^2; the plane side is the
    # same deterministic tensor sum for every circle, so compare by ratio
    report = bp_check(2, lambda x, y: np.ones(np.broadcast(x, y).shape[:-1]),
                      pairs=20_000, planes=50, rng=RandomStream(21))
    exact = (4.0 * math.pi) ** 2
    assert report.direct.value == pytest.approx(exact, rel=1e-12)
    assert report.direct.std_error == 0.0
    assert report.plane_side.value == pytest.approx(exact, rel=1e-4)


def test_bp_check_quadratic_kernel():
    # f = (1 + x.y)^2 integrates to omega_3^2 (1 + 1/3) since E[(x.y)^2] = 1/3
    def dot2(x, y):
        return (1.0 + np.sum(x * y, axis=-1)) ** 2

    report = bp_check(2, dot2, pairs=200_000, planes=200, rng=RandomStream(22))
    exact = (4.0 * math.pi) ** 2 * (4.0 / 3.0)
    assert abs(report.direct.value - exact) < 4.0 * report.direct.std_error
    assert report.deviation_sigmas < 4.0
    assert report.constant == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_bp_check_plane_dependent_kernel_matches_haar_average():
    # f = x_0^2 y_1^2 integrates to (4 pi / 3)^2.  Unlike const and dot2 it
    # is not rotation invariant, so its circle integral varies with the
    # plane and the plane side averages it over the frame sampler's planes
    def x0_y1_squared(x, y):
        return x[..., 0] ** 2 * y[..., 1] ** 2

    report = bp_check(2, x0_y1_squared, pairs=200_000, planes=2000, rng=RandomStream(28))
    exact = (4.0 * math.pi / 3.0) ** 2
    assert report.plane_side.std_error > 0.01 * exact
    assert abs(report.direct.value - exact) < 4.0 * report.direct.std_error
    assert abs(report.plane_side.value - exact) < 4.0 * report.plane_side.std_error


def test_plane_counts_below_one_are_rejected():
    E = Cap((0.0, 0.0, 1.0), 0.8)
    with pytest.raises(ValueError, match="at least one plane"):
        crofton_estimate(E, planes=0, rng=RandomStream(1))
    with pytest.raises(ValueError, match="at least one plane"):
        bp_check(2, lambda x, y: np.ones(np.broadcast(x, y).shape[:-1]),
                 pairs=100, planes=0, rng=RandomStream(1))


def test_blocked_crossings_match_one_trace():
    # more circles than one block, and a partial last block
    gen = np.random.default_rng(27)
    es, fs = sample_plane_batch(2, 150_000, gen)
    union = PolyconvexUnion((Cap((0.0, 0.0, 1.0), 0.5), Cap((1.0, 0.0, 0.0), 0.7)))
    for E in (Cap((0.0, 0.6, 0.8), 1.1), octant(), union):
        counts, degenerate = _crossings(E, es, fs)
        _, length, bad = trace(E, es, fs)
        assert np.array_equal(counts, 2.0 * np.sum((length > 0.0) & (length < 2.0 * math.pi), axis=1))
        assert np.array_equal(degenerate, bad)
        assert 0.0 < counts.mean() < 4.0


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
