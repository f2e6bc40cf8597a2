"""The threaded great-circle path against its serial forms.

crofton_estimate and bp_check's plane side are mc_estimate means over
chunks run on worker threads: a crofton chunk is one rotated pole lattice
on S^2 and _TRACE_BLOCK iid circles elsewhere, a bp_check chunk
_PLANE_BLOCK planes; sample_plane_batch runs in its caller's thread.  Each
must return the same bits as a one-thread reference from oracles.py for any
worker count; the worker count is forced by patching the private helper
estimation._worker_count.
"""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import spherefrac.integral_geometry as ig
from spherefrac import (
    DegenerateCircleError,
    NonFiniteSampleError,
    RandomStream,
    bp_check,
    crofton_estimate,
    estimation,
    sets,
)
from spherefrac.cli import parse_set

from oracles import (
    bp_plane_side_serial,
    crofton_estimate_serial,
    crofton_lattice_serial,
    fibonacci_lattice,
    sample_plane_batch_masked,
)
from test_geometry import ScriptedNormals
from test_mc_parallel import SETS

WORKERS = (1, 2, 3)
CIRCLE_WORKERS = (1, 2, 3, 8)


def force_workers(monkeypatch, count):
    monkeypatch.setattr(estimation, "_worker_count", lambda: count)


def x0_y1_squared(x, y):
    """x_0^2 y_1^2: not a function of x.y, so its circle integral depends
    on the plane."""
    return x[..., 0] ** 2 * y[..., 1] ** 2


# ---------------------------------------------------------------------------
# same bits on any worker count


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_sample_plane_batch_equals_masked_form(monkeypatch, n, workers):
    count = 2 * ig._TRACE_BLOCK + 123  # more rows than two crofton chunks
    force_workers(monkeypatch, workers)
    es, fs = sample_plane_batch_masked(n, count, np.random.default_rng(50 + n))
    got_es, got_fs = ig.sample_plane_batch(n, count, np.random.default_rng(50 + n))
    assert np.array_equal(got_es, es)
    assert np.array_equal(got_fs, fs)


@pytest.mark.parametrize("workers", WORKERS)
def test_sample_plane_batch_redraws_rows_of_several_blocks(monkeypatch, workers):
    # rows 0 and 2 are degenerate and row 2 is redrawn twice; the chunk size
    # and the worker count, which only crofton_estimate uses, change nothing
    script = [
        [[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [0.0, 0.0, 3.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -2.0]],
        [[0.0, 4.0, 3.0], [1.0, 1.0, 1.0]],
        [[1.0, 0.0, 0.0], [2.0, 2.0, 2.0]],
        [[0.0, 0.0, 5.0]],
        [[3.0, 4.0, 0.0]],
    ]
    monkeypatch.setattr(ig, "_TRACE_BLOCK", 2)
    force_workers(monkeypatch, workers)
    es, fs = ig.sample_plane_batch(2, 3, ScriptedNormals(*script))
    es_ref, fs_ref = sample_plane_batch_masked(2, 3, ScriptedNormals(*script))
    assert np.array_equal(es, es_ref)
    assert np.array_equal(fs, fs_ref)
    assert np.array_equal(es[2], [0.0, 0.0, 1.0])


@pytest.mark.parametrize("name", sorted(SETS))
def test_crofton_estimate_equals_serial_form(monkeypatch, name):
    # every set is on S^2, so each chunk is one rotation of a lattice of
    # planes // 32 poles, traced in one block
    E = parse_set(SETS[name])
    planes = 3 * ig._TRACE_BLOCK + 1001  # not a multiple of the rotation count
    reference = crofton_lattice_serial(E, planes, RandomStream(51), ig._TRACE_BLOCK)
    assert reference.crossings.samples == ig._ROTATIONS
    for count in CIRCLE_WORKERS:
        force_workers(monkeypatch, count)
        assert crofton_estimate(E, planes, RandomStream(51)) == reference


@pytest.mark.parametrize("desc", ("cap:0,0,0,1:1", "poly:-1,0,0,0;0,-1,0,0;0,0,-1,0"))
def test_crofton_estimate_off_s2_equals_iid_serial_form(monkeypatch, desc):
    # S^3 has no pole lattice: chunks of _TRACE_BLOCK iid circles, as before
    E = parse_set(desc)
    planes = 3 * ig._TRACE_BLOCK + 1001  # not a multiple of the block
    reference = crofton_estimate_serial(E, planes, RandomStream(51), ig._TRACE_BLOCK)
    assert reference.crossings.samples == planes
    for count in CIRCLE_WORKERS:
        force_workers(monkeypatch, count)
        assert crofton_estimate(E, planes, RandomStream(51)) == reference


@pytest.mark.parametrize("planes", (2, 31, 32, 33, 1000))
def test_crofton_lattice_rounds_the_plane_count_down_per_rotation(monkeypatch, planes):
    # min(32, planes) rotations of planes // rotations poles each
    E = parse_set(SETS["octant"])
    traced = []

    def counting_trace(E, es, fs):
        traced.append(len(es))
        return sets.trace(E, es, fs)

    monkeypatch.setattr(ig, "trace", counting_trace)
    force_workers(monkeypatch, 1)
    report = crofton_estimate(E, planes, RandomStream(62))
    rotations = min(32, planes)
    assert report.crossings.samples == rotations
    assert sum(traced) == rotations * (planes // rotations) + report.degenerate_resamples
    assert report == crofton_lattice_serial(E, planes, RandomStream(62), ig._TRACE_BLOCK)


def test_lattice_frames_are_orthonormal_and_orthogonal_to_the_rotated_pole():
    # the lattice is built unrotated, in blocks as _circle_mean builds it,
    # and a rotation q turns frames and poles alike
    gen = np.random.default_rng(63)
    poles = 10_007
    p, e, f = fibonacci_lattice(poles)
    blocks = [ig._lattice_frames(a, min(a + 4096, poles), poles) for a in range(0, poles, 4096)]
    es = np.vstack([e for e, _ in blocks])
    fs = np.vstack([f for _, f in blocks])
    assert np.array_equal(es, e) and np.array_equal(fs, f)
    for _ in range(5):
        q = ig._haar_rotation(gen)
        assert np.allclose(q @ q.T, np.eye(3), rtol=0.0, atol=1e-15)
        pole, turned_es, turned_fs = p @ q.T, es @ q.T, fs @ q.T
        for a, b in ((turned_es, turned_es), (turned_fs, turned_fs)):
            assert np.max(np.abs(np.sum(a * b, axis=1) - 1.0)) <= 1e-15
        for a, b in ((turned_es, turned_fs), (turned_es, pole), (turned_fs, pole)):
            assert np.max(np.abs(np.sum(a * b, axis=1))) <= 1e-15


@pytest.mark.parametrize("workers", CIRCLE_WORKERS)
def test_degenerate_circles_of_later_chunks_are_resampled_in_their_chunk(monkeypatch, workers):
    # a wide margin makes about one circle in 150 degenerate; each rotation
    # of 50 poles is traced in blocks of 20, 20 and 10 and redraws its
    # degenerate circles as Haar circles from its own generator
    E = parse_set(SETS["cap"])
    monkeypatch.setattr(sets, "DEGENERACY_MARGIN", 5e-3)
    monkeypatch.setattr(ig, "_TRACE_BLOCK", 20)
    reference = crofton_lattice_serial(E, 32 * 50, RandomStream(58), 20)
    assert reference.degenerate_resamples > 0
    force_workers(monkeypatch, workers)
    report = crofton_estimate(E, 32 * 50, RandomStream(58))
    assert report.degenerate_resamples == reference.degenerate_resamples
    assert report == reference


def test_circles_degenerate_after_the_last_round_raise(monkeypatch):
    monkeypatch.setattr(sets, "DEGENERACY_MARGIN", 5e-3)
    monkeypatch.setattr(ig, "_MAX_RESAMPLE_ROUNDS", 0)
    with pytest.raises(DegenerateCircleError, match="after 0 resample rounds"):
        crofton_estimate(parse_set(SETS["cap"]), 2000, RandomStream(58))


def plane_side(n, planes, seed, nodes):
    return bp_check(n, x0_y1_squared, pairs=1000, planes=planes, rng=RandomStream(seed),
                    nodes=nodes).plane_side


@pytest.mark.parametrize("n", (2, 3))
def test_circle_integrals_equal_serial_loop(monkeypatch, n):
    planes = 3 * ig._PLANE_BLOCK + 5  # not a multiple of the chunk size
    reference = bp_plane_side_serial(n, x0_y1_squared, planes, RandomStream(52), 64, ig._PLANE_BLOCK)
    assert reference.samples == planes
    for count in CIRCLE_WORKERS:
        force_workers(monkeypatch, count)
        assert plane_side(n, planes, 52, 64) == reference


def test_bp_check_plane_side_equals_serial_loop(monkeypatch):
    # the plane side is a function of the chunk size, as crofton_estimate's
    # report is of _TRACE_BLOCK
    planes = 35
    sides = set()
    for block in (1, 7, 35):
        reference = bp_plane_side_serial(2, x0_y1_squared, planes, RandomStream(53), 64, block)
        sides.add(reference)
        monkeypatch.setattr(ig, "_PLANE_BLOCK", block)
        for count in CIRCLE_WORKERS:
            force_workers(monkeypatch, count)
            assert plane_side(2, planes, 53, 64) == reference
    assert len(sides) == 3


def test_small_blocks_on_more_workers_than_cpus_with_fast_switching(monkeypatch):
    # hundreds of chunks of circles and of single planes while the
    # interpreter switches threads every microsecond
    E = parse_set(SETS["union"])
    crofton_ref = crofton_lattice_serial(E, 20_001, RandomStream(56), 97)
    bp_ref = bp_plane_side_serial(2, x0_y1_squared, 301, RandomStream(57), 16, 1)
    monkeypatch.setattr(ig, "_TRACE_BLOCK", 97)
    monkeypatch.setattr(ig, "_PLANE_BLOCK", 1)
    force_workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        crofton = crofton_estimate(E, 20_001, RandomStream(56))
        bp = plane_side(2, 301, 57, 16)
    finally:
        sys.setswitchinterval(interval)
    assert crofton == crofton_ref
    assert bp == bp_ref


@pytest.mark.parametrize("name", ("cap", "octant", "union"))
def test_crofton_memory_is_flat_in_the_plane_count(monkeypatch, name):
    # chunks build their own frames, so no array grows with the plane count;
    # drawing every frame first peaked at 70 MB at 1e6 planes against
    # 15-24 MB at 2e5.  A rotation's lattice has planes // 32 poles, 6250
    # and 31250 here, so blocks of 4096 rows make both runs trace full
    # blocks, as iid chunks of _TRACE_BLOCK circles did
    E = parse_set(SETS[name])
    monkeypatch.setattr(ig, "_TRACE_BLOCK", 1 << 12)
    force_workers(monkeypatch, 2)
    peaks = []
    for planes in (200_000, 1_000_000):
        tracemalloc.start()
        try:
            crofton_estimate(E, planes, RandomStream(59))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


# ---------------------------------------------------------------------------
# failures and threads


@pytest.mark.parametrize("workers", WORKERS)
def test_circle_integral_error_names_the_first_failing_plane(monkeypatch, workers):
    # circle i lies in the plane spanned by (cos a_i, sin a_i, 0) and e_2,
    # a_i = 0.01 i, so the kernel reads i off each circle's first node; chunk
    # k gets circles k * _PLANE_BLOCK onward and the kernel sees them all in
    # one call.  Planes 5 and 9 fail in chunk 0, which sleeps, and plane
    # _PLANE_BLOCK + 8 in chunk 1, which fails first in wall time
    planes = 4 * ig._PLANE_BLOCK
    angles = 0.01 * np.arange(planes)
    es = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(planes)])
    fs = np.tile([0.0, 0.0, 1.0], (planes, 1))
    late = ig._PLANE_BLOCK + 8

    def chunk_planes(n, count, gen):
        start = gen.bit_generator.seed_seq.spawn_key[-1] * ig._PLANE_BLOCK
        return es[start : start + count], fs[start : start + count]

    def kernel(x, y):
        if x.ndim == 2:  # the direct side's pairs
            return np.ones(len(x))
        first = x[:, 0, 0, :]  # (circles, 3): node 0 of each circle
        plane = np.rint(np.arctan2(first[:, 1], first[:, 0]) / 0.01).astype(int)
        values = np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
        if 5 in plane:
            time.sleep(0.05)  # the chunk of plane `late` fails first in wall time
        values[plane == 5, 3, 7] = np.nan
        values[plane == 9, 0, 1] = np.inf
        values[plane == late, 0, 1] = np.inf
        return values

    monkeypatch.setattr(ig, "sample_plane_batch", chunk_planes)
    force_workers(monkeypatch, workers)
    before = threading.active_count()
    with pytest.raises(NonFiniteSampleError, match=r"nan\) at sample 5$"):
        bp_check(2, kernel, pairs=100, planes=planes, rng=RandomStream(60), nodes=16)
    # with planes 5 and 9 mended, the later chunk's plane is named
    angles[:10] = 0.01 * (planes + np.arange(10))
    es[:10] = np.column_stack([np.cos(angles[:10]), np.sin(angles[:10]), np.zeros(10)])
    with pytest.raises(NonFiniteSampleError, match=rf"inf\) at sample {late}$"):
        bp_check(2, kernel, pairs=100, planes=planes, rng=RandomStream(60), nodes=16)
    assert threading.active_count() == before


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("workers", WORKERS)
def test_bp_check_raises_on_a_kernel_singular_on_the_circle(monkeypatch, workers):
    # |x - y|^-2 is finite on independent pairs but infinite on the grid
    # diagonal of every circle, whose product-rule weight is not 0
    def singular(x, y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / np.sum((x - y) ** 2, axis=-1)

    force_workers(monkeypatch, workers)
    with pytest.raises(NonFiniteSampleError, match=r"(nan|inf)\) at sample 0$"):
        bp_check(2, singular, pairs=1000, planes=40, rng=RandomStream(54), nodes=16)


@pytest.mark.parametrize("nodes", (-1, 0, 1))
def test_bp_check_rejects_fewer_than_two_nodes(nodes):
    with pytest.raises(ValueError, match="at least two nodes"):
        bp_check(2, x0_y1_squared, pairs=100, planes=3, rng=RandomStream(55), nodes=nodes)


class NoDraws:
    def standard_normal(self, shape):
        raise AssertionError("drew normals")


@pytest.mark.parametrize("n", (0, -1))
def test_plane_sampler_and_bp_check_reject_spheres_without_circles(monkeypatch, n):
    # S^0 has no great circle: every projection of f onto e is exactly 0,
    # and the redraw loop used to spin forever.  Neither call may draw.
    with pytest.raises(ValueError, match="dimension n >= 1"):
        ig.sample_plane_batch(n, 3, NoDraws())

    def direct_side(*args, **kwargs):
        raise AssertionError("the direct side ran")

    monkeypatch.setattr(ig, "mc_estimate", direct_side)
    with pytest.raises(ValueError, match="dimension n >= 1"):
        bp_check(n, x0_y1_squared, pairs=100, planes=3, rng=RandomStream(61))
