"""The threaded great-circle path against its serial forms.

sample_plane_batch, crofton_estimate and bp_check's plane side run blocks
of rows or planes on worker threads (estimation._map_ordered).  Each must
return the same bits as a one-thread reference from oracles.py for any
worker count; the worker count is forced by patching the private helper
estimation._worker_count.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

import spherefrac.integral_geometry as ig
from spherefrac import (
    Estimate,
    NonFiniteSampleError,
    RandomStream,
    bp_check,
    bp_constant,
    crofton_estimate,
    estimation,
)
from spherefrac.cli import parse_set

from oracles import circle_integrals_serial, crofton_estimate_serial, sample_plane_batch_masked
from test_geometry import ScriptedNormals
from test_mc_parallel import SETS

WORKERS = (1, 2, 3)


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
    count = 2 * ig._TRACE_BLOCK + 123  # two full blocks and a partial one
    force_workers(monkeypatch, workers)
    es, fs = sample_plane_batch_masked(n, count, np.random.default_rng(50 + n))
    got_es, got_fs = ig.sample_plane_batch(n, count, np.random.default_rng(50 + n))
    assert np.array_equal(got_es, es)
    assert np.array_equal(got_fs, fs)


@pytest.mark.parametrize("workers", WORKERS)
def test_sample_plane_batch_redraws_rows_of_several_blocks(monkeypatch, workers):
    # rows 0 and 2 are degenerate and, with two rows per block, lie in
    # different blocks; row 2 is redrawn twice
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
    E = parse_set(SETS[name])
    planes = 3 * ig._TRACE_BLOCK + 1001  # not a multiple of the block
    reference = crofton_estimate_serial(E, planes, RandomStream(51))
    assert reference.crossings.samples == planes
    for count in WORKERS:
        force_workers(monkeypatch, count)
        assert crofton_estimate(E, planes, RandomStream(51)) == reference


@pytest.mark.parametrize("n", (2, 3))
def test_circle_integrals_equal_serial_loop(monkeypatch, n):
    planes = 3 * ig._PLANE_BLOCK + 5
    es, fs = ig.sample_plane_batch(n, planes, np.random.default_rng(52))
    reference = circle_integrals_serial(n, x0_y1_squared, es, fs, 64)
    # a value written to another plane's slot would show
    assert np.unique(reference).size == planes
    for count in WORKERS:
        force_workers(monkeypatch, count)
        assert np.array_equal(ig._circle_integrals(n, x0_y1_squared, es, fs, 64), reference)


def test_bp_check_plane_side_equals_serial_loop(monkeypatch):
    planes = 2 * ig._PLANE_BLOCK + 3
    rng = RandomStream(53)
    es, fs = ig.sample_plane_batch(2, planes, rng.split(2)[1].generator)
    vals = circle_integrals_serial(2, x0_y1_squared, es, fs, 64)
    reference = Estimate.from_values(bp_constant(2) * vals)
    for count in WORKERS:
        force_workers(monkeypatch, count)
        report = bp_check(2, x0_y1_squared, pairs=1000, planes=planes, rng=RandomStream(53), nodes=64)
        assert report.plane_side == reference


def test_small_blocks_on_more_workers_than_cpus_with_fast_switching(monkeypatch):
    # hundreds of tasks write their own slices of shared arrays while the
    # interpreter switches threads every microsecond
    E = parse_set(SETS["union"])
    crofton_ref = crofton_estimate_serial(E, 20_001, RandomStream(56))
    es, fs = ig.sample_plane_batch(2, 301, np.random.default_rng(57))
    circles_ref = circle_integrals_serial(2, x0_y1_squared, es, fs, 16)
    monkeypatch.setattr(ig, "_TRACE_BLOCK", 97)
    monkeypatch.setattr(ig, "_PLANE_BLOCK", 1)
    force_workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        crofton = crofton_estimate(E, 20_001, RandomStream(56))
        circles = ig._circle_integrals(2, x0_y1_squared, es, fs, 16)
    finally:
        sys.setswitchinterval(interval)
    assert crofton == crofton_ref
    assert np.array_equal(circles, circles_ref)


# ---------------------------------------------------------------------------
# failures and threads


@pytest.mark.parametrize("workers", WORKERS)
def test_circle_integral_error_names_the_first_failing_plane(monkeypatch, workers):
    # circle i lies in the plane spanned by (cos a_i, sin a_i, 0) and e_2,
    # a_i = 0.01 i, so the kernel reads i off its first node
    planes = 4 * ig._PLANE_BLOCK
    angles = 0.01 * np.arange(planes)
    es = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(planes)])
    fs = np.tile([0.0, 0.0, 1.0], (planes, 1))

    def kernel(x, y):
        first = x.reshape(-1, 3)[0]
        plane = round(math.atan2(first[1], first[0]) / 0.01)
        values = np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
        if plane == 5:
            time.sleep(0.05)  # the block of plane 40 fails first in wall time
            values[3, 7] = np.nan
        elif plane == 40:
            values[0, 1] = np.inf
        return values

    force_workers(monkeypatch, workers)
    before = threading.active_count()
    with pytest.raises(NonFiniteSampleError, match=r"nan at plane 5$"):
        ig._circle_integrals(2, kernel, es, fs, 16)
    assert threading.active_count() == before


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("workers", WORKERS)
def test_bp_check_raises_on_a_kernel_singular_on_the_circle(monkeypatch, workers):
    # |x - y|^-2 is finite on independent pairs but infinite on the grid
    # diagonal of every circle, where the |sin| weight is 0
    def singular(x, y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / np.sum((x - y) ** 2, axis=-1)

    force_workers(monkeypatch, workers)
    with pytest.raises(NonFiniteSampleError, match=r"nan at plane 0$"):
        bp_check(2, singular, pairs=1000, planes=40, rng=RandomStream(54), nodes=16)


@pytest.mark.parametrize("nodes", (-1, 0, 1))
def test_bp_check_rejects_fewer_than_two_nodes(nodes):
    with pytest.raises(ValueError, match="at least two nodes"):
        bp_check(2, x0_y1_squared, pairs=100, planes=3, rng=RandomStream(55), nodes=nodes)
