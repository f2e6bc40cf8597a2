"""mc_estimate's parallel chunks against its serial chunk loop.

mc_estimate evaluates its chunks on worker threads and pools their
Estimates in chunk order.  Every estimator must then return the same bits
as the one-thread loop in oracles.mc_estimate_serial, for any worker
count; the worker count is forced by patching the private helper
estimation._worker_count.
"""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import spherefrac.integral_geometry
import spherefrac.perimeter
from spherefrac import (
    NonFiniteSampleError,
    RandomStream,
    bp_check,
    concentration_constant,
    estimation,
    mc_estimate,
    perimeter_mc,
    sample_at_distance,
    sample_uniform,
    seminorm_mc,
    sphere_surface,
    sweep_seminorm_to_minus_inf,
    symmetric_overlap_measure,
)
from spherefrac.cli import dot2_kernel, parse_function, parse_set
from spherefrac.limits import SweepRow
from spherefrac.perimeter import _perimeter_point_pairs

from oracles import mc_estimate_serial

WORKERS = (1, 2, 3)

# the set types of the mc-perimeter benchmark; the union's caps are pi/2
# apart, more than the sum of their radii, so it is disjoint
UNION = "union:cap:0,0,1:0.6+cap:1,0,0:0.8"
OCTANT = "poly:-1,0,0;0,-1,0;0,0,-1"
SETS = {
    "cap": "cap:0,0,1:1",
    "octant": OCTANT,
    "union": UNION,
    "compl-union": "compl:" + UNION,
    "refl-octant": "refl:" + OCTANT,
}
# sets on S^3, where the point pairs stay iid
S3_SETS = {
    "cap": "cap:0,0,0,1:1",
    "compl-wedge": "compl:poly:-1,0,0,0;0,-1,0,0;0,0,-1,0",
}


def force_workers(monkeypatch, count):
    monkeypatch.setattr(estimation, "_worker_count", lambda: count)


def serial_and_parallel(monkeypatch, module, run):
    """run() with module's mc_estimate swapped for the serial loop, then
    run() with the library's at each forced worker count."""
    with monkeypatch.context() as m:
        m.setattr(module, "mc_estimate", mc_estimate_serial)
        reference = run()
    results = []
    for count in WORKERS:
        with monkeypatch.context() as m:
            force_workers(m, count)
            results.append(run())
    return reference, results


def chunk_index(gen) -> int:
    # the i-th child stream of a fresh RandomStream has spawn key (i,)
    return gen.bit_generator.seed_seq.spawn_key[-1]


def indexed_sampler(count, gen):
    return chunk_index(gen), gen.random(count)


# ---------------------------------------------------------------------------
# same bits on any worker count


@pytest.mark.parametrize("s", (-2.0, -0.5, 0.3))
@pytest.mark.parametrize("name", sorted(SETS))
def test_perimeter_mc_equals_serial_loop(monkeypatch, name, s):
    # the sliced estimator at every s: its mean over 32 lattice rotations
    # is integral_geometry's
    E = parse_set(SETS[name])
    run = lambda: perimeter_mc(E, s, 200_001, RandomStream(31))
    reference, results = serial_and_parallel(monkeypatch, spherefrac.integral_geometry, run)
    assert reference.samples == 32
    for est in results:
        assert est == reference


@pytest.mark.parametrize("s", (-2.0, -0.5))
@pytest.mark.parametrize("name", sorted(SETS))
def test_point_pair_perimeter_equals_serial_loop(monkeypatch, name, s):
    # the point pairs of sweep_s_to_minus_inf: on S^2 their first points
    # are 32 rotations of a lattice, each one chunk of integral_geometry's
    # mc_estimate
    E = parse_set(SETS[name])
    run = lambda: _perimeter_point_pairs(E, s, 200_001, RandomStream(31))
    reference, results = serial_and_parallel(monkeypatch, spherefrac.integral_geometry, run)
    assert reference.samples == 32
    for est in results:
        assert est == reference


@pytest.mark.parametrize("s", (-2.0, -0.5))
@pytest.mark.parametrize("name", sorted(S3_SETS))
def test_point_pair_perimeter_on_s3_equals_serial_loop(monkeypatch, name, s):
    # off S^2 the pairs are iid, one mc_estimate sample each
    E = parse_set(S3_SETS[name])
    run = lambda: _perimeter_point_pairs(E, s, 200_001, RandomStream(31))
    reference, results = serial_and_parallel(monkeypatch, spherefrac.perimeter, run)
    assert reference.samples == 200_001
    for est in results:
        assert est == reference


@pytest.mark.parametrize("samples", (50_000, 131_072, 200_001))
def test_seminorm_mc_equals_serial_loop(monkeypatch, samples):
    f, _ = parse_function("coord:0", 2)
    run = lambda: seminorm_mc(f, 2, 1.0, -20.0, samples, RandomStream(32))
    reference, results = serial_and_parallel(monkeypatch, spherefrac.integral_geometry, run)
    assert reference.samples == 32
    for est in results:
        assert est == reference


@pytest.mark.parametrize("samples", (50_000, 131_072, 200_001))
def test_seminorm_mc_on_s3_equals_serial_loop(monkeypatch, samples):
    f, _ = parse_function("coord:0", 3)
    run = lambda: seminorm_mc(f, 3, 1.0, -20.0, samples, RandomStream(32))
    reference, results = serial_and_parallel(monkeypatch, spherefrac.perimeter, run)
    assert reference.samples == samples
    for est in results:
        assert est == reference


def test_seminorm_mc_on_eight_workers_equals_serial_loop(monkeypatch):
    # more workers than CPUs, with several lattice blocks per rotation
    f, _ = parse_function("coord:0", 2)
    monkeypatch.setattr(spherefrac.integral_geometry, "_TRACE_BLOCK", 1 << 10)
    run = lambda: seminorm_mc(f, 2, 1.5, -4.0, 32 * 3001, RandomStream(43))
    with monkeypatch.context() as m:
        m.setattr(spherefrac.integral_geometry, "mc_estimate", mc_estimate_serial)
        reference = run()
    force_workers(monkeypatch, 8)
    assert run() == reference


def test_bp_check_direct_side_equals_serial_loop(monkeypatch):
    run = lambda: bp_check(2, dot2_kernel, pairs=200_001, planes=2, rng=RandomStream(33))
    reference, results = serial_and_parallel(monkeypatch, spherefrac.integral_geometry, run)
    assert reference.direct.samples == 200_001
    for report in results:
        assert report.direct == reference.direct
        assert report.plane_side == reference.plane_side


@pytest.mark.parametrize("samples", (1, 65_536, 131_072, 200_001))
def test_mc_estimate_equals_serial_loop_at_any_chunk_count(monkeypatch, samples):
    sampler = lambda count, gen: gen.random(count)
    integrand = lambda u: np.exp(u) * np.sin(7.0 * u)
    reference = mc_estimate_serial(sampler, integrand, samples, RandomStream(34))
    for count in WORKERS:
        force_workers(monkeypatch, count)
        assert mc_estimate(sampler, integrand, samples, RandomStream(34)) == reference


def test_more_workers_than_cpus_with_fast_switching_equal_serial_loop(monkeypatch):
    sampler = lambda count, gen: gen.standard_normal((count, 3))
    integrand = lambda x: np.cos(x[:, 0]) * x[:, 1] ** 2 - x[:, 2]
    reference = mc_estimate_serial(sampler, integrand, 64_001, RandomStream(41), 1000)
    force_workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = mc_estimate(sampler, integrand, 64_001, RandomStream(41), 1000)
    finally:
        sys.setswitchinterval(interval)
    assert result == reference


# ---------------------------------------------------------------------------
# failures and threads


@pytest.mark.parametrize("workers", WORKERS)
def test_nonfinite_error_names_the_first_failing_chunk(monkeypatch, workers):
    def integrand(batch):
        i, u = batch
        values = u.copy()
        if i == 2:
            time.sleep(0.05)  # chunk 5 fails first in wall time
            values[17] = np.nan
        elif i == 5:
            values[3] = np.nan
        return values

    args = (indexed_sampler, integrand, 8000, 35, 1000)  # a fresh stream per call
    with pytest.raises(NonFiniteSampleError) as expected:
        mc_estimate_serial(*args)
    force_workers(monkeypatch, workers)
    with pytest.raises(NonFiniteSampleError, match=r"nan\) at sample 2017$") as raised:
        mc_estimate(*args)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("workers", WORKERS)
def test_shape_error_names_the_first_failing_chunk(monkeypatch, workers):
    def integrand(batch):
        i, u = batch
        if i == 2:
            time.sleep(0.05)
            return u[:-2]
        if i == 5:
            return u[:-5]
        return u

    args = (indexed_sampler, integrand, 8000, 36, 1000)
    with pytest.raises(ValueError) as expected:
        mc_estimate_serial(*args)
    force_workers(monkeypatch, workers)
    with pytest.raises(ValueError, match=r"shape \(998,\), expected \(1000,\)") as raised:
        mc_estimate(*args)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("workers", WORKERS)
def test_nonfinite_pair_names_the_lowest_lattice_pair(monkeypatch, workers):
    # 32 rotations of 1000 lattice points in blocks of 256 rows; y turns NaN
    # at rows 522 and 900 of rotation 5, which sleeps, and at row 3 of
    # rotation 17, which fails first in wall time.  The lowest failing pair
    # is 5 * 1000 + 522
    bad = {(5, 2): 10, (5, 3): 132, (17, 0): 3}
    blocks = {}
    lock = threading.Lock()

    def planted(x, theta, gen):
        rotation = chunk_index(gen)
        with lock:
            block = blocks[rotation] = blocks.get(rotation, -1) + 1
        y = sample_at_distance(x, theta, gen)
        if rotation == 5 and block == 2:
            time.sleep(0.05)
        if (rotation, block) in bad:
            y[bad[rotation, block]] = np.nan
        return y

    f, _ = parse_function("coord:0", 2)
    monkeypatch.setattr(spherefrac.integral_geometry, "_TRACE_BLOCK", 256)
    monkeypatch.setattr(spherefrac.perimeter, "sample_at_distance", planted)
    with monkeypatch.context() as m:
        m.setattr(spherefrac.integral_geometry, "mc_estimate", mc_estimate_serial)
        with pytest.raises(NonFiniteSampleError) as expected:
            seminorm_mc(f, 2, 1.0, -4.0, 32_000, RandomStream(44))
    blocks.clear()
    force_workers(monkeypatch, workers)
    with pytest.raises(NonFiniteSampleError, match=r"nan\) at sample 5522$") as raised:
        seminorm_mc(f, 2, 1.0, -4.0, 32_000, RandomStream(44))
    assert str(raised.value) == str(expected.value)


def test_seminorm_mc_memory_is_flat_in_the_sample_count(monkeypatch):
    # a rotation's lattice has samples // 32 points, 6250 and 31250 here,
    # so blocks of 4096 rows make both runs draw full blocks.  One worker:
    # with two, the peak depends on how many blocks are alive at once
    f, _ = parse_function("coord:0", 2)
    monkeypatch.setattr(spherefrac.integral_geometry, "_TRACE_BLOCK", 1 << 12)
    force_workers(monkeypatch, 1)
    peaks = []
    for samples in (200_000, 1_000_000):
        tracemalloc.start()
        try:
            seminorm_mc(f, 2, 1.0, -20.0, samples, RandomStream(45))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_failure_cancels_chunks_not_started(monkeypatch):
    force_workers(monkeypatch, 2)
    before = threading.active_count()
    started = []

    def integrand(batch):
        i, u = batch
        started.append(i)
        if i == 2:
            return np.full(u.shape, np.inf)
        time.sleep(0.005)
        return u

    with pytest.raises(NonFiniteSampleError, match="at sample 200$"):
        mc_estimate(indexed_sampler, integrand, 400 * 100, RandomStream(37), chunk_size=100)
    # 400 chunks of 5 ms on 2 workers would take a second
    assert len(started) < 400
    assert threading.active_count() == before


def test_threads_run_only_for_several_chunks_and_workers(monkeypatch):
    caller = threading.current_thread()
    before = threading.active_count()
    seen = []

    def integrand(u):
        seen.append((threading.current_thread() is caller, threading.active_count()))
        return u

    sampler = lambda count, gen: gen.random(count)
    force_workers(monkeypatch, 2)
    mc_estimate(sampler, integrand, 1000, RandomStream(38))  # one chunk
    force_workers(monkeypatch, 1)
    mc_estimate(sampler, integrand, 200_001, RandomStream(38))  # one worker
    assert seen == [(True, before)] * 5

    seen.clear()
    force_workers(monkeypatch, 2)
    mc_estimate(sampler, integrand, 200_001, RandomStream(38))
    assert [on_caller for on_caller, _ in seen] == [False] * 4
    assert threading.active_count() == before


def test_chunks_run_in_the_callers_errstate(monkeypatch):
    force_workers(monkeypatch, 2)
    sampler = lambda count, gen: gen.random(count)
    integrand = lambda u: np.ones_like(u) / (u - u)  # divides by zero
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            mc_estimate(sampler, integrand, 200_001, RandomStream(39))


# ---------------------------------------------------------------------------
# antipodal volumes: the seminorm target and the overlap measure


def uniform_points(n):
    return lambda count, gen: sample_uniform(n, count, gen)


@pytest.mark.parametrize("target_samples", (400_000, 100_003))
@pytest.mark.parametrize("desc, p", (("coord:0", 1.0), ("abs-coord:1", 1.5)))
def test_seminorm_target_equals_serial_mc_estimate(monkeypatch, desc, p, target_samples):
    f, _ = parse_function(desc, 2)
    t_grid = (20.0, 40.0, 80.0)
    streams = RandomStream(40).split(len(t_grid) + 1)
    # the rows draw from the first streams, as before the target was chunked
    ref_rows = []
    for t, stream in zip(t_grid, streams):
        est = seminorm_mc(f, 2, p, -t, 20_000, stream)
        ref_rows.append(SweepRow(t, t**2 * est.value, t**2 * est.std_error, "mc"))
    gap = mc_estimate_serial(
        uniform_points(2),
        lambda x: sphere_surface(2) * np.abs(f(x) - f(-x)) ** p,
        target_samples,
        streams[-1],
    )
    for count in WORKERS:
        force_workers(monkeypatch, count)
        rows, report = sweep_seminorm_to_minus_inf(
            2, f, p, t_grid, 20_000, RandomStream(40), target_samples
        )
        assert rows == ref_rows
        assert report.target == concentration_constant(2, p) * gap.value


@pytest.mark.parametrize("name", ("octant", "union", "refl-octant"))
def test_overlap_measure_circle_route_is_the_same_on_every_worker_count(monkeypatch, name):
    # the mean antipodal gain over 32 rotations of a pole lattice, one
    # rotation per chunk
    E = parse_set(SETS[name])
    results = []
    for count in WORKERS:
        force_workers(monkeypatch, count)
        results.append(symmetric_overlap_measure(E, 32 * 2001, RandomStream(42)))
    assert results[0].samples == 32
    assert all(result == results[0] for result in results[1:])
