import math

import numpy as np
import pytest

from spherefrac import (
    ArcUnion,
    Cap,
    RandomStream,
    beta_asymptotic_check,
    concentration_constant,
    extrapolate,
    isoperimetric_comparison,
    isoperimetric_profile,
    random_disjoint_cap_pair,
    s_to_zero_vanishing_check,
    sphere_surface,
    sweep_s_to_1,
    sweep_s_to_minus_inf,
    sweep_seminorm_to_minus_inf,
)
from spherefrac.geometry import geodesic_distance
from spherefrac.limits import _lipschitz_seminorm_bound

from oracles import adaptive_quad

Z = (0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# extrapolation machinery


def test_extrapolate_recovers_linear_data_exactly():
    hs = [0.2, 0.1, 0.05]
    report = extrapolate(hs, [3.0 + 2.0 * h for h in hs], target=3.0)
    assert report.extrapolated == pytest.approx(3.0, abs=1e-12)
    assert report.deviation == pytest.approx(0.0, abs=1e-12)


def test_extrapolate_single_row_and_validation():
    report = extrapolate([0.1], [5.0])
    assert report.extrapolated == 5.0
    assert math.isnan(report.fit_order)
    assert report.target is None and report.deviation is None
    with pytest.raises(ValueError):
        extrapolate([], [])
    with pytest.raises(ValueError):
        extrapolate([0.1, 0.2], [1.0])
    with pytest.raises(ValueError):
        extrapolate([0.1, 0.2], [1.0, math.inf])


def test_extrapolate_empirical_order_detects_quadratic_decay():
    hs = [0.1, 0.05, 0.025]
    report = extrapolate(hs, [1.0 + h**2 for h in hs])
    assert report.fit_order == pytest.approx(2.0, abs=1e-6)


def test_deviation_is_absolute_at_zero_target():
    report = extrapolate([0.2, 0.1], [0.02, 0.01], target=0.0)
    assert report.deviation == abs(report.extrapolated)


def test_concentration_constant_closed_forms():
    assert concentration_constant(2, 1.0) == pytest.approx(2.0 * math.pi**3, rel=1e-14)
    # omega_1 pi 0! / 2 = pi
    assert concentration_constant(1, 2.0) == pytest.approx(math.pi, rel=1e-14)


# ---------------------------------------------------------------------------
# closed-form beta sweep


def test_beta_asymptotic_rows_n2():
    # B(2, t - 1) = 1 / (t (t - 1)), so each row is exactly t / (t - 1)
    rows, report = beta_asymptotic_check(2, 1.0)
    for row in rows:
        assert row.value == pytest.approx(row.param / (row.param - 1.0), rel=1e-9)
        assert row.error == 0.0
    assert report.target == 1.0
    assert report.deviation < 1e-3


def test_beta_asymptotic_rows_n1_are_exact():
    rows, report = beta_asymptotic_check(1, 1.0)
    for row in rows:
        assert row.value == pytest.approx(1.0, rel=1e-9)
    assert report.deviation < 1e-9


def test_beta_asymptotic_grid_validation():
    with pytest.raises(ValueError):
        beta_asymptotic_check(2, 1.0, t_grid=(1.5, 3.0))  # first t <= n/p
    with pytest.raises(ValueError):
        beta_asymptotic_check(2, 1.0, t_grid=(40.0, 20.0))


# ---------------------------------------------------------------------------
# s -> 1 sweep


def test_sweep_s_to_1_circle_exact_hits_endpoint_count():
    # one arc has two endpoints; the n = 1 limit of (1-s) P_s is exactly 2
    rows, report = sweep_s_to_1(1, ArcUnion([(0.0, 2.0)]), method="circle_exact")
    assert [row.method for row in rows] == ["circle_exact"] * 3
    assert all(row.error == 0.0 for row in rows)
    assert report.target == pytest.approx(2.0, rel=1e-12)
    assert report.deviation < 0.01


def test_sweep_s_to_1_validation():
    with pytest.raises(ValueError):
        sweep_s_to_1(2, Cap(Z, 1.0), s_grid=(0.5, 0.4))
    with pytest.raises(ValueError):
        sweep_s_to_1(2, Cap(Z, 1.0), s_grid=(0.5, 1.0))
    with pytest.raises(ValueError):
        sweep_s_to_1(2, Cap(Z, 1.0), method="circle_exact")
    with pytest.raises(ValueError):
        sweep_s_to_1(2, ArcUnion([(0.0, 1.0)]), method="cap_oracle")
    with pytest.raises(ValueError):
        sweep_s_to_1(2, Cap(Z, 1.0), method="newton")
    with pytest.raises(ValueError):
        sweep_s_to_1(2, Cap(Z, 1.0), method="mc")  # mc needs an rng


def test_sweep_s_to_1_cap_oracle_rows_scale_like_sin_r():
    rows, report = sweep_s_to_1(2, Cap(Z, 0.7))
    assert report.target == pytest.approx(4.0 * math.pi * math.sin(0.7), rel=1e-12)
    assert report.deviation < 0.02
    assert all(row.error > 0.0 for row in rows)


# ---------------------------------------------------------------------------
# t -> infinity sweeps (light smoke versions; the full-size runs live in the
# acceptance suite)


def test_sweep_s_to_minus_inf_hemisphere_smoke():
    rows, report = sweep_s_to_minus_inf(
        2, Cap(Z, math.pi / 2), samples=100_000, rng=RandomStream(31)
    )
    assert report.target == pytest.approx(2.0 * math.pi**3 * 2.0 * math.pi, rel=1e-12)
    assert report.deviation < 0.1
    assert all(row.value > 0.0 for row in rows)
    with pytest.raises(ValueError):
        sweep_s_to_minus_inf(2, Cap(Z, math.pi / 2), t_grid=(1.0, 2.0))


def test_sweep_seminorm_to_minus_inf_smoke():
    rows, report = sweep_seminorm_to_minus_inf(
        2, lambda x: x[:, 0], 1.0, samples=100_000, rng=RandomStream(32),
        target_samples=100_000,
    )
    assert report.target > 0.0
    assert report.deviation < 0.15
    with pytest.raises(ValueError):
        sweep_seminorm_to_minus_inf(2, lambda x: x[:, 0], 1.0, t_grid=(1.0, 4.0))


# ---------------------------------------------------------------------------
# s -> 0^- vanishing


def test_s_to_zero_constant_function_passes_with_zero_scale():
    rows, report = s_to_zero_vanishing_check(
        2, lambda x: np.ones(len(x)), 0.0, samples=10_000, rng=RandomStream(33)
    )
    assert all(row.value == 0.0 for row in rows)
    assert report.scale == 0.0
    assert report.passed


@pytest.mark.parametrize("n, s", ((2, -0.01), (3, -0.3), (13, -0.5)))
def test_lipschitz_bound_matches_its_direct_integral(n, s):
    # the Gauss-Jacobi sum in logs against L omega_(n+1) omega_n
    # int theta (theta/pi)^-(n+s) sin^(n-1) theta taken as written by the
    # adaptive rule of oracles.py, where nothing overflows; at n = 2,
    # s = -0.01 the bound on the last row is 14.2, below the crude 24.8
    direct = sphere_surface(n) * sphere_surface(n - 1) * adaptive_quad(
        lambda t: t * (t / math.pi) ** -(n + s) * np.sin(t) ** (n - 1), 0.0, math.pi
    )
    assert _lipschitz_seminorm_bound(n, s, 2.5) == pytest.approx(2.5 * direct, rel=1e-9)
    if n == 2:
        assert 0.01 * _lipschitz_seminorm_bound(n, s, 1.0) == pytest.approx(14.2268, rel=1e-5)


def test_s_to_zero_coordinate_function_decays():
    rows, report = s_to_zero_vanishing_check(
        2, lambda x: x[:, 0], 1.0, samples=50_000, rng=RandomStream(34)
    )
    assert report.passed
    assert rows[-1].value < rows[0].value
    with pytest.raises(ValueError):
        s_to_zero_vanishing_check(2, lambda x: x[:, 0], 1.0, s_grid=(-0.5, -1.5))


# ---------------------------------------------------------------------------
# isoperimetric profile and trials


def test_isoperimetric_profile_tail_vanishes_in_smooth_regime():
    rows, report = isoperimetric_profile(2, -3.0, (0.5, 2.0, 6.0, 12.0))
    assert report.max_value == max(row.value for row in rows)
    assert report.tail_vanishes
    with pytest.raises(ValueError):
        isoperimetric_profile(2, -3.0, (0.5, 13.0))
    with pytest.raises(ValueError):
        isoperimetric_profile(2, -3.0, (2.0, 0.5))


def test_random_disjoint_cap_pair_separation():
    gen = np.random.default_rng(35)
    for _ in range(30):
        cap1, cap2 = random_disjoint_cap_pair(2, gen)
        dist = float(geodesic_distance(np.asarray(cap1.center), np.asarray(cap2.center)))
        assert dist >= cap1.radius + cap2.radius + 0.5 - 1e-12
    with pytest.raises(ValueError):
        random_disjoint_cap_pair(2, gen, radius_range=(1.4, 1.4))


def test_isoperimetric_comparison_rejects_pivot():
    with pytest.raises(ValueError):
        isoperimetric_comparison(2, -2.0, trials=1, rng=RandomStream(1))


def test_isoperimetric_comparison_smoke():
    report = isoperimetric_comparison(
        2, -1.0, trials=2, samples=100_000, rng=RandomStream(36)
    )
    assert report.direction == 1
    assert len(report.trials) == 2
    for trial in report.trials:
        assert trial.measure > 0.0
        assert trial.union_perimeter.value > trial.cap_perimeter
    below = isoperimetric_comparison(
        2, -4.0, trials=1, samples=100_000, rng=RandomStream(37)
    )
    assert below.direction == -1
    assert below.trials[0].union_perimeter.value < below.trials[0].cap_perimeter
