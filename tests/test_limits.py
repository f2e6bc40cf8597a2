import math

import numpy as np
import pytest

from spherefrac import (
    ArcUnion,
    Cap,
    Polytope,
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
from spherefrac.limits import (
    SEMINORM_TOL,
    _exact_seminorm_sweep,
    _lipschitz_seminorm_bound,
    _log_seminorm_row,
    _pair_law,
)
from spherefrac.perimeter import CAP_TOL, Constant, Coordinate

from oracles import (
    ABS_S,
    ABS_SEMINORM_ROWS,
    FAR_T,
    NEAR_ZERO_SEMINORM_ROWS,
    NORMALIZED_CAP_ROWS,
    SEMINORM_ROWS,
    adaptive_quad,
    seminorm_mc,
)
from test_perimeter import coordinate_seminorm_quad

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
    # the cap oracle's floor, CAP_TOL at 0 < s < 1
    assert all(row.error == pytest.approx(CAP_TOL * row.value, rel=1e-12) for row in rows)
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
    rows, report = sweep_seminorm_to_minus_inf(2, Coordinate(0), 1.0)
    assert report.target > 0.0
    assert report.deviation < 0.15
    with pytest.raises(ValueError):
        sweep_seminorm_to_minus_inf(2, Coordinate(0), 1.0, t_grid=(1.0, 4.0))
    # a function without a pair law has no rows: point pairs left the library
    with pytest.raises(ValueError, match="carries no pair law"):
        sweep_seminorm_to_minus_inf(2, lambda x: x[:, 0], 1.0)


def test_cap_rows_of_sweep_s_to_minus_inf_hold_their_pins():
    # the cap oracle on the normalized kernel, at t up to 1e5: every row
    # within its own error bar of the 40-digit pin, and that bar positive
    # where the hemisphere's value is exact on every circle
    for r, pins in NORMALIZED_CAP_ROWS.items():
        rows, report = sweep_s_to_minus_inf(2, Cap(Z, r), t_grid=FAR_T)
        assert [row.method for row in rows] == ["cap_oracle"] * len(FAR_T)
        for row, pin in zip(rows, pins):
            assert 0.0 < row.error < 1e-10 * row.value
            assert abs(row.value - float(pin)) <= row.error, (r, row.param)
        # the rows fall within 1.1/t of the limit, toward it from one side
        assert abs(rows[-1].value / report.target - 1.0) < 1.1e-5


def test_sweep_s_to_minus_inf_rows_name_their_method():
    rows, _ = sweep_s_to_minus_inf(1, ArcUnion([(0.0, 1.0)]), t_grid=(20.0, 1e3))
    assert [row.method for row in rows] == ["circle_exact"] * 2
    octant = Polytope(-np.eye(3))
    rows, report = sweep_s_to_minus_inf(2, octant, samples=32 * 512, rng=RandomStream(30))
    assert [row.method for row in rows] == ["mc"] * 3
    assert report.deviation < 0.05


def test_coordinate_seminorm_rows_hold_their_pins():
    # the Gauss-Jacobi rule in the gap to the antipode, at t up to 1e5:
    # each row within its own error bar of the 40-digit pin
    for (n, p), pins in SEMINORM_ROWS.items():
        rows, _ = _exact_seminorm_sweep(n, p, list(FAR_T), _pair_law(Coordinate(0), n, p), FAR_T[-1] * p - n)
        for row, pin in zip(rows, pins):
            assert row.method == "exact"
            assert SEMINORM_TOL * row.value <= row.error < 1e-9 * row.value
            assert abs(row.value - float(pin)) <= row.error, (n, p, row.param)
        # where the sweep takes them (t > n/p), its rows are these
        grid = [t for t in FAR_T if t > n / p]
        swept, _ = sweep_seminorm_to_minus_inf(n, Coordinate(0), p, t_grid=grid)
        assert swept == rows[len(FAR_T) - len(grid):]


@pytest.mark.parametrize("absolute", (False, True), ids=("coord", "abs-coord"))
def test_seminorm_rows_near_0_and_of_abs_coordinates_hold_their_pins(absolute):
    # x_0 at s in {-0.01, -0.3}, |x_0| at s from -0.01 to -1e3: every row of
    # the rule within its own error bar of the 40-digit pin, as are the
    # seminorm-sweep rows (t > n/p) and, at p = 1, the s0-check rows
    # |s| [f] = pin |s|^(1-n).  |x_0| is even: its target is 0.  At
    # p = 1.5 its law goes like (pi - theta)^1.5 at the antipode, so the
    # rule converges algebraically there, and the two levels report it
    pins_by_law = ABS_SEMINORM_ROWS if absolute else NEAR_ZERO_SEMINORM_ROWS
    f = Coordinate(0, absolute=absolute)
    for (n, p), pins in pins_by_law.items():
        grid = [-s for s in ABS_S[:len(pins)]]
        rows, report = _exact_seminorm_sweep(n, p, grid, _pair_law(f, n, p), grid[-1] * p - n)
        for row, pin in zip(rows, pins):
            assert row.method == "exact"
            assert SEMINORM_TOL * row.value <= row.error < 2e-6 * row.value
            assert abs(row.value - float(pin)) <= row.error, (n, p, row.param)
        if absolute:
            assert report.target == 0.0
        swept_grid = [t for t in grid if t > n / p]
        if swept_grid:
            swept, swept_report = sweep_seminorm_to_minus_inf(n, f, p, t_grid=swept_grid)
            assert swept == rows[len(grid) - len(swept_grid):]
            assert swept_report.target == report.target
        if p == 1.0:
            s_grid = (ABS_S[1], ABS_S[0])
            near_zero, _ = s_to_zero_vanishing_check(n, f, 1.0, s_grid)
            for row, pin in zip(near_zero, (pins[1], pins[0])):
                assert row.method == "exact" and row.error >= SEMINORM_TOL * row.value
                assert abs(row.value - float(pin) * abs(row.param) ** (1 - n)) <= row.error, (n, row.param)


@pytest.mark.parametrize("n, p", ((1, 1.0), (2, 1.5), (3, 2.0), (13, 3.0)))
def test_exact_seminorm_target_is_the_closed_form(n, p):
    # c_(n,p) omega_(n+1) 2^p E|x_0|^p, with E|x_0|^p = E[a^p] E|sin U|^p:
    # a^2 ~ Beta(1, (n-1)/2) (a = 1 on S^1) and E|sin U|^p the circle's
    moment = math.gamma((n + 1) / 2) * math.gamma((p + 1) / 2) / (
        math.sqrt(math.pi) * math.gamma((n + 1 + p) / 2))
    sine = math.gamma((p + 1) / 2) / (math.sqrt(math.pi) * math.gamma(p / 2 + 1))
    # E[a^p] = B(1 + p/2, (n-1)/2) / B(1, (n-1)/2), 1 at n = 1
    a_moment = math.gamma(1 + p / 2) * math.gamma((n + 1) / 2) / math.gamma((n + 1 + p) / 2)
    assert a_moment * sine == pytest.approx(moment, rel=1e-13)
    # the law's ratio to (2 sin(theta/2))^p is that constant at every theta
    law = np.exp(Coordinate(n).log_pair_law(n, p, [0.0, 0.5, 1.0]))
    assert law == pytest.approx([moment] * 3, rel=1e-13)
    rows, report = sweep_seminorm_to_minus_inf(n, Coordinate(n), p, t_grid=(1e3, 1e4, 1e5))
    target = concentration_constant(n, p) * sphere_surface(n) * 2.0**p * moment
    assert report.target == pytest.approx(target, rel=1e-13)
    # the rows' 1/t term leaves the linear fit's limit near the target
    assert report.deviation < 1e-5 * n * n


@pytest.mark.parametrize("n, s", ((2, -1.2), (3, -0.5), (13, -4.0)))
def test_p2_rows_match_the_coordinate_quadrature(n, s):
    # at p = 2 the pair law is 2 (1 - cos theta) / (n + 1), which the
    # adaptive quadrature of test_perimeter integrates as written
    log_row, _ = _log_seminorm_row(n, 2.0, -s, _pair_law(Coordinate(0), n, 2.0), 0)
    exact = math.exp(log_row)
    assert exact == pytest.approx(coordinate_seminorm_quad(n, s), rel=1e-9)


@pytest.mark.parametrize("p", (1.0, 1.5, 2.0))
@pytest.mark.parametrize("n", (2, 3))
def test_seminorm_mc_error_bars_against_the_exact_rows(n, p):
    # the exact rows of x_0 and |x_0| against the point pairs of
    # oracles.seminorm_mc, which draw each pair and integrate no pair law:
    # z at a mild, a far and a very far s, the last two where the kernel
    # concentrates at the antipode (and |x_0|'s law vanishes there)
    for f in (Coordinate(0), Coordinate(0, absolute=True)):
        for i, s in enumerate((-0.5, -20.0, -40.0)):
            est = seminorm_mc(f, n, p, s, 200_000, RandomStream(1000 + 10 * n + i))
            log_row, _ = _log_seminorm_row(n, p, -s, _pair_law(f, n, p), 0)
            z = (est.value - math.exp(log_row)) / est.std_error
            print(f"{'abs-' * f.absolute}coord, n={n}, p={p}, s={s}: z = {z:.2f}")
            assert abs(z) < 4.0


def test_constant_rows_and_target_are_exactly_0():
    rows, report = sweep_seminorm_to_minus_inf(2, Constant(3.0), 1.5)
    assert [(row.value, row.error, row.method) for row in rows] == [(0.0, 0.0, "exact")] * 3
    assert report.target == 0.0 and report.extrapolated == 0.0
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            Constant(bad)


def test_seminorm_sweep_refuses_rows_outside_a_float():
    # 2^p overflows from p = 1024 on; an exponent -(n + s p) that is not
    # finite is refused before any rule is built
    with pytest.raises(ValueError, match="the kernel exponent .* outside the range of a float"):
        sweep_seminorm_to_minus_inf(2, Coordinate(0), 1100.0)
    with pytest.raises(ValueError, match="the kernel exponent must be finite"):
        sweep_seminorm_to_minus_inf(2, Coordinate(0), 1e307)
    # the constants are formed in logs: c_(n,p) alone overflows at n = 300
    rows, report = sweep_seminorm_to_minus_inf(300, Coordinate(3), 100.0, t_grid=(4.0, 5.0, 6.0))
    assert all(0.0 < row.error < 1e-9 * row.value for row in rows)
    assert 0.0 < report.target < math.inf


# ---------------------------------------------------------------------------
# s -> 0^- vanishing


def test_s_to_zero_constant_function_passes_with_zero_scale():
    rows, report = s_to_zero_vanishing_check(2, Constant(1.0), 0.0)
    assert [(row.value, row.error, row.method) for row in rows] == [(0.0, 0.0, "exact")] * 4
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
    rows, report = s_to_zero_vanishing_check(2, Coordinate(0), 1.0)
    assert report.passed
    assert rows[-1].value < rows[0].value
    with pytest.raises(ValueError):
        s_to_zero_vanishing_check(2, Coordinate(0), 1.0, s_grid=(-0.5, -1.5))
    with pytest.raises(ValueError, match="carries no pair law"):
        s_to_zero_vanishing_check(2, lambda x: x[:, 0], 1.0)


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
