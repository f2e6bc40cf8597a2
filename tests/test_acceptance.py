"""Acceptance suite: the headline numerical verdicts, one test per criterion.

Every Monte Carlo run is pinned to the default seed 0xC0FFEE, so the suite is
deterministic end to end.  Statistical assertions compare against combined
standard errors; quadrature assertions use the oracle tolerances.  Sample
counts and grids are frozen at the values the tolerances were verified with.
"""

import math

import numpy as np

from spherefrac import (
    ArcUnion,
    Cap,
    Complement,
    Coordinate,
    Estimate,
    PolyconvexUnion,
    Polytope,
    RandomStream,
    beta_asymptotic_check,
    bp_check,
    cap_area,
    crofton_estimate,
    extrapolate,
    isoperimetric_comparison,
    perimeter_by_method,
    perimeter_cap,
    perimeter_mc,
    perimeter_minus_n,
    s_to_zero_vanishing_check,
    sweep_s_to_1,
    sweep_s_to_minus_inf,
    sweep_seminorm_to_minus_inf,
)
from spherefrac.cli import main

from oracles import (
    antipodal_concentration_quad,
    circle_perimeter_midpoint,
    circle_perimeter_refined,
    interval_perimeter_exact,
    interval_perimeter_localized,
    polytope_boundary_measure,
    random_grid_arcs,
)

SEED = 0xC0FFEE
Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)


def test_criterion_01_pivot_identity():
    """perimeter_cap(2, -2, r) equals a(r) (4 pi - a(r)) to 1e-8 relative,
    and perimeter_mc agrees within 3 standard errors at 1e6 samples; on the
    hemisphere, which every great circle cuts in a semicircle, perimeter_mc
    is exact, to 1e-12 relative."""
    radii = (0.3, 0.9, math.pi / 2, 2.2, 2.9)
    streams = RandomStream(SEED).split(len(radii))
    worst_rel, worst_z = 0.0, 0.0
    for r, stream in zip(radii, streams):
        exact = perimeter_minus_n(2, cap_area(2, r))
        oracle = perimeter_cap(2, -2.0, r)
        worst_rel = max(worst_rel, abs(oracle - exact) / exact)
        est = perimeter_mc(Cap(Z, r), -2.0, 1_000_000, stream)
        if r == math.pi / 2:
            hemisphere_rel = abs(est.value - exact) / exact
        else:
            worst_z = max(worst_z, abs(est.value - exact) / est.std_error)
    print(
        f"pivot identity: worst oracle rel {worst_rel:.3g}, worst MC z {worst_z:.2f}, "
        f"hemisphere rel {hemisphere_rel:.3g}"
    )
    assert worst_rel < 1e-8
    assert worst_z < 3.0
    assert hemisphere_rel < 1e-12


def test_criterion_02_oracle_vs_mc_cross_validation():
    """Cap oracle and the MC estimator agree within 3 combined errors at 1e6
    samples over {2,3} x {-4,-2,-0.5,0.3,0.7} x {0.5,pi/2,2}.  Both rest on
    the great-circle kernel, so this checks the sampling of circles; the
    kernel has its own checks against 40-digit values."""
    streams = iter(RandomStream(SEED).split(30))
    worst = 0.0
    for n in (2, 3):
        pole = np.zeros(n + 1)
        pole[-1] = 1.0
        for s in (-4.0, -2.0, -0.5, 0.3, 0.7):
            for r in (0.5, math.pi / 2, 2.0):
                _, oracle, error = perimeter_by_method(Cap(pole, r), s, "cap_oracle")
                est = perimeter_mc(Cap(pole, r), s, 1_000_000, next(streams))
                combined = math.hypot(est.std_error, error)
                z = abs(est.value - oracle) / combined
                worst = max(worst, z)
    print(f"cross validation: worst |z| = {worst:.2f} over 30 configs")
    assert worst < 3.0


def test_criterion_03_circle_exact_vs_midpoint_oracle():
    """The closed-form circle perimeter matches a midpoint-rule double sum on
    a 2000^2 grid to 1e-6 relative for 10 random arc configurations at
    s in {-2, -0.5} (the singular-corner bias of the plain rule at s = -0.5
    is removed by one Richardson step between the 2000 and 4000 grids)."""
    from spherefrac import perimeter_circle_exact

    gen = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        E = ArcUnion(random_grid_arcs(gen))
        for s in (-2.0, -0.5):
            exact = perimeter_circle_exact(E, s)
            if s == -2.0:
                brute = circle_perimeter_midpoint(E.arcs, s, nodes=2000)
            else:
                brute = circle_perimeter_refined(E.arcs, s, nodes=2000)
            worst = max(worst, abs(exact - brute) / brute)
    print(f"circle oracle: worst rel {worst:.3g} over 10 configs x 2 exponents")
    assert worst < 1e-6


def test_criterion_04_interval_limit_s_to_1():
    """(1-s) P_s([0,1]) extrapolated over s in {0.9, 0.99, 0.999} hits 2
    within 0.5%, and the epsilon-localized boundary-layer variant hits the
    same limit within 0.5%."""
    grid = (0.9, 0.99, 0.999)
    hs = [1.0 - s for s in grid]
    window = (-math.inf, math.inf)
    exact_rows = [
        (1.0 - s) * interval_perimeter_exact([(0.0, 1.0)], window, s) for s in grid
    ]
    local_rows = [
        (1.0 - s) * interval_perimeter_localized([(0.0, 1.0)], window, s, 0.25)
        for s in grid
    ]
    exact_report = extrapolate(hs, exact_rows, target=2.0)
    local_report = extrapolate(hs, local_rows, target=2.0)
    print(
        f"interval limit: exact dev {exact_report.deviation:.2%}, "
        f"localized dev {local_report.deviation:.2%}"
    )
    assert exact_report.deviation < 0.005
    assert local_report.deviation < 0.005


def test_criterion_05_surface_area_limit_s_to_1():
    """(1-s) P_s extrapolates to (omega_3/omega_2) H^1(boundary): hemisphere
    and r=1 caps via the quadrature oracle within 2%, and a disjoint two-cap
    union via the sliced MC sweep on the default grid within 0.5% of the
    summed target."""
    _, hemi = sweep_s_to_1(2, Cap(Z, math.pi / 2))
    assert hemi.target == 4.0 * math.pi
    _, tilted = sweep_s_to_1(2, Cap(Z, 1.0))
    assert abs(tilted.target - 4.0 * math.pi * math.sin(1.0)) < 1e-12

    union = PolyconvexUnion((Cap(Z, 0.7), Cap(X, 0.5)))
    # 1e6 circles per row; over 20 seeds the limit sat 0.026% to 0.041%
    # below the target (sd 0.005%), the linear fit's own bias
    _, poly = sweep_s_to_1(2, union, method="mc", samples=1_000_000, rng=RandomStream(SEED))
    assert abs(poly.target - 4.0 * math.pi * (math.sin(0.7) + math.sin(0.5))) < 1e-12
    print(
        f"surface-area limit: hemisphere dev {hemi.deviation:.2%}, "
        f"r=1 dev {tilted.deviation:.2%}, union dev {poly.deviation:.3%}"
    )
    assert hemi.deviation < 0.02
    assert tilted.deviation < 0.02
    assert poly.deviation < 0.005


def test_criterion_06_isoperimetric_inequality_trials():
    """Over 50 random matched-measure two-cap unions, the union perimeter
    exceeds the cap perimeter by more than 3 combined standard errors at
    s in {-1, 0.5}, and falls below it at s = -4."""
    margins = {}
    for s in (-1.0, 0.5, -4.0):
        report = isoperimetric_comparison(
            2, s, trials=50, samples=200_000, rng=RandomStream(SEED)
        )
        margins[s] = min(t.margin_sigmas for t in report.trials)
        assert report.failures == 0, f"s={s}: {report.failures} trials below 3 sigma"
    print(
        "isoperimetric trials: min margins "
        + ", ".join(f"s={s}: {m:.1f} sigma" for s, m in margins.items())
    )


def test_criterion_07_two_point_plane_identity():
    """The great-circle decomposition of the two-point integral: exact to
    quadrature tolerance for f = 1 (both sides 16 pi^2), and within 3
    combined standard errors for f = (1 + x.y)^2 at 1e6 pairs, 1e3 planes."""
    const = bp_check(
        2, lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])),
        pairs=20_000, planes=50, rng=RandomStream(SEED),
    )
    exact = (4.0 * math.pi) ** 2
    rel_direct = abs(const.direct.value - exact) / exact
    rel_plane = abs(const.plane_side.value - exact) / exact

    dot2 = bp_check(
        2, lambda x, y: (1.0 + np.sum(x * y, axis=-1)) ** 2,
        pairs=1_000_000, planes=1000, rng=RandomStream(SEED),
    )
    print(
        f"plane identity: const rels {rel_direct:.3g}/{rel_plane:.3g}, "
        f"smooth kernel {dot2.deviation_sigmas:.2f} sigma"
    )
    assert rel_direct < 1e-12
    assert rel_plane < 1e-4
    assert dot2.deviation_sigmas < 3.0


def test_criterion_08_crofton_crossing_counts():
    """Mean great-circle crossing counts at 1e5 planes: 2 sin r for caps with
    r in {0.5, pi/2, 2.0}, and the dense boundary-length oracle value for the
    positive-octant polytope, each within 3 standard errors."""
    stream = RandomStream(SEED)
    zs = []
    for r in (0.5, math.pi / 2, 2.0):
        report = crofton_estimate(Cap(Z, r), planes=100_000, rng=stream)
        zs.append(report.deviation_sigmas)
    octant = Polytope(-np.eye(3))
    report = crofton_estimate(octant, planes=100_000, rng=stream)
    target = 2.0 * polytope_boundary_measure(octant.normals) / (2.0 * math.pi)
    zs.append(abs(report.crossings.value - target) / report.crossings.std_error)
    print("crofton: z-scores " + ", ".join(f"{z:.2f}" for z in zs))
    assert all(z < 3.0 for z in zs)


def test_criterion_09_antipodal_constant():
    """The boundary-layer quadrature at t = 1e4 sits within 0.5% of the
    concentration constant 2 pi^3, and the closed-form beta sweep
    extrapolates to 1 within 0.1%."""
    value = antipodal_concentration_quad(2, 1.0, 1e4, math.pi)
    rel = abs(value - 2.0 * math.pi**3) / (2.0 * math.pi**3)
    _, beta_report = beta_asymptotic_check(2, 1.0)
    print(f"antipodal constant: quad rel {rel:.3g}, beta dev {beta_report.deviation:.3g}")
    assert rel < 0.005
    assert beta_report.deviation < 0.001


def test_criterion_10_concentration_limits_t_to_inf():
    """t^2-scaled sweeps over t in {20, 40, 80}, exact rows from the cap
    oracle and the pair laws: the hemisphere perimeter extrapolates within
    3% of 4 pi^4, the odd seminorm (f = x_1, p = 1) within 5% of
    2 pi^3 * 2 * 2 pi, and the even seminorm (f = |x_1|) decays toward a
    limit below 1% of the odd target, whose own target is 0."""
    _, hemi = sweep_s_to_minus_inf(
        2, Cap(Z, math.pi / 2), samples=1_000_000, rng=RandomStream(SEED)
    )
    assert abs(hemi.target - 4.0 * math.pi**4) < 1e-9

    odd_target = 2.0 * math.pi**3 * 2.0 * 2.0 * math.pi
    _, odd = sweep_seminorm_to_minus_inf(2, Coordinate(0), 1.0)
    odd_dev = abs(odd.extrapolated - odd_target) / odd_target

    even_rows, even = sweep_seminorm_to_minus_inf(2, Coordinate(0, absolute=True), 1.0)
    assert even.target == 0.0
    even_frac = abs(even.extrapolated) / odd_target
    print(
        f"concentration limits: hemisphere dev {hemi.deviation:.2%}, "
        f"odd dev {odd_dev:.2%}, even limit at {even_frac:.2%} of the odd target"
    )
    assert hemi.deviation < 0.03
    assert odd_dev < 0.05
    assert even_frac < 0.01
    # the even rows themselves die off like 1/t toward that vanishing limit
    for prev, cur in zip(even_rows, even_rows[1:]):
        assert cur.value < 0.65 * prev.value


def test_criterion_11_seminorm_vanishes_at_s_0():
    """|s| [x.e]_(s,1) decreases monotonically (within 3 errors) over s in
    {-0.3, -0.1, -0.03, -0.01} and ends below |s| times the kernel's
    Lipschitz bound on the seminorm."""
    rows, report = s_to_zero_vanishing_check(2, Coordinate(0), 1.0)
    print(
        f"s->0 vanishing: rows {rows[0].value:.2f} -> {rows[-1].value:.2f}, "
        f"bound {report.bound:.2f}"
    )
    assert report.monotone_within_3se
    assert report.final_below_bound


def test_criterion_12_property_suites(tmp_path):
    """Complement symmetry, rotation invariance, normalized-kernel
    monotonicity in s, merge associativity, and byte-identical CSV reruns."""
    # complement symmetry: P_s(C_r) = P_s(C_(pi-r)) by oracle and by MC
    for s in (-3.0, -0.5, 0.5):
        for r in (0.6, 1.2):
            a = perimeter_cap(2, s, r)
            b = perimeter_cap(2, s, math.pi - r)
            assert abs(a - b) / a < 1e-7
    cap = Cap(Z, 0.9)
    inside = perimeter_mc(cap, -1.0, 200_000, RandomStream(SEED))
    outside = perimeter_mc(Complement(cap), -1.0, 200_000, RandomStream(SEED + 1))
    z = abs(inside.value - outside.value) / math.hypot(inside.std_error, outside.std_error)
    assert z < 3.0

    # rotation invariance: same radius, different centers
    a = perimeter_mc(Cap(Z, 0.8), -1.0, 200_000, RandomStream(SEED + 2))
    b = perimeter_mc(Cap((0.6, 0.0, 0.8), 0.8), -1.0, 200_000, RandomStream(SEED + 3))
    z = abs(a.value - b.value) / math.hypot(a.std_error, b.std_error)
    assert z < 3.0

    # normalized-kernel monotonicity: pi^(n+s) P_s increases in s
    values = [
        math.pi ** (2.0 + s) * perimeter_cap(2, s, 0.8)
        for s in (-4.0, -2.0, -1.0, -0.3, 0.0, 0.3, 0.7)
    ]
    assert all(x < y for x, y in zip(values, values[1:]))

    # merge associativity of pooled estimates
    parts = [Estimate(1.0 + i, 0.1 * (i + 1), 1000 * (i + 1)) for i in range(3)]
    left = parts[0].merge(parts[1]).merge(parts[2])
    right = parts[0].merge(parts[1].merge(parts[2]))
    assert math.isclose(left.value, right.value, rel_tol=1e-12)
    assert math.isclose(left.std_error, right.std_error, rel_tol=1e-12)
    assert left.samples == right.samples

    # deterministic reruns: identical bytes for an MC subcommand
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["crofton", "--n", "2", "--set", "cap:0,0,1:0.8", "--planes", "5000"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    print("property suites: all five families hold")
