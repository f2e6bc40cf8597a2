import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spherefrac import (
    Estimate,
    NonFiniteSampleError,
    QuadratureError,
    RadialProposal,
    RandomStream,
    adaptive_quad,
    as_stream,
    incomplete_beta,
    mc_estimate,
    radial_sample,
)

from oracles import incomplete_beta_riemann


# ---------------------------------------------------------------------------
# streams


def test_random_stream_is_deterministic_and_splittable():
    a = RandomStream(7).generator.random(4)
    b = RandomStream(7).generator.random(4)
    assert np.array_equal(a, b)
    children = RandomStream(7).split(3)
    draws = [c.generator.random(2) for c in children]
    assert not np.array_equal(draws[0], draws[1])
    # splitting advances the parent: a second split yields fresh streams
    parent = RandomStream(7)
    first = parent.split(1)[0].generator.random(2)
    second = parent.split(1)[0].generator.random(2)
    assert not np.array_equal(first, second)


def test_as_stream_requires_explicit_seed():
    with pytest.raises(ValueError):
        as_stream(None)
    assert isinstance(as_stream(3), RandomStream)
    s = RandomStream(1)
    assert as_stream(s) is s


# ---------------------------------------------------------------------------
# Estimate


def test_estimate_from_values_matches_numpy():
    gen = np.random.default_rng(0)
    v = gen.normal(size=500)
    est = Estimate.from_values(v)
    assert est.value == pytest.approx(float(np.mean(v)), rel=1e-14)
    assert est.std_error == pytest.approx(
        float(np.std(v, ddof=1) / math.sqrt(len(v))), rel=1e-12
    )
    assert est.samples == 500


def test_estimate_exact_has_zero_error():
    est = Estimate.exact(2.5)
    assert est.value == 2.5
    assert est.std_error == 0.0


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_estimate_merge_is_associative_and_pools_exactly(seed):
    gen = np.random.default_rng(seed)
    parts = [gen.normal(size=int(k)) for k in gen.integers(2, 40, size=3)]
    a, b, c = (Estimate.from_values(p) for p in parts)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    whole = Estimate.from_values(np.concatenate(parts))
    for other in (right, whole):
        assert left.value == pytest.approx(other.value, rel=1e-12, abs=1e-15)
        assert left.std_error == pytest.approx(other.std_error, rel=1e-12, abs=1e-15)
        assert left.samples == other.samples


def test_mc_estimate_deterministic_and_chunked():
    sampler = lambda count, gen: gen.random(count)
    integrand = lambda u: u * u
    a = mc_estimate(sampler, integrand, 200_000, RandomStream(5))
    b = mc_estimate(sampler, integrand, 200_000, RandomStream(5))
    assert a.value == b.value and a.std_error == b.std_error
    assert a.samples == 200_000
    assert abs(a.value - 1.0 / 3.0) < 5.0 * a.std_error


def test_mc_estimate_constant_integrand_has_zero_spread_across_chunks():
    # 200k samples span four 65536-sample chunks, so the pooled path through
    # merge() is exercised, not only from_values()
    sampler = lambda count, gen: gen.random(count)
    integrand = lambda u: np.full(u.shape, 0.1)
    est = mc_estimate(sampler, integrand, 200_000, RandomStream(3))
    assert est.samples == 200_000
    assert est.value == 0.1
    assert est.std_error == 0.0


def test_mc_estimate_rejects_nonfinite_samples():
    sampler = lambda count, gen: gen.random(count)

    def integrand(u):
        with np.errstate(invalid="ignore"):
            return (u - u) / (u - u)  # all NaN

    with pytest.raises(NonFiniteSampleError):
        mc_estimate(sampler, integrand, 100, RandomStream(1))


# ---------------------------------------------------------------------------
# adaptive quadrature


def test_adaptive_quad_smooth_integrals():
    assert adaptive_quad(np.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(2.0, rel=1e-12)
    assert adaptive_quad(lambda x: x**2, 0.0, 1.0, tol=1e-12) == pytest.approx(
        1.0 / 3.0, rel=1e-12
    )


def test_adaptive_quad_raises_on_divergent_integrand():
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: 1.0 / x, 0.0, 1.0, tol=1e-10, max_depth=40)


# ---------------------------------------------------------------------------
# incomplete beta


@pytest.mark.parametrize(
    "t,a,b,rel",
    [
        (0.3, 2.0, 5.0, 1e-9),
        (0.9, 1.0, 4.0, 1e-9),
        (0.5, 3.0, 1.5, 1e-9),
        # integrable endpoint singularity: the midpoint oracle itself is
        # only O(nodes^-a) accurate, hence the loose bound
        (0.7, 0.5, 3.0, 5e-3),
    ],
)
def test_incomplete_beta_matches_riemann_oracle(t, a, b, rel):
    assert incomplete_beta(t, a, b) == pytest.approx(
        incomplete_beta_riemann(t, a, b), rel=rel
    )


def test_incomplete_beta_monotone_and_additive():
    ts = np.linspace(0.05, 1.0, 20)
    vals = [incomplete_beta(float(t), 2.5, 3.5) for t in ts]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    total = incomplete_beta(1.0, 2.5, 3.5)
    partial = incomplete_beta(0.4, 2.5, 3.5)
    tail = total - partial
    assert partial + tail == pytest.approx(total, rel=1e-15)
    assert incomplete_beta(1.0, 1.0, 2.0) == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# radial proposals


def _proposal_target(n, exponent, g, normalized=False):
    """Quadrature value of int g(theta) sin^(n-1)(theta) k(theta) dtheta."""
    scale = math.pi**-exponent if normalized else 1.0

    def h(theta):
        theta = np.asarray(theta)
        return scale * g(theta) * np.sin(theta) ** (n - 1) * theta**exponent

    kappa = exponent + n - 1  # collapsed small-theta behavior theta^kappa
    if kappa >= 0.0:
        return adaptive_quad(h, 0.0, math.pi, tol=1e-10)
    # theta = u^m with m = 1/(1 + kappa) removes the theta^kappa factor
    m = 1.0 / (1.0 + kappa)
    return adaptive_quad(
        lambda u: h(u**m) * m * u ** (m - 1.0), 0.0, math.pi ** (1.0 + kappa), tol=1e-10
    )


@pytest.mark.parametrize("case", range(10))
def test_radial_proposal_weighted_samples_are_unbiased(case):
    gen_cfg = np.random.default_rng(100 + case)
    n = int(gen_cfg.integers(1, 4))
    # any exponent with exponent + n - 1 > -1 is normalizable
    exponent = float(gen_cfg.uniform(-(n - 1) - 0.9, 3.0))
    proposal = RadialProposal(n, exponent)
    g = lambda theta: np.cos(3.0 * theta) + 2.0
    theta, wk = proposal.sample_weighted(200_000, RandomStream(200 + case).generator)
    assert np.all(theta >= 0.0) and np.all(theta <= math.pi)
    values = wk * g(theta)
    est = Estimate.from_values(values)
    target = _proposal_target(n, exponent, g)
    assert abs(est.value - target) < 5.0 * est.std_error


def test_radial_proposal_beta_path_matches_tabulated_shape():
    # exponent >= 1 with normalized=True takes the Beta(exponent+1, n) path;
    # the same unbiasedness identity must hold there
    n, exponent = 2, 18.0
    proposal = RadialProposal(n, exponent, normalized=True)
    g = lambda theta: theta**2
    theta, wk = proposal.sample_weighted(200_000, RandomStream(9).generator)
    est = Estimate.from_values(wk * g(theta))
    target = _proposal_target(n, exponent, g, normalized=True)
    assert abs(est.value - target) < 5.0 * est.std_error


def test_radial_proposal_rejects_non_normalizable_kernel():
    with pytest.raises(ValueError):
        RadialProposal(2, -3.0)  # sin^1 * theta^-3 ~ theta^-2 at 0


def test_radial_proposal_cdf_and_radial_sample():
    proposal = RadialProposal(2, -0.5)
    grid = np.linspace(0.0, math.pi, 33)
    cdf = proposal.cdf(grid)
    assert cdf[0] == pytest.approx(0.0, abs=1e-12)
    assert cdf[-1] == pytest.approx(1.0, rel=1e-9)
    assert np.all(np.diff(cdf) >= 0.0)
    theta, wk = radial_sample(proposal, 1000, RandomStream(3))
    assert theta.shape == (1000,) and wk.shape == (1000,)
    assert np.all(wk > 0.0)
