import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from oracles import QuadratureError, adaptive_quad, adaptive_quad_pairwise
from spherefrac import (
    Estimate,
    NonFiniteSampleError,
    RadialProposal,
    RandomStream,
    as_stream,
    mc_estimate,
)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", (1e-200, 1e-160, 1e160, 1e200))
def test_std_error_scales_with_values_at_extreme_magnitudes(c):
    # squaring raw deviations gave 0 at 1e-160 and inf (with an overflow
    # warning) at 1e160; the error bar must scale with the values
    v = np.array([1.0, 1.01, 0.99, 1.02])
    many = np.tile(v, 25) * np.linspace(1.0, 1.1, 100)
    pick = lambda values: lambda count, gen: values[gen.integers(0, values.size, count)]
    pairs = [
        (Estimate.from_values(c * v), Estimate.from_values(v)),
        (Estimate.from_values(c * v[:1]).merge(Estimate.from_values(c * v[1:])),
         Estimate.from_values(v[:1]).merge(Estimate.from_values(v[1:]))),
        (Estimate.from_values(c * v[:2]).merge(Estimate.from_values(c * v[2:])),
         Estimate.from_values(v[:2]).merge(Estimate.from_values(v[2:]))),
        (mc_estimate(pick(c * many), lambda x: x, 1000, RandomStream(9), chunk_size=64),
         mc_estimate(pick(many), lambda x: x, 1000, RandomStream(9), chunk_size=64)),
    ]
    for scaled, plain in pairs:
        assert plain.std_error > 0.0
        assert scaled.std_error == pytest.approx(c * plain.std_error, rel=1e-12, abs=0.0)


def test_std_error_is_unchanged_at_normal_magnitudes():
    # the power-of-two scaling moves no bit where the squares neither
    # underflow nor overflow
    gen = np.random.default_rng(4)
    for size in (2, 3, 1000, 1 << 16):
        for scale in (1e-100, 1e-3, 1.0, 7.0, 1e100):
            for v in (scale * gen.normal(size=size), scale * gen.random(size)):
                dev = v - v[0]
                expected = float(dev.std(ddof=1) / math.sqrt(v.size))
                assert Estimate.from_values(v).std_error == expected
    for scale in (1e-100, 1e-3, 1.0, 7.0, 1e100):
        v = scale * gen.normal(size=257)
        dev = v - v[0]
        est = Estimate.from_values(v)
        assert est.std_error == float(dev.std(ddof=1) / math.sqrt(v.size))
        a, b = Estimate.from_values(v[:100]), Estimate.from_values(v[100:])
        n, delta = v.size, b.value - a.value
        m2 = (a.std_error**2 * 100 * 99 + b.std_error**2 * 157 * 156
              + delta * delta * 100 * 157 / n)
        assert a.merge(b).std_error == math.sqrt(m2 / (n - 1) / n)


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
# adaptive quadrature (oracles.adaptive_quad, under the covariogram cap oracle)


def test_adaptive_quad_smooth_integrals():
    assert adaptive_quad(np.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(2.0, rel=1e-12)
    assert adaptive_quad(lambda x: x**2, 0.0, 1.0, tol=1e-12) == pytest.approx(
        1.0 / 3.0, rel=1e-12
    )


def test_adaptive_quad_raises_on_divergent_integrand():
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: 1.0 / x, 0.0, 1.0, tol=1e-10)


class _CountedIntegrand:
    """f with a record of the node count of each call."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, xs):
        self.sizes.append(xs.size)
        return self.f(xs)


# x^2 is exact in both rules, so it takes no bisection; sin over many
# periods and sqrt at its endpoint take many
@pytest.mark.parametrize("f, b, bisects", [
    (np.sin, math.pi, False),
    (np.sin, 40.0, True),
    (lambda x: x**2, 1.0, False),
    (np.sqrt, 1.0, True),
])
def test_adaptive_quad_takes_both_halves_in_one_call(f, b, bisects):
    batched, pairwise = _CountedIntegrand(f), _CountedIntegrand(f)
    value = adaptive_quad(batched, 0.0, b, tol=1e-12)
    assert value == adaptive_quad_pairwise(pairwise, 0.0, b, tol=1e-12)
    bisections = (len(pairwise.sizes) - 1) // 2
    assert (bisections > 0) == bisects
    assert len(batched.sizes) == 1 + bisections
    assert batched.sizes == [22] + [44] * bisections
    assert sum(batched.sizes) == sum(pairwise.sizes)


def test_adaptive_quad_refuses_a_scalar_integrand():
    with pytest.raises(ValueError, match="vectorized"):
        adaptive_quad(lambda x: 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# radial proposals


def _proposal_target(n, exponent, g):
    """Quadrature value of int g(theta) sin^(n-1)(theta) (theta/pi)^exponent dtheta.

    In the sinc form g sinc^(n-1)(theta/pi) theta^(exponent+n-1) the only
    singular factor is the power at 0, which QUADPACK's algebraic weight
    takes exactly, down to exponents just above -1.
    """
    scale = math.pi**-exponent
    value, _ = quad(
        lambda theta: g(theta) * np.sinc(theta / math.pi) ** (n - 1),
        0.0,
        math.pi,
        weight="alg",
        wvar=(exponent + n - 1.0, 0.0),
        epsabs=0.0,
        epsrel=1e-10,
    )
    return scale * value


# (n, exponent) with a = exponent + n near 0, where some Beta draws
# underflow to theta = 0, and the n = 3 perimeter kernel at s = -0.5
_PROPOSAL_EDGES = [
    pytest.param((2, 0.01 - 2.0), id="n2-a0.01"),
    pytest.param((2, 0.1 - 2.0), id="n2-a0.1"),
    pytest.param((3, -2.5), id="n3-a0.5"),
]


@pytest.mark.parametrize("case", [*range(10), *_PROPOSAL_EDGES])
def test_radial_proposal_weighted_samples_are_unbiased(case):
    if isinstance(case, int):
        gen_cfg = np.random.default_rng(100 + case)
        n = int(gen_cfg.integers(1, 4))
        # any exponent with exponent + n > 0 is normalizable
        exponent = float(gen_cfg.uniform(-(n - 1) - 0.9, 3.0))
        seed = 200 + case
    else:
        (n, exponent), seed = case, 210
    proposal = RadialProposal(n, exponent)
    g = lambda theta: np.cos(3.0 * theta) + 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        theta, wk = proposal.sample_weighted(200_000, RandomStream(seed).generator)
    assert np.all(theta >= 0.0) and np.all(theta <= math.pi)
    assert np.all(np.isfinite(wk)) and np.all(wk > 0.0)
    values = wk * g(theta)
    est = Estimate.from_values(values)
    target = _proposal_target(n, exponent, g)
    assert abs(est.value - target) < 5.0 * est.std_error


def test_radial_proposal_beta_path_matches_tabulated_shape():
    # a large exponent, as in the t -> infinity sweeps, concentrates the
    # draws near theta = pi
    n, exponent = 2, 18.0
    proposal = RadialProposal(n, exponent)
    g = lambda theta: theta**2
    theta, wk = proposal.sample_weighted(200_000, RandomStream(9).generator)
    est = Estimate.from_values(wk * g(theta))
    target = _proposal_target(n, exponent, g)
    assert abs(est.value - target) < 5.0 * est.std_error


class ScriptedBeta:
    """Stands in for a Generator whose beta draws are the given w."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)

    def beta(self, a, b, size):
        assert size == self.w.size
        return self.w.copy()


def test_radial_proposal_weight_is_the_two_sinc_ratio():
    # pi sinc(m) / (1 - m) with m = min(w, 1 - w) equals
    # pi (sinc(w) + sinc(1 - w)) = sin(pi w) / (w (1 - w)); on S^2 the
    # weight is the ratio times a constant
    edges = [0.0, 1.0, 1e-300, 5e-324, 1e-17, 0.5, 1.0 - 1e-16, 1.0 - 2.0**-53]
    w = np.concatenate([edges, np.random.default_rng(5).random(100_000)])
    proposal = RadialProposal(2, -1.3)
    theta, wk = proposal.sample_weighted(w.size, ScriptedBeta(w))
    assert np.array_equal(theta, math.pi * w)
    two_sinc = math.pi * (np.sinc(w) + np.sinc(1.0 - w))
    ratio = wk / wk[5] * two_sinc[5]
    assert np.max(np.abs(ratio / two_sinc - 1.0)) <= 1e-15


def test_radial_proposal_rejects_non_normalizable_kernel():
    with pytest.raises(ValueError):
        RadialProposal(2, -3.0)  # sin^1 * theta^-3 ~ theta^-2 at 0
    with pytest.raises(ValueError):
        RadialProposal(2, -2.0)  # a = 0: the s = 0 perimeter kernel
    # an exponent that is not finite, or whose mass pi B(a, n) ~ a^-n
    # underflows (p = 1e300 at t = 20), would make every weight nan or 0
    for exponent in (math.inf, math.nan, 2e301):
        with pytest.raises(ValueError, match="kernel exponent"):
            RadialProposal(2, exponent)
    RadialProposal(2, 1e150)
