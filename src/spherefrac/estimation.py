"""Monte Carlo and quadrature plumbing shared by the perimeter estimators.

Everything here is deterministic given a seed: random state is carried by
RandomStream, a splittable wrapper over numpy's SeedSequence, and chunked
estimators derive one child stream per chunk so results depend only on
(seed, sample count, chunk size).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import beta as _beta_fn, betainc as _betainc

from .geometry import sphere_surface


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within its subdivision budget."""


class NonFiniteSampleError(RuntimeError):
    """A Monte Carlo integrand produced NaN or infinity."""


class RandomStream:
    """Seeded, splittable random source.

    split(k) spawns k child streams via SeedSequence.spawn, so chunked
    estimators can hand independent deterministic streams to each chunk.
    The generator is created lazily and is private to this stream.
    """

    def __init__(self, seed):
        if isinstance(seed, RandomStream):
            seed = seed.seed_sequence
        if isinstance(seed, np.random.SeedSequence):
            self.seed_sequence = seed
        else:
            self.seed_sequence = np.random.SeedSequence(int(seed))
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = np.random.Generator(np.random.PCG64(self.seed_sequence))
        return self._generator

    def split(self, count: int) -> list["RandomStream"]:
        return [RandomStream(s) for s in self.seed_sequence.spawn(count)]

    def __repr__(self):
        return f"RandomStream(entropy={self.seed_sequence.entropy})"


def as_stream(rng) -> RandomStream:
    """Coerce an int seed or RandomStream into a RandomStream."""
    if isinstance(rng, RandomStream):
        return rng
    if rng is None:
        raise ValueError("an explicit seed or RandomStream is required; there is no global RNG")
    return RandomStream(rng)


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error.

    value is the sample mean, std_error the sample standard deviation over
    sqrt(samples).  A sample whose values are all equal has value equal to
    that common value and std_error exactly 0, also after merge().
    samples == 0 marks an exact (non-MC) value with zero error.  merge()
    pools two estimates exactly, as if the underlying samples had been
    concatenated.
    """

    value: float
    std_error: float
    samples: int

    @staticmethod
    def from_values(values: np.ndarray) -> "Estimate":
        values = np.asarray(values, dtype=float).ravel()
        count = values.size
        if count == 0:
            return Estimate(0.0, 0.0, 0)
        # both moments about the first value: equal values give deviations of
        # exactly 0 (no roundoff spread), and a mean that is large next to the
        # spread does not cancel
        shift = values[0]
        dev = values - shift
        mean = float(shift + dev.mean())
        if count > 1:
            se = float(dev.std(ddof=1) / math.sqrt(count))
        else:
            se = math.inf
        return Estimate(mean, se, count)

    @staticmethod
    def exact(value: float) -> "Estimate":
        return Estimate(float(value), 0.0, 0)

    def _m2(self) -> float:
        # second central moment sum; undefined spread for < 2 samples is 0
        if self.samples < 2:
            return 0.0
        return self.std_error**2 * self.samples * (self.samples - 1)

    def merge(self, other: "Estimate") -> "Estimate":
        na, nb = self.samples, other.samples
        if na == 0 or nb == 0:
            raise ValueError("cannot merge exact (0-sample) estimates")
        n = na + nb
        delta = other.value - self.value
        mean = self.value + delta * nb / n
        m2 = self._m2() + other._m2() + delta * delta * na * nb / n
        se = math.sqrt(m2 / (n - 1) / n) if n > 1 else math.inf
        return Estimate(mean, se, n)


def mc_estimate(sampler, integrand, n_samples: int, rng, chunk_size: int = 1 << 16) -> Estimate:
    """Chunked Monte Carlo mean of integrand over sampler draws.

    sampler(count, generator) returns a batch; integrand(batch) returns a
    float array of per-sample values whose mean estimates the target.
    Chunks use split child streams and are merged with exact pooling, so the
    result is a deterministic function of (seed, n_samples, chunk_size) and
    insensitive to merge order beyond roundoff.

    Raises NonFiniteSampleError if any integrand value is NaN or infinite.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    stream = as_stream(rng)
    n_chunks = (n_samples + chunk_size - 1) // chunk_size
    children = stream.split(n_chunks)
    total: Estimate | None = None
    done = 0
    for child in children:
        count = min(chunk_size, n_samples - done)
        done += count
        values = np.asarray(integrand(sampler(count, child.generator)), dtype=float)
        if values.shape != (count,):
            raise ValueError(f"integrand returned shape {values.shape}, expected ({count},)")
        if not np.all(np.isfinite(values)):
            idx = int(np.flatnonzero(~np.isfinite(values))[0])
            raise NonFiniteSampleError(
                f"non-finite integrand value {values[idx]!r} at sample {done - count + idx}"
            )
        part = Estimate.from_values(values)
        total = part if total is None else total.merge(part)
    return total


# 7- and 15-point Gauss-Legendre nodes for the embedded error estimate.
_G7_X, _G7_W = np.polynomial.legendre.leggauss(7)
_G15_X, _G15_W = np.polynomial.legendre.leggauss(15)


def _gauss_pair(f, a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = np.concatenate((mid + half * _G7_X, mid + half * _G15_X))
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError("quadrature integrand must be vectorized over node arrays")
    coarse = half * float(_G7_W @ vals[:7])
    fine = half * float(_G15_W @ vals[7:])
    return fine, abs(fine - coarse)


def adaptive_quad(
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 60,
    max_intervals: int = 200000,
) -> float:
    """Globally adaptive Gauss(7/15) integral of f over [a, b].

    The worst interval (largest embedded-rule error) is bisected until the
    summed error drops below tol relative to the running total.  f must
    accept node arrays.  Nodes are interior, so integrable endpoint
    singularities are tolerated.

    Raises QuadratureError when the subdivision budget (depth max_depth or
    max_intervals intervals) is exhausted, reporting the worst interval.
    """
    if not (b > a):
        if b == a:
            return 0.0
        raise ValueError("integration bounds must satisfy a <= b")
    val, err = _gauss_pair(f, a, b)
    # heap of (-error, tiebreak, a, b, value, depth)
    heap = [(-err, 0, a, b, val, 0)]
    total_val, total_err = val, err
    counter = 1
    while total_err > tol * max(abs(total_val), 1e-300):
        if len(heap) >= max_intervals:
            raise QuadratureError(
                f"interval budget exhausted: {len(heap)} intervals, error {total_err:.3e}"
            )
        neg_err, _, ia, ib, ival, depth = heapq.heappop(heap)
        if depth >= max_depth:
            raise QuadratureError(
                f"subdivision depth {max_depth} exceeded on [{ia!r}, {ib!r}] "
                f"with interval error {-neg_err:.3e}"
            )
        mid = 0.5 * (ia + ib)
        lv, le = _gauss_pair(f, ia, mid)
        rv, re = _gauss_pair(f, mid, ib)
        total_val += lv + rv - ival
        total_err += le + re - (-neg_err)
        heapq.heappush(heap, (-le, counter, ia, mid, lv, depth + 1))
        heapq.heappush(heap, (-re, counter + 1, mid, ib, rv, depth + 1))
        counter += 2
    return total_val


def incomplete_beta(t: float, a: float, b: float) -> float:
    """Lower incomplete beta B_t(a, b) = int_0^t u^(a-1) (1-u)^(b-1) du.

    Regularized continued-fraction evaluation times the complete beta.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("upper limit must lie in [0, 1]")
    if a <= 0.0 or b <= 0.0:
        raise ValueError("beta parameters must be positive")
    return float(_betainc(a, b, t) * _beta_fn(a, b))


def _sinc_ratio(theta):
    """(sin theta / theta), stable at 0; theta in [0, pi]."""
    return np.sinc(np.asarray(theta, dtype=float) / math.pi)


class RadialProposal:
    """Importance sampler for the radial factor of geodesic polar integrals.

    Target density on support [t0, t1] inside [0, pi] proportional to
    sin^(n-1)(theta) * theta^exponent, or sin^(n-1)(theta) * (theta/pi)^exponent
    when normalized=True (the two shapes coincide; the flag only fixes which
    kernel sample_weighted folds in).

    Strategies:
      * Beta: for normalized kernels with exponent >= 1 on the full interval,
        draw w = theta/pi from Beta(exponent+1, n).  That matches both
        endpoint orders of the target, and the exact density of the draw is
        known, so weights carry no table error.  This is the path the large-t
        antipodal sweeps use.
      * Tabulated: otherwise, a 4096-node inverse CDF tabulated at
        Chebyshev-spaced quantiles and interpolated with a monotone cubic.
        The CDF is accumulated in a power-flattened variable so endpoint
        behavior theta^kappa (kappa = exponent + n - 1) is resolved exactly.

    sample() returns (theta, weight) with weight = 1 / (density actually
    sampled); for the tabulated path that density is the interpolant's own,
    read off its derivative, so weighted means are unbiased with no
    interpolation bias.  sample_weighted() returns weight * sin^(n-1)(theta)
    * kernel(theta) evaluated in a collapsed form that never multiplies huge
    kernel values by vanishing weights.

    Construction fails when the density is not normalizable, i.e. t0 = 0 and
    exponent + n - 1 <= -1 (the s >= 0 singular regime).
    """

    TABLE_NODES = 4096
    _BUILD_GRID = 8193

    def __init__(self, n: int, exponent: float, support=(0.0, math.pi), normalized: bool = False):
        if n < 1:
            raise ValueError("sphere dimension must be >= 1")
        t0, t1 = float(support[0]), float(support[1])
        if not (0.0 <= t0 < t1 <= math.pi + 1e-12):
            raise ValueError(f"support must be a nondegenerate subinterval of [0, pi], got {support}")
        t1 = min(t1, math.pi)
        kappa = exponent + n - 1
        if t0 == 0.0 and kappa <= -1.0:
            raise ValueError(
                "density sin^(n-1)(theta) * theta^exponent is not normalizable at 0 "
                f"(exponent {exponent}, n {n}); this is the s >= 0 singular regime"
            )
        self.n = int(n)
        self.exponent = float(exponent)
        self.support = (t0, t1)
        self.normalized = bool(normalized)
        self._kappa = kappa
        self._use_beta = normalized and exponent >= 1.0 and t0 == 0.0 and t1 == math.pi
        if self._use_beta:
            self._beta_a = exponent + 1.0
            self._log_beta_const = math.lgamma(self._beta_a) + math.lgamma(n) - math.lgamma(self._beta_a + n)
        else:
            self._build_table()

    # -- tabulated path ----------------------------------------------------

    def _theta_of_v(self, v):
        t0, t1 = self.support
        k1 = self._kappa + 1.0
        if abs(k1) < 1e-12:
            # log spacing; t0 > 0 guaranteed by the normalizability check
            return t0 * np.exp(v * math.log(t1 / t0))
        lo, hi = t0**k1, t1**k1
        return (lo + v * (hi - lo)) ** (1.0 / k1)

    def _dtheta_dv_factor(self) -> float:
        # dtheta/dv = C * theta^(-kappa) with the constant below (log case differs)
        t0, t1 = self.support
        k1 = self._kappa + 1.0
        if abs(k1) < 1e-12:
            return math.log(t1 / t0)
        return (t1**k1 - t0**k1) / k1

    def _build_table(self):
        v_grid = np.linspace(0.0, 1.0, self._BUILD_GRID)
        theta = self._theta_of_v(v_grid)
        # density in v is proportional to (sin theta / theta)^(n-1)
        rho = _sinc_ratio(theta) ** (self.n - 1)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(v_grid))))
        if cdf[-1] <= 0.0:
            raise ValueError("degenerate radial density (zero mass on support)")
        self._v_mass = cdf[-1]  # integral of rho over v, used by the weight constant
        cdf = cdf / cdf[-1]
        j = np.arange(self.TABLE_NODES)
        u_nodes = 0.5 * (1.0 - np.cos(math.pi * j / (self.TABLE_NODES - 1)))
        u_nodes[0], u_nodes[-1] = 0.0, 1.0
        cdf_mono, keep = np.unique(cdf, return_index=True)
        v_of_u = np.interp(u_nodes, cdf_mono, v_grid[keep])
        u_unique, keep_u = np.unique(u_nodes, return_index=True)
        self._inverse_cdf = PchipInterpolator(u_unique, v_of_u[keep_u], extrapolate=False)
        self._inverse_cdf_deriv = self._inverse_cdf.derivative()

    # -- sampling ----------------------------------------------------------

    def sample(self, count: int, rng: np.random.Generator):
        """(theta, weight) arrays; weight = 1/pdf of the drawn theta.

        Means of weight * g(theta) estimate int g over the support.
        """
        if self._use_beta:
            w = rng.beta(self._beta_a, self.n, size=count)
            theta = math.pi * w
            log_pdf = (
                (self._beta_a - 1.0) * np.log(w)
                + (self.n - 1.0) * np.log1p(-w)
                - self._log_beta_const
                - math.log(math.pi)
            )
            return theta, np.exp(-log_pdf)
        u = rng.random(count)
        v = self._inverse_cdf(u)
        theta = self._theta_of_v(v)
        dv_du = self._inverse_cdf_deriv(u)
        c = self._dtheta_dv_factor()
        if abs(self._kappa + 1.0) < 1e-12:
            dtheta_dv = c * theta
        else:
            dtheta_dv = c * np.power(theta, -self._kappa, where=theta > 0, out=np.zeros_like(theta))
        return theta, dv_du * dtheta_dv

    def sample_weighted(self, count: int, rng: np.random.Generator):
        """(theta, wk) with wk = weight * sin^(n-1)(theta) * kernel(theta).

        Computed in collapsed form: the kernel power cancels against the
        sampling density analytically, leaving bounded sinc factors, so no
        inf * 0 can occur even for theta underflowing to 0 or near pi.
        """
        n = self.n
        if self._use_beta:
            w = rng.beta(self._beta_a, n, size=count)
            theta = math.pi * w
            # weight * sin^(n-1) * (theta/pi)^exponent = pi B(a, n) (pi sinc(1-w))^(n-1)
            wk = math.pi * math.exp(self._log_beta_const) * (math.pi * np.sinc(1.0 - w)) ** (n - 1)
            return theta, wk
        u = rng.random(count)
        v = self._inverse_cdf(u)
        theta = self._theta_of_v(v)
        c = self._dtheta_dv_factor()
        wk = self._inverse_cdf_deriv(u) * c * _sinc_ratio(theta) ** (n - 1)
        if self.normalized:
            wk = wk * math.pi ** (-self.exponent)
        return theta, wk

    # -- diagnostics -------------------------------------------------------

    def cdf(self, theta):
        """Exact-target CDF (quadrature-accurate), for goodness-of-fit tests."""
        if self._use_beta:
            w = np.asarray(theta, dtype=float) / math.pi
            return _betainc(self._beta_a, self.n, np.clip(w, 0.0, 1.0))
        v_grid = np.linspace(0.0, 1.0, self._BUILD_GRID)
        th_grid = self._theta_of_v(v_grid)
        rho = _sinc_ratio(th_grid) ** (self.n - 1)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(v_grid))))
        cdf /= cdf[-1]
        return np.interp(np.asarray(theta, dtype=float), th_grid, cdf)


def radial_sample(proposal: RadialProposal, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw (theta, weight) from a RadialProposal with a stream or generator."""
    gen = rng if isinstance(rng, np.random.Generator) else as_stream(rng).generator
    return proposal.sample(count, gen)
