"""Monte Carlo and quadrature plumbing shared by the perimeter estimators.

Everything here is deterministic given a seed: random state is carried by
RandomStream, a splittable wrapper over numpy's SeedSequence, and chunked
estimators derive one child stream per chunk so results depend only on
(seed, sample count, chunk size), not on how many CPUs evaluate the chunks.
"""

from __future__ import annotations

import contextvars
import functools
import heapq
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


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
            # square at a power-of-two scale near 1, as merge() does: exact
            # where the squares stay in range, and keeps them in range at any
            # scale
            scale = math.frexp(float(np.max(np.abs(dev))))[1]
            sd = math.ldexp(float(np.ldexp(dev, -scale).std(ddof=1)), scale)
            se = sd / math.sqrt(count)
        else:
            se = math.inf
        return Estimate(mean, se, count)

    @staticmethod
    def exact(value: float) -> "Estimate":
        return Estimate(float(value), 0.0, 0)

    def _m2(self, scale: int) -> float:
        # second central moment sum, times 2^(-2 scale); undefined spread
        # for < 2 samples is 0
        if self.samples < 2:
            return 0.0
        return math.ldexp(self.std_error, -scale) ** 2 * self.samples * (self.samples - 1)

    def merge(self, other: "Estimate") -> "Estimate":
        na, nb = self.samples, other.samples
        if na == 0 or nb == 0:
            raise ValueError("cannot merge exact (0-sample) estimates")
        n = na + nb
        delta = other.value - self.value
        mean = self.value + delta * nb / n
        # moments at a power-of-two scale near 1, which moves no bit where
        # the squares stay in range and keeps them in range at any scale
        scale = math.frexp(max(self.std_error if na > 1 else 0.0,
                               other.std_error if nb > 1 else 0.0, abs(delta)))[1]
        d = math.ldexp(delta, -scale)
        m2 = self._m2(scale) + other._m2(scale) + d * d * na * nb / n
        se = math.ldexp(math.sqrt(m2 / (n - 1) / n), scale) if n > 1 else math.inf
        return Estimate(mean, se, n)


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def mc_estimate(sampler, integrand, n_samples: int, rng, chunk_size: int = 1 << 16) -> Estimate:
    """Chunked Monte Carlo mean of integrand over sampler draws.

    sampler(count, generator) returns a batch; integrand(batch) returns a
    float array of per-sample values whose mean estimates the target.
    Each chunk draws from its own split child stream and is reduced to an
    Estimate; the chunk Estimates are pooled in chunk order, so the result is
    a deterministic function of (seed, n_samples, chunk_size).

    This is the only place in the library where threads start.  Chunks run
    concurrently on worker threads, one per CPU this process may use (capped
    at the chunk count; a single worker or a single chunk runs in the
    calling thread and no thread starts).  sampler and integrand may
    therefore be called from several threads at once, one chunk per call
    with its own generator, and must not share mutable state.  Each chunk
    runs in a copy of the caller's context, so context-local settings such
    as np.errstate apply as they would in the caller.  The result is the
    same, to the bit, on any number of CPUs.

    Raises NonFiniteSampleError if any integrand value is NaN or infinite,
    naming the sample's index in 0 .. n_samples - 1.  When several chunks
    fail, the lowest-numbered chunk's error is raised and chunks that have
    not started are cancelled; no thread outlives the call.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    stream = as_stream(rng)
    n_chunks = (n_samples + chunk_size - 1) // chunk_size
    children = stream.split(n_chunks)

    def chunk(i: int) -> Estimate:
        start = i * chunk_size
        count = min(chunk_size, n_samples - start)
        values = np.asarray(integrand(sampler(count, children[i].generator)), dtype=float)
        if values.shape != (count,):
            raise ValueError(f"integrand returned shape {values.shape}, expected ({count},)")
        if not np.all(np.isfinite(values)):
            idx = int(np.flatnonzero(~np.isfinite(values))[0])
            raise NonFiniteSampleError(
                f"non-finite integrand value {values[idx]!r} at sample {start + idx}"
            )
        return Estimate.from_values(values)

    workers = min(_worker_count(), n_chunks)
    if workers <= 1:
        parts = [chunk(i) for i in range(n_chunks)]
    else:
        pool = ThreadPoolExecutor(workers)
        try:
            futures = [pool.submit(contextvars.copy_context().run, chunk, i) for i in range(n_chunks)]
            parts = [f.result() for f in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    return functools.reduce(Estimate.merge, parts)


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


class RadialProposal:
    """Exact importance sampler for the radial factor of geodesic polar integrals.

    Target on [0, pi]: sin^(n-1)(theta) * kernel(theta), with kernel
    theta^exponent, or (theta/pi)^exponent when normalized=True.  The draw is
    w = theta/pi ~ Beta(a, n) with a = exponent + n; its density
    w^(a-1) (1-w)^(n-1) has both endpoint orders of the target, so

        weight * sin^(n-1)(theta) * kernel(theta)
            = pi^(1+exponent) B(a, n) (sin(pi w) / (w (1-w)))^(n-1),

    without the pi^exponent factor when normalized=True.  With
    m = min(w, 1-w), so that w (1-w) = m (1-m), the ratio
    sin(pi w) / (w (1-w)) = pi sinc(m) / (1-m) lies in [pi, 4] and is
    finite at both ends, also for draws that underflow to w = 0, so every
    weight lies within a factor (4/pi)^(n-1) of the smallest.

    Construction fails when the target is not normalizable, i.e. a <= 0
    (the s >= 0 singular regime of the perimeter kernel).
    """

    def __init__(self, n: int, exponent: float, normalized: bool = False):
        if n < 1:
            raise ValueError("sphere dimension must be >= 1")
        a = exponent + n
        if a <= 0.0:
            raise ValueError(
                "density sin^(n-1)(theta) * theta^exponent is not normalizable at 0 "
                f"(exponent {exponent}, n {n}); this is the s >= 0 singular regime"
            )
        self.n = int(n)
        self._a = a
        log_beta = math.lgamma(a) + math.lgamma(n) - math.lgamma(a + n)
        power = 1.0 if normalized else 1.0 + exponent
        self._scale = math.exp(power * math.log(math.pi) + log_beta)

    def sample_weighted(self, count: int, rng: np.random.Generator):
        """(theta, wk) with wk = weight * sin^(n-1)(theta) * kernel(theta).

        Means of wk * g(theta) estimate int_0^pi g sin^(n-1) kernel d theta.
        """
        w = rng.beta(self._a, self.n, size=count)
        m = np.minimum(w, 1.0 - w)
        ratio = math.pi * np.sinc(m) / (1.0 - m)
        return math.pi * w, self._scale * ratio ** (self.n - 1)
