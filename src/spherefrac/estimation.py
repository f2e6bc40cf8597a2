"""Monte Carlo plumbing shared by the perimeter estimators.

Everything here is deterministic given a seed: random state is carried by
RandomStream, a splittable wrapper over numpy's SeedSequence, and chunked
estimators derive one child stream per chunk so results depend only on
(seed, sample count, chunk size), not on how many CPUs evaluate the chunks.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


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


def _checked_values(values: np.ndarray, count: int, start: int) -> np.ndarray:
    """values, the integrand's at samples start .. start + count - 1; a
    ValueError unless their shape is (count,), and NonFiniteSampleError
    naming the lowest sample whose value is NaN or infinite."""
    if values.shape != (count,):
        raise ValueError(f"integrand returned shape {values.shape}, expected ({count},)")
    if not np.all(np.isfinite(values)):
        idx = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NonFiniteSampleError(f"non-finite integrand value {values[idx]!r} at sample {start + idx}")
    return values


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
        return Estimate.from_values(_checked_values(values, count, start))

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


class RadialProposal:
    """Exact importance sampler for the radial factor of geodesic polar integrals.

    Target on [0, pi]: sin^(n-1)(theta) (theta/pi)^exponent, the radial
    factor of the normalized kernel.  The draw is w = theta/pi ~ Beta(a, n)
    with a = exponent + n; its density w^(a-1) (1-w)^(n-1) has both
    endpoint orders of the target, so

        weight * sin^(n-1)(theta) * (theta/pi)^exponent
            = pi B(a, n) (sin(pi w) / (w (1-w)))^(n-1).

    With m = min(w, 1-w), so that w (1-w) = m (1-m), the ratio
    sin(pi w) / (w (1-w)) = pi sinc(m) / (1-m) lies in [pi, 4] and is
    finite at both ends, also for draws that underflow to w = 0, so every
    weight lies within a factor (4/pi)^(n-1) of the smallest.

    Construction fails when the target is not normalizable, i.e. a <= 0
    (the s >= 0 singular regime of the perimeter kernel), when the exponent
    is not finite, and when the target's mass pi B(a, n) underflows a
    float, so that every weight would be 0.
    """

    def __init__(self, n: int, exponent: float):
        if n < 1:
            raise ValueError("sphere dimension must be >= 1")
        a = exponent + n
        if not math.isfinite(a):
            raise ValueError(f"the kernel exponent must be finite, got {exponent} on S^{n}")
        if a <= 0.0:
            raise ValueError(
                "density sin^(n-1)(theta) * theta^exponent is not normalizable at 0 "
                f"(exponent {exponent}, n {n}); this is the s >= 0 singular regime"
            )
        # B(a, n) = (n-1)! / prod_(k<n) (a + k) for the integer n keeps its
        # digits where lgamma(a) - lgamma(a + n) cancels (large a)
        log_mass = math.log(math.pi) + math.lgamma(n) - sum(math.log(a + k) for k in range(n))
        if log_mass < math.log(np.finfo(float).tiny):
            raise ValueError(f"the kernel exponent {exponent:g} on S^{n} leaves a mass "
                             "pi B(exponent + n, n) that underflows a float")
        self.n = int(n)
        self._a = a
        self._scale = math.exp(log_mass)

    def sample_weighted(self, count: int, rng: np.random.Generator):
        """(theta, wk) with wk = weight * sin^(n-1)(theta) * (theta/pi)^exponent.

        Means of wk * g(theta) estimate int_0^pi g sin^(n-1)(theta)
        (theta/pi)^exponent d theta.
        """
        w = rng.beta(self._a, self.n, size=count)
        m = np.minimum(w, 1.0 - w)
        ratio = math.pi * np.sinc(m) / (1.0 - m)
        return math.pi * w, self._scale * ratio ** (self.n - 1)
