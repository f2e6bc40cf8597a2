"""Geodesic geometry on the unit sphere S^n embedded in R^(n+1).

Conventions used throughout the package: `n` is the dimension of the sphere
(so points are length n+1 unit vectors), every angle and radius is in
radians, and omega_k written in the docs means sphere_surface(k - 1), the
total measure of S^(k-1).  Point arrays have shape (..., n+1) with the
coordinate axis last.
"""

from __future__ import annotations

import math

import numpy as np


def sphere_surface(k: int) -> float:
    """Total k-dimensional Hausdorff measure of S^k.

    sphere_surface(0) = 2 (two points), sphere_surface(1) = 2 pi,
    sphere_surface(2) = 4 pi.
    """
    if k < 0:
        raise ValueError(f"sphere dimension must be >= 0, got {k}")
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def unit_vector(v) -> np.ndarray:
    """Normalized copy of v as a float array; rejects zero and non-finite input."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("a sphere point needs a 1-d vector with >= 2 coordinates")
    if not np.all(np.isfinite(x)):
        raise ValueError("sphere point coordinates must be finite")
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return x / norm


def geodesic_distance(x, y):
    """Geodesic distance arccos(<x, y>) in [0, pi].

    The inner product is clamped to [-1, 1] so coincident and antipodal
    pairs stay in the arccos domain under roundoff.  Broadcasts over
    leading axes.
    """
    dot = np.sum(np.asarray(x, float) * np.asarray(y, float), axis=-1)
    return np.arccos(np.clip(dot, -1.0, 1.0))


def cap_area(n: int, r):
    """H^n measure of the geodesic cap of radius r on S^n.

    Equals omega_n * int_0^r sin^(n-1) t dt with omega_n = sphere_surface(n-1),
    that is |S^n| I_u(n/2, n/2) with u = sin^2(r/2) and I the regularized
    incomplete beta.  Closed forms keep relative accuracy down to tiny r:
    2 r for n = 1, 4 pi sin^2(r/2) for n = 2 and pi (2r - sin 2r) for n = 3.
    Larger n take r' = min(r, pi - r) and

        omega_n sin^n(r') / n * F(n/2, sin^2(r'/2)),

    with F the continued fraction of _beta_fraction, and subtract it from
    |S^n| when r > pi/2.  Vectorized over r.

    Parameters
    ----------
    n : sphere dimension, >= 1
    r : radius in [0, pi], scalar or array

    Returns
    -------
    float or ndarray matching the shape of r
    """
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    r_arr = np.asarray(r, dtype=float)
    if not np.all((r_arr >= -1e-15) & (r_arr <= math.pi + 1e-12)):
        raise ValueError("cap radius must lie in [0, pi]")
    r_arr = np.clip(r_arr, 0.0, math.pi)
    if n == 1:
        out = 2.0 * r_arr
    elif n == 2:
        out = 4.0 * math.pi * np.sin(0.5 * r_arr) ** 2
    elif n == 3:
        out = math.pi * _x_minus_sin(2.0 * r_arr)
    else:
        near = np.minimum(r_arr, math.pi - r_arr)
        part = (
            sphere_surface(n - 1) * np.sin(near) ** n / n
            * _beta_fraction(0.5 * n, np.sin(0.5 * near) ** 2)
        )
        out = np.where(r_arr > 0.5 * math.pi, sphere_surface(n) - part, part)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out


# Taylor coefficients of (x - sin x) / x^3 = sum_k (-1)^k x^(2k) / (2k+3)!;
# at x = 0.5 the first omitted term is 1e-18 of the sum
_X_MINUS_SIN = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(7))


def _x_minus_sin(x):
    """x - sin x for x >= 0 to a few ulp: from its Taylor polynomial below
    x = 0.5, where the difference would lose more than 24 ulp."""
    x2 = x * x
    series = _X_MINUS_SIN[-1]
    for c in _X_MINUS_SIN[-2::-1]:
        series = series * x2 + c
    return np.where(x < 0.5, x * x2 * series, x - np.sin(x))


def _beta_fraction(a: float, x):
    """Continued fraction F with I_x(a, a) = (x (1-x))^a / (a B(a, a)) * F.

    The incomplete beta's fraction (Numerical Recipes eq. 6.4.5) at b = a,
    evaluated by Lentz's method for x in [0, 1/2], where every
    denominator stays away from 0 and the fraction converges in at most
    about 2 sqrt(a) + 5 terms (30 at a = 171; an integer a ends after a).
    Stops once every element's last factor is within 1e-15 of 1, or after
    1000 terms.
    """
    x = np.asarray(x, dtype=float)
    c = np.ones_like(x)
    d = 1.0 / (1.0 - 2.0 * a * x / (a + 1.0))
    h = d
    for k in range(1, 1000):
        for step in (
            k * (a - k) * x / ((a + 2 * k - 1) * (a + 2 * k)),
            -(a + k) * (2 * a + k) * x / ((a + 2 * k) * (a + 2 * k + 1)),
        ):
            d = 1.0 / (1.0 + step * d)
            c = 1.0 + step / c
            h = h * (d * c)
        if np.all(np.abs(d * c - 1.0) <= 1e-15):
            break
    return h


# volume_radius's bracket length at which it stops, and its most steps
_RADIUS_TOL, _RADIUS_STEPS = 1e-12, 200


def volume_radius(n: int, alpha: float) -> float:
    """Radius of the cap on S^n with H^n measure alpha (inverse of cap_area).

    Bisection on [0, pi]; cap_area is strictly increasing so the root is
    unique.  Stops when the bracket is shorter than _RADIUS_TOL.
    """
    total = sphere_surface(n)
    if not 0.0 <= alpha <= total + 1e-9 * total:
        raise ValueError(f"measure must lie in [0, {total}], got {alpha}")
    if alpha <= 0.0:
        return 0.0
    if alpha >= total:
        return math.pi
    lo, hi = 0.0, math.pi
    for _ in range(_RADIUS_STEPS):
        mid = 0.5 * (lo + hi)
        if cap_area(n, mid) < alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < _RADIUS_TOL:
            break
    return 0.5 * (lo + hi)


def sample_uniform(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count independent uniform points on S^n, shape (count, n+1).

    Standard Gaussians normalized in place; the zero draw has probability 0
    but is resampled anyway.
    """
    g = rng.standard_normal((count, n + 1))
    norms = _row_norms(g)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), n + 1))
        norms = _row_norms(g)
    g /= norms[:, None]
    return g


def _row_dots(a, b):
    """Dot products of matching rows (last axis) of a and b.

    One pass per coordinate, added in coordinate order.  Below 8
    coordinates that is the order of np.sum(a * b, axis=-1), so the sums
    are the same to the bit, without the (..., n+1) product array.
    """
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _row_norms(a):
    return np.sqrt(_row_dots(a, a))

