"""Bessel, Jacobi and ultraspherical evaluations with pinned conventions.

Everything downstream depends on three conventions fixed here:

* ``bessel_kernel(n, r)`` is J_{n/2-1}(r) / r^{n/2-1}, the radial profile of
  the uniform plane-wave average over S^{n-1} (up to a (2*pi)^{n/2} factor),
  with the removable singularity at r=0 filled in by its power series.  For
  n = 3 and for its gradient kernel n = 5 the half-integer order makes it
  elementary (DLMF 10.49.3): sqrt(2/pi) sin(r)/r and
  sqrt(2/pi) (sin r - r cos r)/r^3, evaluated with sin/cos; other n go
  through scipy's jv.
* ``gegenbauer_cnk(n, k, t)`` is the ultraspherical polynomial of dimension
  n+1 and degree k normalized so that C(1) = 1, i.e.
  Gamma(k+1) Gamma(n/2) / Gamma(k+n/2) * P_k^{(n/2-1, n/2-1)}(t).
* ``darboux_limit(n, t)`` is the k->infinity limit of
  k^{1-n/2} P_k^{(n/2-1,n/2-1)}(cos(t/k)), namely
  2^{n/2-1} J_{n/2-1}(t) / t^{n/2-1}; the approach is O(1/k).

The Gamma ratio is evaluated as an exact product of k small factors rather
than through exp(lgamma) differences; for k <= 500 this keeps the C(1)=1
normalization within a few 1e-14.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import jv

_SQRT_2_PI = math.sqrt(2.0 / math.pi)


def bessel_j(nu: float, t):
    """Bessel function of the first kind J_nu(t) for t >= 0.

    Thin wrapper over scipy's jv with the domain restriction used throughout
    this package (radial arguments are never negative).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("bessel_j requires t >= 0")
    if nu < 0:
        raise ValueError("bessel_j requires nu >= 0")
    return jv(nu, t)


def bessel_kernel(n: int, r):
    """J_{n/2-1}(r) / r^{n/2-1} with the r=0 singularity removed.

    The limit at r=0 is 1 / (2^{n/2-1} Gamma(n/2)).  For r < 1/2 the power
    series is summed directly (it converges to machine precision in a dozen
    terms there).  Elsewhere n = 3 and n = 5 use the closed forms
    J_{1/2}(r)/r^{1/2} = sqrt(2/pi) sin(r)/r and
    J_{3/2}(r)/r^{3/2} = sqrt(2/pi) (sin r - r cos r)/r^3 (DLMF 10.49.3), and
    every other n the quotient of library values.
    """
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    nu = 0.5 * n - 1.0
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise ValueError("bessel_kernel requires r >= 0")
    small = r < 0.5
    if n in (3, 5):
        # the closed form on every radius; the series overwrites r < 1/2
        with np.errstate(divide="ignore", invalid="ignore"):
            sin = np.sin(r)
            out = sin / r if n == 3 else (sin - r * np.cos(r)) / (r * r * r)
        out *= _SQRT_2_PI
    else:
        out = np.empty_like(r)
        if not small.all():
            rl = r[~small]
            out[~small] = jv(nu, rl) / rl**nu
    if small.any():
        rs = r[small]
        x = 0.25 * rs * rs
        term = np.full_like(rs, 1.0 / (2.0**nu * math.gamma(nu + 1.0)))
        acc = term.copy()
        for m in range(1, 24):
            term = -term * x / (m * (nu + m))
            acc += term
        out[small] = acc
    return out[0] if scalar else out


def bessel_kernel_deriv(n: int, r):
    """Radial derivative of bessel_kernel(n, .).

    By d/dr [J_nu(r)/r^nu] = -J_{nu+1}(r)/r^nu this equals
    -r * bessel_kernel(n+2, r), which is smooth through r=0.
    """
    r = np.asarray(r, dtype=float)
    return -r * bessel_kernel(n + 2, r)


def jacobi_p(k: int, alpha: float, beta: float, t):
    """Jacobi polynomial P_k^{(alpha,beta)}(t) by forward three-term recurrence.

    Stable for |t| <= 1 in the symmetric regime used here; values slightly
    outside [-1, 1] are permitted (the recurrence itself does not care).
    """
    if k < 0:
        raise ValueError("degree k must be >= 0")
    t = np.asarray(t, dtype=float)
    if k == 0:
        return np.ones_like(t)
    pkm1 = np.ones_like(t)
    pk = 0.5 * (alpha + beta + 2.0) * t + 0.5 * (alpha - beta)
    for m in range(2, k + 1):
        c1 = 2.0 * m * (m + alpha + beta) * (2.0 * m + alpha + beta - 2.0)
        c2 = (2.0 * m + alpha + beta - 1.0) * (alpha * alpha - beta * beta)
        c3 = (
            (2.0 * m + alpha + beta - 1.0)
            * (2.0 * m + alpha + beta)
            * (2.0 * m + alpha + beta - 2.0)
        )
        c4 = 2.0 * (m + alpha - 1.0) * (m + beta - 1.0) * (2.0 * m + alpha + beta)
        pk, pkm1 = ((c2 + c3 * t) * pk - c4 * pkm1) / c1, pk
    return pk


def jacobi_p_deriv(k: int, alpha: float, beta: float, t):
    """d/dt P_k^{(alpha,beta)}(t) = ((k+alpha+beta+1)/2) P_{k-1}^{(alpha+1,beta+1)}(t)."""
    t = np.asarray(t, dtype=float)
    if k == 0:
        return np.zeros_like(t)
    return 0.5 * (k + alpha + beta + 1.0) * jacobi_p(k - 1, alpha + 1.0, beta + 1.0, t)


def gegenbauer_ratio(n: int, k: int) -> float:
    """Gamma(k+1) Gamma(n/2) / Gamma(k+n/2) as an exact finite product."""
    alpha = 0.5 * n - 1.0
    out = 1.0
    for i in range(1, k + 1):
        out *= i / (alpha + i)
    return out


def gegenbauer_cnk(n: int, k: int, t):
    """Normalized ultraspherical polynomial with C^n_k(1) = 1."""
    if k < 0:
        raise ValueError("degree k must be >= 0")
    alpha = 0.5 * n - 1.0
    return gegenbauer_ratio(n, k) * jacobi_p(k, alpha, alpha, t)


def gegenbauer_cnk_derivatives(n: int, k: int, t, max_order: int):
    """[C, C', C'', ...] up to max_order, all sharing the C(1)=1 normalization.

    Derivatives chain through the Jacobi parameter shift: the d-th derivative
    is ratio * prod_{j=1..d} ((k + n - 2 + j)/2) * P_{k-d}^{(a+d, a+d)} with
    a = n/2 - 1, and vanishes once d > k.
    """
    alpha = 0.5 * n - 1.0
    t = np.asarray(t, dtype=float)
    ratio = gegenbauer_ratio(n, k)
    out = []
    fac = ratio
    for d in range(max_order + 1):
        if d > 0:
            fac *= 0.5 * (k + 2.0 * alpha + d)
        if k - d < 0:
            out.append(np.zeros_like(t))
        else:
            out.append(fac * jacobi_p(k - d, alpha + d, alpha + d, t))
    return out


def gegenbauer_cnk_deriv(n: int, k: int, t):
    """First derivative of gegenbauer_cnk in t."""
    return gegenbauer_cnk_derivatives(n, k, t, 1)[1]


def darboux_limit(n: int, t):
    """Limit of k^{1-n/2} P_k^{(n/2-1,n/2-1)}(cos(t/k)): 2^{n/2-1} J_{n/2-1}(t)/t^{n/2-1}."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("darboux_limit requires t >= 0")
    return 2.0 ** (0.5 * n - 1.0) * bessel_kernel(n, t)


def darboux_error(n: int, k: int, t: float) -> float:
    """|k^{1-n/2} P_k^{(n/2-1,n/2-1)}(cos(t/k)) - darboux_limit(n, t)|.

    Decays like 1/k for fixed t; the ratio darboux_error(n, 2k, t) /
    darboux_error(n, k, t) therefore sits near 1/2.
    """
    alpha = 0.5 * n - 1.0
    val = k ** (1.0 - 0.5 * n) * float(jacobi_p(k, alpha, alpha, math.cos(t / k)))
    return abs(val - float(darboux_limit(n, t)))
