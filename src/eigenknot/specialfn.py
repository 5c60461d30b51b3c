"""Bessel, Jacobi and ultraspherical evaluations with pinned conventions.

Everything downstream depends on three conventions fixed here:

* ``bessel_kernel(n, r)`` is J_{n/2-1}(r) / r^{n/2-1}, the radial profile of
  the uniform plane-wave average over S^{n-1} (up to a (2*pi)^{n/2} factor),
  with the removable singularity at r=0 filled in by its power series.  For
  n = 3 and for its gradient kernel n = 5 the half-integer order makes it
  elementary (DLMF 10.49.3): sqrt(2/pi) sin(r)/r and
  sqrt(2/pi) (sin r - r cos r)/r^3, evaluated with sin/cos; other n go
  through scipy's jv, which loads scipy on its first call (importing this
  module loads numpy only).
* ``gegenbauer_cnk(n, k, t)`` is the ultraspherical polynomial of dimension
  n+1 and degree k normalized so that C(1) = 1, i.e.
  Gamma(k+1) Gamma(n/2) / Gamma(k+n/2) * P_k^{(n/2-1, n/2-1)}(t).
* ``darboux_limit(n, t)`` is the k->infinity limit of
  k^{1-n/2} P_k^{(n/2-1,n/2-1)}(cos(t/k)), namely
  2^{n/2-1} J_{n/2-1}(t) / t^{n/2-1}; the approach is O(1/k).

On S^3 (n = 3) the normalized kernel is elementary, C(cos theta) =
sin((k+1) theta) / ((k+1) sin theta) (DLMF 18.5.2), and
``gegenbauer3_chord_derivatives`` evaluates it and its t-derivatives from
the chord |p - p_j| = 2 sin(theta/2) rather than from t = p . p_j: a Taylor
series near the pole, sin/cos and the Gegenbauer equation elsewhere.  Its
cost does not depend on k and it keeps C(1) = 1 and every derivative within
about 1e-15 of C^(d)(1), where the O(k) Jacobi recurrence fed t loses about
k^2 eps.  Other n go through the recurrence, with the Gamma ratio as an exact
product of k small factors.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_2_PI = math.sqrt(2.0 / math.pi)


def jv(nu, t):
    """scipy.special.jv, imported on first call: only n other than 3 and 5 need it."""
    from scipy.special import jv as scipy_jv

    return scipy_jv(nu, t)


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


def gauss_gegenbauer(m: int, alpha: float):
    """Gauss rule (nodes, weights) of m points for the weight (1 - u^2)^(alpha - 1/2).

    Golub-Welsch, as in scipy.special.roots_gegenbauer: the nodes are the
    eigenvalues of the symmetric Jacobi matrix of the Gegenbauer recurrence,
    polished by one Newton step on P = P_m^{(alpha-1/2, alpha-1/2)}.  The
    weights are the Gauss-Jacobi Christoffel numbers up to a constant,
    1 / ((1 - u^2) P'(u)^2), symmetrized and scaled to the weight's total
    mass sqrt(pi) Gamma(alpha + 1/2) / Gamma(alpha + 1).  scipy's
    1 / (P_{m-1}(u) P'(u)) reads P_{m-1} next to its own outermost root at
    the outermost nodes and loses about 1e-12 there at m = 48; this form
    stays within about 1e-13 of a 40-digit rule.
    """
    if m < 1:
        raise ValueError("the rule needs m >= 1 points")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    j = np.arange(1.0, m)
    off = np.sqrt(j * (j + 2.0 * alpha - 1.0) / (4.0 * (j + alpha) * (j + alpha - 1.0)))
    u = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    a = alpha - 0.5
    u -= jacobi_p(m, a, a, u) / jacobi_p_deriv(m, a, a, u)
    dp = jacobi_p_deriv(m, a, a, u)
    w = 1.0 / ((1.0 - u) * (1.0 + u) * dp * dp)
    u = 0.5 * (u - u[::-1])
    w = 0.5 * (w + w[::-1])
    w *= math.sqrt(math.pi) * math.gamma(alpha + 0.5) / math.gamma(alpha + 1.0) / w.sum()
    return u, w


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


#: Taylor terms for (k+1) theta < 3: there |z| < 4.5 and the j-th term is below 4.5^j / ((2j+1)!! j!).
_CHORD_TERMS = 20


def gegenbauer3_chord_derivatives(k: int, chord, order: int):
    """[C, C', ..., C^(order)] of C = gegenbauer_cnk(3, k, .) at t = 1 - chord^2/2.

    On S^3 the normalized kernel is C(cos theta) = sin((k+1) theta) /
    ((k+1) sin theta) (DLMF 18.5.2), where theta = 2 asin(chord/2) is the
    geodesic angle between unit vectors p, p_j at distance chord = |p - p_j|.
    A chord near 2 fixes 1 + t only to about eps, so a caller may pass the
    antipodal distance as a negative chord, chord = -|p + p_j|, which stands
    for t = chord^2/2 - 1 (-0.0 included).  Angles past pi/2 fold back by parity,
    C^(d)(-t) = (-1)^(k+d) C^(d)(t).

    Away from the pole C and C' come from sin/cos and higher orders from the
    differentiated Gegenbauer equation (DLMF 18.8)

        (1 - t^2) y^(d+2) = (2d+3) t y^(d+1) + (d(d+2) - k(k+2)) y^(d).

    Near the pole the Taylor series in z = -(k+1)^2 (1 - t) takes over:
    C = sum_j alpha_j z^j with alpha_0 = 1 and alpha_{j+1} = alpha_j
    (1 - (j+1)^2/(k+1)^2) / ((2j+3)(j+1)) (DLMF 18.5.7), exact for k < 20.
    It serves C and C' where (k+1) theta < 2 and the higher orders where
    (k+1) theta < 3, because each step of the equation divides by 1 - t^2
    and so amplifies rounding near the pole.  Every order then stays within
    about 1.5e-15 of C^(d)(1) from a 50-digit reference, and the cost does
    not grow with k.
    """
    if k < 0:
        raise ValueError("degree k must be >= 0")
    chord = np.asarray(chord, dtype=float)
    q = (k + 1.0) ** 2
    # half-chord sin(theta/2) to the nearer of +-p_j; past pi/2 the antipodal
    # one is sqrt((1 - a)(1 + a)), where 1 - a is exact
    half = np.multiply(np.atleast_1d(chord), 0.5)
    np.clip(half, -1.0, 1.0, out=half)
    flip = np.signbit(half)  # -0.0 is the antipode itself
    np.abs(half, out=half)
    far = half > math.sqrt(0.5)
    flip ^= far
    far = np.flatnonzero(far)
    a = half.flat[far]
    half.flat[far] = np.sqrt((1.0 - a) * (1.0 + a))
    # Taylor subsets, by the seam (k+1) theta = 2 or 3 that each order uses
    seams = [1.0 if d < 2 else 1.5 for d in range(order + 1)]
    taylor = {}
    for seam in set(seams):
        pole = np.flatnonzero(half < math.sin(seam / (k + 1)))
        z = half.flat[pole]
        z *= -2.0 * q * z
        taylor[seam] = pole, z

    # closed form everywhere (in place, one block per order); the Taylor
    # series overwrites the subsets near the pole
    theta = np.arcsin(half, out=half)
    theta *= 2.0
    with np.errstate(all="ignore"):
        sin = np.sin(theta)
        t = np.cos(theta) if order else None
        theta *= k + 1
        cos_k = np.cos(theta) if order else None
        out = [np.sin(theta, out=theta)]
        out[0] /= sin
        out[0] /= k + 1
        if order:
            sin *= sin  # 1 - t^2
            c1 = np.multiply(t, out[0])
            c1 -= cos_k
            c1 /= sin
            out.append(c1)
        for d in range(order - 1):
            nxt = np.multiply(t, out[d + 1], out=cos_k if d == 0 else None)
            nxt *= 2 * d + 3
            nxt += (d * (d + 2.0) - k * (k + 2.0)) * out[d]
            nxt /= sin
            out.append(nxt)
    for arr in out[k + 1 :]:
        arr[...] = 0.0  # C is a polynomial of degree k

    alpha = [1.0]
    for j in range(_CHORD_TERMS - 1):
        alpha.append(alpha[-1] * (1.0 - (j + 1) ** 2 / q) / ((2 * j + 3) * (j + 1)))
    for d, (arr, seam) in enumerate(zip(out, seams)):
        pole, z = taylor[seam]
        acc = np.zeros_like(z)
        for j in range(_CHORD_TERMS - 1, d - 1, -1):
            acc *= z
            acc += alpha[j] * math.perm(j, d) * q**d
        arr.flat[pole] = acc
        if (k + d) % 2:
            np.negative(arr, out=arr, where=flip)
    return [arr.reshape(chord.shape) for arr in out]


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
