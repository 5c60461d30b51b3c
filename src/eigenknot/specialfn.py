"""Bessel, Jacobi and ultraspherical evaluations with pinned conventions.

Everything downstream depends on three conventions fixed here:

* ``bessel_kernel(n, r)`` is J_{n/2-1}(r) / r^{n/2-1}, the radial profile of
  the uniform plane-wave average over S^{n-1} (up to a (2*pi)^{n/2} factor),
  with the removable singularity at r=0 filled in by its power series.  For
  n = 3 and for its gradient kernel n = 5 the half-integer order makes it
  elementary (DLMF 10.49.3): sqrt(2/pi) sin(r)/r and
  sqrt(2/pi) (sin r - r cos r)/r^3, evaluated with sincos, both from one
  tan(r/2) as ``bessel_kernel((3, 5), r)``; other n go through scipy's jv,
  which loads scipy on its first call (importing this module loads numpy
  only).
* ``gegenbauer_cnk(n, k, t)`` is the ultraspherical polynomial of dimension
  n+1 and degree k normalized so that C(1) = 1, i.e.
  Gamma(k+1) Gamma(n/2) / Gamma(k+n/2) * P_k^{(n/2-1, n/2-1)}(t).
* ``darboux_limit(n, t)`` is the k->infinity limit of
  k^{1-n/2} P_k^{(n/2-1,n/2-1)}(cos(t/k)), namely
  2^{n/2-1} J_{n/2-1}(t) / t^{n/2-1}; the approach is O(1/k).

On S^3 (n = 3) the normalized kernel is elementary, C(cos theta) =
sin((k+1) theta) / ((k+1) sin theta) (DLMF 18.5.2), and
``gegenbauer3_zonal`` evaluates it and its t-derivatives for every pair of
points and centers straight from q = sin^2(theta/2) = |p - p_j|^2 / 4
(squared_pair_distances, whose radii the R^n Bessel sums read too), never
from t = p . p_j: C in closed form everywhere, from one arcsin and
one tan, and for the derivatives a Taylor series near the pole and the
Gegenbauer equation elsewhere.  Its cost does not depend on k and it keeps
C(1) = 1 and every derivative within about 1e-15 of C^(d)(1), where the
O(k) Jacobi recurrence fed t loses about k^2 eps.  Other n go through the
recurrence, with the Gamma ratio as an exact product of k small factors.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_2_PI = math.sqrt(2.0 / math.pi)


def sincos(x):
    """(sin x, cos x) from one tangent of the half angle, u = tan(x/2).

    sin x = 2u / (1 + u^2) and cos x = (1 - u^2) / (1 + u^2).  numpy 2.4's
    float64 sin and cos go through scalar libm (about 14 ns an element past
    pi on a 2-core Xeon VM), while its tan is vectorized (about 1.1 ns
    there), so the pair costs about a fifth of np.sin plus np.cos.  Both stay
    within one unit of 2^-52 of the true values, absolute (for |x| <= 1 sin
    also within two units relative): a relative error e in u moves sin by
    e |cos x sin x| and cos by e sin^2 x at most, and the rest is four
    roundings.  x / 2 is exact for |x| >= 2^-1021; below, it rounds to the
    subnormal grid, so there sin x may be off by one subnormal unit.  +-0
    keeps its sign in sin, and nan gives nan, and +-inf nan with an
    invalid-value warning, as np.sin does.
    """
    u = np.multiply(x, 0.5)
    np.tan(u, out=u)
    cos = np.multiply(u, u)
    sin = np.add(cos, 1.0)
    np.subtract(1.0, cos, out=cos)
    cos /= sin
    u *= 2.0
    np.divide(u, sin, out=sin)
    return sin, cos


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


def bessel_kernel(n, r):
    """J_{n/2-1}(r) / r^{n/2-1} with the r=0 singularity removed; for a tuple n, the list of kernels.

    The limit at r=0 is 1 / (2^{n/2-1} Gamma(n/2)).  For r < 1/2 the power
    series is summed on the index list of those radii (it converges to
    machine precision in a dozen terms there).  Elsewhere n = 3 and n = 5 use
    the closed forms J_{1/2}(r)/r^{1/2} = sqrt(2/pi) sin(r)/r and
    J_{3/2}(r)/r^{3/2} = sqrt(2/pi) (sin r - r cos r)/r^3 (DLMF 10.49.3),
    from one sincos for both, and every other n the quotient of library values.
    """
    dims = n if isinstance(n, tuple) else (n,)
    if min(dims) < 2:
        raise ValueError("dimension n must be >= 2")
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.ascontiguousarray(np.atleast_1d(r))  # so that ravel() is a view of it and its kernels
    if r.size and r.min() < 0:
        raise ValueError("bessel_kernel requires r >= 0")
    below = r < 0.5
    small = np.flatnonzero(below)
    out = {}
    if 3 in dims or 5 in dims:
        # the closed forms on every radius; the series overwrites r < 1/2
        with np.errstate(divide="ignore", invalid="ignore"):
            sin, cos = sincos(r)
            if 5 in dims:
                cos *= r
                out[5] = np.divide(np.subtract(sin, cos, out=cos), r * r * r, out=cos)
            if 3 in dims:
                out[3] = np.divide(sin, r, out=sin)
        for arr in out.values():
            arr *= _SQRT_2_PI
    for d in set(dims) - set(out):
        nu = 0.5 * d - 1.0
        out[d] = np.empty_like(r)
        if len(small) < r.size:
            out[d][~below] = jv(nu, r[~below]) / r[~below] ** nu
    if len(small):
        rs = r.ravel()[small]
        x = 0.25 * rs * rs
        for d, arr in out.items():
            nu = 0.5 * d - 1.0
            term = np.full_like(rs, 1.0 / (2.0**nu * math.gamma(nu + 1.0)))
            acc = term.copy()
            for m in range(1, 24):
                term = -term * x / (m * (nu + m))
                acc += term
            arr.ravel()[small] = acc
    kernels = [out[d][0] if scalar else out[d] for d in dims]
    return kernels if isinstance(n, tuple) else kernels[0]


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


def squared_pair_distances(x, centers, scale=1.0):
    """sum_a (scale (x_ia - c_ja))^2 over the coordinate planes a, as an (M, N) array.

    x holds M points as rows and centers N.  Each plane is the rank-2 product
    [x_a, -1] [scale, scale c_a]^T, built one at a time into one buffer.  For
    a power-of-two scale both products are exact, so a plane is one rounding
    of the difference, bit for bit np.subtract.outer(x_a, c_a) * scale, at
    matmul speed (an outer subtraction runs one short loop per row).
    """
    x = np.asarray(x, dtype=float)
    c = np.multiply(centers, scale).T
    left = np.empty(x.T.shape + (2,))
    left[..., 0] = x.T
    left[..., 1] = -1.0
    right = np.empty((len(c), 2, c.shape[1]))
    right[:, 0] = scale
    right[:, 1] = c
    q = left[0] @ right[0]
    q *= q
    plane = np.empty_like(q)
    for a in range(1, len(left)):
        np.matmul(left[a], right[a], out=plane)
        plane *= plane
        q += plane
    return q


#: Taylor terms for (k+1) theta < 3: there |z| < 4.5 and the j-th term is below 4.5^j / ((2j+1)!! j!).
_TAYLOR_TERMS = 20


def gegenbauer3_zonal(k: int, p, centers, order: int):
    """[C, C', ..., C^(order)] of C = gegenbauer_cnk(3, k, .) at t = p_i . c_j, as (M, N) arrays.

    p holds M unit vectors as rows and centers N.  Their angle theta enters
    only through q = sin^2(theta/2) = |p_i - c_j|^2 / 4, read from the
    halved coordinate planes by squared_pair_distances, so no p . c_j is
    formed or clipped and a small angle keeps full relative precision.
    Where q > 1/2 it is read again as |p_i + c_j|^2 / 4, the angle to -c_j:
    squared_pair_distances against -c_j, on the rows that hold such a pair,
    an eighth of the rows at a time.  Its halved planes are exact products,
    so each is one rounding of p_ia / 2 + c_ja / 2, as a direct sum gives.
    A block with no q past 1/2, as near a chart base, skips that pass.
    """
    p = np.asarray(p, dtype=float)
    q = squared_pair_distances(p, centers, 0.5)
    if not q.size or q.max() <= 0.5:
        return _gegenbauer3_from_q(k, q, _NONE, order)
    is_far = q > 0.5
    far, rows = np.flatnonzero(is_far), np.flatnonzero(is_far.any(axis=1))
    step = max(1, len(q) // 8)
    for lo in range(0, len(rows), step):
        r = rows[lo : lo + step]
        q[r] = np.where(is_far[r], squared_pair_distances(p[r], np.negative(centers), 0.5), q[r])
    del is_far  # the kernel's own block-sized arrays take its place
    return _gegenbauer3_from_q(k, q, far, order)


#: The flat indices of no pair.
_NONE = np.empty(0, dtype=np.intp)


def _gegenbauer3_from_q(k: int, q: np.ndarray, far: np.ndarray, order: int):
    """[C, ..., C^(order)] at t = 1 - 2q, and at t = 2q - 1 on the flat indices `far`.

    q = sin^2(theta/2) <= 1/2, to p_j or to -p_j on `far`, is C-contiguous and overwritten;
    there C^(d)(-t) = (-1)^(k+d) C^(d)(t).  On S^3 C(cos theta) =
    sin((k+1) theta) / ((k+1) sin theta) (DLMF 18.5.2).  With the tangent
    u = tan((k+1) asin(sqrt q)) of half of (k+1) theta (see sincos for its
    accuracy), sin((k+1) theta) = 2u / (1 + u^2) and sin theta = 2 sqrt(q - q^2),
    so C = u / ((1 + u^2) (k+1) sqrt(q - q^2)) costs one arcsin and one tan.
    Where (k+1) theta < 2^-26, and so at theta = 0, C rounds to 1 and is set
    to 1.  C' is (t C - cos((k+1) theta)) / (1 - t^2), with cos((k+1) theta)
    = 2 / (1 + u^2) - 1 and 1 - t^2 = sin^2 theta, and higher orders come
    from the differentiated Gegenbauer equation (DLMF 18.8)

        (1 - t^2) y^(d+2) = (2d+3) t y^(d+1) + (d(d+2) - k(k+2)) y^(d).

    Both cancel near the pole, so for the orders d >= 1 the Taylor series in
    z = -(k+1)^2 (1 - t) = -2 (k+1)^2 q takes over there: C = sum_j alpha_j z^j
    with alpha_0 = 1 and alpha_{j+1} = alpha_j (1 - (j+1)^2/(k+1)^2) /
    ((2j+3)(j+1)) (DLMF 18.5.7), exact for k < 20, differentiated term by
    term.  It serves C' where (k+1) theta < 2 and the higher orders where
    (k+1) theta < 3, because each step of the equation divides by 1 - t^2 and
    so amplifies rounding near the pole.  Every order then stays within about
    1.5e-15 of C^(d)(1) from a 50-digit reference, and the cost does not grow
    with k.
    """
    if k < 0:
        raise ValueError("degree k must be >= 0")
    kp = k + 1.0
    # C is 1 at k = 0; otherwise below q = (2^-27 / (k+1))^2, theta = 2 asin(sqrt q) is below
    # 2^-26 / (k+1) to within its cube, and 1 - C < ((k+1) theta)^2 / 6 < 2^-54 rounds C to 1
    tiny = (2.0**-27 / kp) ** 2
    # the Taylor orders 1 <= d <= k: z on the pole of the last one's seam, (k+1) theta = 2 for
    # d = 1 and 3 above, and `inner`, the points of that pole inside the seam of d = 1; the
    # pole holds every q where C is 1
    taylor = min(order, k)
    if taylor:
        pole = np.flatnonzero(q < math.sin((1.0 if taylor < 2 else 1.5) / kp) ** 2)
        z = q.ravel()[pole]
        inner = np.flatnonzero(z < math.sin(1.0 / kp) ** 2) if taylor > 1 else slice(None)
        one = pole[z < tiny]
        z *= -2.0 * kp * kp
    else:
        one = slice(None) if k == 0 else np.flatnonzero(q < tiny)
    if order:
        t = np.multiply(q, -2.0)
        t += 1.0
    w = np.subtract(1.0, q)
    w *= q
    w *= kp * kp
    np.sqrt(w, out=w)  # (k+1) sin(theta) / 2
    u = np.sqrt(q, out=q)
    np.arcsin(u, out=u)
    u *= kp
    np.tan(u, out=u)
    den = np.multiply(u, u)
    den += 1.0
    den *= w
    with np.errstate(all="ignore"):
        u /= den
        u.ravel()[one] = 1.0
        out = [u]
        if order:
            np.divide(w, den, out=den)
            den *= 2.0
            den -= 1.0  # cos((k+1) theta) = 2 / (1 + u^2) - 1
            w *= w
            w *= 4.0 / (kp * kp)  # 1 - t^2
            c1 = np.multiply(t, u)
            c1 -= den
            c1 /= w
            out.append(c1)
        for d in range(order - 1):
            nxt = np.multiply(t, out[d + 1], out=den if d == 0 else None)
            nxt *= 2 * d + 3
            nxt += (d * (d + 2.0) - k * (k + 2.0)) * out[d]
            nxt /= w
            out.append(nxt)

    if taylor and len(pole):
        j = np.arange(1.0, _TAYLOR_TERMS)
        coef = np.cumprod(np.concatenate([[1.0], (1.0 - j * j / (kp * kp)) / ((2.0 * j + 1.0) * j)]))
    for d, arr in enumerate(out):
        if d > k:
            arr[...] = 0.0  # C is a polynomial of degree k
            continue
        flat = arr.ravel()
        if d and len(pole):
            # the coefficients of C^(d) in powers of z: alpha_j j! / (j-d)! (k+1)^(2d), j >= d
            coef = coef[1:] * j[: len(coef) - 1] * (kp * kp)
            sub = inner if d == 1 else slice(None)
            zd = z[sub]
            acc = np.full_like(zd, coef[-1])
            for a in coef[-2::-1]:
                acc *= zd
                acc += a
            flat[pole[sub]] = acc
        if (k + d) % 2 and len(far):
            flat[far] = -flat[far]
    return out


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
