"""Inverse localization: degree-k spherical harmonics from Bessel sums.

Given a BesselSum phi with centers x_j in B_R and a chart at p0, the
synthesized harmonic is

    Y(p) = sum_j c_j * (1 / (2^{n/2-1} Gamma(n/2))) * C^n_k(p . p_j),

with p_j = chart_to_sphere(x_j / k) and k > R.  By the addition theorem Y is
an exact spherical harmonic of eigenvalue k(n+k-1) (positive-spectrum sign
convention for the sphere Laplacian; the Euclidean operator stays sum of
second partials, so the two conventions deliberately differ).  Its rescaled
pullback Y(Psi^{-1}(x/k)) reproduces phi on the unit ball up to O(1/k).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import sphere
from .helmholtz import (
    BesselSum,
    _central_differences,
    _grid_rule_degree,
    _plane_wave_grid,
    eval_bessel_sum,
    json_coefficient,
)
from .specialfn import (
    gegenbauer3_zonal,
    gegenbauer_cnk_derivatives,
    gegenbauer_ratio,
    jacobi_p,
)


def spinor_rank(n: int) -> int:
    """Complex rank 2^floor(n/2) of the spinor bundle on S^n."""
    return 2 ** (n // 2)


def harmonic_space_dim(k: int, n: int) -> int:
    """Dimension of the space of degree-k spherical harmonics on S^n."""
    if k == 0:
        return 1
    return math.comb(n + k - 1, k) * (n + 2 * k - 1) // (n + k - 1)


def dirac_multiplicity(n: int, k: int) -> int:
    """Dimension of the Dirac eigenspace at eigenvalue +-(n/2 + k)."""
    return spinor_rank(n) * math.comb(n + k - 1, k)


def kernel_norm(n: int) -> float:
    """Value 1/(2^{n/2-1} Gamma(n/2)) shared by the kernel at 0 and C(1)."""
    return 1.0 / (2.0 ** (0.5 * n - 1.0) * math.gamma(0.5 * n))


@dataclass
class UltrasphericalSum:
    """Y(p) = sum_j c_j * kernel_norm(n) * C^n_k(p . p_j) on S^n in R^{n+1}.

    ``chart``, the chart the sum was synthesized in, goes through to_dict and from_dict when set.
    """

    n: int
    k: int
    coeffs: np.ndarray
    centers: np.ndarray
    chart: sphere.Chart | None = field(default=None, compare=False)

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) for v in (self.n, self.k)):
            raise ValueError(f"n and k must be integers, got {self.n!r} and {self.k!r}")
        if self.k < 1:
            raise ValueError("degree k must be >= 1")
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if self.centers.shape != (len(self.coeffs), self.n + 1):
            raise ValueError("centers must be sphere points matching coeffs")
        if not (np.isfinite(self.coeffs).all() and np.isfinite(self.centers).all()):
            raise ValueError("coefficients and centers must be finite")
        if np.max(np.abs(np.linalg.norm(self.centers, axis=1) - 1.0)) > 1e-10:
            raise ValueError("centers must be unit vectors")

    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def energy(self) -> int:
        return self.k * (self.n + self.k - 1)

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "k": self.k,
            "terms": [
                {"c": [c.real, c.imag], "p": p.tolist()}
                for c, p in zip(self.coeffs, self.centers)
            ],
        }
        if self.chart is not None:
            d["chart"] = self.chart.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "UltrasphericalSum":
        coeffs = np.array([json_coefficient(t["c"]) for t in d["terms"]])
        centers = np.array([t["p"] for t in d["terms"]])
        chart = sphere.Chart.from_dict(d["chart"]) if "chart" in d else None
        return cls(d["n"], d["k"], coeffs, centers, chart=chart)


def synthesize(s: BesselSum, k: int, chart: sphere.Chart) -> UltrasphericalSum:
    """Map a BesselSum to the degree-k harmonic with centers Psi^{-1}(x_j/k)."""
    if chart.n != s.n:
        raise ValueError("chart dimension must match the Bessel sum")
    if k <= s.radius:
        raise ValueError(f"need k > R = {s.radius} for well-defined centers")
    centers = sphere.chart_to_sphere(chart, s.centers / k)
    return UltrasphericalSum(s.n, k, s.coeffs.copy(), np.atleast_2d(centers), chart=chart)


#: multi_synthesize refuses base points this close to each other or to each other's antipodes.
_MIN_SEPARATION = 1e-6


def multi_synthesize(pairs, k: int) -> UltrasphericalSum:
    """Sum of per-chart syntheses for localization at several base points.

    Base points must be pairwise non-coincident and non-antipodal; with
    separation 2*rho the cross-ball leakage decays like C_rho / k and shows
    up in the per-chart localization reports.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (BesselSum, Chart) pair")
    n = pairs[0][1].n
    for alpha, (_, ca) in enumerate(pairs):
        for _, cb in pairs[alpha + 1 :]:
            d = float(sphere.geodesic_dist(ca.p0, cb.p0))
            if d < _MIN_SEPARATION:
                raise ValueError("coincident base points are not allowed")
            if math.pi - d < _MIN_SEPARATION:
                raise ValueError("antipodal base points are not allowed")
    parts = [synthesize(s, k, c) for s, c in pairs]
    coeffs = np.concatenate([p.coeffs for p in parts])
    centers = np.concatenate([p.centers for p in parts])
    return UltrasphericalSum(n, k, coeffs, centers, chart=pairs[0][1])


def zonal_derivatives(Y: UltrasphericalSum, p, order: int):
    """Ambient derivative tensors [G_0, ..., G_order] of Y at sphere points.

    G_d = kernel_norm(n) sum_j c_j C^{(d)}(p . p_j) p_j^{(x)d} is the d-th
    derivative of x -> sum_j c_j kernel_norm(n) C(x . p_j) on R^{n+1}, with
    shape (M,) + (n+1,)*d + Y.coeffs.shape[1:].  Each order is one real
    matmul of C^{(d)} against a p_j^{(x)d} (x) (Re c, Im c) table, read back
    as complex, so the (points x centers) block is never promoted to complex.
    On S^3 the kernel is specialfn.gegenbauer3_zonal, which reads the points
    and centers themselves (|p - p_j|, or |p + p_j| past a right angle), so no
    p . p_j is formed or clipped; other n take p . p_j, clipped to [-1, 1],
    through the Jacobi recurrence.
    """
    dim, count = Y.n + 1, len(Y)
    c = np.ascontiguousarray(Y.coeffs).reshape(count, 1, -1).view(float)
    tables = [kernel_norm(Y.n) * c]  # (N, dim^d, 2r)
    for _ in range(order):
        tables.append((tables[-1][:, :, None] * Y.centers[:, None, :, None]).reshape(count, -1, c.shape[2]))

    def block(pb):
        if Y.n == 3:
            derivs = gegenbauer3_zonal(Y.k, pb, Y.centers, order)
        else:
            derivs = gegenbauer_cnk_derivatives(Y.n, Y.k, np.clip(pb @ Y.centers.T, -1.0, 1.0), order)
        return [
            (cd @ table.reshape(count, -1)).view(complex).reshape((len(pb),) + (dim,) * d + Y.coeffs.shape[1:])
            for d, (cd, table) in enumerate(zip(derivs, tables))
        ]

    return sphere.eval_rows(block, p, dim, count)


def eval_harmonic(Y: UltrasphericalSum, p):
    """Evaluate Y at sphere points (batched): G_0 of zonal_derivatives."""
    return zonal_derivatives(Y, p, 0)[0]


def eval_harmonic_grad(Y: UltrasphericalSum, p):
    """Tangential gradient of Y in ambient coordinates: G_1 minus its radial part."""
    p = np.asarray(p, dtype=float)
    g = zonal_derivatives(Y, p, 1)[1]
    return g - np.sum(g * p, axis=-1, keepdims=True) * p


def rescaled_pullback(Y: UltrasphericalSum, x, chart: sphere.Chart | None = None):
    """Y(Psi^{-1}(x/k)): the chart-rescaled field compared against phi."""
    c = chart if chart is not None else Y.chart
    if c is None:
        raise ValueError("no chart attached to this harmonic")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return eval_harmonic(Y, sphere.chart_to_sphere(c, x / Y.k))


@functools.lru_cache(maxsize=8)
def _laplace_samples(n: int, samples: int, seed: int):
    """laplace_residual's sample points, and the base points and frames of their charts, as read-only arrays.

    They depend on (n, samples, seed) alone, so a k-sweep builds them once.
    Sample i is a seeded Gaussian direction p_i; its chart is
    sphere.random_chart(n, seed + 1000 + i, p0=p_i), whose base point is p_i
    normalized once more.
    """
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(samples, n + 1))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    charts = [sphere.random_chart(n, seed + 1000 + i, p0=p[i]) for i in range(samples)]
    out = (p, np.stack([c.p0 for c in charts]), np.stack([c.frame for c in charts]))
    for a in out:
        a.flags.writeable = False
    return out


def laplace_residual(
    Y: UltrasphericalSum, samples: int = 64, h: float = 1e-3, seed: int = 0
) -> float:
    """max |Delta_h Y - lambda Y| / (lambda max|Y|) over random sphere points.

    Delta is the positive-spectrum sphere Laplacian and lambda = k(n+k-1) its
    eigenvalue on degree k; at the center of normal coordinates Delta equals
    minus the sum of chart second differences, exactly to O(h^2).  Relative
    to lambda the stencil error is O((kh)^2), so a step h ~ 1/k measures the
    same thing at every degree.  The sample points and their charts do not
    depend on Y or h (_laplace_samples, built once per (n, samples, seed)),
    so a k-sweep builds them once; the 2n stencil points of every sample are
    chart_to_sphere's exponential map, taken at all base points and frames
    in one pass.
    """
    p, p0, frames = _laplace_samples(Y.n, samples, seed)
    x = np.concatenate([h * np.eye(Y.n), -h * np.eye(Y.n)])
    r = np.sqrt(np.einsum("mi,mi->m", x, x))
    stencil = np.cos(r)[:, None] * p0[:, None, :] + (x * (np.sin(r) / r)[:, None]) @ frames
    pts = np.concatenate([p, stencil.reshape(-1, Y.n + 1)])
    vals, stencil = np.split(eval_harmonic(Y, pts), [samples])
    lap = -2.0 * Y.n * vals + stencil.reshape(samples, 2 * Y.n).sum(axis=1)
    resid = np.abs(-lap / (h * h) - Y.energy * vals)
    return float(resid.max() / (Y.energy * np.abs(vals).max()))


@dataclass
class CmErrorReport:
    """Sup-norm finite-difference discrepancies between phi and the pullback."""

    orders: list
    h: float
    k: int
    m: int

    def to_csv_rows(self):
        return [(order, err, self.h, self.k) for order, err in enumerate(self.orders)]


def _stencil_support(mask: np.ndarray, interior: np.ndarray, m: int) -> np.ndarray:
    """Lattice points that the order-m central differences at interior points read.

    interior lives on the lattice core (every point but the outer layer).
    Order 0 reads mask; the first and pure second differences read axis
    neighbours, in mask by definition; the mixed second differences add the
    four diagonal neighbours in each coordinate plane.
    """
    if m < 2:
        return mask
    support = mask.copy()
    c = slice(1, -1)
    for sa in (slice(None, -2), slice(2, None)):
        for sb in (slice(None, -2), slice(2, None)):
            for plane in ((sa, sb, c), (sa, c, sb), (c, sa, sb)):
                support[plane] |= interior
    return support


def _positive_finite(name: str, value) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class LocalizationLattice:
    """The k-independent part of a localization report, built by localization_lattice; its arrays are read-only.

    A lattice of step h pads the ball of radius R by two layers: `axes` are
    its three (equal) axes, `mask` its points in the ball, `interior` the
    core points (every point but the outer layer) whose six axis neighbours
    lie in the ball, and `support` the points the order-m stencils at
    interior points read.  `points` are the support's chart coordinates, in
    its order, and `phi` the field there.
    """

    m: int
    h: float
    axes: tuple
    mask: np.ndarray
    interior: np.ndarray
    support: np.ndarray
    points: np.ndarray
    phi: np.ndarray


def localization_lattice(phi: BesselSum, m: int = 2, *, h: float, radius: float = 1.0) -> LocalizationLattice:
    """The lattice of step h over the ball of the given radius, with phi on its order-m stencil support.

    The support is the ball itself for m <= 1 (the axis neighbours of
    interior points lie in it), plus the diagonal neighbours of interior
    points that the mixed second differences reach for m = 2: about a
    quarter of the padded cube (2457 of 9261 points at h = 0.125, radius 1).
    Where the plane-wave product pays on the lattice
    (helmholtz._grid_rule_degree, the rule of eval_bessel_sum_grid) phi is
    that product on the lattice axes, of which only the support is kept;
    otherwise it is the direct sum at the support's points alone.  None of
    this depends on k, so a k-sweep builds it once.
    """
    if m not in (0, 1, 2):
        raise ValueError(f"m must be 0, 1 or 2, got {m!r}")
    h = _positive_finite("h", h)
    radius = _positive_finite("radius", radius)
    if phi.n != 3:
        raise NotImplementedError("localization reports are implemented for n = 3")

    ax = np.arange(-radius - 2 * h, radius + 2 * h + 1e-12, h)
    flat = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    mask = (np.linalg.norm(flat, axis=1) <= radius).reshape((len(ax),) * 3)
    c, lo, hi = slice(1, -1), slice(None, -2), slice(2, None)
    interior = mask[c, c, c] & mask[hi, c, c] & mask[lo, c, c] & mask[c, hi, c]
    interior &= mask[c, lo, c] & mask[c, c, hi] & mask[c, c, lo]
    if not (interior if m >= 1 else mask).any():
        raise ValueError(
            f"h = {h:g} leaves no {'interior ' if m >= 1 else ''}lattice point "
            f"in the ball of radius {radius:g}; the order-{m} stencils need a smaller h"
        )
    support = _stencil_support(mask, interior, m)
    points = flat[support.ravel()]
    axes = (ax,) * 3
    degree = _grid_rule_degree(phi, axes)
    values = eval_bessel_sum(phi, points) if degree is None else _plane_wave_grid(phi, axes, degree)[support]
    for a in (ax, mask, interior, support, points, values):
        a.flags.writeable = False
    return LocalizationLattice(m, h, axes, mask, interior, support, points, values)


def localization_error(
    lattice: LocalizationLattice, Y: UltrasphericalSum, chart: sphere.Chart | None = None
) -> CmErrorReport:
    """C^j sup discrepancies (j = 0..m) between phi and Y's rescaled pullback, on phi's lattice.

    The lattice (localization_lattice) holds phi on the stencil support; the
    pullback through `chart` (Y's own by default) is evaluated there, the one
    per-k part of the report.  Derivatives are
    helmholtz._central_differences of the difference, read at interior
    points.  Every other lattice point of the difference holds NaN, so a
    stencil that strayed outside the support would make an order non-finite,
    which raises rather than returning a number.
    """
    diff = np.full(lattice.mask.shape, np.nan, dtype=complex)
    diff[lattice.support] = rescaled_pullback(Y, lattice.points, chart) - lattice.phi
    orders = [float(np.abs(diff[lattice.mask]).max())] + [
        float(np.abs(d[..., lattice.interior]).max()) for d in _central_differences(diff, lattice.h, lattice.m)[1:]
    ]
    if not np.all(np.isfinite(orders)):
        raise FloatingPointError(
            f"non-finite C^j discrepancy {orders} at h = {lattice.h:g}: a field is not finite "
            "on the lattice, or a stencil read a point outside its support"
        )
    return CmErrorReport(orders, lattice.h, Y.k, lattice.m)


def multi_localization_reports(pairs, Y: UltrasphericalSum, m: int = 0, h: float = 0.125):
    """Per-chart localization reports against the full multi-ball harmonic.

    Comparing each phi_alpha with the pullback of the complete Y through its
    own chart makes the cross-ball leakage part of the reported error.
    """
    return [localization_error(localization_lattice(s, m, h=h), Y, chart=c) for s, c in pairs]


def decay_profile(n: int, k: int, rho: float) -> float:
    """max |C^n_k(cos t)| over t in [rho, pi - rho] by dense sampling, 12 samples per period."""
    if not 0 < rho < 0.5 * math.pi:
        raise ValueError("need 0 < rho < pi/2")
    period = 2.0 * math.pi / max(k, 1)
    count = max(64, int(12 * (math.pi - 2 * rho) / period))
    t = np.linspace(rho, math.pi - rho, count)
    alpha = 0.5 * n - 1.0
    vals = gegenbauer_ratio(n, k) * jacobi_p(k, alpha, alpha, np.cos(t))
    return float(np.abs(vals).max())
