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

import math
from dataclasses import dataclass, field

import numpy as np

from . import sphere
from .helmholtz import BesselSum, eval_bessel_sum
from .specialfn import gegenbauer_cnk_derivatives, gegenbauer_ratio, jacobi_p

__all__ = [
    "UltrasphericalSum",
    "CmErrorReport",
    "harmonic_space_dim",
    "dirac_multiplicity",
    "spinor_rank",
    "kernel_norm",
    "synthesize",
    "multi_synthesize",
    "zonal_derivatives",
    "eval_harmonic",
    "eval_harmonic_grad",
    "rescaled_pullback",
    "laplace_residual",
    "localization_error",
    "multi_localization_reports",
    "decay_profile",
]


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
    """Y(p) = sum_j c_j * kernel_norm(n) * C^n_k(p . p_j) on S^n in R^{n+1}."""

    n: int
    k: int
    coeffs: np.ndarray
    centers: np.ndarray
    chart: sphere.Chart | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("degree k must be >= 1")
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if self.centers.shape != (len(self.coeffs), self.n + 1):
            raise ValueError("centers must be sphere points matching coeffs")
        if np.max(np.abs(np.linalg.norm(self.centers, axis=1) - 1.0)) > 1e-10:
            raise ValueError("centers must be unit vectors")

    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def energy(self) -> int:
        return self.k * (self.n + self.k - 1)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "terms": [
                {"c": [c.real, c.imag], "p": p.tolist()}
                for c, p in zip(self.coeffs, self.centers)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "UltrasphericalSum":
        coeffs = np.array([complex(t["c"][0], t["c"][1]) for t in d["terms"]])
        centers = np.array([t["p"] for t in d["terms"]])
        return cls(d["n"], d["k"], coeffs, centers)


def synthesize(s: BesselSum, k: int, chart: sphere.Chart) -> UltrasphericalSum:
    """Map a BesselSum to the degree-k harmonic with centers Psi^{-1}(x_j/k)."""
    if chart.n != s.n:
        raise ValueError("chart dimension must match the Bessel sum")
    if k <= s.radius:
        raise ValueError(f"need k > R = {s.radius} for well-defined centers")
    centers = sphere.chart_to_sphere(chart, s.centers / k)
    return UltrasphericalSum(s.n, k, s.coeffs.copy(), np.atleast_2d(centers), chart=chart)


def multi_synthesize(pairs, k: int, min_separation: float = 1e-6) -> UltrasphericalSum:
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
            if d < min_separation:
                raise ValueError("coincident base points are not allowed")
            if math.pi - d < min_separation:
                raise ValueError("antipodal base points are not allowed")
    parts = [synthesize(s, k, c) for s, c in pairs]
    coeffs = np.concatenate([p.coeffs for p in parts])
    centers = np.concatenate([p.centers for p in parts])
    out = UltrasphericalSum(n, k, coeffs, centers, chart=pairs[0][1])
    return out


def zonal_derivatives(Y: UltrasphericalSum, p, order: int):
    """Ambient derivative tensors [G_0, ..., G_order] of Y at sphere points.

    G_d = kernel_norm(n) sum_j c_j C^{(d)}(p . p_j) p_j^{(x)d} is the d-th
    derivative of x -> sum_j c_j kernel_norm(n) C(x . p_j) on R^{n+1}, with
    shape (M,) + (n+1,)*d + Y.coeffs.shape[1:].  Each order is one real
    matmul of C^{(d)} against a p_j^{(x)d} (x) (Re c, Im c) table, read back
    as complex, so the (points x centers) block is never promoted to complex.
    """
    dim, count = Y.n + 1, len(Y)
    c = np.ascontiguousarray(Y.coeffs).reshape(count, 1, -1).view(float)
    tables = [kernel_norm(Y.n) * c]  # (N, dim^d, 2r)
    for _ in range(order):
        tables.append((tables[-1][:, :, None] * Y.centers[:, None, :, None]).reshape(count, -1, c.shape[2]))

    def block(pb):
        derivs = gegenbauer_cnk_derivatives(Y.n, Y.k, np.clip(pb @ Y.centers.T, -1.0, 1.0), order)
        return [
            (cd @ table.reshape(count, -1)).view(complex).reshape((len(pb),) + (dim,) * d + Y.coeffs.shape[1:])
            for d, (cd, table) in enumerate(zip(derivs, tables))
        ]

    return sphere.eval_rows(block, p, dim)


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


def laplace_residual(
    Y: UltrasphericalSum, samples: int = 64, h: float = 1e-3, seed: int = 0
) -> float:
    """max |Delta_h Y - lambda Y| / (lambda max|Y|) over random sphere points.

    Delta is the positive-spectrum sphere Laplacian and lambda = k(n+k-1) its
    eigenvalue on degree k; at the center of normal coordinates Delta equals
    minus the sum of chart second differences, exactly to O(h^2).  Relative
    to lambda the stencil error is O((kh)^2), so a step h ~ 1/k measures the
    same thing at every degree.
    """
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(samples, Y.n + 1))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    offsets = np.concatenate([h * np.eye(Y.n), -h * np.eye(Y.n)])
    charts = [sphere.random_chart(Y.n, seed + 1000 + i, p0=p[i]) for i in range(samples)]
    pts = np.concatenate([p] + [sphere.chart_to_sphere(c, offsets) for c in charts])
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

    def sup(self, order: int) -> float:
        return self.orders[order]

    def to_csv_rows(self):
        return [(order, err, self.h, self.k) for order, err in enumerate(self.orders)]


def _difference_orders(diff: np.ndarray, mask: np.ndarray, h: float, m: int):
    """Sup of |D|, |grad D|, |grad^2 D| on the masked lattice, central stencils."""
    orders = [float(np.abs(diff[mask]).max())]
    interior = mask.copy()
    for axis in range(3):
        interior &= np.roll(mask, 1, axis=axis) & np.roll(mask, -1, axis=axis)
    for axis in range(3):
        sl = [slice(None)] * 3
        sl[axis] = slice(0, 1)
        interior[tuple(sl)] = False
        sl[axis] = slice(-1, None)
        interior[tuple(sl)] = False
    if m >= 1:
        worst = 0.0
        for axis in range(3):
            d1 = (np.roll(diff, -1, axis=axis) - np.roll(diff, 1, axis=axis)) / (2 * h)
            worst = max(worst, float(np.abs(d1[interior]).max()))
        orders.append(worst)
    if m >= 2:
        worst = 0.0
        for a in range(3):
            for b in range(a, 3):
                if a == b:
                    d2 = (
                        np.roll(diff, -1, axis=a) - 2 * diff + np.roll(diff, 1, axis=a)
                    ) / (h * h)
                else:
                    d2 = (
                        np.roll(np.roll(diff, -1, axis=a), -1, axis=b)
                        - np.roll(np.roll(diff, -1, axis=a), 1, axis=b)
                        - np.roll(np.roll(diff, 1, axis=a), -1, axis=b)
                        + np.roll(np.roll(diff, 1, axis=a), 1, axis=b)
                    ) / (4 * h * h)
                worst = max(worst, float(np.abs(d2[interior]).max()))
        orders.append(worst)
    return orders


def localization_error(
    phi: BesselSum,
    Y: UltrasphericalSum,
    m: int = 2,
    h: float | None = None,
    radius: float = 1.0,
    chart: sphere.Chart | None = None,
) -> CmErrorReport:
    """C^j sup discrepancies (j = 0..m) between phi and Y's rescaled pullback.

    Derivatives are central finite differences on a uniform lattice covering
    the ball of the given radius.  With h=None the step is refined until the
    order-m reading moves by less than 10%, so the stencil error stays well
    below the measured discrepancy.
    """
    if m > 2:
        raise ValueError("orders above 2 are not implemented")
    if phi.n != 3:
        raise NotImplementedError("localization reports are implemented for n = 3")

    def measure(step: float) -> CmErrorReport:
        ax = np.arange(-radius - 2 * step, radius + 2 * step + 1e-12, step)
        grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
        flat = grid.reshape(-1, 3)
        mask = (np.linalg.norm(flat, axis=1) <= radius).reshape(grid.shape[:3])
        diff = (
            rescaled_pullback(Y, flat, chart) - eval_bessel_sum(phi, flat)
        ).reshape(grid.shape[:3])
        return CmErrorReport(_difference_orders(diff, mask, step, m), step, Y.k, m)

    if h is not None:
        return measure(h)
    step = radius / 5.0
    report = measure(step)
    for _ in range(3):
        finer = measure(step / 2.0)
        top = max(report.orders[-1], 1e-300)
        if abs(finer.orders[-1] - report.orders[-1]) <= 0.1 * top:
            return finer
        step /= 2.0
        report = finer
    return report


def multi_localization_reports(pairs, Y: UltrasphericalSum, m: int = 0, h: float | None = 0.125):
    """Per-chart localization reports against the full multi-ball harmonic.

    Comparing each phi_alpha with the pullback of the complete Y through its
    own chart makes the cross-ball leakage part of the reported error.
    """
    return [
        localization_error(s, Y, m=m, h=h, chart=c)
        for s, c in pairs
    ]


def decay_profile(n: int, k: int, rho: float, samples_per_period: int = 12) -> float:
    """max |C^n_k(cos t)| over t in [rho, pi - rho] by dense sampling."""
    if not 0 < rho < 0.5 * math.pi:
        raise ValueError("need 0 < rho < pi/2")
    period = 2.0 * math.pi / max(k, 1)
    count = max(64, int(samples_per_period * (math.pi - 2 * rho) / period))
    t = np.linspace(rho, math.pi - rho, count)
    alpha = 0.5 * n - 1.0
    vals = gegenbauer_ratio(n, k) * jacobi_p(k, alpha, alpha, np.cos(t))
    return float(np.abs(vals).max())
