"""Euclidean Helmholtz fields: Herglotz densities, shifted-Bessel sums,
Fourier-Bessel analysis, and collocation design of fields with prescribed
nodal curves.

Conventions.  Delta = sum of second partials, so Helmholtz means
Delta(phi) + phi = 0 (unit frequency).  The Herglotz transform is
phi(x) = integral over S^{n-1} of f(xi) e^{i x.xi} dsigma(xi), and the
plane-wave average of a unit density is the shifted-Bessel kernel:
integral e^{i y.xi} dsigma = (2 pi)^{n/2} J_{n/2-1}(|y|)/|y|^{n/2-1}.

A BesselSum is phi(x) = sum_j c_j J_{n/2-1}(|x-x_j|)/|x-x_j|^{n/2-1}; it is
an exact Helmholtz solution for any coefficients, which is what makes it a
safe synthesis target.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .specialfn import bessel_kernel, gauss_gegenbauer
from .sphere import eval_rows

_TWO_PI = 2.0 * math.pi


class ToleranceError(RuntimeError):
    """Requested tolerance could not be reached; carries the achieved value."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


def sphere_area(n: int) -> float:
    """Surface area of S^{n-1}."""
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def sphere_quadrature(n: int, resolution: int):
    """Quadrature (nodes, weights) on S^{n-1} exact to high polynomial degree.

    Built recursively: uniform on the circle, then Gauss-Gegenbauer in each
    polar angle (weight (1-u^2)^{(n-3)/2}) times the rule one dimension down.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n == 2:
        m = max(8, 4 * resolution)
        ang = _TWO_PI * np.arange(m) / m
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        return nodes, np.full(m, _TWO_PI / m)
    sub_nodes, sub_w = sphere_quadrature(n - 1, resolution)
    u, w = gauss_gegenbauer(resolution, 0.5 * (n - 2))
    s = np.sqrt(1.0 - u * u)
    nodes = np.concatenate(
        [
            np.repeat(u, len(sub_nodes))[:, None],
            (s[:, None, None] * sub_nodes[None, :, :]).reshape(-1, n - 1),
        ],
        axis=1,
    )
    weights = (w[:, None] * sub_w[None, :]).reshape(-1)
    return nodes, weights


@dataclass
class HerglotzDensity:
    """Complex density on S^{n-1} sampled at quadrature nodes."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if np.max(np.abs(np.linalg.norm(self.nodes, axis=1) - 1.0)) > 1e-12:
            raise ValueError("Herglotz nodes must lie on the unit sphere")
        if abs(self.weights.sum() - sphere_area(self.n)) > 1e-8 * sphere_area(self.n):
            raise ValueError("quadrature weights must sum to the sphere area")

    @classmethod
    def from_function(cls, n: int, fn, resolution: int = 24) -> "HerglotzDensity":
        """Sample fn on a quadrature rule of the given polar resolution.

        The rule integrates spherical polynomials of degree ~2*resolution
        exactly, and plane waves e^{i x.xi} to near machine precision while
        |x| stays a factor ~2 below that degree; pick the resolution with
        the largest evaluation radius in mind.
        """
        nodes, weights = sphere_quadrature(n, resolution)
        return cls(n, nodes, weights, np.asarray(fn(nodes), dtype=complex))

    @classmethod
    def constant(cls, n: int, value: complex = 1.0, resolution: int = 24) -> "HerglotzDensity":
        nodes, weights = sphere_quadrature(n, resolution)
        return cls(n, nodes, weights, np.full(len(nodes), value, dtype=complex))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "nodes": self.nodes.tolist(),
            "weights": self.weights.tolist(),
            "values": [[z.real, z.imag] for z in self.values],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HerglotzDensity":
        vals = np.array([complex(a, b) for a, b in d["values"]])
        return cls(d["n"], np.array(d["nodes"]), np.array(d["weights"]), vals)


def eval_herglotz(f: HerglotzDensity, x):
    """Quadrature value of integral f(xi) e^{i x.xi} dsigma(xi)."""
    coef = f.weights * f.values
    return eval_rows(lambda xb: _plane_wave_sum(xb, f.nodes, coef), x, f.n, len(coef))


@dataclass
class BesselSum:
    """phi(x) = sum_j c_j J_{n/2-1}(|x - x_j|) / |x - x_j|^{n/2-1}."""

    n: int
    coeffs: np.ndarray
    centers: np.ndarray
    radius: float
    report: "DiscretizeReport | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if len(self.coeffs) != len(self.centers) or len(self.coeffs) < 1:
            raise ValueError("need N >= 1 coefficient/center pairs")
        if self.centers.shape[1] != self.n:
            raise ValueError("centers must be points in R^n")
        rmax = float(np.max(np.linalg.norm(self.centers, axis=1)))
        if not np.isfinite(self.radius) or self.radius < rmax - 1e-12:
            raise ValueError("radius must be finite and cover all centers")

    def __len__(self) -> int:
        return len(self.coeffs)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"c": [c.real, c.imag], "x": x.tolist()}
                for c, x in zip(self.coeffs, self.centers)
            ],
            "R": self.radius,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BesselSum":
        coeffs = np.array([complex(t["c"][0], t["c"][1]) for t in d["terms"]])
        centers = np.array([t["x"] for t in d["terms"]])
        return cls(d["n"], coeffs, centers, d["R"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "BesselSum":
        return cls.from_dict(json.loads(s))


def _pair_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """|x_i - c_j| as an (N, M) array, built one coordinate plane at a time."""
    dist = np.subtract.outer(x[:, 0], centers[:, 0])
    dist *= dist
    plane = np.empty_like(dist)
    for a in range(1, x.shape[1]):
        np.subtract.outer(x[:, a], centers[:, a], out=plane)
        plane *= plane
        dist += plane
    return np.sqrt(dist, out=dist)


def _kernel_matrix(n: int, x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """bessel_kernel(n, |x_i - c_j|) for point rows x_i and centers c_j."""
    return bessel_kernel(n, _pair_distances(x, centers))


def _real_times_complex(a: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """a @ coeffs for a real array a and complex (N,) or (N, r) coeffs.

    The coefficients' real and imaginary parts form one real table, so a is
    never promoted to complex.
    """
    pair = np.stack([coeffs.real, coeffs.imag], axis=-1).reshape(len(coeffs), -1)
    return (a @ pair).view(complex).reshape(a.shape[:-1] + coeffs.shape[1:])


def _plane_wave_sum(x: np.ndarray, dirs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_q coeffs_q e^{i x.dirs_q} from real cos and sin blocks (16 bytes per pair)."""
    phase = x @ dirs.T
    out = _real_times_complex(np.cos(phase), coeffs)
    out += 1j * _real_times_complex(np.sin(phase, out=phase), coeffs)
    return out


def eval_bessel_sum(s: BesselSum, x):
    return eval_rows(
        lambda xb: _real_times_complex(_kernel_matrix(s.n, xb, s.centers), s.coeffs), x, s.n, len(s)
    )


def eval_bessel_sum_jet(s: BesselSum, x):
    """[value, gradient in C^n] from one pass over the point-center distances.

    The kernel derivative is -r * kernel_{n+2}(r), so the gradient is
    sum_j c_j kernel_{n+2}(r_j) (x_j - x0) - (x - x0) sum_j c_j kernel_{n+2}(r_j)
    about the centers' mean x0: one real matmul against a (c_j, c_j (x_j - x0))
    table, with no (n, rows, centers) array and no rounding that grows with
    the distance of the box from the origin.
    """
    x0 = s.centers.mean(axis=0)
    table = np.concatenate([s.coeffs[:, None], s.coeffs[:, None] * (s.centers - x0)], axis=1)

    def block(xb):
        r = _pair_distances(xb, s.centers)
        moments = _real_times_complex(bessel_kernel(s.n + 2, r), table)
        value = _real_times_complex(bessel_kernel(s.n, r), s.coeffs)
        return [value, moments[:, 1:] - (xb - x0) * moments[:, :1]]

    return eval_rows(block, x, s.n, len(s))


def eval_bessel_sum_grad(s: BesselSum, x):
    """Gradient in C^n; the kernel derivative -r * kernel_{n+2}(r) is smooth at 0."""
    return eval_bessel_sum_jet(s, x)[1]


#: Bound on the plane-wave rule's truncation error per unit of kernel mass
#: sqrt(2/pi) sum_j |c_j|, below the rounding of one double.
_PLANE_WAVE_TAIL = 2.0**-56
#: One node-point term of the product form costs at most 1/8 of a kernel
#: term of the direct sum.  Measured with one BLAS thread on grids of
#: 38 x 38 x 10, 20^3 and 3 x 40 x 40 points and N = 7 to 400 centers, the
#: two took equal time at Q / N between 8 and 40 (lowest for many centers on
#: a thin grid).
_GRID_CROSSOVER = 8


def _plane_waves_pay(nodes: int, centers: int, points: int) -> bool:
    """Whether the product form beats the direct sum on a grid.

    The product form costs N Q density terms plus Q terms per grid point, the
    direct sum N kernel terms per point, so it is chosen when
    N Q + P Q / 8 <= N P, i.e. Q (8 N + P) <= 8 N P.  On large grids this is
    Q <= 8 N; on small ones the density alone outweighs the direct sum.
    """
    return nodes * (_GRID_CROSSOVER * centers + points) <= _GRID_CROSSOVER * centers * points


def _plane_wave_degree(radius: float) -> int:
    """Smallest L with 2 sum_{l>L} (2l+1) radius^l / (2l+1)!! <= 2^-56.

    By the plane-wave expansion e^{i y.xi} = sum_l i^l (2l+1) j_l(|y|) P_l(y.xi/|y|)
    (DLMF 10.60.7) and |j_l(r)| <= r^l / (2l+1)!! (DLMF 10.14.4), a rule on S^2
    exact through degree L and with weights summing to 4 pi integrates
    e^{i y.xi} to 4 pi j0(|y|) within 4 pi times that tail wherever
    |y| <= radius.  The terms peak near l = radius / 2 and fall faster than
    2^-l past l = radius, so they are read in logs from the far end down.
    """
    log_r = math.log(max(radius, 1e-300))

    def term(l):
        log_dfact = math.lgamma(2 * l + 2) - l * math.log(2.0) - math.lgamma(l + 1)
        return math.exp(math.log(2 * l + 1) + l * log_r - log_dfact)

    top = math.ceil(radius) + 1
    while term(top) > 2.0**-40 * _PLANE_WAVE_TAIL:
        top += 1
    tail, degree = 0.0, top
    while degree > 0 and 2.0 * (tail + term(degree)) <= _PLANE_WAVE_TAIL:
        tail += term(degree)
        degree -= 1
    return degree


def _rule_size(degree: int) -> int:
    return (degree // 2 + 1) * (degree + 1)


def _plane_wave_rule(degree: int):
    """Gauss-Legendre x trapezoid rule (nodes, weights) on S^2, exact through `degree`.

    degree // 2 + 1 Legendre nodes in cos(theta) times degree + 1 equispaced
    azimuths (_rule_size(degree) nodes); the weights sum to 4 pi.
    """
    from numpy.polynomial.legendre import leggauss

    u, w = leggauss(degree // 2 + 1)
    phi = _TWO_PI * np.arange(degree + 1) / (degree + 1)
    s = np.sqrt(1.0 - u * u)
    nodes = np.stack(
        [np.outer(s, np.cos(phi)), np.outer(s, np.sin(phi)), np.repeat(u[:, None], len(phi), axis=1)], axis=-1
    )
    return nodes.reshape(-1, 3), np.repeat(w * (_TWO_PI / len(phi)), len(phi))


def _grid_degree(s: BesselSum, axes) -> int:
    """The rule degree for D, the largest distance from a corner of the grid to a center."""
    corners = np.array(list(itertools.product(*((a.min(), a.max()) for a in axes))))
    return _plane_wave_degree(float(_pair_distances(corners, s.centers).max()))


def _plane_wave_grid(s: BesselSum, axes, degree: int) -> np.ndarray:
    """The n = 3 sum on the product grid of three non-empty axes, by the rule of `degree`."""
    nodes, weights = _plane_wave_rule(degree)
    x0 = np.array([0.5 * (a.min() + a.max()) for a in axes])
    density = _plane_wave_sum(nodes, x0 - s.centers, s.coeffs) * (weights / (2.0 * _TWO_PI * _SQRT_PI_2))
    first, second, third = (np.exp(1j * np.outer(a - c, xi)) for a, c, xi in zip(axes, x0, nodes.T))
    first *= density
    third = np.ascontiguousarray(third.T)
    n1 = len(axes[1])

    def block(rows):
        p = rows[:, 0].astype(np.intp)
        return (first[p // n1] * second[p % n1]) @ third

    rows = np.arange(len(axes[0]) * n1, dtype=float)[:, None]
    return eval_rows(block, rows, 1, len(nodes)).reshape(len(axes[0]), n1, len(axes[2]))


def eval_bessel_sum_grid(s: BesselSum, axes):
    """The sum on the product grid axes[0] x axes[1] x axes[2], shape (n0, n1, n2).

    An n = 3 sum is a Herglotz wave: sqrt(2/pi) j0(|y|) is sqrt(2/pi) / (4 pi)
    times the integral of e^{i y.xi} over S^2, so
    phi(x) = sum_q w_q g(xi_q) e^{i xi_q.(x - x0)} with the density
    g(xi) = sqrt(2/pi) / (4 pi) sum_j c_j e^{-i xi.(x_j - x0)}.  Phases are
    taken about the grid centre x0, so a box far from the origin keeps its
    precision.  The rule's degree L is derived, not tuned: _grid_degree takes
    D, the largest distance from a grid corner to a center, and
    _plane_wave_degree the smallest L whose truncation error stays below
    2^-56 sqrt(2/pi) sum_j |c_j| for |x - x_j| <= D.  On the grid each plane
    wave is a product of three 1-D exponential tables, and the sum is one
    complex matmul of (axis-0, axis-1) rows against the axis-2 table, built in
    blocks of at most sphere.PAIR_BLOCK node-row pairs.  When the rule's
    Q nodes, N centers and P grid points give Q (8 N + P) > 8 N P (the
    measured crossover, _plane_waves_pay), and for n != 3, the grid's points
    go through eval_bessel_sum instead.
    """
    axes = [np.asarray(a, dtype=float).ravel() for a in axes]
    if len(axes) != s.n:
        raise ValueError(f"need {s.n} axes, got {len(axes)}")
    shape = tuple(len(a) for a in axes)
    if s.n == 3 and 0 not in shape:
        degree = _grid_degree(s, axes)
        if _plane_waves_pay(_rule_size(degree), len(s), math.prod(shape)):
            return _plane_wave_grid(s, axes, degree)
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, s.n)
    return eval_bessel_sum(s, points).reshape(shape)


def bessel_sum_field(s: BesselSum):
    """The field x -> eval_bessel_sum(s, x) for nodal extraction.

    Its ``jet`` attribute gives the value and the gradient together
    (eval_bessel_sum_jet), so Newton polish and margins need no finite
    differences, and its ``grid`` attribute gives the values on a product
    grid from its axes (eval_bessel_sum_grid).  The attributes live in the
    function's own ``__dict__``, which ``functools.wraps`` copies onto a
    wrapper.
    """

    def field(x):
        return eval_bessel_sum(s, x)

    field.jet = lambda x: eval_bessel_sum_jet(s, x)
    field.grid = lambda axes: eval_bessel_sum_grid(s, axes)
    return field


def helmholtz_residual(fieldfn, box, h: float) -> float:
    """max over an interior grid of |Delta_h(phi) + phi| by 2n+1-point stencil."""
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    n = len(lo)
    axes = [np.arange(lo[d] - h, hi[d] + h + 1e-12, h) for d in range(n)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    shape = grid.shape[:-1]
    vals = np.asarray(fieldfn(grid.reshape(-1, n)), dtype=complex).reshape(shape)
    core = tuple(slice(1, -1) for _ in range(n))
    lap = -2.0 * n * vals[core]
    for d in range(n):
        up = tuple(slice(2, None) if i == d else slice(1, -1) for i in range(n))
        dn = tuple(slice(0, -2) if i == d else slice(1, -1) for i in range(n))
        lap = lap + vals[up] + vals[dn]
    return float(np.max(np.abs(lap / (h * h) + vals[core])))


# ---------------------------------------------------------------------------
# Fourier-Bessel series on the ball B_2 (n = 3 only)
# ---------------------------------------------------------------------------


def real_sph_harm(l: int, m: int, dirs):
    """Real orthonormal spherical harmonics on S^2 (area measure)."""
    from scipy.special import sph_harm_y

    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    theta = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    y = sph_harm_y(l, abs(m), theta, phi)
    if m == 0:
        return y.real
    if m > 0:
        return math.sqrt(2.0) * (-1.0) ** m * y.real
    return math.sqrt(2.0) * (-1.0) ** m * y.imag


@dataclass
class FourierBesselSeries:
    """phi = sum_{l<=L} sum_m b_{lm} j_l(r) Y_{lm}(omega) on B_2, n=3."""

    L: int
    coeffs: dict
    mode_mass: dict = field(default_factory=dict, compare=False)
    flagged: tuple = field(default=(), compare=False)
    l2_error: float = field(default=float("nan"), compare=False)

    def eval(self, x):
        from scipy.special import spherical_jn

        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=1)
        dirs = np.where(r[:, None] > 1e-15, x / np.maximum(r, 1e-15)[:, None], 0.0)
        dirs[r <= 1e-15] = np.array([0.0, 0.0, 1.0])
        out = np.zeros(len(x), dtype=complex)
        for l in range(self.L + 1):
            jl = spherical_jn(l, r)
            for m in range(-l, l + 1):
                b = self.coeffs.get((l, m), 0.0)
                if b != 0.0:
                    out += b * jl * real_sph_harm(l, m, dirs)
        return out


def fourier_bessel_truncate(
    fieldfn, L: int, n_rad: int = 48, resolution: int | None = None
) -> FourierBesselSeries:
    """Project a Helmholtz field on B_2 onto the degree-<=L Fourier-Bessel modes.

    The system {j_l(r) Y_{lm}} is orthogonal in L^2(B_2), so each coefficient
    is a ratio of two quadrature integrals.  Modes whose radial profile has
    numerically negligible mass on [0, 2] (large l) amplify quadrature noise;
    their contribution estimate |num|/sqrt(mass) is compared against a noise
    floor and they are zeroed and flagged instead of being divided out.
    """
    from scipy.special import spherical_jn

    if resolution is None:
        resolution = max(24, 2 * L + 8)
    dirs, w_ang = sphere_quadrature(3, resolution)
    from numpy.polynomial.legendre import leggauss

    u, w = leggauss(n_rad)
    r = 1.0 + u
    w_rad = w * r * r

    vals = np.stack([np.asarray(fieldfn(ri * dirs), dtype=complex) for ri in r])
    coeffs: dict = {}
    mode_mass: dict = {}
    flagged = []
    total = math.sqrt(abs(float(np.sum(w_rad[:, None] * w_ang[None, :] * np.abs(vals) ** 2))))
    floor = 1e-11 * max(total, 1e-30)
    for l in range(L + 1):
        jl = spherical_jn(l, r)
        mass = float(np.sum(w_rad * jl * jl))
        mode_mass[l] = mass
        for m in range(-l, l + 1):
            ylm = real_sph_harm(l, m, dirs)
            ang = vals @ (w_ang * ylm)
            num = complex(np.sum(w_rad * jl * ang))
            contrib = abs(num) / math.sqrt(max(mass, 1e-300))
            if contrib < floor:
                coeffs[(l, m)] = 0.0
                flagged.append((l, m))
                continue
            coeffs[(l, m)] = num / mass

    series = FourierBesselSeries(L, coeffs, mode_mass, tuple(flagged))
    resid = vals - np.stack([series.eval(ri * dirs) for ri in r])
    series.l2_error = math.sqrt(abs(float(np.sum(w_rad[:, None] * w_ang[None, :] * np.abs(resid) ** 2))))
    return series


# ---------------------------------------------------------------------------
# Herglotz discretization: kernel-sum fit on a uniform grid of B_R
# ---------------------------------------------------------------------------


@dataclass
class DiscretizeReport:
    delta: float
    achieved: float
    constant: float
    radius: float
    spacing: float
    n_terms: int


def _ball_grid(radius: float, spacing: float) -> np.ndarray:
    ax = np.arange(-radius, radius + 1e-9, spacing)
    g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    return g[np.linalg.norm(g, axis=1) <= radius + 1e-12]


def _fit_kernel_sum(targetfn, n, radius, spacing, fit_radius, fit_spacing, rcond=1e-9):
    """Least-squares kernel-translate fit of a field on a ball grid.

    Truncated SVD keeps the coefficient mass finite; the near-nullspace of
    overlapping unit-frequency kernels would otherwise absorb arbitrarily
    large cancelling components.
    """
    if n != 3:
        raise NotImplementedError("kernel-sum fitting is implemented for n = 3")
    centers = _ball_grid(radius, spacing)
    fit_pts = _ball_grid(fit_radius, fit_spacing)
    K = _kernel_matrix(n, fit_pts, centers)
    target = np.asarray(targetfn(fit_pts), dtype=complex)
    u, sing, vh = np.linalg.svd(K, full_matrices=False)
    keep = sing > rcond * sing[0]
    coeffs = (vh[keep].conj().T * (1.0 / sing[keep])) @ (u[:, keep].conj().T @ target)
    return BesselSum(n, coeffs, centers, radius)


def herglotz_discretize(
    f: HerglotzDensity,
    delta: float,
    radius: float = 2.5,
    spacing: float | None = None,
    max_terms: int = 4000,
    seed: int = 0,
    check_points: int = 1000,
) -> BesselSum:
    """Approximate the Herglotz field of f by a BesselSum on a grid of B_R.

    Centers sit on a uniform grid of the ball B_R; coefficients come from a
    regularized least-squares fit of field values on B_2.  (A Riemann-sum
    choice of the coefficients from the Fourier transform of a bump-extended
    density also converges, but needs astronomically many cells for useful
    tolerances; the least-squares fit reaches 1e-10 with a few hundred
    centers on the same grid.)  The achieved sup error over seeded check
    points of the unit ball is verified against delta, refining the grid
    once before giving up.
    """
    if f.n != 3:
        raise NotImplementedError("herglotz_discretize is implemented for n = 3")
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(check_points, 3))
    pts *= (rng.uniform(0, 1, check_points) ** (1.0 / 3.0) / np.linalg.norm(pts, axis=1))[:, None]
    reference = eval_herglotz(f, pts)

    spacing = spacing if spacing is not None else radius / 3.6
    attempt = None
    for _ in range(3):
        ncent = len(_ball_grid(radius, spacing))
        if ncent > max_terms:
            break
        attempt = _fit_kernel_sum(
            lambda x: eval_herglotz(f, x), 3, radius, spacing, 1.6, 0.4 * spacing
        )
        achieved = float(np.max(np.abs(eval_bessel_sum(attempt, pts) - reference)))
        attempt.report = DiscretizeReport(
            delta, achieved, achieved / delta, radius, spacing, len(attempt)
        )
        if achieved <= delta:
            return attempt
        spacing *= 0.7
        radius += 0.5
    achieved = attempt.report.achieved if attempt is not None else float("inf")
    raise ToleranceError(
        f"herglotz_discretize reached {achieved:.3e} > delta={delta:.3e} "
        f"within {max_terms} terms",
        achieved,
    )


# ---------------------------------------------------------------------------
# Nodal-curve designers
# ---------------------------------------------------------------------------

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
#: Clifford matrices of the flat Dirac operator D_0 = sum_mu gamma_mu d_mu.
FLAT_GAMMA = tuple(1j * s for s in _SIGMA)


class DesignError(RuntimeError):
    pass


def transported_frame(points: np.ndarray, closed: bool = True):
    """Parallel-transported normal frame (u, v) along a polyline.

    For closed curves the residual holonomy angle is distributed uniformly so
    that the frame (and hence any jet prescribed in it) closes up.
    """
    pts = np.asarray(points, dtype=float)
    S = len(pts)
    if closed:
        tan = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    else:
        tan = np.gradient(pts, axis=0)
    T = tan / np.linalg.norm(tan, axis=1, keepdims=True)
    u = np.zeros((S, 3))
    v = np.zeros((S, 3))
    w = np.array([0.0, 0.0, 1.0])
    if abs(T[0] @ w) > 0.9:
        w = np.array([1.0, 0.0, 0.0])
    u0 = w - (w @ T[0]) * T[0]
    u[0] = u0 / np.linalg.norm(u0)
    v[0] = np.cross(T[0], u[0])
    for s in range(1, S):
        cand = u[s - 1] - (u[s - 1] @ T[s]) * T[s]
        u[s] = cand / np.linalg.norm(cand)
        v[s] = np.cross(T[s], u[s])
    if closed:
        back = u[S - 1] - (u[S - 1] @ T[0]) * T[0]
        back /= np.linalg.norm(back)
        hol = math.atan2(float(np.cross(back, u[0]) @ T[0]), float(back @ u[0]))
        for s in range(S):
            a = hol * s / S
            cu, su = math.cos(a), math.sin(a)
            u[s], v[s] = cu * u[s] + su * v[s], -su * u[s] + cu * v[s]
    return u, v


@dataclass
class PlaneWaveSpinor:
    """Dirac-eigen field phi(x) = sum_q w_q e^{i x.xi_q}, i gamma(xi_q) w_q = w_q."""

    directions: np.ndarray
    spinor_coeffs: np.ndarray

    def component(self, a: int, x) -> np.ndarray:
        w = self.spinor_coeffs[:, a]
        return eval_rows(lambda xb: _plane_wave_sum(xb, self.directions, w), x, 3, len(w))

    def dirac_residual(self, x) -> float:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ph = np.exp(1j * (x @ self.directions.T))
        val = ph @ self.spinor_coeffs
        out = -val
        for mu in range(3):
            gmu = ((1j * self.directions[:, mu])[None, :] * ph) @ self.spinor_coeffs
            out = out + gmu @ FLAT_GAMMA[mu].T
        return float(np.max(np.abs(out)) / np.max(np.abs(val)))


def _fibonacci_sphere(q: int) -> np.ndarray:
    i = np.arange(q) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    ct = 1.0 - 2.0 * i / q
    st = np.sqrt(1.0 - ct * ct)
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)


def _is_closed(curve: np.ndarray) -> bool:
    span = np.linalg.norm(curve.max(axis=0) - curve.min(axis=0))
    return np.linalg.norm(curve[0] - curve[-1]) < 1e-3 * max(span, 1e-12)


#: Radius of the ball on which design_bessel_sum samples conversion_error.
_CONVERSION_CHECK_RADIUS = 1.4


@dataclass
class DesignResult:
    components: dict
    planewave: PlaneWaveSpinor
    curve_residual: dict
    jet_scale: float
    conversion_error: dict


def design_bessel_sum(
    targets,
    n: int = 3,
    budget: int = 240,
    jet_scale: float = 1.0,
    ridge: float = 1e-8,
    convert_radius: float = 2.5,
    convert_spacing: float = 0.55,
    verify_tol: float | None = None,
    grid_h: float = 0.05,
) -> DesignResult:
    """Least-squares collocation of Dirac-eigen plane waves on nodal targets.

    targets is a list of (polyline (S,3), component index in {0,1}); each
    curve contributes zero-value rows plus unit-scale transversality rows
    (prescribed gradients jet_scale and 1j*jet_scale along the transported
    normal frame).  The resulting spinor satisfies D_0 phi = phi exactly;
    each constrained component is then converted to a BesselSum by the
    kernel fit.  With verify_tol set, the extracted nodal curve of each
    converted component must come within that Hausdorff distance of its
    target.  A target vertex outside the ball where conversion_error is
    sampled (radius _CONVERSION_CHECK_RADIUS = 1.4) is refused with a
    DesignError before any solve, since the conversion is not checked there.
    """
    if n != 3:
        raise NotImplementedError("the designer is implemented for n = 3")
    reach = max(float(np.linalg.norm(np.asarray(curve, dtype=float), axis=-1).max()) for curve, _ in targets)
    if reach > _CONVERSION_CHECK_RADIUS:
        raise DesignError(
            f"a target reaches |x| = {reach:.3g}, outside the radius-{_CONVERSION_CHECK_RADIUS} ball "
            f"where the conversion to a Bessel sum (convert_radius={convert_radius}) is checked"
        )
    xis = _fibonacci_sphere(budget)
    gam = np.einsum("qi,iab->qab", xis, np.stack(FLAT_GAMMA))
    proj = 0.5 * (np.eye(2)[None, :, :] + 1j * gam)

    def rows(pts, a, deriv=None):
        ph = np.exp(1j * (pts @ xis.T))
        if deriv is not None:
            ph = (1j * (deriv @ xis.T)) * ph
        return (ph[:, :, None] * proj[None, :, a, :]).reshape(len(pts), -1)

    blocks = []
    rhs = []
    for curve, a in targets:
        curve = np.asarray(curve, dtype=float)
        closed = _is_closed(curve)
        pts = curve[:-1] if closed and np.allclose(curve[0], curve[-1]) else curve
        u, v = transported_frame(pts, closed)
        blocks.append(rows(pts, a))
        rhs.append(np.zeros(len(pts), dtype=complex))
        blocks.append(rows(pts, a, u))
        rhs.append(np.full(len(pts), jet_scale, dtype=complex))
        blocks.append(rows(pts, a, v))
        rhs.append(np.full(len(pts), 1j * jet_scale, dtype=complex))
    amat = np.concatenate(blocks)
    bvec = np.concatenate(rhs)
    gram = amat.conj().T @ amat
    alpha = np.linalg.solve(gram + ridge * np.trace(gram).real / len(gram) * np.eye(len(gram)), amat.conj().T @ bvec)
    wq = np.einsum("qab,qb->qa", proj, alpha.reshape(-1, 2))
    pw = PlaneWaveSpinor(xis, wq)

    curve_residual = {}
    for curve, a in targets:
        curve_residual[a] = float(np.max(np.abs(pw.component(a, np.asarray(curve)))))

    components = {}
    conversion_error = {}
    comp_indices = sorted({a for _, a in targets})
    for a in comp_indices:
        bsum = _fit_kernel_sum(
            lambda x: pw.component(a, x), 3, convert_radius, convert_spacing,
            1.6, 0.4 * convert_spacing,
        )
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(400, 3))
        radii = _CONVERSION_CHECK_RADIUS * rng.uniform(0, 1, 400) ** (1.0 / 3.0)
        pts *= (radii / np.linalg.norm(pts, axis=1))[:, None]
        conversion_error[a] = float(
            np.max(np.abs(eval_bessel_sum(bsum, pts) - pw.component(a, pts)))
        )
        components[a] = bsum

    result = DesignResult(components, pw, curve_residual, jet_scale, conversion_error)
    if verify_tol is not None:
        from . import nodal

        for curve, a in targets:
            curve = np.asarray(curve, dtype=float)
            lo = curve.min(axis=0) - 0.3
            hi = curve.max(axis=0) + 0.3
            extracted = nodal.extract_nodal(bessel_sum_field(components[a]), (lo, hi), grid_h)
            dists = [
                nodal.hausdorff_dist(c.vertices, curve) for c in extracted.curves
            ]
            if not dists or min(dists) > verify_tol:
                raise DesignError(
                    f"component {a}: extracted nodal set misses its target "
                    f"(best Hausdorff {min(dists) if dists else float('inf'):.4f} "
                    f"> {verify_tol})"
                )
    return result


# ---------------------------------------------------------------------------
# Closed-form Hopf-pair design from j = 1/2 spherical spinors
# ---------------------------------------------------------------------------


_SQRT_PI_2 = math.sqrt(0.5 * math.pi)


def _spherical_j01(r):
    """Spherical Bessel j0(r) = sin(r)/r and j1(r) = (sin r - r cos r)/r^2.

    Read from the n = 3 and n = 5 plane-wave kernels, which are sqrt(2/pi)
    times j0(r) and j1(r)/r, so below r = 1/2 their power series is used.
    """
    return _SQRT_PI_2 * bessel_kernel(3, r), _SQRT_PI_2 * r * bessel_kernel(5, r)


@dataclass
class HopfPairDesign:
    """Dirac-eigen pair whose component nodal curves form a Hopf link.

    The field is Phi_up + i*beta*Phi_down, where Phi_s are the two regular
    total-angular-momentum-1/2 solutions of D_0 phi = phi built from j0, j1.
    Component 1 vanishes on a closed near-circle of radius ~pi in the plane
    z = -beta*y; component 2 on a closed loop hugging the axis and the first
    j1 sphere in the plane y = beta*z; the two link exactly once.  Both
    components are shipped as kernel-dipole BesselSums on 7 shared centers.
    """

    beta: float
    eps: float
    components: dict
    targets: dict
    boxes: dict = field(default_factory=dict)

    def _radial_parts(self, a: int, x):
        """x, r, j0(r), j1(r)/r and the component's form alpha j0 + (j1/r) v.x as (alpha, v)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.maximum(np.linalg.norm(x, axis=1), 1e-12)
        j0, j1 = _spherical_j01(r)
        b = self.beta
        alpha, v = (1.0, np.array([b, -1j * b, -1j])) if a == 0 else (1j * b, np.array([-1j, 1.0, -b]))
        return x, r, j0, j1 / r, alpha, v

    def exact_component(self, a: int, x) -> np.ndarray:
        x, _, j0, j1_r, alpha, v = self._radial_parts(a, x)
        return alpha * j0 + j1_r * (x @ v)

    def exact_jet(self, a: int, x):
        """[value, gradient in C^3] of exact_component in closed form.

        With j0' = -j1 and j1' = j0 - 2 j1 / r, the gradient of
        alpha j0 + (j1/r) v.x is -alpha j1 x/r + (j1/r)' (v.x) x/r + (j1/r) v
        with (j1/r)' = (j0 - 3 j1/r) / r; that quotient loses digits as
        r -> 0, but it is multiplied by v.x = O(r).
        """
        x, r, j0, j1_r, alpha, v = self._radial_parts(a, x)
        vx = x @ v
        radial = ((j0 - 3.0 * j1_r) / r * vx - alpha * j1_r * r) / r
        return [alpha * j0 + j1_r * vx, radial[:, None] * x + j1_r[:, None] * v]

    def exact_field(self, a: int):
        """x -> exact_component(a, x) for nodal extraction, with exact_jet as its ``jet``."""

        def field(x):
            return self.exact_component(a, x)

        field.jet = lambda x: self.exact_jet(a, x)
        return field


def hopf_link_design(beta: float = 0.35, eps: float = 0.1, target_h: float = 0.2) -> HopfPairDesign:
    """Build the closed-form Hopf-pair eigenfield and extract its target curves."""
    sq = math.sqrt(math.pi / 2.0)
    e = np.eye(3) * eps
    centers = np.array([np.zeros(3), -e[2], e[2], -e[0], e[0], -e[1], e[1]])
    base = np.zeros(7, dtype=complex)
    base[0] = 1.0
    dz = np.array([0, 1, -1, 0, 0, 0, 0], dtype=complex) / (2 * eps)
    dx = np.array([0, 0, 0, 1, -1, 0, 0], dtype=complex) / (2 * eps)
    dy = np.array([0, 0, 0, 0, 0, 1, -1], dtype=complex) / (2 * eps)
    up1 = sq * (base + 1j * dz)
    up2 = sq * 1j * (dx + 1j * dy)
    dn1 = sq * 1j * (dx - 1j * dy)
    dn2 = sq * (base - 1j * dz)
    radius = math.sqrt(3.0) * eps + 1e-9
    comp = {
        0: BesselSum(3, up1 + 1j * beta * dn1, centers, radius),
        1: BesselSum(3, up2 + 1j * beta * dn2, centers, radius),
    }
    boxes = {
        0: (np.array([-3.8, -3.8, -1.9]), np.array([3.8, 3.8, 1.9])),
        1: (np.array([-4.8, -1.9, -3.9]), np.array([1.6, 1.9, 3.9])),
    }
    design = HopfPairDesign(beta, eps, comp, {}, boxes)

    from . import nodal

    for a in (0, 1):
        curves = nodal.extract_nodal(design.exact_field(a), boxes[a], target_h)
        closed = [c for c in curves.curves if c.closed]
        if not closed:
            raise DesignError("hopf_link_design: expected a closed nodal curve")
        design.targets[a] = max(closed, key=lambda c: len(c.vertices))
    return design
