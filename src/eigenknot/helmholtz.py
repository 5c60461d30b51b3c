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

from . import sphere
from .specialfn import bessel_kernel, gauss_gegenbauer, sincos, squared_pair_distances
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
    polar = np.repeat(u, len(sub_nodes))[:, None]
    nodes = np.concatenate([polar, (s[:, None, None] * sub_nodes[None, :, :]).reshape(-1, n - 1)], axis=1)
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


def eval_herglotz(f: HerglotzDensity, x):
    """Quadrature value of integral f(xi) e^{i x.xi} dsigma(xi)."""
    coef = f.weights * f.values
    return eval_rows(lambda xb: _plane_wave_sum(xb, f.nodes, coef), x, f.n, len(coef))


def json_coefficient(c) -> complex:
    """A term's "c", the pair [re, im] of a file: exactly two real numbers, neither a bool."""
    real = lambda v: isinstance(v, (int, float)) and type(v) is not bool
    if not (isinstance(c, list) and len(c) == 2 and real(c[0]) and real(c[1])):
        raise ValueError(f"a coefficient must be two real numbers [re, im], got {c!r}")
    return complex(c[0], c[1])


@dataclass
class BesselSum:
    """phi(x) = sum_j c_j J_{n/2-1}(|x - x_j|) / |x - x_j|^{n/2-1}."""

    n: int
    coeffs: np.ndarray
    centers: np.ndarray
    radius: float
    report: "DiscretizeReport | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"dimension n must be an integer, got {self.n!r}")
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if len(self.coeffs) != len(self.centers) or len(self.coeffs) < 1:
            raise ValueError("need N >= 1 coefficient/center pairs")
        if self.centers.shape[1] != self.n:
            raise ValueError("centers must be points in R^n")
        if not (np.isfinite(self.coeffs).all() and np.isfinite(self.centers).all()):
            raise ValueError("coefficients and centers must be finite")
        rmax = float(np.max(np.linalg.norm(self.centers, axis=1)))
        if not np.isfinite(self.radius) or self.radius < rmax - 1e-12:
            raise ValueError("radius must be finite and cover all centers")

    def __len__(self) -> int:
        return len(self.coeffs)

    def to_dict(self) -> dict:
        terms = [{"c": [c.real, c.imag], "x": x.tolist()} for c, x in zip(self.coeffs, self.centers)]
        return {"n": self.n, "terms": terms, "R": self.radius}

    @classmethod
    def from_dict(cls, d: dict) -> "BesselSum":
        coeffs = np.array([json_coefficient(t["c"]) for t in d["terms"]])
        centers = np.array([t["x"] for t in d["terms"]])
        return cls(d["n"], coeffs, centers, d["R"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _real_times_complex(a: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """a @ coeffs for a real array a and complex (N,) or (N, r) coeffs.

    The coefficients' real and imaginary parts form one real table, so a is
    never promoted to complex.
    """
    pair = np.stack([coeffs.real, coeffs.imag], axis=-1).reshape(len(coeffs), -1)
    return (a @ pair).view(complex).reshape(a.shape[:-1] + coeffs.shape[1:])


def _plane_wave_sum(x: np.ndarray, dirs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_q coeffs_q e^{i x.dirs_q} from real cos and sin blocks (16 bytes per pair)."""
    sin, cos = sincos(x @ dirs.T)
    out = _real_times_complex(cos, coeffs)
    out += 1j * _real_times_complex(sin, coeffs)
    return out


def eval_bessel_sum(s: BesselSum, x):
    def block(xb):
        r = squared_pair_distances(xb, s.centers)
        return _real_times_complex(bessel_kernel(s.n, np.sqrt(r, out=r)), s.coeffs)

    return eval_rows(block, x, s.n, len(s))


def eval_bessel_sum_jet(s: BesselSum, x):
    """[value, gradient in C^n] from one pass over the point-center distances.

    One bessel_kernel call per row block gives the value kernel and, from
    the same radii, kernel_{n+2}: at n = 3 both from one sincos.  The
    kernel derivative is -r * kernel_{n+2}(r), so the gradient is
    sum_j c_j kernel_{n+2}(r_j) (x_j - x0) - (x - x0) sum_j c_j kernel_{n+2}(r_j)
    about the centers' mean x0: one real matmul against a (c_j, c_j (x_j - x0))
    table, with no (n, rows, centers) array and no rounding that grows with
    the distance of the box from the origin.
    """
    x0 = s.centers.mean(axis=0)
    table = np.concatenate([s.coeffs[:, None], s.coeffs[:, None] * (s.centers - x0)], axis=1)

    def block(xb):
        r = squared_pair_distances(xb, s.centers)
        kernel, moment_kernel = bessel_kernel((s.n, s.n + 2), np.sqrt(r, out=r))
        moments = _real_times_complex(moment_kernel, table)
        value = _real_times_complex(kernel, s.coeffs)
        return [value, moments[:, 1:] - (xb - x0) * moments[:, :1]]

    return eval_rows(block, x, s.n, len(s))


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
    2^-l past l = radius; _beyond sums them from the far end down.
    """
    beyond = _beyond(4 * math.ceil(radius) + 40, math.log(max(radius, 1e-300)))[0]
    return int(np.argmax(2.0 * beyond <= _PLANE_WAVE_TAIL))


def _beyond(count: int, log_x: float, log_y: float | None = None) -> np.ndarray:
    """Tails of the plane-wave and kernel bound series over degrees l < count.

    Row 0 holds sum_{j>l} (2j+1) x^j / (2j+1)!! at column l; given log_y, row 1
    holds sum_{j>l} (2j+1) y^j / ((2j+1)!!)^2 / sqrt(pi/2).  Each sum adds the
    small terms first.
    """
    l = np.arange(count)
    log_dfact = np.cumsum(np.log(2 * l + 1.0))
    base = np.log(2 * l + 1) - log_dfact
    terms = np.exp([base + l * log_x] + ([] if log_y is None else [base + l * log_y - log_dfact]))
    terms[1:] /= _SQRT_PI_2
    return np.cumsum(terms[:, :0:-1], axis=1)[:, ::-1]


def _rule_size(degree: int) -> int:
    return (degree // 2 + 1) * (degree + 1)


def _plane_wave_rule(degree: int):
    """Gauss-Legendre x trapezoid rule (nodes, weights) on S^2, exact through `degree`.

    degree // 2 + 1 Legendre nodes in cos(theta) times degree + 1 equispaced
    azimuths (_rule_size(degree) nodes); the weights sum to 4 pi.  The
    Legendre rule is gauss_gegenbauer at alpha = 1/2: within 2e-16 of a
    40-digit rule up to 60 nodes, where numpy's leggauss is off by up to
    3.6e-15 in its weights, and it does not load numpy.polynomial (about
    1 MiB of resident modules).
    """
    u, w = gauss_gegenbauer(degree // 2 + 1, 0.5)
    phi = _TWO_PI * np.arange(degree + 1) / (degree + 1)
    s = np.sqrt(1.0 - u * u)
    nodes = np.stack(
        [np.outer(s, np.cos(phi)), np.outer(s, np.sin(phi)), np.repeat(u[:, None], len(phi), axis=1)], axis=-1
    )
    return nodes.reshape(-1, 3), np.repeat(w * (_TWO_PI / len(phi)), len(phi))


def _grid_degree(s: BesselSum, axes) -> int:
    """The rule degree for D, the largest distance from a corner of the grid to a center."""
    corners = np.array(list(itertools.product(*((a.min(), a.max()) for a in axes))))
    return _plane_wave_degree(math.sqrt(float(squared_pair_distances(corners, s.centers).max())))


def _grid_centre(axes) -> np.ndarray:
    """The centre of the box spanned by three axes: product grids take their phases about it."""
    return np.array([0.5 * (a.min() + a.max()) for a in axes])


def _exp_table(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """e^{i x_m y_n} as an (M, N) complex table.

    cos and sin (sincos) are copied straight into its real and imaginary
    parts; the complex temporaries of np.exp(1j * phase) raised verify_sweep's
    peak RSS by about 0.5 MiB.
    """
    sin, cos = sincos(np.multiply.outer(x, y))
    table = np.empty(sin.shape, dtype=complex)
    table.real = cos
    table.imag = sin
    return table


def _plane_wave_product(dirs: np.ndarray, amps: np.ndarray, axes) -> np.ndarray:
    """sum_q amps_q e^{i dirs_q.(x - x0)} on axes[0] x axes[1] x axes[2], x0 = _grid_centre(axes).

    Each wave is a product of three 1-D tables e^{i dirs_q,a (x_a - x0_a)}, so
    for each axis-0 point the sum is one complex matmul of rows against the
    axis-2 table, a row being the amplitude-weighted axis-0 table row times
    an axis-1 row.  The rows are multiplied in place into one buffer of at
    most sphere.block_rows(2 Q) rows, so it holds at most sphere.PAIR_BLOCK
    doubles.  Returns shape (n0, n1, n2); every axis needs at least one point.
    """
    x0 = _grid_centre(axes)
    first, second = (_exp_table(a - c, xi) for a, c, xi in zip(axes[:2], x0, dirs.T))
    first *= amps
    third = _exp_table(dirs[:, 2], axes[2] - x0[2])
    n0, n1, n2 = (len(a) for a in axes)
    step = sphere.block_rows(2 * len(dirs))
    buf = np.empty((min(step, n1), len(dirs)), dtype=complex)
    out = np.empty((n0, n1, n2), dtype=complex)
    for i in range(n0):
        for lo in range(0, n1, step):
            rows = buf[: min(step, n1 - lo)]
            np.multiply(second[lo : lo + len(rows)], first[i], out=rows)
            np.matmul(rows, third, out=out[i, lo : lo + len(rows)])
    return out


def _plane_wave_grid(s: BesselSum, axes, degree: int) -> np.ndarray:
    """The n = 3 sum on the product grid of three non-empty axes, by the rule of `degree`."""
    nodes, weights = _plane_wave_rule(degree)
    density = _plane_wave_sum(nodes, _grid_centre(axes) - s.centers, s.coeffs)
    density *= weights / (2.0 * _TWO_PI * _SQRT_PI_2)
    return _plane_wave_product(nodes, density, axes)


def _grid_rule_degree(s: BesselSum, axes):
    """The rule's degree when the plane-wave product pays on the grid of `axes` (_plane_waves_pay), else None.

    None also for n != 3 and for a grid with an empty axis: those go through
    eval_bessel_sum.
    """
    shape = tuple(len(a) for a in axes)
    if s.n != 3 or 0 in shape:
        return None
    degree = _grid_degree(s, axes)
    return degree if _plane_waves_pay(_rule_size(degree), len(s), math.prod(shape)) else None


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
    wave is a product of three 1-D exponential tables, and the sum is a
    complex matmul of rows against the axis-2 table for each axis-0 point
    (_plane_wave_product).  When the rule's Q nodes, N centers and P grid
    points give Q (8 N + P) > 8 N P (the measured crossover,
    _plane_waves_pay), and for n != 3, the grid's points go through
    eval_bessel_sum instead.
    """
    axes = [np.asarray(a, dtype=float).ravel() for a in axes]
    if len(axes) != s.n:
        raise ValueError(f"need {s.n} axes, got {len(axes)}")
    degree = _grid_rule_degree(s, axes)
    if degree is not None:
        return _plane_wave_grid(s, axes, degree)
    shape = tuple(len(a) for a in axes)
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


def _central_differences(vals: np.ndarray, h: float, m: int):
    """[v, D1, D2] through order m on the lattice core (every point but the outer layer).

    D1 (n, *core) holds (v+ - v-) / (2h) along each axis; D2 (n, n, *core)
    holds (v+ - 2v + v-) / (h h) on its diagonal and
    (v++ - v+- - v-+ + v--) / (4h h) off it, the same array at [a, b] and
    [b, a].  Each neighbour is a slice of vals, so nothing is copied whole.
    """
    n, e = vals.ndim, np.eye(vals.ndim, dtype=int)
    v = vals[(slice(1, -1),) * n]

    def at(step):
        return vals[tuple(slice(1 + s, size - 1 + s) for s, size in zip(step, vals.shape))]

    out = [v]
    if m >= 1:
        out.append(np.stack([(at(e[a]) - at(-e[a])) / (2 * h) for a in range(n)]))
    if m >= 2:
        d2 = np.empty((n, n) + v.shape, dtype=np.result_type(vals, h))
        for a in range(n):
            d2[a, a] = (at(e[a]) - 2 * v + at(-e[a])) / (h * h)
            for b in range(a + 1, n):
                d2[a, b] = d2[b, a] = (
                    at(e[a] + e[b]) - at(e[a] - e[b]) - at(e[b] - e[a]) + at(-e[a] - e[b])
                ) / (4 * h * h)
        out.append(d2)
    return out


def lattice_stencils(fieldfn, box, h: float):
    """(phi, its central first differences, its 2n+1-point Laplacian) on the box's lattice of step h.

    fieldfn is called once, on that lattice padded by one step; the
    differences stack on a leading axis of length n, and the Laplacian is
    the trace of _central_differences' second differences, summed in axis
    order.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"lattice step h must be finite and positive, got {h!r}")
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    if not np.all(hi > lo):
        raise ValueError(f"box must have hi > lo on every axis, got lo {lo.tolist()} and hi {hi.tolist()}")
    axes = [np.arange(a - h, b + h + 1e-12, h) for a, b in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = np.asarray(fieldfn(grid.reshape(-1, len(axes))), dtype=complex).reshape(grid.shape[:-1])
    v, d1, d2 = _central_differences(vals, h, 2)
    return v, d1, sum((d2[a, a] for a in range(1, len(axes))), d2[0, 0])


def helmholtz_residual(fieldfn, box, h: float) -> float:
    """max over the box's lattice of |Delta_h(phi) + phi| by 2n+1-point stencil."""
    vals, _, lap = lattice_stencils(fieldfn, box, h)
    return float(np.max(np.abs(lap + vals)))


# ---------------------------------------------------------------------------
# Fourier-Bessel series on the ball B_2 (n = 3 only)
# ---------------------------------------------------------------------------


def _degrees(L: int) -> np.ndarray:
    """The degree l of each mode (l, m), l <= L, at index l^2 + l + m."""
    return np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)


def real_sph_harm(L: int, x) -> np.ndarray:
    """Real orthonormal spherical harmonics (area measure) of x/|x| for every l <= L.

    Returns shape (len(x), (L+1)^2), mode (l, m) in column l^2 + l + m:
    P_l|m|(cos theta) times cos(m phi) for m >= 0 and sin(|m| phi) for m < 0,
    sqrt(2) (-1)^m times the real or imaginary part of the complex Y_l^|m|.
    The unit-norm P_lm (no Condon-Shortley phase) come from the recurrences
    of Holmes & Featherstone (J. Geodesy 76 (2002) 279), P_mm from P_m-1,m-1
    and P_lm from P_l-1,m and P_l-2,m, one degree at a time over every order.
    The origin reads as the north pole.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(x, axis=1)
    safe = np.where(r > 0, r, 1.0)
    t, u = np.where(r > 0, x[:, 2] / safe, 1.0), np.hypot(x[:, 0], x[:, 1]) / safe
    m = np.arange(L + 1)
    phase = np.multiply.outer(m, np.arctan2(x[:, 1], x[:, 0]))
    cos_m, sin_m = np.cos(phase), np.sin(phase)
    # modes on the first axis, so each degree writes whole rows
    out = np.empty(((L + 1) ** 2, len(x)))
    prev, cur = np.zeros((2, L + 1, len(x)))
    cur[0] = 1.0 / math.sqrt(4.0 * math.pi)
    for l in range(L + 1):
        if l:
            prev, cur = cur, prev
            k = m[: l - 1, None]
            cur[: l - 1] *= -np.sqrt((2 * l + 1) * (l + k - 1) * (l - k - 1) / ((l - k) * (l + k) * (2 * l - 3.0)))
            cur[: l - 1] += np.sqrt((2 * l - 1) * (2 * l + 1) / ((l - k) * (l + k))) * t * prev[: l - 1]
            cur[l - 1] = math.sqrt(2 * l + 1) * t * prev[l - 1]
            cur[l] = math.sqrt((2 * l + 1) / (2 * l) * (2.0 if l == 1 else 1.0)) * u * prev[l - 1]
        c = l * l + l
        out[c : c + l + 1] = cur[: l + 1] * cos_m[: l + 1]
        out[c - l : c] = cur[l:0:-1] * sin_m[l:0:-1]
    return out.T


def _radial(L: int, r) -> np.ndarray:
    """j_l(r) for each mode (l, m), l <= L, shape (len(r), (L+1)^2).

    Miller's backward recurrence (DLMF 3.6(iii)) from 0 and 1 at degrees
    N+1 and N, rescaled as it grows, normalized by j_0 or j_1, whichever is
    larger.  Past l = r the unwanted solution falls like
    exp(-1.9 (l - r)^1.5 / sqrt(r)) (Debye), so N = max(L, r) + 8 + 8 r^(1/3)
    starts it below 1e-18.  Below r = 1e-5 two terms of the power series are
    exact, and j_l(0) = delta_l0.
    """
    r = np.asarray(r, dtype=float).ravel()
    degrees = np.arange(L + 1)
    out = np.empty((len(r), L + 1))
    small = r < 1e-5
    rs = r[small, None]
    out[small] = rs**degrees / np.cumprod(2 * degrees + 1.0) * (1.0 - rs * rs / (4 * degrees + 6))
    x = r[~small]
    top = max(L, math.ceil(x.max(initial=0.0))) + 8 + math.ceil(8 * x.max(initial=0.0) ** (1 / 3))
    vals = np.empty((max(L, 1) + 1, len(x)))
    above, cur = np.zeros(len(x)), np.ones(len(x))
    for l in range(top, 0, -1):
        above, cur = cur, (2 * l + 1) / x * cur - above
        if l <= len(vals):
            vals[l - 1] = cur
        big = np.abs(cur) > 1e250
        if big.any():
            above[big] *= 1e-250
            cur[big] *= 1e-250
            vals[l - 1 :, big] *= 1e-250
    j0 = np.sin(x) / x
    j1 = (j0 - np.cos(x)) / x
    first = np.abs(j0) >= np.abs(j1)
    out[~small] = (vals[: L + 1] * (np.where(first, j0, j1) / np.where(first, vals[0], vals[1]))).T
    return out[:, _degrees(L)]


def _plane_wave_modes(dirs: np.ndarray, amps: np.ndarray, L: int) -> np.ndarray:
    """b_lm = 4 pi i^l sum_q amps_q Y_lm(dirs_q), l <= L, for amps (Q,) or (Q, r), with no complex harmonic table."""
    i_to_l = np.array([1.0, 1.0j, -1.0, -1.0j])[_degrees(L) % 4]
    return 4.0 * math.pi * (_real_times_complex(real_sph_harm(L, dirs).T, amps).T * i_to_l).T


def _kernel_modes(centers: np.ndarray, L: int) -> np.ndarray:
    """The real ((L+1)^2, N) table 4 pi sqrt(2/pi) j_l(|x_j|) Y_lm(x_j^) of the n = 3 kernels at x_j."""
    table = _radial(L, np.linalg.norm(centers, axis=1)) * real_sph_harm(L, centers)
    return (4.0 * math.pi / _SQRT_PI_2) * table.T


@dataclass
class FourierBesselSeries:
    """phi(x) = sum_{l<=L} sum_m b_lm j_l(|x|) Y_lm(x/|x|), n = 3.

    coeffs holds b_lm at index l^2 + l + m, for every l <= L.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex).ravel()
        if math.isqrt(len(self.coeffs)) ** 2 != len(self.coeffs) or not len(self.coeffs):
            raise ValueError(f"need (L+1)^2 coefficients, got {len(self.coeffs)}")

    @property
    def L(self) -> int:
        return math.isqrt(len(self.coeffs)) - 1

    def eval(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        modes = _radial(self.L, np.linalg.norm(x, axis=1)) * real_sph_harm(self.L, x)
        return modes @ self.coeffs


def fourier_bessel_truncate(source, L: int) -> FourierBesselSeries:
    """The degree-<=L Fourier-Bessel modes of an n = 3 HerglotzDensity or BesselSum.

    Both are closed forms, one matmul against a table of real_sph_harm.  The
    plane-wave expansion (DLMF 10.60.7) with the addition theorem (DLMF
    14.30.9) reads e^{i x.xi} = 4 pi sum_lm i^l j_l(|x|) Y_lm(x^) Y_lm(xi), so a
    density f has b_lm = 4 pi i^l sum_q w_q f(xi_q) Y_lm(xi_q).  The
    addition theorem for j_0 (DLMF 10.60.2) reads
    j_0(|x - y|) = 4 pi sum_lm j_l(|x|) j_l(|y|) Y_lm(x^) Y_lm(y^), and the
    n = 3 kernel is sqrt(2/pi) j_0, so a Bessel sum has
    b_lm = 4 pi sqrt(2/pi) sum_j c_j j_l(|x_j|) Y_lm(x_j^).  As
    |j_l(r)| <= r^l / (2l+1)!! (DLMF 10.14.4), a density's degree-l modes are
    at most (2l+1) 2^l / (2l+1)!! times sum_q |w_q f(xi_q)| on B_2.
    """
    if not isinstance(source, (HerglotzDensity, BesselSum)):
        raise TypeError(f"need a HerglotzDensity or a BesselSum, got {type(source).__name__}")
    if source.n != 3:
        raise ValueError(f"Fourier-Bessel series are implemented for n = 3, got n = {source.n}")
    if isinstance(source, HerglotzDensity):
        coeffs = _plane_wave_modes(source.nodes, source.weights * source.values, L)
    else:
        coeffs = _real_times_complex(_kernel_modes(source.centers, L), source.coeffs)
    return FourierBesselSeries(coeffs)


# ---------------------------------------------------------------------------
# Herglotz discretization: kernel-sum fit in Fourier-Bessel coefficient space
# ---------------------------------------------------------------------------


@dataclass
class DiscretizeReport:
    """The sampled sup error `achieved` = constant * delta next to the fit's bound, degree and SVD rank."""

    achieved: float
    constant: float
    radius: float
    spacing: float
    bound: float
    degree: int
    rank: int


def _ball_grid(radius: float, spacing: float) -> np.ndarray:
    """The points of the cube lattice on [-radius, radius]^3 at `spacing` that lie in the closed ball of `radius`."""
    ax = np.arange(-radius, radius + 1e-9, spacing)
    g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    return g[np.linalg.norm(g, axis=1) <= radius + 1e-12]


#: The kernel fit bounds its error on the ball of this radius.
_FIT_RADIUS = 1.6
#: Singular values below this fraction of the largest are dropped from the fit,
#: and its degree leaves tails below this fraction of the amplitude mass.
_FIT_RCOND = 1e-9


def _fit_degree(radius: float, reach: float):
    """(L, target tail, kernel tail) of the fit on the ball of `radius`, centers within `reach`.

    By DLMF 10.60.7, 10.60.2 and |j_l(r)| <= r^l / (2l+1)!! (10.14.4), the
    degree-l terms are at most (2l+1) radius^l / (2l+1)!! per unit of
    amplitude mass and sqrt(2/pi) (2l+1) (radius reach)^l / ((2l+1)!!)^2 per
    unit of coefficient mass.  L is the least degree whose tails sum below _FIT_RCOND.
    """
    count = 4 * math.ceil(radius * max(reach, 1.0)) + 40
    beyond = _beyond(count, math.log(radius), math.log(max(radius * reach, 1e-300)))
    degree = int(np.argmax(beyond.sum(axis=0) <= _FIT_RCOND))
    return degree, float(beyond[0, degree]), float(beyond[1, degree])


def _fit_kernel_sum(dirs, amps, radius, spacing):
    """Fit of plane-wave sums sum_q amps_q e^{i dirs_q.x}, one per column of amps, by kernel translates.

    Centers fill the ball of `radius` at `spacing`.  Both sides are read as
    closed-form Fourier-Bessel modes (fourier_bessel_truncate) of degree
    l <= L (_fit_degree), each row weighted by
    w_l = max_{r <= _FIT_RADIUS} |j_l(r)| sqrt((2l+1) / (4 pi)), so by the
    addition theorem sum_l w_l ||Delta b_l|| bounds the sup error of those
    degrees on the ball of _FIT_RADIUS.  One truncated SVD factors the
    weighted kernel matrix, and each column is one solve; the truncation
    keeps the coefficient mass finite (Barnett & Betcke, J. Comput. Phys. 227
    (2008) 7003).  Returns (sums, bounds, L, rank): per column a BesselSum
    and that bound plus the tails past L, times sum_q |amps_q| for the
    target and sum_j |c_j| for the translates.
    """
    centers = _ball_grid(radius, spacing)
    degree, target_tail, kernel_tail = _fit_degree(_FIT_RADIUS, float(np.linalg.norm(centers, axis=1).max()))
    # r j_l(r) is convex on [0, sqrt(l(l+1))] (the Riccati-Bessel equation), so
    # j_l rises there and peaks on the ball at j_l(_FIT_RADIUS) while
    # l(l+1) >= _FIT_RADIUS^2; below, sum_l (2l+1) j_l^2 = 1 bounds it by 1/sqrt(2l+1)
    l = _degrees(degree)
    peak = np.where(l * (l + 1) >= _FIT_RADIUS**2, _radial(degree, [_FIT_RADIUS])[0], 1.0 / np.sqrt(2 * l + 1))
    weights = (peak * np.sqrt((2 * l + 1) / (4.0 * math.pi)))[:, None]
    kernel = weights * _kernel_modes(centers, degree)
    amps = np.asarray(amps, dtype=complex).reshape(len(dirs), -1)
    target = weights * _plane_wave_modes(dirs, amps, degree)
    u, sing, vh = np.linalg.svd(kernel, full_matrices=False)
    keep = sing > _FIT_RCOND * sing[0]
    coeffs = _real_times_complex(vh[keep].T, _real_times_complex(u[:, keep].T, target) / sing[keep, None])
    residual = np.abs(target - _real_times_complex(kernel, coeffs)) ** 2
    per_degree = np.sqrt(np.add.reduceat(residual, np.arange(degree + 1) ** 2, axis=0))
    bounds = per_degree.sum(axis=0) + target_tail * np.abs(amps).sum(axis=0) + kernel_tail * np.abs(coeffs).sum(axis=0)
    return [BesselSum(3, c, centers, radius) for c in coeffs.T], bounds.tolist(), degree, int(keep.sum())


#: herglotz_discretize checks its sup error at this many seeded points of the unit ball,
#: and refuses a grid of more than _MAX_TERMS centers.
_CHECK_POINTS = 1000
_MAX_TERMS = 4000


def _ball_samples(count: int, radius: float, seed: int) -> np.ndarray:
    """`count` seeded points uniform in the ball of `radius`: normal directions, then radii."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, 3))
    return pts * (radius * rng.uniform(0, 1, count) ** (1.0 / 3.0) / np.linalg.norm(pts, axis=1))[:, None]


def herglotz_discretize(
    f: HerglotzDensity,
    delta: float,
    radius: float = 2.5,
    seed: int = 0,
) -> BesselSum:
    """Approximate the Herglotz field of f by a BesselSum on a grid of B_R, with a computed error bound.

    Centers sit on a uniform grid of the ball B_R, first of spacing
    radius / 3.6; _fit_kernel_sum fits the density's plane waves (its
    quadrature nodes) and bounds the sup error on the ball of _FIT_RADIUS.
    (A Riemann-sum choice of the coefficients from the Fourier transform of a
    bump-extended density also converges, but needs astronomically many cells
    for useful tolerances.)  That bound (report.bound) must meet delta, and so
    must the sup error at seeded check points of the unit ball
    (report.achieved), its cross-check.  The grid is refined twice, growing
    the radius by 0.5 each time, before a ToleranceError carrying the last
    bound.  No fit is tried when the target's tail past L times
    sum_q |a_q| (_fit_degree) alone exceeds delta: every bound contains it,
    and L does not fall as the centers reach further, so the tail at the
    last radius is a floor that no refinement lowers; the error carries it.
    """
    if f.n != 3:
        raise NotImplementedError("herglotz_discretize is implemented for n = 3")
    amps = f.weights * f.values
    # the last grid's centers lie within radius + 1
    degree, target_tail, _ = _fit_degree(_FIT_RADIUS, radius + 1.0)
    floor = target_tail * float(np.abs(amps).sum())
    if floor > delta:
        raise ToleranceError(
            f"herglotz_discretize cannot reach delta={delta:.3e}: every fit's bound includes the "
            f"target's tail past degree {degree}, {floor:.3e}, which refining the grid cannot lower",
            floor,
        )
    pts = _ball_samples(_CHECK_POINTS, 1.0, seed)
    reference = eval_herglotz(f, pts)

    spacing = radius / 3.6
    attempt = None
    for _ in range(3):
        if len(_ball_grid(radius, spacing)) > _MAX_TERMS:
            break
        (attempt,), (bound,), degree, rank = _fit_kernel_sum(f.nodes, amps, radius, spacing)
        achieved = float(np.max(np.abs(eval_bessel_sum(attempt, pts) - reference)))
        attempt.report = DiscretizeReport(achieved, achieved / delta, radius, spacing, bound, degree, rank)
        if max(bound, achieved) <= delta:
            return attempt
        spacing *= 0.7
        radius += 0.5
    bound = attempt.report.bound if attempt is not None else float("inf")
    raise ToleranceError(
        f"herglotz_discretize reached a bound of {bound:.3e} > delta={delta:.3e} "
        f"within {_MAX_TERMS} terms",
        bound,
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
    w = np.array([0.0, 0.0, 1.0])
    if abs(T[0] @ w) > 0.9:
        w = np.array([1.0, 0.0, 0.0])
    prev = w  # u[0] is w transported onto the first normal plane
    for s in range(S):
        cand = prev - (prev @ T[s]) * T[s]
        u[s] = prev = cand / np.linalg.norm(cand)
    v = np.cross(T, u)
    if closed:
        back = u[S - 1] - (u[S - 1] @ T[0]) * T[0]
        back /= np.linalg.norm(back)
        hol = math.atan2(float(np.cross(back, u[0]) @ T[0]), float(back @ u[0]))
        a = hol * np.arange(S) / S
        cu, su = np.cos(a)[:, None], np.sin(a)[:, None]
        u, v = cu * u + su * v, -su * u + cu * v
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
        """max |D_0 phi - phi| / max |phi| at points x (M, 3), from one plane-wave
        sum over the coefficient columns (w, i xi_mu w) of phi and its partials."""
        x, w = np.atleast_2d(np.asarray(x, dtype=float)), self.spinor_coeffs
        cols = np.stack([w, *(1j * self.directions[:, mu, None] * w for mu in range(3))], axis=1)
        val, *grad = np.moveaxis(_plane_wave_sum(x, self.directions, cols), 1, 0)
        out = sum((grad[mu] @ FLAT_GAMMA[mu].T for mu in range(3)), -val)
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
#: The designed plane-wave components are fitted by kernels centered on a grid
#: of this spacing in the ball of this radius.
_CONVERT_RADIUS = 2.5
_CONVERT_SPACING = 0.55
#: Tikhonov weight of the collocation solve, relative to ||A||_F^2 / unknowns,
#: the mean diagonal of the normal matrix A^H A (which the dual solve never forms).
_RIDGE = 1e-8


@dataclass
class DesignResult:
    components: dict
    planewave: PlaneWaveSpinor
    curve_residual: dict
    conversion_error: dict
    conversion_bound: dict


def design_bessel_sum(
    targets,
    budget: int = 240,
    verify_tol: float | None = None,
    grid_h: float = 0.05,
) -> DesignResult:
    """Least-squares collocation of Dirac-eigen plane waves on nodal targets in R^3.

    targets is a list of (polyline (S,3), component index in {0,1}); each
    curve contributes zero-value rows plus unit-scale transversality rows
    (prescribed gradients 1 and 1j along the transported normal frame).  The
    resulting spinor satisfies D_0 phi = phi exactly; each constrained
    component is then converted to a BesselSum by the kernel fit on the
    ball of radius _CONVERT_RADIUS, all components by one factorization,
    with the fit's bound in conversion_bound.  With verify_tol set, the extracted
    nodal curve of each converted component must come within that Hausdorff
    distance of its target.  A target vertex outside the ball where conversion_error is
    sampled (radius _CONVERSION_CHECK_RADIUS = 1.4) is refused with a
    DesignError before any solve, since the conversion is not checked there.
    """
    reach = max(float(np.linalg.norm(np.asarray(curve, dtype=float), axis=-1).max()) for curve, _ in targets)
    if reach > _CONVERSION_CHECK_RADIUS:
        raise DesignError(
            f"a target reaches |x| = {reach:.3g}, outside the radius-{_CONVERSION_CHECK_RADIUS} ball "
            f"where the conversion to a Bessel sum (convert_radius={_CONVERT_RADIUS}) is checked"
        )
    xis = _fibonacci_sphere(budget)
    gam = np.einsum("qi,iab->qab", xis, np.stack(FLAT_GAMMA))
    proj = 0.5 * (np.eye(2)[None, :, :] + 1j * gam)

    blocks = []
    rhs = []
    for curve, a in targets:
        curve = np.asarray(curve, dtype=float)
        closed = _is_closed(curve)
        pts = curve[:-1] if closed and np.allclose(curve[0], curve[-1]) else curve
        u, v = transported_frame(pts, closed)
        # value, d_u and d_v rows: one exp table scaled by 1, i u.xi and i v.xi
        ph = np.exp(1j * (pts @ xis.T))
        waves = np.concatenate([ph[None], (1j * (np.stack([u, v]) @ xis.T)) * ph])
        blocks.append((waves[..., None] * proj[:, a, :]).reshape(3 * len(pts), -1))
        rhs.append(np.repeat([0.0, 1.0, 1j], len(pts)))
    amat = np.concatenate(blocks)
    bvec = np.concatenate(rhs)
    # the ridge solution (A^H A + lam I)^-1 A^H b in its dual form
    # A^H (A A^H + lam I)^-1 b: a system of the 3S collocation rows, which
    # number fewer than the 2Q unknowns for every design here
    lam = _RIDGE * np.vdot(amat, amat).real / amat.shape[1]
    alpha = amat.conj().T @ np.linalg.solve(amat @ amat.conj().T + lam * np.eye(len(amat)), bvec)
    wq = np.einsum("qab,qb->qa", proj, alpha.reshape(-1, 2))
    pw = PlaneWaveSpinor(xis, wq)

    curve_residual = {}
    for curve, a in targets:
        curve_residual[a] = float(np.max(np.abs(pw.component(a, np.asarray(curve)))))

    # one factorization of the kernel side, one solve per constrained component
    fitted = sorted({a for _, a in targets})
    sums, bounds, _, _ = _fit_kernel_sum(pw.directions, pw.spinor_coeffs[:, fitted], _CONVERT_RADIUS, _CONVERT_SPACING)
    components = dict(zip(fitted, sums))
    conversion_bound = dict(zip(fitted, bounds))
    check = _ball_samples(400, _CONVERSION_CHECK_RADIUS, 7)
    conversion_error = {
        a: float(np.max(np.abs(eval_bessel_sum(components[a], check) - pw.component(a, check)))) for a in fitted
    }

    result = DesignResult(components, pw, curve_residual, conversion_error, conversion_bound)
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
    times j0(r) and j1(r)/r, from one bessel_kernel call (one sincos), so
    below r = 1/2 their power series is used.
    """
    k3, k5 = bessel_kernel((3, 5), r)
    return _SQRT_PI_2 * k3, _SQRT_PI_2 * r * k5


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


#: Hopf pair: weight of Phi_down, offset of the dipole centers, and the grid
#: step of the target extraction.
_HOPF_BETA = 0.35
_HOPF_EPS = 0.1
_HOPF_TARGET_H = 0.2


def hopf_link_design() -> HopfPairDesign:
    """Build the closed-form Hopf-pair eigenfield and extract its target curves."""
    beta, eps = _HOPF_BETA, _HOPF_EPS
    e = np.eye(3) * eps
    centers = np.array([np.zeros(3), -e[2], e[2], -e[0], e[0], -e[1], e[1]])
    base = np.zeros(7, dtype=complex)
    base[0] = 1.0
    dz = np.array([0, 1, -1, 0, 0, 0, 0], dtype=complex) / (2 * eps)
    dx = np.array([0, 0, 0, 1, -1, 0, 0], dtype=complex) / (2 * eps)
    dy = np.array([0, 0, 0, 0, 0, 1, -1], dtype=complex) / (2 * eps)
    up1 = _SQRT_PI_2 * (base + 1j * dz)
    up2 = _SQRT_PI_2 * 1j * (dx + 1j * dy)
    dn1 = _SQRT_PI_2 * 1j * (dx - 1j * dy)
    dn2 = _SQRT_PI_2 * (base - 1j * dz)
    radius = math.sqrt(3.0) * eps + 1e-9
    comp = {
        0: BesselSum(3, up1 + 1j * beta * dn1, centers, radius),
        1: BesselSum(3, up2 + 1j * beta * dn2, centers, radius),
    }
    boxes = {
        0: (np.array([-3.8, -3.8, -1.9]), np.array([3.8, 3.8, 1.9])),
        1: (np.array([-4.8, -1.9, -3.9]), np.array([1.6, 1.9, 3.9])),
    }
    design = HopfPairDesign(beta, comp, {}, boxes)

    from . import nodal

    for a in (0, 1):
        curves = nodal.extract_nodal(design.exact_field(a), boxes[a], _HOPF_TARGET_H)
        closed = [c for c in curves.curves if c.closed]
        if not closed:
            raise DesignError("hopf_link_design: expected a closed nodal curve")
        design.targets[a] = max(closed, key=lambda c: len(c.vertices))
    return design
