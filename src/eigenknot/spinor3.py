"""Spinor calculus on S^3 in the left-invariant (Killing) trivialization.

S^3 is the unit quaternions; the orthonormal frame X_i(p) = p * e_i comes
from right multiplication by the imaginary units, so each X_i is a linear
vector field E_i p with constant 4x4 matrix E_i, and [X_1, X_2] = 2 X_3
cyclically.  Killing spinors of Killing number -1/2 are the constant
sections here, which makes the Dirac operator completely explicit:

    D psi = sum_i gamma_i (X_i psi_1, X_i psi_2)^T + (3/2) psi,

with gamma_i = i sigma_i.  These matrices satisfy gamma_2 gamma_3 =
-gamma_1 (cyclically), which is exactly what makes the square identity
(D - 1/2)^2 = Delta_chi + 1 hold with Delta_chi acting componentwise as the
positive-spectrum scalar Laplacian -sum_i X_i X_i.  Constants are then
eigenfields of eigenvalue 3/2 = n/2, which pins every sign convention.

One evaluation path serves every reader of a spinor.  X_i f = grad f . E_i p
and p_j . E_i p = -(E_i p_j) . p make each component of a harmonic pair of
one degree, or of its Dirac projection, a zonal sum with a C' term over the
pair's pooled centers p_j,

    psi_a(x) = sum_j alpha_ja C(x . p_j) + (x . beta_ja) C'(x . p_j).

zonal_tables builds its real per-center tables once; zonal_jet evaluates
them, values and ambient gradients, from one specialfn.gegenbauer3_zonal
pass over the points and the centers.  values, dirac_apply, dirac_residual
and the nodal pullbacks all call zonal_jet.  dirac_project evaluates
nothing: the components carry their degree, so its degree check is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sphere
from .harmonics import UltrasphericalSum, kernel_norm
from .helmholtz import FLAT_GAMMA, lattice_stencils
from .specialfn import gegenbauer3_zonal

#: X_i(p) = E_i p for the left-invariant frame (right quaternion multiplication).
FRAME_E = (
    np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float),
    np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float),
    np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float),
)


#: gamma_i = i sigma_i.  They satisfy gamma_2 gamma_3 = -gamma_1 cyclically, the
#: relation the bracket [X_1, X_2] = 2 X_3 asks for, so no leg of the frame is
#: swapped and spinor files record orientation 1.
GAMMA = FLAT_GAMMA


def frame_vectors(p):
    """X_i(p) = E_i p for sphere points of shape (M, 4), or (..., 4): returns (..., 3, 4)."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    return np.stack([p @ E.T for E in FRAME_E], axis=-2)


def adapted_chart(p0) -> sphere.Chart:
    """Normal chart at p0 whose frame rows are the left-invariant X_i(p0).

    Spinor components only reproduce a designed Euclidean pair in this
    gauge: the rescaled limit of sum_i gamma_i X_i is the flat operator
    sum_mu gamma_mu d_mu precisely when chart directions and frame legs
    coincide at the base point.  In a generic chart the comparison picks up
    a constant frame rotation (scalar synthesis is insensitive to it).
    """
    p0 = sphere.unit_vector(p0)
    return sphere.Chart(p0, np.stack([E @ p0 for E in FRAME_E]))


# ---------------------------------------------------------------------------
# Spinors and their one evaluator
# ---------------------------------------------------------------------------

class _Constant(UltrasphericalSum):
    """A constant c as the degree-0 sum (c / kernel_norm(3)) C_0(x . e_0), C_0 = 1:
    UltrasphericalSum refuses degree 0, which synthesis never makes."""

    def __init__(self, c):
        self.n, self.k, self.chart = 3, 0, None
        self.coeffs = np.array([complex(c) / kernel_norm(3)])
        self.centers = np.array([[1.0, 0.0, 0.0, 0.0]])


@dataclass
class SpinorField3:
    """Two scalar components in the Killing frame; a number becomes a degree-0 sum."""

    components: tuple

    def __post_init__(self):
        self.components = tuple(
            _Constant(c) if isinstance(c, (int, float, complex)) else c for c in self.components
        )

    def values(self, p):
        """Both components at sphere points: (M, 2)."""
        return zonal_jet(zonal_tables(self), p)


@dataclass
class ProjectedSpinor3:
    """The eigenfield psi = (Dslash + mu) base / (2 mu), mu = k + 1, of a degree-k pair."""

    base: SpinorField3
    k: int

    def values(self, p):
        """Both components at sphere points: (M, 2)."""
        return zonal_jet(zonal_tables(self), p)


@dataclass(frozen=True)
class ZonalTables:
    """psi_a(x) = sum_j alpha_ja C(x . p_j) + (x . beta_ja) C'(x . p_j), C = C^3_k, for the
    columns a of cols: () for one component, (2,) for both.  The tables are the
    float views of alpha, beta, alpha p + beta and p (x) beta, where beta and
    p (x) beta are None for a harmonic pair, whose beta is 0; len() is N, the
    number of centers p_j every point sums over."""

    centers: np.ndarray
    k: int
    cols: tuple
    tables: tuple

    def __len__(self) -> int:
        return len(self.centers)


def zonal_tables(psi, index: int | None = None) -> ZonalTables:
    """The tables of both components of psi, or of component `index` alone.

    psi is a harmonic pair psit of one degree on S^3, where alpha_ja = c_ja and
    beta_ja = 0 for c_jb the pooled coefficients times kernel_norm(3), or its
    projection (Dslash + mu) psit / (2 mu), mu = k + 1, where alpha_ja =
    (k+2) c_ja / (2 mu) and beta_ja = -sum_i sum_b (gamma_i)_ab c_jb E_i p_j / (2 mu).
    Any other spinor raises TypeError.
    """
    pair = psi.base if isinstance(psi, ProjectedSpinor3) else psi
    a, b = pair.components if isinstance(pair, SpinorField3) else (None, None)
    if not (isinstance(a, UltrasphericalSum) and isinstance(b, UltrasphericalSum) and a.n == b.n == 3 and a.k == b.k):
        raise TypeError(
            "spinor evaluation needs a harmonic pair of one degree on S^3 or its Dirac projection, "
            f"got a {type(psi).__name__} of {type(pair).__name__}"
        )
    # one sum over the pooled centers, coefficient columns (c_j1, c_j2)
    p, inv = np.unique(np.concatenate([a.centers, b.centers]), axis=0, return_inverse=True)
    c = np.zeros((len(p), 2), dtype=complex)
    np.add.at(c, (inv.ravel(), np.repeat([0, 1], [len(a), len(b)])), np.concatenate([a.coeffs, b.coeffs]))
    c *= kernel_norm(3)

    if pair is psi:
        alpha, beta = c, None
    else:
        mu2 = 2.0 * (psi.k + 1)
        alpha = (psi.k + 2.0) / mu2 * c
        beta = sum((c @ GAMMA[i].T)[:, None] * (p @ E.T)[:, :, None] for i, E in enumerate(FRAME_E)) / -mu2
    if index is not None:
        alpha, beta = alpha[..., index], None if beta is None else beta[..., index]
    cols = alpha.shape[1:]
    ps = p.reshape(p.shape + (1,) * len(cols))
    if beta is None:
        tables = (alpha, None, alpha[:, None] * ps, None)
    else:
        tables = (alpha, beta, alpha[:, None] * ps + beta, ps[:, :, None] * beta[:, None])
    return ZonalTables(
        p, a.k, cols, tuple(None if t is None else np.ascontiguousarray(t).reshape(len(p), -1).view(float) for t in tables)
    )


def zonal_jet(tables: ZonalTables, p, order: int = 0):
    """The components of `tables` at sphere points p: (M, *cols).

    order=1 gives [values, ambient gradients (M, 4, *cols)]: the gradient at x
    is sum_j C'(x . p_j) (alpha_j p_j + beta_j) + C''(x . p_j) (x . beta_j) p_j.
    One gegenbauer3_zonal call per row block, to order + 1 when there is a
    beta and to order for a harmonic pair, whose beta terms are skipped, and
    a few real matmuls; the values are bit-identical at either order.
    """
    if order not in (0, 1):
        raise ValueError(f"zonal_jet gives values (order 0) and gradients (order 1), not order {order}")
    (a0, b, a1, pb), cols = tables.tables, tables.cols

    def block(q):
        derivs = gegenbauer3_zonal(tables.k, q, tables.centers, order + (b is not None))
        m = len(q)
        value = (derivs[0] @ a0).view(complex).reshape((m,) + cols)
        if b is not None:
            value = value + np.einsum("ma...,ma->m...", (derivs[1] @ b).view(complex).reshape((m, 4) + cols), q)
        if not order:
            return value
        grad = (derivs[1] @ a1).view(complex).reshape((m, 4) + cols)
        if b is None:
            return [value, grad]
        curv = np.einsum("mab...,mb->ma...", (derivs[2] @ pb).view(complex).reshape((m, 4, 4) + cols), q)
        return [value, grad + curv]

    return sphere.eval_rows(block, p, 4, len(tables))


def _dirac(psi, p):
    """psi and D psi = sum_i gamma_i X_i psi + (3/2) psi, X_i psi = grad psi . E_i p,
    at sphere points p: two (M, 2) arrays from one zonal_jet pass."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    value, grad = zonal_jet(zonal_tables(psi), p, 1)
    frame = np.einsum("mia,mab->mib", frame_vectors(p), grad)
    return value, 1.5 * value + sum(frame[:, i] @ GAMMA[i].T for i in range(3))


def dirac_apply(psi, p):
    """D psi = sum_i gamma_i X_i psi + (3/2) psi at batched points: (M, 2)."""
    return _dirac(psi, p)[1]


def dirac_project(psi_tilde, k: int) -> ProjectedSpinor3:
    """Project a spinor with degree-k harmonic components onto the D-eigenspace.

    psi = (Dslash + mu) psit / (2 mu), Dslash = D - 1/2, mu = k + 1.  With
    S = sum_i gamma_i X_i, gamma_2 gamma_3 = -gamma_1 gives S^2 = Delta_chi - 2S,
    and Delta_chi = k(k+2) on degree-k components, so there D has only the
    eigenvalues k + 3/2 and -(k + 1/2): D psi = (3/2 + k) psi identically.
    That needs degree-k input, which the components state: each must be an
    UltrasphericalSum on S^3 of degree k, or ValueError names it.  Nothing is
    evaluated.  A ProjectedSpinor3 of degree k is returned as it is, since
    the projector is the identity on its image; another degree is refused.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if isinstance(psi_tilde, ProjectedSpinor3):
        if psi_tilde.k != k:
            raise ValueError(f"a degree-{psi_tilde.k} Dirac eigenfield has no degree-{k} projection")
        return psi_tilde
    for a, comp in enumerate(psi_tilde.components):
        if not isinstance(comp, UltrasphericalSum):
            found = f"a {type(comp).__name__}"
        elif comp.n != 3:
            found = f"a harmonic on S^{comp.n}"
        elif comp.k != k:
            found = f"of degree {comp.k}"
        else:
            continue
        raise ValueError(f"component {a + 1} is not a degree-{k} spherical harmonic on S^3: it is {found}")
    return ProjectedSpinor3(psi_tilde, k)


def dirac_residual(psi, lam: float, samples: int = 64, seed: int = 0) -> float:
    """max |D psi - lam psi| / max |psi| over seeded random sphere points.

    The points are spread over the sphere, so for a pair localized at a chart
    base the figure is a far-field one.  Inside the 3/k ball at the base the
    Hopf pair reads about 6e-12, 6e-11, 4e-10 and 3e-8 at k = 60, 120, 240
    and 1000, relative to max |psi| there, and the frame jets about half that:
    the growth is the shared kernel's.  A sample near the base or its
    antipode lifts the figure toward those values.
    """
    p = np.random.default_rng(seed).normal(size=(samples, 4))
    vals, dpsi = _dirac(psi, p / np.linalg.norm(p, axis=1, keepdims=True))
    scale = float(np.abs(vals).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(dpsi - lam * vals).max() / scale)


def component_pullback(psi, index: int, chart: sphere.Chart, k: int):
    """Callable x -> psi_index(Psi^{-1}(x/k)) for nodal extraction in the chart.

    The component's tables (zonal_tables) are built once here, and each call
    is one call of this module's zonal_jet.  The ``jet`` attribute maps (M, 3)
    points to the value and the gradient in C^3 from one order-1 call: the
    chain rule through y = x/k gives (1/k) (d exp_y)^T of the ambient gradient
    (sphere.chart_gradient), with values bit-identical to the call's.  The
    attribute lives in the function's own ``__dict__``, which
    ``functools.wraps`` copies onto a wrapper.
    """
    tables = zonal_tables(psi, index)

    def fn(x):
        return zonal_jet(tables, sphere.chart_to_sphere(chart, np.atleast_2d(np.asarray(x, dtype=float)) / k))

    def jet(x):
        y = np.atleast_2d(np.asarray(x, dtype=float)) / k
        value, grad = zonal_jet(tables, sphere.chart_to_sphere(chart, y), 1)
        return value, sphere.chart_gradient(chart, y, grad) / k

    fn.jet = jet
    return fn


def euclidean_dirac_check(pair, box, h: float):
    """Flat-space check of D_0 phi = phi plus componentwise Helmholtz residuals.

    pair is two complex field evaluators on R^3, each evaluated once on the
    lattice of step h; derivatives are central finite differences, so exact
    solutions score O(h^2).  Returns
    (dirac_residual, (helmholtz_residual_1, helmholtz_residual_2)).
    """
    # value, gradient and Laplacian, each with the component on a last axis
    vals, grads, laps = (np.stack(part, axis=-1) for part in zip(*(lattice_stencils(f, box, h) for f in pair)))
    out = -vals
    for mu in range(3):
        out = out + grads[mu] @ FLAT_GAMMA[mu].T
    scale = max(float(np.abs(vals).max()), 1e-300)
    helm = tuple(float(np.max(np.abs(laps[..., a] + vals[..., a]))) / scale for a in range(2))
    return float(np.abs(out).max() / scale), helm
