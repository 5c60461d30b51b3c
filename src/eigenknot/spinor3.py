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

Scalar components evaluate together with their frame derivatives
("jets").  A zonal sum extends to R^4 as sum_j c_j C(x . p_j), with ambient
derivative tensors G_d from harmonics.zonal_derivatives.  Each X_i is linear
and X_a maps the linear field E_b p to E_b E_a p, so X_{i1}...X_{im} psi is a
finite sum of G_d evaluated on such fields.  That closure is what makes the
Dirac projection and its residuals exactly computable.

Nodal extraction reads one component at many points, so component_pullback
skips the frame jets: a projected pair's component is itself a zonal sum
with a C' term, evaluated from per-center tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sphere
from .harmonics import UltrasphericalSum, _signed_chords, kernel_norm, zonal_derivatives
from .helmholtz import FLAT_GAMMA, lattice_stencils
from .specialfn import gegenbauer3_chord_derivatives

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
# Frame jets of scalar components
# ---------------------------------------------------------------------------

def _form(G, *vecs):
    """G[V_1, ..., V_d] for a complex symmetric (M, 4, ..., 4, *tail) G and real V (M, *s, 4).

    The result has shape (M, *s_1, ..., *s_d, *tail).  Each slot is one real
    batched matmul on the float view of G, several times faster than a complex one.
    """
    out, done = G, 0
    for V in reversed(vecs):
        moved = np.moveaxis(out, 1 + done, 1)
        rows, cols = math.prod(V.shape[1:-1]), math.prod(moved.shape[2:])
        pairs = np.ascontiguousarray(moved.reshape(len(V), 4, cols)).view(float)
        out = (V.reshape(len(V), rows, 4) @ pairs).view(complex).reshape(V.shape[:-1] + moved.shape[2:])
        done += V.ndim - 2
    return out


def zonal_jet(Y: UltrasphericalSum, p, order: int):
    """Frame jets [J0, J1, ..., J_order] of a zonal harmonic sum on S^3.

    J_m has shape (M, 3, ..., 3) + Y.coeffs.shape[1:] with J_m[i1..im] =
    X_{i1}...X_{im} Y (the first index is the outermost derivative), so a
    coefficient array with trailing columns evaluates several sums over the
    same centers at once.  All derivatives are analytic, through order 3.
    """
    if Y.n != 3:
        raise ValueError("frame jets are specific to S^3")
    if order > 3:
        raise ValueError("frame jets are implemented through order 3")

    def block(pc):
        G = zonal_derivatives(Y, pc, order)
        V = [pc]  # V[m][i1..im] = E_im...E_i1 p: X_a turns the field E_c...E_b p into E_c...E_b E_a p
        for _ in range(order):
            V.append(frame_vectors(V[-1]))
        jets = [
            lambda: G[0],
            lambda: _form(G[1], V[1]),
            lambda: _form(G[2], V[1], V[1]) + _form(G[1], V[2]),
            lambda: _form(G[3], V[1], V[1], V[1]) + _form(G[2], V[2], V[1]) + _form(G[2], V[1], V[2])
            + _form(G[2], V[1], V[2]).swapaxes(1, 2) + _form(G[1], V[3]),
        ]
        return [jet() for jet in jets[: order + 1]]

    return sphere.eval_rows(block, p, 4, len(Y))


def _fd_frame_jet(fn, p, order: int, step: float = 1e-6):
    """Frame jets of a callable component by symmetric geodesic differences."""
    if order >= 2:
        raise NotImplementedError("finite-difference jets stop at first order")
    jets = [np.asarray(fn(p), dtype=complex)]
    if order == 1:
        shifted = p[:, None, :] + np.array([step, -step])[:, None, None, None] * frame_vectors(p)
        shifted /= np.linalg.norm(shifted, axis=-1, keepdims=True)
        vals = np.asarray(fn(shifted.reshape(-1, 4)), dtype=complex).reshape(2, len(p), 3)
        jets.append((vals[0] - vals[1]) / (2 * step))
    return jets


def component_jet(comp, p, order: int):
    """Frame jets of one scalar component: a harmonic sum, a constant or a callable."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    if isinstance(comp, UltrasphericalSum):
        return zonal_jet(comp, p, order)
    if isinstance(comp, (int, float, complex)):
        out = [np.full(len(p), complex(comp))]
        out += [np.zeros((len(p),) + (3,) * m, dtype=complex) for m in range(1, order + 1)]
        return out
    return _fd_frame_jet(comp, p, order)


@dataclass
class SpinorField3:
    """Two scalar components in the Killing frame."""

    components: tuple

    def pooled(self) -> UltrasphericalSum | None:
        """A harmonic pair of one degree as one sum over its pooled centers, with
        coefficient columns (c_j1, c_j2); None for any other pair of components."""
        a, b = self.components
        pair = isinstance(a, UltrasphericalSum) and isinstance(b, UltrasphericalSum)
        if not pair or (a.n, a.k) != (b.n, b.k):
            return None
        centers, inv = np.unique(np.concatenate([a.centers, b.centers]), axis=0, return_inverse=True)
        coeffs = np.zeros((len(centers), 2), dtype=complex)
        column = np.repeat([0, 1], [len(a), len(b)])
        np.add.at(coeffs, (inv.ravel(), column), np.concatenate([a.coeffs, b.coeffs]))
        return UltrasphericalSum(a.n, a.k, coeffs, centers)

    def jets(self, p, order: int):
        """Jets of both components on a last axis; a harmonic pair shares one pass."""
        p = np.atleast_2d(np.asarray(p, dtype=float))
        pooled = self.pooled()
        if pooled is not None:
            return zonal_jet(pooled, p, order)
        jets = [component_jet(c, p, order) for c in self.components]
        return [np.stack([jets[0][m], jets[1][m]], axis=-1) for m in range(order + 1)]

    def values(self, p):
        return self.jets(p, 0)[0]


def _dirac_jets(jets, shift: float, order: int):
    """Jets through `order` of sum_i gamma_i X_i psi + shift psi, from pair jets to order + 1."""
    return [
        shift * jets[m] + sum(jets[m + 1][..., i, :] @ GAMMA[i].T for i in range(3))
        for m in range(order + 1)
    ]


@dataclass
class ProjectedSpinor3:
    """The eigenfield psi = (Dslash + mu) base / (2 mu), mu = k + 1, of a degree-k pair.

    psi is linear in D, so its jets through order m are those of the base
    through order m + 1, for both components in one pass.
    """

    base: SpinorField3 | ProjectedSpinor3
    k: int

    def jets(self, p, order: int):
        jets = _dirac_jets(self.base.jets(p, order + 1), self.k + 2.0, order)
        return [arr / (2.0 * (self.k + 1)) for arr in jets]

    def values(self, p):
        return self.jets(p, 0)[0]


def dirac_apply(psi, p):
    """D psi = sum_i gamma_i X_i psi + (3/2) psi at batched points: (M, 2)."""
    return _dirac_jets(psi.jets(p, 1), 1.5, 0)[0]


def dirac_slash_apply(psi, p):
    """(D - 1/2) psi."""
    return _dirac_jets(psi.jets(p, 1), 1.0, 0)[0]


def _sphere_samples(samples: int, seed: int):
    p = np.random.default_rng(seed).normal(size=(samples, 4))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def harmonicity(psi, k: int, samples: int = 32, seed: int = 0) -> tuple:
    """Per component a, the residual of -sum_i X_i X_i psi_a = lam psi_a,
    lam = k(k+2), on random points, relative to lam max |psi_a| (to max |psi_a|
    at k = 0); a zero component reads 0.

    Both sides are of size lam |psi_a|, so their rounding grows like lam eps;
    a degree-(k+1) component misses by (2k + 3) |psi_a|, about 2 / k relative.
    """
    jets = psi.jets(_sphere_samples(samples, seed), 2)
    lap = -(jets[2][:, 0, 0] + jets[2][:, 1, 1] + jets[2][:, 2, 2])
    lam = k * (k + 2.0)
    scales = max(lam, 1.0) * np.abs(jets[0]).max(axis=0)
    defects = np.abs(lap - lam * jets[0]).max(axis=0)
    return tuple(float(d / s) if s else 0.0 for d, s in zip(defects, scales))


def dirac_project(psi_tilde, k: int) -> ProjectedSpinor3:
    """Project a spinor with degree-k harmonic components onto the D-eigenspace.

    psi = (Dslash + mu) psit / (2 mu), Dslash = D - 1/2, mu = k + 1.  With
    S = sum_i gamma_i X_i, gamma_2 gamma_3 = -gamma_1 gives S^2 = Delta_chi - 2S,
    and Delta_chi = k(k+2) on degree-k components, so there D has only the
    eigenvalues k + 3/2 and -(k + 1/2): D psi = (3/2 + k) psi identically and
    re-projection is the identity.  That needs degree-k input, so every
    component must pass the harmonicity check (tolerance 1e-6).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if isinstance(psi_tilde, SpinorField3) and any(
        callable(c) and not isinstance(c, UltrasphericalSum) for c in psi_tilde.components
    ):
        raise TypeError("dirac_project needs analytic components (harmonic sums or constants)")
    for a, resid in enumerate(harmonicity(psi_tilde, k)):
        if resid > 1e-6:
            raise ValueError(
                f"component {a + 1} is not a degree-{k} spherical harmonic "
                f"(laplace residual {resid:.2e})"
            )
    return ProjectedSpinor3(psi_tilde, k)


def dirac_residual(psi, lam: float, samples: int = 64, seed: int = 0) -> float:
    """max |D psi - lam psi| / max |psi| over seeded random sphere points."""
    jets = psi.jets(_sphere_samples(samples, seed), 1)
    vals = jets[0]
    scale = float(np.abs(vals).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(_dirac_jets(jets, 1.5, 0)[0] - lam * vals).max() / scale)


def _pullback_tables(psi, index: int):
    """Pooled centers p_j, degree and the real per-center tables of component
    `index`.

    psi is a harmonic pair psit of one degree on S^3 or its projection
    (Dslash + mu) psit / (2 mu), mu = k + 1.  With c_jb the pooled coefficients
    times kernel_norm(3), X_i f = grad f . E_i p and p_j . E_i p = -(E_i p_j) . p
    make the component a plain zonal sum,

        psi_a(x) = sum_j alpha_j C(x . p_j) + (x . beta_j) C'(x . p_j),

    alpha_j = (k+2) c_ja / (2 mu), beta_j = -sum_i sum_b (gamma_i)_ab c_jb E_i p_j / (2 mu);
    the pair itself has alpha_j = c_ja and beta_j = 0.  The tables are the float
    views of alpha (N, 1), beta (N, 4), alpha p + beta (N, 4) and p (x) beta
    (N, 4, 4).
    """
    pair = psi.base if isinstance(psi, ProjectedSpinor3) else psi
    pooled = pair.pooled() if isinstance(pair, SpinorField3) else None
    if pooled is None or pooled.n != 3:
        raise TypeError(
            "component_pullback needs a harmonic pair of one degree on S^3 or its Dirac projection, "
            f"got a {type(psi).__name__} of {type(pair).__name__}"
        )
    p, c = pooled.centers, kernel_norm(3) * pooled.coeffs
    if pair is psi:
        alpha, beta = c[:, index], np.zeros(p.shape, dtype=complex)
    else:
        mu2 = 2.0 * (psi.k + 1)
        alpha = (psi.k + 2.0) / mu2 * c[:, index]
        beta = sum((c @ GAMMA[i][index])[:, None] * (p @ E.T) for i, E in enumerate(FRAME_E)) / -mu2
    tables = (alpha[:, None], beta, alpha[:, None] * p + beta, p[:, :, None] * beta[:, None, :])
    return p, pooled.k, [np.ascontiguousarray(t).reshape(len(p), -1).view(float) for t in tables]


def component_pullback(psi, index: int, chart: sphere.Chart, k: int):
    """Callable x -> psi_index(Psi^{-1}(x/k)) for nodal extraction in the chart.

    psi must be a harmonic pair of one degree or its Dirac projection; any
    other spinor raises TypeError.  The component is the zonal sum of
    _pullback_tables, whose tables are built once here, and neither psi.values
    nor psi.jets is called.  Values take one order-1
    gegenbauer3_chord_derivatives call per row block and two real matmuls.
    The ``jet`` attribute maps (M, 3) points to the value and the gradient in
    C^3 from one order-2 call: the ambient gradient at x is
    sum_j C'(x . p_j) (alpha_j p_j + beta_j) + C''(x . p_j) (x . beta_j) p_j, and
    the chain rule through y = x/k gives (1/k) (d exp_y)^T of it
    (sphere.chart_gradient).  The jet's values are bit-identical to the
    call's.  The attribute lives in the function's own ``__dict__``, which
    ``functools.wraps`` copies onto a wrapper.
    """
    centers, degree, (a0, b, a1, pb) = _pullback_tables(psi, index)

    def value(q, derivs):
        return (derivs[0] @ a0).view(complex)[:, 0] + np.einsum("ma,ma->m", (derivs[1] @ b).view(complex), q)

    def values(q):
        return value(q, gegenbauer3_chord_derivatives(degree, _signed_chords(q, centers), 1))

    def jets(q):
        derivs = gegenbauer3_chord_derivatives(degree, _signed_chords(q, centers), 2)
        curv = np.einsum("mab,mb->ma", (derivs[2] @ pb).view(complex).reshape(len(q), 4, 4), q)
        return [value(q, derivs), (derivs[1] @ a1).view(complex) + curv]

    def fn(x):
        p = sphere.chart_to_sphere(chart, np.atleast_2d(np.asarray(x, dtype=float)) / k)
        return sphere.eval_rows(values, p, 4, len(centers))

    def jet(x):
        y = np.atleast_2d(np.asarray(x, dtype=float)) / k
        value, grad = sphere.eval_rows(jets, sphere.chart_to_sphere(chart, y), 4, len(centers))
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
