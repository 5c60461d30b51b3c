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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sphere
from .harmonics import UltrasphericalSum, zonal_derivatives
from .helmholtz import FLAT_GAMMA, helmholtz_residual

#: X_i(p) = E_i p for the left-invariant frame (right quaternion multiplication).
FRAME_E = (
    np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float),
    np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float),
    np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float),
)


@dataclass(frozen=True)
class CliffordRep3:
    """Clifford matrices of the left-invariant frame plus orientation record."""

    gammas: tuple
    orientation: int

    def anticommutator_defect(self) -> float:
        worst = 0.0
        for i in range(3):
            for j in range(3):
                acom = self.gammas[i] @ self.gammas[j] + self.gammas[j] @ self.gammas[i]
                worst = max(worst, float(np.max(np.abs(acom + 2.0 * (i == j) * np.eye(2)))))
        return worst


def _structure_defect(g) -> float:
    return max(
        float(np.max(np.abs(g[1] @ g[2] + g[0]))),
        float(np.max(np.abs(g[2] @ g[0] + g[1]))),
        float(np.max(np.abs(g[0] @ g[1] + g[2]))),
    )


def standard_clifford3() -> CliffordRep3:
    """gamma_i = i sigma_i, orientation-flipped automatically if needed.

    The bracket convention [X_1, X_2] = 2 X_3 requires gamma_2 gamma_3 =
    -gamma_1 cyclically; if a candidate set satisfies it only after swapping
    two frame legs the flip is recorded as orientation -1.
    """
    if _structure_defect(FLAT_GAMMA) < 1e-14:
        rep = CliffordRep3(FLAT_GAMMA, +1)
    else:
        flipped = (FLAT_GAMMA[1], FLAT_GAMMA[0], FLAT_GAMMA[2])
        if _structure_defect(flipped) >= 1e-14:
            raise RuntimeError("no orientation of the Pauli set matches the frame algebra")
        rep = CliffordRep3(flipped, -1)
    if rep.anticommutator_defect() > 1e-14:
        raise RuntimeError("Clifford anticommutation relations violated")
    return rep


CLIFFORD = standard_clifford3()
GAMMA = CLIFFORD.gammas


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
    p = np.atleast_2d(np.asarray(p, dtype=float))
    if isinstance(comp, UltrasphericalSum):
        return zonal_jet(comp, p, order)
    if isinstance(comp, _ProjectedComponent):
        return comp.jet(p, order)
    if isinstance(comp, (int, float, complex)):
        out = [np.full(len(p), complex(comp))]
        out += [np.zeros((len(p),) + (3,) * m, dtype=complex) for m in range(1, order + 1)]
        return out
    return _fd_frame_jet(comp, p, order)


def component_values(comp, p):
    return component_jet(comp, p, 0)[0]


@dataclass
class SpinorField3:
    """Two scalar components in the Killing frame, plus the sign convention."""

    components: tuple
    orientation: int = CLIFFORD.orientation
    k: int | None = None

    def values(self, p):
        return _pair_jets(self, p, 0)[0]


def _pair_jets(psi: SpinorField3, p, order: int):
    """Jets of both components on a last axis; a harmonic pair shares one pass."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    a, b = psi.components
    pair = isinstance(a, UltrasphericalSum) and isinstance(b, UltrasphericalSum)
    if pair and (a.n, a.k) == (b.n, b.k):
        centers, inv = np.unique(np.concatenate([a.centers, b.centers]), axis=0, return_inverse=True)
        coeffs = np.zeros((len(centers), 2), dtype=complex)
        column = np.repeat([0, 1], [len(a), len(b)])
        np.add.at(coeffs, (inv.ravel(), column), np.concatenate([a.coeffs, b.coeffs]))
        return zonal_jet(UltrasphericalSum(a.n, a.k, coeffs, centers), p, order)
    jets = [component_jet(c, p, order) for c in psi.components]
    return [np.stack([jets[0][m], jets[1][m]], axis=-1) for m in range(order + 1)]


def _dirac_jets(jets, shift: float, order: int):
    """Jets through `order` of sum_i gamma_i X_i psi + shift psi, from pair jets to order + 1."""
    return [
        shift * jets[m] + sum(jets[m + 1][..., i, :] @ GAMMA[i].T for i in range(3))
        for m in range(order + 1)
    ]


def dirac_apply(psi: SpinorField3, p):
    """D psi = sum_i gamma_i X_i psi + (3/2) psi at batched points: (M, 2)."""
    return _dirac_jets(_pair_jets(psi, p, 1), 1.5, 0)[0]


def dirac_slash_apply(psi: SpinorField3, p):
    """(D - 1/2) psi."""
    return _dirac_jets(_pair_jets(psi, p, 1), 1.0, 0)[0]


class _ProjectedComponent:
    """Component a of the projected eigenfield built from a harmonic pair.

    psi = (Dslash + mu) psit / (2 mu) with mu = k + 1 is linear in D, so its
    frame jets through order m need base jets through order m + 1 only.
    """

    def __init__(self, base: SpinorField3, k: int, index: int):
        self.base = base
        self.k = k
        self.index = index

    def jet(self, p, order: int):
        jets = _dirac_jets(_pair_jets(self.base, p, order + 1), self.k + 2.0, order)
        return [arr[..., self.index] / (2.0 * (self.k + 1)) for arr in jets]


def component_harmonicity(comp, k: int, samples: int = 32, seed: int = 0) -> float:
    """Residual of -sum_i X_i X_i psi = lam psi, lam = k(k+2), on random points,
    relative to lam max |psi| (to max |psi| at k = 0).

    Both sides are of size lam |psi|, so their rounding grows like lam eps;
    a degree-(k+1) component misses by (2k + 3) |psi|, about 2 / k relative.
    """
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(samples, 4))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    jets = component_jet(comp, p, 2)
    lap = -(jets[2][:, 0, 0] + jets[2][:, 1, 1] + jets[2][:, 2, 2])
    lam = k * (k + 2.0)
    scale = max(lam, 1.0) * float(np.abs(jets[0]).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(lap - lam * jets[0]).max() / scale)


def dirac_project(psi_tilde: SpinorField3, k: int) -> SpinorField3:
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
    for comp in psi_tilde.components:
        if callable(comp) and not isinstance(comp, (UltrasphericalSum, _ProjectedComponent)):
            raise TypeError("dirac_project needs analytic components (harmonic sums or constants)")
        resid = component_harmonicity(comp, k)
        if resid > 1e-6:
            raise ValueError(
                f"component is not a degree-{k} spherical harmonic "
                f"(laplace residual {resid:.2e})"
            )
    return SpinorField3(
        (_ProjectedComponent(psi_tilde, k, 0), _ProjectedComponent(psi_tilde, k, 1)),
        orientation=psi_tilde.orientation,
        k=k,
    )


def dirac_residual(psi: SpinorField3, lam: float, samples: int = 64, seed: int = 0) -> float:
    """max |D psi - lam psi| / max |psi| over seeded random sphere points."""
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(samples, 4))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    vals = psi.values(p)
    dv = dirac_apply(psi, p)
    scale = float(np.abs(vals).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(dv - lam * vals).max() / scale)


def component_pullback(psi: SpinorField3, index: int, chart: sphere.Chart, k: int):
    """Callable x -> psi_index(Psi^{-1}(x/k)) for nodal extraction in the chart.

    Its ``jet`` attribute maps (M, 3) points to the value and the gradient in
    C^3 from one order-1 frame jet: the ambient gradient at p is
    sum_i (X_i psi) E_i p, and the chain rule through y = x/k gives
    (1/k) (d exp_y)^T of it (sphere.chart_gradient).  The attribute lives in
    the function's own ``__dict__``, which ``functools.wraps`` copies onto a
    wrapper.
    """
    comp = psi.components[index]

    def fn(x):
        p = sphere.chart_to_sphere(chart, np.asarray(x, dtype=float) / k)
        return component_values(comp, p)

    def jet(x):
        y = np.asarray(x, dtype=float) / k
        p = sphere.chart_to_sphere(chart, y)
        value, frame_grad = component_jet(comp, p, 1)
        ambient = np.einsum("mi,mia->ma", frame_grad, frame_vectors(p))
        return value, sphere.chart_gradient(chart, y, ambient) / k

    fn.jet = jet
    return fn


def euclidean_dirac_check(pair, box, h: float):
    """Flat-space check of D_0 phi = phi plus componentwise Helmholtz residuals.

    pair is two complex field evaluators on R^3; derivatives are central
    finite differences of step h, so exact solutions score O(h^2).  Returns
    (dirac_residual, (helmholtz_residual_1, helmholtz_residual_2)).
    """
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    ax = [np.arange(lo[d], hi[d] + 1e-12, h) for d in range(3)]
    grid = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = np.stack([np.asarray(f(grid), dtype=complex) for f in pair], axis=-1)
    out = -vals
    for mu in range(3):
        e = np.zeros(3)
        e[mu] = h
        dmu = np.stack(
            [
                (np.asarray(f(grid + e), dtype=complex) - np.asarray(f(grid - e), dtype=complex)) / (2 * h)
                for f in pair
            ],
            axis=-1,
        )
        out = out + dmu @ FLAT_GAMMA[mu].T
    scale = max(float(np.abs(vals).max()), 1e-300)
    dirac_res = float(np.abs(out).max() / scale)
    helm = tuple(helmholtz_residual(f, box, h) / scale for f in pair)
    return dirac_res, helm
