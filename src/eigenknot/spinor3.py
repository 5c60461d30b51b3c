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
("jets"): for a zonal harmonic sum every multi-derivative
X_{i1}...X_{im} psi is a finite combination of C^{(d)}(p.p_j) times factors
(p u . p_j) with u a quaternion unit, because differentiating a factor just
multiplies its unit on the left.  That closure is what makes the Dirac
projection and its residuals exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import sphere
from .harmonics import UltrasphericalSum, kernel_norm
from .helmholtz import FLAT_GAMMA, helmholtz_residual
from .specialfn import gegenbauer_cnk_derivatives

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
    """X_i(p) for batched sphere points: returns (M, 3, 4)."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    return np.stack([p @ E.T for E in FRAME_E], axis=1)


def adapted_chart(p0) -> sphere.Chart:
    """Normal chart at p0 whose frame rows are the left-invariant X_i(p0).

    Spinor components only reproduce a designed Euclidean pair in this
    gauge: the rescaled limit of sum_i gamma_i X_i is the flat operator
    sum_mu gamma_mu d_mu precisely when chart directions and frame legs
    coincide at the base point.  In a generic chart the comparison picks up
    a constant frame rotation (scalar synthesis is insensitive to it).
    """
    p0 = np.asarray(p0, dtype=float)
    p0 = p0 / np.linalg.norm(p0)
    return sphere.Chart(p0, np.stack([E @ p0 for E in FRAME_E]))


# ---------------------------------------------------------------------------
# Frame jets of scalar components
# ---------------------------------------------------------------------------

# Quaternion units as (sign, axis) with axis 0 = 1, 1..3 = i, j, k.
_QTAB = {
    (1, 2): (1, 3), (2, 1): (-1, 3),
    (2, 3): (1, 1), (3, 2): (-1, 1),
    (3, 1): (1, 2), (1, 3): (-1, 2),
}


def _qmul(a: int, axis: int):
    """Left multiplication e_a * e_axis of quaternion units (axis 0 is 1)."""
    if axis == 0:
        return 1, a
    if axis == a:
        return -1, 0
    return _QTAB[(a, axis)]


@lru_cache(maxsize=512)
def _jet_terms(word: tuple):
    """Symbolic expansion of X_{word} applied to C(p.p_j).

    Terms map (derivative order d, sorted factor axes) -> integer coefficient;
    the value of a term is coeff * C^{(d)}(T) * prod_axes A_axis, where A_0 is
    T itself and A_i = (p e_i . p_j).
    """
    if not word:
        return {(0, ()): 1}
    a = word[0]
    inner = _jet_terms(word[1:])
    out: dict = {}

    def add(key, c):
        out[key] = out.get(key, 0) + c
        if out[key] == 0:
            del out[key]

    for (d, factors), coeff in inner.items():
        add((d + 1, tuple(sorted(factors + (a,)))), coeff)
        for r, axis in enumerate(factors):
            sign, new_axis = _qmul(a, axis)
            rest = factors[:r] + factors[r + 1 :]
            add((d, tuple(sorted(rest + (new_axis,)))), coeff * sign)
    return out


def zonal_jet(Y: UltrasphericalSum, p, order: int):
    """Frame jets [J0, J1, ..., J_order] of a zonal harmonic sum on S^3.

    J_m has shape (M, 3, ..., 3) with J_m[i1..im] = X_{i1}...X_{im} Y (the
    first index is the outermost derivative).  All derivatives are analytic.
    """
    if Y.n != 3:
        raise ValueError("frame jets are specific to S^3")
    nu = kernel_norm(3)
    words_by_m = [list(np.ndindex(*(3,) * m)) for m in range(order + 1)]

    def block(pc):
        T = np.clip(pc @ Y.centers.T, -1.0, 1.0)
        A = [T] + [(pc @ E.T) @ Y.centers.T for E in FRAME_E]
        CD = [nu * arr for arr in gegenbauer_cnk_derivatives(3, Y.k, T, order)]
        jets = []
        for m in range(order + 1):
            jet = np.empty((len(pc),) + (3,) * m, dtype=complex)
            for word in words_by_m[m]:
                terms = _jet_terms(tuple(i + 1 for i in word))
                acc = None
                for (d, factors), coeff in terms.items():
                    arr = coeff * CD[d]
                    for axis in factors:
                        arr = arr * A[axis]
                    acc = arr if acc is None else acc + arr
                jet[(slice(None),) + word] = acc @ Y.coeffs
            jets.append(jet)
        return jets

    return sphere.eval_rows(block, p, 4)


def _fd_frame_jet(fn, p, order: int, step: float):
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


def component_jet(comp, p, order: int, fd_step: float = 1e-6):
    p = np.atleast_2d(np.asarray(p, dtype=float))
    if isinstance(comp, UltrasphericalSum):
        return zonal_jet(comp, p, order)
    if isinstance(comp, _ProjectedComponent):
        return comp.jet(p, order)
    if isinstance(comp, (int, float, complex)):
        out = [np.full(len(p), complex(comp))]
        out += [np.zeros((len(p),) + (3,) * m, dtype=complex) for m in range(1, order + 1)]
        return out
    return _fd_frame_jet(comp, p, order, fd_step)


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


def _pair_jets(psi: SpinorField3, p, order: int, fd_step: float = 1e-6):
    jets = [component_jet(c, p, order, fd_step) for c in psi.components]
    return [np.stack([jets[0][m], jets[1][m]], axis=-1) for m in range(order + 1)]


def _dirac_stencil(psi: SpinorField3, p, shift: float, fd_step: float):
    """sum_i gamma_i X_i psi + shift * psi at batched points: (M, 2)."""
    J = _pair_jets(psi, p, 1, fd_step)
    out = shift * J[0]
    for i in range(3):
        out = out + J[1][:, i, :] @ GAMMA[i].T
    return out


def dirac_apply(psi: SpinorField3, p, fd_step: float = 1e-6):
    """D psi = sum_i gamma_i X_i psi + (3/2) psi at batched points: (M, 2)."""
    return _dirac_stencil(psi, p, 1.5, fd_step)


def dirac_slash_apply(psi: SpinorField3, p, fd_step: float = 1e-6):
    """(D - 1/2) psi."""
    return _dirac_stencil(psi, p, 1.0, fd_step)


class _ProjectedComponent:
    """Component a of the projected eigenfield built from a harmonic pair.

    psi = Dslash(Dslash + mu) psit / (2 mu^2) with mu = k + 1; every frame
    jet of psi at word w is an assembly of base jets at words (w, l, i),
    (w, i), (w), so analytic derivatives remain available at all orders.
    """

    def __init__(self, base: SpinorField3, k: int, index: int):
        self.base = base
        self.k = k
        self.index = index

    def _assemble(self, base_jets, order: int):
        k = self.k
        mu = k + 1.0
        out = []
        for m in range(order + 1):
            acc = (k + 2.0) * base_jets[m]
            for i in range(3):
                acc = acc + (k + 3.0) * (base_jets[m + 1][..., i, :] @ GAMMA[i].T)
            for l in range(3):
                for i in range(3):
                    acc = acc + base_jets[m + 2][..., l, i, :] @ (GAMMA[l] @ GAMMA[i]).T
            out.append(acc / (2.0 * mu * mu))
        return out

    def jet(self, p, order: int):
        base_jets = _pair_jets(self.base, p, order + 2)
        return [arr[..., self.index] for arr in self._assemble(base_jets, order)]


def component_harmonicity(comp, k: int, samples: int = 32, seed: int = 0) -> float:
    """Relative residual of -sum_i X_i X_i psi = k(k+2) psi on random points."""
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(samples, 4))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    jets = component_jet(comp, p, 2)
    lap = -(jets[2][:, 0, 0] + jets[2][:, 1, 1] + jets[2][:, 2, 2])
    scale = float(np.abs(jets[0]).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(lap - k * (k + 2.0) * jets[0]).max() / scale)


def dirac_project(psi_tilde: SpinorField3, k: int, check: bool = True, check_tol: float = 1e-6) -> SpinorField3:
    """Project a spinor with degree-k harmonic components onto the D-eigenspace.

    psi = Dslash(Dslash psit + ((n-1)/2 + k) psit) / (2 ((n-1)/2 + k)^2),
    n = 3.  For exact harmonic components this satisfies
    D psi = (3/2 + k) psi identically, and re-projection is the identity.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    for comp in psi_tilde.components:
        if callable(comp) and not isinstance(comp, (UltrasphericalSum, _ProjectedComponent)):
            raise TypeError("dirac_project needs analytic components (harmonic sums or constants)")
        if check:
            resid = component_harmonicity(comp, k)
            if resid > check_tol:
                raise ValueError(
                    f"component is not a degree-{k} spherical harmonic "
                    f"(laplace residual {resid:.2e})"
                )
    out = SpinorField3(
        (
            _ProjectedComponent(psi_tilde, k, 0),
            _ProjectedComponent(psi_tilde, k, 1),
        ),
        orientation=psi_tilde.orientation,
        k=k,
    )
    return out


def dirac_residual(psi: SpinorField3, lam: float, samples: int = 64, seed: int = 0, fd_step: float = 1e-6) -> float:
    """max |D psi - lam psi| / max |psi| over seeded random sphere points."""
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(samples, 4))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    vals = psi.values(p)
    dv = dirac_apply(psi, p, fd_step)
    scale = float(np.abs(vals).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(dv - lam * vals).max() / scale)


def component_pullback(psi: SpinorField3, index: int, chart: sphere.Chart, k: int):
    """Callable x -> psi_index(Psi^{-1}(x/k)) for nodal extraction in the chart."""

    def fn(x):
        p = sphere.chart_to_sphere(chart, np.asarray(x, dtype=float) / k)
        return component_values(psi.components[index], p)

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
