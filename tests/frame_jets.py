"""Frame jets of spinors on S^3: the tests' oracle for spinor3's zonal tables.

A zonal sum extends to R^4 as sum_j c_j C(x . p_j), with ambient derivative
tensors G_d from harmonics.zonal_derivatives.  Each X_i is linear and X_a
maps the linear field E_b p to E_b E_a p, so X_{i1}...X_{im} psi is a finite
sum of G_d evaluated on such fields.  This was the package's evaluation of a
spinor before the per-center tables; it is kept here, independent of them, so
the tables' values, gradients, Dirac residual and projector have a second
derivation to agree with.
"""

import math

import numpy as np

from eigenknot import sphere
from eigenknot.harmonics import UltrasphericalSum, zonal_derivatives
from eigenknot.spinor3 import GAMMA, ProjectedSpinor3, SpinorField3, frame_vectors


def _form(G, *vecs):
    """G[V_1, ..., V_d] for a complex symmetric (M, 4, ..., 4, *tail) G and real V (M, *s, 4).

    The result has shape (M, *s_1, ..., *s_d, *tail).  Each slot is one real
    batched matmul on the float view of G.
    """
    out, done = G, 0
    for V in reversed(vecs):
        moved = np.moveaxis(out, 1 + done, 1)
        rows, cols = math.prod(V.shape[1:-1]), math.prod(moved.shape[2:])
        pairs = np.ascontiguousarray(moved.reshape(len(V), 4, cols)).view(float)
        out = (V.reshape(len(V), rows, 4) @ pairs).view(complex).reshape(V.shape[:-1] + moved.shape[2:])
        done += V.ndim - 2
    return out


def frame_jet(Y: UltrasphericalSum, p, order: int):
    """Frame jets [J0, J1, ..., J_order] of a zonal harmonic sum on S^3.

    J_m has shape (M, 3, ..., 3) + Y.coeffs.shape[1:] with J_m[i1..im] =
    X_{i1}...X_{im} Y (the first index is the outermost derivative).  All
    derivatives are analytic, through order 3.
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
        return frame_jet(comp, p, order)
    if isinstance(comp, (int, float, complex)):
        out = [np.full(len(p), complex(comp))]
        out += [np.zeros((len(p),) + (3,) * m, dtype=complex) for m in range(1, order + 1)]
        return out
    return _fd_frame_jet(comp, p, order)


def _dirac_jets(jets, shift: float, order: int):
    """Jets through `order` of sum_i gamma_i X_i psi + shift psi, from pair jets to order + 1."""
    return [
        shift * jets[m] + sum(jets[m + 1][..., i, :] @ GAMMA[i].T for i in range(3))
        for m in range(order + 1)
    ]


def spinor_jets(psi, p, order: int):
    """Frame jets of both components on a last axis.

    psi is a SpinorField3, a ProjectedSpinor3 (whose jets through order m are
    the projector applied to its base's jets through order m + 1), or a bare
    pair of components, which may be callables.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    if isinstance(psi, ProjectedSpinor3):
        jets = _dirac_jets(spinor_jets(psi.base, p, order + 1), psi.k + 2.0, order)
        return [arr / (2.0 * (psi.k + 1)) for arr in jets]
    components = psi.components if isinstance(psi, SpinorField3) else psi
    jets = [component_jet(c, p, order) for c in components]
    return [np.stack([jets[0][m], jets[1][m]], axis=-1) for m in range(order + 1)]


def dirac_apply(psi, p):
    """D psi = sum_i gamma_i X_i psi + (3/2) psi from first frame jets: (M, 2)."""
    return _dirac_jets(spinor_jets(psi, p, 1), 1.5, 0)[0]


def dirac_slash_apply(psi, p):
    """(D - 1/2) psi."""
    return _dirac_jets(spinor_jets(psi, p, 1), 1.0, 0)[0]


def harmonicity(psi, k: int, samples: int = 32, seed: int = 0) -> tuple:
    """Per component a, the residual of -sum_i X_i X_i psi_a = lam psi_a,
    lam = k(k+2), on random points, relative to lam max |psi_a| (to max |psi_a|
    at k = 0); a zero component reads 0.

    Both sides are of size lam |psi_a|, so their rounding grows like lam eps;
    a degree-(k+1) component misses by (2k + 3) |psi_a|, about 2 / k relative.
    """
    p = np.random.default_rng(seed).normal(size=(samples, 4))
    jets = spinor_jets(psi, p / np.linalg.norm(p, axis=1, keepdims=True), 2)
    lap = -(jets[2][:, 0, 0] + jets[2][:, 1, 1] + jets[2][:, 2, 2])
    lam = k * (k + 2.0)
    scales = max(lam, 1.0) * np.abs(jets[0]).max(axis=0)
    defects = np.abs(lap - lam * jets[0]).max(axis=0)
    return tuple(float(d / s) if s else 0.0 for d, s in zip(defects, scales))
