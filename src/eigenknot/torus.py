"""Flat-torus scalar variant: rational directions of height k and localized
trigonometric eigenfunctions.

Convention: T^n = R^n / Z^n with Fourier basis e^{2 pi i m.x}, m integer.
A direction set of height k consists of all unit vectors xi with k*xi in
Z^n; the localized eigenfunction u(x) = sum_j c_j e^{2 pi i k xi_j . x} has
Laplace eigenvalue (2 pi k)^2 exactly, and u(x0 + y/(2 pi k)) plays the role
of the rescaled spherical harmonic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .helmholtz import HerglotzDensity, eval_herglotz


@dataclass
class LatticeDirectionSet:
    """Integer solutions of |m|^2 = k^2 with unit directions m/k."""

    n: int
    k: int
    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.int64)
        if self.vectors.ndim != 2 or (len(self.vectors) and self.vectors.shape[1] != self.n):
            raise ValueError("vectors must be an (N, n) integer array")
        if len(self.vectors):
            norms = np.sum(self.vectors.astype(object) ** 2, axis=1)
            if np.any(norms != self.k * self.k):
                raise ValueError("all vectors must have squared norm k^2")

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def directions(self) -> np.ndarray:
        return self.vectors.astype(float) / self.k


#: lattice_directions takes its first coordinates in blocks whose cube of
#: leading coordinates has at most this many points (or one first coordinate
#: at a time), so the rows it holds do not grow like k^(n-1).
_ENUM_ROWS = 1 << 18


def _isqrt(a: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(a)) of a non-negative int64 array."""
    r = np.floor(np.sqrt(a.astype(float))).astype(np.int64)
    r -= r * r > a
    r += (r + 1) * (r + 1) <= a
    return r


def lattice_directions(n: int, k: int) -> LatticeDirectionSet:
    """Enumerate all m in Z^n with |m|^2 = k^2 (exact integer arithmetic).

    The leading n - 1 coordinates run over the integer points of the ball of
    radius k, one coordinate at a time; the last is the exact integer square
    root of what is left, with both signs.  Blocks of first coordinates
    bound the rows held at once.  The vectors come out in lexicographic order.
    """
    if n not in (2, 3, 4):
        raise ValueError("supported dimensions are n in {2, 3, 4}")
    if k < 1:
        raise ValueError("height k must be a positive integer")
    k2 = k * k
    block = max(1, _ENUM_ROWS // (2 * k + 1) ** (n - 2))
    found = []
    for lo in range(-k, k + 1, block):
        heads = np.arange(lo, min(lo + block, k + 1), dtype=np.int64)[:, None]
        for _ in range(n - 2):
            top = _isqrt(k2 - np.sum(heads * heads, axis=1))
            width = 2 * top + 1
            step = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width + top, width)
            heads = np.column_stack([np.repeat(heads, width, axis=0), step])
        rem = k2 - np.sum(heads * heads, axis=1)
        last = _isqrt(rem)
        exact = last * last == rem
        heads, last = heads[exact], last[exact, None]
        found += [np.hstack([heads, -last]), np.hstack([heads, last])]
    return LatticeDirectionSet(n, k, np.unique(np.concatenate(found), axis=0))


def _cap_fraction(n: int, t: np.ndarray) -> np.ndarray:
    """Normalized area of the cap {x . z >= t} on S^{n-1}, n in {2, 3, 4}:
    arccos(t) / pi, (1 - t) / 2 and (arccos t - t sqrt(1 - t^2)) / pi."""
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    if n == 2:
        return np.arccos(t) / math.pi
    if n == 3:
        return 0.5 * (1.0 - t)
    if n == 4:
        return (np.arccos(t) - t * np.sqrt((1.0 - t) * (1.0 + t))) / math.pi
    raise ValueError(f"cap areas are closed forms for n in {{2, 3, 4}}, got n = {n}")


def cap_discrepancy(s: LatticeDirectionSet, trials: int = 4000, seed: int = 0) -> float:
    """max over sampled caps of |empirical fraction - normalized cap area|."""
    if len(s) < 1:
        raise ValueError("direction set is empty")
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(trials, s.n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    t = rng.uniform(-1.0, 1.0, trials)
    dirs = s.directions
    emp = (dirs @ z.T >= t[None, :]).mean(axis=0)
    return float(np.max(np.abs(emp - _cap_fraction(s.n, t))))


@dataclass
class TorusEigenfunction:
    """u(x) = sum_j c_j e^{2 pi i m_j . x} with |m_j| = k: eigenvalue (2 pi k)^2."""

    n: int
    k: int
    freqs: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=np.int64)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)

    def eval(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.exp(2j * math.pi * (x @ self.freqs.T.astype(float))) @ self.coeffs

    @property
    def eigenvalue(self) -> float:
        return (2.0 * math.pi * self.k) ** 2


#: torus_localize compares the fields on the points of this many-per-axis
#: grid of [-1, 1]^n that lie in the unit ball.
_GRID = 9


def torus_localize(f: HerglotzDensity, dirs: LatticeDirectionSet):
    """Reweight a Herglotz density onto the height-k rational directions `dirs`.

    Each quadrature node sends its weight*value to the nearest available
    lattice direction.  Returns (u, sup_error): sup_error compares
    u(y / (2 pi k)) with the Herglotz field of f on a grid of the unit ball.
    """
    unit = dirs.directions
    owner = np.argmax(f.nodes @ unit.T, axis=1)
    coeffs = np.zeros(len(dirs), dtype=complex)
    np.add.at(coeffs, owner, f.weights * f.values)
    u = TorusEigenfunction(f.n, dirs.k, dirs.vectors, coeffs)

    ax = np.linspace(-1.0, 1.0, _GRID)
    mesh = np.stack(np.meshgrid(*([ax] * f.n), indexing="ij"), axis=-1).reshape(-1, f.n)
    mesh = mesh[np.linalg.norm(mesh, axis=1) <= 1.0]
    sup = float(np.max(np.abs(u.eval(mesh / (2.0 * math.pi * dirs.k)) - eval_herglotz(f, mesh))))
    return u, sup
