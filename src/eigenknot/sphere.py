"""Round-sphere geometry: normal geodesic charts, distances, rescaling.

Points on S^n are plain unit vectors in R^{n+1} (shape (n+1,) or batched
(M, n+1) float arrays).  A Chart is a base point plus an orthonormal tangent
frame; chart coordinates x in the open ball B_pi map to the sphere through
the exponential map cos(|x|) p0 + sin(|x|) (frame^T x)/|x|.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

_UNIT_TOL = 1e-12

#: Rows per block of the batched field evaluators; bounds the (rows x terms)
#: intermediates they build.
ROW_BLOCK = 4096


def _as_batch(x, dim):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != dim:
        raise ValueError(f"expected vectors of length {dim}, got {x.shape[1]}")
    return x, single


def eval_rows(fn, x, dim):
    """fn applied to the rows of x in blocks of ROW_BLOCK rows.

    fn maps an (m, dim) block to an array, or a list of arrays, with m leading
    rows.  A 1-D x is one point and gives fn's value there without the row
    axis; an (0, dim) x gives empty arrays.
    """
    x, single = _as_batch(x, dim)
    blocks = [fn(x[s : s + ROW_BLOCK]) for s in range(0, max(len(x), 1), ROW_BLOCK)]
    if isinstance(blocks[0], list):
        out = [np.concatenate(parts) for parts in zip(*blocks)]
        return [a[0] for a in out] if single else out
    out = np.concatenate(blocks)
    return out[0] if single else out


@dataclass
class Chart:
    """Normal geodesic coordinates at p0 with orthonormal frame rows e_1..e_n."""

    p0: np.ndarray
    frame: np.ndarray
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self):
        self.p0 = np.asarray(self.p0, dtype=float)
        self.frame = np.asarray(self.frame, dtype=float)
        n = self.frame.shape[0]
        if self.frame.shape != (n, n + 1) or self.p0.shape != (n + 1,):
            raise ValueError("frame must be (n, n+1) with p0 of length n+1")
        if abs(np.linalg.norm(self.p0) - 1.0) > _UNIT_TOL:
            raise ValueError("chart base point must be a unit vector")
        gram = self.frame @ self.frame.T
        if np.max(np.abs(gram - np.eye(n))) > 1e-10:
            raise ValueError("chart frame must be orthonormal")
        if np.max(np.abs(self.frame @ self.p0)) > 1e-10:
            raise ValueError("chart frame must be orthogonal to the base point")

    @property
    def n(self) -> int:
        return self.frame.shape[0]

    def to_dict(self) -> dict:
        d = {"p0": self.p0.tolist(), "frame": self.frame.tolist()}
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Chart":
        return cls(np.array(d["p0"]), np.array(d["frame"]), d.get("seed"))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "Chart":
        return cls.from_dict(json.loads(s))


def standard_chart(n: int) -> Chart:
    """Chart at the first coordinate pole with the coordinate axes as frame."""
    p0 = np.zeros(n + 1)
    p0[0] = 1.0
    return Chart(p0, np.eye(n + 1)[1:])


def unit_vector(v) -> np.ndarray:
    """v / |v|; a zero or non-finite v has no direction and is refused."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if not (np.isfinite(norm) and norm > 0):
        raise ValueError(f"need a finite nonzero vector, got {v.tolist()}")
    return v / norm


def random_chart(n: int, seed: int, p0=None) -> Chart:
    """Gram-Schmidt frame from a seeded Gaussian basis; seed is recorded."""
    rng = np.random.default_rng(seed)
    p0 = unit_vector(rng.normal(size=n + 1) if p0 is None else p0)
    vecs = [p0]
    while len(vecs) < n + 1:
        v = rng.normal(size=n + 1)
        for u in vecs:
            v = v - (v @ u) * u
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            vecs.append(v / nrm)
    return Chart(p0, np.stack(vecs[1:]), seed=seed)


def chart_to_sphere(chart: Chart, x):
    """Exponential map: chart coordinates x (|x| < pi) to sphere points."""
    x, single = _as_batch(x, chart.n)
    r = np.linalg.norm(x, axis=1)
    if np.any(r >= np.pi):
        raise ValueError("chart coordinates must satisfy |x| < pi")
    out = np.empty((x.shape[0], chart.n + 1))
    out[:] = chart.p0
    safe = r > 0
    tang = (x[safe] / r[safe, None]) @ chart.frame
    out[safe] = np.cos(r[safe])[:, None] * chart.p0 + np.sin(r[safe])[:, None] * tang
    return out[0] if single else out


def sphere_to_chart(chart: Chart, p):
    """Inverse of chart_to_sphere; rejects the antipode of the base point."""
    p, single = _as_batch(p, chart.n + 1)
    c = np.clip(p @ chart.p0, -1.0, 1.0)
    if np.any(c < -1.0 + 1e-12):
        raise ValueError("antipodal point is outside the chart")
    d = np.arccos(c)
    v = p - c[:, None] * chart.p0
    nrm = np.linalg.norm(v, axis=1)
    out = np.zeros((p.shape[0], chart.n))
    safe = nrm > 1e-15
    out[safe] = d[safe, None] * ((v[safe] / nrm[safe, None]) @ chart.frame.T)
    return out[0] if single else out


def geodesic_dist(p, q):
    """Great-circle distance arccos(p . q), clamped against roundoff."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    dots = np.clip(np.sum(p * q, axis=-1), -1.0, 1.0)
    return np.arccos(dots)
