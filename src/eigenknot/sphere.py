"""Round-sphere geometry: normal geodesic charts, distances, rescaling.

Points on S^n are plain unit vectors in R^{n+1} (shape (n+1,) or batched
(M, n+1) float arrays).  A Chart is a base point plus an orthonormal tangent
frame; chart coordinates x in the open ball B_pi map to the sphere through
the exponential map cos(|x|) p0 + sin(|x|) (frame^T x)/|x|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_UNIT_TOL = 1e-12

#: Most rows per block of the batched field evaluators.
ROW_BLOCK = 4096
#: Point-term pairs per block.  specialfn.gegenbauer3_zonal peaks at about 3,
#: 5 and 6 float (rows x terms) arrays over a block at orders 0, 1 and 2,
#: outputs included (tests/test_specialfn.py bounds it by 4, 7.2 and 7.3), so
#: at 256 KiB each they fit a 2 MiB L2 cache, where 2^17 pairs (1 MiB) spill it.
#: Raw verify_sweep instances (one thread, 2-core Xeon VM) took 0.083, 0.073,
#: 0.069, 0.068 and 0.084 s at 2^13 to 2^17; 2^15 and 2^16 tie, and 2^15 holds less.
#: spinor3.zonal_jet counts two terms per center, since its blocks also hold
#: the sphere points, the chart map's arrays and the sums against its tables.
#: A nodal pullback maps its chart points to the sphere inside those blocks
#: (ChartPoints), so an extraction holds its grid's points and values and, past
#: them, about the kernel's order-1 peak over one block (tests/test_nodal.py
#: bounds it by 7.8 such arrays).
PAIR_BLOCK = 1 << 15


def _as_batch(x, dim):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != dim:
        raise ValueError(f"expected vectors of length {dim}, got {x.shape[1]}")
    return x, single


def block_rows(terms: int) -> int:
    """Rows per block for an evaluator summing over `terms` terms per row."""
    return max(1, min(ROW_BLOCK, PAIR_BLOCK // max(terms, 1)))


def eval_rows(fn, x, dim, terms):
    """fn applied to the rows of x in blocks of block_rows(terms) rows.

    fn maps an (m, dim) block to an array, or a list of arrays, with m leading
    rows; `terms` is the number of centers, nodes or directions each row sums
    over.  x may also be a ChartPoints, whose blocks are ChartPoints.  A 1-D
    x is one point and gives fn's value there without the row axis; an
    (0, dim) x gives empty arrays.  Each block's values are copied into the
    output as it comes, so the output is the only batch-sized array made.
    """
    x, single = (x, False) if isinstance(x, ChartPoints) else _as_batch(x, dim)
    rows = block_rows(terms)
    first = fn(x[:rows])
    listed = isinstance(first, list)
    out = first if listed else [first]
    if len(x) > rows:
        out = [np.empty((len(x),) + a.shape[1:], a.dtype) for a in out]
        for s in range(0, len(x), rows):
            block = first if s == 0 else fn(x[s : s + rows])
            for whole, part in zip(out, block if listed else [block]):
                whole[s : s + rows] = part
    if single:
        out = [a[0] for a in out]
    return out if listed else out[0]


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
        if not (np.isfinite(self.p0).all() and np.isfinite(self.frame).all()):
            raise ValueError("chart base point and frame must be finite")
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


def as_batch_rows(fn, *arrays):
    """fn(*arrays), for arrays of M rows, with each row rounded as in a batch of rows.

    numpy multiplies a one-row matrix through another BLAS routine than a
    taller one, with other roundings, so one row goes in twice over and the
    first row of each output is kept.  Blocks of a batch then round as the
    whole batch does, whatever block a row falls in.
    """
    if len(arrays[0]) != 1:
        return fn(*arrays)
    out = fn(*(np.repeat(a, 2, axis=0) for a in arrays))
    return [a[:1] for a in out] if isinstance(out, list) else out[:1]


@dataclass
class ChartPoints:
    """The sphere points chart_to_sphere(chart, x / scale) of (M, n) chart coordinates x.

    An evaluator given these maps them a row block at a time (eval_rows
    slices them), so the (M, n+1) array of sphere points is never formed
    whole.  len() and size are those of that array, so work counters that
    read np.size count its points.  The map and its chain rule round every
    row as in a batch (as_batch_rows), so a block's points are bit for bit
    those of one map over all M rows.
    """

    chart: Chart
    x: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        self.x = _as_batch(np.atleast_2d(self.x), self.chart.n)[0]

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, rows: slice) -> "ChartPoints":
        return ChartPoints(self.chart, self.x[rows], self.scale)

    @property
    def size(self) -> int:
        return len(self.x) * (self.chart.n + 1)

    def points(self) -> np.ndarray:
        """The (M, n+1) sphere points."""
        return as_batch_rows(lambda y: chart_to_sphere(self.chart, y), self.x / self.scale)

    def gradient(self, g) -> np.ndarray:
        """The chart gradient of a function with ambient gradients g at the points:
        (1 / scale) (d exp_y)^T g at y = x / scale, by chart_gradient."""
        return as_batch_rows(lambda y, g: chart_gradient(self.chart, y, g), self.x / self.scale, g) / self.scale


def chart_to_sphere(chart: Chart, x):
    """Exponential map: chart coordinates x (|x| < pi) to sphere points.

    cos r p0 + (x sin r / r) frame with r = |x|, and sin r / r = 1 at r = 0.
    """
    x, single = _as_batch(x, chart.n)
    r = np.sqrt(np.einsum("mi,mi->m", x, x))
    if np.any(r >= np.pi):
        raise ValueError("chart coordinates must satisfy |x| < pi")
    sinc = np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0)
    cos = np.cos(r)
    # column by column: a broadcast over rows of n or n + 1 runs one short loop per row
    scaled = np.empty_like(x)
    for i in range(chart.n):
        np.multiply(x[:, i], sinc, out=scaled[:, i])
    out = scaled @ chart.frame
    for j, c in enumerate(chart.p0):
        out[:, j] += cos * c
    return out[0] if single else out


def chart_gradient(chart: Chart, x, g):
    """Chart-coordinate gradient (d exp_x)^T g of a function with ambient gradient g.

    x is (M, n) chart coordinates and g an (M, n+1) real or complex array.
    With r = |x|, u = x/r and F = frame g, the transposed differential of the
    exponential map is (sin r / r) F + u ((cos r - sin r / r) u.F - sin r g.p0),
    which is F at r = 0.
    """
    x, _ = _as_batch(x, chart.n)
    r = np.linalg.norm(x, axis=1)
    safe = np.where(r > 0, r, 1.0)
    u = x / safe[:, None]
    sin = np.sin(r)
    sinc = np.where(r > 0, sin / safe, 1.0)
    F = g @ chart.frame.T
    radial = (np.cos(r) - sinc) * np.einsum("mi,mi->m", u, F) - sin * (g @ chart.p0)
    return sinc[:, None] * F + radial[:, None] * u


def sphere_to_chart(chart: Chart, p):
    """Inverse of chart_to_sphere; rejects the antipode of the base point.

    With c = p . p0 and the tangent part y = frame p, |x| = atan2(|y|, c) and
    x = |x| y / |y|: the angle keeps full accuracy at every radius, where
    arccos(c) would lose half the digits of a small one.
    """
    p, single = _as_batch(p, chart.n + 1)
    c = p @ chart.p0
    if np.any(c < -1.0 + 1e-12):
        raise ValueError("antipodal point is outside the chart")
    y = p @ chart.frame.T
    s = np.sqrt(np.einsum("mi,mi->m", y, y))
    scale = np.divide(np.arctan2(s, c), s, out=np.zeros_like(s), where=s > 0)
    out = y * scale[:, None]
    return out[0] if single else out


def geodesic_dist(p, q):
    """Great-circle distance arccos(p . q), clamped against roundoff."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    dots = np.clip(np.sum(p * q, axis=-1), -1.0, 1.0)
    return np.arccos(dots)
