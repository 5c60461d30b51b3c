"""Codimension-2 nodal curves of complex fields on 3D boxes.

Extraction runs marching tetrahedra on the Kuhn (6 tets per cube, shared
main diagonal) decomposition: inside each tetrahedron the real part's zero
set is a triangle or quad by linear interpolation, and the imaginary part
cut through it yields at most one segment per triangle, so there are no
ambiguous cases.  The march runs on arrays: each cube packs the signs at its
8 corners into one byte per part, each Kuhn type reads its 4-bit sign mask
from that byte, and a 16-entry sign-mask table gives the cut edges of every
active tetrahedron.  Segments are stitched into polylines by sorting the
integer endpoint keys round(p / (1e-6 h)) into node ids and walking them,
then Newton-polished onto the true zero set with least-norm steps; steps
longer than h are refused.

The march's grid values come from the field's ``grid`` attribute when the
callable carries one (axes -> values on their product grid, as eigenknot's
Bessel-sum fields do through helmholtz.eval_bessel_sum_grid); plain
callables get the grid's points in one call.

The 2x3 Jacobian of (Re f, Im f) comes from the field's analytic jet when the
callable carries one (a ``jet`` attribute returning the value and the complex
gradient, as eigenknot's Bessel-sum fields and spinor pullbacks do); plain
callables fall back to central differences.  With rows a = grad Re f and
b = grad Im f the algebra is closed form: the Newton step is
[a b] G^{-1} (Re f, Im f) with the 2x2 Gram matrix G, and each vertex's
margin is sigma_min = |a x b| / sigma_max.  Rows whose sigma_min is at most
1e-8 sigma_max take the rank-1 pseudo-inverse step.

A curve reports only what the polish established: its margins and whether
every vertex ``converged`` (reached |f| <= 1e-9 with no step refused).
Neither proves the curve structurally stable; that takes a certificate that
the field is C^1-close to a transversal one on a tube around the curve.

The linking number of two closed polylines is half the signed crossing count
of a generic projection.  A uniform grid of projected segment boxes, joined
by one sort and a searchsorted, yields the few candidate segment pairs, so
the count costs O(n log n) rather than one visit per segment pair; a
crossing within tolerance of degenerate sends the count to the next of a
few fixed directions, and curves that meet are refused.

Hausdorff distances and the least vertex gap come from the exact
nearest-neighbour search of the neighbours module, loaded on their first
call, so that commands that never measure a distance do not compile it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class NodalCurve:
    """Oriented polyline (closed curves do not repeat the first vertex)."""

    vertices: np.ndarray
    closed: bool
    margins: np.ndarray = field(default=None)
    converged: bool | None = field(default=None, compare=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.margins is not None:
            self.margins = np.asarray(self.margins, dtype=float)

    def __len__(self) -> int:
        return len(self.vertices)

    def to_dict(self) -> dict:
        return {
            "closed": bool(self.closed),
            "vertices": self.vertices.tolist(),
            "margins": self.margins.tolist() if self.margins is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NodalCurve":
        m = d.get("margins")
        return cls(np.array(d["vertices"]), d["closed"], None if m is None else np.array(m))


@dataclass
class NodalSet:
    """Extraction result: curves plus bookkeeping for degenerate cells."""

    curves: list
    degenerate_cells: int = 0

    def __iter__(self):
        return iter(self.curves)

    def __len__(self):
        return len(self.curves)

    def closed_curves(self):
        return [c for c in self.curves if c.closed]


# vertices of the 6 Kuhn tetrahedra of the unit cube, (6, 4, 3)
_KUHN = np.array(
    [np.cumsum([(0, 0, 0), *np.eye(3, dtype=int)[list(p)]], axis=0) for p in itertools.permutations(range(3))]
)
# _TET_MASK[t, code]: 4-bit sign mask of Kuhn tetrahedron t from the 8-bit code
# of a cube whose corner (dx, dy, dz) holds bit 4 dx + 2 dy + dz
_TET_MASK = sum(((np.arange(256)[None, :] >> (_KUHN[:, v] @ (4, 2, 1))[:, None]) & 1) << v for v in range(4))


def _cut_table():
    """Per sign mask of u > 0, the cut edges (i, j) of the triangles of {u = 0}:
    the apex against the rest, or the quad p1..p4 as [p1, p2, p3], [p1, p3, p4]."""
    pairs = np.zeros((16, 2, 3, 2), dtype=np.intp)
    count = np.zeros(16, dtype=np.intp)
    for mask in range(1, 15):
        positive = [v for v in range(4) if mask >> v & 1]
        negative = [v for v in range(4) if not mask >> v & 1]
        if len(positive) == 1 or len(negative) == 1:
            apex = positive[0] if len(positive) == 1 else negative[0]
            tris = [[(apex, o) for o in range(4) if o != apex]]
        else:
            (a, b), (c, d) = positive, negative
            tris = [[(a, c), (a, d), (b, d)], [(a, c), (b, d), (b, c)]]
        pairs[mask, : len(tris)] = tris
        count[mask] = len(tris)
    return pairs, count


_CUT_PAIRS, _CUT_COUNT = _cut_table()


def _march(u, w, lo, hvec, degeneracy_scale):
    """Segments (m, 2, 3) of {u = w = 0} by Kuhn type, cell and triangle, and the
    number of tetrahedra with a cut triangle whose |w| < `degeneracy_scale`."""
    ns = np.array(u.shape) - 1

    def corner_code(positive):
        code = np.zeros(tuple(ns), dtype=np.uint8)
        for bit, (dx, dy, dz) in enumerate(itertools.product((0, 1), repeat=3)):
            code |= positive[dx : dx + ns[0], dy : dy + ns[1], dz : dz + ns[2]].astype(np.uint8) << bit
        return code.ravel()

    ucode, wcode = corner_code(u > 0), corner_code(w > 0)
    cells = np.nonzero((ucode % 255 != 0) & (wcode % 255 != 0))[0]
    umask, wmask = _TET_MASK[:, ucode[cells]], _TET_MASK[:, wcode[cells]]
    kind, sel = np.nonzero((umask % 15 != 0) & (wmask % 15 != 0))
    umask = umask[kind, sel]
    idx = np.stack(np.unravel_index(cells[sel], ns), axis=-1)[:, None, :] + _KUHN[kind]
    flat = np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), u.shape)
    uu, ww, pos = u.ravel()[flat], w.ravel()[flat], lo + idx * hvec

    # corners of every cut triangle: the zero of u on tetrahedron edge (i, j)
    row, slot = np.nonzero(np.arange(2) < _CUT_COUNT[umask][:, None])
    ij = _CUT_PAIRS[umask[row], slot]
    r, i, j = row[:, None], ij[..., 0], ij[..., 1]
    t = uu[r, i] / (uu[r, i] - uu[r, j])
    q = pos[r, i] + t[..., None] * (pos[r, j] - pos[r, i])
    wq = ww[r, i] + t * (ww[r, j] - ww[r, i])

    # triangle edge e joins corners e and e + 1; w changes sign on none or two
    cross = (wq > 0) != np.roll(wq > 0, -1, axis=1)
    keep = cross.any(axis=1)
    degenerate = np.unique(row[keep & (np.abs(wq).max(axis=1) < degeneracy_scale)]).size
    q, wq, cross = q[keep], wq[keep], cross[keep]
    a = np.stack([np.argmax(cross, axis=1), np.where(cross[:, 2], 2, 1)], axis=1)
    b, k = (a + 1) % 3, np.arange(len(q))[:, None]
    s = wq[k, a] / (wq[k, a] - wq[k, b])
    return q[k, a] + s[..., None] * (q[k, b] - q[k, a]), degenerate


def _stitch(segs, h):
    """Chains (points, closed) of segments joined where endpoint keys agree.

    Zero-length and repeated segments (exact grid/zero-set alignment makes
    neighboring tetrahedra emit coincident ones) are dropped, and with them
    gone there may be no chain at all; a chain grows from the second, then
    the first end along the first unused segment.
    """
    quant = 1e-6 * h
    keys = np.round(segs.reshape(-1, 3) / quant).astype(np.int64)
    node = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1, 2)
    lo, hi = node.min(axis=1), node.max(axis=1)
    live = np.nonzero(lo != hi)[0]
    first = np.unique(lo[live] * len(keys) + hi[live], return_index=True)[1]
    keep = live[np.sort(first)]
    if not len(keep):
        return []
    ends, node = segs[keep].reshape(-1, 3), node[keep].ravel().tolist()
    at = [[] for _ in range(max(node) + 1)]  # segment ends 2 si + e at each node, in order
    for e, n in enumerate(node):
        at[n].append(e)
    used = [False] * len(keep)
    chains = []
    for si in range(len(keep)):
        if used[si]:
            continue
        used[si] = True
        grown = []
        for end in (2 * si + 1, 2 * si):
            run = [end]
            while (e := next((e for e in at[node[run[-1]]] if not used[e >> 1]), None)) is not None:
                used[e >> 1] = True
                run.append(e ^ 1)
            grown.append(run[1:])
        pts = ends[grown[1][::-1] + [2 * si, 2 * si + 1] + grown[0]]
        closed = np.linalg.norm(pts[0] - pts[-1]) < 10 * quant
        if closed:
            pts = pts[:-1]
        chains.append((pts, closed))
    return chains


#: Newton stops once every residual |f| is at most this.
_TOL = 1e-9
#: Newton iterations per polish.
_MAX_ITER = 10
#: Central-difference step of a plain callable's Jacobians.
_FD_STEP = 1e-6
#: Chains with fewer vertices are dropped.
_MIN_VERTICES = 4


def _jacobians(fieldfn, pts):
    """Central-difference (M, 2, 3) Jacobians of (Re f, Im f), one field call."""
    shifted = pts + _FD_STEP * np.concatenate([np.eye(3), -np.eye(3)])[:, None, :]
    plus, minus = np.asarray(fieldfn(shifted.reshape(-1, 3))).reshape(2, 3, len(pts))
    d = (plus - minus).T / (2 * _FD_STEP)
    return np.stack([d.real, d.imag], axis=1)


def _values_and_jacobians(fieldfn, pts):
    """Values and (M, 2, 3) Jacobians of (Re f, Im f).

    A field with a ``jet`` attribute (x -> (f, grad f) with grad f in C^3)
    gives both from one call; a plain callable gets one call for the values
    and one central-difference call.
    """
    jet = getattr(fieldfn, "jet", None)
    if jet is None:
        return np.asarray(fieldfn(pts)), _jacobians(fieldfn, pts)
    vals, grad = jet(pts)
    return np.asarray(vals), np.stack([grad.real, grad.imag], axis=1)


#: Singular values at or below this fraction of the largest are dropped, as
#: by np.linalg.pinv(rcond=1e-8).
_RCOND = 1e-8


def _gram(jac):
    """Rows a, b of 2x3 Jacobians, the entries aa, ab, bb of their Gram matrix,
    |a x b| (the square root of its determinant, free of cancellation) and the
    largest singular value."""
    a, b = jac[:, 0], jac[:, 1]
    aa, ab, bb = (np.einsum("mi,mi->m", u, v) for u, v in ((a, a), (a, b), (b, b)))
    cross = np.linalg.norm(np.cross(a, b), axis=1)
    smax = np.sqrt(0.5 * (aa + bb + np.hypot(aa - bb, 2.0 * ab)))
    return a, b, aa, ab, bb, cross, smax


def _smallest_singular_values(jac):
    """sigma_min = |a x b| / sigma_max of each 2x3 Jacobian (0 for a zero one)."""
    *_, cross, smax = _gram(jac)
    return np.divide(cross, smax, out=np.zeros_like(cross), where=smax > 0)


def _least_norm_steps(jac, vals):
    """pinv(J) (Re f, Im f) per vertex in closed form.

    A full-rank J gives [a b] G^{-1} (Re f, Im f) with G^{-1} = adj(G) / |a x b|^2.
    Where sigma_min <= 1e-8 sigma_max the step is pinv's rank-1 one,
    J^T u (u . rhs) / sigma_max^2 with u the top eigenvector of G, and a zero
    Jacobian gives a zero step.
    """
    a, b, aa, ab, bb, cross, smax = _gram(jac)
    r0, r1 = vals.real, vals.imag
    full = cross > _RCOND * smax * smax
    det = np.where(full, cross * cross, 1.0)
    alpha = np.where(full, (bb * r0 - ab * r1) / det, 0.0)
    beta = np.where(full, (aa * r1 - ab * r0) / det, 0.0)
    low = ~full & (smax > 0)
    if low.any():
        lam = smax[low] ** 2
        # (G - lam) u = 0 from whichever row of G - lam is longer
        first = aa[low] >= bb[low]
        u0 = np.where(first, lam - bb[low], ab[low])
        u1 = np.where(first, ab[low], lam - aa[low])
        scale = (u0 * r0[low] + u1 * r1[low]) / ((u0 * u0 + u1 * u1) * lam)
        alpha[low], beta[low] = scale * u0, scale * u1
    return alpha[:, None] * a + beta[:, None] * b


def newton_polish(fieldfn, pts, *, max_step=math.inf):
    """Project points onto {f = 0} with least-norm Newton steps pinv(J) f.

    Each iteration takes the values and J from _values_and_jacobians: one
    jet call, or for a plain callable a value call and a central-difference
    call.  A vertex whose step would be longer than `max_step` stays where it
    is.  Returns the points, per vertex whether its residual there is within
    _TOL and no step of it was refused, and the (M, 2, 3) Jacobians there.
    Polish ends at the first evaluation with every residual within _TOL, or
    at the one after _MAX_ITER steps, so the flags and Jacobians always come
    from the returned points.
    """
    pts = np.array(pts, dtype=float)
    refused = np.zeros(len(pts), dtype=bool)
    for it in range(_MAX_ITER + 1):
        vals, jac = _values_and_jacobians(fieldfn, pts)
        if it == _MAX_ITER or np.max(np.abs(vals)) <= _TOL:
            break
        step = _least_norm_steps(jac, vals)
        far = np.linalg.norm(step, axis=1) > max_step
        refused |= far
        pts -= np.where(far[:, None], 0.0, step)
    return pts, (np.abs(vals) <= _TOL) & ~refused, jac


def extract_nodal(fieldfn, box, h: float) -> NodalSet:
    """Extract polyline components of {Re f = Im f = 0} inside a box.

    Curves whose endpoints meet are closed; curves reaching the box boundary
    are marked open.  Chains of fewer than _MIN_VERTICES vertices are
    dropped.  Vertices are Newton-polished with steps capped at h and carry
    margins, the smallest singular value of the real 2x3 Jacobian there; a
    curve is ``converged`` when every vertex is.  Jacobians come from the
    field's ``jet`` attribute when it has one, else from central
    differences.  The grid values come from the field's ``grid`` attribute,
    axes -> values of shape (n0, n1, n2) on axes[0] x axes[1] x axes[2],
    when it has one, else from one call on the grid's points.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"grid step h must be finite and positive, got {h!r}")
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    if not np.all(hi > lo):
        raise ValueError(f"box must have hi > lo on every axis, got lo {lo.tolist()} and hi {hi.tolist()}")
    ns = np.maximum(np.round((hi - lo) / h).astype(int), 2)
    axes = [np.linspace(lo[d], hi[d], ns[d] + 1) for d in range(3)]
    grid = getattr(fieldfn, "grid", None)
    if grid is not None:
        vals = np.asarray(grid(axes))
    else:
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        vals = np.asarray(fieldfn(points)).reshape(tuple(ns + 1))
    u = vals.real.copy()
    w = vals.imag.copy()
    u[u == 0] = 1e-300
    w[w == 0] = 1e-300
    scale = float(np.percentile(np.abs(vals), 95))
    degeneracy_scale = 1e-9 * max(scale, 1e-30)

    hvec = (hi - lo) / ns
    segs, degenerate = _march(u, w, lo, hvec, degeneracy_scale)

    curves = []
    boundary_tol = 1e-3 * h
    for pts, closed in _stitch(segs, float(np.min(hvec))):
        if len(pts) < _MIN_VERTICES:
            continue
        on_boundary = bool(
            np.any(pts <= lo + boundary_tol) or np.any(pts >= hi - boundary_tol)
        )
        pts, converged, jac = newton_polish(fieldfn, pts, max_step=h)
        margins = _smallest_singular_values(jac)
        curves.append(NodalCurve(pts, bool(closed and not on_boundary), margins, bool(converged.all())))
    curves.sort(key=lambda c: -len(c.vertices))
    return NodalSet(curves, degenerate)


def _vertices(c, name: str):
    """Curve `name`'s vertices, a finite (M, 3) array, and whether it is closed (a bare array is)."""
    p = c.vertices if isinstance(c, NodalCurve) else np.asarray(c, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError(f"{name}: vertices have shape {p.shape}, not (M, 3)")
    if not np.isfinite(p).all():
        raise ValueError(f"{name}: non-finite vertices")
    return p, c.closed if isinstance(c, NodalCurve) else True


def _closed_vertices(c, which: int) -> np.ndarray:
    """The vertices of closed curve `which` (1 or 2): a finite (M, 3) array, M >= 3."""
    p, closed = _vertices(c, f"curve {which}")
    if not closed:
        raise ValueError("linking_number requires closed curves")
    if len(p) < 3:
        raise ValueError(f"curve {which}: a closed curve needs at least 3 vertices, got {len(p)}")
    return p


def _vertex_gap(p1, p2) -> float:
    """The least distance between a vertex of p1 and a vertex of p2: the least
    over p1 of neighbours.nearest, from a search that starts at radius
    extent / (vertices of the larger set)."""
    from .neighbours import nearest

    p, q = (np.ascontiguousarray(x.T) for x in (p1, p2))
    extent = float((np.maximum(p.max(axis=1), q.max(axis=1)) - np.minimum(p.min(axis=1), q.min(axis=1))).max())
    return math.sqrt(nearest(p, q, extent / max(len(p1), len(p2))).min())


#: Segment pairs per block of the crossing search: a few planes of 2^13
#: doubles (64 KiB each) stay in a typical L2 cache.
_BLOCK_PAIRS = 1 << 13


#: Projection directions of the crossing search, tried in turn until one is
#: generic for the pair: no crossing within tolerance of degenerate and an even
#: signed count.
_DIRECTIONS = tuple(
    v / np.linalg.norm(v)
    for v in np.array(
        [[0.5263, -0.3127, 0.7911], [-0.2719, 0.8436, 0.4632], [0.7748, 0.4129, -0.4793], [0.1835, -0.6982, -0.6921]]
    )
)

#: Relative tolerance of the crossing search.  With L the largest coordinate
#: about the pair's centroid, an orientation within _CROSSING_TOL * L^2 of zero
#: is degenerate (the predicate rounds at about eps * L^2), and curves within
#: _CROSSING_TOL * L of each other intersect.
_CROSSING_TOL = 1e-10


def _frame(d) -> np.ndarray:
    """Rows e1, e2, d of a right-handed orthonormal frame whose third axis is the unit vector d."""
    x, y, z = (float(c) for c in d)
    # d x (1, 0, 0), or d x (0, 1, 0) when d is near the x axis
    u, v, w = (0.0, z, -y) if abs(x) < 0.9 else (-z, 0.0, x)
    norm = math.sqrt(u * u + v * v + w * w)
    u, v, w = u / norm, v / norm, w / norm
    return np.array([[u, v, w], [y * w - z * v, z * u - x * w, x * v - y * u], [x, y, z]])


def _orient(p, q, r):
    """Twice the signed area of the projected triangles (p, q, r), row by row."""
    return (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0])


def _segment_gaps(a, b, c, d):
    """The least distance between the 3-D segments [a, b] and [c, d], row by row.

    It is the least endpoint-to-segment distance, unless the closest points of
    the two lines lie inside both segments.
    """

    def to_segment(p, q, r):
        e = r - q
        t = np.clip(np.sum((p - q) * e, axis=1) / np.maximum(np.sum(e * e, axis=1), np.finfo(float).tiny), 0.0, 1.0)
        return np.linalg.norm(p - q - t[:, None] * e, axis=1)

    ends = np.minimum.reduce([to_segment(a, c, d), to_segment(b, c, d), to_segment(c, a, b), to_segment(d, a, b)])
    u, v, w = b - a, d - c, a - c
    uu, uv, vv = np.sum(u * u, axis=1), np.sum(u * v, axis=1), np.sum(v * v, axis=1)
    uw, vw = np.sum(u * w, axis=1), np.sum(v * w, axis=1)
    den = uu * vv - uv * uv
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (uv * vw - vv * uw) / den
        t = (uu * vw - uv * uw) / den
    inside = (den > 0) & (s >= 0) & (s <= 1) & (t >= 0) & (t <= 1)
    mid = np.linalg.norm(w + np.where(inside, s, 0)[:, None] * u - np.where(inside, t, 0)[:, None] * v, axis=1)
    return np.where(inside, np.minimum(ends, mid), ends)


def _successors(n: int, n1: int) -> np.ndarray:
    """The index of each vertex's successor along the closed polylines 0..n1-1 and n1..n-1."""
    nxt = np.arange(1, n + 1)
    nxt[[n1 - 1, n - 1]] = 0, n1
    return nxt


def _pieces(start: np.ndarray, span: np.ndarray, parts: np.ndarray):
    """(edge, piece starts) of edges start[e] -> start[e] + span[e], edge e cut into parts[e] equal pieces.

    Piece k of m starts at start + (k / m) span; `edge` names each piece's edge.
    """
    edge = np.repeat(np.arange(len(parts)), parts)
    frac = (np.arange(len(edge)) - np.repeat(np.cumsum(parts) - parts, parts)) / parts[edge]
    return edge, start[edge] + frac[:, None] * span[edge]


def _candidate_pairs(a, b, n1, pad):
    """(joined, blocks) of the crossing search over projected segments a[k] -> b[k].

    Segments k < n1 belong to the first curve.  For the search only, a
    segment whose projected box side exceeds 2 s is cut into
    ceil(side / (2 s)) equal pieces, with s the (upper) median side but at least an
    eighth of the mean side, so the pieces number at most 5 times the
    segments and a few long segments no longer make the grid coarse.  Each
    piece's box, padded by `pad`, lies in at most 2 x 2 cells of a grid whose
    cell is the largest piece side.  One sort of the second curve's cell keys
    and a searchsorted of the first's join the pieces that share a cell; a
    pair of overlapping boxes is kept only in the cell of its intersection's
    lower-left corner, so each piece pair is tested once.  `joined` counts
    the pairs that share a cell; `blocks` yields, per block of _BLOCK_PAIRS
    of them, the segment indices (i, j) of the overlapping ones, so a segment
    pair may come from several of its pieces.  Memory stays O(n + block).
    """
    start, span = a[:, :2], b[:, :2] - a[:, :2]
    side = np.abs(span).max(axis=1)
    half = len(side) // 2
    size = 2.0 * max(float(np.partition(side, half)[half]), float(side.sum()) / (8 * len(side)))
    seg = np.arange(len(a))
    long = np.flatnonzero(side > size)
    if len(long):
        # the pad covers the rounding of the pieces' ends
        parts = np.ones(len(a), np.int64)
        parts[long] = np.ceil(side[long] / size)
        seg, start = _pieces(start, span, parts)
        span = span[seg] / parts[seg, None]
    end = start + span
    lo, hi = np.minimum(start, end) - pad, np.maximum(start, end) + pad
    origin = lo.min(axis=0)
    extent = float((hi.max(axis=0) - origin).max())
    # a margin over the largest side keeps floor() from spanning three cells;
    # the floor on the cell keeps the keys inside int64
    cell = max(float((hi - lo).max()) * (1 + 1e-6), extent * 2.0**-30) or 1.0
    i0 = np.floor((lo - origin) / cell).astype(np.int64)
    i1 = np.floor((hi - origin) / cell).astype(np.int64)
    cx = np.stack([i0[:, 0], i0[:, 0], i1[:, 0], i1[:, 0]], axis=1)
    cy = np.stack([i0[:, 1], i1[:, 1], i0[:, 1], i1[:, 1]], axis=1)
    spans = i1 > i0
    own = np.stack([np.ones(len(seg), bool), spans[:, 1], spans[:, 0], spans[:, 0] & spans[:, 1]], axis=1)
    piece = np.broadcast_to(np.arange(len(seg))[:, None], own.shape)[own]
    cx, cy = cx[own], cy[own]
    key = cx * (int(i1[:, 1].max()) + 1) + cy
    first = seg[piece] < n1
    order = np.argsort(key[~first], kind="stable")
    key2, piece2 = key[~first][order], piece[~first][order]
    key1, piece1, cx1, cy1 = key[first], piece[first], cx[first], cy[first]
    left = np.searchsorted(key2, key1, side="left")
    counts = np.searchsorted(key2, key1, side="right") - left
    ends = np.cumsum(counts)
    joined = int(ends[-1]) if len(ends) else 0

    def blocks():
        for start in range(0, joined, _BLOCK_PAIRS):
            q = np.arange(start, min(start + _BLOCK_PAIRS, joined))
            e = np.searchsorted(ends, q, side="right")
            i, j = piece1[e], piece2[left[e] + q - (ends[e] - counts[e])]
            keep = (
                (np.maximum(i0[i, 0], i0[j, 0]) == cx1[e])
                & (np.maximum(i0[i, 1], i0[j, 1]) == cy1[e])
                & (lo[i] <= hi[j]).all(axis=1)
                & (lo[j] <= hi[i]).all(axis=1)
            )
            yield seg[i[keep]], seg[j[keep]]

    return joined, blocks()


def _projected_crossings(x, n1, frame, scale) -> int | None:
    """Signed crossings of the projection of closed polylines x[:n1] and x[n1:] along frame[2].

    The count is twice the linking number; it is None when a crossing is
    within tolerance of degenerate or the count is odd, so another direction
    must decide.  Curves that meet raise ValueError("curves intersect").
    The candidate segment pairs come from _candidate_pairs; a crossing found
    through several pieces of a split segment is counted once.
    """
    y = x @ frame.T
    a, b = y, y[_successors(len(x), n1)]
    tol = _CROSSING_TOL * scale * scale
    gap_tol = _CROSSING_TOL * scale
    keys, signs = [], []
    generic = True
    for i, j in _candidate_pairs(a, b, n1, gap_tol)[1]:
        pa, pb, pc, pd = a[i], b[i], a[j], b[j]
        o1, o2, o3, o4 = _orient(pc, pd, pa), _orient(pc, pd, pb), _orient(pa, pb, pc), _orient(pa, pb, pd)
        apart = (
            ((o1 > tol) & (o2 > tol))
            | ((o1 < -tol) & (o2 < -tol))
            | ((o3 > tol) & (o4 > tol))
            | ((o3 < -tol) & (o4 < -tol))
        )
        near = ~apart & (np.minimum(np.minimum(abs(o1), abs(o2)), np.minimum(abs(o3), abs(o4))) <= tol)
        if near.any():
            if (_segment_gaps(pa[near], pb[near], pc[near], pd[near]) <= gap_tol).any():
                raise ValueError("curves intersect")
            generic = False
        cut = ~apart & ~near
        # o1 - o2 is the cross product of the projected segments ab and cd
        turn = o1[cut] - o2[cut]
        s, t = o1[cut] / turn, o3[cut] / (o3[cut] - o4[cut])
        above = pa[cut, 2] + s * (pb[cut, 2] - pa[cut, 2]) - pc[cut, 2] - t * (pd[cut, 2] - pc[cut, 2])
        if (np.abs(above) <= gap_tol).any():
            raise ValueError("curves intersect")
        keys.append(i[cut] * len(x) + j[cut])
        signs.append(np.sign(turn) * np.sign(above))
    keys, signs = np.concatenate(keys or [[]]), np.concatenate(signs or [[]])
    total = -int(signs[np.unique(keys, return_index=True)[1]].sum())
    return total if generic and total % 2 == 0 else None


def _crossing_count(p1, p2, directions) -> int:
    """Twice the linking number, from the first generic projection along `directions`."""
    x = np.concatenate([p1, p2])
    x = x - x.mean(axis=0)
    scale = float(np.abs(x).max())
    for d in directions:
        total = _projected_crossings(x, len(p1), _frame(d), scale)
        if total is not None:
            return total
    raise ValueError("no projection direction is generic for these curves")


def linking_number(c1, c2, min_separation: float | None = None) -> int:
    """Integer linking number of two disjoint closed curves.

    It is half the signed crossing count of a projection along the first of
    a few fixed directions that is generic for the pair; see
    _projected_crossings.  Curves that meet raise ValueError("curves
    intersect").  With `min_separation`, curves whose least vertex distance is
    below it are refused first.
    """
    p1, p2 = _closed_vertices(c1, 1), _closed_vertices(c2, 2)
    if min_separation is not None:
        gap = _vertex_gap(p1, p2)
        if gap < min_separation:
            raise ValueError(f"curves are too close to link reliably (gap {gap:.3e})")
    return _crossing_count(p1, p2, _DIRECTIONS) // 2


def projected_crossing_number(c1, c2, seed: int = 0) -> int:
    """Signed crossings of a projection along a seeded random direction; equals the linking number.

    Raises ValueError when that direction is not generic for the pair.
    """
    d = np.random.default_rng(seed).normal(size=3)
    return _crossing_count(_closed_vertices(c1, 1), _closed_vertices(c2, 2), [d / np.linalg.norm(d)]) // 2


def _densify(p: np.ndarray, closed: bool, step: float) -> np.ndarray:
    """Each edge split into ceil(length / step) equal parts (at least one)."""
    last = len(p) if closed else len(p) - 1
    a = p[:last]
    diff = p[(np.arange(last) + 1) % len(p)] - a
    k = np.maximum(1, np.ceil(np.linalg.norm(diff, axis=1) / step)).astype(int)
    out = _pieces(a, diff, k)[1]
    return out if closed else np.concatenate([out, p[-1:]])


def hausdorff_dist(curve_a, curve_b, densify_step: float | None = None) -> float:
    """Symmetric Hausdorff distance between two polylines, each densified so
    that no edge is longer than `densify_step`.

    Curves are NodalCurves or (M, 3) vertex arrays, which count as closed; an
    open curve keeps its ends.  The default step is 0.005 times the largest
    coordinate range of either curve.  The distance is exact for the
    densified vertex sets, from neighbours.extreme.
    """
    from .neighbours import extreme

    pa, ca = _vertices(curve_a, "curve_a")
    pb, cb = _vertices(curve_b, "curve_b")
    for name, p in (("curve_a", pa), ("curve_b", pb)):
        if not len(p):
            raise ValueError(f"{name}: no vertices")
    if densify_step is None:
        densify_step = 0.005 * max(np.ptp(pa, axis=0).max(), np.ptp(pb, axis=0).max(), 1e-12)
    elif not (math.isfinite(densify_step) and densify_step > 0):
        raise ValueError(f"densify_step must be finite and positive, got {densify_step!r}")
    a, b = (np.ascontiguousarray(_densify(p, c, densify_step).T) for p, c in ((pa, ca), (pb, cb)))
    # H is at least the largest offset between matching faces of the two
    # bounding boxes, and where the curves are near copies of each other most
    # nearest-neighbour distances lie just under H, so the first join reaches
    # just past it; at most 4 steps, so that its cells hold a few dozen points
    bound = max(float(np.abs(a.max(axis=1) - b.max(axis=1)).max()), float(np.abs(a.min(axis=1) - b.min(axis=1)).max()))
    return extreme(a, b, max(densify_step, min(1.25 * bound, 4.0 * densify_step)))


def curves_to_json(curves) -> str:
    return json.dumps({"curves": [c.to_dict() for c in curves]}, sort_keys=True)


def curves_from_json(s: str):
    return [NodalCurve.from_dict(d) for d in json.loads(s)["curves"]]


def curves_to_ply(curves, comment: str = "") -> str:
    """ASCII PLY with vertices and polyline edges."""
    sizes = [len(c.vertices) for c in curves]
    verts = np.concatenate([c.vertices.reshape(-1, 3) for c in curves]) if curves else np.empty((0, 3))
    # vertex i joins i + 1, except that a closed curve's last vertex joins its
    # first and an open curve's last vertex starts no edge
    head = np.arange(len(verts))
    tail = head + 1
    keep = np.ones(len(verts), dtype=bool)
    for c, end, m in zip(curves, np.cumsum(sizes), sizes):
        if m and c.closed:
            tail[end - 1] = end - m
        elif m:
            keep[end - 1] = False
    edges = np.stack([head[keep], tail[keep]], axis=1)
    lines = ["ply", "format ascii 1.0"]
    if comment:
        lines.append(f"comment {comment}")
    lines += [
        f"element vertex {len(verts)}",
        "property float x",
        "property float y",
        "property float z",
        f"element edge {len(edges)}",
        "property int vertex1",
        "property int vertex2",
        "end_header",
    ]
    return (
        "\n".join(lines)
        + "\n"
        + ("%.17g %.17g %.17g\n" * len(verts)) % tuple(verts.ravel().tolist())
        + ("%d %d\n" * len(edges)) % tuple(edges.ravel().tolist())
    )
