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

The linking number of two closed polylines uses the exact solid-angle form
of the Gauss integral for segment pairs, summed over blocks of rows; a
signed-crossing count of a projection is available as an independent
cross-check.
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
    h: float = 0.0

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
    return NodalSet(curves, degenerate, h)


def _as_closed_vertices(c) -> np.ndarray:
    if isinstance(c, NodalCurve):
        if not c.closed:
            raise ValueError("linking_number requires closed curves")
        return c.vertices
    return np.asarray(c, dtype=float)


def _gauss_blocks(p1, p2) -> tuple[float, float]:
    """Gauss integral of two closed polylines and the least vertex distance.

    Segments i and j see r1..r4 = d[i, j], d[i+1, j], d[i+1, j+1], d[i, j+1] with
    d = p1[:, None] - p2, so each block of rows reads them, their norms and
    neighbour products as shifts of one block of d.  The norms cover every
    vertex pair, so their minimum is the gap between the vertex sets.
    """
    a, c = (np.concatenate([p, p[:1]]) for p in (np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)))
    rows = max(1, (1 << 16) // len(c))
    total = 0.0
    gap = math.inf
    for s in range(0, len(p1), rows):
        d = a[s : s + rows + 1, None, :] - c[None, :, :]
        n = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
        gap = min(gap, float(n.min()))
        down = np.einsum("ijk,ijk->ij", d[:-1], d[1:])
        right = np.einsum("ijk,ijk->ij", d[:, :-1], d[:, 1:])
        r1, r3 = d[:-1, :-1], d[1:, 1:]
        triple = np.einsum("ijk,ijk->ij", r1, np.cross(d[1:, :-1], r3))
        r31 = np.einsum("ijk,ijk->ij", r3, r1)
        n1, n2, n3, n4 = n[:-1, :-1], n[1:, :-1], n[1:, 1:], n[:-1, 1:]
        d1 = n1 * n2 * n3 + down[:, :-1] * n3 + right[1:] * n1 + r31 * n2
        d2 = n1 * n4 * n3 + right[:-1] * n3 + down[:, 1:] * n1 + r31 * n4
        total += float(np.sum(np.arctan2(triple, d1) + np.arctan2(triple, d2)))
    return total / (2.0 * math.pi), gap


def gauss_linking_integral(p1, p2) -> float:
    """Exact Gauss integral for polyline pairs (sum of segment solid angles)."""
    return _gauss_blocks(p1, p2)[0]


def linking_number(c1, c2, min_separation: float | None = None) -> int:
    """Integer linking number of two disjoint closed curves.

    The Gauss integral must land within 0.1 of an integer, otherwise the
    configuration is reported as ambiguous.
    """
    val, gap = _gauss_blocks(_as_closed_vertices(c1), _as_closed_vertices(c2))
    if min_separation is not None and gap < min_separation:
        raise ValueError(f"curves are too close to link reliably (gap {gap:.3e})")
    if gap == 0.0:
        raise ValueError("curves intersect")
    nearest = round(val)
    if abs(val - nearest) > 0.1:
        raise ValueError(f"Gauss integral {val:.4f} is not within 0.1 of an integer")
    return int(nearest)


def projected_crossing_number(c1, c2, direction=None, seed: int = 0) -> int:
    """Signed crossings of a generic planar projection; equals the linking number."""
    p1 = _as_closed_vertices(c1)
    p2 = _as_closed_vertices(c2)
    rng = np.random.default_rng(seed)
    d = np.asarray(direction, dtype=float) if direction is not None else rng.normal(size=3)
    d = d / np.linalg.norm(d)
    tmp = np.array([1.0, 0, 0]) if abs(d[0]) < 0.9 else np.array([0, 1.0, 0])
    e1 = np.cross(d, tmp)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)

    def project(p):
        return np.stack([p @ e1, p @ e2], axis=-1), p @ d

    q1, z1 = project(p1)
    q2, z2 = project(p2)
    total = 0
    for i in range(len(q1)):
        a, b = q1[i], q1[(i + 1) % len(q1)]
        za, zb = z1[i], z1[(i + 1) % len(q1)]
        for j in range(len(q2)):
            c, dd = q2[j], q2[(j + 1) % len(q2)]
            zc, zd = z2[j], z2[(j + 1) % len(q2)]
            m = np.array([b - a, -(dd - c)]).T
            det = np.linalg.det(m)
            if abs(det) < 1e-14:
                continue
            st = np.linalg.solve(m, c - a)
            s, t = st
            if 0 <= s <= 1 and 0 <= t <= 1:
                h1 = za + s * (zb - za)
                h2 = zc + t * (zd - zc)
                t1 = b - a
                t2 = dd - c
                sign = np.sign(t1[0] * t2[1] - t1[1] * t2[0])
                total += int(-sign if h1 > h2 else sign)
    return total // 2


def _densify(p: np.ndarray, closed: bool, step: float) -> np.ndarray:
    """Each edge split into ceil(length / step) equal parts (at least one)."""
    last = len(p) if closed else len(p) - 1
    a = p[:last]
    diff = p[(np.arange(last) + 1) % len(p)] - a
    k = np.maximum(1, np.ceil(np.linalg.norm(diff, axis=1) / step)).astype(int)
    edge = np.repeat(np.arange(last), k)
    frac = (np.arange(len(edge)) - np.repeat(np.cumsum(k) - k, k)) / k[edge]
    out = a[edge] + frac[:, None] * diff[edge]
    return out if closed else np.concatenate([out, p[-1:]])


def hausdorff_dist(curve_a, curve_b, densify_step: float | None = None) -> float:
    """Symmetric Hausdorff distance between two polylines (densified)."""
    from scipy.spatial import cKDTree

    pa = curve_a.vertices if isinstance(curve_a, NodalCurve) else np.asarray(curve_a, dtype=float)
    pb = curve_b.vertices if isinstance(curve_b, NodalCurve) else np.asarray(curve_b, dtype=float)
    ca = curve_a.closed if isinstance(curve_a, NodalCurve) else True
    cb = curve_b.closed if isinstance(curve_b, NodalCurve) else True
    if densify_step is None:
        scale = max(np.ptp(pa, axis=0).max(), np.ptp(pb, axis=0).max(), 1e-12)
        densify_step = 0.005 * scale
    pa = _densify(pa, ca, densify_step)
    pb = _densify(pb, cb, densify_step)
    d1 = cKDTree(pb).query(pa)[0].max()
    d2 = cKDTree(pa).query(pb)[0].max()
    return float(max(d1, d2))


def curves_to_json(curves, extra: dict | None = None) -> str:
    doc = {"curves": [c.to_dict() for c in curves]}
    if extra:
        doc.update(extra)
    return json.dumps(doc, sort_keys=True)


def curves_from_json(s: str):
    return [NodalCurve.from_dict(d) for d in json.loads(s)["curves"]]


def curves_to_ply(curves, comment: str = "") -> str:
    """ASCII PLY with vertices and polyline edges."""
    verts = []
    edges = []
    offset = 0
    for c in curves:
        m = len(c.vertices)
        verts.extend(c.vertices.tolist())
        for i in range(m - 1):
            edges.append((offset + i, offset + i + 1))
        if c.closed:
            edges.append((offset + m - 1, offset))
        offset += m
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
    for v in verts:
        lines.append(" ".join(f"{x:.17g}" for x in v))
    for a, b in edges:
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"
