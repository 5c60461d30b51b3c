"""Codimension-2 nodal curves of complex fields on 3D boxes.

Extraction runs marching tetrahedra on the Kuhn (6 tets per cube, shared
main diagonal) decomposition: inside each tetrahedron the real part's zero
set is a triangle or quad by linear interpolation, and the imaginary part
cut through it yields at most one segment per triangle, so there are no
ambiguous cases.  Segments are stitched into polylines by quantized
endpoint matching, then Newton-polished onto the true zero set with the
pseudo-inverse of the 2x3 Jacobian.

The linking number of two closed polylines uses the exact solid-angle form
of the Gauss integral for segment pairs; a signed-crossing count of a
projection is available as an independent cross-check.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree


@dataclass
class NodalCurve:
    """Oriented polyline (closed curves do not repeat the first vertex)."""

    vertices: np.ndarray
    closed: bool
    margins: np.ndarray = field(default=None)
    stable: bool | None = field(default=None, compare=False)

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


_KUHN = []
for _perm in itertools.permutations(range(3)):
    _v = [np.zeros(3, dtype=int)]
    _acc = np.zeros(3, dtype=int)
    for _p in _perm:
        _acc = _acc + np.eye(3, dtype=int)[_p]
        _v.append(_acc.copy())
    _KUHN.append(np.array(_v))


def _tet_segments(pos, u, w, degeneracy_scale):
    """Segments of {u=0, w=0} in one tetrahedron; returns (segments, degenerate)."""
    positive = [i for i in range(4) if u[i] > 0]
    negative = [i for i in range(4) if u[i] <= 0]
    if not positive or not negative:
        return [], False

    def epoint(i, j):
        t = u[i] / (u[i] - u[j])
        return pos[i] + t * (pos[j] - pos[i]), w[i] + t * (w[j] - w[i])

    if len(positive) == 1 or len(negative) == 1:
        apex = positive[0] if len(positive) == 1 else negative[0]
        tris = [[epoint(apex, o) for o in range(4) if o != apex]]
    else:
        a, b = positive
        c, d = negative
        p1, p2, p3, p4 = epoint(a, c), epoint(a, d), epoint(b, d), epoint(b, c)
        tris = [[p1, p2, p3], [p1, p3, p4]]

    segs = []
    degenerate = False
    for tri in tris:
        crossings = []
        wvals = [t[1] for t in tri]
        for i in range(3):
            (qi, wi), (qj, wj) = tri[i], tri[(i + 1) % 3]
            if (wi > 0) != (wj > 0):
                s = wi / (wi - wj)
                crossings.append(qi + s * (qj - qi))
        if len(crossings) == 2:
            segs.append((crossings[0], crossings[1]))
            if max(abs(x) for x in wvals) < degeneracy_scale:
                degenerate = True
    return segs, degenerate


def _stitch(segs, h):
    quant = 1e-6 * h

    def key(p):
        return tuple(np.round(p / quant).astype(np.int64))

    # drop zero-length segments and duplicates (exact grid/zero-set alignment
    # makes neighboring tetrahedra emit coincident segments)
    seen = set()
    unique = []
    for a, b in segs:
        ka, kb = key(a), key(b)
        if ka == kb:
            continue
        sig = (ka, kb) if ka < kb else (kb, ka)
        if sig in seen:
            continue
        seen.add(sig)
        unique.append((a, b))
    segs = unique

    adjacency = {}
    for si, (a, b) in enumerate(segs):
        adjacency.setdefault(key(a), []).append((si, 0))
        adjacency.setdefault(key(b), []).append((si, 1))
    used = set()
    chains = []
    for si in range(len(segs)):
        if si in used:
            continue
        used.add(si)
        chain = [segs[si][0], segs[si][1]]
        for grow_end in (1, 0):
            while True:
                p = chain[-1] if grow_end == 1 else chain[0]
                cands = [c for c in adjacency.get(key(p), []) if c[0] not in used]
                if not cands:
                    break
                sj, endj = cands[0]
                used.add(sj)
                nxt = segs[sj][1 - endj]
                if grow_end == 1:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
        pts = np.array(chain)
        closed = np.linalg.norm(pts[0] - pts[-1]) < 10 * quant
        if closed:
            pts = pts[:-1]
        chains.append((pts, closed))
    return chains


def _jacobians(fieldfn, pts, step):
    """Central-difference (M, 2, 3) Jacobians of (Re f, Im f), one field call."""
    shifted = pts + step * np.concatenate([np.eye(3), -np.eye(3)])[:, None, :]
    plus, minus = np.asarray(fieldfn(shifted.reshape(-1, 3))).reshape(2, 3, len(pts))
    d = (plus - minus).T / (2 * step)
    return np.stack([d.real, d.imag], axis=1)


def newton_polish(fieldfn, pts, tol=1e-9, max_iter=10, fd_step=1e-6):
    """Project points onto {f = 0} with pseudo-inverse Newton steps."""
    pts = np.array(pts, dtype=float)
    for _ in range(max_iter):
        vals = np.asarray(fieldfn(pts))
        if np.max(np.abs(vals)) <= tol:
            break
        jac = _jacobians(fieldfn, pts, fd_step)
        rhs = np.stack([vals.real, vals.imag], axis=-1)
        pts -= (np.linalg.pinv(jac, rcond=1e-8) @ rhs[:, :, None])[:, :, 0]
    return pts


def extract_nodal(
    fieldfn,
    box,
    h: float,
    polish: bool = True,
    min_vertices: int = 4,
    margin_step: float = 1e-6,
) -> NodalSet:
    """Extract polyline components of {Re f = Im f = 0} inside a box.

    Curves whose endpoints meet are closed; curves reaching the box boundary
    are marked open.  Vertices carry stability margins (smallest singular
    value of the real 2x3 Jacobian); a curve's ``stable`` flag compares the
    worst margin against 10 * h * (local Lipschitz estimate of df).
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"grid step h must be finite and positive, got {h!r}")
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    ns = np.maximum(np.round((hi - lo) / h).astype(int), 2)
    axes = [np.linspace(lo[d], hi[d], ns[d] + 1) for d in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = np.asarray(fieldfn(grid.reshape(-1, 3))).reshape(grid.shape[:3])
    u = vals.real.copy()
    w = vals.imag.copy()
    u[u == 0] = 1e-300
    w[w == 0] = 1e-300
    scale = float(np.percentile(np.abs(vals), 95))
    degeneracy_scale = 1e-9 * max(scale, 1e-30)

    ii, jj, kk = np.meshgrid(*(np.arange(n) for n in ns), indexing="ij")
    bases = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3)
    hvec = (hi - lo) / ns
    segs = []
    degenerate = 0
    for tet in _KUHN:
        idx = bases[:, None, :] + tet[None, :, :]
        uu = u[idx[..., 0], idx[..., 1], idx[..., 2]]
        ww = w[idx[..., 0], idx[..., 1], idx[..., 2]]
        active = ~(
            np.all(uu > 0, axis=1)
            | np.all(uu < 0, axis=1)
            | np.all(ww > 0, axis=1)
            | np.all(ww < 0, axis=1)
        )
        pos = lo + idx * hvec
        for c in np.nonzero(active)[0]:
            s, dg = _tet_segments(pos[c], uu[c], ww[c], degeneracy_scale)
            segs.extend(s)
            degenerate += dg

    curves = []
    boundary_tol = 1e-3 * h
    for pts, closed in _stitch(segs, float(np.min(hvec))):
        if len(pts) < min_vertices:
            continue
        on_boundary = bool(
            np.any(pts <= lo + boundary_tol) or np.any(pts >= hi - boundary_tol)
        )
        if polish:
            pts = newton_polish(fieldfn, pts)
        jac = _jacobians(fieldfn, pts, margin_step)
        margins = np.linalg.svd(jac, compute_uv=False)[:, -1]
        curve = NodalCurve(pts, bool(closed and not on_boundary), margins)
        dj = np.linalg.norm(
            (jac - np.roll(jac, 1, axis=0)).reshape(len(pts), -1), axis=1
        )
        dx = np.linalg.norm(pts - np.roll(pts, 1, axis=0), axis=1)
        ok = dx > 1e-12
        lip = float(np.max(dj[ok] / dx[ok])) if np.any(ok) else 0.0
        curve.stable = bool(margins.min() > 10.0 * h * lip)
        curves.append(curve)
    curves.sort(key=lambda c: -len(c.vertices))
    return NodalSet(curves, degenerate, h)


def stability_margin(fieldfn, curve: NodalCurve, fd_step: float = 1e-6) -> float:
    """Minimum over vertices of the smallest singular value of the Jacobian."""
    vals = np.asarray(fieldfn(curve.vertices))
    if np.max(np.abs(vals)) > 1e-6:
        raise ValueError("curve vertices must lie on the zero set of the field")
    jac = _jacobians(fieldfn, curve.vertices, fd_step)
    return float(np.linalg.svd(jac, compute_uv=False)[:, -1].min())


def _as_closed_vertices(c) -> np.ndarray:
    if isinstance(c, NodalCurve):
        if not c.closed:
            raise ValueError("linking_number requires closed curves")
        return c.vertices
    return np.asarray(c, dtype=float)


def gauss_linking_integral(p1, p2) -> float:
    """Exact Gauss integral for polyline pairs (sum of segment solid angles)."""
    a0 = p1
    da = np.roll(p1, -1, axis=0) - p1
    c0 = p2
    dc = np.roll(p2, -1, axis=0) - p2
    total = 0.0
    for i in range(len(a0)):
        a = a0[i]
        b = a0[i] + da[i]
        r1 = a - c0
        r2 = b - c0
        r3 = b - (c0 + dc)
        r4 = a - (c0 + dc)
        n1 = np.linalg.norm(r1, axis=1)
        n2 = np.linalg.norm(r2, axis=1)
        n3 = np.linalg.norm(r3, axis=1)
        n4 = np.linalg.norm(r4, axis=1)
        triple = np.einsum("ij,ij->i", r1, np.cross(r2, r3))
        d1 = (
            n1 * n2 * n3
            + np.einsum("ij,ij->i", r1, r2) * n3
            + np.einsum("ij,ij->i", r2, r3) * n1
            + np.einsum("ij,ij->i", r3, r1) * n2
        )
        d2 = (
            n1 * n4 * n3
            + np.einsum("ij,ij->i", r1, r4) * n3
            + np.einsum("ij,ij->i", r4, r3) * n1
            + np.einsum("ij,ij->i", r3, r1) * n4
        )
        total += float(np.sum(np.arctan2(triple, d1) + np.arctan2(triple, d2)))
    return total / (2.0 * math.pi)


def linking_number(c1, c2, min_separation: float | None = None) -> int:
    """Integer linking number of two disjoint closed curves.

    The Gauss integral must land within 0.1 of an integer, otherwise the
    configuration is reported as ambiguous.
    """
    p1 = _as_closed_vertices(c1)
    p2 = _as_closed_vertices(c2)
    gap = float(cKDTree(p2).query(p1)[0].min())
    if min_separation is not None and gap < min_separation:
        raise ValueError(f"curves are too close to link reliably (gap {gap:.3e})")
    if gap == 0.0:
        raise ValueError("curves intersect")
    val = gauss_linking_integral(p1, p2)
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
    out = []
    m = len(p)
    last = m if closed else m - 1
    for i in range(last):
        a = p[i]
        b = p[(i + 1) % m]
        seg = np.linalg.norm(b - a)
        k = max(1, int(math.ceil(seg / step)))
        for t in range(k):
            out.append(a + (t / k) * (b - a))
    if not closed:
        out.append(p[-1])
    return np.array(out)


def hausdorff_dist(curve_a, curve_b, densify_step: float | None = None) -> float:
    """Symmetric Hausdorff distance between two polylines (densified)."""
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
