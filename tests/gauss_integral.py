"""The exact Gauss linking integral of two closed polylines: the tests' oracle
for nodal.linking_number.

The linking number is half the signed crossing count of a generic
projection (nodal._projected_crossings).  The Gauss integral is a second,
independent derivation: it sums the solid angle of every segment pair, so it
needs no projection and no search, and it is an integer up to rounding only
for disjoint closed curves.  It was the package's linking number before the
crossing search; it is kept here, in blocks of about PAIRS segment pairs,
for the tests to agree with.
"""

import math

import numpy as np

#: Segment pairs per block: planes of 2^13 doubles (64 KiB) stay in a typical L2 cache.
PAIRS = 1 << 13


def _dot(u, v):
    """u . v for vectors given as three coordinate planes."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def gauss_blocks(p1, p2) -> tuple[float, float]:
    """Gauss integral of two closed polylines and the least vertex distance.

    Segments i and j see r1..r4 = d[i, j], d[i+1, j], d[i+1, j+1], d[i, j+1] with
    d = p1[:, None] - p2, and their solid angle is the exact segment-pair form
    (Klenin & Langowski, Biopolymers 54 (2000)).  Each block of rows holds d as
    three coordinate planes of about PAIRS entries, so r1..r4, their norms and
    the neighbour products are shifted views of those planes.  The norms cover
    every vertex pair, so their minimum is the gap between the vertex sets.
    """
    a, c = (np.concatenate([p, p[:1]]) for p in (np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)))
    rows = max(1, PAIRS // len(c))
    total = 0.0
    gap = math.inf
    for s in range(0, len(p1), rows):
        d = [np.subtract.outer(a[s : s + rows + 1, i], c[:, i]) for i in range(3)]
        n = np.sqrt(_dot(d, d))
        gap = min(gap, float(n.min()))
        down = _dot([x[:-1] for x in d], [x[1:] for x in d])
        right = _dot([x[:, :-1] for x in d], [x[:, 1:] for x in d])
        r1, r2, r3 = [x[:-1, :-1] for x in d], [x[1:, :-1] for x in d], [x[1:, 1:] for x in d]
        cross = [r2[1] * r3[2] - r2[2] * r3[1], r2[2] * r3[0] - r2[0] * r3[2], r2[0] * r3[1] - r2[1] * r3[0]]
        triple = _dot(r1, cross)
        r31 = _dot(r3, r1)
        n1, n2, n3, n4 = n[:-1, :-1], n[1:, :-1], n[1:, 1:], n[:-1, 1:]
        d1 = n1 * n2 * n3 + down[:, :-1] * n3 + right[1:] * n1 + r31 * n2
        d2 = n1 * n4 * n3 + right[:-1] * n3 + down[:, 1:] * n1 + r31 * n4
        total += float(np.sum(np.arctan2(triple, d1) + np.arctan2(triple, d2)))
    return total / (2.0 * math.pi), gap


def gauss_linking_integral(p1, p2) -> float:
    """Exact Gauss integral for polyline pairs (sum of segment solid angles)."""
    return gauss_blocks(p1, p2)[0]
