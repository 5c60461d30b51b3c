"""Exact nearest-neighbour search between two point sets in R^3.

nodal.hausdorff_dist and the least vertex gap of nodal.linking_number read
their distances here; nodal imports this module on their first call, so
commands that never measure a distance do not compile it.  Points are
(3, n) coordinate planes.

The join is the crossing search's: cells of side 2 r, one sort of one set's
cell keys and a searchsorted of the 2 x 2 x 2 block of cells around each
point of the other set, which holds its r-ball.  A point with a candidate
within r is settled.  The points left are searched coarse to fine, one
point standing for each cell, since the distance to a set moves no faster
than the point; only points that could set the extreme are searched
exactly, at growing radii.  That is the early break of Taha & Hanbury
(IEEE TPAMI 37 (2015)) for whole cells of points.  Distances are
sqrt(dx*dx + dy*dy + dz*dz) on coordinate planes, so they equal an all-pairs
minimum, and scipy's cKDTree, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


#: Point pairs per block: a few planes of 2^13 doubles (64 KiB each) stay in
#: a typical L2 cache, as in the crossing search.
PAIRS = 1 << 13


def cell_keys(planes, origin, cell, dim, shift=0.0):
    """Keys of the cells floor((x - origin) / cell - shift) + 1 of points given as (3, n) coordinate planes."""
    idx = np.floor((planes - origin[:, None]) / cell - shift).astype(np.int64)
    return (idx[0] * dim + idx[1]) * dim + idx[2] + (dim * dim + dim + 1)


def join(query, data, radius: float):
    """The candidate pairs of two point sets, given as (3, n) and (3, m)
    coordinate planes: the least squared distance over them from each query
    point and from each data point (inf where there is none), and the radius
    r they cover, for every pair within r (1 - 1e-6) is a candidate.

    Cells of side 2 r put the r-ball about a query inside the 2 x 2 x 2 block
    of cells nearest to it: 4 runs of 2 consecutive keys, which one sort of
    the data's keys and a searchsorted join, as nodal's crossing search joins
    segments.  r is `radius`, or 2^-21 of the extent if that is larger, which
    keeps the keys inside int64 and the rounding of cell coordinates far
    inside the margin.  The squared distances dx*dx + dy*dy + dz*dz are taken
    on coordinate planes in blocks of PAIRS pairs, so memory stays
    O(n + m + block) even when every point shares one cell.
    """
    origin = np.minimum(query.min(axis=1), data.min(axis=1))
    extent = float((np.maximum(query.max(axis=1), data.max(axis=1)) - origin).max())
    cell = max(2.0 * radius, extent * 2.0**-20) or 1.0
    dim = int(extent / cell) + 3
    key = cell_keys(data, origin, cell, dim)
    order = np.argsort(key, kind="stable")
    key, data = key[order], data[:, order]
    # queries in key order, so that each of the 4 rows of runs is sorted
    base = cell_keys(query, origin, cell, dim, 0.5)
    rank = np.argsort(base, kind="stable")
    query = query[:, rank]
    runs = (base[rank] + np.array([[0], [dim], [dim * dim], [dim * dim + dim]])).ravel()
    left = np.searchsorted(key, runs)
    counts = np.searchsorted(key, runs + 2) - left
    ends = np.cumsum(counts)
    begins = ends - counts
    # pair t of run r joins query r mod n to the data point at t + left[r] - begins[r]
    owner, offset = np.tile(np.arange(len(rank)), 4), left - begins
    near, far = np.full(len(rank), np.inf), np.full(len(order), np.inf)
    total = int(ends[-1])
    for start in range(0, total, PAIRS):
        stop = min(start + PAIRS, total)
        first, last = np.searchsorted(ends, (start, stop - 1), side="right")
        sizes = np.minimum(ends[first : last + 1], stop) - np.maximum(begins[first : last + 1], start)
        i = np.repeat(owner[first : last + 1], sizes)
        j = np.arange(start, stop) + np.repeat(offset[first : last + 1], sizes)
        dx, dy, dz = (query[a][i] - data[a][j] for a in range(3))
        d2 = dx * dx + dy * dy + dz * dz
        np.minimum.at(near, i, d2)
        np.minimum.at(far, j, d2)
    out = np.empty_like(near), np.empty_like(far)
    out[0][rank], out[1][order] = near, far
    return out[0], out[1], 0.5 * cell


def nearest(p, q, radius: float):
    """Squared distance from each point of p to the nearest point of q, both
    (3, n) coordinate planes.  A point with a candidate within the radius a
    join covers is settled; the rest are joined again at twice the radius, or
    at the largest distance seen for them if that is less."""
    best, todo = np.full(p.shape[1], np.inf), np.arange(p.shape[1])
    while len(todo):
        near, _, r = join(p[:, todo], q, radius)
        best[todo] = np.minimum(best[todo], near)
        todo = todo[best[todo] > (r * (1.0 - 1e-6)) ** 2]
        radius = min(2.0 * r, math.sqrt(best[todo].max()) / (1.0 - 2e-6)) if len(todo) else 0.0
    return best


def extreme(p, q, radius: float) -> float:
    """The largest distance from a point of either set to the nearest point of
    the other, their Hausdorff distance.  Points are (3, n) and (3, m)
    coordinate planes.

    One join of p to q at `radius` settles every point with a neighbour within
    it, in both directions at once, and sets that are near copies of each
    other end there.  The other points go coarse to fine: the first point in
    each cell of side c stands for its cell, its distance d to the other set
    is found by nearest, and a point at distance e from it lies within d + e
    and d - e of the set, as the distance to a set is 1-Lipschitz.  Points
    whose bound cannot beat the largest found so far are dropped, the rest are
    split into cells of side c / 4, and the search ends when every point left
    stands for itself.  So only a few points far from the other set are
    searched exactly, and the result is the exact largest of the distances
    dx*dx + dy*dy + dz*dz, whose rounding the relative margin 1e-12 on the
    bounds covers.
    """
    near, far, r = join(p, q, radius)
    reach = (r * (1.0 - 1e-6)) ** 2
    value = float(max(near[near <= reach].max(initial=0.0), far[far <= reach].max(initial=0.0)))
    # a pair seen beyond the reach bounds its points from above
    todo = [(p, q, np.flatnonzero(near > max(reach, value))), (q, p, np.flatnonzero(far > max(reach, value)))]
    for pts, other, rest in todo:
        width, radius = None, 2.0 * r
        while len(rest):
            x = pts[:, rest]
            lo = x.min(axis=1)
            extent = float((x.max(axis=1) - lo).max())
            width = 0.25 * (extent if width is None else width)
            if width > extent * 2.0**-20:
                _, first, inv = np.unique(
                    cell_keys(x, lo, width, int(extent / width) + 3), return_index=True, return_inverse=True
                )
            else:
                first = inv = np.arange(len(rest))
            dist = nearest(x[:, first], other, radius)
            e = x - x[:, first][:, inv]
            e = np.sqrt(e[0] * e[0] + e[1] * e[1] + e[2] * e[2])
            d = np.sqrt(dist)[inv]
            value = max(value, float(dist.max()))
            keep = (e > 0) & ((d + e) * (1.0 + 1e-12) > math.sqrt(value))
            rest = rest[keep]
            radius = float((d + e)[keep].max(initial=0.0)) / (1.0 - 2e-6)
    return math.sqrt(value)
