"""Nodal extraction, Newton polish, stability margins, linking numbers, Hausdorff distance."""

import math
import re

import numpy as np
import pytest
from gauss_integral import gauss_blocks, gauss_linking_integral
from hypothesis import assume, given, settings, strategies as st

from eigenknot import neighbours, nodal
from eigenknot.nodal import (
    NodalCurve,
    extract_nodal,
    hausdorff_dist,
    linking_number,
    newton_polish,
    projected_crossing_number,
    curves_from_json,
    curves_to_json,
    curves_to_ply,
)

BOX = (np.array([-0.8, -0.8, -0.8]), np.array([0.8, 0.8, 0.8]))


def helical(x):
    x = np.atleast_2d(x)
    return (x[:, 0] + 1j * x[:, 1]) * np.exp(1j * x[:, 2])


def linear(x):
    x = np.atleast_2d(x)
    return x[:, 0] + 1j * x[:, 1]


def circle(count, radius, center=(0.0, 0.0, 0.0), plane="xy"):
    t = np.linspace(0, 2 * math.pi, count, endpoint=False)
    if plane == "xy":
        pts = np.stack([radius * np.cos(t), radius * np.sin(t), 0 * t], axis=-1)
    else:
        pts = np.stack([radius * np.cos(t), 0 * t, radius * np.sin(t)], axis=-1)
    return pts + np.asarray(center, dtype=float)


def circle_field(x, radius=0.5):
    # zero set: the circle {rho = radius, z = 0}, transversal
    x = np.atleast_2d(x)
    rho = np.hypot(x[:, 0], x[:, 1])
    return (rho - radius) + 1j * x[:, 2]


def test_axis_field_extraction():
    h = 0.08
    nset = extract_nodal(helical, BOX, h)
    assert len(nset.curves) == 1
    curve = nset.curves[0]
    assert not curve.closed  # reaches the box boundary
    deviation = np.max(np.hypot(curve.vertices[:, 0], curve.vertices[:, 1]))
    assert deviation <= h * h
    assert np.max(np.abs(helical(curve.vertices))) <= 1e-9  # Newton-polished


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
def test_extraction_refuses_bad_step(h):
    with pytest.raises(ValueError, match="grid step"):
        extract_nodal(helical, BOX, h)


@pytest.mark.parametrize("axes", [[0, 1, 2], [2]])
def test_extraction_refuses_inverted_box(axes):
    # an inverted axis used to march a mirrored grid and return wrong curves
    lo, hi = (b.copy() for b in BOX)
    lo[axes], hi[axes] = hi[axes], lo[axes]
    with pytest.raises(ValueError, match="hi > lo on every axis"):
        extract_nodal(helical, (lo, hi), 0.1)


def test_linear_field_margins():
    nset = extract_nodal(linear, BOX, 0.1)
    assert len(nset.curves) == 1
    curve = nset.curves[0]
    assert np.allclose(curve.margins, 1.0, atol=1e-9)
    assert curve.converged is True


def test_degenerate_zero_flagged():
    # the z-axis is the double zero of (x + iy)^2: its Jacobian vanishes there
    squared = lambda x: linear(x) ** 2
    pts = np.array([[0, 0, z] for z in np.linspace(-0.5, 0.5, 9)], dtype=float)
    _, converged, jac = newton_polish(squared, pts)
    assert converged.all()
    assert nodal._smallest_singular_values(jac).max() <= 1e-8


def test_zero_set_on_grid_lines_does_not_crash_the_stitch():
    # {x = y = 0} runs along grid lines, so every segment the march emits is
    # zero-length and no chain is left to stitch; the transversal z-axis is
    # then missed, which is a gap of the march, not a curve to report
    nset = extract_nodal(lambda x: x[:, 0] + 1e-3j * x[:, 1], ((-1,) * 3, (1,) * 3), 0.1)
    assert all(np.max(np.abs(c.vertices[:, :2])) <= 1e-9 for c in nset.curves)
    assert nodal._stitch(np.zeros((4, 2, 3)), 0.1) == []


@pytest.mark.parametrize("imag, degenerate", [(1e-12, 60), (1.0, 0)])
def test_degenerate_cells_counted(imag, degenerate):
    # on a half-cell-shifted grid the z-axis crosses 20 cell layers; a nearly
    # vanishing imaginary part leaves |Im f| below 1e-9 times the field's
    # scale on the cut triangles of the tetrahedra around it
    h = 0.1
    box = (np.full(3, -1.0 + h / 2), np.full(3, 1.0 + h / 2))
    nset = extract_nodal(lambda x: x[:, 0] + imag * 1j * x[:, 1], box, h)
    assert len(nset.curves) == 1
    assert nset.degenerate_cells == degenerate


def test_closed_circle_extraction():
    nset = extract_nodal(circle_field, BOX, 0.05)
    closed = nset.closed_curves()
    assert len(closed) == 1
    assert closed[0].converged is True
    target = circle(256, 0.5)
    # chords of the extracted polyline sag by ~(vertex spacing)^2 / (8 r)
    assert hausdorff_dist(closed[0], target, densify_step=5e-4) <= 2e-3


def test_closed_circle_extraction_on_shifted_grid():
    # the same circle with every grid plane moved by half a cell, so no grid
    # plane contains the zero set
    h = 0.05
    nset = extract_nodal(circle_field, (BOX[0] + h / 2, BOX[1] + h / 2), h)
    assert len(nset.curves) == 1
    closed = nset.closed_curves()
    assert len(closed) == 1
    assert hausdorff_dist(closed[0], circle(256, 0.5), densify_step=5e-4) <= 2e-3


def test_extraction_refinement_stability():
    c1 = extract_nodal(circle_field, BOX, 0.08).closed_curves()[0]
    c2 = extract_nodal(circle_field, BOX, 0.04).closed_curves()[0]
    assert hausdorff_dist(c1, c2) <= 4 * 0.08**2


def test_linking_hopf_configuration():
    c1 = circle(128, 1.0, (0, 0, 0), "xy")
    c2 = circle(128, 1.0, (1.0, 0, 0), "xz")
    lk = linking_number(c1, c2)
    assert abs(lk) == 1
    # independent oracles: finer discretization and signed crossings
    fine = gauss_linking_integral(circle(512, 1.0, (0, 0, 0), "xy"), circle(512, 1.0, (1.0, 0, 0), "xz"))
    assert fine == pytest.approx(lk, abs=1e-6)
    assert projected_crossing_number(c1, c2, seed=3) == lk


def _loop_gauss(p1, p2):
    """Reference Gauss integral: one vertex of p1 against all segments of p2 at a time."""
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


def test_gauss_integral_matches_vertex_loop():
    rng = np.random.default_rng(5)
    pairs = [
        (rng.normal(size=(40, 3)), rng.normal(size=(33, 3))),
        (rng.normal(size=(3, 3)), rng.normal(size=(700, 3))),
        (circle(128, 1.0), circle(128, 1.0, (1.0, 0, 0), "xz")),
        (circle(517, 1.0), circle(96, 1.0, (1.0, 0, 0), "xz")),
    ]
    for p1, p2 in pairs:
        assert abs(gauss_linking_integral(p1, p2) - _loop_gauss(p1, p2)) <= 1e-12


def test_gauss_gap_is_the_least_vertex_distance():
    rng = np.random.default_rng(6)
    pairs = [
        (rng.normal(size=(40, 3)), rng.normal(size=(33, 3))),
        (rng.normal(size=(3, 3)), rng.normal(size=(700, 3))),
        (rng.normal(size=(517, 3)), rng.normal(size=(96, 3))),
        (rng.normal(size=(1, 3)), rng.normal(size=(5000, 3))),
        (circle(517, 1.0), circle(96, 1.0, (1.0, 0, 0), "xz")),
    ]
    for p1, p2 in pairs:
        brute = min(float(np.sqrt(np.sum((p - p2) ** 2, axis=1)).min()) for p in p1)
        assert gauss_blocks(p1, p2)[1] == brute


def _rotation(q):
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@settings(max_examples=30, deadline=None)
@given(
    n1=st.integers(24, 90),
    n2=st.integers(24, 90),
    quat=st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(lambda q: np.linalg.norm(q) > 0.1),
    shift=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    roll1=st.integers(0, 89),
    roll2=st.integers(0, 89),
)
def test_linking_sign_and_invariance(n1, n2, quat, shift, roll1, roll2):
    c1 = circle(n1, 1.0)
    c2 = circle(n2, 1.0, (1.0, 0, 0), "xz")
    lk = linking_number(c1, c2)
    assert abs(lk) == 1
    assert linking_number(c1[::-1], c2) == -lk
    assert linking_number(c1, c2[::-1]) == -lk
    rot, move = _rotation(quat), np.array(shift)
    assert linking_number(c1 @ rot.T + move, c2 @ rot.T + move) == lk
    assert linking_number(np.roll(c1, roll1, axis=0), np.roll(c2, roll2, axis=0)) == lk


def test_linking_separated_and_translated():
    c1 = circle(64, 1.0)
    c2 = circle(64, 1.0, (5.0, 0, 0), "xz")
    assert linking_number(c1, c2) == 0
    assert linking_number(c1, c1 + np.array([10.0, 0, 0])) == 0


def test_linking_requires_closed():
    open_curve = NodalCurve(circle(32, 1.0)[:20], False)
    with pytest.raises(ValueError):
        linking_number(open_curve, NodalCurve(circle(32, 1.0, (1, 0, 0), "xz"), True))


def test_linking_refuses_intersecting_curves():
    c1 = circle(64, 1.0)
    c2 = circle(48, 1.0, (2.0, 0, 0))
    c2[24] = c1[0]  # one shared vertex
    with pytest.raises(ValueError, match="^curves intersect$"):
        linking_number(c1, c2)
    # the separation check comes first and reports the zero gap
    with pytest.raises(ValueError, match=re.escape("too close to link reliably (gap 0.000e+00)")):
        linking_number(c1, c2, min_separation=1e-9)


def test_linking_refuses_curves_closer_than_min_separation():
    c1 = circle(64, 1.0)
    c2 = circle(48, 1.0, (1.0, 0.1, 0), "xz")
    gap = float(np.min(np.linalg.norm(c1[:, None] - c2[None], axis=-1)))
    assert gap > 0.0
    with pytest.raises(ValueError, match=re.escape(f"too close to link reliably (gap {gap:.3e})")):
        linking_number(c1, c2, min_separation=2 * gap)
    assert abs(linking_number(c1, c2, min_separation=0.5 * gap)) == 1


def test_linking_invariance_under_perturbation():
    nset = extract_nodal(circle_field, BOX, 0.05)
    base = nset.closed_curves()[0]
    other = circle(128, 0.5, (0.5, 0, 0), "xz")
    lk = linking_number(base, other)
    margin = float(base.margins.min())

    def perturbed(x):
        x = np.atleast_2d(x)
        bump = 0.25 * margin * np.exp(1j * x[:, 1])
        return circle_field(x) + bump

    pset = extract_nodal(perturbed, BOX, 0.05)
    assert linking_number(pset.closed_curves()[0], other) == lk


def _torus_curve(count, along, around, tube, phase=0.0):
    """`count` vertices of the curve that winds `along` times along and
    `around` times around the torus of radius 2 and tube radius `tube`."""
    t = np.arange(count) * (2 * math.pi / count)
    a, b = along * t, around * t + phase
    return np.stack([(2 + tube * np.cos(b)) * np.cos(a), (2 + tube * np.cos(b)) * np.sin(a), tube * np.sin(b)], axis=-1)


@st.composite
def torus_windings(draw):
    """(along, around) of a curve on the inner torus and the turns `outer`
    around the tube of a curve winding once along the outer torus: their
    linking number is +-along * outer."""
    along = draw(st.integers(1, 3))
    around = draw(st.integers(-3, 3).filter(lambda q: math.gcd(along, q) == 1))
    outer = draw(st.integers(-(3 // along), 3 // along))
    return along, around, outer


@settings(max_examples=60, deadline=None)
@given(
    windings=torus_windings(),
    per_turn=st.tuples(st.integers(24, 80), st.integers(24, 80)),
    phases=st.tuples(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi)),
    quat=st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(lambda q: np.linalg.norm(q) > 0.1),
    shift=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    reverse=st.tuples(st.booleans(), st.booleans()),
    rolls=st.tuples(st.integers(0, 500), st.integers(0, 500)),
    seed=st.integers(0, 2**16),
)
def test_linking_matches_gauss_on_torus_curves(windings, per_turn, phases, quat, shift, reverse, rolls, seed):
    along, around, outer = windings
    inner = _torus_curve(per_turn[0] * max(along, abs(around)), along, around, 0.3, phases[0])
    wound = _torus_curve(per_turn[1] * max(1, abs(outer)), 1, outer, 0.8, phases[1])
    rot, move = _rotation(quat), np.array(shift)
    c1, c2 = (
        np.roll(c[::-1] if flip else c, roll, axis=0) @ rot.T + move
        for c, flip, roll in zip((inner, wound), reverse, rolls)
    )
    gauss = gauss_linking_integral(c1, c2)
    lk = linking_number(c1, c2)
    assert abs(gauss - lk) <= 1e-6
    assert abs(lk) == along * abs(outer)
    assert projected_crossing_number(c1, c2, seed=seed) == lk


def test_linking_passes_over_a_degenerate_first_direction():
    c1 = circle(64, 1.0)
    c2 = circle(48, 1.0, (1.0, 0, 0), "xz")
    frame = nodal._frame(nodal._DIRECTIONS[0])
    # slide the vertex of c2 whose projection is nearest a segment midpoint of
    # c1 along the first direction until it projects onto that midpoint
    mid = 0.5 * (c1 + np.roll(c1, -1, axis=0))
    seen = np.linalg.norm((mid @ frame[:2].T)[:, None] - (c2 @ frame[:2].T)[None], axis=-1)
    i, j = np.unravel_index(seen.argmin(), seen.shape)
    c2[j] = mid[i] + ((c2[j] - mid[i]) @ frame[2]) * frame[2]
    x = np.concatenate([c1, c2])
    x -= x.mean(axis=0)
    assert nodal._projected_crossings(x, len(c1), frame, float(np.abs(x).max())) is None
    gauss = gauss_linking_integral(c1, c2)
    assert abs(gauss - round(gauss)) <= 1e-6
    assert linking_number(c1, c2) == round(gauss) == linking_number(circle(64, 1.0), circle(48, 1.0, (1.0, 0, 0), "xz"))


_MID = 0.5 * (circle(64, 1.0)[0] + circle(64, 1.0)[1])


@pytest.mark.parametrize(
    "triangle",
    [
        # a segment through the middle of c1's first segment
        [_MID + (0, 0, 1), _MID - (0, 0, 1), _MID + (1.5, 0.3, 0)],
        # a vertex on the middle of c1's first segment
        [_MID, _MID + (0.3, 0.2, 1), _MID + (1.5, 0.3, -0.5)],
    ],
    ids=["segment", "vertex"],
)
def test_linking_refuses_curves_meeting_inside_a_segment(triangle):
    c1 = circle(64, 1.0)
    c2 = np.array(triangle)
    assert nodal._vertex_gap(c1, c2) > 0.0  # no shared vertex
    with pytest.raises(ValueError, match="^curves intersect$"):
        linking_number(c1, c2)
    with pytest.raises(ValueError, match="^curves intersect$"):
        linking_number(c2[::-1], c1)


def test_linking_long_rings():
    # the Gauss sum over these 4 * 10^8 segment pairs takes tens of seconds
    lk = linking_number(circle(20000, 1.0), circle(20000, 1.0, (1.0, 0, 0), "xz"))
    assert lk == linking_number(circle(128, 1.0), circle(128, 1.0, (1.0, 0, 0), "xz"))
    assert abs(lk) == 1


@pytest.mark.parametrize("block", [97, 1000, 1 << 13])
def test_linking_is_independent_of_the_block_size(monkeypatch, block):
    # an excursion to z = 5, far from c2, gives c1 two long segments, which
    # the search cuts into pieces; at the smallest block it still runs over
    # several blocks
    c1 = np.insert(circle(200, 1.0), 50, (0.0, 1.2, 5.0), axis=0)
    c2 = circle(150, 1.0, (1.0, 0, 0), "xz")
    gauss = gauss_linking_integral(c1, c2)
    assert abs(gauss - round(gauss)) <= 1e-6 and abs(round(gauss)) == 1
    monkeypatch.setattr(nodal, "_BLOCK_PAIRS", block)
    assert linking_number(c1, c2) == round(gauss)


def _joined_pairs(c1, c2, direction=0):
    """The number of segment pieces of c1 and c2 that share a cell of the crossing search."""
    x = np.concatenate([c1, c2])
    x -= x.mean(axis=0)
    y = x @ nodal._frame(nodal._DIRECTIONS[direction]).T
    scale = float(np.abs(x).max())
    return nodal._candidate_pairs(y, y[nodal._successors(len(x), len(c1))], len(c1), 1e-10 * scale)[0]


def test_long_segments_keep_the_crossing_search_linear():
    # with the cell sized by the largest box side, the excursion's two long
    # segments joined about 22 700 of the 30 150 segment pairs; cut into
    # pieces for the search, the joined pairs stay below the vertex count
    c1 = np.insert(circle(200, 1.0), 50, (0.0, 1.2, 5.0), axis=0)
    c2 = circle(150, 1.0, (1.0, 0, 0), "xz")
    assert _joined_pairs(c1, c2) <= len(c1) + len(c2)


@settings(max_examples=40, deadline=None)
@given(
    spikes=st.lists(st.tuples(st.integers(0, 199), st.floats(1.5, 50.0), st.booleans()), min_size=1, max_size=4),
    quat=st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(lambda q: np.linalg.norm(q) > 0.1),
    shift=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
)
def test_linking_with_long_segments_matches_gauss(spikes, quat, shift):
    # spikes out of the plane of c1 give it long segments, which may or may
    # not pass through c2; the link is the rounded Gauss integral wherever
    # that integral is near an integer, and the joined pairs stay linear
    c1 = circle(200, 1.0)
    for at, height, down in sorted(spikes, reverse=True):
        c1 = np.insert(c1, at, (0.2 * at / 200.0 - 0.1, 1.2 + 0.01 * at, -height if down else height), axis=0)
    rot, move = _rotation(quat), np.array(shift)
    c1, c2 = c1 @ rot.T + move, circle(150, 1.0, (1.0, 0, 0), "xz") @ rot.T + move
    gauss = gauss_linking_integral(c1, c2)
    assume(abs(gauss - round(gauss)) <= 1e-6)
    assert linking_number(c1, c2) == round(gauss)
    # far below the 30 000 segment pairs
    assert _joined_pairs(c1, c2) <= 2 * (len(c1) + len(c2))


def test_vertex_gap_is_the_least_vertex_distance():
    rng = np.random.default_rng(6)
    pairs = [
        (rng.normal(size=(40, 3)), rng.normal(size=(33, 3))),
        (rng.normal(size=(3, 3)), rng.normal(size=(700, 3))),
        (rng.normal(size=(1, 3)), rng.normal(size=(9000, 3))),
        (circle(517, 1.0), circle(96, 1.0, (1.0, 0, 0), "xz")),
    ]
    for p1, p2 in pairs:
        brute = min(float(np.sqrt(np.sum((p - p2) ** 2, axis=1)).min()) for p in p1)
        assert nodal._vertex_gap(p1, p2) == brute


def test_segment_gaps_match_a_dense_sampling():
    rng = np.random.default_rng(9)
    a, b, c, d = rng.normal(size=(4, 40, 3))
    b[0] = a[0]  # a point against a segment
    d[1] = c[1] + 0.5 * (b[1] - a[1])  # parallel segments
    c[2], d[2] = a[2] + 0.3 * (b[2] - a[2]) + (0, 0, 1), a[2] + 0.3 * (b[2] - a[2]) - (0, 0, 1)  # crossing
    gaps = nodal._segment_gaps(a, b, c, d)
    assert gaps[2] <= 1e-15
    t = np.linspace(0.0, 1.0, 401)
    for row in range(len(a)):
        p = a[row] + t[:, None] * (b[row] - a[row])
        q = c[row] + t[:, None] * (d[row] - c[row])
        sampled = np.linalg.norm(p[:, None] - q[None], axis=-1).min()
        slack = (np.linalg.norm(b[row] - a[row]) + np.linalg.norm(d[row] - c[row])) / 400
        assert sampled - slack <= gaps[row] <= sampled + 1e-12


def _with_nan(p):
    p = p.copy()
    p[5, 1] = math.nan
    return p


def _with_inf(p):
    p = p.copy()
    p[0, 2] = -math.inf
    return p


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize(
    "bad, defect",
    [
        (_with_nan(circle(32, 1.0)), "non-finite vertices"),
        (_with_inf(circle(32, 1.0)), "non-finite vertices"),
        (np.empty((0, 3)), "at least 3 vertices, got 0"),
        (circle(32, 1.0)[:1], "at least 3 vertices, got 1"),
        (circle(32, 1.0)[:2], "at least 3 vertices, got 2"),
        (circle(32, 1.0)[:, :2], "shape (32, 2), not (M, 3)"),
        ([], "shape (0,), not (M, 3)"),
    ],
    ids=["nan", "inf", "empty", "one", "two", "planar", "list"],
)
def test_linking_refuses_bad_vertices(which, bad, defect):
    good = circle(32, 1.0, (1.0, 0, 0), "xz")
    curves = (bad, good) if which == 1 else (good, bad)
    for fn in (linking_number, projected_crossing_number):
        with pytest.raises(ValueError, match=f"^curve {which}: .*{re.escape(defect)}$"):
            fn(*curves)


def test_hausdorff_basics():
    c = circle(128, 0.7)
    assert hausdorff_dist(c, c) == 0.0
    shifted = c + np.array([0.3, 0.0, 0.0])
    assert hausdorff_dist(c, shifted) == pytest.approx(0.3, rel=1e-3)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.tuples(st.integers(2, 40), st.integers(2, 40)),
    closed=st.tuples(st.booleans(), st.booleans()),
    seed=st.integers(0, 2**16),
    step=st.one_of(st.none(), st.floats(0.01, 0.5)),
)
def test_hausdorff_symmetric(sizes, closed, seed, step):
    rng = np.random.default_rng(seed)
    a, b = (NodalCurve(np.cumsum(rng.normal(size=(m, 3)), axis=0), c) for m, c in zip(sizes, closed))
    assert hausdorff_dist(a, b, densify_step=step) == hausdorff_dist(b, a, densify_step=step)


def _brute_nearest(p, q):
    """Squared distance from each point of p to its nearest point of q over every pair, 256 rows at a time."""
    out = np.empty(len(p))
    for s in range(0, len(p), 256):
        d = [np.subtract.outer(p[s : s + 256, a], q[:, a]) for a in range(3)]
        out[s : s + 256] = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).min(axis=1)
    return out


def _reference_distances(a, b, step):
    """Hausdorff distance and vertex gap of two curves, from every pair and from scipy's k-d tree."""
    from scipy.spatial import cKDTree

    if step is None:
        step = 0.005 * max(np.ptp(a.vertices, axis=0).max(), np.ptp(b.vertices, axis=0).max(), 1e-12)
    da, db = nodal._densify(a.vertices, a.closed, step), nodal._densify(b.vertices, b.closed, step)
    brute = math.sqrt(max(_brute_nearest(da, db).max(), _brute_nearest(db, da).max()))
    tree = float(max(cKDTree(db).query(da)[0].max(), cKDTree(da).query(db)[0].max()))
    gap = math.sqrt(_brute_nearest(a.vertices, b.vertices).min())
    return (brute, tree), (gap, float(cKDTree(b.vertices).query(a.vertices)[0].min()))


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    closed=st.tuples(st.booleans(), st.booleans()),
    seed=st.integers(0, 2**16),
    scale=st.integers(-6, 6).map(lambda e: 10.0**e),
    offset=st.sampled_from([0.0, 1e2, 1e5, 1e8]),
    apart=st.sampled_from([0.0, 3.0, 30.0, 1e3]),
    repeats=st.integers(1, 3),
    step=st.one_of(st.none(), st.floats(0.05, 2.0)),
)
def test_hausdorff_and_gap_equal_every_pair_and_the_kd_tree(sizes, closed, seed, scale, offset, apart, repeats, step):
    # random walks at scales 1e-6..1e6, up to 1e8 of their scale from the
    # origin, up to 1e3 of it apart (the search grows its radius to reach
    # across) and with vertices repeated up to 3 times
    rng = np.random.default_rng(seed)
    walks = [scale * np.cumsum(rng.normal(size=(m, 3)), axis=0) for m in sizes]
    walks[1] += apart * scale * np.array([0.6, -0.8, 0.0])
    a, b = (
        NodalCurve(np.repeat(w + offset * scale * np.array([1.0, -0.5, 0.25]), rng.integers(1, repeats + 1, len(w)), axis=0), c)
        for w, c in zip(walks, closed)
    )
    step = None if step is None else step * scale
    (brute, tree), (gap, tree_gap) = _reference_distances(a, b, step)
    assert hausdorff_dist(a, b, densify_step=step) == brute == tree
    if min(sizes) >= 3:
        assert nodal._vertex_gap(a.vertices, b.vertices) == gap == tree_gap


@pytest.mark.parametrize("radius", [1e-12, 1e-3, 0.3, 50.0])
def test_searches_are_exact_from_any_start_radius(radius):
    # a radius far below the distances grows over many rounds; one far above
    # puts every point in one cell
    rng = np.random.default_rng(11)
    p, q = rng.normal(size=(300, 3)), rng.normal(size=(250, 3)) + (2.0, 0.0, 0.0)
    planes = np.ascontiguousarray(p.T), np.ascontiguousarray(q.T)
    want_p, want_q = _brute_nearest(p, q), _brute_nearest(q, p)
    assert np.array_equal(neighbours.nearest(*planes, radius), want_p)
    assert neighbours.extreme(*planes, radius) == math.sqrt(max(want_p.max(), want_q.max()))


def test_far_curves_are_searched_coarse_to_fine(monkeypatch):
    # walks far apart at a fine step: the first join settles no point, and the
    # exact searches run on far fewer points than the densified curves hold
    rng = np.random.default_rng(13)
    a, b = (NodalCurve(np.cumsum(rng.normal(size=(30, 3)), axis=0), c) for c in (True, False))
    searched = []
    inner = neighbours.nearest
    monkeypatch.setattr(neighbours, "nearest", lambda p, q, radius: searched.append(p.shape[1]) or inner(p, q, radius))
    got = hausdorff_dist(a, b, densify_step=0.02)
    (brute, tree), _ = _reference_distances(a, b, 0.02)
    assert got == brute == tree
    densified = len(nodal._densify(a.vertices, True, 0.02)) + len(nodal._densify(b.vertices, False, 0.02))
    assert 0 < sum(searched) < densified / 4


def test_hausdorff_with_a_tiny_step():
    # a step 2000 times below the distance between the curves (8 088 points)
    a = NodalCurve(np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.0], [0.5, 0.9, 0.1]]), True)
    b = NodalCurve(np.array([[0.0, 0.0, 1.0], [1.1, 0.1, 1.2]]), False)
    (brute, tree), (gap, tree_gap) = _reference_distances(a, b, 5e-4)
    assert hausdorff_dist(a, b, densify_step=5e-4) == brute == tree
    assert nodal._vertex_gap(*(np.repeat(c.vertices, 2, axis=0) for c in (a, b))) == gap == tree_gap


@pytest.mark.parametrize("block", [5, 1000])
def test_nearest_is_independent_of_the_block_size(monkeypatch, block):
    # 120 x 90 points within 1e-3 of each other and a step of 1: every point
    # lies in one cell, and the 10 800 candidate pairs span many blocks
    rng = np.random.default_rng(12)
    a, b = NodalCurve(1e-3 * rng.random((120, 3)), False), NodalCurve(1e-3 * rng.random((90, 3)) + 5.0, True)
    want = hausdorff_dist(a, b, densify_step=1.0)
    assert want == _reference_distances(a, b, 1.0)[0][0]
    monkeypatch.setattr(neighbours, "PAIRS", block)
    assert hausdorff_dist(a, b, densify_step=1.0) == want
    assert nodal._vertex_gap(a.vertices, b.vertices) == _reference_distances(a, b, 1.0)[1][0]


def test_hausdorff_of_coincident_and_single_points():
    point = NodalCurve(np.full((1, 3), 2.5), False)
    assert hausdorff_dist(point, point) == 0.0
    assert hausdorff_dist(point, np.full((4, 3), 2.5), densify_step=1e-9) == 0.0
    assert hausdorff_dist(point, NodalCurve(np.array([[2.5, 2.5, 2.5], [2.5, 2.5, 5.5]]), False)) == 3.0


@pytest.mark.parametrize("which", ["curve_a", "curve_b"])
@pytest.mark.parametrize(
    "bad, defect",
    [
        (_with_nan(circle(32, 1.0)), "non-finite vertices"),
        (_with_inf(circle(32, 1.0)), "non-finite vertices"),
        (NodalCurve(_with_nan(circle(32, 1.0)), False), "non-finite vertices"),
        (np.empty((0, 3)), "no vertices"),
        (NodalCurve(np.empty((0, 3)), False), "no vertices"),
        (circle(32, 1.0)[:, :2], "vertices have shape (32, 2), not (M, 3)"),
        ([], "vertices have shape (0,), not (M, 3)"),
    ],
    ids=["nan", "inf", "open-nan", "empty", "open-empty", "planar", "list"],
)
def test_hausdorff_refuses_bad_vertices(which, bad, defect):
    good = circle(32, 1.0, (1.0, 0, 0), "xz")
    curves = (bad, good) if which == "curve_a" else (good, bad)
    with pytest.raises(ValueError, match=f"^{which}: {re.escape(defect)}$"):
        hausdorff_dist(*curves)


@pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_hausdorff_refuses_bad_densify_steps(step):
    with pytest.raises(ValueError, match="^densify_step must be finite and positive, got"):
        hausdorff_dist(circle(32, 1.0), circle(32, 1.0, (1.0, 0, 0), "xz"), densify_step=step)


def _loop_densify(p, closed, step):
    """Reference densification: one edge and one inserted point at a time."""
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


@pytest.mark.parametrize("closed", [True, False])
def test_densify_matches_edge_loop(closed):
    rng = np.random.default_rng(6)
    for p, step in [(rng.normal(size=(30, 3)), 0.07), (circle(64, 0.7), 0.5), (rng.normal(size=(2, 3)), 1e-2)]:
        want = _loop_densify(p, closed, step)
        got = nodal._densify(p, closed, step)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_newton_polish_converges():
    rng = np.random.default_rng(0)
    pts = circle(32, 0.5) + 0.02 * rng.normal(size=(32, 3))
    polished, converged, jac = newton_polish(circle_field, pts)
    assert np.max(np.abs(circle_field(polished))) <= 1e-9
    assert converged.all() and jac.shape == (32, 2, 3)


def _loop_newton(fieldfn, pts, tol=1e-9, max_iter=10, step=1e-6):
    """Reference Newton polish: per-vertex stencils and per-vertex pseudo-inverses."""
    pts = np.array(pts, dtype=float)
    for _ in range(max_iter):
        vals = fieldfn(pts)
        if np.max(np.abs(vals)) <= tol:
            break
        for i in range(len(pts)):
            jac = np.zeros((2, 3))
            for mu in range(3):
                e = step * np.eye(3)[mu]
                d = (fieldfn(pts[i] + e) - fieldfn(pts[i] - e))[0] / (2 * step)
                jac[:, mu] = d.real, d.imag
            pts[i] -= np.linalg.pinv(jac, rcond=1e-8) @ [vals[i].real, vals[i].imag]
    return pts


def test_newton_polish_matches_vertex_loop():
    rng = np.random.default_rng(1)
    pts = circle(32, 0.5) + 0.02 * rng.normal(size=(32, 3))
    assert np.max(np.abs(newton_polish(circle_field, pts)[0] - _loop_newton(circle_field, pts))) <= 1e-12


def test_newton_polish_refuses_long_steps():
    pts = circle(16, 0.5) + np.array([0.0, 0.0, 0.3])
    far, flags, _ = newton_polish(circle_field, pts, max_step=0.1)
    assert np.array_equal(far, pts)
    assert not flags.any()
    near, flags, _ = newton_polish(circle_field, pts, max_step=0.5)
    assert np.max(np.abs(circle_field(near))) <= 1e-9
    assert flags.all()
    # a refused step leaves its vertex unconverged even within the tolerance
    squared = lambda x: linear(x) ** 2
    pts = np.array([[3e-5, 0.0, 0.0], [0.1, 0.0, 0.0]])
    assert abs(squared(pts[0])[0]) <= 1e-9
    kept, flags, _ = newton_polish(squared, pts, max_step=1e-5)
    assert np.array_equal(kept, pts)
    assert not flags.any()


def test_unconverged_newton_marks_curve_unstable():
    # a double zero: Newton only halves the distance per step, so ten steps
    # from the grid cut points stay far above the tolerance
    squared = lambda x: linear(x) ** 2
    pts = np.array([[0.02, -0.03, z] for z in np.linspace(-0.5, 0.5, 9)])
    assert not newton_polish(squared, pts)[1].any()
    nset = extract_nodal(squared, BOX, 0.1)
    assert nset.curves
    assert not any(c.converged for c in nset.curves)


class CountingField:
    """A field that records the number of rows of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, x):
        self.calls.append(len(x))
        return self.fn(x)


def test_newton_polish_field_calls():
    # per iteration: the residual, then one call with six stencil points per
    # vertex; the circle's field is solved by one step, and the Jacobians
    # returned are those of the converged evaluation
    rng = np.random.default_rng(2)
    pts = circle(32, 0.5) + 0.02 * rng.normal(size=(32, 3))
    field = CountingField(circle_field)
    polished, converged, _ = newton_polish(field, pts)
    assert np.max(np.abs(circle_field(polished))) <= 1e-9
    assert converged.all()
    assert field.calls == [32, 6 * 32] * 2


def test_serialization_roundtrip():
    nset = extract_nodal(circle_field, BOX, 0.08)
    text = curves_to_json(nset.curves)
    back = curves_from_json(text)
    assert len(back) == len(nset.curves)
    assert np.allclose(back[0].vertices, nset.curves[0].vertices)
    ply = curves_to_ply(nset.curves, comment="test")
    assert ply.startswith("ply\nformat ascii 1.0")
    assert "comment test" in ply


def _reference_ply(curves, comment=""):
    """curves_to_ply line by line with f-strings, the byte-level reference."""
    verts, edges, offset = [], [], 0
    for c in curves:
        m = len(c.vertices)
        verts.extend(c.vertices.tolist())
        edges += [(offset + i, offset + i + 1) for i in range(m - 1)]
        if c.closed:
            edges.append((offset + m - 1, offset))
        offset += m
    lines = ["ply", "format ascii 1.0"] + ([f"comment {comment}"] if comment else [])
    lines += [f"element vertex {len(verts)}", "property float x", "property float y", "property float z"]
    lines += [f"element edge {len(edges)}", "property int vertex1", "property int vertex2", "end_header"]
    lines += [" ".join(f"{x:.17g}" for x in v) for v in verts]
    lines += [f"{a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("comment", ["", "manifest run.manifest.json"])
def test_ply_matches_reference_writer(comment):
    rng = np.random.default_rng(8)
    open_curve = NodalCurve(rng.normal(size=(17, 3)) * 10.0 ** rng.integers(-8, 8, size=(17, 3)), False)
    open_curve.vertices[3] = (-0.0, 1e-300, 2.0**60)
    closed_curve = NodalCurve(circle(40, 0.7, (0.1, -2.0, 3.0), "xz"), True)
    short = NodalCurve(rng.normal(size=(1, 3)), False)
    for curves in ([], [open_curve], [closed_curve], [closed_curve, open_curve, short, closed_curve]):
        assert curves_to_ply(curves, comment=comment) == _reference_ply(curves, comment)
