"""Nodal extraction, Newton polish, stability margins, linking numbers, Hausdorff distance."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenknot import nodal
from eigenknot.nodal import (
    NodalCurve,
    extract_nodal,
    gauss_linking_integral,
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


def test_hausdorff_basics():
    c = circle(128, 0.7)
    assert hausdorff_dist(c, c) == 0.0
    shifted = c + np.array([0.3, 0.0, 0.0])
    assert hausdorff_dist(c, shifted) == pytest.approx(0.3, rel=1e-3)


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
