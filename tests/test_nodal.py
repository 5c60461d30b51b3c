"""Nodal extraction, stability margins, linking numbers, Hausdorff distance."""

import math

import numpy as np
import pytest

from eigenknot.nodal import (
    NodalCurve,
    extract_nodal,
    gauss_linking_integral,
    hausdorff_dist,
    linking_number,
    newton_polish,
    projected_crossing_number,
    stability_margin,
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
    assert stability_margin(linear, curve) == pytest.approx(1.0, abs=1e-9)
    assert curve.stable


def test_degenerate_zero_flagged():
    squared = lambda x: linear(x) ** 2
    curve = NodalCurve(np.array([[0, 0, z] for z in np.linspace(-0.5, 0.5, 9)]), False)
    assert stability_margin(squared, curve) <= 1e-8


def test_closed_circle_extraction():
    nset = extract_nodal(circle_field, BOX, 0.05)
    closed = nset.closed_curves()
    assert len(closed) == 1
    target = circle(256, 0.5)
    # chords of the extracted polyline sag by ~(vertex spacing)^2 / (8 r)
    assert hausdorff_dist(closed[0], target, densify_step=5e-4) <= 2e-3


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


def test_linking_separated_and_translated():
    c1 = circle(64, 1.0)
    c2 = circle(64, 1.0, (5.0, 0, 0), "xz")
    assert linking_number(c1, c2) == 0
    assert linking_number(c1, c1 + np.array([10.0, 0, 0])) == 0


def test_linking_requires_closed():
    open_curve = NodalCurve(circle(32, 1.0)[:20], False)
    with pytest.raises(ValueError):
        linking_number(open_curve, NodalCurve(circle(32, 1.0, (1, 0, 0), "xz"), True))


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


def test_newton_polish_converges():
    rng = np.random.default_rng(0)
    pts = circle(32, 0.5) + 0.02 * rng.normal(size=(32, 3))
    polished = newton_polish(circle_field, pts)
    assert np.max(np.abs(circle_field(polished))) <= 1e-9


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
    assert np.max(np.abs(newton_polish(circle_field, pts) - _loop_newton(circle_field, pts))) <= 1e-12


class CountingField:
    """A field that records the number of rows of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, x):
        self.calls.append(len(x))
        return self.fn(x)


def test_newton_polish_field_calls():
    # per iteration: the residual, then one call with six stencil points per vertex
    rng = np.random.default_rng(2)
    pts = circle(32, 0.5) + 0.02 * rng.normal(size=(32, 3))
    field = CountingField(circle_field)
    polished = newton_polish(field, pts, max_iter=3)
    assert np.max(np.abs(circle_field(polished))) <= 1e-9
    assert len(field.calls) <= 2 * 3
    assert set(field.calls) == {32, 6 * 32}


def test_stability_margin_field_calls():
    curve = extract_nodal(circle_field, BOX, 0.05).closed_curves()[0]
    field = CountingField(circle_field)
    assert stability_margin(field, curve) == stability_margin(circle_field, curve)
    assert field.calls == [len(curve), 6 * len(curve)]


def test_serialization_roundtrip():
    nset = extract_nodal(circle_field, BOX, 0.08)
    text = curves_to_json(nset.curves)
    back = curves_from_json(text)
    assert len(back) == len(nset.curves)
    assert np.allclose(back[0].vertices, nset.curves[0].vertices)
    ply = curves_to_ply(nset.curves, comment="test")
    assert ply.startswith("ply\nformat ascii 1.0")
    assert "comment test" in ply
