"""Designers: plane-wave collocation and the closed-form Hopf pair."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigenknot
from eigenknot import helmholtz, nodal
from eigenknot.helmholtz import (
    DesignError,
    design_bessel_sum,
    eval_bessel_sum,
    hopf_link_design,
    transported_frame,
)


def test_transported_frame_closes():
    t = np.linspace(0, 2 * math.pi, 48, endpoint=False)
    pts = np.stack([np.cos(t), np.sin(t), 0 * t], axis=-1)
    u, v = transported_frame(pts, closed=True)
    tangents = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    assert np.max(np.abs(np.einsum("si,si->s", u, tangents))) <= 1e-12
    assert np.max(np.abs(np.einsum("si,si->s", u, v))) <= 1e-12
    # adjacent frames stay close (no seam jump)
    gaps = np.linalg.norm(u - np.roll(u, 1, axis=0), axis=1)
    assert gaps.max() <= 0.2


def test_axis_design():
    z = np.linspace(-0.9, 0.9, 25)
    axis = np.stack([0 * z, 0 * z, z], axis=-1)
    res = design_bessel_sum([(axis, 0)], budget=160)
    assert res.curve_residual[0] <= 1e-6
    assert res.conversion_error[0] <= 1e-6
    bsum = res.components[0]
    nset = nodal.extract_nodal(
        lambda x: eval_bessel_sum(bsum, x), ([-0.6] * 3, [0.6] * 3), 0.06
    )
    assert len(nset.curves) == 1
    curve = nset.curves[0]
    deviation = np.max(np.hypot(curve.vertices[:, 0], curve.vertices[:, 1]))
    assert deviation <= 1e-6
    assert curve.margins.min() >= 0.5


def test_unit_circle_design():
    t = np.linspace(0, 2 * math.pi, 49)
    target = np.stack([np.cos(t), np.sin(t), 0 * t], axis=-1)
    res = design_bessel_sum([(target, 0)], budget=240, verify_tol=0.02, grid_h=0.05)
    nset = nodal.extract_nodal(
        lambda x: eval_bessel_sum(res.components[0], x),
        ([-1.3, -1.3, -0.4], [1.3, 1.3, 0.4]),
        0.05,
    )
    closed = nset.closed_curves()
    best = min(nodal.hausdorff_dist(c, target) for c in closed)
    assert best <= 0.02
    assert res.planewave.dirac_residual(np.linspace(-0.4, 0.4, 30).reshape(10, 3)) <= 1e-10


def test_design_failure_reported():
    # a sub-wavelength three-circle chain is beyond the plane-wave class at
    # this budget; the designer must refuse rather than return junk
    t = np.linspace(0, 2 * math.pi, 33)
    tiny = 0.12 * np.stack([np.cos(t), np.sin(t), 0 * t], axis=-1)
    with pytest.raises(DesignError):
        design_bessel_sum(
            [(tiny, 0), (tiny + np.array([0.12, 0, 0.0]), 1)],
            budget=120,
            verify_tol=0.005,
            grid_h=0.04,
        )


def test_design_refuses_targets_outside_the_conversion_check(monkeypatch):
    # the trefoil (sin t + 2 sin 2t, cos t - 2 cos 2t, -sin 3t) s at s = 2
    # reaches |x| = 6, where conversion_error (sampled on |x| <= 1.4) says nothing
    t = np.linspace(0, 2 * math.pi, 121)
    trefoil = 2.0 * np.stack([np.sin(t) + 2 * np.sin(2 * t), np.cos(t) - 2 * np.cos(2 * t), -np.sin(3 * t)], axis=-1)
    reach = np.linalg.norm(trefoil, axis=1).max()

    def no_solve(*args, **kwargs):
        raise AssertionError("the designer set up a solve")

    monkeypatch.setattr(helmholtz, "_fibonacci_sphere", no_solve)
    with pytest.raises(DesignError, match=r"radius-1\.4 ball") as refused:
        design_bessel_sum([(trefoil, 0)], budget=600)
    assert f"|x| = {reach:.3g}" in str(refused.value) and "convert_radius=2.5" in str(refused.value)
    assert 5.9 <= reach <= 6.1
    # a target inside the checked ball designs
    t = np.linspace(0, 2 * math.pi, 49)
    monkeypatch.undo()
    res = design_bessel_sum([(np.stack([np.cos(t), np.sin(t), 0 * t], axis=-1), 0)], budget=160)
    assert res.curve_residual[0] <= 1e-6 and res.conversion_error[0] <= 1e-6


# the seed-5 golden circle, designed in a fresh interpreter whose BLAS pool
# size is fixed by the environment before numpy loads
_CIRCLE_COEFFS = """
import importlib.util, sys
import numpy as np
spec = importlib.util.spec_from_file_location("make_golden", sys.argv[1])
make_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(make_golden)
res = make_golden.helmholtz.design_bessel_sum([(make_golden.tilted_circle(5), 0)], budget=240)
np.save(sys.argv[2], res.planewave.spinor_coeffs)
"""


def test_circle_design_is_independent_of_blas_threads(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_golden.py"
    src = str(Path(eigenknot.__file__).resolve().parent.parent)
    coeffs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / f"coeffs{threads}.npy"
        proc = subprocess.run(
            [sys.executable, "-c", _CIRCLE_COEFFS, str(script), str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        coeffs.append(np.load(out))
    one, two = coeffs
    assert np.max(np.abs(one - two)) <= 1e-9 * np.max(np.abs(one))


@pytest.fixture(scope="module")
def hopf():
    return hopf_link_design()


def test_hopf_design_is_eigenfield(hopf):
    rng = np.random.default_rng(0)
    x = rng.uniform(-4, 4, (200, 3))
    pair = (
        lambda p: eval_bessel_sum(hopf.components[0], p),
        lambda p: eval_bessel_sum(hopf.components[1], p),
    )
    from eigenknot.spinor3 import euclidean_dirac_check

    resid, helm = euclidean_dirac_check(pair, ([-0.5] * 3, [0.5] * 3), 0.02)
    # kernel-dipole finite differences leave a small eigen defect
    assert resid <= 5e-3
    assert max(helm) <= 2e-3
    for a in (0, 1):
        gap = np.abs(eval_bessel_sum(hopf.components[a], x) - hopf.exact_component(a, x))
        assert gap.max() <= 2e-3


def test_hopf_targets_link_once(hopf):
    t0, t1 = hopf.targets[0], hopf.targets[1]
    assert t0.closed and t1.closed
    assert abs(nodal.linking_number(t0, t1)) == 1
    assert t0.margins.min() > 0.01 and t1.margins.min() > 0.01


def test_hopf_components_share_centers(hopf):
    assert np.array_equal(hopf.components[0].centers, hopf.components[1].centers)
    assert len(hopf.components[0]) == 7
