"""Pinned observables: the CLI pipelines against tests/data/golden.json.

The file was written by scripts/make_golden.py before the closed-form S^3
kernel replaced the Jacobi recurrence, so these tests hold every later change
to the pinned values, not to a second run of itself.  Tolerances:

* verify: the order-0 sup error 1e-8 relative, the laplace row 1e-4
  relative, and the finite-difference orders 1 and 2 1e-6 relative (the
  recurrence's k^2 eps, about 2e-11 at k = 320, grows by up to 4/h^2 = 256
  in a second difference at h = 0.125, against sup values above 0.03);
* Hausdorff distances 1e-6 absolute;
* curve counts, closedness, per-curve vertex counts and linking numbers
  exactly;
* each curve's smallest stability margin 1e-9 relative, and every curve's
  Newton polish converged (not a file entry).  The file's margins are
  reference values: a Richardson-extrapolated central difference of
  field values (make_golden.reference_margins) at the
  vertices reported by the code before the analytic nodal Jacobians, merged
  over the earlier step-1e-6 stencil margins with every other entry left as
  it was.  A second test checks the pipeline's own margins against the same
  reference at the vertices it reports now;
* the Dirac residual only against its bound;
* circle: the designer's curve count, closedness and per-curve vertex
  counts exactly, the best Hausdorff distance 1e-6 absolute, the curve
  residual and the conversion error 1e-6 relative.  This entry was written
  later, from the code before the localization lattice was cut to its
  stencil support, and merged into the file with every earlier entry left
  as it was.  It was written at two BLAS threads through the designer's
  normal equations; the dual-form solve that replaced them reproduces it at
  one and at two threads, within the 1e-12 floor below (about 8e-13 off).

The verify and circle entries were rewritten once more by make_golden.py at
one BLAS thread when the kernel fit moved from sampled lattice rows to
Fourier-Bessel modes: that fit is a different Bessel sum for the same
field, and the O(1/k) localization errors depend on its coefficients, not
only on the field.  The hopf entries were left as they were.

Where a relative tolerance times the pinned value falls below an absolute
floor, the floor binds instead; those comparisons spell it out.  Three
values are pinned that tightly:

  value              pinned              stated rel   floor    effective rel
  achieved_error     1.30e-11, 1.11e-11  1e-8         1e-13    7.7e-3, 9.0e-3
  curve_residual     1.8e-8              1e-6         1e-12    5.5e-5
  conversion_error   8.6e-8              1e-6         1e-12    1.2e-5

achieved_error is a sup difference of fields of size about 10, so it rounds
near 1e-14 absolute; its floor is 1e-13, not pytest.approx's 1e-12, which
at these values would let it move by a tenth.
"""

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eigenknot import harmonics, helmholtz, nodal, spinor3

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "golden.json").read_text())

_spec = importlib.util.spec_from_file_location("make_golden", ROOT / "scripts" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

RTOL = {"0": 1e-8, "1": 1e-6, "2": 1e-6, "laplace": 1e-4}
HAUSDORFF_ATOL = 1e-6
MARGIN_RTOL = 1e-9
DIRAC_BOUND = 1e-10
DESIGN_RTOL = 1e-6


@pytest.mark.parametrize("case", GOLDEN["verify"], ids=lambda c: f"density{c['density_seed']}")
def test_verify_rows_match_golden(tmp_path, case):
    got = make_golden.verify_case(tmp_path, case["density_seed"], case["chart_seed"])
    assert got["achieved_error"] == pytest.approx(case["achieved_error"], rel=1e-8, abs=1e-13)
    assert sorted(got["rows"]) == sorted(case["rows"])
    for k, rows in case["rows"].items():
        assert sorted(got["rows"][k]) == sorted(rows)
        for order, value in rows.items():
            assert got["rows"][k][order] == pytest.approx(value, rel=RTOL[order]), (k, order)


@pytest.fixture(scope="module")
def hopf_run(tmp_path_factory):
    """make_golden.hopf_case at a chart base, run once per base for this module."""
    runs = {}

    def run(base):
        if tuple(base) not in runs:
            runs[tuple(base)] = make_golden.hopf_case(tmp_path_factory.mktemp("hopf"), base)
        return runs[tuple(base)]

    return run


def _hopf_id(case):
    return "base" + ",".join(f"{x:.2f}" for x in case["chart_base"])


@pytest.mark.parametrize("case", GOLDEN["hopf"], ids=_hopf_id)
def test_hopf_nodal_results_match_golden(hopf_run, case):
    got = hopf_run(case["chart_base"])
    assert sorted(got["k"]) == sorted(case["k"])
    for k, want in case["k"].items():
        have = got["k"][k]
        assert have["dirac_residual"] <= DIRAC_BOUND, k
        assert have["curves"] == want["curves"], k
        assert have["links"] == want["links"], k
        assert have["vertices"] == want["vertices"], k
        for mine, theirs in zip(have["min_margin"], want["min_margin"], strict=True):
            assert mine == pytest.approx(theirs, rel=MARGIN_RTOL), k
        for mine, theirs in zip(have["hausdorff"], want["hausdorff"], strict=True):
            assert mine == pytest.approx(theirs, abs=HAUSDORFF_ATOL, rel=0), k


@pytest.mark.parametrize("case", GOLDEN["hopf"], ids=_hopf_id)
def test_hopf_margins_match_reference_at_reported_vertices(hopf_run, case):
    # the pipeline's margins against the field-values-only reference, both at
    # the vertices the pipeline reports
    got = hopf_run(case["chart_base"])
    for k, have in got["k"].items():
        for mine, reference in zip(have["min_margin"], have["reference_min_margin"], strict=True):
            assert mine == pytest.approx(reference, rel=MARGIN_RTOL), k


def test_hopf_curves_converge(hopf_run):
    # every vertex of every golden Hopf curve, both chart bases and every k,
    # reaches |f| <= 1e-9 with no step refused
    runs = [hopf_run(case["chart_base"])["k"] for case in GOLDEN["hopf"]]
    flags = [flag for run in runs for have in run.values() for flag in have["converged"]]
    assert flags == [True] * 12


@pytest.fixture(scope="module")
def golden_hopf_curves():
    """The principal closed curve of each component at the first golden chart
    base and k = 60, as `nodal` extracts them, the golden cross link and the
    least distance between the two curves' vertices."""
    case, k = GOLDEN["hopf"][0], 60
    design = helmholtz.hopf_link_design()
    chart = spinor3.adapted_chart(case["chart_base"])
    pair = spinor3.SpinorField3(tuple(harmonics.synthesize(design.components[a], k, chart) for a in (0, 1)))
    psi = spinor3.dirac_project(pair, k)
    curves = [
        nodal.extract_nodal(spinor3.component_pullback(psi, a, chart, k), design.boxes[a], make_golden.HOPF_H)
        .closed_curves()[0]
        .vertices
        for a in (0, 1)
    ]
    link = next(e[2] for e in case["k"][str(k)]["links"] if e[0] == "cross")
    return curves, link, nodal._vertex_gap(*curves)


@settings(max_examples=30, deadline=None)
@given(stride=st.integers(1, 32), offsets=st.tuples(st.integers(0, 31), st.integers(0, 31)))
def test_hopf_link_survives_vertex_subsampling(golden_hopf_curves, stride, offsets):
    """Every stride-th vertex of each golden Hopf curve, from any offset, still
    links with the golden linking number: the subsampled polygons stay within
    about 0.2 of the curves (stride 32), far inside their gap of about 1.39."""
    curves, link, gap = golden_hopf_curves
    subsampled = [c[off % stride :: stride] for c, off in zip(curves, offsets)]
    for sub, curve in zip(subsampled, curves):
        assert nodal.hausdorff_dist(sub, curve) < 0.5 * gap
    assert nodal.linking_number(*subsampled) == link


@pytest.mark.parametrize("case", GOLDEN["circle"], ids=lambda c: f"seed{c['seed']}")
def test_circle_design_matches_golden(case):
    got = make_golden.circle_case(case["seed"])
    assert got["closed"] == case["closed"]
    assert got["vertices"] == case["vertices"]
    assert got["best_hausdorff"] == pytest.approx(case["best_hausdorff"], abs=HAUSDORFF_ATOL, rel=0)
    for key in ("curve_residual", "conversion_error"):
        assert got[key] == pytest.approx(case[key], rel=DESIGN_RTOL, abs=1e-12), key
