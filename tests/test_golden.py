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
* each curve's smallest stability margin 1e-9 relative (these two Hopf
  entries were added from the code before the array nodal march);
* the Dirac residual only against its bound;
* circle: the designer's curve count, closedness and per-curve vertex
  counts exactly, the best Hausdorff distance 1e-6 absolute, the curve
  residual and the conversion error 1e-6 relative.  This entry was written
  later, from the code before the localization lattice was cut to its
  stencil support, and merged into the file with every earlier entry left
  as it was.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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
    assert got["achieved_error"] == pytest.approx(case["achieved_error"], rel=1e-8)
    assert sorted(got["rows"]) == sorted(case["rows"])
    for k, rows in case["rows"].items():
        assert sorted(got["rows"][k]) == sorted(rows)
        for order, value in rows.items():
            assert got["rows"][k][order] == pytest.approx(value, rel=RTOL[order]), (k, order)


@pytest.mark.parametrize("case", GOLDEN["hopf"], ids=lambda c: "base" + ",".join(f"{x:.2f}" for x in c["chart_base"]))
def test_hopf_nodal_results_match_golden(tmp_path, case):
    got = make_golden.hopf_case(tmp_path, case["chart_base"])
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


@pytest.mark.parametrize("case", GOLDEN["circle"], ids=lambda c: f"seed{c['seed']}")
def test_circle_design_matches_golden(case):
    got = make_golden.circle_case(case["seed"])
    assert got["closed"] == case["closed"]
    assert got["vertices"] == case["vertices"]
    assert got["best_hausdorff"] == pytest.approx(case["best_hausdorff"], abs=HAUSDORFF_ATOL, rel=0)
    for key in ("curve_residual", "conversion_error"):
        assert got[key] == pytest.approx(case[key], rel=DESIGN_RTOL), key
