"""The fields bundled in src/eigenknot/data are what scripts/make_bundled_data.py writes.

Centers and R must match exactly.  Coefficients must agree within 1e-6 of
the largest |c|: far above the rounding that BLAS thread counts move, far
below a design that has drifted (the axis field once read 0.084 off against
a largest |c| of 34.3).
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "eigenknot" / "data"

_spec = importlib.util.spec_from_file_location("make_bundled_data", ROOT / "scripts" / "make_bundled_data.py")
make_bundled_data = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_bundled_data)

COEFF_RTOL = 1e-6


@pytest.fixture(scope="module")
def documents():
    return make_bundled_data.documents()


def test_script_writes_every_bundled_file(documents):
    assert sorted(documents) == sorted(p.name for p in DATA.glob("*.json"))


@pytest.mark.parametrize("name", ["single_center.json", "axis_field.json"])
def test_bundled_field_matches_its_script(documents, name):
    want, got = documents[name], json.loads((DATA / name).read_text())
    assert {k: v for k, v in got.items() if k != "terms"} == {k: v for k, v in want.items() if k != "terms"}
    assert [t["x"] for t in got["terms"]] == [t["x"] for t in want["terms"]]
    c_got, c_want = (np.array([complex(*t["c"]) for t in d["terms"]]) for d in (got, want))
    assert np.abs(c_got - c_want).max() <= COEFF_RTOL * np.abs(c_want).max()
