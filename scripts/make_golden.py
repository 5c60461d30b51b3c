#!/usr/bin/env python3
"""Write tests/data/golden.json: pinned observables of two CLI pipelines.

* ``approximate -> verify`` for two seeded random densities over k = 40..320:
  the achieved error and every row of the verify CSV (sup errors of orders
  0-2 and the eigenvalue-relative laplace residual).
* ``spinorize -> nodal`` of the Hopf design at k = 60, 120, 240 for two chart
  bases: the Dirac residual, each curve's field, closedness, vertex count and
  smallest stability margin, every linking number, and the Hausdorff distance
  from each component's closed curves to its design target.

tests/test_golden.py recomputes the same dict with ``compute`` and compares it
with the file, so a refactor that moves a result beyond round-off shows up
against these values rather than against a second run of itself.  Rerun only
when a change of results is intended:

    PYTHONPATH=src python scripts/make_golden.py
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import numpy as np

from eigenknot import cli, helmholtz, nodal

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "golden.json"

VERIFY_KS = (40, 80, 160, 320)
VERIFY_CASES = ({"density_seed": 3, "chart_seed": 5}, {"density_seed": 11, "chart_seed": 17})
HOPF_KS = (60, 120, 240)
HOPF_BASES = ((0.3, -0.5, 0.7, 0.4), (-0.6, 0.2, 0.1, 0.77))
HOPF_H = 0.22


def _run(argv):
    code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"eigenknot {argv[0]} exited with {code}")


def _floats(values) -> str:
    return ",".join(f"{float(v):.17g}" for v in values)


def verify_case(work: pathlib.Path, density_seed: int, chart_seed: int) -> dict:
    field, errors = work / f"field{density_seed}.json", work / f"errors{density_seed}.csv"
    _run(["approximate", "--out", str(field), "--set", "density=random",
          "--set", f"density_seed={density_seed}", "--set", "delta=1e-3"])
    _run(["verify", "--out", str(errors), "--set", f"input={field}",
          "--set", "k_sweep=" + ",".join(map(str, VERIFY_KS)), "--set", "m=2",
          "--set", "h=0.125", "--set", "chart=random", "--set", f"chart_seed={chart_seed}"])
    rows = {}
    for line in errors.read_text().splitlines()[2:]:
        order, err, _, k = line.split(",")
        rows.setdefault(k, {})[order] = float(err)
    return {
        "density_seed": density_seed,
        "chart_seed": chart_seed,
        "achieved_error": json.loads(field.read_text())["achieved_error"],
        "rows": rows,
    }


def hopf_case(work: pathlib.Path, base) -> dict:
    design = helmholtz.hopf_link_design()
    inputs, boxes = [], []
    for a in (0, 1):
        path = work / f"hopf{a + 1}.json"
        path.write_text(design.components[a].to_json())
        inputs += ["--set", f"input{a + 1}={path}"]
        lo, hi = design.boxes[a]
        boxes += ["--set", f"component{a + 1}_box_lo={_floats(lo)}"]
        boxes += ["--set", f"component{a + 1}_box_hi={_floats(hi)}"]
    out = {"chart_base": list(base), "k": {}}
    for k in HOPF_KS:
        spinor, curves = work / f"spinor{k}.json", work / f"curves{k}"
        _run(["spinorize", "--out", str(spinor), *inputs, "--set", f"k={k}",
              "--set", "chart=adapted", "--set", f"chart_base={_floats(base)}"])
        _run(["nodal", "--out", str(curves), "--set", f"input={spinor}", "--set", f"h={HOPF_H}", *boxes])
        topo = json.loads(pathlib.Path(f"{curves}.topology.json").read_text())
        polylines = nodal.curves_from_json(pathlib.Path(f"{curves}.json").read_text())
        hausdorff = []
        for a, name in enumerate(("component1", "component2")):
            closed = [c for e, c in zip(topo["curves"], polylines) if e["field"] == name and e["closed"]]
            hausdorff.append([nodal.hausdorff_dist(c, design.targets[a]) for c in closed])
        out["k"][str(k)] = {
            "dirac_residual": json.loads(spinor.read_text())["dirac_residual"],
            "curves": [[e["field"], e["closed"]] for e in topo["curves"]],
            "vertices": [e["vertices"] for e in topo["curves"]],
            "min_margin": [e["min_margin"] for e in topo["curves"]],
            "links": [[e["field"], e["pair"], e["link"]] for e in topo["linking"]],
            "hausdorff": hausdorff,
        }
    return out


def compute(work) -> dict:
    """The golden observables, computed with the installed eigenknot in the directory `work`."""
    work = pathlib.Path(work)
    base_dir = work / "verify"
    base_dir.mkdir(parents=True, exist_ok=True)
    verify = [verify_case(base_dir, **case) for case in VERIFY_CASES]
    hopf = []
    for i, base in enumerate(HOPF_BASES):
        d = work / f"hopf{i}"
        d.mkdir(parents=True, exist_ok=True)
        hopf.append(hopf_case(d, (np.asarray(base) / np.linalg.norm(base)).tolist()))
    return {"verify": verify, "hopf": hopf}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        doc = compute(tmp)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("wrote", OUT)


if __name__ == "__main__":
    main()
