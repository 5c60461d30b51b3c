#!/usr/bin/env python3
"""Write tests/data/golden.json: pinned observables of two CLI pipelines and the designer.

* ``approximate -> verify`` for two seeded random densities over k = 40..320:
  the achieved error and every row of the verify CSV (sup errors of orders
  0-2 and the eigenvalue-relative laplace residual).
* ``spinorize -> nodal`` of the Hopf design at k = 60, 120, 240 for two chart
  bases: the Dirac residual, each curve's field, closedness, vertex count,
  smallest stability margin and Newton convergence, every linking number,
  and the Hausdorff distance from each component's closed curves to its
  design target.  The file's margins are ``reference_margins``, taken from
  field values only at the vertices the pipeline reported, not the
  pipeline's own margins, so they do not carry the noise of whichever
  Jacobian the pipeline used.
* ``design_bessel_sum`` on a seeded, slightly tilted unit circle (budget 240,
  verify_tol 0.02, grid_h 0.07): each curve of the designer's own nodal
  extraction with its closedness and vertex count, the best Hausdorff
  distance from a closed curve to the target, the curve residual and the
  conversion error.

tests/test_golden.py recomputes these entries with the functions below and
compares them with the file, so a refactor that moves a result beyond
round-off shows up against these values rather than against a second run of
itself.  Rerun only when a change of results is intended.  With section names
(verify, hopf, circle) only those sections are recomputed and merged into the
existing file; the others are kept as they are:

    PYTHONPATH=src python scripts/make_golden.py [section ...]
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
import tempfile

import numpy as np

from eigenknot import cli, helmholtz, nodal, spinor3

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "golden.json"

VERIFY_KS = (40, 80, 160, 320)
VERIFY_CASES = ({"density_seed": 3, "chart_seed": 5}, {"density_seed": 11, "chart_seed": 17})
HOPF_KS = (60, 120, 240)
HOPF_BASES = ((0.3, -0.5, 0.7, 0.4), (-0.6, 0.2, 0.1, 0.77))
HOPF_H = 0.22
CIRCLE_SEED = 5
CIRCLE_VERTICES = 48
CIRCLE_GRID_H = 0.07


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


def reference_margins(fieldfn, vertices, steps=(1e-3, 5e-4)) -> np.ndarray:
    """Smallest singular value of the 2x3 Jacobian of (Re f, Im f) at each vertex.

    The Jacobian comes from field values only: central differences at two
    steps, Richardson-extrapolated (4 J(h/2) - J(h)) / 3 to an O(h^4) error,
    and the singular values from np.linalg.svd.  Nothing of the pipeline's
    own Jacobian (analytic jet or stencil) enters.
    """
    vertices = np.asarray(vertices, dtype=float)

    def central(h):
        cols = [
            (np.asarray(fieldfn(vertices + e)) - np.asarray(fieldfn(vertices - e))) / (2.0 * h)
            for e in h * np.eye(3)
        ]
        d = np.stack(cols, axis=-1)
        return np.stack([d.real, d.imag], axis=1)

    coarse, fine = (central(h) for h in steps)
    return np.linalg.svd(fine + (fine - coarse) / 3.0, compute_uv=False)[:, -1]


def hopf_case(work: pathlib.Path, base) -> dict:
    """The Hopf observables at every k, with ``reference_min_margin`` (per curve,
    from reference_margins at its reported vertices) next to the pipeline's
    ``min_margin``."""
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
        psi, chart, _ = cli.load_spinor(str(spinor))
        fields = {f"component{a + 1}": spinor3.component_pullback(psi, a, chart, k) for a in (0, 1)}
        hausdorff = []
        for a, name in enumerate(("component1", "component2")):
            closed = [c for e, c in zip(topo["curves"], polylines) if e["field"] == name and e["closed"]]
            hausdorff.append([nodal.hausdorff_dist(c, design.targets[a]) for c in closed])
        out["k"][str(k)] = {
            "dirac_residual": json.loads(spinor.read_text())["dirac_residual"],
            "curves": [[e["field"], e["closed"]] for e in topo["curves"]],
            "vertices": [e["vertices"] for e in topo["curves"]],
            "min_margin": [e["min_margin"] for e in topo["curves"]],
            "converged": [e["converged"] for e in topo["curves"]],
            "reference_min_margin": [
                float(reference_margins(fields[e["field"]], c.vertices).min())
                for e, c in zip(topo["curves"], polylines)
            ],
            "links": [[e["field"], e["pair"], e["link"]] for e in topo["linking"]],
            "hausdorff": hausdorff,
        }
    return out


def tilted_circle(seed: int) -> np.ndarray:
    """A closed unit circle, phase-shifted and tilted by at most 0.01 rad about an in-plane axis."""
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    axis_angle = rng.uniform(0.0, 2.0 * math.pi)
    tilt = rng.uniform(0.002, 0.01)
    t = phase + np.linspace(0.0, 2.0 * math.pi, CIRCLE_VERTICES + 1)
    circle = np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=-1)
    axis = np.array([math.cos(axis_angle), math.sin(axis_angle), 0.0])
    cross = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    rot = np.eye(3) + math.sin(tilt) * cross + (1.0 - math.cos(tilt)) * (cross @ cross)
    target = circle @ rot.T
    target[-1] = target[0]
    return target


def circle_case(seed: int) -> dict:
    """Design on the tilted circle and record the designer's own nodal extraction."""
    target = tilted_circle(seed)
    captured = []
    extract = nodal.extract_nodal

    def recording_extract(*args, **kwargs):
        captured.append(extract(*args, **kwargs))
        return captured[-1]

    nodal.extract_nodal = recording_extract
    try:
        result = helmholtz.design_bessel_sum(
            [(target, 0)], budget=240, verify_tol=0.02, grid_h=CIRCLE_GRID_H
        )
    finally:
        nodal.extract_nodal = extract
    curves = [c for nset in captured for c in nset.curves]
    closed = [c for c in curves if c.closed]
    return {
        "seed": seed,
        "closed": [bool(c.closed) for c in curves],
        "vertices": [len(c) for c in curves],
        "best_hausdorff": min(nodal.hausdorff_dist(c, target) for c in closed),
        "curve_residual": result.curve_residual[0],
        "conversion_error": result.conversion_error[0],
    }


def _verify_section(work: pathlib.Path) -> list:
    work.mkdir(parents=True, exist_ok=True)
    return [verify_case(work, **case) for case in VERIFY_CASES]


def _hopf_section(work: pathlib.Path) -> list:
    hopf = []
    for i, base in enumerate(HOPF_BASES):
        d = work / f"hopf{i}"
        d.mkdir(parents=True, exist_ok=True)
        case = hopf_case(d, (np.asarray(base) / np.linalg.norm(base)).tolist())
        for entry in case["k"].values():
            entry["min_margin"] = entry.pop("reference_min_margin")
        hopf.append(case)
    return hopf


SECTIONS = {
    "verify": _verify_section,
    "hopf": _hopf_section,
    "circle": lambda work: [circle_case(CIRCLE_SEED)],
}


def compute(work, sections=tuple(SECTIONS)) -> dict:
    """The golden observables of `sections`, computed with the installed eigenknot in the directory `work`."""
    work = pathlib.Path(work)
    return {name: SECTIONS[name](work / name) for name in sections}


def main(sections=None):
    sections = sections or list(SECTIONS)
    unknown = sorted(set(sections) - set(SECTIONS))
    if unknown:
        raise SystemExit(f"unknown section(s) {', '.join(unknown)}; choose from {', '.join(SECTIONS)}")
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        doc.update(compute(tmp, sections))
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("wrote", ", ".join(sections), "to", OUT)


if __name__ == "__main__":
    main(sys.argv[1:])
