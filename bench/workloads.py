"""The benchmark's workloads: seeded inputs, one pipeline instance, its certificate.

An instance runs with the current directory set to an empty work directory
and leaves its outputs there; the caller hashes them.  ``run`` returns a list
of certificate failures (empty when the instance is certified) and a dict of
observables recorded next to the timings.  The library only ever sees the
generated inputs, never the benchmark seed.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from eigenknot import cli, helmholtz, nodal

VERIFY_KS = (40, 80, 160, 320)
HOPF_KS = (60, 120, 240)
DELTA = 1e-3


class InstanceFailed(RuntimeError):
    """A pipeline step did not produce a result."""


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    tag = int.from_bytes(workload.encode()[:8], "little")
    return np.random.default_rng([seed, index, tag])


def _floats(values) -> str:
    return ",".join(f"{float(v):.17g}" for v in values)


def _cli(tracer, argv):
    span = tracer.span(f"cli.{argv[0]}") if tracer is not None else nullcontext()
    with span:
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise InstanceFailed(f"eigenknot {argv[0]} exited with {code}")


# ---------------------------------------------------------------------------
# verify_sweep: approximate a random density, then verify over a k-sweep
# ---------------------------------------------------------------------------


def verify_sweep_inputs(seed: int, index: int) -> dict:
    rng = _rng("verify_sweep", seed, index)
    return {
        "density_seed": int(rng.integers(2**31)),
        "chart_seed": int(rng.integers(2**31)),
    }


def verify_sweep_run(inp: dict, tracer=None):
    _cli(tracer, [
        "approximate", "--out", "field.json",
        "--set", "density=random",
        "--set", f"density_seed={inp['density_seed']}",
        "--set", f"delta={DELTA}",
    ])
    _cli(tracer, [
        "verify", "--out", "errors.csv",
        "--set", "input=field.json",
        "--set", "k_sweep=" + ",".join(str(k) for k in VERIFY_KS),
        "--set", "m=2",
        "--set", "h=0.125",
        "--set", "chart=random",
        "--set", f"chart_seed={inp['chart_seed']}",
    ])
    failures = []
    achieved = json.loads(Path("field.json").read_text())["achieved_error"]
    if not achieved <= DELTA:
        failures.append(f"achieved_error {achieved:.3e} > delta {DELTA:.0e}")
    sup0 = {}
    laplace = {}
    for line in Path("errors.csv").read_text().splitlines()[2:]:
        order, err, _, k = line.split(",")
        if order == "0":
            sup0[int(k)] = float(err)
        elif order == "laplace":
            laplace[int(k)] = float(err)
    ratios = [sup0[b] / sup0[a] for a, b in zip(VERIFY_KS, VERIFY_KS[1:])]
    for (a, b), r in zip(zip(VERIFY_KS, VERIFY_KS[1:]), ratios):
        if not 0.4 <= r <= 0.6:
            failures.append(f"order-0 sup-error ratio k={b}/k={a} is {r:.3f}, outside [0.4, 0.6]")
    observables = {"achieved_error": achieved, "sup0": sup0, "sup0_ratios": ratios, "laplace": laplace}
    return failures, observables


# ---------------------------------------------------------------------------
# hopf_link: closed-form Hopf design, spinorize and nodal at three degrees
# ---------------------------------------------------------------------------


def hopf_link_inputs(seed: int, index: int) -> dict:
    rng = _rng("hopf_link", seed, index)
    p0 = rng.normal(size=4)
    return {"chart_base": (p0 / np.linalg.norm(p0)).tolist()}


def _closed_curves_by_field(prefix: str):
    topo = json.loads(Path(f"{prefix}.topology.json").read_text())
    curves = nodal.curves_from_json(Path(f"{prefix}.json").read_text())
    by_field = {"component1": [], "component2": []}
    for entry, curve in zip(topo["curves"], curves):
        if entry["closed"]:
            by_field[entry["field"]].append(curve)
    return topo, by_field


def hopf_link_run(inp: dict, tracer=None):
    design = helmholtz.hopf_link_design()
    for a in (0, 1):
        Path(f"hopf{a + 1}.json").write_text(design.components[a].to_json())
    box_args = []
    for a in (0, 1):
        lo, hi = design.boxes[a]
        box_args += ["--set", f"component{a + 1}_box_lo={_floats(lo)}"]
        box_args += ["--set", f"component{a + 1}_box_hi={_floats(hi)}"]
    failures = []
    hausdorff = {}
    residuals = {}
    links = {}
    for k in HOPF_KS:
        if tracer is not None:
            tracer.k = k
        try:
            _cli(tracer, [
                "spinorize", "--out", f"spinor{k}.json",
                "--set", "input1=hopf1.json",
                "--set", "input2=hopf2.json",
                "--set", f"k={k}",
                "--set", "chart=adapted",
                "--set", f"chart_base={_floats(inp['chart_base'])}",
            ])
            _cli(tracer, [
                "nodal", "--out", f"curves{k}",
                "--set", f"input=spinor{k}.json",
                "--set", "h=0.22",
                *box_args,
            ])
        finally:
            if tracer is not None:
                tracer.k = None
        residuals[k] = json.loads(Path(f"spinor{k}.json").read_text())["dirac_residual"]
        if not residuals[k] <= 1e-9:
            failures.append(f"k={k}: dirac_residual {residuals[k]:.2e} > 1e-9")
        topo, closed = _closed_curves_by_field(f"curves{k}")
        cross = [e["link"] for e in topo["linking"] if e["field"] == "cross"]
        links[k] = cross[0] if cross else None
        if links[k] is None or abs(links[k]) != 1:
            failures.append(f"k={k}: cross linking number {links[k]} is not +-1")
        margins = [e["min_margin"] for e in topo["curves"] if e["closed"]]
        if not all(m > 0 for m in margins):
            failures.append(f"k={k}: a closed curve has min_margin <= 0")
        hausdorff[k] = []
        for a, name in enumerate(("component1", "component2")):
            if not closed[name]:
                failures.append(f"k={k}: {name} has no closed nodal curve")
                hausdorff[k].append(math.inf)
                continue
            hausdorff[k].append(min(nodal.hausdorff_dist(c, design.targets[a]) for c in closed[name]))
    for a in (0, 1):
        seq = [hausdorff[k][a] for k in HOPF_KS]
        if any(b > c for c, b in zip(seq, seq[1:])):
            failures.append(f"component{a + 1}: Hausdorff distance to target grows with k: {seq}")
    observables = {"dirac_residual": residuals, "cross_link": links, "hausdorff": hausdorff}
    return failures, observables


# ---------------------------------------------------------------------------
# circle_design: designer with nodal self-verification on a tilted unit circle
# ---------------------------------------------------------------------------

CIRCLE_VERTICES = 48
# Verification grid step.  Coarser than the designer's default 0.05, it halves
# an instance to about 5 s, so a run holds enough instances for a steady median.
CIRCLE_GRID_H = 0.07
# Largest tilt keeps the designer's verification box (target bounds +-0.3)
# at the same cell counts as the flat circle: round(0.62 / 0.07) = 9 along z
# and round(2.6 / 0.07) = 37 across.
CIRCLE_MAX_TILT = 0.01


def circle_design_inputs(seed: int, index: int) -> dict:
    rng = _rng("circle_design", seed, index)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    axis_angle = rng.uniform(0.0, 2.0 * math.pi)
    tilt = rng.uniform(0.2, 1.0) * CIRCLE_MAX_TILT
    t = phase + np.linspace(0.0, 2.0 * math.pi, CIRCLE_VERTICES + 1)
    circle = np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=-1)
    # rotate by `tilt` about the in-plane axis at angle `axis_angle`
    axis = np.array([math.cos(axis_angle), math.sin(axis_angle), 0.0])
    cross = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    rot = np.eye(3) + math.sin(tilt) * cross + (1.0 - math.cos(tilt)) * (cross @ cross)
    target = circle @ rot.T
    target[-1] = target[0]
    return {"target": target}


def circle_design_run(inp: dict, tracer=None):
    # the designer's own extraction is the evidence for the closed-curve check;
    # record its results in traced and untraced runs alike
    captured = []
    extract = nodal.extract_nodal

    def recording_extract(*args, **kwargs):
        out = extract(*args, **kwargs)
        captured.append(out)
        return out

    nodal.extract_nodal = recording_extract
    try:
        result = helmholtz.design_bessel_sum(
            [(inp["target"], 0)], budget=240, verify_tol=0.02, grid_h=CIRCLE_GRID_H
        )
    except helmholtz.DesignError as exc:
        return [f"DesignError: {exc}"], {}
    finally:
        nodal.extract_nodal = extract
    curves = [c for nset in captured for c in nset.curves]
    Path("design.json").write_text(
        json.dumps(
            {
                "component": result.components[0].to_dict(),
                "planewave": [[w.real, w.imag] for w in result.planewave.spinor_coeffs.ravel()],
                "curve_residual": result.curve_residual[0],
                "conversion_error": result.conversion_error[0],
            },
            sort_keys=True,
        )
        + "\n"
    )
    Path("curves.json").write_text(nodal.curves_to_json(curves) + "\n")
    closed = [c for c in curves if c.closed]
    failures = [] if closed else ["the designer's extracted nodal set has no closed curve"]
    observables = {
        "closed_curves": len(closed),
        "best_hausdorff": min((nodal.hausdorff_dist(c, inp["target"]) for c in closed), default=None),
        "curve_residual": result.curve_residual[0],
        "conversion_error": result.conversion_error[0],
    }
    return failures, observables


# ---------------------------------------------------------------------------
# Warm-ups: each touches the lazily initialised paths of its workload (first
# SVD, scipy special functions, k-d trees, the jet-term cache) at a size that
# stays below the workload's own peak memory, so peak_rss_mb is the pipeline's.
# ---------------------------------------------------------------------------


def verify_sweep_warm_up(inp=None, tracer=None):
    steps = [
        ["approximate", "--out", "field.json", "--set", "density=random", "--set", f"delta={DELTA}"],
        ["verify", "--out", "errors.csv", "--set", "input=field.json", "--set", "k_sweep=40",
         "--set", "m=0", "--set", "h=0.25"],
    ]
    for argv in steps:
        _cli(None, argv)
    return [], {}


def hopf_link_warm_up(inp=None, tracer=None):
    design = helmholtz.hopf_link_design()
    for a in (0, 1):
        Path(f"hopf{a + 1}.json").write_text(design.components[a].to_json())
    _cli(None, ["spinorize", "--out", "spinor.json", "--set", "input1=hopf1.json",
                "--set", "input2=hopf2.json", "--set", "k=8"])
    return [], {}


def circle_design_warm_up(inp=None, tracer=None):
    target = circle_design_inputs(0, 0)["target"]
    result = helmholtz.design_bessel_sum([(target, 0)], budget=60)
    nset = nodal.extract_nodal(
        lambda x: helmholtz.eval_bessel_sum(result.components[0], x), ([-1.3, -1.3, -0.3], [1.3, 1.3, 0.3]), 0.2
    )
    for curve in nset.curves:
        nodal.hausdorff_dist(curve, target)
    return [], {}


#: name -> (inputs(seed, index), run(inputs, tracer), warm_up(inputs, tracer))
WORKLOADS = {
    "verify_sweep": (verify_sweep_inputs, verify_sweep_run, verify_sweep_warm_up),
    "hopf_link": (hopf_link_inputs, hopf_link_run, hopf_link_warm_up),
    "circle_design": (circle_design_inputs, circle_design_run, circle_design_warm_up),
}

