"""Every binding the benchmark tracer wraps exists in the package, and sees its work.

bench/tracing.py replaces functions under the module attributes their callers
look them up by (``cli.eval_bessel_sum``, ``harmonics.jacobi_p``, ...); a
binding that a refactor drops makes every traced benchmark run fail, and one
that a caller bound early hides that caller's work from the trace.
"""

import importlib
from pathlib import Path

import numpy as np

from eigenknot import helmholtz
from eigenknot.harmonics import synthesize
from eigenknot.helmholtz import BesselSum, hopf_link_design
from eigenknot.sphere import block_rows
from eigenknot.spinor3 import SpinorField3, adapted_chart, component_pullback, dirac_project

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_bindings_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{module.__name__}.{attr}"
        for _, _, bindings in tracing._TARGETS
        for module, attr in bindings
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


def test_traced_pullback_counts_point_center_pairs(monkeypatch):
    # the nodal step's field and jet calls go through the traced zonal_jet
    # binding, one span per call over every point and pooled center, also on
    # a grid of more than one row block: the points reach the sphere inside
    # the call's blocks, and the span still counts each of them once
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    design = hopf_link_design()
    k = 60
    chart = adapted_chart(np.array([0.3, -0.5, 0.7, 0.4]))
    pair = SpinorField3(tuple(synthesize(design.components[a], k, chart) for a in (0, 1)))
    centers = len(np.unique(np.concatenate([c.centers for c in pair.components]), axis=0))
    field = component_pullback(dirac_project(pair, k), 0, chart, k)
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2 * block_rows(centers) + 50, 3))
    tracer = tracing.Tracer()
    with tracer.installed():
        field(x)
        field.jet(x)
    spans = [s for s in tracer.dump() if s["name"] == "spinor3.zonal_jet"]
    assert [s["counts"]["point_center_evals"] for s in spans] == [len(x) * centers] * 2


def test_traced_bessel_sum_jet_counts_each_radius_once(monkeypatch):
    # the jet's one kernel call per row block gives K3 and K5 from the same
    # radii, so the kernel span counts m N radii over m points and N
    # centers, as a value pass through eval_bessel_sum does
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    rng = np.random.default_rng(9)
    s = BesselSum(3, rng.normal(size=200) + 1j * rng.normal(size=200), rng.uniform(-2, 2, (200, 3)), 4.0)
    x = rng.uniform(-2.5, 2.5, (2 * block_rows(len(s)) + 3, 3))
    tracer = tracing.Tracer()
    with tracer.installed():
        helmholtz.eval_bessel_sum_jet(s, x)
        jet_spans = tracer.dump()
        helmholtz.eval_bessel_sum(s, x)
        spans = tracer.dump()
    assert {sp["name"] for sp in jet_spans} == {"specialfn.bessel_kernel"} and len(jet_spans) == 3
    assert sum(sp["counts"]["radii"] for sp in jet_spans) == len(x) * len(s)
    values = [sp for sp in spans[len(jet_spans):] if sp["name"] == "helmholtz.eval_bessel_sum"]
    assert [sp["counts"]["pair_evals"] for sp in values] == [len(x) * len(s)]
    value_kernels = [sp for sp in spans[len(jet_spans):] if sp["name"] == "specialfn.bessel_kernel"]
    assert sum(sp["counts"]["radii"] for sp in value_kernels) == len(x) * len(s)


def test_traced_verify_has_one_localization_span_per_degree(monkeypatch, tmp_path):
    # verify builds phi's lattice once, before its k loop, and calls
    # harmonics.localization_error once per degree with the harmonic second:
    # one span per k carrying that k and the order-0 sup error of its row,
    # and no evaluation of phi inside any of them
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    from eigenknot import cli

    field = Path(cli.__file__).parent / "data" / "single_center.json"
    out = tmp_path / "errors.csv"
    sweep = [40, 80, 160]
    tracer = tracing.Tracer()
    with tracer.installed():
        argv = ["verify", "--out", str(out), "--set", f"input={field}", "--set", "m=0"]
        assert cli.main([*argv, "--set", "k_sweep=" + ",".join(map(str, sweep))]) == cli.EXIT_OK
    spans = tracer.dump()
    located = [i for i, s in enumerate(spans) if s["name"] == "harmonics.localization_error"]
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    sup0 = {int(k): float(err) for order, err, _, k in rows if order == "0"}
    assert [spans[i]["counts"] for i in located] == [{"k": k, "sup0": sup0[k]} for k in sweep]
    phi = [s for s in spans if s["name"] == "helmholtz.eval_bessel_sum"]
    assert len(phi) == 1 and phi[0]["parent"] not in located
