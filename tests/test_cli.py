"""CLI behavior: determinism, manifests, exit codes, bundled examples."""

import contextlib
import io
import json
import re
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenknot.helmholtz import BesselSum
from eigenknot.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_TOLERANCE,
    load_config,
    main,
)


def data_path(name: str) -> str:
    return str(resources.files("eigenknot").joinpath("data", name))


def test_config_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\n"
        "k = 40\n"
        "delta = 1e-3\n"
        "k_sweep = 40, 80, 160\n"
        "density = constant\n"
        "flag = true\n"
    )
    cfg = load_config(str(cfg_file), ["delta=5e-4"])
    assert cfg["k"] == 40
    assert cfg["delta"] == 5e-4  # override wins
    assert cfg["k_sweep"] == [40.0, 80.0, 160.0]
    assert cfg["density"] == "constant"
    assert cfg["flag"] is True


def test_bad_config_exit_code(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("no equals sign here\n")
    assert main(["verify", "--config", str(cfg)]) == EXIT_CONFIG
    # missing required keys
    assert main(["verify", "--set", "out=" + str(tmp_path / "x.csv")]) == EXIT_CONFIG


def test_unreachable_tolerance_exit_code(tmp_path, capsys):
    out = tmp_path / "approx.json"
    code = main(["approximate", "--out", str(out), "--set", "delta=1e-30"])
    assert code == EXIT_TOLERANCE
    # the error carries the fit's computed bound, which misses delta
    detail = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert detail["error"] == "tolerance" and detail["achieved"] > 1e-30


def test_approximate_and_verify_roundtrip(tmp_path):
    approx = tmp_path / "field.json"
    assert (
        main(["approximate", "--out", str(approx), "--set", "density=linear_z", "--set", "delta=1e-3"])
        == EXIT_OK
    )
    doc = json.loads(approx.read_text())
    # the sampled error sits below the computed bound, and both meet delta
    assert doc["achieved_error"] <= doc["achieved_bound"] <= 1e-3
    assert "manifest" in doc

    csv1 = tmp_path / "verify1.csv"
    csv2 = tmp_path / "verify2.csv"
    for csv in (csv1, csv2):
        code = main(
            [
                "verify",
                "--out",
                str(csv),
                "--set",
                f"input={approx}",
                "--set",
                "k_sweep=40,80",
                "--set",
                "m=1",
            ]
        )
        assert code == EXIT_OK
    assert csv1.read_bytes() == csv2.read_bytes()  # byte-identical determinism

    lines = csv1.read_text().splitlines()
    assert lines[0].startswith("# manifest ")
    assert lines[1] == "order,sup_error,h,k"
    rows = [ln.split(",") for ln in lines[2:]]
    order0 = {int(r[3]): float(r[1]) for r in rows if r[0] == "0"}
    assert order0[80] < order0[40]


def test_manifest_cross_reference(tmp_path):
    approx = tmp_path / "f.json"
    main(["approximate", "--out", str(approx), "--set", "delta=1e-3"])
    manifest_text = Path(f"{approx}.manifest.json").read_text().strip()
    import hashlib

    digest = hashlib.sha256(manifest_text.encode()).hexdigest()
    doc = json.loads(approx.read_text())
    assert doc["manifest"] == digest


def test_nodal_on_bundled_axis_field(tmp_path):
    out = tmp_path / "axis"
    code = main(
        [
            "nodal",
            "--out",
            str(out),
            "--set",
            "input=" + data_path("axis_field.json"),
            "--set",
            "h=0.08",
        ]
    )
    assert code == EXIT_OK
    topo = json.loads(Path(f"{out}.topology.json").read_text())
    entries = topo["curves"]
    assert len(entries) == 1
    assert entries[0]["min_margin"] >= 0.5
    assert entries[0]["converged"] is True and "stable" not in entries[0]
    ply = Path(f"{out}.ply").read_text()
    assert ply.startswith("ply")
    curves = json.loads(Path(f"{out}.json").read_text())["curves"]
    verts = np.array(curves[0]["vertices"])
    assert np.max(np.hypot(verts[:, 0], verts[:, 1])) <= 1e-6


def test_spinorize_pipeline(tmp_path):
    single = data_path("single_center.json")
    out = tmp_path / "spinor.json"
    code = main(
        [
            "spinorize",
            "--out",
            str(out),
            "--set",
            f"input1={single}",
            "--set",
            f"input2={single}",
            "--set",
            "k=12",
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["eigenvalue"] == 13.5
    assert doc["dirac_residual"] <= 1e-8
    assert doc["orientation"] == 1
    # one self-contained document: the chart and both components' terms, no component files
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spinor.json", "spinor.json.manifest.json"]
    assert sorted(doc["chart"]) == ["frame", "p0"] and "projected" not in doc
    assert [[sorted(t) for t in terms] for terms in doc["components"]] == [[["c", "p"]], [["c", "p"]]]


def test_torus_command(tmp_path):
    out = tmp_path / "torus.csv"
    code = main(
        ["torus", "--out", str(out), "--set", "k_sweep=1,3", "--set", "trials=500"]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    rows = {int(r.split(",")[0]): r.split(",") for r in lines[2:]}
    assert int(rows[1][1]) == 6
    assert int(rows[3][1]) == 30


def test_torus_localize_column(tmp_path):
    # the last column is the sup error of torus_localize for the same density
    # on the same height's directions
    from eigenknot import torus
    from eigenknot.helmholtz import HerglotzDensity

    out = tmp_path / "torus.csv"
    settings = ["k=3", "trials=200", "localize=true", "resolution=8"]
    assert main(["torus", "--out", str(out), "--seed", "4", *(a for s in settings for a in ("--set", s))]) == EXIT_OK
    row = out.read_text().splitlines()[2].split(",")
    _, sup = torus.torus_localize(HerglotzDensity.constant(3, 1.0, 8), torus.lattice_directions(3, 3))
    assert np.isfinite(float(row[3])) and float(row[3]) == sup


def test_torus_enumerates_and_scores_each_height_once(tmp_path, monkeypatch):
    # with localize=true each height's directions are enumerated and scored
    # once, and torus_localize reuses them for the localization column
    from eigenknot import torus
    from eigenknot.helmholtz import HerglotzDensity

    enumerate_, score = torus.lattice_directions, torus.cap_discrepancy
    calls = []
    monkeypatch.setattr(torus, "lattice_directions", lambda n, k: calls.append(("enumerate", k)) or enumerate_(n, k))
    monkeypatch.setattr(torus, "cap_discrepancy", lambda s, **kw: calls.append(("score", s.k)) or score(s, **kw))
    out = tmp_path / "torus.csv"
    settings = ["n=2", "k_sweep=5,13", "trials=300", "localize=true", "resolution=8"]
    assert main(["torus", "--out", str(out), *(a for s in settings for a in ("--set", s))]) == EXIT_OK
    assert calls == [("enumerate", 5), ("score", 5), ("enumerate", 13), ("score", 13)]
    monkeypatch.undo()
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    density = HerglotzDensity.constant(2, 1.0, 8)
    for row, k in zip(rows, (5, 13)):
        assert float(row[3]) == torus.torus_localize(density, torus.lattice_directions(2, k))[1]


@pytest.mark.parametrize("setting, detail", [("k_sweep", "--set expects key=value, got 'k_sweep'")])
def test_verify_bad_sweep_setting_exit_code(tmp_path, capsys, setting, detail):
    argv = ["verify", "--out", str(tmp_path / "out"), "--set", "input=" + data_path("single_center.json")]
    assert main([*argv, "--set", setting]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "detail": detail}
    assert not list(tmp_path.iterdir())


def test_full_spinor_nodal_pipeline(tmp_path):
    # hopf-design components through the CLI: spinorize then nodal, with the
    # frame-adapted chart (the spinorize default) and per-component boxes
    import eigenknot as ek

    design = ek.hopf_link_design()
    comp_paths = []
    for a in (0, 1):
        p = tmp_path / f"hopf{a}.json"
        p.write_text(design.components[a].to_json())
        comp_paths.append(p)
    spinor = tmp_path / "spinor.json"
    assert (
        main(
            [
                "spinorize",
                "--out",
                str(spinor),
                "--set",
                f"input1={comp_paths[0]}",
                "--set",
                f"input2={comp_paths[1]}",
                "--set",
                "k=60",
            ]
        )
        == EXIT_OK
    )
    doc = json.loads(spinor.read_text())
    assert doc["dirac_residual"] <= 1e-9

    out = tmp_path / "curves"
    code = main(
        [
            "nodal",
            "--out",
            str(out),
            "--set",
            f"input={spinor}",
            "--set",
            "h=0.26",
            "--set",
            "component1_box_lo=-3.8,-3.8,-1.9",
            "--set",
            "component1_box_hi=3.8,3.8,1.9",
            "--set",
            "component2_box_lo=-4.8,-1.9,-3.9",
            "--set",
            "component2_box_hi=1.6,1.9,3.9",
        ]
    )
    assert code == EXIT_OK
    topo = json.loads(Path(f"{out}.topology.json").read_text())
    cross = [e for e in topo["linking"] if e["field"] == "cross"]
    assert cross and abs(cross[0]["link"]) == 1
    closed = [e for e in topo["curves"] if e["closed"]]
    assert all(e["min_margin"] > 0 for e in closed)
    assert all(type(e["converged"]) is bool and "stable" not in e for e in topo["curves"])


def _config_error_names_key(tmp_path, capsys, command, setting, key, extra=()):
    code = main(
        [
            command,
            "--out",
            str(tmp_path / "out"),
            "--set",
            "input=" + data_path("single_center.json"),
            *(arg for item in extra for arg in ("--set", item)),
            "--set",
            setting,
        ]
    )
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert f"config key {key} " in err["detail"]
    return err["detail"]


@pytest.mark.parametrize(
    "command, setting, key",
    [
        ("synthesize", "k=abc", "k"),
        ("verify", "k_sweep=40,abc", "k_sweep"),
        ("synthesize", "k=0.3", "k"),
        # integers out of range
        ("synthesize", "k=0", "k"),
        ("verify", "k_sweep=0,40", "k_sweep"),
        ("torus", "k=0", "k"),
        ("torus", "trials=0", "trials"),
        ("approximate", "resolution=0", "resolution"),
        ("verify", "m=5", "m"),
        # a sweep out of order
        ("verify", "k_sweep=80,40", "k_sweep"),
        # dimensions without an implementation
        ("torus", "n=1", "n"),
        ("torus", "n=5", "n"),
    ],
)
def test_non_integer_config_value_exit_code(tmp_path, capsys, command, setting, key):
    _config_error_names_key(tmp_path, capsys, command, setting, key)


def test_adapted_chart_off_s3_exit_code(tmp_path, capsys):
    # an n = 2 Bessel sum synthesizes on S^2, which has no adapted chart
    field = tmp_path / "disc.json"
    field.write_text(BesselSum(2, [1.0], [[0.0, 0.0]], 0.5).to_json())
    _config_error_names_key(tmp_path, capsys, "synthesize", "chart=adapted", "chart", extra=[f"input={field}", "k=3"])


@pytest.mark.parametrize(
    "command, setting, key",
    [
        ("approximate", "delta=abc", "delta"),
        ("approximate", "delta=nan", "delta"),
        ("approximate", "radius=abc", "radius"),
        ("verify", "h=abc", "h"),
        ("nodal", "h=abc", "h"),
        # numbers out of range
        ("nodal", "h=0", "h"),
        ("nodal", "h=-0.1", "h"),
        ("verify", "h=0", "h"),
        ("approximate", "radius=0", "radius"),
        ("approximate", "radius=-1", "radius"),
        ("approximate", "delta=-1", "delta"),
    ],
)
def test_non_numeric_float_config_value_exit_code(tmp_path, capsys, command, setting, key):
    _config_error_names_key(tmp_path, capsys, command, setting, key)


@pytest.mark.parametrize(
    "command, setting, key",
    [
        ("nodal", "box_lo=abc", "box_lo"),
        ("nodal", "box_lo=1,2", "box_lo"),
        ("nodal", "box_lo=-1", "box_lo"),
        ("nodal", "box_hi=1,nan,1", "box_hi"),
        ("nodal", "field_box_lo=1,2", "field_box_lo"),
        ("nodal", "box_lo=1,1,1", "box_lo"),
        ("nodal", "box_hi=0.8,-0.8,0.8", "box_hi"),
        ("nodal", "field_box_hi=-1,0,0", "field_box_hi"),
        ("synthesize", "chart_base=1,0", "chart_base"),
        ("synthesize", "chart_base=0,0,0,0", "chart_base"),
    ],
)
def test_bad_list_config_value_exit_code(tmp_path, capsys, command, setting, key):
    _config_error_names_key(tmp_path, capsys, command, setting, key, extra=["k=3"])


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("approximate", "density=bogus", "config key density must be one of constant, linear_z, random, got 'bogus'"),
        ("approximate", "density=3", "config key density must be one of constant, linear_z, random, got 3"),
        ("verify", "chart=bogus", "config key chart must be one of adapted, random, got 'bogus'"),
        ("synthesize", "chart=Random", "config key chart must be one of adapted, random, got 'Random'"),
        ("torus", "density=bogus", "config key density must be one of constant, linear_z, random, got 'bogus'"),
    ],
)
def test_unknown_string_config_value_exit_code(tmp_path, capsys, command, setting, message):
    key = setting.split("=")[0]
    assert _config_error_names_key(tmp_path, capsys, command, setting, key, extra=["k=3"]) == message


@pytest.mark.parametrize(
    "command, settings, key",
    [
        ("approximate", ["bogus_key=3"], "bogus_key"),
        ("approximate", ["k=3"], "k"),
        ("approximate", ["max_terms=10"], "max_terms"),
        ("synthesize", ["input={single}", "k=3", "bogus_key=3"], "bogus_key"),
        ("spinorize", ["input1={single}", "input2={single}", "k=3", "bogus_key=3"], "bogus_key"),
        ("verify", ["input={single}", "bogus_key=3"], "bogus_key"),
        ("verify", ["input={single}", "density=random"], "density"),
        ("nodal", ["input={single}", "bogus_key=3"], "bogus_key"),
        ("nodal", ["input={single}", "component1_box_lo=0,0,0"], "component1_box_lo"),
        ("torus", ["bogus_key=3"], "bogus_key"),
        ("torus", ["k=3", "k_sweep=3"], "k"),
        # approximate works in n = 3 only and reads no dimension
        ("approximate", ["n=4"], "n"),
    ],
)
def test_unread_config_key_exit_code(tmp_path, capsys, command, settings, key):
    """A key the command does not read exits 2 naming it, before any output is written."""
    settings = [s.format(single=data_path("single_center.json")) for s in settings]
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *(arg for item in settings for arg in ("--set", item))]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "detail": f"config key {key} is not read by the {command} command"}
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, settings, key",
    [
        ("verify", ["input={n4}"], "input"),
        ("nodal", ["input={n4}"], "input"),
        ("spinorize", ["input1={n4}", "input2={n3}", "k=12"], "input1"),
        ("spinorize", ["input1={n3}", "input2={n4}", "k=12"], "input2"),
    ],
    ids=["verify", "nodal", "spinorize-input1", "spinorize-input2"],
)
def test_bessel_input_outside_three_dimensions_exit_code(tmp_path, capsys, command, settings, key):
    n4 = tmp_path / "n4.json"
    n4.write_text(BesselSum(4, [1.0], [[0.0] * 4], 0.0).to_json())
    settings = [s.format(n4=n4, n3=data_path("single_center.json")) for s in settings]
    _config_error_names_key(tmp_path, capsys, command, settings[0], key, extra=settings[1:])


def _spinor_file(directory: Path) -> Path:
    """A degree-12 spinorize output of the bundled single-center field in `directory`."""
    single = data_path("single_center.json")
    spinor = directory / "spinor.json"
    argv = ["spinorize", "--out", str(spinor), "--set", f"input1={single}", "--set", f"input2={single}"]
    assert main(argv + ["--set", "k=12"]) == EXIT_OK
    return spinor


def test_nodal_refuses_other_orientation(tmp_path, capsys):
    spinor = _spinor_file(tmp_path)
    doc = json.loads(spinor.read_text())
    doc["orientation"] = -1
    spinor.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["nodal", "--out", str(tmp_path / "curves"), "--set", f"input={spinor}", "--set", "h=0.3"]
    assert main(argv) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "orientation" in err["detail"]


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: {"components": doc["components"][:1]},
        lambda doc: {"components": doc["components"][0]},
        lambda doc: {"components": doc["components"] * 2},
        lambda doc: {"k": "twelve"},
        lambda doc: {"k": 12.5},
    ],
    ids=["one-component", "string-components", "four-components", "string-k", "fractional-k"],
)
def test_nodal_refuses_a_malformed_spinor_file(tmp_path, capsys, edit):
    # a spinor file is an input like any other: its malformation is a config
    # error naming the key, not a numerical failure in whatever reads it first
    spinor = _spinor_file(tmp_path)
    doc = json.loads(spinor.read_text())
    doc.update(edit(doc))
    spinor.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["nodal", "--out", str(tmp_path / "curves"), "--set", f"input={spinor}", "--set", "h=0.3"]
    assert main(argv) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and err["detail"].startswith("config key input ")
    assert not list(tmp_path.glob("curves*"))


_MALFORMED_BESSEL_FILES = {
    "not-json": "{'n': 3,",
    "radius-below-a-center": json.dumps({"n": 3, "terms": [{"c": [1.0, 0.0], "x": [1.0, 0.0, 0.0]}], "R": 0.5}),
    "one-number-coefficient": json.dumps({"n": 3, "terms": [{"c": [1.0], "x": [0.0, 0.0, 0.0]}], "R": 1.0}),
    "three-number-coefficient": json.dumps({"n": 3, "terms": [{"c": [1.0, 0.0, 7.0], "x": [0.0, 0.0, 0.0]}], "R": 1.0}),
    "bool-coefficient": json.dumps({"n": 3, "terms": [{"c": [True, False], "x": [0.0, 0.0, 0.0]}], "R": 1.0}),
    "no-terms": json.dumps({"n": 3, "R": 1.0}),
    "nan-coefficient": json.dumps({"n": 3, "terms": [{"c": [float("nan"), 0.0], "x": [0.0, 0.0, 0.0]}], "R": 1.0}),
    "inf-coefficient": json.dumps({"n": 3, "terms": [{"c": [1.0, float("inf")], "x": [0.0, 0.0, 0.0]}], "R": 1.0}),
    "null-coefficient": json.dumps({"n": 3, "terms": [{"c": [None, 0.0], "x": [0.0, 0.0, 0.0]}], "R": 1.0}),
    "nan-center": json.dumps({"n": 3, "terms": [{"c": [1.0, 0.0], "x": [0.0, float("nan"), 0.0]}], "R": 1.0}),
    "null-center": json.dumps({"n": 3, "terms": [{"c": [1.0, 0.0], "x": [0.0, None, 0.0]}], "R": 1.0}),
    "float-dimension": json.dumps({"n": 3.0, "terms": [{"c": [1.0, 0.0], "x": [0.0, 0.0, 0.0]}], "R": 1.0}),
}


@pytest.mark.parametrize("content", list(_MALFORMED_BESSEL_FILES.values()), ids=list(_MALFORMED_BESSEL_FILES))
@pytest.mark.parametrize(
    "command, settings, key",
    [
        ("verify", ["input={bad}"], "input"),
        ("synthesize", ["input={bad}", "k=3"], "input"),
        ("spinorize", ["input1={bad}", "input2={single}", "k=12"], "input1"),
        ("spinorize", ["input1={single}", "input2={bad}", "k=12"], "input2"),
        ("nodal", ["input={bad}"], "input"),
    ],
    ids=["verify", "synthesize", "spinorize-input1", "spinorize-input2", "nodal"],
)
def test_malformed_input_file_exit_code(tmp_path, capsys, content, command, settings, key):
    # an input file that is not JSON, or that BesselSum.from_dict or its
    # constructor refuses, is a config error naming its key: never a
    # numerical failure, a traceback or a bare missing-key message
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    settings = [item.format(bad=bad, single=data_path("single_center.json")) for item in settings]
    args = [arg for item in settings for arg in ("--set", item)]
    assert main([command, "--out", str(tmp_path / "out"), *args]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and err["detail"].startswith(f"config key {key} ")
    assert err["detail"].endswith(str(bad))
    assert not list(tmp_path.glob("out*"))


def _terms(edit):
    """A spinor edit that applies `edit` to every term of component 2."""
    return lambda doc: dict(doc, components=[doc["components"][0], [edit(t) for t in doc["components"][1]]])


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: json.dumps(doc)[:100],
        lambda doc: dict(doc, components=[doc["components"][0], []]),
        lambda doc: dict(doc, components=[doc["components"][0], {"terms": doc["components"][1]}]),
        _terms(lambda t: dict(t, c=t["c"][:1])),
        _terms(lambda t: dict(t, c=[*t["c"], 7.0])),
        _terms(lambda t: dict(t, c=[True, False])),
        _terms(lambda t: dict(t, p=[2.0, 0.0, 0.0, 0.0])),
        _terms(lambda t: {"c": t["c"], "x": [0.0, 0.0, 0.0]}),
        _terms(lambda t: dict(t, c=[float("nan"), 0.0])),
        _terms(lambda t: dict(t, c=[1.0, float("inf")])),
        _terms(lambda t: dict(t, c=[None, 0.0])),
        _terms(lambda t: dict(t, p=[float("nan"), *t["p"][1:]])),
        lambda doc: {key: value for key, value in doc.items() if key != "chart"},
        lambda doc: dict(doc, chart=dict(doc["chart"], p0=[float("nan"), *doc["chart"]["p0"][1:]])),
        lambda doc: dict(doc, chart=dict(doc["chart"], frame=[[None] * 4, *doc["chart"]["frame"][1:]])),
        lambda doc: dict(doc, components=["spinor.json.comp1.json", "spinor.json.comp2.json"], projected=True),
    ],
    ids=[
        "not-json",
        "no-terms",
        "not-a-list",
        "one-number-coefficient",
        "three-number-coefficient",
        "bool-coefficient",
        "center-off-the-sphere",
        "bessel-sum",
        "nan-coefficient",
        "inf-coefficient",
        "null-coefficient",
        "nan-center",
        "no-chart",
        "nan-chart-base",
        "null-chart-frame",
        "old-layout",
    ],
)
def test_nodal_refuses_a_malformed_component_file(tmp_path, capsys, edit):
    # a spinor's components and chart live in its one file and are read with it:
    # a malformed one is a config error naming input, and no curves are written
    spinor = _spinor_file(tmp_path)
    doc = edit(json.loads(spinor.read_text()))
    spinor.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    capsys.readouterr()
    argv = ["nodal", "--out", str(tmp_path / "curves"), "--set", f"input={spinor}", "--set", "h=0.3"]
    assert main(argv) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and err["detail"].startswith("config key input ")
    assert err["detail"].endswith(str(spinor))
    assert not list(tmp_path.glob("curves*"))


def test_nodal_manifest_hashes_the_spinor_file(tmp_path):
    # the spinor file alone decides the curves: it is the manifest's one input,
    # and rewriting one coefficient in it changes the hash every output carries
    spinor = _spinor_file(tmp_path)

    def run(out):
        assert main(["nodal", "--out", str(out), "--set", f"input={spinor}", "--set", "h=0.3"]) == EXIT_OK
        topo = json.loads(Path(f"{out}.topology.json").read_text())
        return json.loads(Path(f"{out}.manifest.json").read_text())["inputs"], topo["manifest"]

    before, digest = run(tmp_path / "a")
    assert list(before) == [str(spinor)]
    doc = json.loads(spinor.read_text())
    doc["components"][1][0]["c"][0] *= 2
    spinor.write_text(json.dumps(doc))
    after, changed = run(tmp_path / "b")
    assert list(after) == [str(spinor)] and after != before and changed != digest


def test_nodal_field_box_sides_fall_back_separately(tmp_path, monkeypatch):
    from eigenknot import nodal

    seen = []
    extract = nodal.extract_nodal

    def spy(fn, box, h):
        seen.append(box)
        return extract(fn, box, h)

    monkeypatch.setattr(nodal, "extract_nodal", spy)
    settings = ["h=0.2", "box_hi=0.6,0.6,0.6", "field_box_lo=0,-0.8,-0.8"]
    argv = ["nodal", "--out", str(tmp_path / "curves"), "--set", "input=" + data_path("single_center.json")]
    for item in settings:
        argv += ["--set", item]
    assert main(argv) == EXIT_OK
    assert [np.asarray(b).tolist() for b in seen[0]] == [[0, -0.8, -0.8], [0.6, 0.6, 0.6]]


def test_nodal_null_link_says_why(tmp_path, monkeypatch):
    from eigenknot import nodal

    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    ring = np.stack([np.cos(t), np.sin(t), 0 * t], axis=-1)
    hoop = np.stack([1 + np.cos(t), 0 * t, np.sin(t)], axis=-1)
    # curve 2 repeats curve 0, so that pair intersects; both link curve 1
    curves = [nodal.NodalCurve(p, True, np.ones(64)) for p in (ring, hoop, ring)]
    monkeypatch.setattr(nodal, "extract_nodal", lambda fn, box, h: nodal.NodalSet(curves, 0))
    out = tmp_path / "curves"
    assert main(["nodal", "--out", str(out), "--set", "input=" + data_path("single_center.json")]) == EXIT_OK
    links = json.loads(Path(f"{out}.topology.json").read_text())["linking"]
    assert [e["pair"] for e in links] == [[0, 1], [0, 2], [1, 2]]
    for entry in (links[0], links[2]):
        assert sorted(entry) == ["field", "link", "pair"]
        assert abs(entry["link"]) == 1
    assert links[1] == {"field": "field", "pair": [0, 2], "link": None, "reason": "curves intersect"}


def test_verify_laplace_row_certifies_at_high_degree(tmp_path):
    out = tmp_path / "errors.csv"
    code = main(
        [
            "verify",
            "--out",
            str(out),
            "--set",
            "input=" + data_path("single_center.json"),
            "--set",
            "k_sweep=40,320",
            "--set",
            "m=0",
        ]
    )
    assert code == EXIT_OK
    rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
    laplace = {int(r[3]): (float(r[1]), float(r[2])) for r in rows if r[0] == "laplace"}
    assert sorted(laplace) == [40, 320]
    for k, (resid, h) in laplace.items():
        assert h == 0.04 / k
        assert resid < 1e-3, (k, resid)


def test_verify_sweep_rows_equal_single_degree_runs(tmp_path, monkeypatch):
    # phi's lattice and the laplace samples' charts do not depend on k: a
    # sweep builds each once (the 16 sample charts and the config's own
    # chart are 17 random_chart calls, not 1 + 16 per k), and its rows are,
    # byte for byte, the rows of one run per degree with the same seed
    from eigenknot import harmonics, sphere

    field = tmp_path / "field.json"
    approximate = ["approximate", "--out", str(field), "--set", "density=random", "--set", "density_seed=3"]
    assert main([*approximate, "--set", "delta=1e-3"]) == EXIT_OK
    calls = {"phi": 0, "charts": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(harmonics, "_plane_wave_grid", counted("phi", harmonics._plane_wave_grid))
    monkeypatch.setattr(harmonics, "eval_bessel_sum", counted("phi", harmonics.eval_bessel_sum))
    monkeypatch.setattr(sphere, "random_chart", counted("charts", sphere.random_chart))
    harmonics._laplace_samples.cache_clear()

    def rows(out, sweep):
        argv = ["verify", "--out", str(out), "--set", f"input={field}", "--set", "chart_seed=5", "--set", "seed=2"]
        assert main([*argv, "--set", f"k_sweep={sweep}"]) == EXIT_OK
        return out.read_text().splitlines()[2:]

    swept = rows(tmp_path / "sweep.csv", "40,80,160")
    assert calls == {"phi": 1, "charts": 17}
    single = [line for k in (40, 80, 160) for line in rows(tmp_path / f"k{k}.csv", k)]
    assert calls == {"phi": 4, "charts": 20}
    assert len(swept) == 3 * 4 and swept == single


def test_verify_step_too_coarse_for_stencils_names_h(tmp_path, capsys):
    # h = 5 is a valid positive step, but the unit ball holds no lattice point
    # with all six axis neighbours, so the m = 2 differences have nothing to read
    code = main(
        [
            "verify",
            "--out",
            str(tmp_path / "errors.csv"),
            "--set",
            "input=" + data_path("single_center.json"),
            "--set",
            "k_sweep=40",
            "--set",
            "h=5",
        ]
    )
    assert code == EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "numerical"
    assert err["detail"].startswith("h = 5 leaves no interior lattice point")


def test_nodal_refuses_a_harmonic_input(tmp_path, capsys):
    # a synthesize output is a harmonic on S^3, neither a Bessel sum nor a spinor
    harmonic = tmp_path / "harmonic"
    argv = ["synthesize", "--out", str(harmonic), "--set", "input=" + data_path("single_center.json")]
    assert main(argv + ["--set", "k=12"]) == EXIT_OK
    capsys.readouterr()
    argv = ["nodal", "--out", str(tmp_path / "curves"), "--set", f"input={harmonic}", "--set", "h=0.3"]
    assert main(argv) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert err["detail"].startswith("config key input must name a spinor or Bessel sum file, got a harmonic file")


@pytest.mark.parametrize(
    "command, settings, key",
    [
        ("synthesize", ["input={wide}", "k=2"], "k"),
        ("verify", ["input={wide}", "k_sweep=2,40"], "k_sweep"),
        ("spinorize", ["input1={wide}", "input2={single}", "k=2"], "k"),
        ("spinorize", ["input1={single}", "input2={wide}", "k=2"], "k"),
    ],
)
def test_degree_at_or_below_the_input_radius_exit_code(tmp_path, capsys, command, settings, key):
    # R = 2.5, as approximate writes by default: synthesis needs k > R
    wide = tmp_path / "wide.json"
    wide.write_text(BesselSum(3, [1.0], [[0.0, 0.0, 0.3]], 2.5).to_json())
    settings = [s.format(wide=wide, single=data_path("single_center.json")) for s in settings]
    args = [arg for item in settings for arg in ("--set", item)]
    assert main([command, "--out", str(tmp_path / "out"), *args]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert err["detail"] == f"config key {key} must exceed the input radius R = 2.5, got 2"
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize(
    "command, args, key, value",
    [
        ("approximate", ["--seed", "-1"], "seed", -1),
        ("approximate", ["--set", "density=random", "--set", "density_seed=-3"], "density_seed", -3),
        ("synthesize", ["--set", "input={single}", "--set", "k=3", "--seed", "-1"], "seed", -1),
        ("synthesize", ["--set", "input={single}", "--set", "k=3", "--set", "chart_seed=-2"], "chart_seed", -2),
        (
            "spinorize",
            ["--set", "input1={single}", "--set", "input2={single}", "--set", "k=3", "--set", "seed=-1"],
            "seed",
            -1,
        ),
        ("verify", ["--set", "input={single}", "--seed", "-1"], "seed", -1),
        ("verify", ["--set", "input={single}", "--set", "chart_seed=-1.0"], "chart_seed", -1.0),
        ("torus", ["--set", "seed=-1"], "seed", -1),
        ("nodal", ["--set", "input={single}", "--seed", "-1"], "seed", -1),
    ],
)
def test_negative_seed_exit_code(tmp_path, capsys, command, args, key, value):
    # numpy's generators take non-negative seeds only; the CLI names the key
    # (exit 2) before anything is written, where numpy's message named none (exit 4)
    args = [a.format(single=data_path("single_center.json")) for a in args]
    assert main([command, "--out", str(tmp_path / "out"), *args]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "detail": f"config key {key} must be a non-negative integer, got {value!r}"}
    assert not list(tmp_path.iterdir())


def test_nodal_curves_file_matches_the_encode_parse_encode_path(tmp_path, monkeypatch):
    # <out>.json is written from the curves' dicts; its bytes equal those of
    # encoding the curves, parsing the text and encoding it again
    import eigenknot as ek
    from eigenknot import cli, nodal

    design = ek.hopf_link_design()
    comp = tmp_path / "hopf1.json"
    comp.write_text(design.components[0].to_json())
    found = []
    extract = nodal.extract_nodal

    def spy(fn, box, h):
        found.append(extract(fn, box, h))
        return found[-1]

    monkeypatch.setattr(nodal, "extract_nodal", spy)
    lo, hi = design.boxes[0]
    out = tmp_path / "curves"
    argv = ["nodal", "--out", str(out), "--set", f"input={comp}", "--set", "h=0.3"]
    argv += ["--set", "box_lo=" + ",".join(map(str, lo)), "--set", "box_hi=" + ",".join(map(str, hi))]
    assert main(argv) == EXIT_OK
    written = Path(f"{out}.json").read_bytes()
    curves = [c for nset in found for c in nset.curves]
    assert curves and any(c.closed for c in curves)
    doc = json.loads(nodal.curves_to_json(curves))
    doc["manifest"] = json.loads(written)["manifest"]
    assert written == (cli._canonical(doc) + "\n").encode()


#: Config values a mutation writes, as --set would give them.  None of them only
#: sets the size of the work (a tiny h, a huge k, trials or resolution).
_CONFIG_VALUES = ["nan", "inf", "-1", "0", "2.5", "x", "true", "1,2"]

#: Per command: a cheap valid configuration, whose {file} is the input file a
#: mutation may edit, and every key the command reads.
_COMMAND_RUNS = {
    "approximate": (["resolution=4", "delta=0.5"], ["density", "resolution", "delta", "radius", "seed"]),
    "synthesize": (["input={file}", "k=3"], ["input", "k", "chart", "chart_seed", "chart_base", "seed"]),
    "spinorize": (
        ["input1={file}", "input2={single}", "k=3"],
        ["input1", "input2", "k", "chart", "chart_seed", "chart_base", "seed"],
    ),
    "verify": (
        ["input={file}", "k_sweep=3", "m=0", "h=0.5"],
        ["input", "k_sweep", "m", "h", "chart", "chart_seed", "chart_base", "seed"],
    ),
    "nodal": (
        ["input={file}", "h=0.4"],
        ["input", "h", "box_lo", "box_hi", "field_box_lo", "component1_box_hi", "seed"],
    ),
    "torus": (["k=3", "trials=50"], ["n", "k", "k_sweep", "trials", "density", "localize", "seed"]),
}

#: Spinor fields that no reader reads, so a non-finite value there may pass.
_UNREAD_FIELDS = ("eigenvalue", "dirac_residual", "manifest")


def _json_paths(doc, prefix=()):
    """The path of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def _value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(doc, path, how):
    """A copy of doc with the value at `path` dropped, retyped, non-finite, resized or an int written as a float."""
    doc = json.loads(json.dumps(doc))
    holder, last = _value_at(doc, path[:-1]), path[-1]
    value = holder[last]
    if how == "drop":
        del holder[last]
    elif how == "shorter":
        holder[last] = value[:-1]
    elif how == "longer":
        holder[last] = value + value[-1:]
    elif how == "float":
        holder[last] = float(value)
    else:
        holder[last] = {"string": "x", "object": {}, "nan": float("nan"), "inf": float("inf"), "null": None}[how]
    return doc


@pytest.fixture(scope="module")
def mutation_inputs(tmp_path_factory):
    """The bundled single-center field and its degree-12 spinorize output, as parsed documents."""
    single = json.loads(Path(data_path("single_center.json")).read_text())
    spinor = json.loads(_spinor_file(tmp_path_factory.mktemp("spinor")).read_text())
    return {"Bessel sum": single, "spinor": spinor}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_input_never_ends_in_a_traceback_or_a_non_finite_output(mutation_inputs, data):
    """One mutated input file or config value: the documented exit code, a named key, finite outputs.

    main is called in-process, so an exception leaving it fails the example.
    """
    command = data.draw(st.sampled_from(sorted(_COMMAND_RUNS)))
    items, keys = _COMMAND_RUNS[command]
    kind = "spinor" if command == "nodal" and data.draw(st.booleans()) else "Bessel sum"
    doc, refuse = mutation_inputs[kind], False
    if any("{file}" in item for item in items) and data.draw(st.booleans()):
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        value = _value_at(doc, path)
        hows = ["drop", "string", "object", "nan", "inf", "null"]
        hows += ["shorter", "longer"] if isinstance(value, list) and value else []
        hows += ["float"] if type(value) is int else []
        how = data.draw(st.sampled_from(hows))
        doc = _mutated(doc, path, how)
        # a number that is not one, in a field the reader reads, never passes
        refuse = how in ("nan", "inf", "null") and path[0] not in _UNREAD_FIELDS
        # and a term's coefficient is exactly the pair [re, im]
        refuse = refuse or (how in ("shorter", "longer") and path[-1] == "c")
    else:
        items = [*items, f"{data.draw(st.sampled_from(keys))}={data.draw(st.sampled_from(_CONFIG_VALUES))}"]
    with tempfile.TemporaryDirectory() as work:
        source = Path(work, "input.json")
        source.write_text(json.dumps(doc))
        out = Path(work, "out")
        out.mkdir()
        argv = [command, "--out", str(out / "result")]
        for item in items:
            argv += ["--set", item.format(file=source, single=data_path("single_center.json"))]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_TOLERANCE, EXIT_NUMERICAL)
        assert not (refuse and code == EXIT_OK)
        if code == EXIT_CONFIG:
            detail = json.loads(stderr.getvalue().strip().splitlines()[-1])["detail"]
            assert detail.startswith("config key "), detail
        if code == EXIT_OK:
            for written in out.iterdir():
                assert not re.search(r"\b(nan|inf|infinity)\b", written.read_text(), re.IGNORECASE), written.name
