"""CLI behavior: determinism, manifests, exit codes, bundled examples."""

import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

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


def test_unreachable_tolerance_exit_code(tmp_path):
    out = tmp_path / "approx.json"
    code = main(
        [
            "approximate",
            "--out",
            str(out),
            "--set",
            "delta=1e-30",
            "--set",
            "max_terms=10",
        ]
    )
    assert code == EXIT_TOLERANCE


def test_approximate_and_verify_roundtrip(tmp_path):
    approx = tmp_path / "field.json"
    assert (
        main(["approximate", "--out", str(approx), "--set", "density=linear_z", "--set", "delta=1e-3"])
        == EXIT_OK
    )
    doc = json.loads(approx.read_text())
    assert doc["achieved_error"] <= 1e-3
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
    assert doc["orientation"] in (-1, 1)
    for name in doc["components"]:
        assert (tmp_path / name).is_file()


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
    ],
)
def test_non_integer_config_value_exit_code(tmp_path, capsys, command, setting, key):
    _config_error_names_key(tmp_path, capsys, command, setting, key)


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
    monkeypatch.setattr(nodal, "extract_nodal", lambda fn, box, h: nodal.NodalSet(curves, 0, h))
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
