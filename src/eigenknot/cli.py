"""Command-line pipeline: approximate, synthesize, spinorize, verify, nodal, torus.

Configuration lives in a flat key = value text file (ints, floats, booleans,
comma-separated number lists, strings); --set key=value flags override file
entries.  Every run writes a manifest (sha256 of the canonical config plus
input-file hashes, seed, package version) and each output cross-references
the manifest hash, so identical config + seed reproduces outputs
byte-for-byte.

Exit codes: 0 success, 2 config error, 3 tolerance not met, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, harmonics, nodal, sphere, spinor3, torus
from .helmholtz import (
    BesselSum,
    HerglotzDensity,
    ToleranceError,
    DesignError,
    bessel_sum_field,
    eval_bessel_sum,
    herglotz_discretize,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


def _parse_value(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    if "," in raw:
        try:
            return [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError:
            pass
    return raw


def load_config(path: str | None, overrides) -> dict:
    cfg: dict = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(p.read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            cfg[key.strip()] = _parse_value(raw)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        cfg[key.strip()] = _parse_value(raw)
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config key: {key}")
    return cfg[key]


def _int(key: str, value) -> int:
    """A config value as an int; anything but an integral number names its key."""
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise ConfigError(f"config key {key} must be an integer, got {value!r}")
    return int(value)


def _float(key: str, value) -> float:
    """A config value as a float; anything but a finite number names its key."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(f"config key {key} must be a finite number, got {value!r}")
    return float(value)


def _positive(cast, key: str, value):
    """cast(key, value) for a key whose value must be > 0."""
    out = cast(key, value)
    if out <= 0:
        raise ConfigError(f"config key {key} must be positive, got {value!r}")
    return out


def _choice(key: str, value, options: tuple) -> str:
    """A config value that must be one of `options`; anything else names its key."""
    if value not in options:
        raise ConfigError(f"config key {key} must be one of {', '.join(options)}, got {value!r}")
    return value


def _floats(key: str, value, length: int) -> np.ndarray:
    """A config list as floats; anything but `length` finite numbers names its key."""
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ConfigError(f"config key {key} must be {length} comma-separated numbers, got {value!r}")
    return np.array([_float(key, v) for v in value])


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _hash_file(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_prefix: Path, cfg: dict, inputs) -> str:
    # the output location is not an input to the computation; leaving it out
    # keeps manifests (and thus output bytes) identical across destinations
    manifest = {
        "config": {k: cfg[k] for k in sorted(cfg) if k != "out"},
        "inputs": {str(p): _hash_file(p) for p in inputs},
        "seed": cfg.get("seed", 0),
        "version": __version__,
    }
    text = _canonical(manifest)
    digest = hashlib.sha256(text.encode()).hexdigest()
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{out_prefix}.manifest.json").write_text(text + "\n")
    return digest


def _write_json(path: Path, doc: dict, manifest: str):
    doc = dict(doc)
    doc["manifest"] = manifest
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_canonical(doc) + "\n")


def _density_kind(cfg: dict) -> str:
    return _choice("density", cfg.get("density", "constant"), ("constant", "linear_z", "random"))


def _density_from_config(cfg: dict) -> HerglotzDensity:
    n = _int("n", cfg.get("n", 3))
    resolution = _positive(_int, "resolution", cfg.get("resolution", 24))
    kind = _density_kind(cfg)
    if kind == "constant":
        return HerglotzDensity.constant(n, 1.0, resolution)
    if kind == "linear_z":
        return HerglotzDensity.from_function(n, lambda xi: xi[:, -1].astype(complex), resolution)
    seed = _int("seed", cfg.get("seed", 0))
    rng = np.random.default_rng(_int("density_seed", cfg.get("density_seed", seed)))
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=(n, n))

    def fn(xi):
        return xi @ a + np.einsum("mi,ij,mj->m", xi, b, xi) + 1.0

    return HerglotzDensity.from_function(n, fn, resolution)


def _load_bessel(path: str) -> BesselSum:
    return BesselSum.from_json(Path(path).read_text())


def _chart_from_config(cfg: dict, n: int, default_kind: str = "random") -> sphere.Chart:
    """chart = random | adapted.  Spinor work defaults to the adapted gauge
    (chart frame aligned with the left-invariant frame at the base point);
    scalar synthesis is chart-insensitive and defaults to a seeded frame."""
    kind = _choice("chart", cfg.get("chart", default_kind), ("adapted", "random"))
    seed = _int("seed", cfg.get("seed", 0))
    seed = _int("chart_seed", cfg.get("chart_seed", seed))
    base = cfg.get("chart_base")
    if base is not None:
        base = _floats("chart_base", base, n + 1)
        if not base.any():
            raise ConfigError("config key chart_base must not be the zero vector")
    if kind == "adapted":
        if n != 3:
            raise ConfigError("adapted charts are specific to S^3")
        return spinor3.adapted_chart(base if base is not None else np.array([1.0, 0, 0, 0]))
    return sphere.random_chart(n, seed, p0=base)


def cmd_approximate(cfg: dict) -> int:
    out = Path(str(_require(cfg, "out")))
    density = _density_from_config(cfg)
    delta = _positive(_float, "delta", cfg.get("delta", 1e-3))
    radius = _positive(_float, "radius", cfg.get("radius", 2.5))
    seed = _int("seed", cfg.get("seed", 0))
    manifest = write_manifest(out, cfg, [])
    bsum = herglotz_discretize(density, delta, radius=radius, seed=seed)
    doc = bsum.to_dict()
    doc["achieved_error"] = bsum.report.achieved
    doc["error_constant"] = bsum.report.constant
    _write_json(out, doc, manifest)
    print(f"wrote {out} (N={len(bsum)}, achieved={bsum.report.achieved:.3e})", file=sys.stderr)
    return EXIT_OK


def cmd_synthesize(cfg: dict) -> int:
    out = Path(str(_require(cfg, "out")))
    src = str(_require(cfg, "input"))
    k = _positive(_int, "k", _require(cfg, "k"))
    bsum = _load_bessel(src)
    chart = _chart_from_config(cfg, bsum.n)
    manifest = write_manifest(out, cfg, [src])
    Y = harmonics.synthesize(bsum, k, chart)
    doc = Y.to_dict()
    doc["chart"] = chart.to_dict()
    _write_json(out, doc, manifest)
    print(f"wrote {out} (k={k}, N={len(Y)})", file=sys.stderr)
    return EXIT_OK


def _load_harmonic(path: str) -> tuple:
    doc = json.loads(Path(path).read_text())
    Y = harmonics.UltrasphericalSum.from_dict(doc)
    chart = sphere.Chart.from_dict(doc["chart"]) if "chart" in doc else None
    Y.chart = chart
    return Y, chart


def cmd_spinorize(cfg: dict) -> int:
    out = Path(str(_require(cfg, "out")))
    src1 = str(_require(cfg, "input1"))
    src2 = str(_require(cfg, "input2"))
    k = _positive(_int, "k", _require(cfg, "k"))
    b1, b2 = _load_bessel(src1), _load_bessel(src2)
    chart = _chart_from_config(cfg, 3, default_kind="adapted")
    manifest = write_manifest(out, cfg, [src1, src2])
    y1 = harmonics.synthesize(b1, k, chart)
    y2 = harmonics.synthesize(b2, k, chart)
    psi = spinor3.dirac_project(spinor3.SpinorField3((y1, y2), k=k), k)
    comp_paths = [Path(f"{out}.comp{a}.json") for a in (1, 2)]
    for path, y in zip(comp_paths, (y1, y2)):
        doc = y.to_dict()
        doc["chart"] = chart.to_dict()
        _write_json(path, doc, manifest)
    resid = spinor3.dirac_residual(psi, 1.5 + k, samples=32, seed=_int("seed", cfg.get("seed", 0)))
    _write_json(
        out,
        {
            "components": [p.name for p in comp_paths],
            "orientation": psi.orientation,
            "projected": True,
            "k": k,
            "eigenvalue": 1.5 + k,
            "dirac_residual": resid,
        },
        manifest,
    )
    print(f"wrote {out} (eigenvalue {1.5 + k}, residual {resid:.2e})", file=sys.stderr)
    return EXIT_OK


def load_spinor(path: str):
    doc = json.loads(Path(path).read_text())
    base = Path(path).parent
    y1, chart = _load_harmonic(str(base / doc["components"][0]))
    y2, _ = _load_harmonic(str(base / doc["components"][1]))
    k = int(doc["k"])
    psi = spinor3.SpinorField3((y1, y2), orientation=doc.get("orientation", 1), k=k)
    if doc.get("projected", False):
        psi = spinor3.dirac_project(psi, k)
    return psi, chart, k


def cmd_verify(cfg: dict) -> int:
    out = Path(str(_require(cfg, "out")))
    src = str(_require(cfg, "input"))
    sweep = cfg.get("k_sweep", [40, 80, 160])
    if not isinstance(sweep, list):
        sweep = [sweep]
    sweep = [_positive(_int, "k_sweep", k) for k in sweep]
    if sweep != sorted(sweep) or len(set(sweep)) != len(sweep):
        raise ConfigError("k_sweep must be strictly increasing")
    m = _int("m", cfg.get("m", 2))
    if m not in (0, 1, 2):
        raise ConfigError(f"config key m must be 0, 1 or 2, got {m!r}")
    seed = _int("seed", cfg.get("seed", 0))
    h = _positive(_float, "h", cfg.get("h", 0.125))
    bsum = _load_bessel(src)
    chart = _chart_from_config(cfg, bsum.n)
    manifest = write_manifest(out, cfg, [src])
    rows = []
    for k in sweep:
        Y = harmonics.synthesize(bsum, k, chart)
        report = harmonics.localization_error(bsum, Y, m=m, h=h)
        rows.extend(report.to_csv_rows())
        # a step proportional to the wavelength keeps the O((kh)^2) stencil
        # error of the eigenvalue-relative residual the same at every k
        lap_h = 0.04 / k
        lap = harmonics.laplace_residual(Y, samples=16, h=lap_h, seed=seed)
        rows.append(("laplace", lap, lap_h, k))
    lines = [f"# manifest {manifest}", "order,sup_error,h,k"]
    for order, err, step, k in rows:
        lines.append(f"{order},{err:.17g},{step:.17g},{k}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(rows)} rows)", file=sys.stderr)
    return EXIT_OK


def _link_entry(name: str, pair: list, c1, c2) -> dict:
    """A topology linking entry; a null link carries the reason it could not be certified."""
    try:
        return {"field": name, "pair": pair, "link": nodal.linking_number(c1, c2)}
    except ValueError as exc:
        return {"field": name, "pair": pair, "link": None, "reason": str(exc)}


def cmd_nodal(cfg: dict) -> int:
    out = Path(str(_require(cfg, "out")))
    src = str(_require(cfg, "input"))
    h = _positive(_float, "h", cfg.get("h", 0.05))
    lo = _floats("box_lo", cfg.get("box_lo", [-0.8, -0.8, -0.8]), 3)
    hi = _floats("box_hi", cfg.get("box_hi", [0.8, 0.8, 0.8]), 3)
    doc = json.loads(Path(src).read_text())
    manifest = write_manifest(out, cfg, [src])
    fields = []
    if "components" in doc:
        psi, chart, k = load_spinor(src)
        for a in (0, 1):
            fields.append((f"component{a + 1}", spinor3.component_pullback(psi, a, chart, k)))
    else:
        bsum = BesselSum.from_dict(doc)
        # extract_nodal reads this field only through its grid and its jet,
        # both bessel_sum_field's, and never makes the plain call; that call
        # goes through this module's eval_bessel_sum only to keep the binding
        # that bench/tracing.py wraps for this command
        base = bessel_sum_field(bsum)
        field = lambda x: eval_bessel_sum(bsum, x)
        field.jet, field.grid = base.jet, base.grid
        fields.append(("field", field))

    all_curves = []
    closed_by_field = []
    topo = {"curves": [], "linking": []}
    for name, fn in fields:
        bounds = tuple(
            _floats(key, cfg[key], 3) if key in cfg else default
            for key, default in ((f"{name}_box_lo", lo), (f"{name}_box_hi", hi))
        )
        nset = nodal.extract_nodal(fn, bounds, h)
        for idx, curve in enumerate(nset.curves):
            all_curves.append(curve)
            topo["curves"].append(
                {
                    "field": name,
                    "index": idx,
                    "closed": curve.closed,
                    "vertices": len(curve),
                    "min_margin": float(curve.margins.min()),
                    "converged": curve.converged,
                }
            )
        closed = nset.closed_curves()
        closed_by_field.append(closed)
        for i in range(len(closed)):
            for j in range(i + 1, len(closed)):
                topo["linking"].append(_link_entry(name, [i, j], closed[i], closed[j]))
    if len(fields) == 2 and closed_by_field[0] and closed_by_field[1]:
        # principal (largest) closed curve of each component
        topo["linking"].append(_link_entry("cross", [0, 0], closed_by_field[0][0], closed_by_field[1][0]))
    Path(f"{out}.ply").write_text(nodal.curves_to_ply(all_curves, comment=f"manifest {manifest}"))
    _write_json(Path(f"{out}.json"), json.loads(nodal.curves_to_json(all_curves)), manifest)
    _write_json(Path(f"{out}.topology.json"), topo, manifest)
    print(f"wrote {out}.ply/.json/.topology.json ({len(all_curves)} curves)", file=sys.stderr)
    return EXIT_OK


def cmd_torus(cfg: dict) -> int:
    out = Path(str(_require(cfg, "out")))
    n = _int("n", cfg.get("n", 3))
    key = "k_sweep" if "k_sweep" in cfg else "k"
    ks = cfg.get(key, [3])
    if not isinstance(ks, list):
        ks = [ks]
    ks = [_positive(_int, key, k) for k in ks]
    trials = _positive(_int, "trials", cfg.get("trials", 4000))
    seed = _int("seed", cfg.get("seed", 0))
    _density_kind(cfg)  # checked even when the run does not localize
    density = _density_from_config(cfg) if cfg.get("localize", False) else None
    manifest = write_manifest(out, cfg, [])
    lines = [f"# manifest {manifest}", "k,count,discrepancy,localization_sup_error"]
    for k in ks:
        dirs = torus.lattice_directions(n, k)
        disc = torus.cap_discrepancy(dirs, trials=trials, seed=seed)
        loc = ""
        if density is not None:
            _, report = torus.torus_localize(density, k, trials=trials, seed=seed)
            loc = f"{report.sup_error:.17g}"
        lines.append(f"{k},{len(dirs)},{disc:.17g},{loc}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "approximate": cmd_approximate,
    "synthesize": cmd_synthesize,
    "spinorize": cmd_spinorize,
    "verify": cmd_verify,
    "nodal": cmd_nodal,
    "torus": cmd_torus,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eigenknot",
        description="Localized spherical harmonics, S^3 Dirac eigenfields, nodal topology.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE", help="override a config entry"
    )
    parser.add_argument("--out", help="output path or prefix (overrides config)")
    parser.add_argument("--seed", type=int, help="seed (overrides config)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.set)
        if args.out is not None:
            cfg["out"] = args.out
        if args.seed is not None:
            cfg["seed"] = args.seed
        cfg.setdefault("seed", 0)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, FileNotFoundError, KeyError) as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except (ToleranceError, DesignError) as exc:
        detail = {"error": "tolerance", "detail": str(exc)}
        if isinstance(exc, ToleranceError):
            detail["achieved"] = exc.achieved
        print(json.dumps(detail), file=sys.stderr)
        return EXIT_TOLERANCE
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        print(json.dumps({"error": "numerical", "detail": str(exc)}), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
