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

from . import __version__, sphere
from .helmholtz import (
    BesselSum,
    HerglotzDensity,
    ToleranceError,
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


class _Config(dict):
    """A command's config that records the keys the command reads.

    write_manifest refuses any key not read by then, so a misspelt or
    foreign key names itself (exit 2) instead of passing silently.  main
    owns ``out`` and ``seed``: it reads both for every command and hands
    them over as ``out`` (a Path) and ``seed`` (a validated int); the
    manifest records the raw ``seed`` value.
    """

    def __init__(self, command: str, entries: dict):
        super().__init__(entries)
        self.command = command
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def refuse_unread(self) -> None:
        unread = sorted(set(self) - self.read)
        if unread:
            raise ConfigError(f"config key {unread[0]} is not read by the {self.command} command")


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


def _seed(key: str, value) -> int:
    """A seed: numpy's generators take non-negative integers only, so anything else names its key."""
    out = _int(key, value)
    if out < 0:
        raise ConfigError(f"config key {key} must be a non-negative integer, got {value!r}")
    return out


def _positive(cast, key: str, value):
    """cast(key, value) for a key whose value must be > 0."""
    out = cast(key, value)
    if out <= 0:
        raise ConfigError(f"config key {key} must be positive, got {value!r}")
    return out


def _choice(key: str, value, options: tuple):
    """A config value that must be one of `options`; anything else names its key."""
    if value not in options:
        raise ConfigError(f"config key {key} must be one of {', '.join(map(str, options))}, got {value!r}")
    return value


def _ints(key: str, value) -> list:
    """A config number or list as positive ints; anything else names its key."""
    return [_positive(_int, key, v) for v in (value if isinstance(value, list) else [value])]


def _floats(key: str, value, length: int) -> np.ndarray:
    """A config list as floats; anything but `length` finite numbers names its key."""
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ConfigError(f"config key {key} must be {length} comma-separated numbers, got {value!r}")
    return np.array([_float(key, v) for v in value])


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _hash_file(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(cfg: _Config, inputs) -> str:
    cfg.refuse_unread()
    # the output location is not an input to the computation; leaving it out
    # keeps manifests (and thus output bytes) identical across destinations
    manifest = {
        "config": {k: cfg[k] for k in sorted(cfg) if k != "out"},
        "inputs": {str(p): _hash_file(p) for p in inputs},
        "seed": cfg["seed"],
        "version": __version__,
    }
    text = _canonical(manifest)
    digest = hashlib.sha256(text.encode()).hexdigest()
    # every output lies next to the manifest, so this makes their directory too
    cfg.out.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{cfg.out}.manifest.json").write_text(text + "\n")
    return digest


def _write_json(path: Path, doc: dict, manifest: str):
    doc = dict(doc)
    doc["manifest"] = manifest
    path.write_text(_canonical(doc) + "\n")


def _density_kind(cfg: dict) -> str:
    return _choice("density", cfg.get("density", "constant"), ("constant", "linear_z", "random"))


def _density_from_config(cfg: _Config, n: int) -> HerglotzDensity:
    resolution = _positive(_int, "resolution", cfg.get("resolution", 24))
    kind = _density_kind(cfg)
    if kind == "constant":
        return HerglotzDensity.constant(n, 1.0, resolution)
    if kind == "linear_z":
        return HerglotzDensity.from_function(n, lambda xi: xi[:, -1].astype(complex), resolution)
    rng = np.random.default_rng(_seed("density_seed", cfg.get("density_seed", cfg.seed)))
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=(n, n))

    def fn(xi):
        return xi @ a + np.einsum("mi,ij,mj->m", xi, b, xi) + 1.0

    return HerglotzDensity.from_function(n, fn, resolution)


#: The kinds of JSON file the commands write (spinorize, synthesize, approximate),
#: each told by a key only it holds, tried in this order (a spinor file holds k too).
_FILE_KINDS = (("components", "spinor"), ("k", "harmonic"), ("R", "Bessel sum"))


def _read_input(key: str, path: str, kinds: tuple):
    """The BesselSum or spinor dict in the JSON file under `key`; a bad file names the key."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config key {key} names no readable JSON file ({exc}): {path}")
    kind = next((kind for mark, kind in _FILE_KINDS if isinstance(doc, dict) and mark in doc), "unrecognized")
    if kind not in kinds:
        article = "an" if kind == "unrecognized" else "a"
        raise ConfigError(f"config key {key} must name a {' or '.join(kinds)} file, got {article} {kind} file: {path}")
    if kind == "spinor":
        return doc
    try:
        return BesselSum.from_dict(doc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key} names a malformed {kind} file ({type(exc).__name__}: {exc}): {path}")


def _three_dimensional(key: str, bsum: BesselSum) -> BesselSum:
    """bsum, read from the file under `key`; a Bessel sum in n != 3 names that key."""
    if bsum.n != 3:
        raise ConfigError(f"config key {key} must name a Bessel sum in n = 3, got n = {bsum.n}")
    return bsum


def _above_radius(key: str, k: int, *sums: BesselSum) -> None:
    """Refuse a degree k <= R under `key`: synthesis needs the centers x_j / k inside the unit ball."""
    radius = max(s.radius for s in sums)
    if k <= radius:
        raise ConfigError(f"config key {key} must exceed the input radius R = {radius:g}, got {k}")


def _chart_from_config(cfg: _Config, n: int, default_kind: str = "random") -> sphere.Chart:
    """chart = random | adapted.  Spinor work defaults to the adapted gauge
    (chart frame aligned with the left-invariant frame at the base point);
    scalar synthesis is chart-insensitive and defaults to a seeded frame."""
    kind = _choice("chart", cfg.get("chart", default_kind), ("adapted", "random"))
    seed = _seed("chart_seed", cfg.get("chart_seed", cfg.seed))
    base = cfg.get("chart_base")
    if base is not None:
        base = _floats("chart_base", base, n + 1)
        if not base.any():
            raise ConfigError("config key chart_base must not be the zero vector")
    if kind == "adapted":
        if n != 3:
            raise ConfigError(f"config key chart must be random on S^{n}: adapted charts are specific to S^3")
        from . import spinor3

        return spinor3.adapted_chart(base if base is not None else np.array([1.0, 0, 0, 0]))
    return sphere.random_chart(n, seed, p0=base)


def cmd_approximate(cfg: _Config) -> int:
    density = _density_from_config(cfg, 3)
    delta = _positive(_float, "delta", cfg.get("delta", 1e-3))
    radius = _positive(_float, "radius", cfg.get("radius", 2.5))
    manifest = write_manifest(cfg, [])
    bsum = herglotz_discretize(density, delta, radius=radius, seed=cfg.seed)
    doc = bsum.to_dict()
    doc["achieved_error"] = bsum.report.achieved
    doc["achieved_bound"] = bsum.report.bound
    doc["error_constant"] = bsum.report.constant
    _write_json(cfg.out, doc, manifest)
    print(
        f"wrote {cfg.out} (N={len(bsum)}, achieved={bsum.report.achieved:.3e}, bound={bsum.report.bound:.3e})",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_synthesize(cfg: _Config) -> int:
    from . import harmonics

    src = str(_require(cfg, "input"))
    k = _positive(_int, "k", _require(cfg, "k"))
    bsum = _read_input("input", src, ("Bessel sum",))
    _above_radius("k", k, bsum)
    chart = _chart_from_config(cfg, bsum.n)
    manifest = write_manifest(cfg, [src])
    Y = harmonics.synthesize(bsum, k, chart)
    _write_json(cfg.out, Y.to_dict(), manifest)
    print(f"wrote {cfg.out} (k={k}, N={len(Y)})", file=sys.stderr)
    return EXIT_OK


def cmd_spinorize(cfg: _Config) -> int:
    from . import harmonics, spinor3

    src1 = str(_require(cfg, "input1"))
    src2 = str(_require(cfg, "input2"))
    k = _positive(_int, "k", _require(cfg, "k"))
    b1 = _three_dimensional("input1", _read_input("input1", src1, ("Bessel sum",)))
    b2 = _three_dimensional("input2", _read_input("input2", src2, ("Bessel sum",)))
    _above_radius("k", k, b1, b2)
    chart = _chart_from_config(cfg, 3, default_kind="adapted")
    manifest = write_manifest(cfg, [src1, src2])
    pair = [harmonics.synthesize(b, k, chart) for b in (b1, b2)]
    psi = spinor3.dirac_project(spinor3.SpinorField3(tuple(pair)), k)
    resid = spinor3.dirac_residual(psi, 1.5 + k, samples=32, seed=cfg.seed)
    _write_json(
        cfg.out,
        {
            "k": k,
            "chart": chart.to_dict(),
            "components": [y.to_dict()["terms"] for y in pair],
            "orientation": 1,
            "eigenvalue": 1.5 + k,
            "dirac_residual": resid,
        },
        manifest,
    )
    print(f"wrote {cfg.out} (eigenvalue {1.5 + k}, residual {resid:.2e})", file=sys.stderr)
    return EXIT_OK


def load_spinor(path: str, doc: dict):
    """(psi, chart, k) of the spinor file `path`, parsed as `doc`: psi is the Dirac projection of its pair."""
    from . import harmonics, spinor3

    # a malformed file is a config error naming its key, never a numerical one
    try:
        terms, k = doc["components"], doc.get("k")
        # spinor3.GAMMA fixes the frame orientation; a file recorded with the
        # other one would be evaluated in the wrong convention
        if doc.get("orientation", 1) != 1:
            raise ValueError(f"orientation {doc['orientation']!r}, not 1")
        if not (isinstance(terms, list) and len(terms) == 2 and all(isinstance(t, list) for t in terms)):
            raise ValueError("components must be two term lists")
        if type(k) is not int:
            raise ValueError(f"k {k!r} is not an integer")
        chart = sphere.Chart.from_dict(doc["chart"])
        if chart.n != 3:
            raise ValueError(f"chart on S^{chart.n}, not S^3")
        pair = [harmonics.UltrasphericalSum.from_dict({"n": 3, "k": k, "terms": t}) for t in terms]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"config key input names a malformed spinor file ({type(exc).__name__}: {exc}): {path}")
    return spinor3.dirac_project(spinor3.SpinorField3(tuple(pair)), k), chart, k


def cmd_verify(cfg: _Config) -> int:
    from . import harmonics

    src = str(_require(cfg, "input"))
    sweep = _ints("k_sweep", cfg.get("k_sweep", [40, 80, 160]))
    if sweep != sorted(sweep) or len(set(sweep)) != len(sweep):
        raise ConfigError(f"config key k_sweep must be strictly increasing, got {sweep}")
    m = _choice("m", _int("m", cfg.get("m", 2)), (0, 1, 2))
    h = _positive(_float, "h", cfg.get("h", 0.125))
    bsum = _three_dimensional("input", _read_input("input", src, ("Bessel sum",)))
    _above_radius("k_sweep", sweep[0], bsum)  # the least degree, as the sweep increases
    chart = _chart_from_config(cfg, bsum.n)
    manifest = write_manifest(cfg, [src])
    lattice = harmonics.localization_lattice(bsum, m, h=h)
    rows = []
    for k in sweep:
        Y = harmonics.synthesize(bsum, k, chart)
        report = harmonics.localization_error(lattice, Y)
        rows.extend(report.to_csv_rows())
        # a step proportional to the wavelength keeps the O((kh)^2) stencil
        # error of the eigenvalue-relative residual the same at every k
        lap_h = 0.04 / k
        lap = harmonics.laplace_residual(Y, samples=16, h=lap_h, seed=cfg.seed)
        rows.append(("laplace", lap, lap_h, k))
    lines = [f"# manifest {manifest}", "order,sup_error,h,k"]
    lines += [f"{order},{err:.17g},{step:.17g},{k}" for order, err, step, k in rows]
    cfg.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {cfg.out} ({len(rows)} rows)", file=sys.stderr)
    return EXIT_OK


def _link_entry(name: str, pair: list, c1, c2) -> dict:
    """A topology linking entry; a null link carries the reason it could not be certified."""
    from . import nodal

    try:
        return {"field": name, "pair": pair, "link": nodal.linking_number(c1, c2)}
    except ValueError as exc:
        return {"field": name, "pair": pair, "link": None, "reason": str(exc)}


def _field_box(cfg: dict, name: str, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The nodal box of field `name`: `<name>_box_lo/hi` where set, else lo and hi.

    A box without hi > lo on every axis names the most specific key that set
    one of its bounds; the defaults are a valid box, so one of them did.
    """
    bounds = tuple(
        _floats(key, cfg[key], 3) if key in cfg else default
        for key, default in ((f"{name}_box_lo", lo), (f"{name}_box_hi", hi))
    )
    if not np.all(bounds[1] > bounds[0]):
        key = next(k for k in (f"{name}_box_hi", f"{name}_box_lo", "box_hi", "box_lo") if k in cfg)
        raise ConfigError(
            f"config key {key} leaves the box of {name} empty: need box_hi > box_lo on every axis, "
            f"got lo {bounds[0].tolist()} and hi {bounds[1].tolist()}"
        )
    return bounds


def cmd_nodal(cfg: _Config) -> int:
    from . import nodal

    src = str(_require(cfg, "input"))
    h = _positive(_float, "h", cfg.get("h", 0.05))
    lo = _floats("box_lo", cfg.get("box_lo", [-0.8, -0.8, -0.8]), 3)
    hi = _floats("box_hi", cfg.get("box_hi", [0.8, 0.8, 0.8]), 3)
    source = _read_input("input", src, ("spinor", "Bessel sum"))
    fields = []
    if isinstance(source, dict):
        from . import spinor3

        psi, chart, k = load_spinor(src, source)
        for a in (0, 1):
            fields.append((f"component{a + 1}", spinor3.component_pullback(psi, a, chart, k)))
    else:
        bsum = _three_dimensional("input", source)
        # extract_nodal reads this field only through its grid and its jet,
        # both bessel_sum_field's, and never makes the plain call; that call
        # goes through this module's eval_bessel_sum only to keep the binding
        # that bench/tracing.py wraps for this command
        base = bessel_sum_field(bsum)
        field = lambda x: eval_bessel_sum(bsum, x)
        field.jet, field.grid = base.jet, base.grid
        fields.append(("field", field))
    boxes = [_field_box(cfg, name, lo, hi) for name, _ in fields]
    manifest = write_manifest(cfg, [src])

    all_curves = []
    closed_by_field = []
    topo = {"curves": [], "linking": []}
    for (name, fn), bounds in zip(fields, boxes):
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
    Path(f"{cfg.out}.ply").write_text(nodal.curves_to_ply(all_curves, comment=f"manifest {manifest}"))
    _write_json(Path(f"{cfg.out}.json"), {"curves": [c.to_dict() for c in all_curves]}, manifest)
    _write_json(Path(f"{cfg.out}.topology.json"), topo, manifest)
    print(f"wrote {cfg.out}.ply/.json/.topology.json ({len(all_curves)} curves)", file=sys.stderr)
    return EXIT_OK


def cmd_torus(cfg: _Config) -> int:
    from . import torus

    n = _choice("n", _int("n", cfg.get("n", 3)), (2, 3, 4))
    key = "k_sweep" if "k_sweep" in cfg else "k"
    ks = _ints(key, cfg.get(key, [3]))
    trials = _positive(_int, "trials", cfg.get("trials", 4000))
    _density_kind(cfg)  # checked even when the run does not localize
    localize = _choice("localize", cfg.get("localize", False), (False, True))
    density = _density_from_config(cfg, n) if localize else None
    manifest = write_manifest(cfg, [])
    lines = [f"# manifest {manifest}", "k,count,discrepancy,localization_sup_error"]
    for k in ks:
        dirs = torus.lattice_directions(n, k)
        disc = torus.cap_discrepancy(dirs, trials=trials, seed=cfg.seed)
        loc = "" if density is None else f"{torus.torus_localize(density, dirs)[1]:.17g}"
        lines.append(f"{k},{len(dirs)},{disc:.17g},{loc}")
    cfg.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {cfg.out}", file=sys.stderr)
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
        cfg = _Config(args.command, load_config(args.config, args.set))
        if args.out is not None:
            cfg["out"] = args.out
        if args.seed is not None:
            cfg["seed"] = args.seed
        cfg.setdefault("seed", 0)
        cfg.out = Path(str(_require(cfg, "out")))
        cfg.seed = _seed("seed", cfg["seed"])
        return _COMMANDS[args.command](cfg)
    except (ConfigError, FileNotFoundError, KeyError) as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except ToleranceError as exc:
        print(json.dumps({"error": "tolerance", "detail": str(exc), "achieved": exc.achieved}), file=sys.stderr)
        return EXIT_TOLERANCE
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        print(json.dumps({"error": "numerical", "detail": str(exc)}), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
