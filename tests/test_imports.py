"""Import hygiene of the package, the tests and the scripts.

Stands in for a lint step.  No module imports a name it never uses: each
module's syntax tree is walked for an imported name that never appears as a
name or as the base of an attribute (names listed in ``__all__`` and
``from __future__`` imports are exempt).  No package module imports scipy at
module level, and a fresh interpreter runs the CLI pipelines without ever
loading it, and neither do design_bessel_sum without verify_tol,
fourier_bessel_truncate, FourierBesselSeries.eval, and the S^3 chord kernel
and the n = 3 and n = 5 Bessel kernels on pair-sized arrays; only the few
functions those do not call import scipy, inside the function.  No package module reaches numpy.polynomial anywhere
(its Gauss rules come from specialfn.gauss_gegenbauer), and the pipelines
never load it either.  No package module but ``__init__.py`` assigns
``__all__``, so the package's ``_EXPORTS`` table stays its one export list.

The package is lazy: ``import eigenknot`` loads none of its modules, every
``__all__`` name resolves to its home module's object, and a fresh
interpreter pins the exact set of eigenknot modules that ``import
eigenknot.cli`` and each CLI command load.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eigenknot

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "eigenknot").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            # the list's string literals; a starred entry built at run time exempts nothing
            exported.update(
                n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


def test_checker_finds_unused_names():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\n__all__ = ['d']\nsys.exit()\n"
    assert unused_imports(source) == [(2, "os"), (3, "c")]
    assert unused_imports("import os, sys\nNAMES = ['sys']\n__all__ = ['os', *NAMES]\n") == [(1, "sys")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def module_level_scipy_imports(source: str) -> list:
    """Lines of the scipy imports that run when the module is imported (not inside a function)."""
    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                lines.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return lines


def test_checker_finds_module_level_scipy_imports():
    source = (
        "import numpy, scipy.special\n"
        "from scipy import linalg\n"
        "from .scipy import x\n"
        "import scipyx\n"
        "if True:\n"
        "    from scipy.spatial import cKDTree\n"
        "class A:\n"
        "    import scipy\n"
        "    def f(self):\n"
        "        from scipy.special import jv\n"
        "def g():\n"
        "    import scipy\n"
    )
    assert module_level_scipy_imports(source) == [1, 2, 6, 8]


def all_assignments(source: str) -> list:
    """Lines that bind ``__all__`` by a plain, augmented or annotated assignment, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_all_assignments():
    source = "__all__ = ['a']\nx = __all__\nif x:\n    __all__ += ['b']\n__all__: list = []\nall = 1\n"
    assert all_assignments(source) == [1, 4, 5]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "__init__.py"], ids=lambda p: p.name)
def test_only_the_package_init_lists_exports(path):
    # the package's _EXPORTS table is its one export list
    found = all_assignments(path.read_text())
    assert not found, "; ".join(f"{path.relative_to(ROOT)}:{line} assigns __all__" for line in found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    found = module_level_scipy_imports(path.read_text())
    assert not found, "; ".join(
        f"{path.relative_to(ROOT)}:{line} imports scipy at module level" for line in found
    )


def numpy_polynomial_uses(source: str) -> list:
    """Lines that import numpy.polynomial or read it as an attribute of numpy, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}".replace("np.", "numpy.", 1)]
        else:
            names = []
        if any(name == "numpy.polynomial" or name.startswith("numpy.polynomial.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_numpy_polynomial_uses():
    source = (
        "import numpy as np, numpy.polynomial\n"
        "from numpy.polynomial.legendre import leggauss\n"
        "from numpy import polynomial\n"
        "def f():\n"
        "    from numpy.polynomial import legendre\n"
        "    return np.polynomial.legendre.leggauss(4)\n"
        "from numpy import linalg\n"
        "import polynomial\n"
        "x = np.linalg.norm\n"
    )
    assert numpy_polynomial_uses(source) == [1, 2, 3, 5, 6]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_numpy_polynomial(path):
    found = numpy_polynomial_uses(path.read_text())
    assert not found, "; ".join(f"{path.relative_to(ROOT)}:{line} reaches numpy.polynomial" for line in found)


# Hopf design, then approximate -> verify and spinorize -> nodal through the
# CLI on small configs, torus at n = 2, 3 and 4 with localization, a designed
# circle with its nodal check, the
# Fourier-Bessel modes of a density and of the design, the pair kernels on one
# block of PAIR_BLOCK point-center pairs and radii, and the Hausdorff distances and
# separation-checked link of the nodal curves; prints the scipy and
# numpy.polynomial modules loaded by the end
PIPELINES = """
import json, sys
from pathlib import Path

import numpy as np

import eigenknot
from eigenknot.cli import EXIT_OK, main
from eigenknot.helmholtz import fourier_bessel_truncate
from eigenknot.specialfn import bessel_kernel, gegenbauer3_zonal
from eigenknot.sphere import PAIR_BLOCK

points = np.random.default_rng(0).normal(size=(PAIR_BLOCK // 128 + 128, 4))
points /= np.linalg.norm(points, axis=1, keepdims=True)
points[-2:] = points[0], -points[1]  # a coincident and an antipodal pair
zonal = gegenbauer3_zonal(60, points[:-128], points[-128:], 3)
assert all(c.shape == (PAIR_BLOCK // 128, 128) and np.all(np.isfinite(c)) for c in zonal)
radii = np.linspace(0.0, 40.0, PAIR_BLOCK)
assert all(np.all(np.isfinite(bessel_kernel(n, radii))) for n in (3, 5))

t = np.linspace(0.0, 2.0 * np.pi, 25)
ring = np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=-1)
circle = eigenknot.design_bessel_sum([(ring, 0)], budget=60, verify_tol=0.02)
density = eigenknot.HerglotzDensity.from_function(3, lambda xi: xi[:, 2] + 0.5j, 8)
for source in (density, circle.components[0]):
    series = fourier_bessel_truncate(source, 6)
    assert np.all(np.isfinite(series.eval(np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.5]]))))
design = eigenknot.hopf_link_design()
for a in (0, 1):
    with open(f"hopf{a}.json", "w") as fh:
        fh.write(design.components[a].to_json())
runs = [
    ["approximate", "--out", "field.json", "--set", "density=linear_z", "--set", "delta=1e-3"],
    ["verify", "--out", "errors.csv", "--set", "input=field.json", "--set", "k_sweep=40", "--set", "m=1"],
    ["spinorize", "--out", "spinor.json", "--set", "input1=hopf0.json", "--set", "input2=hopf1.json",
     "--set", "k=60"],
    ["nodal", "--out", "curves", "--set", "input=spinor.json", "--set", "h=0.26",
     "--set", "component1_box_lo=-3.8,-3.8,-1.9", "--set", "component1_box_hi=3.8,3.8,1.9",
     "--set", "component2_box_lo=-4.8,-1.9,-3.9", "--set", "component2_box_hi=1.6,1.9,3.9"],
    *(["torus", "--out", f"torus{n}.csv", "--set", f"n={n}", "--set", "k=5", "--set", "trials=200",
       "--set", "localize=true", "--set", "resolution=8"] for n in (2, 3, 4)),
]
for argv in runs:
    assert main(argv) == EXIT_OK, argv[0]
topology = json.loads(Path("curves.topology.json").read_text())
links = [e["link"] for e in topology["linking"] if e["field"] == "cross"]
assert links and abs(links[0]) == 1, links
closed = [c for c in eigenknot.nodal.curves_from_json(Path("curves.json").read_text()) if c.closed]
assert len(closed) == 2 and eigenknot.linking_number(*closed, min_separation=1e-3) == links[0]
assert 0.0 < eigenknot.hausdorff_dist(*closed) == eigenknot.hausdorff_dist(closed[1], closed[0].vertices)
watched = ("scipy", "numpy.polynomial")
print(json.dumps(sorted(m for m in sys.modules if any(m == w or m.startswith(w + ".") for w in watched))))
"""


def _fresh(cwd, *args):
    """The JSON last line printed by a fresh interpreter run with `args` in `cwd`."""
    src = str(Path(eigenknot.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_pipelines_never_load_scipy(tmp_path):
    assert _fresh(tmp_path, "-c", PIPELINES) == []


def test_star_import_binds_every_name_from_its_home_module():
    namespace = {}
    exec("from eigenknot import *", namespace)
    assert set(eigenknot.__all__) <= set(namespace)
    for name in eigenknot.__all__:
        value = namespace[name]
        if name == "__version__":
            assert value == eigenknot.__version__
        elif isinstance(value, type(eigenknot)):
            assert value is importlib.import_module(f"eigenknot.{name}")
        else:
            assert value.__module__.startswith("eigenknot."), name
            assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_package_dir_and_unknown_names():
    assert set(eigenknot.__all__) <= set(dir(eigenknot))
    assert not hasattr(eigenknot, "nope")
    with pytest.raises(AttributeError, match="^module 'eigenknot' has no attribute 'nope'$"):
        eigenknot.nope


# runs the command line given as arguments, then prints its exit code and the
# eigenknot modules loaded by the end
COMMAND = """
import json, sys
from eigenknot.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("eigenknot."))]))
"""


@pytest.mark.parametrize(
    "statement, loaded",
    [("import eigenknot", []), ("import eigenknot.cli", ["cli", "helmholtz", "specialfn", "sphere"])],
)
def test_fresh_import_loads_only(tmp_path, statement, loaded):
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('eigenknot.'))))"
    assert _fresh(tmp_path, "-c", code) == [f"eigenknot.{name}" for name in loaded]


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """A directory holding approximate's Bessel sum, the Hopf design's two
    components and their spinor at k = 60, written in this process."""
    from eigenknot.cli import EXIT_OK, main

    work = tmp_path_factory.mktemp("commands")
    design = eigenknot.hopf_link_design()
    for a in (0, 1):
        (work / f"hopf{a}.json").write_text(design.components[a].to_json())
    runs = [
        ["approximate", "--set", "density=linear_z", "--set", "resolution=8", "--out", "field.json"],
        ["spinorize", "--set", "input1=hopf0.json", "--set", "input2=hopf1.json", "--set", "k=60",
         "--out", "spinor.json"],
    ]
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for argv in runs:
            assert main(argv) == EXIT_OK, argv[0]
    finally:
        os.chdir(cwd)
    return work


HOPF_BOXES = ["--set", "component1_box_lo=-3.8,-3.8,-1.9", "--set", "component1_box_hi=3.8,3.8,1.9",
              "--set", "component2_box_lo=-4.8,-1.9,-3.9", "--set", "component2_box_hi=1.6,1.9,3.9"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["approximate", "--set", "density=linear_z", "--set", "resolution=8"], []),
        (["synthesize", "--set", "input=field.json", "--set", "k=40"], ["harmonics"]),
        (["verify", "--set", "input=field.json", "--set", "k_sweep=40", "--set", "m=0"], ["harmonics"]),
        (["spinorize", "--set", "input1=hopf0.json", "--set", "input2=hopf1.json", "--set", "k=60"],
         ["harmonics", "spinor3"]),
        (["nodal", "--set", "input=spinor.json", "--set", "h=0.26", *HOPF_BOXES], ["harmonics", "nodal", "spinor3"]),
        (["nodal", "--set", "input=field.json", "--set", "h=0.4"], ["nodal"]),
        (["torus", "--set", "k=3", "--set", "trials=100"], ["torus"]),
    ],
    ids=["approximate", "synthesize", "verify", "spinorize", "nodal-spinor", "nodal-bessel", "torus"],
)
def test_each_command_loads_only_what_it_runs(command_inputs, argv, loaded):
    # every command needs cli, helmholtz, sphere and specialfn; the rest are
    # loaded by the commands that run them
    base = ["cli", "helmholtz", "specialfn", "sphere"]
    code, modules = _fresh(command_inputs, "-c", COMMAND, *argv, "--out", "fresh.out")
    assert code == 0
    assert modules == sorted(f"eigenknot.{name}" for name in base + loaded)
