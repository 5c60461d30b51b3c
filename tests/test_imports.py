"""Import hygiene of the package and the tests.

Stands in for a lint step.  No module imports a name it never uses: each
module's syntax tree is walked for an imported name that never appears as a
name or as the base of an attribute (names listed in ``__all__`` and
``from __future__`` imports are exempt).  No package module imports scipy at
module level, and a fresh interpreter runs the CLI pipelines without ever
loading it; only the few functions those pipelines do not call import scipy,
inside the function.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eigenknot

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "eigenknot").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


def test_checker_finds_unused_names():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\n__all__ = ['d']\nsys.exit()\n"
    assert unused_imports(source) == [(2, "os"), (3, "c")]


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


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    found = module_level_scipy_imports(path.read_text())
    assert not found, "; ".join(
        f"{path.relative_to(ROOT)}:{line} imports scipy at module level" for line in found
    )


# Hopf design, then approximate -> verify and spinorize -> nodal through the
# CLI on small configs; prints the scipy modules loaded by the end
PIPELINES = """
import json, sys
from pathlib import Path

import eigenknot
from eigenknot.cli import EXIT_OK, main

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
]
for argv in runs:
    assert main(argv) == EXIT_OK, argv[0]
topology = json.loads(Path("curves.topology.json").read_text())
links = [e["link"] for e in topology["linking"] if e["field"] == "cross"]
assert links and abs(links[0]) == 1, links
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_cli_pipelines_never_load_scipy(tmp_path):
    src = str(Path(eigenknot.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINES], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
