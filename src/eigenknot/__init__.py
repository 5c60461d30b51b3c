"""eigenknot: inverse localization of Helmholtz fields into high-degree
spherical harmonics and S^3 Dirac eigenfields, with extraction and
topological certification of the nodal curves of the spinor components.

Importing the package loads none of its modules: each submodule, and each
name below, is imported on first use (PEP 562) and then kept as a plain
module attribute.
"""

import importlib

__version__ = "0.1.0"

# the exported names of each submodule; a submodule exports itself too
_EXPORTS = {
    "specialfn": (),
    "sphere": ("Chart", "chart_to_sphere", "sphere_to_chart", "geodesic_dist", "random_chart"),
    "helmholtz": ("BesselSum", "HerglotzDensity", "eval_herglotz", "eval_bessel_sum", "herglotz_discretize",
                  "design_bessel_sum", "hopf_link_design"),
    "harmonics": ("UltrasphericalSum", "synthesize", "multi_synthesize"),
    "spinor3": ("SpinorField3", "adapted_chart", "dirac_apply", "dirac_project", "dirac_residual"),
    "nodal": ("NodalCurve", "extract_nodal", "linking_number", "hausdorff_dist"),
    "torus": ("LatticeDirectionSet", "lattice_directions", "cap_discrepancy", "torus_localize"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_EXPORTS, *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
