#!/usr/bin/env python3
"""Regenerate the JSON fields bundled with the package (deterministic).

    PYTHONPATH=src python scripts/make_bundled_data.py

tests/test_bundled_data.py checks that the committed files are what
documents() gives.
"""

import json
import pathlib

import numpy as np

from eigenknot.helmholtz import BesselSum, design_bessel_sum

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "eigenknot" / "data"


def documents() -> dict:
    """The bundled fields by file name, as the JSON documents written there."""
    single = BesselSum(3, [1.0], [[0.0, 0.0, 0.0]], 0.5)
    z = np.linspace(-0.9, 0.9, 25)
    axis = np.stack([0 * z, 0 * z, z], axis=-1)
    res = design_bessel_sum([(axis, 0)], budget=160)
    doc = res.components[0].to_dict()
    doc["description"] = "field with a straight nodal line along the x3 axis"
    return {"single_center.json": single.to_dict(), "axis_field.json": doc}


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, doc in documents().items():
        (OUT / name).write_text(json.dumps(doc, sort_keys=True) + "\n")
    print("wrote", [p.name for p in sorted(OUT.glob("*.json"))])


if __name__ == "__main__":
    main()
