"""Every binding the benchmark tracer wraps exists in the package.

bench/tracing.py replaces functions under the module attributes their callers
look them up by (``cli.eval_bessel_sum``, ``harmonics.jacobi_p``, ...); a
binding that a refactor drops makes every traced benchmark run fail.
"""

import importlib
from pathlib import Path

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
