"""Row-block evaluation: single points, empty batches and block boundaries."""

import numpy as np
import pytest

from eigenknot.harmonics import eval_harmonic, eval_harmonic_grad, synthesize, zonal_derivatives
from eigenknot.helmholtz import (
    BesselSum,
    HerglotzDensity,
    PlaneWaveSpinor,
    eval_bessel_sum,
    eval_bessel_sum_grad,
    eval_herglotz,
)
from eigenknot.sphere import ROW_BLOCK, random_chart
from eigenknot.spinor3 import zonal_jet

RNG = np.random.default_rng(5)
BSUM = BesselSum(
    3, RNG.normal(size=5) + 1j * RNG.normal(size=5), RNG.uniform(-1, 1, size=(5, 3)), 2.0
)
Y = synthesize(BSUM, 12, random_chart(3, 4))
DENSITY = HerglotzDensity.from_function(3, lambda xi: xi[:, 0] + 1j * xi[:, 2] + 1.0, 6)
_DIRS = RNG.normal(size=(6, 3))
PLANE_WAVES = PlaneWaveSpinor(
    _DIRS / np.linalg.norm(_DIRS, axis=1, keepdims=True),
    RNG.normal(size=(6, 2)) + 1j * RNG.normal(size=(6, 2)),
)

# (evaluator, point dimension); sphere points for the harmonic evaluators
EVALUATORS = {
    "eval_herglotz": (lambda x: eval_herglotz(DENSITY, x), 3),
    "eval_bessel_sum": (lambda x: eval_bessel_sum(BSUM, x), 3),
    "eval_bessel_sum_grad": (lambda x: eval_bessel_sum_grad(BSUM, x), 3),
    "eval_harmonic": (lambda p: eval_harmonic(Y, p), 4),
    "eval_harmonic_grad": (lambda p: eval_harmonic_grad(Y, p), 4),
    "PlaneWaveSpinor.component": (lambda x: PLANE_WAVES.component(1, x), 3),
    "zonal_jet": (lambda p: zonal_jet(Y, p, 2), 4),
    "zonal_derivatives": (lambda p: zonal_derivatives(Y, p, 2), 4),
}


def _points(dim, count):
    x = np.random.default_rng(count).normal(size=(count, dim))
    if dim == 4:
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def _arrays(out):
    return out if isinstance(out, list) else [out]


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_single_point_gives_single_value(name):
    fn, dim = EVALUATORS[name]
    x = _points(dim, 3)
    for single, batch in zip(_arrays(fn(x[1])), _arrays(fn(x[1:2]))):
        assert np.shape(single) == batch.shape[1:]
        assert np.array_equal(single, batch[0])


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_empty_batch_gives_empty_array(name):
    fn, dim = EVALUATORS[name]
    for empty, batch in zip(_arrays(fn(np.empty((0, dim)))), _arrays(fn(_points(dim, 2)))):
        assert empty.shape == (0,) + batch.shape[1:]


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_blocks_agree_with_parts(name):
    fn, dim = EVALUATORS[name]
    x = _points(dim, ROW_BLOCK + 1)
    parts = zip(_arrays(fn(x[:ROW_BLOCK])), _arrays(fn(x[ROW_BLOCK:])))
    for whole, (head, tail) in zip(_arrays(fn(x)), parts):
        assert whole.shape[0] == ROW_BLOCK + 1
        expected = np.concatenate([head, tail])
        assert np.max(np.abs(whole - expected)) <= 1e-13 * np.max(np.abs(expected))
