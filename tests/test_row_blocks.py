"""Row-block evaluation: single points, empty batches and block boundaries.

Blocks hold block_rows(terms) rows, at most ROW_BLOCK: an evaluator summing
over many centers, nodes or directions splits at a pair-sized seam well
below ROW_BLOCK, and each one is checked at both seams.  The grid evaluator
splits its matmul rows at the pair-sized seam of its rule's node count.
"""

import numpy as np
import pytest

from eigenknot import helmholtz, sphere
from eigenknot.harmonics import eval_harmonic, eval_harmonic_grad, synthesize, zonal_derivatives
from eigenknot.helmholtz import (
    BesselSum,
    HerglotzDensity,
    PlaneWaveSpinor,
    eval_bessel_sum,
    eval_bessel_sum_grad,
    eval_bessel_sum_grid,
    eval_bessel_sum_jet,
    eval_herglotz,
)
from eigenknot.sphere import ROW_BLOCK, block_rows, random_chart
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

# many-term inputs whose pair-sized seam falls well below ROW_BLOCK
BIG_SUM = BesselSum(
    3, RNG.normal(size=390) + 1j * RNG.normal(size=390), RNG.uniform(-2, 2, size=(390, 3)), 4.0
)
Y190 = synthesize(
    BesselSum(3, RNG.normal(size=190) + 1j * RNG.normal(size=190), RNG.uniform(-2, 2, size=(190, 3)), 4.0),
    40,
    random_chart(3, 6),
)

# (evaluator, point dimension, terms per row); sphere points for the harmonic evaluators
EVALUATORS = {
    "eval_herglotz": (lambda x: eval_herglotz(DENSITY, x), 3, len(DENSITY.nodes)),
    "eval_bessel_sum": (lambda x: eval_bessel_sum(BSUM, x), 3, len(BSUM)),
    "eval_bessel_sum_390": (lambda x: eval_bessel_sum(BIG_SUM, x), 3, len(BIG_SUM)),
    "eval_bessel_sum_grad": (lambda x: eval_bessel_sum_grad(BSUM, x), 3, len(BSUM)),
    "eval_bessel_sum_jet_390": (lambda x: eval_bessel_sum_jet(BIG_SUM, x), 3, len(BIG_SUM)),
    "eval_harmonic": (lambda p: eval_harmonic(Y, p), 4, len(Y)),
    "eval_harmonic_grad": (lambda p: eval_harmonic_grad(Y, p), 4, len(Y)),
    "PlaneWaveSpinor.component": (lambda x: PLANE_WAVES.component(1, x), 3, len(PLANE_WAVES.directions)),
    "zonal_jet": (lambda p: zonal_jet(Y, p, 2), 4, len(Y)),
    "zonal_derivatives": (lambda p: zonal_derivatives(Y, p, 2), 4, len(Y)),
    "zonal_derivatives_190": (lambda p: zonal_derivatives(Y190, p, 2), 4, len(Y190)),
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
    fn, dim, _ = EVALUATORS[name]
    x = _points(dim, 3)
    for single, batch in zip(_arrays(fn(x[1])), _arrays(fn(x[1:2]))):
        assert np.shape(single) == batch.shape[1:]
        assert np.array_equal(single, batch[0])


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_empty_batch_gives_empty_array(name):
    fn, dim, _ = EVALUATORS[name]
    for empty, batch in zip(_arrays(fn(np.empty((0, dim)))), _arrays(fn(_points(dim, 2)))):
        assert empty.shape == (0,) + batch.shape[1:]


def _assert_split_agrees(fn, dim, seam):
    x = _points(dim, seam + 1)
    parts = zip(_arrays(fn(x[:seam])), _arrays(fn(x[seam:])))
    for whole, (head, tail) in zip(_arrays(fn(x)), parts):
        assert whole.shape[0] == seam + 1
        expected = np.concatenate([head, tail])
        assert np.max(np.abs(whole - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_blocks_agree_with_parts(name):
    fn, dim, _ = EVALUATORS[name]
    _assert_split_agrees(fn, dim, ROW_BLOCK)


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_blocks_agree_with_parts_at_pair_seam(name):
    fn, dim, terms = EVALUATORS[name]
    _assert_split_agrees(fn, dim, block_rows(terms))


def test_grid_blocks_agree_with_parts_at_pair_seam(monkeypatch):
    # eval_bessel_sum_grid's matmul rows are (axis-0, axis-1) pairs in blocks
    # of block_rows(Q); with one axis-1 point the axis-0 points are the rows.
    # The 3-point tail is too small for eval_bessel_sum_grid to choose the
    # plane waves, so both parts take _plane_wave_grid at their own degree.
    seen = []
    real = sphere.block_rows
    monkeypatch.setattr(sphere, "block_rows", lambda n: seen.append(n) or real(n))

    def plane_waves(axes):
        return helmholtz._plane_wave_grid(BIG_SUM, axes, helmholtz._grid_degree(BIG_SUM, axes))

    axes = [np.linspace(-1.0, 1.0, 2), np.array([0.3]), np.linspace(-0.5, 0.5, 3)]
    nodes = helmholtz._rule_size(helmholtz._grid_degree(BIG_SUM, axes))
    seam = real(nodes)
    axes[0] = np.linspace(-1.0, 1.0, seam + 1)
    whole = eval_bessel_sum_grid(BIG_SUM, axes)
    assert nodes != len(BIG_SUM)  # so block_rows(nodes) marks the plane-wave path
    assert set(seen) == {nodes} and whole.shape == (seam + 1, 1, 3)
    head, tail = (plane_waves([part, *axes[1:]]) for part in (axes[0][:seam], axes[0][seam:]))
    expected = np.concatenate([head, tail])
    assert np.max(np.abs(whole - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_block_rows_scale_with_terms():
    assert block_rows(390) == 336 and block_rows(190) == 689
    assert block_rows(len(DENSITY.nodes)) < ROW_BLOCK
    # up to 32 terms, as in the Hopf pair's 7 to 14 centers, blocks stay at the cap
    assert block_rows(1) == block_rows(14) == block_rows(32) == ROW_BLOCK
    assert block_rows(10**9) == 1


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_evaluators_size_blocks_by_their_terms(name, monkeypatch):
    fn, dim, terms = EVALUATORS[name]
    seen = []
    real = sphere.block_rows
    monkeypatch.setattr(sphere, "block_rows", lambda n: seen.append(n) or real(n))
    fn(_points(dim, 2))
    assert seen and set(seen) == {terms}
