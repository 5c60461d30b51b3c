"""Bessel sums on product grids through their plane-wave form."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigenknot import helmholtz, nodal
from eigenknot.helmholtz import BesselSum, bessel_sum_field, eval_bessel_sum, eval_bessel_sum_grid

#: Agreement with the direct sum, relative to sum_j |c_j|.
GRID_RTOL = 2e-15


def _dyadic(a):
    # on a 2^-20 lattice every coordinate difference below 2^11 is exact, so
    # the direct sum's distances stay exact however far the box sits
    return np.round(np.asarray(a) * 2.0**20) / 2.0**20


def _grid_error(s, axes, values):
    """max |values - direct sum| on the grid, relative to sum_j |c_j|."""
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    direct = eval_bessel_sum(s, points).reshape(values.shape)
    return float(np.max(np.abs(values - direct))) / float(np.abs(s.coeffs).sum())


def _plane_waves_chosen(s, axes):
    nodes = helmholtz._rule_size(helmholtz._grid_degree(s, axes))
    return helmholtz._plane_waves_pay(nodes, len(s), math.prod(len(a) for a in axes))


def _random_case(seed, count, offset, sizes):
    """count centers within 1.5 of a point `offset` from the origin, and a box of
    the given axis sizes near them, on a 2^-20 lattice."""
    rng = np.random.default_rng(seed)
    shift = offset * rng.normal(size=3) / np.sqrt(3.0)
    s = BesselSum(
        3,
        rng.normal(size=count) + 1j * rng.normal(size=count),
        _dyadic(shift + rng.uniform(-1.5, 1.5, (count, 3))),
        np.linalg.norm(shift) + 3.0,
    )
    lo = shift + rng.uniform(-2.5, 0.5, 3)
    return s, [_dyadic(np.linspace(a, a + rng.uniform(0.1, 2.0), n)) for a, n in zip(lo, sizes)]


# a single center takes the points path; 400 centers far from the origin the plane waves
POINTS_CASE = dict(seed=1, count=1, offset=0.0, sizes=(5, 6, 7))
PLANE_WAVE_CASE = dict(seed=2, count=400, offset=1e3, sizes=(40, 3, 11))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 400),
    offset=st.floats(0.0, 1e3),
    sizes=st.tuples(*[st.integers(2, 40)] * 3),
)
@example(**POINTS_CASE)
@example(**PLANE_WAVE_CASE)
def test_grid_matches_direct_sum(seed, count, offset, sizes):
    s, axes = _random_case(seed, count, offset, sizes)
    values = eval_bessel_sum_grid(s, axes)
    assert values.shape == sizes
    assert _grid_error(s, axes, values) <= GRID_RTOL


def test_examples_take_both_paths():
    assert not _plane_waves_chosen(*_random_case(**POINTS_CASE))
    assert _plane_waves_chosen(*_random_case(**PLANE_WAVE_CASE))


@pytest.fixture(scope="module")
def circle_sum():
    """The designer's unit circle: 390 centers, Q = 378 nodes on its verification grid."""
    t = np.linspace(0.0, 2.0 * np.pi, 49)
    target = np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=-1)
    return helmholtz.design_bessel_sum([(target, 0)], budget=240).components[0]


CIRCLE_BOX = ([-1.3, -1.3, -0.3], [1.3, 1.3, 0.3])
CIRCLE_AXES = [np.linspace(lo, hi, n) for lo, hi, n in zip(*CIRCLE_BOX, (38, 38, 10))]


def _direct_calls(monkeypatch, s, axes):
    """The rows of every eval_bessel_sum call that eval_bessel_sum_grid makes."""
    calls = []
    direct = helmholtz.eval_bessel_sum

    def spying(s, x):
        calls.append(len(x))
        return direct(s, x)

    monkeypatch.setattr(helmholtz, "eval_bessel_sum", spying)
    eval_bessel_sum_grid(s, axes)
    return calls


def test_grid_rule_counts_grid_points(circle_sum, monkeypatch):
    # 400 centers on 27 points: the density's N Q terms alone outweigh the
    # direct sum's 27 N, however few nodes per center the rule has
    s, axes = _random_case(seed=3, count=400, offset=0.0, sizes=(3, 3, 3))
    assert helmholtz._rule_size(helmholtz._grid_degree(s, axes)) <= helmholtz._GRID_CROSSOVER * len(s)
    assert _direct_calls(monkeypatch, s, axes) == [27]
    # the designer's grid: 14440 points, 390 centers, Q = 378 nodes
    assert _direct_calls(monkeypatch, circle_sum, CIRCLE_AXES) == []


def _errors_by_degree(s, axes, degrees):
    return {d: _grid_error(s, axes, helmholtz._plane_wave_grid(s, axes, d)) for d in degrees}


def test_degree_rule_is_needed(circle_sum):
    # D = 4.33 on the designer's grid: degree 26, and degree 19 is off by 7.6e-15
    degree = helmholtz._grid_degree(circle_sum, CIRCLE_AXES)
    assert degree == 26 and _plane_waves_chosen(circle_sum, CIRCLE_AXES)
    errors = _errors_by_degree(circle_sum, CIRCLE_AXES, (degree - 7, degree))
    assert errors[degree] <= GRID_RTOL < errors[degree - 7]
    # one center 4.3 from the far corners, along an azimuth the trapezoid
    # aliases first: degree 26, and degree 21 is off by 2.5e-14
    one = BesselSum(3, [1.0], [[-4.1, 0.0, 0.0]], 4.1)
    axes = [np.linspace(-0.2, 0.2, 5)] * 3
    degree = helmholtz._grid_degree(one, axes)
    assert degree == 26
    errors = _errors_by_degree(one, axes, (degree - 5, degree))
    assert errors[degree] <= GRID_RTOL < errors[degree - 5]


def test_degree_rule_tail():
    # the tail bound sits at or below 2^-56 at L and above it at L - 1
    def tail(radius, degree):
        total, term = 0.0, 1.0
        for l in range(1, 400):
            term *= radius / (2 * l + 1)  # radius^l / (2l+1)!!
            if l > degree:
                total += (2 * l + 1) * term
        return 2.0 * total

    for radius in (0.5, 1.0, 4.3, 9.0, 30.0):
        degree = helmholtz._plane_wave_degree(radius)
        assert tail(radius, degree) <= 2.0**-56 < tail(radius, degree - 1)


def test_plane_wave_rule_is_exact_through_its_degree():
    degree = 12
    nodes, weights = helmholtz._plane_wave_rule(degree)
    assert len(nodes) == helmholtz._rule_size(degree) == 7 * 13
    assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-15)
    # monomials x^a y^b z^c of total degree <= 12 against their closed-form
    # sphere integrals, zero unless every exponent is even
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                got = weights @ (nodes[:, 0] ** a * nodes[:, 1] ** b * nodes[:, 2] ** c)
                want = 0.0
                if not (a % 2 or b % 2 or c % 2):
                    half = [(e + 1) / 2 for e in (a, b, c)]
                    want = 2 * math.prod(map(math.gamma, half)) / math.gamma(sum(half))
                assert abs(got - want) <= 1e-14


def test_extraction_with_and_without_grid(circle_sum):
    field = bessel_sum_field(circle_sum)

    def points_only(x):
        return field(x)

    points_only.jet = field.jet
    with_grid = nodal.extract_nodal(field, CIRCLE_BOX, 0.07)
    without = nodal.extract_nodal(points_only, CIRCLE_BOX, 0.07)
    assert len(with_grid) == len(without) >= 1 and with_grid.closed_curves()
    for mine, theirs in zip(with_grid, without):
        assert mine.closed == theirs.closed
        assert len(mine) == len(theirs)
        assert np.max(np.abs(mine.vertices - theirs.vertices)) <= 1e-9
