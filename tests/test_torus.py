"""Height-k rational directions, cap discrepancy, torus localization."""

import math

import numpy as np
import pytest

from eigenknot import torus
from eigenknot.helmholtz import HerglotzDensity
from eigenknot.torus import cap_discrepancy, lattice_directions, torus_localize


def brute_force_count(k: int) -> int:
    count = 0
    for m1 in range(-k, k + 1):
        for m2 in range(-k, k + 1):
            for m3 in range(-k, k + 1):
                if m1 * m1 + m2 * m2 + m3 * m3 == k * k:
                    count += 1
    return count


def test_small_counts():
    assert len(lattice_directions(3, 1)) == 6
    assert len(lattice_directions(3, 2)) == 6
    assert len(lattice_directions(3, 3)) == 30


def test_counts_match_brute_force():
    for k in list(range(1, 21)) + [33, 41, 50]:
        assert len(lattice_directions(3, k)) == brute_force_count(k), k


@pytest.mark.parametrize("rows", [1, 40, 1 << 18])
def test_vectors_match_brute_force(monkeypatch, rows):
    # every vector of the cube [-k, k]^n with |m|^2 = k^2, in lexicographic
    # order, with the first coordinates taken one or several at a time
    monkeypatch.setattr(torus, "_ENUM_ROWS", rows)
    for n, ks in ((2, (1, 5, 25, 65)), (3, (1, 3, 9, 21)), (4, (1, 2, 6))):
        for k in ks:
            cube = np.stack(np.meshgrid(*[np.arange(-k, k + 1)] * n, indexing="ij"), axis=-1).reshape(-1, n)
            want = cube[np.sum(cube * cube, axis=1) == k * k]
            got = lattice_directions(n, k).vectors
            assert got.dtype == np.int64 and np.array_equal(got, want), (n, k)


def test_dimension_two_and_four():
    assert len(lattice_directions(2, 1)) == 4
    assert len(lattice_directions(2, 5)) == 12  # 3-4-5 triangles plus axes
    assert len(lattice_directions(4, 1)) == 8


def test_integrality_exact():
    s = lattice_directions(3, 25)
    norms = np.sum(s.vectors.astype(np.int64) ** 2, axis=1)
    assert np.all(norms == 625)
    assert s.vectors.dtype == np.int64


def test_powers_of_two_stay_on_axes():
    # r_3(4^m) = r_3(1): only the six scaled axis vectors survive
    for k in (2, 4, 8, 16):
        s = lattice_directions(3, k)
        assert len(s) == 6
        assert cap_discrepancy(s, trials=2000, seed=1) >= 0.2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cap_fraction_closed_forms_match_betainc(n):
    # the normalized cap area is I_{1 - t^2}((n - 1) / 2, 1 / 2) / 2 for t >= 0
    from scipy.special import betainc

    t = np.concatenate([np.linspace(-1.0, 1.0, 20001), [-1.0, 0.0, 1.0]])
    half = 0.5 * betainc(0.5 * (n - 1), 0.5, np.clip(1.0 - t * t, 0.0, 1.0))
    want = np.where(t >= 0, half, 1.0 - half)
    assert np.max(np.abs(torus._cap_fraction(n, t) - want)) <= 1e-12
    assert torus._cap_fraction(n, np.array([-1.0, 0.0, 1.0])).tolist() == [1.0, 0.5, 0.0]


def test_six_point_set_cannot_equidistribute():
    assert cap_discrepancy(lattice_directions(3, 1), trials=2000, seed=0) >= 0.2


def test_discrepancy_decreases_along_growing_sets():
    # the odd triple {101, 201, 401} is *not* monotone: k = 401 is prime and
    # its 2406 solutions concentrate on few latitude circles, an arithmetic
    # fluctuation of a limit statement rather than a defect.  A sequence
    # with growing, spreading sets does decrease.
    vals = [
        cap_discrepancy(lattice_directions(3, k), trials=4000, seed=12345)
        for k in (11, 101, 201)
    ]
    assert vals[0] > vals[1] > vals[2]


def test_spec_odd_triple_measurement():
    # pins the measured non-monotonicity of that particular triple, which
    # is why the acceptance suite runs its decrease along a nested chain
    vals = [
        cap_discrepancy(lattice_directions(3, k), trials=4000, seed=12345)
        for k in (101, 201, 401)
    ]
    assert vals[1] < vals[0]
    assert vals[2] > vals[1]  # arithmetic fluctuation: 401 is worse than 201


def test_localize_constant_density():
    f = HerglotzDensity.constant(3, 1.0, 20)
    errs = []
    for k in (11, 101, 201):
        _, err = torus_localize(f, lattice_directions(3, k))
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.02


def test_localize_single_height_reports_large_error():
    f = HerglotzDensity.from_function(3, lambda xi: xi[:, 2].astype(complex), 20)
    _, err = torus_localize(f, lattice_directions(3, 1))
    assert err >= 0.5


def test_eigenfunction_periodicity_and_eigenvalue():
    f = HerglotzDensity.constant(3, 1.0, 20)
    u, _ = torus_localize(f, lattice_directions(3, 5))
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (40, 3))
    for e in np.eye(3):
        assert np.max(np.abs(u.eval(x + e) - u.eval(x))) <= 1e-12
    assert u.eigenvalue == pytest.approx((2 * math.pi * 5) ** 2)

    def resid(h):
        lap = -6.0 * u.eval(x)
        for mu in range(3):
            e = np.zeros(3)
            e[mu] = h
            lap = lap + u.eval(x + e) + u.eval(x - e)
        lap /= h * h
        return np.max(np.abs(lap + u.eigenvalue * u.eval(x)))

    assert resid(2e-3) / resid(1e-3) == pytest.approx(4.0, rel=0.1)
