"""Special-function conventions against closed forms and independent oracles."""

import math

import numpy as np
import pytest
from scipy.special import jv

from eigenknot.specialfn import (
    bessel_j,
    bessel_kernel,
    bessel_kernel_deriv,
    darboux_error,
    darboux_limit,
    gegenbauer_cnk,
    gegenbauer_cnk_deriv,
    jacobi_p,
    jacobi_p_deriv,
)

# Independent series oracle for J_1, used to bracket its first zero without
# touching the implementation under test.
J1_FIRST_ZERO = 3.831705970207513


def j1_series(t, terms=60):
    acc = 0.0
    half = t / 2.0
    term = half
    for m in range(terms):
        acc += term
        term = -term * half * half / ((m + 1) * (m + 2))
    return acc


def bessel_series(nu, t, terms=80):
    acc = 0.0
    term = (0.5 * t) ** nu / math.gamma(nu + 1.0)
    for m in range(terms):
        acc += term
        term = -term * (0.5 * t) ** 2 / ((m + 1) * (nu + m + 1))
    return acc


def test_half_integer_closed_forms():
    assert abs(bessel_j(0.5, math.pi)) < 1e-15
    assert bessel_j(0.5, 0.5 * math.pi) == pytest.approx(2.0 / math.pi, rel=1e-13)


def test_first_zero_of_j1_from_series_oracle():
    # bisection on the series oracle reproduces the frozen bracket value
    lo, hi = 3.0, 4.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if j1_series(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(J1_FIRST_ZERO, abs=1e-12)
    assert abs(bessel_j(1.0, J1_FIRST_ZERO)) < 1e-14


def test_bessel_j_against_series_oracle():
    for nu in (0.0, 0.5, 1.0, 2.5):
        for t in (0.3, 1.7, 6.2, 11.0):
            assert bessel_j(nu, t) == pytest.approx(bessel_series(nu, t), rel=1e-12)


def test_bessel_j_rejects_negative():
    with pytest.raises(ValueError):
        bessel_j(0.5, -1.0)


def test_kernel_closed_form_n3():
    r = np.array([0.2, 1.0, 2.7, 14.0])
    expect = math.sqrt(2.0 / math.pi) * np.sin(r) / r
    assert np.allclose(bessel_kernel(3, r), expect, rtol=1e-13)


def test_kernel_limit_at_zero():
    for n in (2, 3, 4, 5, 8):
        lim = 1.0 / (2.0 ** (0.5 * n - 1.0) * math.gamma(0.5 * n))
        assert bessel_kernel(n, 0.0) == pytest.approx(lim, rel=1e-14)
        # series branch agrees with the direct quotient at the same point
        nu = 0.5 * n - 1.0
        direct = bessel_j(nu, 0.49) / 0.49**nu
        assert bessel_kernel(n, 0.49) == pytest.approx(direct, rel=1e-13)


def test_kernel_closed_forms_match_jv_quotient():
    # n = 3 and n = 5 use sin/cos from r = 1/2 on; the grid starts on the seam
    r = np.concatenate([[np.nextafter(0.5, 0.0)], np.linspace(0.5, 60.0, 200_001)])
    for n in (3, 5):
        nu = 0.5 * n - 1.0
        got = bessel_kernel(n, r)
        ref = jv(nu, r) / r**nu
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(got)), n


def test_kernel_library_path_unchanged_for_other_n():
    r = np.linspace(0.0, 60.0, 20_001)
    large = r >= 0.5
    for n in (2, 4, 6, 7):
        nu = 0.5 * n - 1.0
        got = bessel_kernel(n, r)
        assert np.array_equal(got[large], jv(nu, r[large]) / r[large] ** nu), n
        series = [bessel_series(nu, t) / t**nu if t > 0 else bessel_kernel(n, 0.0) for t in r[~large]]
        assert np.allclose(got[~large], series, rtol=1e-14, atol=0.0), n


def test_kernel_n4_vs_bessel_series():
    assert bessel_kernel(4, 1.0) == pytest.approx(bessel_series(1.0, 1.0), rel=1e-12)


def test_kernel_derivative_identity():
    r = np.linspace(0.01, 8.0, 61)
    h = 1e-6
    fd = (bessel_kernel(3, r + h) - bessel_kernel(3, r - h)) / (2 * h)
    assert np.allclose(bessel_kernel_deriv(3, r), fd, atol=1e-9)


def test_jacobi_degree_zero_and_one():
    t = np.linspace(-1, 1, 11)
    assert np.allclose(jacobi_p(0, 0.7, -0.2, t), 1.0)
    assert np.allclose(jacobi_p(1, 0.5, 0.5, t), 1.5 * t, rtol=1e-14)


def test_jacobi_against_explicit_sum():
    # frozen from the explicit binomial-sum oracle at k=10, a=b=1/2, t=0.3
    assert float(jacobi_p(10, 0.5, 0.5, np.array(0.3))) == pytest.approx(
        0.3448694123519684, rel=1e-12
    )


def test_jacobi_symmetry():
    rng = np.random.default_rng(0)
    for k in (3, 10, 41):
        t = rng.uniform(-1, 1, 16)
        lhs = jacobi_p(k, 0.5, 0.5, -t)
        rhs = (-1.0) ** k * jacobi_p(k, 0.5, 0.5, t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_jacobi_deriv_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(100):
        k = int(rng.integers(1, 51))
        a = float(rng.uniform(-0.4, 2.0))
        b = float(rng.uniform(-0.4, 2.0))
        t = float(rng.uniform(-0.95, 0.95))
        fd = (jacobi_p(k, a, b, t + h) - jacobi_p(k, a, b, t - h)) / (2 * h)
        an = jacobi_p_deriv(k, a, b, t)
        assert an == pytest.approx(fd, rel=1e-6, abs=1e-9)
    assert jacobi_p_deriv(0, 0.5, 0.5, 0.3) == 0.0
    assert jacobi_p_deriv(1, 0.5, 0.5, -0.7) == pytest.approx(1.5)


def test_gegenbauer_normalization():
    worst = 0.0
    for n in range(2, 9):
        for k in (1, 2, 7, 50, 199, 500):
            worst = max(worst, abs(float(gegenbauer_cnk(n, k, np.array(1.0))) - 1.0))
    assert worst <= 1e-12


def test_gegenbauer_degree_one():
    t = np.linspace(-1, 1, 9)
    assert np.allclose(gegenbauer_cnk(3, 1, t), t, rtol=1e-14)


def test_gegenbauer_deriv_consistency():
    t = np.linspace(-0.9, 0.9, 7)
    h = 1e-6
    fd = (gegenbauer_cnk(4, 12, t + h) - gegenbauer_cnk(4, 12, t - h)) / (2 * h)
    assert np.allclose(gegenbauer_cnk_deriv(4, 12, t), fd, rtol=1e-7, atol=1e-9)


def test_darboux_limit_values():
    for n in (3, 4, 6):
        assert float(darboux_limit(n, 0.0)) == pytest.approx(1.0 / math.gamma(0.5 * n), rel=1e-13)
    assert abs(float(darboux_limit(3, math.pi))) < 1e-15
    assert float(darboux_limit(4, 1.0)) == pytest.approx(2.0 * bessel_series(1.0, 1.0), rel=1e-12)


def test_darboux_asymptotic_consistency():
    # C^n_k(cos(t/k)) -> Gamma(n/2) * darboux_limit(n, t) at rate O(1/k)
    limit = math.gamma(1.5) * float(darboux_limit(3, 2.0))
    errs = []
    for k in (40, 80):
        val = float(gegenbauer_cnk(3, k, np.array(math.cos(2.0 / k))))
        errs.append(abs(val - limit))
        assert errs[-1] <= 2.0 / k
    assert 0.3 <= errs[1] / errs[0] <= 0.8


def test_darboux_rate_window():
    for n in (3, 4):
        for t in (0.5, 2.0, 5.0):
            for k in (50, 100, 200):
                ratio = darboux_error(n, 2 * k, t) / darboux_error(n, k, t)
                assert 0.3 <= ratio <= 0.8, (n, t, k, ratio)
