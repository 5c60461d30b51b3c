"""Special-function conventions against closed forms and independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv, roots_gegenbauer

from eigenknot.specialfn import (
    bessel_j,
    bessel_kernel,
    bessel_kernel_deriv,
    darboux_error,
    darboux_limit,
    gauss_gegenbauer,
    gegenbauer3_chord_derivatives,
    gegenbauer_cnk,
    gegenbauer_cnk_deriv,
    gegenbauer_cnk_derivatives,
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


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_gauss_gegenbauer_matches_scipy_rule(n):
    alpha = 0.5 * (n - 2)
    for m in range(1, 65):
        u, w = gauss_gegenbauer(m, alpha)
        ref_u, ref_w = roots_gegenbauer(m, alpha)
        assert np.max(np.abs(u - ref_u)) <= 4e-16, m
        # absolute: scipy's outermost weights are themselves off from a
        # 40-digit rule by up to 7e-15 (4e-12 relative) at m = 64
        assert np.max(np.abs(w - ref_w)) <= 1.5e-14, m


def gauss_legendre_reference(m: int):
    """40-digit Gauss-Legendre nodes and weights, by Newton on the recurrence."""
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = [], []
    with mpmath.workdps(40):
        for i in range(m, 0, -1):
            x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(0.25)) / (m + mpmath.mpf(0.5)))
            for _ in range(50):
                p0, p1 = mpmath.mpf(1), x
                for j in range(2, m + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = m * (x * p1 - p0) / (x * x - 1)
                step = p1 / dp
                x -= step
                if abs(step) < mpmath.mpf(10) ** -38:
                    break
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(nodes), np.array(weights)


@pytest.mark.parametrize("m", [24, 48])
def test_gauss_gegenbauer_matches_40_digit_legendre_rule(m):
    u, w = gauss_gegenbauer(m, 0.5)
    ref_u, ref_w = gauss_legendre_reference(m)
    assert np.max(np.abs(u - ref_u)) <= 4e-16
    assert np.max(np.abs(w / ref_w - 1.0)) <= 1e-13


def test_gauss_gegenbauer_refuses_bad_arguments():
    with pytest.raises(ValueError, match="m >= 1"):
        gauss_gegenbauer(0, 0.5)
    with pytest.raises(ValueError, match="alpha"):
        gauss_gegenbauer(4, 0.0)


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


# ---------------------------------------------------------------------------
# The closed-form S^3 kernel read from chords
# ---------------------------------------------------------------------------


def c3_at_pole(k: int, d: int) -> float:
    """C^(d)(1) for the normalized n = 3 kernel: prod_{i<d} (k(k+2) - i(i+2)) / (2i+3)."""
    out = 1.0
    for i in range(d):
        out *= (k * (k + 2) - i * (i + 2)) / (2 * i + 3)
    return out


def c3_scale(k: int, d: int) -> float:
    # C^(d)(1) >= 1 up to the degree; past it C^(d) vanishes and errors are absolute
    return max(c3_at_pole(k, d), 1.0)


def chebyu_reference(k: int, chord: float, order: int):
    """[C, ..., C^(order)] from 50-digit U_k, T_{k+1} and the Gegenbauer equation."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        c = mpmath.mpf(chord)
        t = 1 - c * c / 2 if chord >= 0 else c * c / 2 - 1
        u = mpmath.chebyu(k, t)
        y = [u / (k + 1), ((k + 1) * mpmath.chebyt(k + 1, t) - t * u) / ((t * t - 1) * (k + 1))]
        for d in range(order - 1):
            y.append(((2 * d + 3) * t * y[d + 1] + (d * (d + 2) - k * (k + 2)) * y[d]) / (1 - t * t))
        return [float(v) for v in y[: order + 1]]


def _kernel_chords(k: int):
    """Chords near the pole, across the seams (k+1) theta = 2 and 3, through the bulk and near the antipode."""
    seam = 2.0 * math.sin(1.0 / (k + 1))
    near = [seam * f for f in (1e-3, 0.3, 0.999, 1.001, 1.499, 1.501, 4.0)]
    bulk = [0.31, math.sqrt(2.0), 1.7]
    anti = [2.0 * math.cos(f / (k + 1)) for f in (0.5, 1.001, 3.0)] + [1.9999]
    chords = [c for c in near + bulk + anti if 0.0 < c < 2.0]
    return chords + [-c for c in near[:3]]  # the antipodal form, t = c^2/2 - 1


@pytest.mark.parametrize("k", [1, 2, 10, 60, 320, 2000, 10_000])
def test_gegenbauer3_chord_matches_mpmath_chebyu(k):
    chords = _kernel_chords(k)
    got = gegenbauer3_chord_derivatives(k, np.array(chords), 3)
    for i, chord in enumerate(chords):
        ref = chebyu_reference(k, chord, 3)
        for d in range(4):
            assert abs(got[d][i] - ref[d]) <= 1e-14 * c3_scale(k, d), (k, chord, d, got[d][i], ref[d])


def test_gegenbauer3_chord_agrees_with_recurrence():
    rng = np.random.default_rng(7)
    for k in (1, 2, 7, 40, 120, 320):
        seam = 2.0 * math.sin(1.5 / (k + 1))  # (k+1) theta = 3
        near = np.minimum(seam * rng.uniform(0.0, 3.0, 100), 2.0)
        chords = np.concatenate([rng.uniform(0.0, 2.0, 400), near, [0.0, 2.0]])
        got = gegenbauer3_chord_derivatives(k, chords, 3)
        ref = gegenbauer_cnk_derivatives(3, k, 1.0 - 0.5 * chords**2, 3)
        for d in range(4):
            assert np.max(np.abs(got[d] - ref[d])) <= 1e-10 * c3_scale(k, d), (k, d)


def test_gegenbauer3_chord_keeps_shape_and_refuses_negative_degree():
    assert [np.shape(v) for v in gegenbauer3_chord_derivatives(5, 0.3, 2)] == [(), (), ()]
    assert [v.shape for v in gegenbauer3_chord_derivatives(5, np.zeros((2, 3)), 1)] == [(2, 3), (2, 3)]
    assert gegenbauer3_chord_derivatives(0, np.array([0.0, 1.0, 2.0]), 1)[0].tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        gegenbauer3_chord_derivatives(-1, 0.3, 0)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 10_000), theta=st.floats(0.0, math.pi / 2))
def test_gegenbauer3_chord_parity(k, theta):
    # C^(d)(-t) = (-1)^(k+d) C^(d)(t): the chord to p_j at angle theta against
    # the chord at pi - theta, which the kernel folds back through sqrt((1-a)(1+a))
    near, far = 2.0 * math.sin(theta / 2), 2.0 * math.cos(theta / 2)
    a = gegenbauer3_chord_derivatives(k, near, 3)
    b = gegenbauer3_chord_derivatives(k, far, 3)
    # the two float chords need not give exactly opposite t; bound the slack by
    # sup |C^(d+1)| = C^(d+1)(1) times the exact mismatch in t
    dt = abs(float(2 - (Fraction(near) ** 2 + Fraction(far) ** 2) / 2))
    signed = gegenbauer3_chord_derivatives(k, -near, 3)
    for d in range(4):
        sign = (-1.0) ** (k + d)
        slack = 2e-14 * c3_scale(k, d) + dt * c3_at_pole(k, d + 1)
        assert abs(float(b[d]) - sign * float(a[d])) <= slack, (d, float(a[d]), float(b[d]))
        assert float(signed[d]) == sign * float(a[d])


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 10_000))
def test_gegenbauer3_chord_exact_at_both_poles(k):
    at_p, at_antipode, signed_zero = (gegenbauer3_chord_derivatives(k, c, 3) for c in (0.0, 2.0, -0.0))
    for d in range(4):
        pole = c3_at_pole(k, d)
        assert float(at_p[d]) == pytest.approx(pole, rel=1e-14, abs=0.0)
        assert float(at_antipode[d]) == (-1.0) ** (k + d) * float(at_p[d])
        assert float(signed_zero[d]) == float(at_antipode[d])
    assert float(at_p[0]) == 1.0


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 10_000), seam=st.sampled_from([1.0, 1.5]))
def test_gegenbauer3_chord_continuous_across_seams(k, seam):
    # consecutive floats around a seam, (k+1) theta = 2 for C and C' or 3 for
    # higher orders, where the Taylor series hands over to the closed form;
    # each side is within 1e-14 of the reference
    chord = 2.0 * math.sin(seam / (k + 1))
    chords = chord + np.arange(-40, 41) * np.spacing(chord)
    taylor = chords / 2 < math.sin(seam / (k + 1))
    assert taylor.any() and not taylor.all()
    got = gegenbauer3_chord_derivatives(k, chords, 3)
    for d in range(4):
        assert np.max(np.abs(np.diff(got[d]))) <= 1e-14 * c3_scale(k, d), d
