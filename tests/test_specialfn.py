"""Special-function conventions against closed forms and independent oracles."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv, roots_gegenbauer

from eigenknot import specialfn
from eigenknot.specialfn import (
    bessel_j,
    bessel_kernel,
    bessel_kernel_deriv,
    darboux_error,
    darboux_limit,
    gauss_gegenbauer,
    gegenbauer3_zonal,
    gegenbauer_cnk,
    gegenbauer_cnk_derivatives,
    jacobi_p,
    jacobi_p_deriv,
    sincos,
    squared_pair_distances,
)
from eigenknot.helmholtz import BesselSum, _spherical_j01, eval_bessel_sum_jet
from eigenknot.sphere import PAIR_BLOCK, block_rows

# Independent series oracle for J_1, used to bracket its first zero without
# touching the implementation under test.
J1_FIRST_ZERO = 3.831705970207513
EPS = np.finfo(float).eps


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
    # n = 3 and n = 5 use sincos from r = 1/2 on; the grid starts on the seam
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
    assert np.allclose(gegenbauer_cnk_derivatives(4, 12, t, 1)[1], fd, rtol=1e-7, atol=1e-9)


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
# The closed-form S^3 kernel from points and centers
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


def chebyu_reference(k: int, t, order: int):
    """[C, ..., C^(order)] at the mpmath number t from U_k, T_{k+1} and the Gegenbauer equation,
    at the working precision."""
    u = mpmath.chebyu(k, t)
    y = [u / (k + 1), ((k + 1) * mpmath.chebyt(k + 1, t) - t * u) / ((t * t - 1) * (k + 1))]
    for d in range(order - 1):
        y.append(((2 * d + 3) * t * y[d + 1] + (d * (d + 2) - k * (k + 2)) * y[d]) / (1 - t * t))
    return [float(v) for v in y[: order + 1]]


def chord_reference(k: int, chord: float, order: int):
    """The 50-digit reference at t = 1 - chord^2/2, or chord^2/2 - 1 for a negative chord -|p + p_j|."""
    with mpmath.workdps(50):
        c = mpmath.mpf(chord)
        return chebyu_reference(k, 1 - c * c / 2 if chord >= 0 else c * c / 2 - 1, order)


def pair_reference(k: int, p, c, order: int):
    """The reference at the angle the kernel reads between float vectors p and c.

    q = |p - c|^2 / 4, or |p + c|^2 / 4 to the antipode past a right angle,
    is exact at 80 digits.  Each order divides by 1 - t^2 = 4q(1 - q) once
    more, so the working precision carries the digits that cancels.
    """
    with mpmath.workdps(80):
        pm, cm = [mpmath.mpf(float(x)) for x in p], [mpmath.mpf(float(x)) for x in c]
        q = sum((a - b) ** 2 for a, b in zip(pm, cm)) / 4
        far = q > 0.5
        if far:
            q = sum((a + b) ** 2 for a, b in zip(pm, cm)) / 4
        if q == 0:
            return [(-1.0) ** ((k + d) * far) * c3_at_pole(k, d) for d in range(order + 1)]
        lost = max(0, int(-mpmath.log10(q)))
    with mpmath.workdps(50 + order * lost):
        return chebyu_reference(k, 2 * q - 1 if far else 1 - 2 * q, order)


def _q_form(chords):
    """The kernel's input (q, far) for chords in the signed convention, far as a mask.

    A chord c in [0, sqrt 2] is q = (c/2)^2 to p_j.  Past sqrt 2 the nearer
    pole is -p_j, at q = (1 - c/2)(1 + c/2), where 1 - c/2 is exact.  A
    negative chord -|p + p_j| (-0.0 included) stands for the antipode -p_j
    and folds the same way.
    """
    half = np.multiply(np.atleast_1d(np.asarray(chords, dtype=float)), 0.5)
    beyond = np.abs(half) > math.sqrt(0.5)
    q = half * half
    a = np.abs(half[beyond])
    q[beyond] = (1.0 - a) * (1.0 + a)
    return q, np.signbit(half) ^ beyond


def chord_kernel(k: int, chords, order: int):
    """The kernel at chords in the signed convention, shaped like them."""
    q, far = _q_form(chords)
    return [g.reshape(np.shape(chords)) for g in specialfn._gegenbauer3_from_q(k, q, np.flatnonzero(far), order)]


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
    got = chord_kernel(k, chords, 3)
    for i, chord in enumerate(chords):
        ref = chord_reference(k, chord, 3)
        for d in range(4):
            assert abs(got[d][i] - ref[d]) <= 1e-14 * c3_scale(k, d), (k, chord, d, got[d][i], ref[d])


def test_gegenbauer3_chord_agrees_with_recurrence():
    rng = np.random.default_rng(7)
    for k in (1, 2, 7, 40, 120, 320):
        seam = 2.0 * math.sin(1.5 / (k + 1))  # (k+1) theta = 3
        near = np.minimum(seam * rng.uniform(0.0, 3.0, 100), 2.0)
        chords = np.concatenate([rng.uniform(0.0, 2.0, 400), near, [0.0, 2.0]])
        got = chord_kernel(k, chords, 3)
        ref = gegenbauer_cnk_derivatives(3, k, 1.0 - 0.5 * chords**2, 3)
        for d in range(4):
            assert np.max(np.abs(got[d] - ref[d])) <= 1e-10 * c3_scale(k, d), (k, d)


def _unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def test_gegenbauer3_chord_keeps_shape_and_refuses_negative_degree():
    p, centers = _unit(np.random.default_rng(3).normal(size=(2, 2, 4)))
    got = gegenbauer3_zonal(5, p, np.concatenate([centers, -p[:1]]), 2)
    assert [v.shape for v in got] == [(2, 3)] * 3
    assert gegenbauer3_zonal(0, p, np.concatenate([centers, p, -p]), 1)[0].tolist() == [[1.0] * 6] * 2
    assert [v.shape for v in gegenbauer3_zonal(5, p[:0], centers, 1)] == [(0, 2)] * 2
    with pytest.raises(ValueError):
        gegenbauer3_zonal(-1, p, centers, 0)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 10_000), theta=st.floats(0.0, math.pi / 2))
def test_gegenbauer3_chord_parity(k, theta):
    # C^(d)(-t) = (-1)^(k+d) C^(d)(t): the chord to p_j at angle theta against
    # the chord at pi - theta, which folds back through q = (1 - c/2)(1 + c/2)
    near, far = 2.0 * math.sin(theta / 2), 2.0 * math.cos(theta / 2)
    a = chord_kernel(k, near, 3)
    b = chord_kernel(k, far, 3)
    # the two float chords need not give exactly opposite t; bound the slack by
    # sup |C^(d+1)| = C^(d+1)(1) times the exact mismatch in t
    dt = abs(float(2 - (Fraction(near) ** 2 + Fraction(far) ** 2) / 2))
    signed = chord_kernel(k, -near, 3)
    for d in range(4):
        sign = (-1.0) ** (k + d)
        slack = 2e-14 * c3_scale(k, d) + dt * c3_at_pole(k, d + 1)
        assert abs(float(b[d]) - sign * float(a[d])) <= slack, (d, float(a[d]), float(b[d]))
        assert float(signed[d]) == sign * float(a[d])


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 10_000))
def test_gegenbauer3_chord_exact_at_both_poles(k):
    at_p, at_antipode, signed_zero = (chord_kernel(k, c, 3) for c in (0.0, 2.0, -0.0))
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
    taylor = (chords / 2) ** 2 < math.sin(seam / (k + 1)) ** 2
    assert taylor.any() and not taylor.all()
    got = chord_kernel(k, chords, 3)
    for d in range(4):
        assert np.max(np.abs(np.diff(got[d]))) <= 1e-14 * c3_scale(k, d), d


def c3_order0_reference(k: int, chord: float) -> float:
    """C at a signed chord from 50-digit sin((k+1) theta) / ((k+1) sin theta), theta = 2 asin(|chord|/2)."""
    with mpmath.workdps(50):
        theta = 2 * mpmath.asin(mpmath.mpf(abs(chord)) / 2)
        c = mpmath.mpf(1) if theta == 0 else mpmath.sin((k + 1) * theta) / ((k + 1) * mpmath.sin(theta))
    antipodal = math.copysign(1.0, chord) < 0  # C(-t) = (-1)^k C(t)
    return float(-c if antipodal and k % 2 else c)


@pytest.mark.parametrize("k", [0, 1, 19, 20, 10_000])
def test_gegenbauer3_chord_order_zero_is_closed_form_near_the_pole(k):
    # C needs no Taylor series: across (k+1) theta < 2, where the derivatives
    # still take it, and down to chord 1e-300, 0 and -0.0, the closed form
    # stays within 1.5e-15 of the reference
    seam = 2.0 * math.sin(1.0 / (k + 1))
    near = np.geomspace(1e-300, seam, 301)
    across = [c for c in seam * np.array([0.5, 0.999, 1.001, 1.5]) if c < 2.0]
    chords = np.concatenate([near, across, -near[::10], [0.0, -0.0]])
    got = chord_kernel(k, chords, 0)[0]
    for chord, value in zip(chords, got):
        assert abs(value - c3_order0_reference(k, chord)) <= 1.5e-15, (k, chord, value)
    assert got[-2] == 1.0 and got[-1] == (-1.0) ** k


@settings(max_examples=25, deadline=None)
@given(
    k=st.sampled_from([0, 1, 19, 20, 60, 1000]),
    order=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    angles=st.lists(st.floats(0.0, 4.0), max_size=3),
)
def test_gegenbauer3_zonal_on_unit_vector_pairs(k, order, seed, angles):
    # one block mixing near and far pairs: to a point p, the coincident center
    # p, centers at (k+1) theta = 2 and 3 (both seams) and at the drawn
    # (k+1) theta in [0, 4], the same angles from the antipode -p, 1e-9 rad
    # from it, -p itself and random unit vectors; and a second random point
    rng = np.random.default_rng(seed)
    p = _unit(rng.normal(size=(2, 4)))
    v = rng.normal(size=4)
    v = _unit(v - (v @ p[0]) * p[0])
    thetas = [x / (k + 1) for x in (2.0, 3.0, *angles)]
    thetas += [math.pi - th for th in thetas] + [math.pi - 1e-9]
    turned = _unit(np.array([math.cos(th) * p[0] + math.sin(th) * v for th in thetas]))
    centers = np.concatenate([p[:1], turned, -p[:1], _unit(rng.normal(size=(2, 4)))])
    got = gegenbauer3_zonal(k, p, centers, order)
    assert [g.shape for g in got] == [(2, len(centers))] * (order + 1)
    # the O(k) recurrence fed t = p . c loses about k^2 eps
    recurrence = gegenbauer_cnk_derivatives(3, k, np.clip(p @ centers.T, -1.0, 1.0), order)
    for i, j in np.ndindex(2, len(centers)):
        ref = pair_reference(k, p[i], centers[j], order)
        for d in range(order + 1):
            value = got[d][i, j]
            assert abs(value - ref[d]) <= 1e-14 * c3_scale(k, d), (i, j, d, value, ref[d])
            assert abs(value - recurrence[d][i, j]) <= 4 * (k + 1) ** 2 * EPS * c3_scale(k, d), (i, j, d)


def _gathered_zonal(k: int, p, centers, order: int):
    """gegenbauer3_zonal with |p_i + c_j|^2 / 4 gathered pair by pair at the divmod of each far index."""
    q = squared_pair_distances(p, centers, 0.5)
    half_p, half_c = np.multiply(p, 0.5), np.multiply(centers, 0.5).T
    far = np.flatnonzero(q > 0.5)
    rows, cols = np.divmod(far, q.shape[1])
    for a in range(len(half_c)):
        plane = half_p[rows, a] + half_c[a, cols]
        plane *= plane
        if a:
            plane += q.flat[far]
        q.flat[far] = plane
    return specialfn._gegenbauer3_from_q(k, q, far, order)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_gegenbauer3_zonal_far_planes_equal_the_gathered_sum(order):
    # the far planes come from squared_pair_distances against -c_j on the rows
    # holding a far pair, a slice of rows at a time; their halved products are
    # exact, so every order is bit for bit the gathered sum.  Block 1: cluster
    # rows hold no far pair and spread rows mix near and far; block 2 adds
    # pairs at exactly a right angle (q = 1/2, not far) and antipodal pairs
    rng = np.random.default_rng(17)
    base = _unit(rng.normal(size=4))
    cluster = _unit(base + 0.05 * rng.normal(size=(24, 4)))
    spread = _unit(rng.normal(size=(40, 4)))
    axes = np.eye(4)
    p = np.concatenate([cluster[:12], spread, axes[:1]])
    blocks = [(p, cluster[12:]), (p, np.concatenate([cluster[12:], axes[1:], -spread[:5], -axes[:1]]))]
    assert squared_pair_distances(axes[:1], axes[1:], 0.5).tolist() == [[0.5] * 3]
    far_rows = (squared_pair_distances(p, cluster[12:], 0.5) > 0.5).any(axis=1)
    assert not far_rows[:12].any() and far_rows[12:-1].any() and not far_rows[12:-1].all()
    for k in (0, 1, 7, 160):
        for pb, cb in blocks:
            got, want = gegenbauer3_zonal(k, pb, cb, order), _gathered_zonal(k, pb, cb, order)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], k


def _pair_block(far: bool):
    """One sphere.PAIR_BLOCK of pairs: 128 points and 256 centers, within 0.02 of one base point
    (as on a localization lattice) or spread over the sphere, half of them past a right angle."""
    rng = np.random.default_rng(11)
    base = _unit(rng.normal(size=4))
    spread = (lambda n: rng.normal(size=(n, 4))) if far else (lambda n: base + 0.02 * rng.normal(size=(n, 4)))
    p, centers = _unit(spread(128)), _unit(spread(256))
    assert len(p) * len(centers) == PAIR_BLOCK
    return p, centers


@pytest.mark.parametrize("far", [False, True], ids=["near", "spread"])
@pytest.mark.parametrize("order, bound", [(0, 4.0), (1, 7.2), (2, 7.3)])
def test_gegenbauer3_zonal_peak_allocation_per_pair_block(far, order, bound):
    # the peak of every array the kernel allocates over one block of pairs,
    # outputs included, in units of one float (rows x terms) array
    p, centers = _pair_block(far)
    gegenbauer3_zonal(160, p, centers, order)
    tracemalloc.start()
    try:
        gegenbauer3_zonal(160, p, centers, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * PAIR_BLOCK) <= bound


# ---------------------------------------------------------------------------
# sin and cos from the half-angle tangent
# ---------------------------------------------------------------------------


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(_finite(-1e6, 1e6), min_size=1, max_size=40))
def test_sincos_absolute_error(xs):
    sin, cos = sincos(np.array(xs))
    for x, s, c in zip(xs, sin, cos):
        assert abs(s - math.sin(x)) <= 2 * EPS, x
        assert abs(c - math.cos(x)) <= 2 * EPS, x


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(_finite(-1.0, 1.0), min_size=1, max_size=40))
def test_sincos_sine_is_relatively_accurate_near_zero(xs):
    # x / 2 is exact down to 2^-1021; below it rounds to the subnormal grid,
    # which costs sin at most one subnormal unit
    sin, _ = sincos(np.array(xs))
    for x, s in zip(xs, sin):
        if abs(x) >= 2.0**-1022:
            assert abs(s - math.sin(x)) <= 2 * EPS * abs(math.sin(x)), x
        else:
            assert abs(s - x) <= 2.0**-1074, x


def test_sincos_signed_zero_nan_and_infinity_as_numpy():
    sin, cos = sincos(np.array([0.0, -0.0]))
    assert np.array_equal(np.signbit(sin), [False, True]) and cos.tolist() == [1.0, 1.0]
    assert all(np.isnan(v).all() for v in sincos(np.array([np.nan])))
    for x in (np.inf, -np.inf):
        with pytest.warns(RuntimeWarning, match="invalid value"):
            np.sin(np.array([x]))
        with pytest.warns(RuntimeWarning, match="invalid value"):
            got = sincos(np.array([x]))
        assert all(np.isnan(v).all() for v in got)


def _with_numpy_trig(fn, *args):
    """fn(*args) with specialfn.sincos replaced by np.sin and np.cos."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specialfn, "sincos", lambda x: (np.sin(x), np.cos(x)))
        return fn(*args)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 10_000), chords=st.lists(_finite(-2.0, 2.0), min_size=1, max_size=30))
def test_gegenbauer3_chord_sincos_matches_numpy_trig(k, chords):
    # the kernel's sin and cos of (k+1) theta, from one half-angle tangent,
    # against np.sin and np.cos in the closed forms of C and
    # C' = (t C - cos((k+1) theta)) / (1 - t^2), and the Gegenbauer equation
    # above them, wherever the kernel takes the closed form: C everywhere, C'
    # where (k+1) theta >= 2 and higher orders where (k+1) theta >= 3
    chords = np.array(chords)
    got = chord_kernel(k, chords, 3)
    q, far = _q_form(chords)
    theta = 2.0 * np.arcsin(np.sqrt(q))
    t, sin2 = 1.0 - 2.0 * q, 4.0 * q * (1.0 - q)  # 1 - t^2 without cancellation
    with np.errstate(all="ignore"):
        ref = [np.where(q > 0, np.sin((k + 1) * theta) / ((k + 1) * np.sin(theta)), 1.0)]
        ref.append((t * ref[0] - np.cos((k + 1) * theta)) / sin2)
        for d in range(2):
            ref.append(((2 * d + 3) * t * ref[d + 1] + (d * (d + 2) - k * (k + 2)) * ref[d]) / sin2)
    for d in range(4):
        where = (k + 1) * theta >= (0.0, 2.0, 3.0, 3.0)[d]
        signed = np.where(far, (-1.0) ** (k + d), 1.0) * ref[d]
        assert np.all(np.abs(got[d] - signed)[where] <= 1e-14 * c3_scale(k, d)), (k, d)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([3, 5]), radii=st.lists(_finite(0.0, 2000.0), min_size=1, max_size=30))
def test_bessel_kernel_sincos_matches_numpy_trig(n, radii):
    # relative to the kernel's size, sqrt(2/pi) / r^(nu + 1/2) for large r
    r = np.array(radii)
    got = bessel_kernel(n, r)
    ref = _with_numpy_trig(bessel_kernel, n, r)
    size = math.sqrt(2.0 / math.pi) * np.maximum(r, 1.0) ** (-0.5 * (n - 1))
    assert np.all(np.abs(got - ref) <= 1e-14 * size), n


# ---------------------------------------------------------------------------
# K3 and K5 from one sincos, over radii from the shared plane builder
# ---------------------------------------------------------------------------

_SPECIAL_RADII = [
    0.0,
    5e-324,
    2.0**-1030,
    np.nextafter(2.0**-1022, 0.0),
    1e-8,
    np.nextafter(0.5, 0.0),
    0.5,
    np.nextafter(0.5, 1.0),
    1e3,
]


def _kernel_mp(n: int, r: float) -> float:
    """J_{n/2-1}(r) / r^{n/2-1} to 50 digits, its limit 1 / (2^nu Gamma(nu + 1)) at r = 0."""
    with mpmath.workdps(50):
        nu = mpmath.mpf(n) / 2 - 1
        if r == 0.0:
            return float(1 / (2**nu * mpmath.gamma(nu + 1)))
        t = mpmath.mpf(r)
        return float(mpmath.besselj(nu, t) / t**nu)


@settings(max_examples=40, deadline=None)
@given(radii=st.lists(_finite(0.0, 1e3) | _finite(0.0, 1.0), max_size=20))
def test_fused_kernels_match_closed_forms_and_mpmath(radii):
    # the fused call gives the single-n kernels bit for bit, on every shape,
    # within 1e-14 of the kernel's size of the 50-digit values
    r = np.array(_SPECIAL_RADII + radii)
    k3, k5 = bessel_kernel((3, 5), r)
    assert np.array_equal(k3, bessel_kernel(3, r)) and np.array_equal(k5, bessel_kernel(5, r))
    column = bessel_kernel((3, 5), r[:, None])
    assert all(np.array_equal(c[:, 0], k) for c, k in zip(column, (k3, k5)))
    for n, got in ((3, k3), (5, k5)):
        ref = np.array([_kernel_mp(n, t) for t in r])
        size = math.sqrt(2.0 / math.pi) * np.maximum(r, 1.0) ** (-0.5 * (n - 1))
        assert np.all(np.abs(got - ref) <= 1e-14 * size), n


def test_fused_kernels_keep_scalars_checks_and_other_n():
    k3, k5 = bessel_kernel((3, 5), 0.7)
    assert np.ndim(k3) == np.ndim(k5) == 0
    assert k3 == bessel_kernel(3, 0.7) and k5 == bessel_kernel(5, 0.7)
    with pytest.raises(ValueError, match="r >= 0"):
        bessel_kernel((3, 5), np.array([1.0, -1e-300]))
    with pytest.raises(ValueError, match="n must be >= 2"):
        bessel_kernel((1, 3), 1.0)
    r = np.linspace(0.0, 20.0, 401)
    for pair in ((2, 4), (3, 4), (4, 6)):
        assert all(np.array_equal(got, bessel_kernel(n, r)) for got, n in zip(bessel_kernel(pair, r), pair))
    assert [np.size(k) for k in bessel_kernel((3, 5), np.empty((0, 4)))] == [0, 0]


def _outer_planes(x, centers, scale):
    """sum_a (scale * (x_a - c_a))^2 from np.subtract.outer, in the builder's order."""
    q = None
    for a in range(x.shape[1]):
        plane = np.subtract.outer(x[:, a], centers[:, a]) * scale
        plane *= plane
        q = plane if q is None else q + plane
    return q


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), far=st.booleans(), scale=st.sampled_from([1.0, 0.5]))
def test_pair_planes_match_outer_subtraction(seed, far, scale):
    # R^3 boxes, also moved 2^26 from the origin, at the R^3 scale and at the
    # halved S^3 scale, and unit vectors of R^4 at the S^3 scale
    rng = np.random.default_rng(seed)
    offset = 2.0**26 if far else 0.0
    x, centers = rng.uniform(-2.5, 2.5, (17, 3)) + offset, rng.uniform(-1.5, 1.5, (9, 3)) + offset
    x[0] = centers[0]
    assert np.array_equal(squared_pair_distances(x, centers, scale), _outer_planes(x, centers, scale))
    p, c = _unit(rng.normal(size=(17, 4))), _unit(rng.normal(size=(9, 4)))
    p[:2] = c[0], -c[1]
    assert np.array_equal(squared_pair_distances(p, c, 0.5), _outer_planes(p, c, 0.5))


def _count_sincos(monkeypatch):
    calls = []
    real = specialfn.sincos
    monkeypatch.setattr(specialfn, "sincos", lambda x: calls.append(np.size(x)) or real(x))
    return calls


def test_bessel_sum_jet_runs_one_sincos_per_row_block(monkeypatch):
    rng = np.random.default_rng(8)
    s = BesselSum(3, rng.normal(size=390) + 1j * rng.normal(size=390), rng.uniform(-2, 2, (390, 3)), 4.0)
    rows = block_rows(len(s))
    x = rng.uniform(-2.5, 2.5, (2 * rows + 5, 3))
    calls = _count_sincos(monkeypatch)
    eval_bessel_sum_jet(s, x)
    assert calls == [rows * len(s)] * 2 + [5 * len(s)]
    calls.clear()
    _spherical_j01(np.linspace(0.0, 9.0, 50))
    assert calls == [50]
