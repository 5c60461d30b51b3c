"""Herglotz fields, Bessel sums, residuals, discretization, Fourier-Bessel."""

import math

import numpy as np
import pytest
from scipy.special import spherical_jn

from eigenknot.helmholtz import (
    BesselSum,
    FourierBesselSeries,
    HerglotzDensity,
    PlaneWaveSpinor,
    ToleranceError,
    eval_bessel_sum,
    eval_bessel_sum_grad,
    eval_herglotz,
    fourier_bessel_truncate,
    helmholtz_residual,
    herglotz_discretize,
    sphere_area,
    sphere_quadrature,
)

SQRT_2_PI = math.sqrt(2.0 / math.pi)


def ball_points(rng, count, radius=1.0, n=3):
    x = rng.normal(size=(count, n))
    return x * (radius * rng.uniform(0, 1, count) ** (1 / n) / np.linalg.norm(x, axis=1))[:, None]


def helical(x):
    x = np.atleast_2d(x)
    return (x[:, 0] + 1j * x[:, 1]) * np.exp(1j * x[:, 2])


def test_quadrature_areas():
    for n in (2, 3, 4):
        _, w = sphere_quadrature(n, 20)
        assert w.sum() == pytest.approx(sphere_area(n), rel=1e-12)


def test_herglotz_constant_density():
    f = HerglotzDensity.constant(3)
    assert eval_herglotz(f, np.zeros(3)) == pytest.approx(4 * math.pi, rel=1e-12)
    for r in (0.5, 1.7, 3.0):
        val = eval_herglotz(f, np.array([0.0, r, 0.0]))
        assert val == pytest.approx(4 * math.pi * math.sin(r) / r, rel=1e-10)


def test_herglotz_linear_density_oracle():
    # frozen adaptive-quadrature oracle: 4*pi*i*j1(1) at x = e3 for f = xi_3
    f = HerglotzDensity.from_function(3, lambda xi: xi[:, 2].astype(complex))
    val = eval_herglotz(f, np.array([0.0, 0.0, 1.0]))
    assert val == pytest.approx(3.7845972369939314j, rel=1e-11)


def test_plane_wave_sums_match_complex_exponential():
    # reference: the complex phase block e^{i x.xi} times the coefficients
    rng = np.random.default_rng(3)
    x = ball_points(rng, 500, radius=30.0)
    f = HerglotzDensity.from_function(3, lambda xi: np.exp(1j * xi[:, 0]) + xi[:, 1], 12)
    ref = np.exp(1j * (x @ f.nodes.T)) @ (f.weights * f.values)
    assert np.max(np.abs(eval_herglotz(f, x) - ref)) <= 1e-13 * np.max(np.abs(ref))
    dirs = rng.normal(size=(9, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pw = PlaneWaveSpinor(dirs, rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)))
    for a in (0, 1):
        ref = np.exp(1j * (x @ dirs.T)) @ pw.spinor_coeffs[:, a]
        assert np.max(np.abs(pw.component(a, x) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_bessel_sum_single_term():
    s = BesselSum(3, [2.0 - 1.0j], [[0.0, 0.0, 0.0]], 0.5)
    assert eval_bessel_sum(s, np.zeros(3)) == pytest.approx((2 - 1j) * SQRT_2_PI)
    x = np.array([0.3, -1.2, 0.4])
    r = np.linalg.norm(x)
    assert eval_bessel_sum(s, x) == pytest.approx((2 - 1j) * SQRT_2_PI * math.sin(r) / r)


def _many_term_sum(rng, count=50):
    centers = rng.uniform(-1.5, 1.5, (count, 3))
    coeffs = rng.normal(size=count) + 1j * rng.normal(size=count)
    return BesselSum(3, coeffs, centers, 3.0)


def _probe_points(rng, s):
    # generic points, one on a center and one 0.2 from it (the series branch)
    return np.vstack([ball_points(rng, 40, radius=2.0), s.centers[:1], s.centers[1:2] + 0.2])


def test_bessel_sum_many_terms_against_pair_sum():
    rng = np.random.default_rng(11)
    s = _many_term_sum(rng)
    pts = _probe_points(rng, s)
    # per-pair oracle: J_{1/2}(r)/r^{1/2} = sqrt(2/pi) j_0(r), and the gradient
    # kernel J_{3/2}(r)/r^{3/2} = sqrt(2/pi) j_1(r)/r (1/3 sqrt(2/pi) at r = 0)
    val = np.zeros(len(pts), dtype=complex)
    grad = np.zeros((len(pts), 3), dtype=complex)
    for i, x in enumerate(pts):
        for c, xj in zip(s.coeffs, s.centers):
            r = math.dist(x, xj)
            val[i] += c * SQRT_2_PI * spherical_jn(0, r)
            k5 = SQRT_2_PI * (spherical_jn(1, r) / r if r > 0 else 1.0 / 3.0)
            grad[i] -= c * k5 * (x - xj)
    assert np.max(np.abs(eval_bessel_sum(s, pts) - val)) <= 1e-13 * np.max(np.abs(val))
    assert np.max(np.abs(eval_bessel_sum_grad(s, pts) - grad)) <= 1e-13 * np.max(np.abs(grad))


def test_spherical_j01_match_library():
    from eigenknot.helmholtz import _spherical_j01

    r = np.array([0.0, 1e-8, 1e-3, 0.49, 0.5, 1.0, 10.0, 100.0])
    for got, ref in zip(_spherical_j01(r), (spherical_jn(0, r), spherical_jn(1, r))):
        assert np.all(np.abs(got - ref) <= 4e-15 * np.abs(ref)), (got, ref)
    r = np.linspace(0.0, 50.0, 20001)
    for got, ref in zip(_spherical_j01(r), (spherical_jn(0, r), spherical_jn(1, r))):
        assert np.max(np.abs(got - ref)) <= 1e-15


def test_bessel_sum_n3_needs_no_library_bessel(monkeypatch):
    # n = 3 and its gradient kernel n = 5 are elementary; jv must stay unused
    import eigenknot.specialfn

    def refuse(*args):
        raise AssertionError("jv called for an n = 3 or n = 5 kernel")

    monkeypatch.setattr(eigenknot.specialfn, "jv", refuse)
    rng = np.random.default_rng(12)
    s = _many_term_sum(rng)
    pts = _probe_points(rng, s)
    assert np.all(np.isfinite(eval_bessel_sum(s, pts)))
    assert np.all(np.isfinite(eval_bessel_sum_grad(s, pts)))


def test_bessel_sum_kernel_limit_general_n():
    for n in (2, 4, 5):
        s = BesselSum(n, [1.5j], [np.zeros(n)], 1.0)
        lim = 1.5j / (2.0 ** (0.5 * n - 1.0) * math.gamma(0.5 * n))
        assert eval_bessel_sum(s, np.zeros(n)) == pytest.approx(lim)


def test_bessel_sum_gradient_fd():
    rng = np.random.default_rng(4)
    s = BesselSum(
        3,
        rng.normal(size=5) + 1j * rng.normal(size=5),
        rng.uniform(-2, 2, (5, 3)),
        4.0,
    )
    pts = ball_points(rng, 40, radius=1.5)
    grad = eval_bessel_sum_grad(s, pts)
    h = 1e-6
    for mu in range(3):
        e = np.zeros(3)
        e[mu] = h
        fd = (eval_bessel_sum(s, pts + e) - eval_bessel_sum(s, pts - e)) / (2 * h)
        assert np.max(np.abs(grad[:, mu] - fd)) <= 1e-7


def test_bessel_sum_validation():
    with pytest.raises(ValueError):
        BesselSum(3, [1.0], [[3.0, 0.0, 0.0]], 1.0)  # center outside radius
    with pytest.raises(ValueError):
        BesselSum(3, [], np.zeros((0, 3)), 1.0)


def test_bessel_sum_json_roundtrip():
    s = BesselSum(3, [1.0 + 2.0j, -0.5], [[0.1, 0.2, 0.3], [-1.0, 0.0, 0.5]], 2.0)
    s2 = BesselSum.from_json(s.to_json())
    assert s2.n == 3 and s2.radius == 2.0
    assert np.allclose(s2.coeffs, s.coeffs)
    assert np.allclose(s2.centers, s.centers)


def test_helmholtz_residual_exact_solutions():
    box = ([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5])
    assert helmholtz_residual(helical, box, 0.01) <= 1e-3
    xi = np.array([0.6, 0.8, 0.0])
    plane = lambda x: np.exp(1j * (np.atleast_2d(x) @ xi))
    r1 = helmholtz_residual(plane, box, 0.02)
    r2 = helmholtz_residual(plane, box, 0.01)
    assert r1 <= 1e-3
    assert r1 / r2 == pytest.approx(4.0, rel=0.15)  # O(h^2) stencil


def test_helmholtz_residual_flags_non_solution():
    box = ([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5])
    bad = lambda x: np.atleast_2d(x)[:, 0] ** 2 + 0j
    assert helmholtz_residual(bad, box, 0.05) >= 1.9  # |2 + x1^2| = O(1)


def test_bessel_sum_residual_scaling():
    rng = np.random.default_rng(8)
    s = BesselSum(
        3, rng.normal(size=4) + 1j * rng.normal(size=4), rng.uniform(-1, 1, (4, 3)), 2.0
    )
    field = lambda x: eval_bessel_sum(s, x)
    box = ([-0.4, -0.4, -0.4], [0.4, 0.4, 0.4])
    r1 = helmholtz_residual(field, box, 0.04)
    r2 = helmholtz_residual(field, box, 0.02)
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_discretize_constant_density():
    f = HerglotzDensity.constant(3)
    s = herglotz_discretize(f, 1e-3)
    assert abs(eval_bessel_sum(s, np.zeros(3)) - 4 * math.pi) <= 1e-3
    assert s.report.achieved <= 1e-3


def test_discretize_linear_density():
    f = HerglotzDensity.from_function(3, lambda xi: xi[:, 2].astype(complex))
    s = herglotz_discretize(f, 1e-3)
    rng = np.random.default_rng(17)
    pts = ball_points(rng, 500)
    err = np.max(np.abs(eval_bessel_sum(s, pts) - eval_herglotz(f, pts)))
    assert err <= 1e-2


def test_discretize_reported_bound_holds():
    rng = np.random.default_rng(23)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    f = HerglotzDensity.from_function(3, lambda xi: xi @ a + 0.7)
    s = herglotz_discretize(f, 1e-4)
    pts = ball_points(np.random.default_rng(99), 1000)
    err = np.max(np.abs(eval_bessel_sum(s, pts) - eval_herglotz(f, pts)))
    # the reported bound is measured on different seeded points; allow slack 2x
    assert err <= 2.0 * max(s.report.achieved, 1e-300) + 1e-12
    assert s.report.constant <= 1.0


def test_discretize_unreachable_tolerance():
    f = HerglotzDensity.constant(3)
    with pytest.raises(ToleranceError) as err:
        herglotz_discretize(f, 1e-30, max_terms=40)
    assert err.value.achieved > 1e-30


def test_fourier_bessel_radial_field():
    def radial(x):
        r = np.maximum(np.linalg.norm(np.atleast_2d(x), axis=1), 1e-300)
        return SQRT_2_PI * np.sin(r) / r

    s = fourier_bessel_truncate(radial, 6)
    assert abs(s.coeffs[(0, 0)] - math.sqrt(8.0)) <= 1e-10
    others = max(abs(v) for key, v in s.coeffs.items() if key != (0, 0))
    assert others <= 1e-8
    assert s.l2_error <= 1e-10


def test_fourier_bessel_helical_concentration():
    errs = []
    for L in (2, 4, 8):
        s = fourier_bessel_truncate(helical, L)
        errs.append(s.l2_error)
        if L == 8:
            # angular content of (x1 + i x2) e^{i x3} lives on m = +1 modes
            heavy = {key for key, v in s.coeffs.items() if abs(v) > 1e-3}
            assert heavy and all(abs(m) == 1 for _, m in heavy)
    assert errs[0] > errs[1] > errs[2]


def test_fourier_bessel_roundtrip():
    rng = np.random.default_rng(2)
    coeffs = {}
    for l in range(5):
        for m in range(-l, l + 1):
            coeffs[(l, m)] = complex(rng.normal(), rng.normal())
    series = FourierBesselSeries(4, coeffs)
    back = fourier_bessel_truncate(series.eval, 4)
    worst = max(abs(back.coeffs[key] - coeffs[key]) for key in coeffs)
    assert worst <= 1e-8


def test_fourier_bessel_herglotz_reconstruction():
    f = HerglotzDensity.from_function(
        3, lambda xi: (xi[:, 0] + 0.5j * xi[:, 2]) * np.exp(0.3 * xi[:, 1]), 16
    )
    s = fourier_bessel_truncate(lambda x: eval_herglotz(f, x), 20, n_rad=36, resolution=40)
    assert s.l2_error <= 1e-6
    assert len(s.flagged) > 0  # high-l modes below the noise floor are zeroed
