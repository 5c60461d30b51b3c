"""Herglotz fields, Bessel sums, residuals, discretization, Fourier-Bessel."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import sph_harm_y, spherical_jn

from eigenknot import helmholtz
from eigenknot.helmholtz import (
    _central_differences,
    BesselSum,
    FourierBesselSeries,
    HerglotzDensity,
    PlaneWaveSpinor,
    ToleranceError,
    eval_bessel_sum,
    eval_bessel_sum_jet,
    eval_herglotz,
    fourier_bessel_truncate,
    helmholtz_residual,
    lattice_stencils,
    real_sph_harm,
    herglotz_discretize,
    sphere_area,
    sphere_quadrature,
)
from eigenknot.spinor3 import euclidean_dirac_check

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
    assert np.max(np.abs(eval_bessel_sum_jet(s, pts)[1] - grad)) <= 1e-13 * np.max(np.abs(grad))


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
    assert np.all(np.isfinite(eval_bessel_sum_jet(s, pts)[1]))


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
    grad = eval_bessel_sum_jet(s, pts)[1]
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
    s2 = BesselSum.from_dict(json.loads(s.to_json()))
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


@pytest.mark.parametrize(
    "box, h, message",
    [
        (([-0.5] * 3, [0.5] * 3), 0.0, "step h "),
        (([-0.5] * 3, [0.5] * 3), -0.1, "step h "),
        (([-0.5] * 3, [0.5] * 3), float("nan"), "step h "),
        (([-0.5] * 3, [0.5] * 3), float("inf"), "step h "),
        (([0.5] * 3, [-0.5] * 3), 0.1, "^box "),
        (([-0.5, -0.5, 0.2], [0.5, 0.5, 0.2]), 0.1, "^box "),
    ],
)
def test_lattice_stencils_reject_bad_lattice(box, h, message):
    # helmholtz_residual and euclidean_dirac_check read the same lattice
    for check in (
        lambda: lattice_stencils(helical, box, h),
        lambda: helmholtz_residual(helical, box, h),
        lambda: euclidean_dirac_check((helical, helical), box, h),
    ):
        with pytest.raises(ValueError, match=message):
            check()


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(3, 7), min_size=2, max_size=3),
    h=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
    offset=st.floats(-2.0, 2.0),
)
def test_central_differences_exact_on_quadratics(shape, h, seed, offset):
    # central differences of a quadratic are its gradient and Hessian, up to
    # rounding of the differences, which grows like max|q| / h^order
    n = len(shape)
    rng = np.random.default_rng(seed)
    c = rng.normal() + 1j * rng.normal()
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    hess = a + a.T
    x = offset + h * np.stack(np.meshgrid(*[np.arange(s) for s in shape], indexing="ij"), axis=-1)
    vals = c + x @ b + np.einsum("...i,ij,...j->...", x, a, x)
    v, d1, d2 = _central_differences(vals, h, 2)
    core = x[(slice(1, -1),) * n]
    scale = 64 * np.finfo(float).eps * np.abs(vals).max()
    assert np.array_equal(v, vals[(slice(1, -1),) * n])
    assert d1.shape == (n,) + core.shape[:-1] and d2.shape == (n, n) + core.shape[:-1]
    assert np.abs(np.moveaxis(d1, 0, -1) - (b + core @ hess)).max() <= scale / h + 1e-13
    assert np.abs(np.moveaxis(d2, (0, 1), (-2, -1)) - hess).max() <= scale / (h * h) + 1e-13
    assert np.array_equal(d2, d2.swapaxes(0, 1))
    assert len(_central_differences(vals, h, 0)) == 1
    assert np.array_equal(_central_differences(vals, h, 1)[1], d1)


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
        herglotz_discretize(f, 1e-30)
    assert err.value.achieved > 1e-30


@pytest.mark.parametrize("delta", [1e-3, 1e-8])
def test_discretize_small_radius_meets_delta_or_raises(delta):
    # the fit has (L+1)^2 rows at any spacing, so a small radius is no longer
    # refused by size: it meets delta by its bound and by its samples, or it
    # raises with a bound above delta (here 1.2e-8, the tail past L times the
    # amplitude mass 4 pi, which refining the grid cannot lower)
    f = HerglotzDensity.constant(3)
    try:
        s = herglotz_discretize(f, delta, radius=0.2)
    except ToleranceError as exc:
        assert exc.achieved > delta
    else:
        assert s.report.achieved <= s.report.bound <= delta


def test_discretize_stops_before_fitting_when_the_tail_misses_delta(monkeypatch):
    # at radius 0.2 the constant density's tail past L = 11 times its amplitude
    # mass 4 pi is 1.195e-8 > 1e-8 at every refinement, so no fit is tried; the
    # error carries the tail, which the first fit's bound (1.203e-8) contains
    f = HerglotzDensity.constant(3)
    fits = []
    fit = helmholtz._fit_kernel_sum
    monkeypatch.setattr(helmholtz, "_fit_kernel_sum", lambda *a: fits.append(a) or fit(*a))
    with pytest.raises(ToleranceError, match="tail past degree 11") as err:
        herglotz_discretize(f, 1e-8, radius=0.2)
    assert fits == []
    assert f"{err.value.achieved:.3e}" == "1.195e-08"
    _, (bound,), _, _ = fit(f.nodes, f.weights * f.values, 0.2, 0.2 / 3.6)
    assert f"{bound:.3e}" == "1.203e-08" and err.value.achieved <= bound
    # a delta above the floor still fits
    assert herglotz_discretize(f, 1e-3, radius=0.2).report.bound <= 1e-3
    assert len(fits) == 1


def test_discretize_refines_the_grid_until_the_bound_meets_delta():
    # at radius 1.5 the constant density's tail floor is 1.1946e-8 and the
    # first fit's bound 1.2360e-8; delta between them is met by the second
    # fit, on the refined grid at radius 2.0
    f = HerglotzDensity.constant(3)
    s = herglotz_discretize(f, 1.222e-8, radius=1.5)
    assert s.report.radius == 2.0 and s.report.spacing == pytest.approx(1.5 / 3.6 * 0.7, rel=1e-15)
    assert s.report.achieved <= s.report.bound <= 1.222e-8 < 1.2360e-8


def test_discretize_stops_at_max_terms_with_the_last_bound(monkeypatch):
    # the refined grid at radius 2.0 holds 1337 centers, over the term cap, so
    # the error carries the first fit's bound
    monkeypatch.setattr(helmholtz, "_MAX_TERMS", 1000)
    f = HerglotzDensity.constant(3)
    with pytest.raises(ToleranceError, match="within 1000 terms") as err:
        herglotz_discretize(f, 1.222e-8, radius=1.5)
    assert f"{err.value.achieved:.4e}" == "1.2360e-08"


def _mode_orders(L):
    l = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    return l, np.arange((L + 1) ** 2) - l * l - l


def test_real_sph_harm_basis():
    # the real basis without the Condon-Shortley phase, in columns l^2 + l + m
    x = ball_points(np.random.default_rng(6), 50, radius=3.0)
    u = x / np.linalg.norm(x, axis=1, keepdims=True)
    c1, c2 = math.sqrt(3.0 / (4.0 * math.pi)), math.sqrt(15.0 / math.pi)
    want = np.stack(
        [np.full(len(u), 0.5 / math.sqrt(math.pi)), c1 * u[:, 1], c1 * u[:, 2], c1 * u[:, 0],
         0.5 * c2 * u[:, 0] * u[:, 1], 0.25 * c2 * (u[:, 0] ** 2 - u[:, 1] ** 2)],
        axis=1,
    )
    got = real_sph_harm(2, x)
    assert got.shape == (50, 9)
    assert np.abs(got[:, [0, 1, 2, 3, 4, 8]] - want).max() <= 1e-15
    # orthonormal on S^2 under a rule exact to degree 12
    nodes, weights = sphere_quadrature(3, 8)
    table = real_sph_harm(6, nodes)
    assert np.abs((table.T * weights) @ table - np.eye(49)).max() <= 1e-14


def scipy_real_sph_harm(L, x):
    """The real basis of real_sph_harm from scipy's complex Y_l^|m|: Y_l0 is its
    real part, and Y_lm is sqrt(2) (-1)^m times its real part for m > 0 and its
    imaginary part for m < 0; the origin reads as the north pole."""
    l, m = _mode_orders(L)
    theta = np.arctan2(np.hypot(x[:, 0], x[:, 1]), x[:, 2])[:, None]
    y = sph_harm_y(l, np.abs(m), theta, np.arctan2(x[:, 1], x[:, 0])[:, None])
    return np.where(m == 0, 1.0, math.sqrt(2.0) * (-1.0) ** m) * np.where(m < 0, y.imag, y.real)


# the poles, the origin, and points a hair off the polar axis
AXIS_POINTS = np.array([[0.0, 0.0, 1.5], [0.0, 0.0, -0.5], [0.0, 0.0, 0.0], [1e-200, 0.0, 1.0], [0.0, -1e-9, -2.0]])


@settings(max_examples=40, deadline=None)
@given(L=st.integers(0, 30), count=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_real_sph_harm_matches_scipy(L, count, seed):
    # the Legendre recurrence against scipy's sph_harm_y; both round at about
    # l^2 eps in the derivative of P_lm, against values up to sqrt((2L+1)/(4 pi))
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(size=(count, 3)) * rng.uniform(1e-3, 50.0, (count, 1)), AXIS_POINTS])
    got = real_sph_harm(L, x)
    assert got.shape == (len(x), (L + 1) ** 2)
    assert np.abs(got - scipy_real_sph_harm(L, x)).max() <= 1e-15 * (L + 1) ** 2


@settings(max_examples=60, deadline=None)
@given(L=st.integers(0, 30), r=st.lists(st.floats(0.0, 50.0, allow_subnormal=False), min_size=1, max_size=20))
def test_radial_matches_scipy(L, r):
    # Miller's recurrence against spherical_jn, with the origin always drawn:
    # absolute where j_l oscillates, relative where it is tiny (l > r); scipy
    # reads nan at subnormal radii, so none is drawn
    r = np.array(r + [0.0])
    got = helmholtz._radial(L, r)
    assert got.shape == (len(r), (L + 1) ** 2)
    l, _ = _mode_orders(L)
    want = spherical_jn(l, r[:, None])
    assert np.all(np.abs(got - want) <= 1e-14 + 1e-12 * np.abs(want))
    assert np.array_equal(got[-1], (l == 0).astype(float))


@settings(max_examples=15, deadline=None)
@given(
    count=st.integers(1, 300),
    radius=st.floats(0.5, 3.0),
    cells=st.floats(2.5, 4.0),
    seed=st.integers(0, 2**16),
)
def test_fit_bound_holds(count, radius, cells, seed):
    # plane-wave sums with drawn directions and amplitudes, fitted two at a
    # time: each fit's computed bound is at least its sup error sampled on the
    # ball of _FIT_RADIUS, and each column's fit is its own solve
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    amps = (rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))) * rng.exponential(size=(count, 1))
    sums, bounds, degree, rank = helmholtz._fit_kernel_sum(dirs, amps, radius, radius / cells)
    assert len(sums) == len(bounds) == 2 and 0 < rank <= min((degree + 1) ** 2, len(sums[0]))
    pts = np.concatenate([ball_points(rng, 500, helmholtz._FIT_RADIUS), helmholtz._FIT_RADIUS * AXIS_POINTS[:2] / 1.5])
    for col, (s, bound) in enumerate(zip(sums, bounds)):
        exact = helmholtz._plane_wave_sum(pts, dirs, amps[:, col])
        assert np.abs(eval_bessel_sum(s, pts) - exact).max() <= bound
        (alone,), (alone_bound,), _, _ = helmholtz._fit_kernel_sum(dirs, amps[:, col], radius, radius / cells)
        assert np.allclose(alone.coeffs, s.coeffs, rtol=1e-12, atol=1e-12 * np.abs(s.coeffs).max())
        # the residual b - K c cancels, so its rounding moves the bound further
        assert alone_bound == pytest.approx(bound, rel=1e-6)


def test_discretize_reports_its_bound_and_degree():
    f = HerglotzDensity.from_function(3, lambda xi: np.exp(1j * xi[:, 0]) + xi[:, 2] ** 2)
    s = herglotz_discretize(f, 1e-3)
    report = s.report
    assert report.achieved <= report.bound <= 1e-3
    # the degree leaves tails below 1e-9 per unit of mass on the radius-1.6 ball
    assert report.degree == 11 and 0 < report.rank <= 144


def test_fourier_bessel_radial_field():
    # sqrt(2/pi) j_0(|x|) = 4 pi sqrt(2/pi) j_0(|x|) Y_00^2, so b_00 = sqrt(8)
    s = fourier_bessel_truncate(BesselSum(3, [1.0], [[0.0, 0.0, 0.0]], 0.0), 6)
    assert s.L == 6 and s.coeffs.shape == (49,)
    assert abs(s.coeffs[0] - math.sqrt(8.0)) <= 4e-16 * math.sqrt(8.0)
    assert np.all(s.coeffs[1:] == 0.0)


def test_fourier_bessel_helical_concentration():
    # (xi_1 + i xi_2) e^{xi_3} is sin(theta) e^{i phi} times a function of xi_3
    f = HerglotzDensity.from_function(3, lambda xi: (xi[:, 0] + 1j * xi[:, 1]) * np.exp(xi[:, 2]), 24)
    x = ball_points(np.random.default_rng(3), 400, radius=2.0)
    want = eval_herglotz(f, x)
    errs = []
    for L in (2, 4, 8):
        s = fourier_bessel_truncate(f, L)
        _, m = _mode_orders(L)
        assert np.abs(s.coeffs[np.abs(m) != 1]).max() <= 1e-15 * np.abs(s.coeffs).max()
        errs.append(np.abs(s.eval(x) - want).max() / np.abs(want).max())
    # about 1.8e-2, 1.7e-5 and 2.1e-13
    assert errs[0] > 1e-2 and 1e-6 < errs[1] < 1e-4 and errs[2] < 1e-12


def test_fourier_bessel_roundtrip():
    # f = sum a_lm Y_lm has b_lm = 4 pi i^l a_lm; the rule integrates degree 2L exactly
    L = 4
    rng = np.random.default_rng(2)
    a = rng.normal(size=(L + 1) ** 2) + 1j * rng.normal(size=(L + 1) ** 2)
    f = HerglotzDensity.from_function(3, lambda xi: real_sph_harm(L, xi) @ a, 8)
    l, _ = _mode_orders(L)
    back = fourier_bessel_truncate(f, L).coeffs / (4 * math.pi * 1j**l)
    assert np.abs(back - a).max() <= 1e-14 * np.abs(a).max()
    # and no mode past L, on the scale 4 pi |a| of the coefficients
    beyond = fourier_bessel_truncate(f, L + 2).coeffs[(L + 1) ** 2 :]
    assert np.abs(beyond).max() <= 1e-14 * 4 * math.pi * np.abs(a).max()


def test_fourier_bessel_herglotz_reconstruction():
    x = ball_points(np.random.default_rng(4), 500, radius=2.0)
    f = HerglotzDensity.from_function(
        3, lambda xi: (xi[:, 0] + 0.5j * xi[:, 2]) * np.exp(0.3 * xi[:, 1]), 16
    )
    rng = np.random.default_rng(5)
    s = BesselSum(3, rng.normal(size=5) + 1j * rng.normal(size=5), ball_points(rng, 5), 1.0)
    for field, want in ((f, eval_herglotz(f, x)), (s, eval_bessel_sum(s, x))):
        got = fourier_bessel_truncate(field, 20).eval(x)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_fourier_bessel_rejects_other_inputs():
    with pytest.raises(TypeError, match="HerglotzDensity or a BesselSum"):
        fourier_bessel_truncate(helical, 4)
    with pytest.raises(ValueError, match="n = 2"):
        fourier_bessel_truncate(HerglotzDensity.constant(2), 4)
    with pytest.raises(ValueError, match=r"\(L\+1\)\^2"):
        FourierBesselSeries(np.ones(5))
