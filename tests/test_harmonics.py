"""Synthesis, localization rates, parity, decay, and multi-ball behavior."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigenknot as ek
from eigenknot import harmonics as H, helmholtz
from eigenknot.harmonics import (
    UltrasphericalSum,
    decay_profile,
    dirac_multiplicity,
    harmonic_space_dim,
    spinor_rank,
)
from eigenknot.helmholtz import BesselSum, eval_bessel_sum
from eigenknot.specialfn import gegenbauer_cnk
from eigenknot.spinor3 import frame_vectors


@pytest.fixture(scope="module")
def chart():
    return ek.random_chart(3, 1)


@pytest.fixture(scope="module")
def small_sum():
    return BesselSum(
        3,
        [1.0 + 0.5j, -0.7j, 0.4],
        np.array([[0.5, 0, 0], [0, -1.2, 0.4], [1.0, 1.0, -0.5]]),
        2.0,
    )


def random_bessel_sum(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(3, 11))
    radius = float(rng.uniform(2.0, 5.0))
    coeffs = rng.normal(size=count) + 1j * rng.normal(size=count)
    centers = rng.normal(size=(count, 3))
    centers *= (radius * rng.uniform(0, 1, count) ** (1 / 3) / np.linalg.norm(centers, axis=1))[
        :, None
    ]
    return BesselSum(3, coeffs, centers, radius)


def sphere_points(seed, count):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(count, 4))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def test_dict_round_trip_keeps_the_chart(chart, small_sum):
    Y = ek.synthesize(small_sum, 12, chart)
    back = UltrasphericalSum.from_dict(Y.to_dict())
    assert (back.n, back.k) == (Y.n, Y.k)
    assert np.array_equal(back.coeffs, Y.coeffs) and np.array_equal(back.centers, Y.centers)
    assert np.array_equal(back.chart.p0, chart.p0) and np.array_equal(back.chart.frame, chart.frame)
    assert back.chart.seed == chart.seed
    # a sum without a chart writes none and reads none back
    bare = UltrasphericalSum(3, 12, Y.coeffs, Y.centers)
    assert "chart" not in bare.to_dict() and UltrasphericalSum.from_dict(bare.to_dict()).chart is None


def test_dimension_formulas():
    assert harmonic_space_dim(1, 3) == 4
    for k in range(6):
        assert harmonic_space_dim(k, 3) == (k + 1) ** 2
        assert harmonic_space_dim(k, 2) == (1 if k == 0 else 2 * k + 1)
    assert spinor_rank(3) == 2
    assert dirac_multiplicity(3, 0) == 2
    assert dirac_multiplicity(3, 2) == 2 * math.comb(4, 2)


def test_synthesize_center_value(chart, small_sum):
    single = BesselSum(3, [1.0], [[0.0, 0.0, 0.0]], 0.5)
    Y = ek.synthesize(single, 12, chart)
    assert H.eval_harmonic(Y, chart.p0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)
    # exact normalization consistency at the mapped center
    val_sphere = H.eval_harmonic(Y, Y.centers[0])
    val_euclid = eval_bessel_sum(single, np.zeros(3))
    assert abs(val_sphere - val_euclid) <= 1e-12


def test_synthesize_requires_k_above_radius(chart, small_sum):
    with pytest.raises(ValueError):
        ek.synthesize(small_sum, 2, chart)


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        UltrasphericalSum(3, 0, [1.0], [[1.0, 0, 0, 0]])


def test_parity(chart, small_sum):
    p = sphere_points(3, 1000)
    for k in (7, 30):
        Y = ek.synthesize(small_sum, k, chart)
        gap = np.abs(H.eval_harmonic(Y, -p) - (-1.0) ** k * H.eval_harmonic(Y, p)).max()
        assert gap <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    k=st.integers(1, 400),
    count=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_parity_property(n, k, count, seed):
    # Y(-p) = (-1)^k Y(p) for every degree-k harmonic, at drawn centers
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(count, n + 1))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    Y = UltrasphericalSum(n, k, rng.normal(size=count) + 1j * rng.normal(size=count), centers)
    p = rng.normal(size=(200, n + 1))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    vals = H.eval_harmonic(Y, p)
    gap = np.abs(H.eval_harmonic(Y, -p) - (-1.0) ** k * vals).max()
    assert gap <= 1e-12 * np.abs(vals).max(), (gap, np.abs(vals).max())


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    k=st.integers(1, 7),
    count=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_addition_theorem_property(n, k, count, seed):
    # by the addition theorem, Z(p.q) = dim H_k / |S^n| C^n_k(p.q) is
    # sum_m Y_km(p) Y_km(q) over an orthonormal basis of the degree-k
    # harmonics: the reproducing kernel of that space.  So integrating a
    # synthesized Y against Z(q.r) over q gives Y(r) back, against the kernel
    # of degree k +- 1 gives 0, and Z reproduces itself.  The rule on S^n is
    # exact through degree 2k + 1.
    nodes, weights = helmholtz.sphere_quadrature(n + 1, k + 1)
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(count, n + 1))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    Y = UltrasphericalSum(n, k, rng.normal(size=count) + 1j * rng.normal(size=count), centers)
    r = rng.normal(size=(20, n + 1))
    r /= np.linalg.norm(r, axis=1, keepdims=True)

    def kernel(degree, p, q):
        scale = harmonic_space_dim(degree, n) / helmholtz.sphere_area(n + 1)
        return scale * gegenbauer_cnk(n, degree, np.clip(p @ q.T, -1.0, 1.0))

    values = H.eval_harmonic(Y, nodes) * weights
    want = H.eval_harmonic(Y, r)
    scale = np.abs(values).sum() * kernel(k, r[:1], r[:1])[0, 0]
    assert np.abs(values @ kernel(k, nodes, r) - want).max() <= 1e-12 * scale
    for other in (k - 1, k + 1):
        assert np.abs(values @ kernel(other, nodes, r)).max() <= 1e-12 * scale
    z = kernel(k, r, nodes) * weights
    assert np.abs(z @ kernel(k, nodes, r) - kernel(k, r, r)).max() <= 1e-12 * np.abs(z).sum(axis=1).max() * kernel(k, r[:1], r[:1])[0, 0]


def test_gradient_matches_frame_differences(chart, small_sum):
    Y = ek.synthesize(small_sum, 20, chart)
    p = sphere_points(5, 24)
    grad = H.eval_harmonic_grad(Y, p)
    frames = frame_vectors(p)
    h = 1e-6
    for i in range(3):
        plus = p + h * frames[:, i]
        plus /= np.linalg.norm(plus, axis=1, keepdims=True)
        minus = p - h * frames[:, i]
        minus /= np.linalg.norm(minus, axis=1, keepdims=True)
        fd = (H.eval_harmonic(Y, plus) - H.eval_harmonic(Y, minus)) / (2 * h)
        along = np.einsum("ma,ma->m", frames[:, i], grad.real) + 1j * np.einsum(
            "ma,ma->m", frames[:, i], grad.imag
        )
        assert np.max(np.abs(along - fd)) <= 1e-6
    radial = np.abs(np.einsum("ma,ma->m", p, grad.real)).max()
    assert radial <= 1e-12  # tangential projection


def test_laplace_residual_scaling(chart, small_sum):
    Y = ek.synthesize(small_sum, 30, chart)
    r1 = H.laplace_residual(Y, samples=24, h=2e-3, seed=0)
    r2 = H.laplace_residual(Y, samples=24, h=1e-3, seed=0)
    assert r1 / r2 == pytest.approx(4.0, rel=0.1)
    Y1 = ek.synthesize(BesselSum(3, [1.0], [[0, 0, 0]], 0.5), 1, chart)
    assert H.laplace_residual(Y1, samples=16, h=1e-3) <= 1e-5


def test_localization_identical_field_is_zero(chart):
    # compare a synthesized harmonic against itself through the report path
    single = BesselSum(3, [1.0], [[0.0, 0.0, 0.0]], 0.5)
    Y = ek.synthesize(single, 40, chart)
    pull = H.rescaled_pullback(Y, np.zeros((1, 3)))
    assert abs(pull[0] - eval_bessel_sum(single, np.zeros(3))) <= 1e-12


def test_localization_single_center(chart):
    single = BesselSum(3, [1.0], [[0.0, 0.0, 0.0]], 0.5)
    lattice = H.localization_lattice(single, 2, h=0.1)
    reports = {}
    for k in (50, 100):
        Y = ek.synthesize(single, k, chart)
        reports[k] = H.localization_error(lattice, Y)
    assert all(err <= 0.05 for err in reports[100].orders)
    rows = reports[100].to_csv_rows()
    assert rows[0][0] == 0 and rows[0][3] == 100
    # tolerance anchored at half of the k=50 reading
    for order in range(3):
        assert reports[100].orders[order] <= 0.6 * reports[50].orders[order]


def test_localization_rates_seeded(chart):
    for seed in range(5):
        phi = random_bessel_sum(100 + seed)
        lattice = H.localization_lattice(phi, 0, h=0.125)
        errs = []
        for k in (40, 80, 160):
            Y = ek.synthesize(phi, k, chart)
            errs.append(H.localization_error(lattice, Y).orders[0])
        for a, b in zip(errs, errs[1:]):
            assert 0.3 <= b / a <= 0.8, (seed, errs)


def _full_lattice_orders(diff, mask, h, m):
    # the stencils of localization_error, read on a fully evaluated lattice
    orders = [float(np.abs(diff[mask]).max())]
    interior = mask.copy()
    for axis in range(3):
        interior &= np.roll(mask, 1, axis=axis) & np.roll(mask, -1, axis=axis)
    for axis in range(3):
        sl = [slice(None)] * 3
        sl[axis] = slice(0, 1)
        interior[tuple(sl)] = False
        sl[axis] = slice(-1, None)
        interior[tuple(sl)] = False
    if m >= 1:
        worst = 0.0
        for axis in range(3):
            d1 = (np.roll(diff, -1, axis=axis) - np.roll(diff, 1, axis=axis)) / (2 * h)
            worst = max(worst, float(np.abs(d1[interior]).max()))
        orders.append(worst)
    if m >= 2:
        worst = 0.0
        for a in range(3):
            for b in range(a, 3):
                if a == b:
                    d2 = (np.roll(diff, -1, axis=a) - 2 * diff + np.roll(diff, 1, axis=a)) / (h * h)
                else:
                    d2 = (
                        np.roll(np.roll(diff, -1, axis=a), -1, axis=b)
                        - np.roll(np.roll(diff, -1, axis=a), 1, axis=b)
                        - np.roll(np.roll(diff, 1, axis=a), -1, axis=b)
                        + np.roll(np.roll(diff, 1, axis=a), 1, axis=b)
                    ) / (4 * h * h)
                worst = max(worst, float(np.abs(d2[interior]).max()))
        orders.append(worst)
    return orders


def _full_lattice_report(phi, Y, m, h, radius=1.0, chart=None):
    """Reference: localization_error evaluating both fields on the whole padded cube."""
    ax = np.arange(-radius - 2 * h, radius + 2 * h + 1e-12, h)
    grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
    flat = grid.reshape(-1, 3)
    mask = (np.linalg.norm(flat, axis=1) <= radius).reshape(grid.shape[:3])
    diff = (H.rescaled_pullback(Y, flat, chart) - eval_bessel_sum(phi, flat)).reshape(grid.shape[:3])
    return H.CmErrorReport(_full_lattice_orders(diff, mask, h, m), h, Y.k, m)


def _assert_matches_reference(got, want):
    assert got.h == want.h and got.k == want.k and got.m == want.m
    assert len(got.orders) == len(want.orders) == got.m + 1
    for order, (a, b) in enumerate(zip(got.orders, want.orders)):
        rtol = 1e-12 if order == 0 else 1e-9
        assert abs(a - b) <= rtol * abs(b), (order, a, b)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    m=st.sampled_from([0, 1, 2]),
    h=st.floats(0.08, 0.3),
    radius=st.floats(0.5, 1.2),
    k=st.sampled_from([40, 160]),
)
def test_localization_support_matches_full_lattice(seed, m, h, radius, k):
    phi = random_bessel_sum(seed)
    Y = ek.synthesize(phi, k, ek.random_chart(3, seed + 1))
    got = H.localization_error(H.localization_lattice(phi, m, h=h, radius=radius), Y)
    _assert_matches_reference(got, _full_lattice_report(phi, Y, m=m, h=h, radius=radius))


@pytest.mark.parametrize("m, rows", [(0, 2109), (1, 2109), (2, 2457)])
def test_localization_evaluates_only_the_stencil_support(chart, monkeypatch, m, rows):
    # the padded cube at h = 0.125, radius 1 has 21^3 = 9261 points; the
    # pullback is evaluated where the stencils read, the ball (m <= 1) plus,
    # for m = 2, the diagonal neighbours of its interior points.  phi is one
    # product grid on the 21-point lattice axes: with 120 centers the plane
    # waves pay, so no point-wise Bessel call is made
    seen = {"grid": [], "pullback": [], "points": []}
    grid, pullback, points = H._plane_wave_grid, H.rescaled_pullback, helmholtz.eval_bessel_sum

    def count_grid(s, axes, degree):
        seen["grid"].append([np.asarray(a) for a in axes])
        return grid(s, axes, degree)

    def count_pullback(Y, x, c=None):
        seen["pullback"].append(len(x))
        return pullback(Y, x, c)

    def count_points(s, x):
        seen["points"].append(len(x))
        return points(s, x)

    monkeypatch.setattr(H, "_plane_wave_grid", count_grid)
    monkeypatch.setattr(H, "rescaled_pullback", count_pullback)
    monkeypatch.setattr(H, "eval_bessel_sum", count_points)
    monkeypatch.setattr(helmholtz, "eval_bessel_sum", count_points)
    rng = np.random.default_rng(5)
    phi = BesselSum(3, rng.normal(size=120) + 1j * rng.normal(size=120), rng.uniform(-1.5, 1.5, (120, 3)), 2.6)
    H.localization_error(H.localization_lattice(phi, m, h=0.125), ek.synthesize(phi, 40, chart))
    assert seen["pullback"] == [rows] and rows != 21**3
    assert seen["points"] == []
    (axes,) = seen["grid"]
    lattice = -1.25 + 0.125 * np.arange(21)
    assert len(axes) == 3 and all(np.allclose(a, lattice, rtol=0, atol=1e-12) for a in axes)


def test_localization_evaluates_few_centers_only_on_the_support(chart, monkeypatch):
    # 10 centers do not pay for the plane-wave product on the 21^3 lattice, so
    # phi is the direct sum at the 2457 support points rather than at all 9261;
    # the report equals the one read from phi on the whole lattice, as
    # eval_bessel_sum_grid evaluates it
    rng = np.random.default_rng(8)
    phi = BesselSum(3, rng.normal(size=10) + 1j * rng.normal(size=10), rng.uniform(-1.5, 1.5, (10, 3)), 2.6)
    Y = ek.synthesize(phi, 40, chart)
    h = 0.125
    lattice = [np.arange(-1.0 - 2 * h, 1.0 + 2 * h + 1e-12, h)] * 3
    assert helmholtz._grid_rule_degree(phi, lattice) is None
    supports, seen = [], []
    stencil_support, points = H._stencil_support, H.eval_bessel_sum
    monkeypatch.setattr(H, "_stencil_support", lambda *a: supports.append(stencil_support(*a)) or supports[-1])
    monkeypatch.setattr(H, "eval_bessel_sum", lambda s, x: seen.append(len(x)) or points(s, x))
    report = H.localization_error(H.localization_lattice(phi, 2, h=h), Y)
    assert seen == [supports[0].sum()] == [2457]
    monkeypatch.setattr(H, "eval_bessel_sum", lambda s, x: helmholtz.eval_bessel_sum_grid(s, lattice)[supports[0]])
    assert H.localization_error(H.localization_lattice(phi, 2, h=h), Y) == report


def test_localization_stencil_outside_support_raises(chart, monkeypatch):
    # with only the ball evaluated, the mixed second differences read NaN
    monkeypatch.setattr(H, "_stencil_support", lambda mask, interior, m: mask)
    phi = random_bessel_sum(5)
    Y = ek.synthesize(phi, 40, chart)
    assert len(H.localization_error(H.localization_lattice(phi, 1, h=0.125), Y).orders) == 2
    with pytest.raises(FloatingPointError, match="outside its support"):
        H.localization_error(H.localization_lattice(phi, 2, h=0.125), Y)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"m": -1}, "m"),
        ({"m": 3}, "m"),
        ({"h": 0.0}, "h"),
        ({"h": -0.2}, "h"),
        ({"h": float("nan")}, "h"),
        ({"h": float("inf")}, "h"),
        ({"radius": -1.0}, "radius"),
        ({"radius": 0.0}, "radius"),
        ({"radius": float("nan")}, "radius"),
        # no interior lattice point, so no first or second difference
        ({"m": 1, "h": 5.0}, "h"),
        ({"m": 2, "h": 5.0}, "h"),
        # no lattice point in the ball at all
        ({"m": 0, "h": 5.0, "radius": 0.5}, "h"),
    ],
)
def test_localization_rejects_bad_arguments(kwargs, name):
    with pytest.raises(ValueError, match=rf"^{name} "):
        H.localization_lattice(random_bessel_sum(5), **{"h": 0.125, **kwargs})


def test_multi_synthesize_single_pair_matches(chart, small_sum):
    Y1 = ek.synthesize(small_sum, 25, chart)
    Ym = ek.multi_synthesize([(small_sum, chart)], 25)
    p = sphere_points(8, 50)
    assert np.max(np.abs(H.eval_harmonic(Y1, p) - H.eval_harmonic(Ym, p))) <= 1e-14


def test_multi_synthesize_rejects_bad_base_points(chart, small_sum):
    anti = ek.sphere.Chart(-chart.p0, chart.frame @ (np.eye(4) - 2 * np.outer(chart.p0, chart.p0)))
    with pytest.raises(ValueError):
        ek.multi_synthesize([(small_sum, chart), (small_sum, anti)], 30)
    with pytest.raises(ValueError):
        ek.multi_synthesize([(small_sum, chart), (small_sum, chart)], 30)


def test_multi_ball_leakage(chart):
    rng = np.random.default_rng(42)
    sums = []
    for _ in range(2):
        coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
        coeffs *= 6.0 / np.abs(coeffs).sum()
        centers = rng.normal(size=(6, 3))
        centers *= (3.5 * rng.uniform(0.5, 1, 6) ** (1 / 3) / np.linalg.norm(centers, axis=1))[
            :, None
        ]
        sums.append(BesselSum(3, coeffs, centers, 3.5))
    # second base point a quarter turn away
    chart_b = ek.random_chart(3, 77, p0=chart.frame[0])
    assert float(ek.geodesic_dist(chart.p0, chart_b.p0)) == pytest.approx(0.5 * math.pi)
    pairs = [(sums[0], chart), (sums[1], chart_b)]
    k = 120
    combined = ek.multi_synthesize(pairs, k)
    reports = H.multi_localization_reports(pairs, combined, m=0, h=0.125)
    singles = [
        H.localization_error(H.localization_lattice(s, 0, h=0.125), ek.synthesize(s, k, c)) for s, c in pairs
    ]
    for rep, single in zip(reports, singles):
        assert rep.orders[0] <= 1.5 * single.orders[0]


def test_decay_profile_bounds():
    vals = [k * decay_profile(3, k, 0.5) for k in (50, 100, 200, 400)]
    assert max(vals) <= 3.0  # measured constant, comfortably bounded
    assert decay_profile(3, 100, 0.3) >= decay_profile(3, 100, 0.6)
    for k in (50, 100, 200):
        assert decay_profile(3, 2 * k, 0.5) / decay_profile(3, k, 0.5) <= 0.7


def test_decay_flat_for_n3():
    for rho in (0.3, 0.5, 0.6):
        vals = [k * decay_profile(3, k, rho) for k in (100, 200, 400)]
        assert (max(vals) - min(vals)) / max(vals) <= 0.2, rho


def test_decay_n4_decreasing():
    # for n=4 the sharp envelope is k^{-3/2}, so k * profile decreases;
    # only boundedness and monotonicity hold there (a flat-variation band
    # is specific to n=3, where C^3_k(cos t) = sin((k+1)t)/((k+1) sin t))
    vals = [k * decay_profile(4, k, 0.3) for k in (100, 200, 400)]
    assert vals[0] > vals[1] > vals[2]
    assert max(vals) <= 1.5


def test_localization_rate_at_high_energy():
    # the paper's "sufficiently high energies": the 1/k rate and the laplace
    # row hold at k = 2500 -> 10^4, and since the S^3 kernel's cost does not
    # grow with k, each degree stays under a second
    rng = np.random.default_rng(3)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    b = rng.normal(size=(3, 3))
    density = ek.HerglotzDensity.from_function(
        3, lambda xi: xi @ a + np.einsum("mi,ij,mj->m", xi, b, xi) + 1.0
    )
    phi = ek.herglotz_discretize(density, 1e-3)
    chart = ek.random_chart(3, 5)
    lattice = H.localization_lattice(phi, 0, h=0.125)
    sup0 = []
    for k in (2500, 5000, 10_000):
        start = time.perf_counter()
        Y = ek.synthesize(phi, k, chart)
        sup0.append(H.localization_error(lattice, Y).orders[0])
        lap = H.laplace_residual(Y, samples=16, h=0.04 / k)
        elapsed = time.perf_counter() - start
        assert lap <= 1e-3, (k, lap)
        assert elapsed < 1.0, (k, elapsed)
    for lo, hi in zip(sup0, sup0[1:]):
        assert 0.45 <= hi / lo <= 0.55, sup0
