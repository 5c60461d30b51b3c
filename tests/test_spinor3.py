"""Dirac operator on S^3: conventions, projection, residuals, flat checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigenknot as ek
from eigenknot import spinor3
from eigenknot.harmonics import UltrasphericalSum
from eigenknot.helmholtz import BesselSum, eval_bessel_sum, eval_bessel_sum_grad, FLAT_GAMMA
from eigenknot.spinor3 import (
    adapted_chart,
    CLIFFORD,
    GAMMA,
    SpinorField3,
    _pair_jets,
    component_harmonicity,
    component_jet,
    component_pullback,
    component_values,
    dirac_apply,
    dirac_project,
    dirac_residual,
    dirac_slash_apply,
    euclidean_dirac_check,
    frame_vectors,
    standard_clifford3,
    zonal_jet,
)


def rand_sum(seed, count=4, radius=2.0):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=count) + 1j * rng.normal(size=count)
    x = rng.normal(size=(count, 3))
    x *= (radius * rng.uniform(0, 1, count) ** (1 / 3) / np.linalg.norm(x, axis=1))[:, None]
    return BesselSum(3, c, x, radius)


def sphere_points(seed, count):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(count, 4))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def chart():
    return ek.random_chart(3, 1)


@pytest.fixture(scope="module")
def harmonic_pair(chart):
    k = 30
    y1 = ek.synthesize(rand_sum(30), k, chart)
    y2 = ek.synthesize(rand_sum(31), k, chart)
    return SpinorField3((y1, y2), k=k), k


def test_clifford_relations():
    rep = standard_clifford3()
    assert rep.orientation in (-1, 1)
    assert rep.anticommutator_defect() <= 1e-14
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        gu = sum(u[i] * GAMMA[i] for i in range(3))
        gv = sum(v[i] * GAMMA[i] for i in range(3))
        acom = gu @ gv + gv @ gu
        assert np.max(np.abs(acom + 2.0 * (u @ v) * np.eye(2))) <= 1e-12


def test_frame_orthonormal_tangent():
    p = sphere_points(1, 50)
    X = frame_vectors(p)
    for i in range(3):
        assert np.max(np.abs(np.einsum("ma,ma->m", X[:, i], p))) <= 1e-14
        for j in range(3):
            dots = np.einsum("ma,ma->m", X[:, i], X[:, j])
            assert np.max(np.abs(dots - (i == j))) <= 1e-14


def test_constant_spinor_eigenvalue():
    psi = SpinorField3((1.0 + 0.5j, -0.25j), k=0)
    assert dirac_residual(psi, 1.5, samples=32) <= 1e-10
    p = sphere_points(2, 16)
    dv = dirac_apply(psi, p)
    assert np.max(np.abs(dv - 1.5 * psi.values(p))) <= 1e-12


def test_zonal_jets_match_geodesic_differences(chart):
    Y = ek.synthesize(rand_sum(7), 9, chart)
    p = sphere_points(3, 12)
    jets = zonal_jet(Y, p, 2)
    X = frame_vectors(p)
    h = 1e-5
    for i in range(3):
        plus = p + h * X[:, i]
        plus /= np.linalg.norm(plus, axis=1, keepdims=True)
        minus = p - h * X[:, i]
        minus /= np.linalg.norm(minus, axis=1, keepdims=True)
        fd1 = (zonal_jet(Y, plus, 0)[0] - zonal_jet(Y, minus, 0)[0]) / (2 * h)
        assert np.max(np.abs(fd1 - jets[1][:, i])) <= 1e-6
        fd2 = (zonal_jet(Y, plus, 1)[1] - zonal_jet(Y, minus, 1)[1]) / (2 * h)
        assert np.max(np.abs(fd2 - jets[2][:, i, :])) <= 1e-5


# Levi-Civita symbol: [X_i, X_l] = 2 eps_ilr X_r for the left-invariant frame
EPS = np.zeros((3, 3, 3))
for _i, _j, _l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[_i, _j, _l], EPS[_j, _i, _l] = 1.0, -1.0


def jet_points(kind, k, chart, count=40):
    """Random sphere points, or points within 2/k of the chart base (among the centers)."""
    rng = np.random.default_rng(k)
    if kind == "spread":
        return sphere_points(k, count)
    return ek.sphere.chart_to_sphere(chart, rng.uniform(-2, 2, size=(count, 3)) / k)


@pytest.mark.parametrize("kind, tol", [("spread", 1e-13), ("localized", 1e-10)])
@pytest.mark.parametrize("k", [9, 60, 240])
def test_zonal_jet_structure_identities(chart, k, kind, tol):
    Y = ek.synthesize(rand_sum(k), k, chart)
    J = zonal_jet(Y, jet_points(kind, k, chart), 3)
    lam = k * (k + 2.0)
    defects = {
        "commutator J2": (J[2] - J[2].swapaxes(1, 2) - 2 * np.einsum("ilr,mr->mil", EPS, J[1]), J[2]),
        "outer commutator J3": (
            J[3] - J[3].swapaxes(1, 2) - 2 * np.einsum("ilr,mrj->milj", EPS, J[2]),
            J[3],
        ),
        "inner commutator J3": (
            J[3] - J[3].swapaxes(2, 3) - 2 * np.einsum("ilr,mjr->mjil", EPS, J[2]),
            J[3],
        ),
        "laplacian J2": (np.einsum("mll->m", J[2]) + lam * J[0], J[2]),
        "laplacian J3": (np.einsum("mill->mi", J[3]) + lam * J[1], J[3]),
    }
    for name, (defect, jet) in defects.items():
        assert np.max(np.abs(defect)) <= tol * np.max(np.abs(jet)), name


def mp_zonal_jets(Y, p):
    """Frame jets through order 2 at 40 digits: C = U_k / (k + 1) and its derivatives.

    d^d/dt^d C^{(1)}_k = 2^d d! C^{(1+d)}_{k-d}, so C' and C'' are
    Gegenbauer polynomials of parameters 2 and 3.  The frame derivatives
    act as X_i X_l C(p . q) = C'' (E_i p . q)(E_l p . q) + C' (E_l E_i p . q).
    """
    mpmath = pytest.importorskip("mpmath")
    out = [[], [], []]
    with mpmath.workdps(40):
        E = [mpmath.matrix(e.tolist()) for e in spinor3.FRAME_E]
        nu = mpmath.sqrt(2 / mpmath.pi)  # kernel_norm(3)
        for point in p:
            P = mpmath.matrix(point.tolist())
            J0, J1, J2 = mpmath.mpc(0), [mpmath.mpc(0)] * 3, [[mpmath.mpc(0)] * 3 for _ in range(3)]
            for c, center in zip(Y.coeffs.tolist(), Y.centers):
                q = mpmath.matrix(center.tolist()).T
                t = (q * P)[0]
                C0 = mpmath.chebyu(Y.k, t) / (Y.k + 1)
                C1 = 2 * mpmath.gegenbauer(Y.k - 1, 2, t) / (Y.k + 1)
                C2 = 8 * mpmath.gegenbauer(Y.k - 2, 3, t) / (Y.k + 1)
                u = [(q * E[i] * P)[0] for i in range(3)]
                J0 += c * C0
                for i in range(3):
                    J1[i] += c * C1 * u[i]
                    for l in range(3):
                        J2[i][l] += c * (C2 * u[i] * u[l] + C1 * (q * E[l] * E[i] * P)[0])
            out[0].append(complex(nu * J0))
            out[1].append([complex(nu * v) for v in J1])
            out[2].append([[complex(nu * v) for v in row] for row in J2])
    return [np.array(o) for o in out]


@pytest.mark.parametrize("k", [60, 240])
def test_zonal_jet_matches_high_precision_reference(chart, k):
    Y = ek.synthesize(rand_sum(k), k, chart)
    p = jet_points("localized", k, chart, count=6)
    for m, (jet, ref) in enumerate(zip(zonal_jet(Y, p, 2), mp_zonal_jets(Y, p))):
        assert np.max(np.abs(jet - ref)) <= 1e-11 * np.max(np.abs(ref)), m


def test_zonal_jet_refuses_order_four(chart):
    Y = ek.synthesize(rand_sum(7), 9, chart)
    with pytest.raises(ValueError, match="through order 3"):
        zonal_jet(Y, sphere_points(3, 2), 4)


def test_adapted_chart_refuses_zero_base():
    with pytest.raises(ValueError):
        adapted_chart(np.zeros(4))


def test_zonal_laplacian_identity(chart):
    k = 14
    Y = ek.synthesize(rand_sum(9), k, chart)
    assert component_harmonicity(Y, k, samples=24) <= 1e-11


def test_projection_eigen_residual(chart):
    for k in (10, 30):
        y1 = ek.synthesize(rand_sum(k), k, chart)
        y2 = ek.synthesize(rand_sum(k + 1), k, chart)
        psi = dirac_project(SpinorField3((y1, y2), k=k), k)
        assert dirac_residual(psi, 1.5 + k, samples=40) <= 1e-6
        assert dirac_residual(psi, 2.5 + k, samples=40) >= 0.5


def test_projection_idempotence(harmonic_pair):
    psit, k = harmonic_pair
    psi = dirac_project(psit, k)
    psi2 = dirac_project(psi, k)
    p = sphere_points(4, 40)
    v1 = psi.values(p)
    v2 = psi2.values(p)
    assert np.max(np.abs(v2 - v1)) <= 1e-9 * np.max(np.abs(v1))


def quadratic_projection_jets(psit, p, k):
    """Reference Dslash(Dslash + mu) psit / (2 mu^2), mu = k + 1, through first jets.

    Built from separate zonal_jet passes through third order, with the
    gamma_l gamma_i products written out.
    """
    jets = [zonal_jet(c, p, 3) for c in psit.components]
    J = [np.stack([jets[0][m], jets[1][m]], axis=-1) for m in range(4)]
    mu = k + 1.0
    out = []
    for m in range(2):
        acc = (k + 2.0) * J[m]
        for i in range(3):
            acc = acc + (k + 3.0) * (J[m + 1][..., i, :] @ GAMMA[i].T)
            for l in range(3):
                acc = acc + J[m + 2][..., l, i, :] @ (GAMMA[l] @ GAMMA[i]).T
        out.append(acc / (2.0 * mu * mu))
    return out


def harmonic_pair_at(k, chart, shared):
    s1 = rand_sum(100 + k)
    s2 = rand_sum(200 + k)
    if shared:  # same centers, other coefficients
        s2 = BesselSum(3, s2.coeffs, s1.centers, s1.radius)
    return SpinorField3((ek.synthesize(s1, k, chart), ek.synthesize(s2, k, chart)), k=k)


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("k", [10, 30, 120])
def test_linear_projector_matches_quadratic_form(chart, k, shared):
    psit = harmonic_pair_at(k, chart, shared)
    assert (len(np.unique(np.concatenate([c.centers for c in psit.components]), axis=0)) == 4) == shared
    p = sphere_points(20, 50)
    ref = quadratic_projection_jets(psit, p, k)
    psi = dirac_project(psit, k)
    for a in (0, 1):
        jets = component_jet(psi.components[a], p, 1)
        for m in (0, 1):
            scale = np.max(np.abs(ref[m][..., a]))
            assert np.max(np.abs(jets[m] - ref[m][..., a])) <= 1e-12 * scale


@pytest.mark.parametrize("shared", [True, False])
def test_pooled_pair_jets_match_separate_passes(chart, shared):
    psit = harmonic_pair_at(30, chart, shared)
    p = sphere_points(21, 40)
    pooled = _pair_jets(psit, p, 2)
    for a, comp in enumerate(psit.components):
        for m, ref in enumerate(zonal_jet(comp, p, 2)):
            assert pooled[m].shape == ref.shape + (2,)
            assert np.max(np.abs(pooled[m][..., a] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_projected_values_make_one_first_order_pass(monkeypatch):
    design = ek.hopf_link_design()
    chart = adapted_chart(np.array([0.3, -0.5, 0.7, 0.4]))
    k = 60
    ys = tuple(ek.synthesize(design.components[a], k, chart) for a in (0, 1))
    psi = dirac_project(SpinorField3(ys, k=k), k)
    orders = []
    inner = spinor3.zonal_jet

    def counting(Y, p, order):
        orders.append(order)
        return inner(Y, p, order)

    monkeypatch.setattr(spinor3, "zonal_jet", counting)
    component_values(psi.components[0], sphere_points(22, 30))
    assert orders == [1]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), k=st.integers(1, 80))
def test_projection_property(seed, k):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    centers = rng.normal(size=(2, 4, 4))
    centers /= np.linalg.norm(centers, axis=-1, keepdims=True)
    ys = tuple(UltrasphericalSum(3, k, coeffs[a], centers[a]) for a in (0, 1))
    psi = dirac_project(SpinorField3(ys, k=k), k)
    assert dirac_residual(psi, k + 1.5) <= 1e-9
    p = sphere_points(seed + 1, 32)
    v1 = psi.values(p)
    v2 = dirac_project(psi, k).values(p)
    assert np.max(np.abs(v2 - v1)) <= 1e-9 * np.max(np.abs(v1))


def test_projection_fixes_eigenfields():
    psi = SpinorField3((0.3 - 1.0j, 0.8), k=0)
    out = dirac_project(psi, 0)
    p = sphere_points(5, 16)
    assert np.max(np.abs(out.values(p) - psi.values(p))) <= 1e-12


def test_projection_rejects_non_harmonic(chart):
    y1 = ek.synthesize(rand_sum(12), 8, chart)
    y2 = ek.synthesize(rand_sum(13), 9, chart)  # wrong degree for k=8
    with pytest.raises(ValueError):
        dirac_project(SpinorField3((y1, y2), k=8), 8)


def test_weitzenboeck_two_pass(harmonic_pair):
    # analytic first application, finite-difference second application
    psit, k = harmonic_pair
    inner = lambda P: dirac_slash_apply(psit, P)
    outer = SpinorField3((lambda P: inner(P)[:, 0], lambda P: inner(P)[:, 1]), k=k)
    p = sphere_points(6, 24)
    ds2 = dirac_slash_apply(outer, p)
    expected = (k * (k + 2.0) + 1.0) * psit.values(p)
    scale = np.max(np.abs(psit.values(p)))
    assert np.max(np.abs(ds2 - expected)) <= 1e-6 * scale


def test_projected_component_harmonicity(harmonic_pair):
    psit, k = harmonic_pair
    psi = dirac_project(psit, k)
    for comp in psi.components:
        assert component_harmonicity(comp, k, samples=16) <= 1e-9
    # chart finite-difference Laplacian converges at O(h^2)
    p = sphere_points(7, 6)
    def fd_lap(h):
        worst = 0.0
        for i in range(len(p)):
            c = ek.random_chart(3, 500 + i, p0=p[i])
            offsets = np.concatenate([h * np.eye(3), -h * np.eye(3)])
            pts = ek.chart_to_sphere(c, offsets)
            vals = component_values(psi.components[0], pts)
            center = component_values(psi.components[0], p[i : i + 1])[0]
            lap = -(vals.sum() - 6.0 * center) / (h * h)
            worst = max(worst, abs(lap - k * (k + 2.0) * center))
        return worst
    r1, r2 = fd_lap(2e-3), fd_lap(1e-3)
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_localization_of_projected_components():
    # || phi_a - psi_a o Psi^{-1}(./k) ||_{C^0(B)} <= C delta + C/k for a
    # Dirac-eigen Euclidean pair, in the frame-adapted gauge.  (Generic
    # charts add a constant frame rotation; non-eigen pairs do not converge
    # at all -- the projection moves them to the eigenspace first.)
    design = ek.hopf_link_design()
    phis = [design.components[0], design.components[1]]
    rng0 = np.random.default_rng(5)
    p0 = rng0.normal(size=4)
    chart = adapted_chart(p0)
    sups = []
    for k in (40, 80):
        ys = [ek.synthesize(s, k, chart) for s in phis]
        psi = dirac_project(SpinorField3(tuple(ys), k=k), k)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(300, 3))
        x *= (rng.uniform(0, 1, 300) ** (1 / 3) / np.linalg.norm(x, axis=1))[:, None]
        worst = 0.0
        for a in (0, 1):
            pull = component_pullback(psi, a, chart, k)(x)
            worst = max(worst, float(np.max(np.abs(pull - eval_bessel_sum(phis[a], x)))))
        sups.append(worst)
    assert sups[1] <= 0.65 * sups[0]  # O(1/k) envelope


def test_euclidean_dirac_check_plane_wave():
    xi = np.array([1.0, 2.0, 2.0]) / 3.0
    gam_xi = sum(xi[i] * FLAT_GAMMA[i] for i in range(3))
    proj = 0.5 * (np.eye(2) + 1j * gam_xi)
    w = proj @ np.array([1.0, 0.5 - 0.25j])

    def make(a):
        return lambda x: w[a] * np.exp(1j * (np.atleast_2d(x) @ xi))

    box = ([-0.4, -0.4, -0.4], [0.4, 0.4, 0.4])
    r1, helm1 = euclidean_dirac_check((make(0), make(1)), box, 0.02)
    r2, _ = euclidean_dirac_check((make(0), make(1)), box, 0.01)
    assert r1 <= 1e-3
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)
    assert max(helm1) <= 1e-3


def test_euclidean_dirac_check_flags_mismatch():
    xi = np.array([1.0, 0.0, 0.0])
    pair = (
        lambda x: np.exp(1j * (np.atleast_2d(x) @ xi)),
        lambda x: np.zeros(len(np.atleast_2d(x)), dtype=complex),
    )
    box = ([-0.4, -0.4, -0.4], [0.4, 0.4, 0.4])
    resid, helm = euclidean_dirac_check(pair, box, 0.02)
    assert resid >= 0.5  # components Helmholtz but not a Dirac eigenfield
    assert max(helm) <= 1e-3


def test_euclidean_dirac_check_zero_field():
    pair = (
        lambda x: np.zeros(len(np.atleast_2d(x)), dtype=complex),
        lambda x: np.zeros(len(np.atleast_2d(x)), dtype=complex),
    )
    resid, helm = euclidean_dirac_check(pair, ([-0.3] * 3, [0.3] * 3), 0.05)
    assert resid == 0.0 and max(helm) == 0.0
