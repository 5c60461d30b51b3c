"""Dirac operator on S^3: conventions, projection, residuals, flat checks.

spinor3 evaluates a spinor through its per-center tables alone; the frame
jets of frame_jets.py are the independent oracle they are checked against.
"""

import math
import re

import mpmath
import numpy as np
import pytest
from frame_jets import dirac_apply as frame_dirac_apply, dirac_slash_apply, frame_jet, harmonicity, spinor_jets
from hypothesis import given, settings, strategies as st

import eigenknot as ek
from eigenknot import spinor3
from eigenknot.harmonics import UltrasphericalSum
from eigenknot.helmholtz import BesselSum, eval_bessel_sum, FLAT_GAMMA
from eigenknot.spinor3 import (
    adapted_chart,
    GAMMA,
    SpinorField3,
    ZonalTables,
    component_pullback,
    dirac_apply,
    dirac_project,
    dirac_residual,
    euclidean_dirac_check,
    frame_vectors,
    zonal_jet,
    zonal_tables,
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
    return SpinorField3((y1, y2)), k


def test_clifford_relations():
    for i in range(3):
        j, l = (i + 1) % 3, (i + 2) % 3
        assert np.max(np.abs(GAMMA[j] @ GAMMA[l] + GAMMA[i])) <= 1e-15  # gamma_2 gamma_3 = -gamma_1
        for j in range(3):
            acom = GAMMA[i] @ GAMMA[j] + GAMMA[j] @ GAMMA[i]
            assert np.max(np.abs(acom + 2.0 * (i == j) * np.eye(2))) <= 1e-15
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
    psi = SpinorField3((1.0 + 0.5j, -0.25j))
    assert dirac_residual(psi, 1.5, samples=32) <= 1e-10
    p = sphere_points(2, 16)
    dv = dirac_apply(psi, p)
    assert np.max(np.abs(dv - 1.5 * psi.values(p))) <= 1e-12


def test_zonal_jets_match_geodesic_differences(chart):
    Y = ek.synthesize(rand_sum(7), 9, chart)
    p = sphere_points(3, 12)
    jets = frame_jet(Y, p, 2)
    X = frame_vectors(p)
    h = 1e-5
    for i in range(3):
        plus = p + h * X[:, i]
        plus /= np.linalg.norm(plus, axis=1, keepdims=True)
        minus = p - h * X[:, i]
        minus /= np.linalg.norm(minus, axis=1, keepdims=True)
        fd1 = (frame_jet(Y, plus, 0)[0] - frame_jet(Y, minus, 0)[0]) / (2 * h)
        assert np.max(np.abs(fd1 - jets[1][:, i])) <= 1e-6
        fd2 = (frame_jet(Y, plus, 1)[1] - frame_jet(Y, minus, 1)[1]) / (2 * h)
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
    J = frame_jet(Y, jet_points(kind, k, chart), 3)
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
    """Frame jets through order 2 and the ambient gradient at 40 digits:
    C = U_k / (k + 1) and its derivatives.

    d^d/dt^d C^{(1)}_k = 2^d d! C^{(1+d)}_{k-d}, so C' and C'' are
    Gegenbauer polynomials of parameters 2 and 3.  The frame derivatives
    act as X_i X_l C(p . q) = C'' (E_i p . q)(E_l p . q) + C' (E_l E_i p . q),
    and the ambient gradient of x -> C(x . q) is C' q.
    """
    out = [[], [], [], []]
    with mpmath.workdps(40):
        E = [mpmath.matrix(e.tolist()) for e in spinor3.FRAME_E]
        nu = mpmath.sqrt(2 / mpmath.pi)  # kernel_norm(3)
        for point in p:
            P = mpmath.matrix(point.tolist())
            J0, J1, J2 = mpmath.mpc(0), [mpmath.mpc(0)] * 3, [[mpmath.mpc(0)] * 3 for _ in range(3)]
            G1 = [mpmath.mpc(0)] * 4
            for c, center in zip(Y.coeffs.tolist(), Y.centers):
                q = mpmath.matrix(center.tolist()).T
                t = (q * P)[0]
                C0 = mpmath.chebyu(Y.k, t) / (Y.k + 1)
                C1 = 2 * mpmath.gegenbauer(Y.k - 1, 2, t) / (Y.k + 1)
                C2 = 8 * mpmath.gegenbauer(Y.k - 2, 3, t) / (Y.k + 1)
                u = [(q * E[i] * P)[0] for i in range(3)]
                J0 += c * C0
                G1 = [g + c * C1 * q[0, a] for a, g in enumerate(G1)]
                for i in range(3):
                    J1[i] += c * C1 * u[i]
                    for l in range(3):
                        J2[i][l] += c * (C2 * u[i] * u[l] + C1 * (q * E[l] * E[i] * P)[0])
            out[0].append(complex(nu * J0))
            out[1].append([complex(nu * v) for v in J1])
            out[2].append([[complex(nu * v) for v in row] for row in J2])
            out[3].append([complex(nu * v) for v in G1])
    return [np.array(o) for o in out]


@pytest.mark.parametrize("k", [60, 240])
def test_zonal_jet_matches_high_precision_reference(chart, k):
    # the tables' values and ambient gradients, and the oracle's frame jets
    Y = ek.synthesize(rand_sum(k), k, chart)
    p = jet_points("localized", k, chart, count=6)
    ref = mp_zonal_jets(Y, p)
    value, grad = zonal_jet(zonal_tables(SpinorField3((Y, Y)), 0), p, 1)
    for name, have, want in [("value", value, ref[0]), ("gradient", grad, ref[3])] + [
        (f"frame jet {m}", jet, ref[m]) for m, jet in enumerate(frame_jet(Y, p, 2))
    ]:
        assert np.max(np.abs(have - want)) <= 1e-11 * np.max(np.abs(want)), name


def test_zonal_jet_refuses_order_four(chart):
    tables = zonal_tables(SpinorField3((ek.synthesize(rand_sum(7), 9, chart),) * 2))
    for order in (2, 4):
        with pytest.raises(ValueError, match=f"not order {order}"):
            zonal_jet(tables, sphere_points(3, 2), order)


def test_adapted_chart_refuses_zero_base():
    with pytest.raises(ValueError):
        adapted_chart(np.zeros(4))


def test_zonal_laplacian_identity(chart):
    k = 14
    Y = ek.synthesize(rand_sum(9), k, chart)
    assert max(harmonicity(SpinorField3((Y, Y)), k, samples=24)) <= 1e-11


def test_projection_eigen_residual(chart):
    for k in (10, 30):
        y1 = ek.synthesize(rand_sum(k), k, chart)
        y2 = ek.synthesize(rand_sum(k + 1), k, chart)
        psi = dirac_project(SpinorField3((y1, y2)), k)
        assert dirac_residual(psi, 1.5 + k, samples=40) <= 1e-6
        assert dirac_residual(psi, 2.5 + k, samples=40) >= 0.5


@pytest.mark.parametrize("k, bound", [(10, 1e-10), (30, 1e-10), (240, 1e-10), (1000, 1e-9)])
def test_hopf_dirac_residual_over_seeded_bases(k, bound):
    # the projected Hopf eigenfield in twelve adapted charts; samples that land
    # near the antipode of the centers need the kernel's antipodal chord, since
    # |p - p_j| ~ 2 alone fixes 1 + t too coarsely (one base then reads 4e-10
    # at k = 240)
    design = ek.hopf_link_design()
    bases = np.random.default_rng(2024).normal(size=(12, 4))
    worst = 0.0
    for base in bases:
        chart = adapted_chart(base)
        pair = tuple(ek.synthesize(design.components[a], k, chart) for a in (0, 1))
        psi = dirac_project(SpinorField3(pair), k)
        worst = max(worst, dirac_residual(psi, 1.5 + k))
    assert worst <= bound, worst


def test_projection_idempotence(harmonic_pair):
    psit, k = harmonic_pair
    psi = dirac_project(psit, k)
    psi2 = dirac_project(psi, k)
    assert psi2 is psi  # the projector is the identity on its image
    p = sphere_points(4, 40)
    v1 = psi.values(p)
    v2 = psi2.values(p)
    assert np.max(np.abs(v2 - v1)) <= 1e-9 * np.max(np.abs(v1))


def quadratic_projection_jets(psit, p, k):
    """Reference Dslash(Dslash + mu) psit / (2 mu^2), mu = k + 1, through first jets.

    Built from the oracle's separate frame-jet passes through third order,
    with the gamma_l gamma_i products written out.
    """
    jets = [frame_jet(c, p, 3) for c in psit.components]
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
    return SpinorField3((ek.synthesize(s1, k, chart), ek.synthesize(s2, k, chart)))


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("k", [10, 30, 120])
def test_linear_projector_matches_quadratic_form(chart, k, shared):
    psit = harmonic_pair_at(k, chart, shared)
    assert (len(np.unique(np.concatenate([c.centers for c in psit.components]), axis=0)) == 4) == shared
    p = sphere_points(20, 50)
    ref = quadratic_projection_jets(psit, p, k)
    psi = dirac_project(psit, k)
    value, grad = zonal_jet(zonal_tables(psi), p, 1)
    jets = [value, np.einsum("mia,mab->mib", frame_vectors(p), grad)]  # X_i psi = grad psi . E_i p
    for a in (0, 1):
        for m in (0, 1):
            scale = np.max(np.abs(ref[m][..., a]))
            assert np.max(np.abs(jets[m][..., a] - ref[m][..., a])) <= 1e-12 * scale


@pytest.mark.parametrize("shared", [True, False])
def test_pooled_pair_jets_match_separate_passes(chart, shared):
    # values and gradients of both components from one pass over the pooled
    # centers, against one pass per component
    psit = harmonic_pair_at(30, chart, shared)
    p = sphere_points(21, 40)
    pooled = zonal_jet(zonal_tables(psit), p, 1)
    for a, comp in enumerate(psit.components):
        separate = zonal_tables(SpinorField3((comp, comp)), 0)
        assert len(separate) == len(comp)
        for m, ref in enumerate(zonal_jet(separate, p, 1)):
            assert pooled[m].shape == ref.shape + (2,)
            assert np.max(np.abs(pooled[m][..., a] - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("projected", [False, True])
def test_one_component_tables_are_a_column_of_both(chart, projected):
    # the tables of component `index` alone carry the bits of column `index`
    # of the tables of both components
    psit = harmonic_pair_at(30, chart, False)
    psi = dirac_project(psit, 30) if projected else psit
    both = zonal_tables(psi)
    assert both.cols == (2,)
    for index in (0, 1):
        one = zonal_tables(psi, index)
        assert one.cols == () and np.array_equal(one.centers, both.centers)
        for table, pair in zip(one.tables, both.tables):
            if table is None:
                assert pair is None and not projected
                continue
            column = pair.view(complex).reshape(len(both), -1, 2)[..., index]
            assert np.ascontiguousarray(column).view(float).tobytes() == table.tobytes()


def hopf_pair_at_base(k=60):
    """The Hopf design's pair at degree k in the adapted chart at (0.3, -0.5, 0.7, 0.4)."""
    design = ek.hopf_link_design()
    chart = adapted_chart(np.array([0.3, -0.5, 0.7, 0.4]))
    return SpinorField3(tuple(ek.synthesize(design.components[a], k, chart) for a in (0, 1)))


def spy_zonal_jet(monkeypatch):
    calls = []
    inner = spinor3.zonal_jet
    monkeypatch.setattr(
        spinor3, "zonal_jet", lambda tables, p, order=0: calls.append((order, len(tables), tables.cols)) or inner(tables, p, order)
    )
    return calls


def pooled_centers(pair):
    return len(np.unique(np.concatenate([c.centers for c in pair.components]), axis=0))


@pytest.mark.parametrize("index", [None, 0, 1])
def test_harmonic_pair_skips_the_zero_beta_terms(monkeypatch, chart, index):
    # an unprojected pair has beta = 0: its tables hold no beta, zonal_jet asks
    # the kernel for one order fewer, and the values and gradients equal those
    # of the same tables with explicit zero beta terms
    psit = harmonic_pair_at(30, chart, False)
    tables = zonal_tables(psit, index)
    assert tables.tables[1] is None and tables.tables[3] is None
    width = 2 * math.prod(tables.cols)
    zero_beta = ZonalTables(
        tables.centers,
        tables.k,
        tables.cols,
        (tables.tables[0], np.zeros((len(tables), 4 * width)), tables.tables[2], np.zeros((len(tables), 16 * width))),
    )
    orders = []
    inner = spinor3.gegenbauer3_zonal
    monkeypatch.setattr(
        spinor3, "gegenbauer3_zonal", lambda k, p, centers, order: orders.append(order) or inner(k, p, centers, order)
    )
    p = sphere_points(23, 40)
    for order in (0, 1):
        orders.clear()
        got, ref = zonal_jet(tables, p, order), zonal_jet(zero_beta, p, order)
        assert orders == [order, order + 1]
        for g, r in zip(got, ref) if order else [(got, ref)]:
            assert g.shape == r.shape and np.array_equal(g, r)
    orders.clear()
    zonal_jet(zonal_tables(dirac_project(psit, 30), index), p)
    assert orders == [1]


def test_projected_values_make_one_first_order_pass(monkeypatch):
    # the projection's first-order terms (x.beta) C'(x.p_j) live in the tables,
    # so both components' values come from one order-0 pass over the pooled centers
    pair = hopf_pair_at_base()
    psi = dirac_project(pair, 60)
    calls = spy_zonal_jet(monkeypatch)
    psi.values(sphere_points(22, 30))
    assert calls == [(0, pooled_centers(pair), (2,))]


def test_projected_pair_shares_one_jet_pass(monkeypatch):
    # the degree check evaluates nothing; the residual reads both components
    # of the projected field, values and gradients, from one pass over the
    # pooled centers
    pair = hopf_pair_at_base()
    calls = spy_zonal_jet(monkeypatch)
    psi = dirac_project(pair, 60)
    assert calls == []
    assert dirac_residual(psi, 61.5) <= 1e-10
    assert calls == [(1, pooled_centers(pair), (2,))]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), k=st.integers(0, 80), projected=st.booleans())
def test_dirac_apply_matches_frame_jets(seed, k, projected):
    # degree 0 is a pair of constants, which SpinorField3 keeps as degree-0 sums
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    if k == 0:
        psi = SpinorField3(tuple(complex(c[0]) for c in coeffs))
    else:
        centers = rng.normal(size=(2, 4, 4))
        centers /= np.linalg.norm(centers, axis=-1, keepdims=True)
        psi = SpinorField3(tuple(UltrasphericalSum(3, k, coeffs[a], centers[a]) for a in (0, 1)))
    if projected:
        psi = dirac_project(psi, k)
    p = sphere_points(seed + 2, 24)
    want = frame_dirac_apply(psi, p)
    assert np.max(np.abs(dirac_apply(psi, p) - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), k=st.integers(1, 80))
def test_projection_property(seed, k):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    centers = rng.normal(size=(2, 4, 4))
    centers /= np.linalg.norm(centers, axis=-1, keepdims=True)
    ys = tuple(UltrasphericalSum(3, k, coeffs[a], centers[a]) for a in (0, 1))
    psi = dirac_project(SpinorField3(ys), k)
    assert dirac_residual(psi, k + 1.5) <= 1e-9
    p = sphere_points(seed + 1, 32)
    v1 = psi.values(p)
    v2 = dirac_project(psi, k).values(p)
    assert np.max(np.abs(v2 - v1)) <= 1e-9 * np.max(np.abs(v1))


def test_projection_fixes_eigenfields():
    psi = SpinorField3((0.3 - 1.0j, 0.8))
    out = dirac_project(psi, 0)
    p = sphere_points(5, 16)
    assert np.max(np.abs(out.values(p) - psi.values(p))) <= 1e-12


def test_projection_rejects_non_harmonic(chart):
    y1 = ek.synthesize(rand_sum(12), 8, chart)
    y2 = ek.synthesize(rand_sum(13), 9, chart)  # wrong degree for k=8
    with pytest.raises(ValueError):
        dirac_project(SpinorField3((y1, y2)), 8)


def test_projection_names_the_failing_component(chart):
    # the degree check reads each component's type, sphere and degree
    y = ek.synthesize(rand_sum(12), 8, chart)
    on_s4 = UltrasphericalSum(4, 8, [1.0], [[1.0, 0.0, 0.0, 0.0, 0.0]])
    for pair, message in [
        ((y, lambda p: np.ones(len(p))), "component 2 is not a degree-8 spherical harmonic on S^3: it is a function"),
        ((0.5, y), "component 1 is not a degree-8 spherical harmonic on S^3: it is of degree 0"),
        ((y, on_s4), "component 2 is not a degree-8 spherical harmonic on S^3: it is a harmonic on S^4"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            dirac_project(SpinorField3(pair), 8)
    with pytest.raises(ValueError, match="degree-8 Dirac eigenfield has no degree-9 projection"):
        dirac_project(dirac_project(SpinorField3((y, y)), 8), 9)


def _hopf_pair(k, degrees=(0, 0)):
    """The Hopf design's pair synthesized at degrees k + degrees[a] through
    the adapted chart of a seeded base point."""
    design = ek.hopf_link_design()
    chart = adapted_chart(np.random.default_rng(0).normal(size=4))
    return SpinorField3(tuple(ek.synthesize(design.components[a], k + degrees[a], chart) for a in (0, 1)))


@pytest.mark.parametrize("k", [1000, 2000, 30000])
def test_projection_accepts_high_degree_hopf_pair(k):
    # the residual is taken relative to k(k+2) max |psi|: relative to max |psi|
    # alone its rounding read 3.1e-6 at k = 1000 and 1.2e-4 at k = 2000
    pair = _hopf_pair(k)
    assert max(harmonicity(pair, k)) <= 1e-7  # the oracle's Laplace residual
    assert dirac_project(pair, k).k == k


def test_projection_rejects_next_degree_at_high_k():
    # a degree-(k+1) component misses k(k+2) by 2k + 3: about 2/k = 6.7e-5
    # relative in the oracle's Laplace residual; the degree check reads the degree
    k = 30000
    resid = harmonicity(_hopf_pair(k, (0, 1)), k)[1]
    assert resid == pytest.approx(2.0 / k, rel=0.01)
    with pytest.raises(ValueError, match="component 2 is not a degree-30000 .* of degree 30001"):
        dirac_project(_hopf_pair(k, (0, 1)), k)


def test_weitzenboeck_two_pass(harmonic_pair):
    # the oracle's analytic first application, finite-difference second application
    psit, k = harmonic_pair
    inner = lambda P: dirac_slash_apply(psit, P)
    outer = (lambda P: inner(P)[:, 0], lambda P: inner(P)[:, 1])
    p = sphere_points(6, 24)
    ds2 = dirac_slash_apply(outer, p)
    expected = (k * (k + 2.0) + 1.0) * psit.values(p)
    scale = np.max(np.abs(psit.values(p)))
    assert np.max(np.abs(ds2 - expected)) <= 1e-6 * scale


def test_projected_component_harmonicity(harmonic_pair):
    psit, k = harmonic_pair
    psi = dirac_project(psit, k)
    assert max(harmonicity(psi, k, samples=16)) <= 1e-9
    # chart finite-difference Laplacian converges at O(h^2)
    p = sphere_points(7, 6)
    def fd_lap(h):
        worst = 0.0
        for i in range(len(p)):
            c = ek.random_chart(3, 500 + i, p0=p[i])
            offsets = np.concatenate([h * np.eye(3), -h * np.eye(3)])
            pts = ek.chart_to_sphere(c, offsets)
            vals = psi.values(pts)[:, 0]
            center = psi.values(p[i : i + 1])[0, 0]
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
        psi = dirac_project(SpinorField3(tuple(ys)), k)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(300, 3))
        x *= (rng.uniform(0, 1, 300) ** (1 / 3) / np.linalg.norm(x, axis=1))[:, None]
        worst = 0.0
        for a in (0, 1):
            pull = component_pullback(psi, a, chart, k)(x)
            worst = max(worst, float(np.max(np.abs(pull - eval_bessel_sum(phis[a], x)))))
        sups.append(worst)
    assert sups[1] <= 0.65 * sups[0]  # O(1/k) envelope


def _frame_jet_pullback(psi, index, chart, k):
    """Reference pullback jet through the oracle's frame jets: the value and the chart gradient
    (1/k) (d exp_y)^T of the ambient gradient sum_i (X_i psi) E_i p."""

    def jet(x):
        y = x / k
        p = ek.sphere.chart_to_sphere(chart, y)
        value, frame_grad = (arr[..., index] for arr in spinor_jets(psi, p, 1))
        ambient = np.einsum("mi,mia->ma", frame_grad, frame_vectors(p))
        return value, ek.sphere.chart_gradient(chart, y, ambient) / k

    return jet


@pytest.mark.parametrize("k", [60, 240, 1000])
@pytest.mark.parametrize("projected", [False, True])
def test_table_pullback_matches_frame_jets(k, projected):
    """The per-center tables reproduce the frame-jet pullback of both components:
    values within 1e-12 and chart gradients within 1e-10 of their largest
    modulus, on a grid of each nodal box and at points off it.  The reference
    sums C'' p_j (x) p_j terms about k^2 times larger than the gradient, so
    at k = 1000 the two agree to 1.8e-11 here and to 1e-11 to 1.2e-10 at other
    adapted charts, where a 40-digit reference puts both about 1e-10 from the
    truth; values agree to 2e-13."""
    design = ek.hopf_link_design()
    psi = _hopf_pair(k)
    chart = psi.components[0].chart
    if projected:
        psi = dirac_project(psi, k)
    rng = np.random.default_rng(k + 1)
    for a in (0, 1):
        lo, hi = design.boxes[a]
        grid = np.stack(np.meshgrid(*(np.linspace(lo[d], hi[d], 9) for d in range(3)), indexing="ij"), axis=-1)
        x = np.vstack([grid.reshape(-1, 3), rng.uniform(lo, hi, (200, 3))])
        field = component_pullback(psi, a, chart, k)
        value, grad = field.jet(x)
        want_value, want_grad = _frame_jet_pullback(psi, a, chart, k)(x)
        assert np.array_equal(field(x), value)
        assert np.max(np.abs(value - want_value)) <= 1e-12 * np.max(np.abs(want_value))
        assert np.max(np.abs(grad - want_grad)) <= 1e-10 * np.max(np.abs(want_grad))


def test_pullback_refuses_other_spinors(chart):
    k = 60
    y1, y2 = _hopf_pair(k).components
    for psi in (
        SpinorField3((y1, 0.5)),
        SpinorField3((lambda p: np.ones(len(p)), y2)),
        _hopf_pair(k, (0, 1)),
    ):
        with pytest.raises(TypeError, match="harmonic pair of one degree"):
            component_pullback(psi, 0, chart, k)


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
