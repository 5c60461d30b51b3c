"""Analytic field jets and the closed-form 2x3 algebra of nodal polish and margins."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenknot import cli, harmonics, helmholtz, nodal, spinor3
from eigenknot.helmholtz import BesselSum, bessel_sum_field, eval_bessel_sum, hopf_link_design

DESIGN = hopf_link_design()


def richardson_jacobians(fn, x, step):
    """(M, 2, 3) Jacobians of (Re f, Im f) from field values only: central
    differences at `step` and `step / 2`, Richardson-extrapolated."""

    def central(h):
        d = np.stack([(fn(x + e) - fn(x - e)) / (2 * h) for e in h * np.eye(3)], axis=-1)
        return np.stack([d.real, d.imag], axis=1)

    coarse, fine = central(step), central(step / 2)
    return fine + (fine - coarse) / 3


def jet_jacobians(field, x):
    value, grad = field.jet(x)
    assert np.array_equal(value, field(x))
    return np.stack([grad.real, grad.imag], axis=1)


def wrapped(fn):
    """A pass-through wrapper made the way call tracers make them."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


def _harmonic_pair(chart, k):
    comps = tuple(harmonics.synthesize(DESIGN.components[a], k, chart) for a in (0, 1))
    return spinor3.SpinorField3(comps, k=k)


def hopf_pullback(seed, k, index):
    """Pullback of a projected Hopf component through a seeded adapted chart."""
    chart = spinor3.adapted_chart(np.random.default_rng(seed).normal(size=4))
    psi = spinor3.dirac_project(_harmonic_pair(chart, k), k)
    return spinor3.component_pullback(psi, index, chart, k)


# Richardson steps 1e-2 / 5e-3 keep the extrapolation error near 1e-11 of
# max |J| while the rounding noise of the pullback values, which grows with k,
# stays below 1e-10 at k = 1000.
JET_RTOL = 1e-9
RICHARDSON_STEP = 1e-2


def _dyadic(a):
    return np.round(a * 2.0**20) / 2.0**20


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 40), far=st.booleans())
def test_bessel_sum_jet_matches_richardson(seed, count, far):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=count) + 1j * rng.normal(size=count)
    centers = rng.uniform(-1.5, 1.5, (count, 3))
    near = centers[rng.integers(count, size=10)] + rng.uniform(-0.28, 0.28, (10, 3))  # r < 1/2: the series
    x = np.vstack([rng.uniform(-2.5, 2.5, (30, 3)), near, centers[:1]])
    step, radius = RICHARDSON_STEP, 3.0
    if far:
        # the same geometry 2^26 from the origin: on a 2^-20 lattice with a
        # dyadic step every coordinate and every x +- step is exact, so the
        # reference keeps its accuracy and only the jet's rounding can grow
        offset, step = 2.0**26, 2.0**-7
        centers, x, radius = _dyadic(centers) + offset, _dyadic(x) + offset, 2.0 * offset
    s = BesselSum(3, coeffs, centers, radius)
    jac = jet_jacobians(bessel_sum_field(s), x)
    ref = richardson_jacobians(lambda y: eval_bessel_sum(s, y), x, step)
    assert np.max(np.abs(jac - ref)) <= JET_RTOL * np.max(np.abs(jac))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([60, 240, 1000]), index=st.sampled_from([0, 1]))
def test_spinor_pullback_jet_matches_richardson(seed, k, index):
    field = hopf_pullback(seed, k, index)
    x = np.random.default_rng(seed).uniform(-4.0, 4.0, (30, 3))
    jac = jet_jacobians(field, x)
    ref = richardson_jacobians(field, x, RICHARDSON_STEP)
    assert np.max(np.abs(jac - ref)) <= JET_RTOL * np.max(np.abs(jac))


def test_pullback_jet_at_chart_origin():
    # r = 0 is the removable point of the exponential map's differential
    field = hopf_pullback(3, 60, 0)
    x = np.array([[0.0, 0.0, 0.0], [1e-12, 0.0, 0.0]])
    jac = jet_jacobians(field, x)
    assert np.max(np.abs(jac[0] - jac[1])) <= 1e-9 * np.max(np.abs(jac))
    ref = richardson_jacobians(field, x, RICHARDSON_STEP)
    assert np.max(np.abs(jac - ref)) <= JET_RTOL * np.max(np.abs(jac))


# ---------------------------------------------------------------------------
# Closed-form least-norm step and smallest singular value
# ---------------------------------------------------------------------------


def _rows(kind, rng, count=300):
    a = rng.normal(size=(count, 3)) * rng.uniform(1e-3, 1e3, (count, 1))
    if kind == "random":
        b = rng.normal(size=(count, 3)) * rng.uniform(1e-3, 1e3, (count, 1))
    elif kind == "near_rank_1":
        # sigma_min / sigma_max between 1e-7 and 1e-3, above pinv's 1e-8 cut-off
        noise = 10.0 ** rng.uniform(-7, -3, (count, 1)) * np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.normal(size=(count, 1)) * a + noise * rng.normal(size=(count, 3))
    elif kind == "below_cutoff":
        noise = 1e-11 * np.linalg.norm(a, axis=1, keepdims=True) * rng.normal(size=(count, 3))
        b = rng.normal(size=(count, 1)) * a + noise
    else:  # exactly rank 1, including a zero row and a zero Jacobian
        b = rng.normal(size=(count, 1)) * a
        b[0] = 0.0
        a[1] = b[1] = 0.0
    return np.stack([a, b], axis=1)


@pytest.mark.parametrize("kind", ["random", "near_rank_1", "below_cutoff", "rank_1"])
def test_closed_form_matches_pinv_and_svd(kind):
    rng = np.random.default_rng(["random", "near_rank_1", "below_cutoff", "rank_1"].index(kind))
    jac = _rows(kind, rng)
    vals = rng.normal(size=len(jac)) + 1j * rng.normal(size=len(jac))
    rhs = np.stack([vals.real, vals.imag], axis=-1)
    want = (np.linalg.pinv(jac, rcond=1e-8) @ rhs[:, :, None])[:, :, 0]
    got = nodal._least_norm_steps(jac, vals)
    sing = np.linalg.svd(jac, compute_uv=False)
    # both forms lose about eps * sigma_max / sigma_min of the step
    cond = np.where(sing[:, 1] > 1e-8 * sing[:, 0], sing[:, 0] / np.maximum(sing[:, 1], 1e-300), 1.0)
    err = np.linalg.norm(got - want, axis=1)
    assert np.all(err <= 1e-12 * cond * np.maximum(np.linalg.norm(want, axis=1), 1e-300))
    # the smallest singular value to round-off of the largest
    margins = nodal._smallest_singular_values(jac)
    assert np.all(np.abs(margins - sing[:, 1]) <= 1e-14 * sing[:, 0])
    if kind == "rank_1":
        assert margins[1] == 0.0 and not got[1].any()


# ---------------------------------------------------------------------------
# Jet fields through extraction, polish and margins
# ---------------------------------------------------------------------------


def _fields():
    chart = spinor3.adapted_chart([0.3, -0.5, 0.7, 0.4])
    psi = spinor3.dirac_project(_harmonic_pair(chart, 60), 60)
    return {
        "bessel_sum": (bessel_sum_field(DESIGN.components[0]), DESIGN.boxes[0]),
        "spinor": (spinor3.component_pullback(psi, 1, chart, 60), DESIGN.boxes[1]),
    }


FIELDS = _fields()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_wrapped_field_extracts_identical_vertices(name):
    field, box = FIELDS[name]
    direct = nodal.extract_nodal(field, box, 0.22)
    traced = nodal.extract_nodal(wrapped(field), box, 0.22)
    assert direct.closed_curves()
    assert len(direct) == len(traced)
    for mine, theirs in zip(direct, traced):
        assert np.array_equal(mine.vertices, theirs.vertices)
        assert np.array_equal(mine.margins, theirs.margins)
    # the jet, not the stencil fallback, produced them
    plain = nodal.extract_nodal(lambda x: field(x), box, 0.22)
    assert any(not np.array_equal(m.vertices, p.vertices) for m, p in zip(direct, plain))


class JetCounter:
    """A jet field that records the rows of every plain call and every jet call,
    with the residual each jet call saw."""

    def __init__(self, field):
        self.field = field
        self.plain = []
        self.jets = []
        self.jet = self._jet  # an instance attribute, copied by functools.wraps

    def __call__(self, x):
        self.plain.append(len(x))
        return self.field(x)

    def _jet(self, x):
        value, grad = self.field.jet(x)
        self.jets.append((len(x), float(np.max(np.abs(value)))))
        return value, grad


def _grid_cut_points(field, box, h, monkeypatch):
    """The vertices of the longest chain of an extraction, before its polish."""
    chains = []
    polish = nodal.newton_polish

    def recording(fieldfn, pts, **kwargs):
        chains.append(pts)
        return polish(fieldfn, pts, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(nodal, "newton_polish", recording)
        nodal.extract_nodal(field, box, h)
    return max(chains, key=len)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_jet_polish_makes_one_jet_call_per_iteration(name, monkeypatch):
    field, box = FIELDS[name]
    pts = _grid_cut_points(field, box, 0.22, monkeypatch)
    counter = JetCounter(field)
    polished, flags, jac = nodal.newton_polish(counter, pts)
    assert flags.all()
    assert counter.plain == []
    rows, residuals = zip(*counter.jets)
    assert set(rows) == {len(pts)}
    # every call but the last saw an unconverged residual: no call after convergence
    assert all(r > 1e-9 for r in residuals[:-1]) and residuals[-1] <= 1e-9
    assert np.array_equal(jac, jet_jacobians(field, polished))
    # extraction adds one plain call, the grid; each curve's polish ends on its
    # first converged jet call, and the margins are that jet's
    counter = JetCounter(field)
    nset = nodal.extract_nodal(counter, box, 0.22)
    assert len(counter.plain) == 1
    assert sum(r <= 1e-9 for _, r in counter.jets) == len(nset.curves)
    for curve in nset.curves:
        assert curve.converged
        assert np.array_equal(curve.margins, nodal._smallest_singular_values(jet_jacobians(field, curve.vertices)))


@pytest.fixture
def plain_field_calls(monkeypatch):
    """The kinds of field call, "plain" or "grid", of every extract_nodal call in
    call order, one list per extraction."""
    record = []
    extract = nodal.extract_nodal

    def spying(fieldfn, *args, **kwargs):
        calls = []
        record.append(calls)

        @functools.wraps(fieldfn)
        def counted(x):
            calls.append("plain")
            return fieldfn(x)

        if hasattr(fieldfn, "grid"):

            def grid(axes):
                calls.append("grid")
                return fieldfn.grid(axes)

            counted.grid = grid
        return extract(counted, *args, **kwargs)

    monkeypatch.setattr(nodal, "extract_nodal", spying)
    return record


def _box_args(name, box):
    lo, hi = box
    return ["--set", f"{name}_box_lo={','.join(map(str, lo))}", "--set", f"{name}_box_hi={','.join(map(str, hi))}"]


def test_cli_nodal_fields_make_no_stencil_calls(tmp_path, plain_field_calls):
    for a in (0, 1):
        (tmp_path / f"hopf{a + 1}.json").write_text(DESIGN.components[a].to_json())
    argv = ["spinorize", "--out", str(tmp_path / "spinor.json"), "--set", f"input1={tmp_path / 'hopf1.json'}",
            "--set", f"input2={tmp_path / 'hopf2.json'}", "--set", "k=60"]
    assert cli.main(argv) == cli.EXIT_OK
    boxes = _box_args("component1", DESIGN.boxes[0]) + _box_args("component2", DESIGN.boxes[1])
    argv = ["nodal", "--out", str(tmp_path / "spinor_curves"), "--set", f"input={tmp_path / 'spinor.json'}",
            "--set", "h=0.22", *boxes]
    assert cli.main(argv) == cli.EXIT_OK
    argv = ["nodal", "--out", str(tmp_path / "curves"), "--set", f"input={tmp_path / 'hopf1.json'}",
            "--set", "h=0.22", *_box_args("field", DESIGN.boxes[0])]
    assert cli.main(argv) == cli.EXIT_OK
    # the spinor components: one plain call each, on the grid's points; the
    # Bessel sum: one grid call and no plain call
    assert plain_field_calls == [["plain"], ["plain"], ["grid"]]


def test_designer_verification_makes_no_stencil_calls(plain_field_calls):
    t = np.linspace(0.0, 2.0 * np.pi, 41)
    target = np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=-1)
    helmholtz.design_bessel_sum([(target, 0)], budget=160, verify_tol=0.05, grid_h=0.1)
    assert plain_field_calls == [["grid"]]


def test_hopf_targets_polish_by_their_closed_form_jet(plain_field_calls, monkeypatch):
    polish_calls = []
    polish = nodal.newton_polish

    def counting_polish(fieldfn, *args, **kwargs):
        counter = JetCounter(fieldfn)
        out = polish(counter, *args, **kwargs)
        polish_calls.append((counter.plain, len(counter.jets)))
        return out

    monkeypatch.setattr(nodal, "newton_polish", counting_polish)
    design = hopf_link_design()
    # no plain call inside Newton: every iteration is one jet call
    assert polish_calls and all(plain == [] and jets > 0 for plain, jets in polish_calls)
    # outside it, one plain call per extraction: the grid
    assert plain_field_calls == [["plain"]] * 2
    monkeypatch.setattr(nodal, "newton_polish", polish)
    for a in (0, 1):
        # the same extraction with the six-point stencil polish of a plain callable
        stencil = nodal.extract_nodal(lambda x: design.exact_component(a, x), design.boxes[a], 0.2)
        best = max(stencil.closed_curves(), key=len)
        assert len(best) == len(design.targets[a])
        assert nodal.hausdorff_dist(best, design.targets[a]) <= 1e-9


def test_hopf_exact_jet_matches_richardson():
    x = np.vstack([np.random.default_rng(2).uniform(-4.0, 4.0, (40, 3)), np.zeros((1, 3)), [[1e-9, 0.0, 0.0]]])
    for a in (0, 1):
        field = DESIGN.exact_field(a)
        jac = jet_jacobians(field, x)
        ref = richardson_jacobians(field, x, RICHARDSON_STEP)
        assert np.max(np.abs(jac - ref)) <= JET_RTOL * np.max(np.abs(jac))
