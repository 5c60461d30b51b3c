"""Spans around calls into eigenknot's modules, recorded from outside the package.

Each traced function is replaced, for the duration of a ``Tracer.installed()``
block, by a wrapper under every module attribute its callers look it up by
(``harmonics.jacobi_p`` and ``specialfn.jacobi_p`` are two bindings of one
function).  A span holds its name, start, end, parent span, instance id, the
degree ``k`` the workload was working on, and work counters computed at the
call boundary from arguments and return values.  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from eigenknot import cli, harmonics, helmholtz, nodal, specialfn, spinor3
from workloads import HOPF_KS, VERIFY_KS

# Span fields, in order.
NAME, START, END, PARENT, INSTANCE, K, COUNTS = range(7)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rows(x, width):
    return int(np.size(x)) // width


def _jacobi_counts(args, kwargs, out):
    # one recurrence step per degree per array element
    return {"elem_steps": int(_arg(args, kwargs, 0, "k")) * int(np.size(_arg(args, kwargs, 3, "t")))}


def _kernel_counts(args, kwargs, out):
    return {"radii": int(np.size(_arg(args, kwargs, 1, "r")))}


def _bessel_sum_counts(args, kwargs, out):
    s = args[0]
    return {"pair_evals": _rows(_arg(args, kwargs, 1, "x"), s.n) * len(s)}


def _herglotz_counts(args, kwargs, out):
    f = args[0]
    return {"pair_evals": _rows(_arg(args, kwargs, 1, "x"), f.n) * len(f.nodes)}


def _discretize_counts(args, kwargs, out):
    # each refinement grows the radius by 0.5 (helmholtz.herglotz_discretize)
    radius = float(_arg(args, kwargs, 2, "radius", 2.5))
    return {
        "attempts": 1 + int(round((out.report.radius - radius) / 0.5)),
        "n_terms": len(out),
        "achieved": float(out.report.achieved),
    }


def _design_counts(args, kwargs, out):
    return {
        "curve_residual": max(out.curve_residual.values()),
        "conversion_error": max(out.conversion_error.values()),
    }


def _harmonic_counts(args, kwargs, out):
    Y = args[0]
    return {"pair_evals": _rows(_arg(args, kwargs, 1, "p"), Y.n + 1) * len(Y)}


def _localization_counts(args, kwargs, out):
    return {"k": int(args[1].k), "sup0": float(out.orders[0])}


def _jet_counts(args, kwargs, out):
    Y = args[0]
    return {"point_center_evals": _rows(_arg(args, kwargs, 1, "p"), 4) * len(Y)}


def _residual_counts(args, kwargs, out):
    return {"value": float(out)}


def _nodal_counts(args, kwargs, out):
    return {"curves": len(out.curves), "vertices": sum(len(c) for c in out.curves)}


def _field_counts(args, kwargs, out):
    return {"points": _rows(args[0], 3)}


# (span name, counter, [(module, attribute), ...]) for every traced binding
_TARGETS = [
    ("specialfn.jacobi_p", _jacobi_counts, [(specialfn, "jacobi_p"), (harmonics, "jacobi_p")]),
    ("specialfn.bessel_kernel", _kernel_counts, [(specialfn, "bessel_kernel"), (helmholtz, "bessel_kernel")]),
    (
        "helmholtz.eval_bessel_sum",
        _bessel_sum_counts,
        [(helmholtz, "eval_bessel_sum"), (harmonics, "eval_bessel_sum"), (cli, "eval_bessel_sum")],
    ),
    ("helmholtz.eval_herglotz", _herglotz_counts, [(helmholtz, "eval_herglotz")]),
    (
        "helmholtz.herglotz_discretize",
        _discretize_counts,
        [(helmholtz, "herglotz_discretize"), (cli, "herglotz_discretize")],
    ),
    ("helmholtz.design_bessel_sum", _design_counts, [(helmholtz, "design_bessel_sum")]),
    ("helmholtz.hopf_link_design", None, [(helmholtz, "hopf_link_design")]),
    ("harmonics.eval_harmonic", _harmonic_counts, [(harmonics, "eval_harmonic")]),
    ("harmonics.localization_error", _localization_counts, [(harmonics, "localization_error")]),
    ("harmonics.laplace_residual", None, [(harmonics, "laplace_residual")]),
    ("spinor3.zonal_jet", _jet_counts, [(spinor3, "zonal_jet")]),
    ("spinor3.dirac_project", None, [(spinor3, "dirac_project")]),
    ("spinor3.dirac_residual", _residual_counts, [(spinor3, "dirac_residual")]),
    ("nodal.newton_polish", None, [(nodal, "newton_polish")]),
    ("nodal.linking_number", None, [(nodal, "linking_number")]),
    ("nodal.hausdorff_dist", None, [(nodal, "hausdorff_dist")]),
]


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.instance = None
        self.k = None

    def open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.instance, self.k, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self):
        self.spans[self._stack.pop()][END] = time.perf_counter()

    def wrap(self, name, fn, count=None):
        """fn with a span per call; count(args, kwargs, result) gives its counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            if count is not None:
                self.spans[index][COUNTS] = count(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def _extract_nodal(self, fn):
        """extract_nodal whose field callable is timed as ``nodal.field`` spans."""
        traced = self.wrap("nodal.extract_nodal", fn, _nodal_counts)

        @functools.wraps(fn)
        def extract(fieldfn, *args, **kwargs):
            return traced(self.wrap("nodal.field", fieldfn, _field_counts), *args, **kwargs)

        return extract

    @contextmanager
    def installed(self):
        """Replace every traced binding with its wrapper; restore them on exit."""
        saved = []
        try:
            for name, count, bindings in _TARGETS:
                for module, attr in bindings:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(name, fn, count))
            saved.append((nodal, "extract_nodal", nodal.extract_nodal))
            nodal.extract_nodal = self._extract_nodal(nodal.extract_nodal)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def dump(self):
        """Spans as JSON-ready dicts."""
        return [
            {
                "name": s[NAME],
                "start": s[START],
                "end": s[END],
                "parent": s[PARENT],
                "instance": s[INSTANCE],
                "k": s[K],
                "counts": s[COUNTS],
            }
            for s in self.spans
        ]


def layer_metrics(spans, instance):
    """Per-layer metrics of one instance from its spans (0 where a layer did no work)."""
    index = [i for i, s in enumerate(spans) if s[INSTANCE] == instance]
    dur = {i: spans[i][END] - spans[i][START] for i in index}
    child = defaultdict(float)
    for i in index:
        if spans[i][PARENT] >= 0:
            child[spans[i][PARENT]] += dur[i]

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield spans[p][NAME]
            p = spans[p][PARENT]

    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for i in index:
        name = spans[i][NAME]
        key = name
        if name == "harmonics.localization_error":
            key = f"{name}.k{spans[i][COUNTS]['k']}" if spans[i][COUNTS] else name
        elif spans[i][K] is not None:
            key = f"{name}.k{spans[i][K]}"
        for label in {name, key}:
            total[label] += dur[i]
            self_s[label] += dur[i] - child[i]
            calls[label] += 1
        for c, v in (spans[i][COUNTS] or {}).items():
            if c != "k":
                counts[f"{key}.{c}"] += v
                if key != name:
                    counts[f"{name}.{c}"] += v

    grid_s = 0.0
    newton_calls = 0
    field_points = 0
    seen_extract = set()
    for i in index:
        if spans[i][NAME] != "nodal.field":
            continue
        field_points += spans[i][COUNTS]["points"] if spans[i][COUNTS] else 0
        parent = spans[i][PARENT]
        if spans[parent][NAME] == "nodal.extract_nodal" and parent not in seen_extract:
            # the first field call of an extraction evaluates the whole grid
            seen_extract.add(parent)
            grid_s += dur[i]
        if "nodal.newton_polish" in ancestors(i):
            newton_calls += 1

    jacobi_steps = counts["specialfn.jacobi_p.elem_steps"]
    radii = counts["specialfn.bessel_kernel.radii"]
    vertices = counts["nodal.extract_nodal.vertices"]
    out = {
        "specialfn.jacobi_p.self_s": self_s["specialfn.jacobi_p"],
        "specialfn.jacobi_p.calls": calls["specialfn.jacobi_p"],
        "specialfn.jacobi_p.elem_steps": jacobi_steps,
        "specialfn.jacobi_p.ns_per_elem_step": 1e9 * self_s["specialfn.jacobi_p"] / jacobi_steps if jacobi_steps else 0.0,
        "specialfn.bessel_kernel.self_s": self_s["specialfn.bessel_kernel"],
        "specialfn.bessel_kernel.radii": radii,
        "specialfn.bessel_kernel.ns_per_radius": 1e9 * self_s["specialfn.bessel_kernel"] / radii if radii else 0.0,
        "helmholtz.eval_bessel_sum.self_s": self_s["helmholtz.eval_bessel_sum"],
        "helmholtz.eval_bessel_sum.pair_evals": counts["helmholtz.eval_bessel_sum.pair_evals"],
        "helmholtz.eval_herglotz.self_s": self_s["helmholtz.eval_herglotz"],
        "helmholtz.eval_herglotz.pair_evals": counts["helmholtz.eval_herglotz.pair_evals"],
        "helmholtz.herglotz_discretize.self_s": self_s["helmholtz.herglotz_discretize"],
        "helmholtz.herglotz_discretize.attempts": counts["helmholtz.herglotz_discretize.attempts"],
        "helmholtz.herglotz_discretize.n_terms": counts["helmholtz.herglotz_discretize.n_terms"],
        "helmholtz.herglotz_discretize.achieved": counts["helmholtz.herglotz_discretize.achieved"],
        "helmholtz.design_bessel_sum.self_s": self_s["helmholtz.design_bessel_sum"],
        "helmholtz.design_bessel_sum.curve_residual": counts["helmholtz.design_bessel_sum.curve_residual"],
        "helmholtz.design_bessel_sum.conversion_error": counts["helmholtz.design_bessel_sum.conversion_error"],
        "helmholtz.hopf_link_design.s": total["helmholtz.hopf_link_design"],
        "harmonics.eval_harmonic.self_s": self_s["harmonics.eval_harmonic"],
        "harmonics.eval_harmonic.pair_evals": counts["harmonics.eval_harmonic.pair_evals"],
        "harmonics.laplace_residual.s": total["harmonics.laplace_residual"],
        "spinor3.zonal_jet.self_s": self_s["spinor3.zonal_jet"],
        "spinor3.zonal_jet.calls": calls["spinor3.zonal_jet"],
        "spinor3.zonal_jet.point_center_evals": counts["spinor3.zonal_jet.point_center_evals"],
        "spinor3.dirac_project.s": total["spinor3.dirac_project"],
        "spinor3.dirac_residual.s": total["spinor3.dirac_residual"],
        "spinor3.dirac_residual.value": counts["spinor3.dirac_residual.value"],
        "nodal.extract_nodal.s": total["nodal.extract_nodal"],
        "nodal.extract_nodal.self_s": self_s["nodal.extract_nodal"],
        "nodal.grid_eval_s": grid_s,
        "nodal.newton_polish.s": total["nodal.newton_polish"],
        "nodal.newton_polish.field_calls": newton_calls,
        "nodal.field_points_per_vertex": field_points / vertices if vertices else 0.0,
        "nodal.curves": counts["nodal.extract_nodal.curves"],
        "nodal.vertices": vertices,
        "nodal.linking_number.s": total["nodal.linking_number"],
        "nodal.hausdorff_dist.s": total["nodal.hausdorff_dist"],
    }
    for k in VERIFY_KS:
        key = f"harmonics.localization_error.k{k}"
        out[f"{key}.s"] = total[key]
        out[f"{key}.self_s"] = self_s[key]
        out[f"{key}.sup0"] = counts[f"{key}.sup0"]
    for k in HOPF_KS:
        key = f"nodal.extract_nodal.k{k}"
        out[f"{key}.s"] = total[key]
        out[f"{key}.self_s"] = self_s[key]
        out[f"specialfn.jacobi_p.k{k}.self_s"] = self_s[f"specialfn.jacobi_p.k{k}"]
    for command in ("approximate", "verify", "spinorize", "nodal"):
        out[f"cli.{command}.self_s"] = self_s[f"cli.{command}"]
    return out
