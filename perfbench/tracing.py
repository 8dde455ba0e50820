"""Spans and counters around inflectionary's layers, installed from outside.

``Tracer.install()`` replaces each function in ``TARGETS`` by a wrapper that
records a span (name, start, end, parent span, job id) and, for some layers,
a few counters.  The modules import each other's functions by name, so the
wrapper replaces every binding of the original in every ``inflectionary``
module and every alias on its class (``__rmul__ = __mul__``), not only the
defining one.  Spans are kept in memory; ``self_times`` turns them into
per-layer self time after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "inflectionary"

# (module, attribute, span name).  Functions that feed no metric are traced
# too, so that their work is not counted as self time of their caller.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("reports", "CheckReport.to_json", "reports.to_json"),
    ("conjectures", "check_homogenization_symmetry", "conjectures.check_homogenization_symmetry"),
    ("conjectures", "check_shift_symmetry", "conjectures.check_shift_symmetry"),
    ("conjectures", "check_support", "conjectures.check_support"),
    ("conjectures", "check_coeff_symmetry", "conjectures.check_coeff_symmetry"),
    ("conjectures", "check_face_structure", "conjectures.check_face_structure"),
    ("conjectures", "check_determinant_identity", "conjectures.check_determinant_identity"),
    ("conjectures", "real_root_census", "conjectures.real_root_census"),
    ("conjectures", "conjecture4_scan", "conjectures.conjecture4_scan"),
    ("conjectures", "singular_probe", "conjectures.singular_probe"),
    ("inflection", "basic_inflection", "inflection.basic_inflection"),
    ("inflection", "derivative_oracle", "inflection.derivative_oracle"),
    ("inflection", "q_template", "inflection.q_template"),
    ("inflection", "general_inflection", "inflection.general_inflection"),
    ("inflection", "wronskian_direct", "inflection.wronskian_direct"),
    ("inflection", "division_polynomial", "inflection.division_polynomial"),
    ("inflection", "torsion_check", "inflection.torsion_check"),
    ("poly", "SparsePoly.__mul__", "poly.mul"),
    ("poly", "SparsePoly.__add__", "poly.add"),
    ("poly", "SparsePoly.specialize", "poly.specialize"),
    ("poly", "SparsePoly.evaluate", "poly.evaluate"),
    ("poly", "divexact", "poly.divexact"),
    ("poly", "substitute_polys", "poly.substitute_polys"),
    ("matrices", "det_polymatrix", "matrices.det_polymatrix"),
    ("matrices", "resultant", "matrices.resultant"),
    ("matrices", "sylvester_matrix", "matrices.sylvester_matrix"),
    ("roots", "RootIsolator.__init__", "roots.RootIsolator.init"),
    ("roots", "RootIsolator.isolate", "roots.isolate"),
    ("roots", "SturmChain.__init__", "roots.SturmChain.init"),
    ("roots", "SturmChain.variations_at", "roots.variations_at"),
    ("roots", "sign_at_root", "roots.sign_at_root"),
    ("roots", "gcd_univariate", "roots.gcd_univariate"),
    ("roots", "squarefree_part", "roots.squarefree_part"),
    ("roots", "certified_rational_roots", "roots.certified_rational_roots"),
    ("newton", "newton_data", "newton.newton_data"),
    ("newton", "lattice_points_in_hull", "newton.lattice_points_in_hull"),
    ("render", "sample_sign_grid", "render.sample_sign_grid"),
    ("render", "contour_segments", "render.contour_segments"),
    ("render", "write_svg", "render.write_svg"),
)

JOB_SPAN = "job"
# Spans under ``general_inflection`` that show it built P(mu, k) anew.
REBUILD_SPANS = ("inflection.q_template", "poly.substitute_polys")
# Counter bookkeeping runs after the wrapped call's span has ended; it is
# recorded as a span of its own so that it is not counted as the caller's
# self time.
COUNTER_SPAN = "trace.counters"

# Counters that any machine reproduces exactly for one job list.  Two traced
# passes over the same jobs must agree on them, as on every other count.
EXACT_COUNTS = (
    "poly.mul.calls",
    "roots.variations_at.calls",
    "render.nodes",
    "poly.mul.max_coeff_bits",
    "roots.SturmChain.max_coeff_bits",
    "matrices.det_polymatrix.max_dim",
)


def coeff_bits(coefficients) -> int:
    """Largest bit length of a numerator or denominator among Fractions."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in coefficients), default=0)


class Tracer:
    """Records spans and counters for one process's run of jobs."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []          # (span id, name id, start, end, parent id, job id)
        self.counts = {}
        self.job = -1
        self._stack = [-1]
        self._next_id = 0
        self._built = set()
        self._restore = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _max(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self._wrap(fn, self.name_id(name), None)(*args, **kwargs)

    def _wrap(self, fn, nid, counters):
        counter_nid = self.name_id(COUNTER_SPAN)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            first = len(self.spans)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, nid, start, end, parent, self.job))
            if counters is not None:
                counters(self, args, result, first)
                cid = self._next_id
                self._next_id += 1
                self.spans.append((cid, counter_nid, end, time.perf_counter(), parent, self.job))
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every target and rebind it wherever the package binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, _attr, _span in TARGETS:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = package_modules()
        for module_name, attr, span in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[fn_name]
                owners = [owner]
            else:
                original = getattr(module, fn_name)
                owners = modules
            wrapper = self._wrap(original, self.name_id(span), _COUNTERS.get(span))
            for obj in owners:
                for key, value in list(vars(obj).items()):
                    if value is original:
                        self._restore.append((obj, key, original))
                        setattr(obj, key, wrapper)
        return self

    def uninstall(self):
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": self.counts}


def package_modules():
    """Every imported module of the package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


# -- counters ----------------------------------------------------------------

def _mul_counters(tracer, args, result, first):
    tracer._add("poly.mul.terms_out", len(result.terms))
    tracer._max("poly.mul.max_coeff_bits", coeff_bits(result.terms.values()))


def _det_counters(tracer, args, result, first):
    tracer._max("matrices.det_polymatrix.max_dim", len(args[0]))


def _sturm_counters(tracer, args, result, first):
    polys = args[0].polys
    tracer._max("roots.SturmChain.max_len", len(polys))
    tracer._max("roots.SturmChain.max_coeff_bits",
                max(coeff_bits(p.terms.values()) for p in polys))


def _isolate_counters(tracer, args, result, first):
    tracer._add("roots.roots_isolated", len(result))


def _grid_counters(tracer, args, result, first):
    w = result.window
    tracer._add("render.nodes", (w.nx + 1) * (w.nlambda + 1))


def _segment_counters(tracer, args, result, first):
    tracer._add("render.segments", len(result))


def _svg_counters(tracer, args, result, first):
    tracer._add("render.svg_bytes", len(result))


def _general_counters(tracer, args, result, first):
    # A call rebuilds P(mu, k) when the template or the substitution ran
    # under it; for mu = 1 it only reads the basic-family cache.  Spans are
    # appended as they end, so those after ``first`` are this call's
    # descendants.
    work = {tracer.name_id(name) for name in REBUILD_SPANS}
    if not any(span[1] in work for span in tracer.spans[first:]):
        return
    key = (result.mu, result.k)
    if key in tracer._built:
        tracer._add("inflection.general_inflection.repeats", 1)
    tracer._built.add(key)


_COUNTERS = {
    "poly.mul": _mul_counters,
    "matrices.det_polymatrix": _det_counters,
    "roots.SturmChain.init": _sturm_counters,
    "roots.isolate": _isolate_counters,
    "render.sample_sign_grid": _grid_counters,
    "render.contour_segments": _segment_counters,
    "render.write_svg": _svg_counters,
    "inflection.general_inflection": _general_counters,
}


# -- analysis ------------------------------------------------------------------

def self_times(spans):
    """Self time of each span: its duration minus the union of the intervals
    its child spans cover, clipped to the span.

    ``spans`` holds (span id, name, start, end, parent id, job id) tuples;
    the result maps span id to self time.
    """
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    out = {}
    for sid, _name, start, end, _parent, _job in spans:
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(sid, ())):
            lo = max(lo, reach)
            hi = min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def layer_totals(names, spans):
    """Per span name: number of calls, total self time and total duration."""
    own = self_times(spans)
    totals = {}
    for sid, nid, start, end, _parent, _job in spans:
        entry = totals.setdefault(names[nid], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[sid]
        entry["total_s"] += end - start
    return totals


def layer_metrics(names, spans, counts) -> dict:
    """The benchmark's per-layer metrics from one traced pass (no units)."""
    totals = layer_totals(names, spans)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    out = {}
    for name in ("cli.main", "conjectures.conjecture4_scan", "conjectures.singular_probe",
                 "conjectures.check_determinant_identity",
                 "conjectures.check_face_structure",
                 "inflection.basic_inflection", "inflection.wronskian_direct",
                 "inflection.derivative_oracle", "inflection.division_polynomial",
                 "inflection.q_template", "inflection.torsion_check",
                 "poly.substitute_polys", "matrices.sylvester_matrix",
                 "roots.squarefree_part", "roots.certified_rational_roots",
                 "newton.newton_data", "newton.lattice_points_in_hull",
                 "render.sample_sign_grid", "render.contour_segments", "render.write_svg"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("reports.to_json", "conjectures.real_root_census",
                 "inflection.general_inflection", "poly.mul", "poly.add",
                 "poly.divexact", "poly.specialize", "poly.evaluate",
                 "matrices.det_polymatrix", "matrices.resultant", "roots.isolate",
                 "roots.variations_at", "roots.sign_at_root", "roots.gcd_univariate"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    general = calls("inflection.general_inflection")
    out["inflection.general_inflection.repeat_ratio"] = (
        counts.get("inflection.general_inflection.repeats", 0) / general if general else 0.0)
    builds = calls("roots.RootIsolator.init")
    isolated = counts.get("roots.roots_isolated", 0)
    out["roots.RootIsolator.builds"] = builds
    out["roots.RootIsolator.init_s"] = totals.get("roots.RootIsolator.init", {}).get("total_s", 0.0)
    out["roots.SturmChain.builds"] = calls("roots.SturmChain.init")
    out["roots.roots_isolated"] = isolated
    out["roots.builds_per_root"] = builds / isolated if isolated else 0.0
    for key in ("poly.mul.terms_out", "poly.mul.max_coeff_bits",
                "matrices.det_polymatrix.max_dim", "roots.SturmChain.max_len",
                "roots.SturmChain.max_coeff_bits", "render.nodes", "render.segments",
                "render.svg_bytes"):
        out[key] = counts.get(key, 0)
    return out
