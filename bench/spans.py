"""Spans recorded from outside the program, around its public functions.

A `Tracer` replaces each traced function in every homopot module that
binds it (so calls made inside `analyze` are seen too) with a wrapper
that records a span: operation id, span id, parent span id, name, start
and end.  Spans stay in memory until the run writes them out.  Counters
are taken at the same boundaries from the return values.

The program's code is not edited; `uninstall` restores every binding.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time

# layer name -> (defining module, attribute).  Every homopot module that
# holds the same function object gets the wrapper, except where
# ONLY_IN restricts it.
LAYERS = {
    "report.analyze": ("homopot.report", "analyze"),
    "report.batch": ("homopot.report", "batch"),
    "parse.parse_potential": ("homopot.parse", "parse_potential"),
    "darboux.find_darboux_points": ("homopot.darboux", "find_darboux_points"),
    "darboux.direction_polynomial": ("homopot.darboux", "direction_polynomial"),
    "upoly.roots": ("homopot.upoly", "roots"),
    "darboux.classify": ("homopot.darboux", "classify"),
    "polar.critical_points": ("homopot.polar", "critical_points"),
    "morales.admissible": ("homopot.morales", "admissible"),
    "morales.admissible_values_at_most": ("homopot.morales", "admissible_values_at_most"),
    "darboux.normalize": ("homopot.darboux", "normalize"),
    "potential.jet_at": ("homopot.potential", "jet_at"),
    "varequ.build_higher_ve": ("homopot.varequ", "build_higher_ve"),
    "varequ.VariationalSystem.to_json": ("homopot.varequ", "VariationalSystem.to_json"),
    "monodromy.period_closed_form": ("homopot.monodromy", "period_closed_form"),
    "monodromy.period_quadrature": ("homopot.monodromy", "period_quadrature"),
    "orbit.integrate_orbit": ("homopot.orbit", "integrate_orbit"),
    "orbit.integrate_ve": ("homopot.orbit", "integrate_ve"),
    "orbit.run_scenario": ("homopot.orbit", "run_scenario"),
}

# jet_at is called per root inside classify; tracing it there would
# swamp classify with wrapper cost, so only the public binding (used by
# the ve-build path and orbit.run_scenario) is traced.
ONLY_IN = {"potential.jet_at": ("homopot", "homopot.potential")}



class Tracer:
    def __init__(self, deadline_error: type, typed_error: type):
        self.spans = []            # (op, span, parent, name, t0, t1)
        self.counts = {}
        self.samples = {}          # name -> list of durations (s)
        self._deadline_error = deadline_error
        self._typed_error = typed_error
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()
        self._saved = []
        self.op_id = 0

    # -- span bookkeeping ---------------------------------------------------------

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self):
        """Start a new operation; a deadline that fired inside a wrapper
        may have left the caller's stack unbalanced, so it is reset."""
        self.op_id += 1
        self._stack().clear()

    def count(self, name: str, n: int = 1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; deadline overruns are counted per layer."""
        stack = self._stack()
        sid = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self._deadline_error:
            self.count(f"{name}.timeouts")
            raise
        except self._typed_error:
            self.count(f"{name}.typed_errors")
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((self.op_id, sid, parent, name, t0, t1))
            self.samples.setdefault(name, []).append(t1 - t0)
        observe = OBSERVERS.get(name)
        if observe is not None:
            observe(self, result)
        return result

    # -- installing wrappers ------------------------------------------------------

    def _wrapper(self, name: str, original):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, original, *args, **kwargs)
        traced.__wrapped__ = original
        return traced

    def install(self):
        import homopot  # noqa: F401  (the package must be importable first)
        modules = {n: m for n, m in sys.modules.items()
                   if n == "homopot" or n.startswith("homopot.")}
        for name, (mod_name, attr) in LAYERS.items():
            if mod_name not in modules:
                continue
            if "." in attr:       # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(modules[mod_name], cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(name, original))
                continue
            original = getattr(modules[mod_name], attr)
            wrapped = self._wrapper(name, original)
            allowed = ONLY_IN.get(name)
            for mname, mod in modules.items():
                if allowed is not None and mname not in allowed:
                    continue
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "span": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")


# -- counters taken from results -----------------------------------


def _observe_roots(tr, result):
    exact = sum(1 for r in result if r.exact)
    tr.count("upoly.roots.exact_roots", exact)
    tr.count("upoly.roots.float_roots", len(result) - exact)


def _observe_classify(tr, result):
    tr.count("darboux.classify.exact_points" if result.exact
             else "darboux.classify.float_points")


def _observe_analyze(tr, result):
    for pv in result.point_verdicts:
        if pv.status == "indeterminate":
            tr.count("morales.lambda.undecided")
        elif pv.reason.startswith("rational reconstruction"):
            tr.count("morales.lambda.reconstructed")
        elif pv.reason.startswith("exact"):
            tr.count("morales.lambda.exact")


def _observe_build(tr, result):
    tr.count("varequ.build_higher_ve.transitions", len(result.transitions))
    tr.samples.setdefault(f"varequ.build_higher_ve.l{result.level}", []).append(
        tr.samples["varequ.build_higher_ve"][-1])


def _observe_batch(tr, result):
    tr.samples.setdefault("report.batch.elapsed_sum", []).append(
        sum(rep.elapsed_seconds or 0.0 for _, rep in result.reports))


OBSERVERS = {
    "upoly.roots": _observe_roots,
    "darboux.classify": _observe_classify,
    "report.analyze": _observe_analyze,
    "varequ.build_higher_ve": _observe_build,
    "report.batch": _observe_batch,
}


# -- aggregation --------------------------------------------------------------------


def self_times(spans) -> dict:
    """Self time per layer: each span's duration minus its children's."""
    child_sum = {}
    for _, sid, parent, _, t0, t1 in spans:
        if parent is not None:
            child_sum[parent] = child_sum.get(parent, 0.0) + (t1 - t0)
    out = {}
    for _, sid, _, name, t0, t1 in spans:
        out[name] = out.get(name, 0.0) + (t1 - t0) - child_sum.get(sid, 0.0)
    return out


def busy_times(spans) -> dict:
    """Wall time inside each layer, counting nested calls of a layer once."""
    by_id = {sid: (parent, name) for _, sid, parent, name, _, _ in spans}
    out = {}
    for _, sid, parent, name, t0, t1 in spans:
        p = parent
        nested = False
        while p is not None:
            pp, pname = by_id[p]
            if pname == name:
                nested = True
                break
            p = pp
        if not nested:
            out[name] = out.get(name, 0.0) + (t1 - t0)
    return out


def _quantile_ms(values, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1000
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """The per-layer metrics, each per traced pass over the inputs."""
    busy = busy_times(tracer.spans)
    selfs = self_times(tracer.spans)
    c = tracer.counts
    s = tracer.samples
    per = 1.0 / max(passes, 1)

    def b(name):
        return busy.get(name, 0.0) * per

    def n(name):
        return c.get(name, 0) * per

    out = {
        "parse.parse_potential.busy_s": b("parse.parse_potential"),
        "parse.parse_potential.calls": len(s.get("parse.parse_potential", [])) * per,
        "parse.parse_potential.typed_errors": n("parse.parse_potential.typed_errors"),
        "darboux.direction_polynomial.busy_s": b("darboux.direction_polynomial"),
        "upoly.roots.busy_s": b("upoly.roots"),
        "upoly.roots.p90_ms": _quantile_ms(s.get("upoly.roots", []), 90),
        "upoly.roots.max_ms": max(s.get("upoly.roots", [0.0])) * 1000,
        "upoly.roots.timeouts": n("upoly.roots.timeouts"),
        "upoly.roots.exact_roots": n("upoly.roots.exact_roots"),
        "upoly.roots.float_roots": n("upoly.roots.float_roots"),
    }
    all_roots = c.get("upoly.roots.exact_roots", 0) + c.get("upoly.roots.float_roots", 0)
    out["upoly.roots.exact_share"] = (c.get("upoly.roots.exact_roots", 0) / all_roots
                                      if all_roots else 0.0)
    out.update({
        "darboux.find_darboux_points.self_s": selfs.get("darboux.find_darboux_points", 0.0) * per,
        "darboux.classify.busy_s": b("darboux.classify"),
        "darboux.classify.exact_points": n("darboux.classify.exact_points"),
        "darboux.classify.float_points": n("darboux.classify.float_points"),
        "polar.critical_points.busy_s": b("polar.critical_points"),
        "morales.admissible.busy_s": b("morales.admissible"),
        "morales.admissible.calls": len(s.get("morales.admissible", [])) * per,
        "morales.admissible_values_at_most.busy_s": b("morales.admissible_values_at_most"),
        "morales.lambda.exact": n("morales.lambda.exact"),
        "morales.lambda.reconstructed": n("morales.lambda.reconstructed"),
        "morales.lambda.undecided": n("morales.lambda.undecided"),
        "report.analyze.self_s": selfs.get("report.analyze", 0.0) * per,
        "report.batch.busy_s": b("report.batch"),
    })
    batch_wall = sum(s.get("report.batch", []))
    out["report.batch.overlap"] = (sum(s.get("report.batch.elapsed_sum", [])) / batch_wall
                                   if batch_wall else 0.0)
    out.update({
        "darboux.normalize.busy_s": b("darboux.normalize"),
        "potential.jet_at.busy_s": b("potential.jet_at"),
        "varequ.build_higher_ve.busy_s": b("varequ.build_higher_ve"),
    })
    for level in range(1, 8):
        vals = s.get(f"varequ.build_higher_ve.l{level}", [])
        out[f"varequ.build_higher_ve.l{level}_ms"] = (statistics.median(vals) * 1000
                                                      if vals else 0.0)
    out.update({
        "varequ.build_higher_ve.transitions": n("varequ.build_higher_ve.transitions"),
        "varequ.VariationalSystem.to_json.busy_s": b("varequ.VariationalSystem.to_json"),
        "monodromy.period_quadrature.busy_s": b("monodromy.period_quadrature"),
        "monodromy.period_quadrature.p90_ms": _quantile_ms(s.get("monodromy.period_quadrature", []), 90),
        "monodromy.period_closed_form.busy_s": b("monodromy.period_closed_form"),
        "orbit.integrate_orbit.busy_s": b("orbit.integrate_orbit"),
        "orbit.integrate_ve.busy_s": b("orbit.integrate_ve"),
        "orbit.run_scenario.busy_s": b("orbit.run_scenario"),
    })
    return out
