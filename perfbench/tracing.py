"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each finslerlab layer in every
module namespace that binds them (``abmetric.covariant_derivative`` as well
as ``geometry.covariant_derivative``), so calls are seen whichever import
path reaches them.  Each call records one span (id, name, start, end, parent
id, job id, self time); spans stay in memory until the run writes them out.
Self time is a span's duration minus the durations of its direct children,
which, on one thread, is the part of it not covered by child spans.

``install`` must come before the models are built: the fields returned by
the deformation chains and by the expression parser are wrapped when they
are made.  ``uninstall`` restores every binding it replaced.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from finslerlab.geometry import MetricField, OneFormField

# (home module, attribute, span name, counter over (args, result) or None)
FUNCTIONS = (
    ("jets", "seed_pair", "jets.seed_pair", lambda a, r: (("seeds", r[0].nseeds),)),
    ("jets", "solve", "jets.solve", None),
    ("geometry", "christoffel", "geometry.christoffel", None),
    ("geometry", "covariant_derivative", "geometry.covariant_derivative", None),
    ("geometry", "inverse_metric", "geometry.inverse_metric", None),
    ("phifuncs", "regularity_check", "phifuncs.regularity_check", None),
    ("abmetric", "F_eval", "abmetric.F_eval", None),
    ("abmetric", "spray_ab", "abmetric.spray_ab",
     lambda a, r: (("points", int(np.prod(np.shape(a[1])[:-1]))),)),
    ("abmetric", "qtp", "abmetric.qtp", None),
    ("abmetric", "assemble", "abmetric.assemble", None),
    ("models", "build_model", "models.build_model", None),
    ("flatness", "verify_flatness", "flatness.verify_flatness", None),
    ("flatness", "integrate_geodesics", "flatness.integrate_geodesics",
     lambda a, r: (("lane_steps", len(r) * max(len(t.times) - 1 for t in r)),
                   ("useful_steps", sum(len(t.times) - 1 for t in r)),
                   ("left_domain", sum(bool(t.left_domain) for t in r)))),
    ("classify", "invariants", "classify.invariants", None),
    ("classify", "reduce_quadruple", "classify.reduce_quadruple", None),
    ("report", "write_json", "report.write_json", None),
)
# constructors whose returned fields get their matrix/covector wrapped
FIELD_MAKERS = (
    ("deform", ("forward_chain", "inverse_chain", "berwald_chain", "chain_pair",
                "deform_stretch", "deform_conformal", "deform_rescale"), "deform.field_eval"),
    ("exprfield", ("metric_from_exprs", "oneform_from_exprs"), "exprfield.field_eval"),
)
PHI_CLASSES = ("ExprPhi", "QuadraturePhi", "SigmaSeriesPhi", "ZeroPSeriesPhi")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("jets.seed_pair.calls", "calls/job", "lower"),
    ("jets.seed_pair.seeds", "seeds/call", "lower"),
    ("jets.solve.calls", "calls/job", "lower"),
    ("jets.solve.self_s", "s/job", "lower"),
    ("geometry.christoffel.calls", "calls/job", "lower"),
    ("geometry.christoffel.self_s", "s/job", "lower"),
    ("geometry.covariant_derivative.calls", "calls/job", "lower"),
    ("geometry.covariant_derivative.self_s", "s/job", "lower"),
    ("geometry.inverse_metric.calls", "calls/job", "lower"),
    ("geometry.inverse_metric.self_s", "s/job", "lower"),
    *((f"phifuncs.values.{cls}.{key}", unit, "lower") for cls in PHI_CLASSES
      for key, unit in (("points", "points/job"), ("self_s", "s/job"))),
    ("phifuncs.quad.calls", "calls/job", "lower"),
    ("phifuncs.regularity_check.calls", "calls/job", "lower"),
    ("phifuncs.regularity_check.self_s", "s/job", "lower"),
    ("abmetric.F_eval.calls", "calls/job", "lower"),
    ("abmetric.F_eval.self_s", "s/job", "lower"),
    ("abmetric.spray_ab.calls", "calls/job", "lower"),
    ("abmetric.spray_ab.points_per_call", "points/call", "higher"),
    ("abmetric.spray_ab.self_s", "s/job", "lower"),
    ("abmetric.qtp.self_s", "s/job", "lower"),
    ("abmetric.assemble.self_s", "s/job", "lower"),
    ("deform.field_eval.calls", "calls/job", "lower"),
    ("deform.field_eval.self_s", "s/job", "lower"),
    ("models.build_model.calls", "calls/job", "lower"),
    ("models.build_model.self_s", "s/job", "lower"),
    ("flatness.verify_flatness.self_s", "s/job", "lower"),
    ("flatness.integrate_geodesics.self_s", "s/job", "lower"),
    ("flatness.rk4.lane_steps", "steps/job", "lower"),
    ("flatness.rk4.active_ratio", "ratio", "higher"),
    ("flatness.left_domain", "traces/job", "lower"),
    ("classify.invariants.self_s", "s/job", "lower"),
    ("classify.reduce_quadruple.self_s", "s/job", "lower"),
    ("exprfield.field_eval.calls", "calls/job", "lower"),
    ("exprfield.field_eval.self_s", "s/job", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.command.self_s", "s/job", "lower"),
    ("report.write_json.self_s", "s/job", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "finslerlab" or name.startswith("finslerlab."))]


class Tracer:
    """Records spans of wrapped calls; ``job`` tags them (-1 outside jobs)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # (id, name, start, end, parent id, job, self time)
        self.counts = defaultdict(float)  # (span name, key) -> total over job spans
        self.job = -1
        self._next_id = 0
        self._stack = []         # [span id, time covered by children] per open span
        self._patches = []       # (object, attribute, replaced value)

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, name, fn, counter=None):
        """``fn`` recording one span per call, plus counts from ``counter``."""
        stack, spans, clock, counts = self._stack, self.spans, self.clock, self.counts

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, name, start, end, parent, self.job, dur - frame[1]))
            if counter is not None and self.job >= 0:
                for key, value in counter(args, result):
                    counts[name, key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, name, fn):
        """``fn`` counting its calls without a span (its time stays in the caller)."""
        counts = self.counts

        def counted(*args, **kwargs):
            if self.job >= 0:
                counts[name, "calls"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def wrap_field_maker(self, name, fn):
        """``fn`` whose newly made fields evaluate through a ``name`` span."""

        def wrap_field(fld):
            if isinstance(fld, MetricField):
                return dataclasses.replace(fld, matrix=self.wrap(name, fld.matrix))
            if isinstance(fld, OneFormField):
                return dataclasses.replace(fld, covector=self.wrap(name, fld.covector))
            return fld

        def maker(*args, **kwargs):
            out = fn(*args, **kwargs)
            given = {id(a) for a in args} | {id(v) for v in kwargs.values()}
            if isinstance(out, tuple):
                return tuple(f if id(f) in given else wrap_field(f) for f in out)
            return wrap_field(out)

        maker.__wrapped__ = fn
        return maker

    # -- installing ---------------------------------------------------------------

    def _patch(self, obj, attr, new):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _patch_everywhere(self, orig, new):
        for ns in _namespaces():
            for key, val in list(vars(ns).items()):
                if val is orig:
                    self._patch(ns, key, new)

    def install(self):
        import finslerlab.cli  # noqa: F401  (its bindings must exist before patching)

        mods = {name.rsplit(".", 1)[-1]: m for name, m in sys.modules.items()
                if m is not None and name.startswith("finslerlab.")}
        for home, attr, name, counter in FUNCTIONS:
            orig = getattr(mods[home], attr)
            self._patch_everywhere(orig, self.wrap(name, orig, counter))
        for home, attrs, name in FIELD_MAKERS:
            for attr in attrs:
                orig = getattr(mods[home], attr)
                self._patch_everywhere(orig, self.wrap_field_maker(name, orig))
        quad = mods["phifuncs"].quad
        self._patch_everywhere(quad, self.count_calls("phifuncs.quad", quad))

        def points(a, r):
            return (("points", int(np.size(a[1]))),)

        for cls_name in PHI_CLASSES:
            cls = getattr(mods["phifuncs"], cls_name)
            self._patch(cls, "values", self.wrap(f"phifuncs.values.{cls_name}",
                                                 cls.values, points))
        for cmd in mods["cli"].main.commands.values():
            self._patch(cmd, "callback", self.wrap("cli.command", cmd.callback))

    def uninstall(self):
        while self._patches:
            obj, attr, old = self._patches.pop()
            setattr(obj, attr, old)

    # -- results ------------------------------------------------------------------

    def layer_metrics(self, jobs: int, overhead_ratio: float, import_s: float) -> dict:
        """Every PER_LAYER metric, per job over the spans of jobs 0..jobs-1."""
        calls = Counter()
        self_s = defaultdict(float)
        for _, name, _, _, _, job, own in self.spans:
            if job >= 0:
                calls[name] += 1
                self_s[name] += own
        counts = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for metric, _, _ in PER_LAYER:
            span, key = metric.rsplit(".", 1)
            if key == "calls":
                value = calls[span] + counts[span, "calls"]
            elif key == "self_s":
                value = self_s[span]
            elif key == "points":
                value = counts[span, "points"]
            else:
                continue
            out[metric] = value / jobs
        out["jets.seed_pair.seeds"] = ratio(counts["jets.seed_pair", "seeds"],
                                            calls["jets.seed_pair"])
        spray = "abmetric.spray_ab"
        out[spray + ".points_per_call"] = ratio(counts[spray, "points"], calls[spray])
        rk4 = "flatness.integrate_geodesics"
        out["flatness.rk4.lane_steps"] = counts[rk4, "lane_steps"] / jobs
        out["flatness.rk4.active_ratio"] = ratio(counts[rk4, "useful_steps"],
                                                 counts[rk4, "lane_steps"])
        out["flatness.left_domain"] = counts[rk4, "left_domain"] / jobs
        out["cli.import_s"] = import_s
        out["trace.overhead_ratio"] = overhead_ratio
        return {metric: out[metric] for metric, _, _ in PER_LAYER}

    def write_spans(self, path):
        """All spans as gzip'd CSV, ordered by span id."""
        import gzip

        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,job,self_s\n")
            for s in sorted(self.spans):
                fh.write("%d,%s,%r,%r,%d,%d,%r\n" % s)
