"""Span tracing of qsphere from outside the program.

`Tracer.install` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent) in memory; `uninstall`
puts the originals back.  A function imported by name into another
module is wrapped at every binding, so `mkdist.lip_norm` is traced like
`specnorm.lip_norm`.  Two hot paths get lighter wrappers than spans:
`Algebra.mono_mul` only counts calls and product-cache hits, and the
arithmetic methods of the scalar classes count operations and add their
time to the enclosing span.  A span's self time is its duration minus
its child spans and the scalar arithmetic under it; a module's self time
is the sum over its spans.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

# (span name, module, attribute); an attribute with a dot names a method
SPANS = [
    ("specnorm.dominant_sigma", "specnorm", "dominant_sigma"),
    ("specnorm.lip_norm", "specnorm", "lip_norm"),
    ("specnorm.operator_norm", "specnorm", "operator_norm"),
    ("specnorm.represent_element", "specnorm", "represent_element"),
    ("specnorm.lip_norm_gram_oracle", "specnorm", "lip_norm_gram_oracle"),
    ("mkdist.estimate_distance", "mkdist", "estimate_distance"),
    ("mkdist.ascent", "mkdist", "_ascend"),
    ("mkdist.shift_sigma", "mkdist", "_ShiftDenominator.sigma_and_grad"),
    ("mkdist.approx_inequality_check", "mkdist", "approx_inequality_check"),
    ("mkdist.theorem_b_approximant", "mkdist", "theorem_b_approximant"),
    ("berezin.via_coproduct", "berezin", "Berezin.via_coproduct"),
    ("berezin.via_spectrum", "berezin", "Berezin.via_spectrum"),
    ("berezin.spectrum", "berezin", "Berezin.spectrum"),
    ("berezin.h_twisted", "berezin", "Berezin.h_twisted"),
    ("gns.fuzzy_basis", "gns", "GnsContext.fuzzy_basis"),
    ("gns.spin_split", "gns", "GnsContext.spin_split"),
    ("uq_actions.init", "uq_actions", "UqActions.__init__"),
    ("uq_actions.delta_matrix", "uq_actions", "UqActions.delta_matrix"),
    ("uq_actions.dirac_components", "uq_actions", "UqActions.dirac_components"),
    ("qhopf.haar_table", "qhopf", "Algebra._solve_haar_table"),
    ("qhopf.coproduct", "qhopf", "Algebra.coproduct"),
    ("exprs.parse_expression", "exprs", "parse_expression"),
    ("exprs.canonical_json", "exprs", "canonical_json"),
    ("cli.main", "cli", "main"),
    ("session.build_algebra", "session", "SessionConfig.build_algebra"),
    ("suites.theoremb_rows", "suites", "theoremb_rows"),
]

# spans whose calls are reported beside their time
COUNTED = {
    "specnorm.dominant_sigma", "specnorm.lip_norm", "specnorm.operator_norm",
    "mkdist.estimate_distance", "mkdist.ascent", "mkdist.shift_sigma",
    "berezin.via_coproduct", "berezin.h_twisted", "uq_actions.delta_matrix",
    "qhopf.coproduct", "cli.main",
}

# spans that contain other spans; their self time is reported
WITH_CHILDREN = [
    "specnorm.lip_norm", "specnorm.operator_norm", "mkdist.estimate_distance",
    "mkdist.approx_inequality_check", "mkdist.theorem_b_approximant",
    "berezin.via_spectrum", "berezin.spectrum", "gns.spin_split",
    "uq_actions.init", "cli.main", "suites.theoremb_rows",
]

SCALAR_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
              "conjugate")


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, start, end, parent index]
        self._stack: list = []
        self._patches: list = []       # (owner, attribute, original)
        self._scalar_under = defaultdict(float)   # span index -> seconds
        self._in_scalar = False
        self.scalar_ops = 0
        self.scalar_s = 0.0
        self.dims: list = []
        self.unconverged = 0
        self.estimates = 0
        self.wins = 0
        self.mono_calls = 0
        self.mono_lookups = 0
        self.mono_hits = 0
        self.max_entries = {"prod": 0, "coprod": 0}
        self._algebras: list = []

    # -- wrapping ------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_specnorm_dominant_sigma(self, args, out):
        self.dims.append(args[0].shape[1])
        if not out[1]:
            self.unconverged += 1

    def _after_mkdist_estimate_distance(self, args, out):
        self.estimates += 1
        if not out.degraded:
            self.wins += 1

    def _after_session_build_algebra(self, args, out):
        self._algebras.append(weakref.ref(out, self._algebras.remove))
        weakref.finalize(out, self._record_entries, out._prod_cache,
                         out._coprod_cache)

    def _record_entries(self, prod: dict, coprod: dict) -> None:
        self.max_entries["prod"] = max(self.max_entries["prod"], len(prod))
        self.max_entries["coprod"] = max(self.max_entries["coprod"],
                                         len(coprod))

    def _counting_mono_mul(self, fn, unit):
        tracer = self

        def mono_mul(alg, m1, m2):
            tracer.mono_calls += 1
            if m1 != unit and m2 != unit:
                tracer.mono_lookups += 1
                if (m1, m2) in alg._prod_cache:
                    tracer.mono_hits += 1
            return fn(alg, m1, m2)

        mono_mul.__wrapped__ = fn
        return mono_mul

    def _scalar_op(self, fn):
        """Count an arithmetic call and time it; a call made inside another
        (division multiplies) belongs to the outer one."""
        tracer, stack, under = self, self._stack, self._scalar_under
        clock = time.perf_counter

        def op(*args):
            if tracer._in_scalar:
                return fn(*args)
            tracer._in_scalar = True
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                tracer._in_scalar = False
                tracer.scalar_ops += 1
                tracer.scalar_s += dt
                if stack:
                    under[stack[-1]] += dt

        op.__wrapped__ = fn
        return op

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced callable at each of its bindings."""
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "qsphere"
                                        or n.startswith("qsphere."))]
        for name, modname, path in SPANS:
            mod = sys.modules["qsphere." + modname]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, attr,
                            self._span(name, owner.__dict__[attr]))
                continue
            original = getattr(mod, path)
            wrapped = self._span(name, original)
            for other in loaded:
                for attr, val in list(vars(other).items()):
                    if val is original:
                        self._patch(other, attr, wrapped)
        qhopf = sys.modules["qsphere.qhopf"]
        self._patch(qhopf.Algebra, "mono_mul",
                    self._counting_mono_mul(qhopf.Algebra.mono_mul,
                                            qhopf.UNIT))
        scalars = sys.modules["qsphere.scalars"]
        for cls in (scalars.ExactScalar, scalars.FloatScalar):
            for attr in SCALAR_OPS:
                self._patch(cls, attr, self._scalar_op(cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reports ---------------------------------------------------------------

    def _totals(self):
        """Per span name: calls, outermost time and self time."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        child_time = defaultdict(float)
        spans = self.spans
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for idx, (name, t0, t1, parent) in enumerate(spans):
            calls[name] += 1
            own[name] += (t1 - t0) - child_time[idx] - self._scalar_under[idx]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total[name] += t1 - t0
        return calls, total, own

    def metrics(self) -> dict:
        """Every per-layer figure as name -> (value, unit)."""
        for ref in list(self._algebras):
            alg = ref()
            if alg is not None:
                self._record_entries(alg._prod_cache, alg._coprod_cache)
        calls, total, own = self._totals()
        out = {}
        for name, _mod, _path in SPANS:
            if name in COUNTED:
                out[name + ".calls"] = (calls[name], "count")
            out[name + ".s"] = (total[name], "s")
        for name in WITH_CHILDREN:
            out[name + ".self_s"] = (own[name], "s")
        dims = self.dims
        out["specnorm.dominant_sigma.dim_mean"] = (
            sum(dims) / len(dims) if dims else 0.0, "count")
        out["specnorm.dominant_sigma.unconverged"] = (self.unconverged,
                                                      "count")
        out["mkdist.search_win_ratio"] = (
            self.wins / self.estimates if self.estimates else 0.0, "ratio")
        out["mkdist.search_win_base"] = (self.estimates, "count")
        out["qhopf.mono_mul.calls"] = (self.mono_calls, "count")
        out["qhopf.prod_cache.hit_ratio"] = (
            self.mono_hits / self.mono_lookups if self.mono_lookups else 0.0,
            "ratio")
        out["qhopf.prod_cache.lookups"] = (self.mono_lookups, "count")
        out["qhopf.prod_cache.entries"] = (self.max_entries["prod"], "count")
        out["qhopf.coprod_cache.entries"] = (self.max_entries["coprod"],
                                             "count")
        out["scalars.ops"] = (self.scalar_ops, "count")
        out["scalars.self_s"] = (self.scalar_s, "s")
        modules = defaultdict(float)
        for name, seconds in own.items():
            modules[name.split(".")[0]] += seconds
        for mod in sorted({m for _n, m, _p in SPANS}):
            out[mod + ".self_s"] = (modules[mod], "s")
        return out
