"""Outside-in tracing of tml's layers, for the traced run only.

install() replaces public methods on their classes and public functions
in every tml module that holds them, so nothing under src/ changes and
calls made through any import path are seen.  Three kinds of wrapper:

* span: coarse calls (one per job-level operation) are recorded as spans
  with name, start, end and parent, kept in memory and written out at
  the end;
* timed: hot calls (millions per run) only add to a per-name call count
  and self time;
* count: the hottest scalar calls (field operations, the t_power cache
  lookup) only bump a counter.

Self time of a timed or span call is its duration minus the durations of
the timed or span calls made directly inside it.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.spans = []
        self.cells = 0
        self.candidates = 0
        self.certificates = 0
        # one [child seconds, span id] frame per open timed call; the
        # bottom frame belongs to no call
        self._stack = [[0.0, None]]
        self._originals = []

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn, keep_span):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            if keep_span:
                span_id = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1]])
            frame = [0.0, span_id if keep_span else stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                calls[name] += 1
                self_s[name] += dt - frame[0]
                stack[-1][0] += dt
                if keep_span:
                    spans[span_id][1] = t0
                    spans[span_id][2] = t1
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch_method(self, cls, attr, wrapper_for):
        orig = cls.__dict__[attr]
        self._originals.append((cls, attr, orig))
        setattr(cls, attr, wrapper_for(orig))

    def _patch_function(self, module, attr, wrapper_for):
        """Replace the function in every loaded tml module that holds it."""
        orig = getattr(module, attr)
        new = wrapper_for(orig)
        for name, mod in list(sys.modules.items()):
            if name == "tml" or name.startswith("tml."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._originals.append((mod, key, orig))
                        setattr(mod, key, new)

    def install(self):
        import tml.cli as cli
        import tml.exponential as exponential
        import tml.linalg as linalg
        import tml.manifest as manifest
        import tml.ore as ore
        import tml.structure as structure
        import tml.torsion as torsion
        from tml.fields import FiniteField, Poly, RatFunc, TowerElement
        from tml.linalg import Mat
        from tml.ore import OrePoly
        from tml.subgroups import KernelSubgroup
        from tml.tmodule import TModule

        timed = lambda name: (lambda fn: self._timed(name, fn, False))
        span = lambda name: (lambda fn: self._timed(name, fn, True))

        for op in ("add", "sub", "neg", "mul", "inv"):
            self._patch_method(FiniteField, op,
                               lambda fn: self._counted("fields.fq_ops", fn))
        self._patch_method(Poly, "__divmod__", timed("fields.poly_divmod"))
        self._patch_method(Poly, "gcd", timed("fields.poly_gcd"))
        self._patch_method(Poly, "__mul__", timed("fields.poly_mul"))
        self._patch_method(RatFunc, "__init__", self._ratfunc_init)
        self._patch_method(TowerElement, "__mul__",
                           lambda fn: self._above_base("fields.ext_mul", fn))
        self._patch_method(TowerElement, "inverse",
                           lambda fn: self._above_base("fields.ext_inverse",
                                                       fn))
        self._patch_method(TowerElement, "frob", timed("fields.frob"))
        self._patch_method(Mat, "__matmul__", timed("linalg.matmul"))
        self._patch_function(linalg, "gauss_solve", self._solve)
        self._patch_method(OrePoly, "__mul__", timed("ore.compose"))
        self._patch_method(OrePoly, "evaluate", timed("ore.evaluate"))
        self._patch_function(ore, "left_multiple_witness",
                             span("ore.witness"))
        self._patch_method(TModule, "act", span("tmodule.act"))
        self._patch_method(TModule, "t_power",
                           lambda fn: self._counted("tmodule.t_power", fn))
        self._patch_method(KernelSubgroup, "stability",
                           span("subgroups.stability"))
        self._patch_function(structure, "abelian_scan",
                             span("structure.scan"))
        self._patch_function(structure, "rank_report", span("structure.scan"))
        self._patch_function(exponential, "exp_series",
                             span("exponential.series"))
        self._patch_function(exponential, "verify_functional_equation",
                             span("exponential.verify"))
        self._patch_function(torsion, "torsion_order_search", self._search)
        self._patch_function(manifest, "parse_manifest",
                             span("manifest.parse"))
        self._patch_function(cli, "main", span("cli.main"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    def _ratfunc_init(self, fn):
        inner = self._timed("fields.ratfunc_norm", fn, False)

        @functools.wraps(fn)
        def wrapper(obj, num, den, trusted=False):
            if trusted:
                return fn(obj, num, den, trusted)
            return inner(obj, num, den)
        return wrapper

    def _above_base(self, name, fn):
        inner = self._timed(name, fn, False)

        @functools.wraps(fn)
        def wrapper(obj, *args):
            if obj.tower.parent is None:
                return fn(obj, *args)
            return inner(obj, *args)
        return wrapper

    def _solve(self, fn):
        inner = self._timed("linalg.solve", fn, True)

        @functools.wraps(fn)
        def wrapper(field, a_rows, b):
            if len(b):
                ncols = (a_rows.cols if hasattr(a_rows, "cols")
                         else len(a_rows[0]))
                self.cells += len(b) * ncols
            return inner(field, a_rows, b)
        return wrapper

    def _search(self, fn):
        inner = self._timed("torsion.search", fn, True)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.candidates += out.tried
            self.certificates += hasattr(out, "order")
            return out
        return wrapper

    # -- jobs and results -----------------------------------------------------

    def job(self, kind, fn):
        """Run one job under a root span named after its kind."""
        return self._timed(f"job.{kind}", fn, True)()

    def metrics(self):
        """Every per-layer metric, named as in BENCHMARK.json."""
        out = {"fields.fq_ops": (self.counts["fields.fq_ops"], "count")}
        for name in ("fields.poly_divmod", "fields.poly_gcd",
                     "fields.ratfunc_norm", "fields.poly_mul",
                     "fields.ext_mul", "fields.ext_inverse", "fields.frob",
                     "linalg.matmul", "linalg.solve", "ore.compose",
                     "ore.evaluate", "ore.witness", "tmodule.act",
                     "subgroups.stability", "structure.scan",
                     "exponential.series", "torsion.search",
                     "manifest.parse"):
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".self_ms"] = (self.self_s[name] * 1000.0, "ms")
        out["linalg.solve.cells"] = (self.cells, "count")
        out["tmodule.t_power.calls"] = (self.counts["tmodule.t_power"],
                                        "count")
        out["exponential.verify.self_ms"] = (
            self.self_s["exponential.verify"] * 1000.0, "ms")
        out["torsion.candidates"] = (self.candidates, "count")
        out["torsion.hit_ratio"] = (
            self.certificates / self.candidates if self.candidates else 0.0,
            "ratio")
        out["cli.main.self_ms"] = (self.self_s["cli.main"] * 1000.0, "ms")
        return out

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]
