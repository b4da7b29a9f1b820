"""Spans around powerpoly's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function with a wrapper wherever a
powerpoly module binds it, including names other modules import at load
time (`powerpoly.umpu.solve_lp`, `powerpoly.groebner.reduce`, ...), so that
nested calls get spans of their own.  Each span records its name, the
module whose binding was called (which splits `solve_lp` by caller), start,
end, parent span and query id.  Spans stay in memory until the run ends.
`uninstall()` restores the original functions.
"""

from __future__ import annotations

import json
import sys
import time

import powerpoly.cli
import powerpoly.groebner
import powerpoly.hypotheses
import powerpoly.linprog
import powerpoly.parser
import powerpoly.polytope
import powerpoly.power
import powerpoly.threshold
import powerpoly.umpu
from powerpoly.polynomial import Polynomial


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class _LPInfo:
    @staticmethod
    def before(args, kwargs):
        return (len(_arg(args, kwargs, 2, "constraints")), _arg(args, kwargs, 0, "nvars"))

    @staticmethod
    def after(state, result):
        rows, cols = state
        return {"rows": rows, "cols": cols, "optimal": result.is_optimal}


class _ReduceInfo:
    @staticmethod
    def before(args, kwargs):
        return None

    @staticmethod
    def after(state, result):
        return {"nonzero": not result[1].is_zero()}


class _DDInfo:
    @staticmethod
    def before(args, kwargs):
        counter = _arg(args, kwargs, 2, "counter")
        return counter, (counter.steps if counter is not None else 0)

    @staticmethod
    def after(state, result):
        counter, steps = state
        return {
            "steps": (counter.steps - steps) if counter is not None else 0,
            "vertices": len(result),
        }


#: (module, attribute, span name, info hook); module None means a method of
#: Polynomial.  Kernels (`powerpoly._kernels`) run inside these spans and
#: count toward the polynomial layer's and the callers' self time.
TARGETS = [
    (powerpoly.parser, "parse_polynomial", "parser.parse_polynomial", None),
    (powerpoly.parser, "format_polynomial", "parser.format_polynomial", None),
    (None, "__mul__", "polynomial.mul", None),
    (None, "__pow__", "polynomial.pow", None),
    (None, "homogenize", "polynomial.homogenize", None),
    (None, "evaluate_float", "polynomial.evaluate_float", None),
    (powerpoly.groebner, "buchberger_reduced", "groebner.buchberger_reduced", None),
    (powerpoly.groebner, "reduce", "groebner.reduce", _ReduceInfo),
    (powerpoly.groebner, "radical_membership", "groebner.radical_membership", None),
    (powerpoly.hypotheses, "build_hypothesis", "hypotheses.build_hypothesis", None),
    (powerpoly.hypotheses, "polytope_existence", "hypotheses.polytope_existence", None),
    (powerpoly.hypotheses, "sample_null_points", "hypotheses.sample_null_points", None),
    (powerpoly.linprog, "solve_lp", "linprog.solve_lp", _LPInfo),
    (powerpoly.polytope, "enumerate_vertices_dd", "polytope.enumerate_vertices_dd", _DDInfo),
    (powerpoly.threshold, "sos_bounds", "threshold.sos_bounds", None),
    (powerpoly.threshold, "rank_threshold", "threshold.rank_threshold", None),
    (powerpoly.threshold, "principal_umpu", "threshold.principal_umpu", None),
    (powerpoly.umpu, "coefficient_polytope", "umpu.coefficient_polytope", None),
    (powerpoly.umpu, "enumerate_vertices", "umpu.enumerate_vertices", None),
    (powerpoly.umpu, "componentwise_max", "umpu.componentwise_max", None),
    (powerpoly.umpu, "convex_peeling", "umpu.convex_peeling", None),
    (powerpoly.umpu, "umpu_search", "umpu.umpu_search", None),
    (powerpoly.power, "box_check", "power.box_check", None),
    (powerpoly.power, "test_to_power", "power.test_to_power", None),
    (powerpoly.power, "recover_test", "power.recover_test", None),
    (powerpoly.power, "exact_power", "power.exact_power", None),
    (powerpoly.power, "monte_carlo_power", "power.monte_carlo_power", None),
    (powerpoly.power, "normalize_to_power", "power.normalize_to_power", None),
    (powerpoly.cli, "main", "cli.main", None),
    (powerpoly.cli, "cmd_power_grid", "cli.power_grid", None),
]


class Tracer:
    def __init__(self):
        #: (name, site, start, end, parent index, query id, info or None)
        self.spans: list = []
        self.active = False
        self._stack: list[int] = []
        self._qid = None
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, fn, name, site, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            state = hook.before(args, kwargs) if hook else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, site, start, clock(), parent, self._qid, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            info = hook.after(state, result) if hook else None
            spans[index] = (name, site, start, end, parent, self._qid, info)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "powerpoly" or key.startswith("powerpoly."))
        ]
        for module, attr, name, hook in TARGETS:
            if module is None:
                original = Polynomial.__dict__[attr]
                wrapper = self._wrap(original, name, "polynomial", hook)
                for alias, value in list(Polynomial.__dict__.items()):
                    if value is original:  # __rmul__ is __mul__
                        self._restore.append((Polynomial, alias, original))
                        setattr(Polynomial, alias, wrapper)
                continue
            original = getattr(module, attr)
            for binder in modules:
                for alias, value in list(vars(binder).items()):
                    if value is original:
                        site = binder.__name__.rsplit(".", 1)[-1]
                        self._restore.append((binder, alias, original))
                        setattr(binder, alias, self._wrap(original, name, site, hook))
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, alias, original in reversed(self._restore):
            setattr(owner, alias, original)
        self._restore.clear()

    # -- query roots ---------------------------------------------------------------

    def begin(self, qid, kind):
        """Open the root span of one query; its self time is the glue outside powerpoly."""
        self._qid = qid
        self._stack.append(len(self.spans))
        self.spans.append((f"query.{kind}", "perfbench", time.perf_counter(), None, -1, qid, None))

    def end(self):
        index = self._stack.pop()
        name, site, start, _, parent, qid, info = self.spans[index]
        self.spans[index] = (name, site, start, time.perf_counter(), parent, qid, info)
        self._qid = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "site", "start", "end", "parent", "query", "info"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

