"""Metric definitions and the per-layer figures of a traced run.

The names, units, directions and bounds here are the ones BENCHMARK.json
lists; the benchmark's tests check that the two agree.
"""

from __future__ import annotations

from collections import defaultdict

from stats import layer_totals

#: (name, unit, better, bound).  The bound is the share of the parent's
#: median by which the metric may worsen before a change counts as a
#: regression.  Times are in reference-host seconds (calibrate.py); in
#: measured seconds, a shared 2-vCPU virtual machine slows the same query
#: by up to a factor of two from one run to the next.  Memory repeats to
#: 1%.  failed_frac is printed and recorded but is no metric here: it is 0
#: at a healthy commit, and a share of 0 bounds nothing; a failed query
#: already makes the run exit non-zero.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_tail_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_CALLS_AND_SELF = [
    "groebner.buchberger_reduced",
    "groebner.reduce",
    "groebner.radical_membership",
    "linprog.solve_lp",
    "polytope.enumerate_vertices_dd",
    "power.box_check",
    "power.test_to_power",
    "power.recover_test",
    "power.exact_power",
    "power.monte_carlo_power",
    "power.normalize_to_power",
    "polynomial.mul",
    "polynomial.pow",
    "polynomial.homogenize",
    "polynomial.evaluate_float",
]
_SELF_ONLY = [
    "threshold.sos_bounds",
    "threshold.principal_umpu",
    "umpu.coefficient_polytope",
    "umpu.convex_peeling",
    "umpu.componentwise_max",
    "umpu.umpu_search",
    "cli.power_grid",
    "parser.parse_polynomial",
    "parser.format_polynomial",
    "hypotheses.build_hypothesis",
    "hypotheses.polytope_existence",
    "hypotheses.sample_null_points",
]
_VERDICTS = ("exists", "not_exists", "candidate")
#: solve_lp's caller, by the module whose binding was called.
_LP_SITES = {"layer_self_s": "umpu", "hull_self_s": "polytope", "existence_self_s": "hypotheses"}

#: (name, unit, better)
PER_LAYER = (
    [(f"{n}.calls", "count", "lower") for n in _CALLS_AND_SELF]
    + [(f"{n}.self_s", "s", "lower") for n in _CALLS_AND_SELF + _SELF_ONLY]
    + [
        ("groebner.reduce.nonzero_frac", "frac", "higher"),
        ("groebner.steps", "count", "lower"),
        ("linprog.solve_lp.rows_mean", "rows", "lower"),
        ("linprog.solve_lp.cols_mean", "cols", "lower"),
        ("linprog.solve_lp.optimal_frac", "frac", "higher"),
    ]
    + [(f"linprog.solve_lp.{field}", "s", "lower") for field in _LP_SITES]
    + [
        ("polytope.dd.steps", "count", "lower"),
        ("polytope.dd.vertices", "count", "higher"),
        ("polytope.dd.vertices_per_kstep", "1/kstep", "higher"),
        ("umpu.steps", "count", "lower"),
    ]
    + [(f"umpu.verdict.{v}", "count", "higher") for v in _VERDICTS]
    + [
        ("cli.power_grid.cells_per_s", "1/s", "higher"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)


def per_layer(spans, records, overhead_frac) -> dict[str, float]:
    """Per-layer figures from the spans and per-query records of a traced pass.

    `records` hold, per query: qid, kind, steps (of the StepCounter the
    benchmark passed), status (UMPU verdict) and cells (power-grid cells).
    """
    calls, self_s, info = layer_totals(spans)

    def total(table, name, site=None, field=None):
        out = 0
        for (span_name, span_site), value in table.items():
            if span_name == name and site in (None, span_site):
                out += value[field] if field else value
        return out

    out: dict[str, float] = {}
    for name in _CALLS_AND_SELF:
        out[f"{name}.calls"] = total(calls, name)
    for name in _CALLS_AND_SELF + _SELF_ONLY:
        out[f"{name}.self_s"] = total(self_s, name)

    reduces = out["groebner.reduce.calls"]
    out["groebner.reduce.nonzero_frac"] = (
        total(info, "groebner.reduce", field="nonzero") / reduces if reduces else 0.0
    )
    kinds = {r["qid"]: r["kind"] for r in records}
    out["groebner.steps"] = sum(r["steps"] for r in records if r["kind"] == "threshold")

    lps = out["linprog.solve_lp.calls"]
    for field, stat in (("rows", "rows_mean"), ("cols", "cols_mean"), ("optimal", "optimal_frac")):
        value = total(info, "linprog.solve_lp", field=field)
        out[f"linprog.solve_lp.{stat}"] = value / lps if lps else 0.0
    for stat, site in _LP_SITES.items():
        out[f"linprog.solve_lp.{stat}"] = total(self_s, "linprog.solve_lp", site=site)

    dd_steps = total(info, "polytope.enumerate_vertices_dd", field="steps")
    vertices = total(info, "polytope.enumerate_vertices_dd", field="vertices")
    out["polytope.dd.steps"] = dd_steps
    out["polytope.dd.vertices"] = vertices
    out["polytope.dd.vertices_per_kstep"] = 1000.0 * vertices / dd_steps if dd_steps else 0.0

    dd_in_umpu = 0
    for span in spans:
        if span[0] == "polytope.enumerate_vertices_dd" and kinds.get(span[5]) == "umpu":
            dd_in_umpu += span[6]["steps"] if span[6] else 0
    umpu_steps = sum(r["steps"] for r in records if r["kind"] == "umpu")
    out["umpu.steps"] = umpu_steps - dd_in_umpu
    verdicts = defaultdict(int)
    for r in records:
        if r.get("status"):
            verdicts[r["status"]] += 1
    for v in _VERDICTS:
        out[f"umpu.verdict.{v}"] = verdicts[v]

    grid_time = sum(s[3] - s[2] for s in spans if s[0] == "cli.power_grid")
    cells = sum(r.get("cells", 0) for r in records)
    out["cli.power_grid.cells_per_s"] = cells / grid_time if grid_time else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out
