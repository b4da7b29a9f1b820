"""Query kinds: how a spec becomes powerpoly calls, and how an answer is checked.

Each kind has four parts:

* prepare(spec, workdir) builds the inputs the program receives (untimed);
* run(inputs, counter) makes the timed calls into powerpoly's public
  functions, through their modules so that trace wrappers see them;
* answer(inputs, result) reduces the result to canonical JSON data, which
  is compared with the reference answer recorded for the spec;
* check(inputs, result) runs cheap independent checks and returns a
  failure message or None.

Only run() is timed.  Calls go through module attributes (`groebner.
buchberger_reduced`, not an imported name) so that the traced run's
wrappers, installed on those attributes, record them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from math import lcm

import powerpoly.cli as cli
import powerpoly.groebner as groebner
import powerpoly.hypotheses as hypotheses
import powerpoly.parser as parser
import powerpoly.power as power
import powerpoly.threshold as threshold
import powerpoly.umpu as umpu
from powerpoly.polynomial import MonomialOrder

from workloads import spec_key


class QueryFailed(Exception):
    """The program returned without raising but reported a failure."""


def digest(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _text(poly, names) -> str:
    return parser.format_polynomial(poly, names)


def _points(values) -> list[list[str]]:
    return [[str(v) for v in p] for p in values]


def _vertices_sha(vertices) -> str:
    return digest(_points(vertices))


def _vertex_failure(poly, vertices) -> str | None:
    """Every vertex satisfies A v <= b with at least dim tight rows."""
    a, b = poly.one_sided()
    rows = []
    for coeffs, rhs in zip(a, b):
        den = lcm(*(Fraction(x).denominator for x in list(coeffs) + [rhs]))
        rows.append(([int(x * den) for x in coeffs], int(rhs * den)))
    for v in vertices:
        den = lcm(*(x.denominator for x in v))
        scaled = [int(x * den) for x in v]
        tight = 0
        for coeffs, rhs in rows:
            lhs = sum(c * x for c, x in zip(coeffs, scaled) if c)
            if lhs > rhs * den:
                return f"vertex {_points([v])[0]} violates A v <= b"
            tight += lhs == rhs * den
        if tight < poly.dim:
            return f"vertex {_points([v])[0]} has {tight} < {poly.dim} tight rows"
    return None


def _dominates(x, y) -> bool:
    return all(a >= b for a, b in zip(x, y))


# -- threshold and separating queries ------------------------------------------


def _prepare_hypothesis(spec, workdir):
    return {"hypothesis": spec["hypothesis"]}


def _gradient_evidence(hyp) -> dict:
    """Generator gradients at sampled null points, as `powerpoly threshold` reports."""
    try:
        samples = hypotheses.sample_null_points(hyp, 10, seed=7)
    except (ValueError, NotImplementedError):
        return {"checked_points": 0, "nonvanishing_at_all_points": None}
    ok = all(
        any(g.derivative(i).evaluate(point) for i in range(g.nvars))
        for point in samples
        for g in hyp.generators
    )
    return {"checked_points": len(samples), "nonvanishing_at_all_points": ok}


def _run_threshold(inputs, counter):
    hyp = hypotheses.build_hypothesis(inputs["hypothesis"])
    if hyp.family == "rank_lt":
        p = hyp.params
        report = threshold.rank_threshold(p["p"], p["q"], p["r"])
        basis, names = None, list(hyp.names)
    else:
        basis = groebner.buchberger_reduced(
            hyp.substituted_generators(), MonomialOrder.GREVLEX, counter
        )
        report = threshold.sos_bounds(basis, hypothesis=hyp, counter=counter)
        names = hyp.substituted_names()
    payload = {
        "family": hyp.family,
        "ntub_bound": report.ntub_bound,
        "sub_bound": report.sub_bound,
        "cut_out_degree": report.cut_out_degree,
        "ntub_witness": _text(report.ntub_witness, names),
        "sub_witness": _text(report.sub_witness, names),
        "exactness": report.exactness,
        "gradient_evidence": _gradient_evidence(hyp),
    }
    return {"hyp": hyp, "basis": basis, "report": report, "payload": payload, "names": names}


def _answer_threshold(inputs, result):
    out = dict(result["payload"])
    if result["basis"] is not None:
        out["basis"] = [_text(g, result["names"]) for g in result["basis"].elements]
    return out


def _check_threshold(inputs, result):
    hyp, basis = result["hyp"], result["basis"]
    if basis is not None:
        for g in hyp.substituted_generators():
            if not groebner.ideal_membership(g, basis):
                return "a generator does not reduce to zero modulo the returned basis"
        return None
    witness = result["report"].sub_witness
    for point in hypotheses.sample_null_points(hyp, 5, seed=11):
        if witness.evaluate(point) != 0:
            return "the SUB witness does not vanish on a null point"
    return None


def _run_polytope_exists(inputs, counter):
    hyp = hypotheses.build_hypothesis(inputs["hypothesis"])
    verdict = hypotheses.polytope_existence(hyp.polytope_a, hyp.polytope_b, hyp.k)
    names = list(hyp.names[: hyp.k - 1])
    payload = {"exists": verdict.exists}
    if verdict.exists:
        payload["separating"] = _text(verdict.witness, names)
    else:
        payload["failing_pair"] = list(verdict.failing_pair)
        payload["witness_point"] = [str(v) for v in verdict.witness_point]
    return {"hyp": hyp, "verdict": verdict, "payload": payload}


def _answer_polytope_exists(inputs, result):
    return result["payload"]


def _check_polytope_exists(inputs, result):
    hyp, verdict = result["hyp"], result["verdict"]
    rows, rhs = hyp.polytope_a, hyp.polytope_b
    if verdict.exists:
        if verdict.witness.total_degree() != len(rows):
            return "separating product has the wrong degree"
        return None
    x = verdict.witness_point
    values = [sum(a * v for a, v in zip(row, x)) for row in rows]
    i, j = verdict.failing_pair
    if values[i] != rhs[i] or values[j] != rhs[j]:
        return "witness point is off the failing pair of facets"
    if any(v < b for v, b in zip(values, rhs)):
        return "witness point lies outside P0"
    if any(v <= 0 for v in x) or sum(x) >= 1:
        return "witness point is not interior to the simplex"
    return None


# -- UMPU search and coefficient-polytope vertices -------------------------------


def _prepare_principal(spec, workdir):
    """f given as text, or as the generator of a sphere hypothesis."""
    inputs = {"n": spec["n"]}
    if "alpha" in spec:
        inputs["alpha"] = Fraction(spec["alpha"])
    if "sphere" in spec:
        inputs["sphere"] = {"kind": "sphere", "params": spec["sphere"]}
        inputs["names"] = [f"p{i + 1}" for i in range(spec["sphere"]["k"])]
    else:
        inputs["f"] = spec["f"]
        inputs["names"] = spec["vars"]
    return inputs


def _generator(inputs):
    if "sphere" in inputs:
        return hypotheses.build_hypothesis(inputs["sphere"]).generators[0]
    return parser.parse_polynomial(inputs["f"], inputs["names"])


def _run_umpu(inputs, counter):
    f = _generator(inputs)
    verdict = umpu.umpu_search(f, inputs["n"], inputs["alpha"], counter)
    h_star = None if verdict.h_star is None else _text(verdict.h_star, inputs["names"])
    return {"f": f, "verdict": verdict, "h_star": h_star}


def _answer_umpu(inputs, result):
    verdict = result["verdict"]
    return {
        "status": verdict.status,
        "h_star": result["h_star"],
        "failing_layer": verdict.failing_layer,
        "certificate": None if verdict.certificate is None else _points(verdict.certificate),
        "vertex_count": len(verdict.c_vertices),
        "vertices_sha256": _vertices_sha(verdict.c_vertices),
    }


def _check_umpu(inputs, result):
    poly = umpu.coefficient_polytope(result["f"], inputs["n"], inputs["alpha"])
    return _vertex_failure(poly, result["verdict"].c_vertices)


def _run_vertices(inputs, counter):
    poly = umpu.coefficient_polytope(_generator(inputs), inputs["n"], inputs["alpha"])
    poly = umpu.enumerate_vertices(poly, counter)
    return {"poly": poly, "max": umpu.componentwise_max(poly.vertices)}


def _answer_vertices(inputs, result):
    cw = result["max"]
    return {
        "vertex_count": len(result["poly"].vertices),
        "vertices_sha256": _vertices_sha(result["poly"].vertices),
        "max_vertex": None if cw.vertex is None else [str(v) for v in cw.vertex],
        "certificate": None if cw.certificate is None else _points(cw.certificate),
    }


def _check_vertices(inputs, result):
    poly, cw = result["poly"], result["max"]
    failure = _vertex_failure(poly, poly.vertices)
    if failure:
        return failure
    if cw.vertex is not None:
        if not all(_dominates(cw.vertex, v) for v in poly.vertices):
            return "the componentwise maximum does not dominate every vertex"
    else:
        x, y = cw.certificate
        if _dominates(x, y) or _dominates(y, x):
            return "the no-maximum certificate pair is comparable"
    return None


# -- tests and power ---------------------------------------------------------------


def build_test(phi_spec):
    """The randomized test a power query's spec names (input generation)."""
    n, k = phi_spec["n"], phi_spec["k"]
    rng = random.Random(f"phi:{n}:{k}:{phi_spec['seed']}")
    values = {x: Fraction(rng.randrange(17), 16) for x in power.count_vectors(n, k)}
    return power.TestFunction(n, k, values)


def _prepare_test(spec, workdir):
    inputs = {"phi": build_test(spec["phi"])}
    if "point" in spec:
        inputs["point"] = [Fraction(v) for v in spec["point"]]
    if "reps" in spec:
        inputs["reps"], inputs["seed"] = spec["reps"], spec["seed"]
    return inputs


def _poly_sha(poly, names) -> str:
    return digest(_text(poly, names))


def _run_principal_umpu(inputs, counter):
    f = _generator(inputs)
    res = threshold.principal_umpu(f, inputs["n"], inputs["alpha"])
    return {"res": res, "phi": power.recover_test(res.beta)}


def _answer_principal_umpu(inputs, result):
    res, phi = result["res"], result["phi"]
    return {
        "c_alpha": str(res.c_alpha),
        "beta_sha256": _poly_sha(res.beta.poly, inputs["names"]),
        "test_sha256": digest([[list(x), str(v)] for x, v in phi.items()]),
    }


def _check_principal_umpu(inputs, result):
    beta, phi = result["res"].beta, result["phi"]
    if not power.box_check(beta.poly, beta.n, beta.k):
        return "beta leaves the coefficient box"
    if power.recover_test(power.test_to_power(phi)) != phi:
        return "recover_test(test_to_power(phi)) != phi"
    return None


def _run_round_trip(inputs, counter):
    beta = power.test_to_power(inputs["phi"])
    return {"beta": beta, "back": power.recover_test(beta)}


def _answer_round_trip(inputs, result):
    beta = result["beta"]
    return {"beta_sha256": _poly_sha(beta.poly, [f"p{i + 1}" for i in range(beta.k)])}


def _check_round_trip(inputs, result):
    if result["back"] != inputs["phi"]:
        return "recover_test(test_to_power(phi)) != phi"
    return None


def _run_exact_power(inputs, counter):
    return power.exact_power(inputs["phi"], inputs["point"])


def _answer_exact_power(inputs, result):
    return {"power": str(result)}


def _check_exact_power(inputs, result):
    # Independent path: evaluate the power polynomial instead of summing phi.
    if power.test_to_power(inputs["phi"]).poly.evaluate(inputs["point"]) != result:
        return "exact power disagrees with the power polynomial's value"
    return None


def _run_monte_carlo(inputs, counter):
    point = [float(v) for v in inputs["point"]]
    return power.monte_carlo_power(inputs["phi"], point, inputs["reps"], inputs["seed"])


def _answer_monte_carlo(inputs, result):
    # The estimate is statistical, so the reference holds the request only;
    # the estimate itself is judged against the exact power in the check.
    return {"reps": result.reps, "seed": result.seed}


def _check_monte_carlo(inputs, result):
    exact = float(power.exact_power(inputs["phi"], inputs["point"]))
    if abs(result.estimate - exact) > 4 * result.std_error + 1e-12:
        return f"Monte-Carlo estimate {result.estimate} is not within 4 SE of {exact}"
    return None


def _run_normalize(inputs, counter):
    f = _generator(inputs)
    return power.normalize_to_power(f * f, inputs["n"], f.nvars)


def _answer_normalize(inputs, result):
    beta, a, b = result
    return {"a": str(a), "b": str(b), "power_sha256": _poly_sha(beta.poly, inputs["names"])}


def _check_normalize(inputs, result):
    beta, a, b = result
    if not power.box_check(beta.poly, beta.n, beta.k):
        return "normalized polynomial leaves the coefficient box"
    hyp = hypotheses.build_hypothesis(inputs["sphere"])
    # The separating polynomial vanishes on P0, so the power there is a*b.
    for point in hypotheses.sample_null_points(hyp, 3, seed=5):
        if beta.poly.evaluate(point) != a * b:
            return "normalized power differs from a*b on a null point"
    return None


def _grid_points(res: int, top: Fraction, dims: int):
    axis = [Fraction(i, res - 1) * top for i in range(res)]
    grid = [()]
    for _ in range(dims):
        grid = [head + (v,) for head in grid for v in axis]
    return [p for p in grid if sum(p) <= 1]


def _prepare_power_grid(spec, workdir):
    phi = power.max_statistic_test(spec["n"], Fraction(spec["c"]))
    name = digest(spec)[:16]
    test_path = os.path.join(workdir, f"{name}.json")
    with open(test_path, "w", encoding="utf-8") as fh:
        json.dump(cli.test_to_json(phi), fh)
    top = Fraction(spec["max"])
    return {
        "phi": phi,
        "points": _grid_points(spec["res"], top, phi.k - 1),
        "argv": [
            "power-grid", "--test", test_path, "--res", str(spec["res"]),
            "--max", spec["max"], "--out", os.path.join(workdir, f"{name}.csv"),
        ],
    }


def _run_power_grid(inputs, counter):
    code = cli.main(inputs["argv"])
    if code != 0:
        raise QueryFailed(f"power-grid exited with {code}")
    with open(inputs["argv"][-1], encoding="utf-8") as fh:
        return fh.read().splitlines()


def _answer_power_grid(inputs, result):
    # Rounded so that a change of summation order in the float evaluation
    # does not count as a different answer.
    values = [round(float(line.rsplit(",", 1)[1]), 9) for line in result[1:]]
    return {"header": result[0], "rows": len(result) - 1, "values_sha256": digest(values)}


def _check_power_grid(inputs, result):
    phi, points = inputs["phi"], inputs["points"]
    header = ",".join(f"pi_{i + 1}" for i in range(phi.k - 1)) + ",power"
    if result[0] != header:
        return f"unexpected CSV header {result[0]!r}"
    if len(result) != 1 + len(points):
        return f"CSV has {len(result) - 1} rows, expected {len(points)}"
    for row in sorted({0, len(points) // 2, len(points) - 1}):
        point = list(points[row]) + [1 - sum(points[row])]
        value = float(result[row + 1].rsplit(",", 1)[1])
        if abs(value - float(power.exact_power(phi, point))) > 1e-9:
            return f"CSV row {row} differs from the exact power"
    return None


KINDS = {
    "threshold": (_prepare_hypothesis, _run_threshold, _answer_threshold, _check_threshold),
    "polytope_exists": (
        _prepare_hypothesis, _run_polytope_exists, _answer_polytope_exists, _check_polytope_exists,
    ),
    "umpu": (_prepare_principal, _run_umpu, _answer_umpu, _check_umpu),
    "vertices": (_prepare_principal, _run_vertices, _answer_vertices, _check_vertices),
    "principal_umpu": (
        _prepare_principal, _run_principal_umpu, _answer_principal_umpu, _check_principal_umpu,
    ),
    "round_trip": (_prepare_test, _run_round_trip, _answer_round_trip, _check_round_trip),
    "exact_power": (_prepare_test, _run_exact_power, _answer_exact_power, _check_exact_power),
    "monte_carlo": (_prepare_test, _run_monte_carlo, _answer_monte_carlo, _check_monte_carlo),
    "normalize": (_prepare_principal, _run_normalize, _answer_normalize, _check_normalize),
    "power_grid": (_prepare_power_grid, _run_power_grid, _answer_power_grid, _check_power_grid),
}


class Query:
    """One prepared spec: inputs built, ready to run and verify."""

    __slots__ = ("spec", "key", "kind", "inputs")

    def __init__(self, spec: dict, workdir: str):
        self.spec = spec
        self.key = spec_key(spec)
        self.kind = spec["kind"]
        self.inputs = KINDS[self.kind][0](spec, workdir)

    def run(self, counter):
        return KINDS[self.kind][1](self.inputs, counter)

    def answer(self, result) -> dict:
        return KINDS[self.kind][2](self.inputs, result)

    def check(self, result) -> str | None:
        return KINDS[self.kind][3](self.inputs, result)
