"""Batch command-line front end.

Subcommands: gb, threshold, separating, umpu, coeff-polytope,
polytope-exists, power-grid, recover-test, mc-validate.  Every command
about a null hypothesis reads it from a `--hypothesis` JSON file;
`umpu` and `coeff-polytope` take one of exactly one generator f, given
in all k coordinates, and refuse any other.  Each command
returns its artifact and its exit code, and `main` alone writes the
artifact, to stdout or `--out`: a dict as JSON stamped with
`schema_version`, or `power-grid`'s CSV text as it is.  JSON artifacts
are deterministic; exit codes separate mathematical verdicts from
failures:

    0  success
    1  error (bad input, violated precondition, usage error)
    2  analysis verdict "does not exist"
    3  step limit exceeded
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from math import comb

from powerpoly import __version__
from powerpoly.groebner import (
    StepCounter,
    StepLimitExceeded,
    buchberger_reduced,
)
from powerpoly.hypotheses import (
    NullHypothesis,
    _integer,
    _list,
    build_hypothesis,
    polytope_existence,
)
from powerpoly.parser import (
    exact_rational,
    format_polynomial,
    format_rational,
    parse_polynomial,
    parse_rational,
)
from powerpoly.polynomial import MonomialOrder, Polynomial, simplex_coefficients
from powerpoly.power import (
    PowerPolynomial,
    TestFunction,
    _support,
    exact_power,
    monte_carlo_power,
    recover_test,
)
from powerpoly.threshold import rank_threshold, sos_bounds
from powerpoly.umpu import NOT_EXISTS, coefficient_polytope, enumerate_vertices, umpu_search

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_EXISTS = 2
EXIT_STEP_LIMIT = 3


class CliError(Exception):
    pass


def _write(text: str, out_path: str | None):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc}") from exc


def _point(values) -> list[str]:
    return [format_rational(v) for v in values]


def _names(text: str) -> list[str]:
    """`--vars` split at commas, each name stripped of blanks."""
    return [name.strip() for name in text.split(",")]


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read JSON from {path}: {exc}") from exc


def _load_hypothesis(path: str) -> NullHypothesis:
    spec = _load_json(path)
    if not isinstance(spec, dict):
        raise CliError(f"malformed hypothesis JSON: expected an object, got {type(spec).__name__}")
    try:
        return build_hypothesis(spec)
    except KeyError as exc:
        raise CliError(f"malformed hypothesis JSON: missing parameter {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise CliError(f"malformed hypothesis JSON: {exc}") from exc


def _parse_test_json(payload: dict) -> TestFunction:
    """The test a test-function JSON names, read in one pass.

    Each entry's count vector is converted once and each distinct phi
    text once, into one slot of exact values; `power._support`, the check
    `TestFunction` runs too, then checks the entries and scales them to
    one denominator, and the test is built on its numerators.
    """
    slot_of: dict[str, int] = {}
    exact: list[Fraction] = []
    slots: dict[tuple[int, ...], int] = {}
    try:
        n, k = _integer(payload["n"]), _integer(payload["k"])
        ints = (int,) * k
        for entry in _list(payload["values"], "values"):
            x = _list(entry["x"], "x")
            x = tuple(x) if tuple(map(type, x)) == ints else tuple(_integer(v) for v in x)
            if x in slots:
                raise CliError(f"malformed test-function JSON: count vector {list(x)} listed twice")
            # Only strings are cached: True == 1 == 1.0 share a hash, and
            # `exact_rational` accepts the int but refuses the bool and the float.
            value = entry["phi"]
            slot = slot_of.get(value) if type(value) is str else None
            if slot is None:
                slot = len(exact)
                exact.append(exact_rational(value))
                if type(value) is str:
                    slot_of[value] = slot
            slots[x] = slot
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed test-function JSON: {exc}") from exc
    test = TestFunction._of(n, k, *_support(n, k, slots, exact))
    # Its entries are distinct count vectors now, so a short list leaves one out.
    if len(slots) < comb(n + k - 1, k - 1):
        missing = next(x for x in _lazy_count_vectors(n, k) if x not in slots)
        raise CliError(f"malformed test-function JSON: count vector {list(missing)} missing")
    return test


def _lazy_count_vectors(n: int, k: int):
    """The count vectors of n draws over k categories, lazily, in descending lex order."""
    if k == 1:
        yield (n,)
        return
    for e in range(n, -1, -1):
        for rest in _lazy_count_vectors(n - e, k - 1):
            yield (e, *rest)


def test_to_json(phi: TestFunction) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": phi.n,
        "k": phi.k,
        "values": [{"x": list(x), "phi": format_rational(v)} for x, v in phi.items()],
    }


# -- subcommands --------------------------------------------------------------


def cmd_gb(args) -> tuple[dict, int]:
    names = _names(args.vars)
    gens = [parse_polynomial(text, names) for text in args.gens]
    gb = buchberger_reduced(gens, MonomialOrder(args.order), args.counter)
    return {
        "order": gb.order.value,
        "vars": names,
        "basis": [format_polynomial(g, names, gb.order) for g in gb.elements],
        "degrees": [g.total_degree() for g in gb.elements],
    }, EXIT_OK


def _threshold_payload(hyp: NullHypothesis, args) -> dict:
    names = hyp.substituted_names()
    if hyp.family in ("independence", "rank_lt"):
        # Independence is rank < 2: both take the bounded-rank theorem.
        p, q, r = hyp.params["p"], hyp.params["q"], hyp.params["r"]
        report = rank_threshold(p, q, r, args.counter, minors=hyp.generators)
        witness_names = list(hyp.names)
    else:
        if hyp.family == "polytope":
            raise CliError(
                "threshold bounds need an algebraic hypothesis; "
                "use polytope-exists for polytope hypotheses"
            )
        gens = hyp.substituted_generators()
        if not any(gens):
            raise CliError(
                "null set is the whole simplex, no alternative: "
                "every generator vanishes wherever sum(p) = 1"
            )
        gb = buchberger_reduced(gens, MonomialOrder.GREVLEX, args.counter)
        report = sos_bounds(gb, hypothesis=hyp, counter=args.counter)
        witness_names = names
    return {
        "family": hyp.family,
        "ntub_bound": report.ntub_bound,
        "sub_bound": report.sub_bound,
        "cut_out_degree": report.cut_out_degree,
        "ntub_witness": format_polynomial(report.ntub_witness, witness_names),
        "sub_witness": format_polynomial(report.sub_witness, witness_names),
        "exactness": report.exactness,
        "theorem": report.theorem,
        "notes": list(report.notes),
    }


def cmd_threshold(args) -> tuple[dict, int]:
    return _threshold_payload(_load_hypothesis(args.hypothesis), args), EXIT_OK


def cmd_separating(args) -> tuple[dict, int]:
    hyp = _load_hypothesis(args.hypothesis)
    if hyp.family == "polytope":
        return _polytope_verdict(hyp, args, kind="SUB")
    payload = _threshold_payload(hyp, args)
    return {
        "family": payload["family"],
        "ntub_separating": payload["ntub_witness"],
        "sub_separating": payload["sub_witness"],
        "ntub_degree": payload["ntub_bound"],
        "sub_degree": payload["sub_bound"],
    }, EXIT_OK


def cmd_polytope_exists(args) -> tuple[dict, int]:
    hyp = _load_hypothesis(args.hypothesis)
    if hyp.family != "polytope":
        raise CliError("polytope-exists requires a polytope hypothesis")
    return _polytope_verdict(hyp, args)


def _polytope_verdict(hyp: NullHypothesis, args, kind: str | None = None) -> tuple[dict, int]:
    """A polytope hypothesis's existence verdict; `kind` labels a separating polynomial."""
    verdict = polytope_existence(hyp.polytope_a, hyp.polytope_b, hyp.k, args.counter)
    payload = {"exists": verdict.exists}
    if verdict.exists:
        payload["separating"] = format_polynomial(verdict.witness, list(hyp.names[: hyp.k - 1]))
        if kind:
            payload["kind"] = kind
    else:
        payload["failing_pair"] = list(verdict.failing_pair)
        payload["witness_point"] = _point(verdict.witness_point)
    return payload, EXIT_OK if verdict.exists else EXIT_NOT_EXISTS


def _principal(args) -> tuple[list[str], Polynomial, Fraction]:
    """The hypothesis's names, its one generator f and `--alpha`."""
    hyp = _load_hypothesis(args.hypothesis)
    if len(hyp.generators) != 1 or hyp.generators_substituted:
        raise CliError(f"{args.command} needs exactly one generator, given in all k coordinates; "
                       f"the {hyp.family} hypothesis has {len(hyp.generators)}"
                       + " in k - 1 coordinates" * hyp.generators_substituted)
    return list(hyp.names), hyp.generators[0], parse_rational(args.alpha)


def cmd_umpu(args) -> tuple[dict, int]:
    names, f, alpha = _principal(args)
    verdict = umpu_search(f, args.n, alpha, args.counter)
    payload = {
        "status": verdict.status,
        "alpha": format_rational(alpha),
        "n": args.n,
        "reason": verdict.reason,
    }
    if verdict.h_star is not None:
        payload["h_star"] = format_polynomial(verdict.h_star, names)
    if verdict.beta is not None:
        payload["beta"] = format_polynomial(verdict.beta.poly, names)
        payload["test"] = test_to_json(recover_test(verdict.beta))
    if verdict.certificate is not None:
        payload["failing_layer"] = verdict.failing_layer
        payload["certificate"] = [_point(p) for p in verdict.certificate]
    if args.emit_vertices:
        payload["vertices"] = [_point(v) for v in verdict.c_vertices]
    return payload, EXIT_OK if verdict.status != NOT_EXISTS else EXIT_NOT_EXISTS


def cmd_polytope(args) -> tuple[dict, int]:
    _, f, alpha = _principal(args)
    poly = coefficient_polytope(f, args.n, alpha, args.counter)
    zero = (0,) * poly.dim
    payload = {
        "dim": poly.dim,
        "h_index": [list(j) for j in poly.h_index],
        "rows": [
            {
                "L": list(L),
                "coeffs": _point([poly.scale * c for c in row or zero]),
                "lower": format_rational(-alpha * bound),
                "upper": format_rational((1 - alpha) * bound),
            }
            for L, bound, row in poly.multiindices
        ],
        "halfspace_count": poly.halfspace_count(),
    }
    if args.enumerate:
        poly = enumerate_vertices(poly, args.counter)
        payload["vertices"] = [_point(v) for v in poly.vertices]
        payload["vertex_count"] = len(poly.vertices)
    return payload, EXIT_OK


def cmd_power_grid(args) -> tuple[str, int]:
    phi = _parse_test_json(_load_json(args.test))
    res = args.res
    if res < 2:
        raise CliError("resolution must be >= 2")
    top = parse_rational(args.max)
    if not 0 < top <= 1:
        raise CliError("--max must lie in (0, 1]")
    k = phi.k
    step = top / (res - 1)
    # Cell i lies in the simplex iff sum(i) <= 1/step; no larger sum occurs.
    limit = min(int(1 / step), (res - 1) * (k - 1))
    if args.counter is not None:
        args.counter.tick(_cell_count(res, k - 1, limit))
    cells = [()]
    for _ in range(k - 1):
        cells = [c + (i,) for c in cells for i in range(min(res, limit - sum(c) + 1))]
    axis = [float(i * step) for i in range(res)]
    rest = [float(1 - s * step) for s in range(limit + 1)]
    coords = [repr(x) for x in axis]
    header = ",".join(f"pi_{i + 1}" for i in range(k - 1)) + ",power"
    lines = [header]
    for cell, value in zip(cells, _grid_values(phi, cells, axis, rest)):
        lines.append(",".join([coords[i] for i in cell] + [repr(value)]))
    return "\n".join(lines) + "\n", EXIT_OK


def _cell_count(res: int, dims: int, limit: int) -> int:
    """How many index tuples in range(res)^dims sum to at most `limit`.

    Inclusion-exclusion over the j coordinates forced to res or more:
    sum_j (-1)^j C(dims, j) C(limit - j res + dims, dims).
    """
    return sum(
        (-1) ** j * comb(dims, j) * comb(limit - j * res + dims, dims)
        for j in range(dims + 1)
        if j * res <= limit
    )


def _grid_values(phi: TestFunction, cells, axis, rest) -> list[float]:
    """The power of `phi` at every grid cell, in one pass.

    A cell is a tuple of k - 1 grid indices; its point is
    (axis[i_1], ..., axis[i_{k-1}], rest[i_1 + ... + i_{k-1}]).  The value
    is `evaluate_float` of phi's power polynomial, bit for bit, read off
    phi's numerators: the coefficient of pi^x is num_x * B_x / den, the
    correctly rounded integer division `float(Fraction)` performs, so no
    Fraction is built.  The floating-point operations are those of
    `evaluate_float`, in the same order: per term, the coefficient times
    each nonzero power left to right, summed in term order (descending
    lex, as `nums` holds them).  Only the powers are shared: each power
    x**e that phi's support uses at a coordinate is computed once per
    entry of that coordinate's table, `axis` or `rest`, with Python's
    float `**` (numpy's `power` rounds differently), and gathered per
    cell by index.
    """
    import numpy as np

    index = np.array(cells, dtype=np.intp)
    columns = [*index.T, index.sum(axis=1)]
    tables = [axis] * (len(columns) - 1) + [rest]
    powers = [[None] * (phi.n + 1) for _ in columns]
    for x in phi.nums:
        for i, e in enumerate(x):
            if e and powers[i][e] is None:
                powers[i][e] = np.array([t**e for t in tables[i]])[columns[i]]
    bounds, den = simplex_coefficients(phi.k, phi.n), phi.den
    total = np.zeros(len(cells))
    for x, num in phi.nums.items():
        value = num * bounds[x] / den
        for row, e in zip(powers, x):
            if e:
                value *= row[e]
        total += value
    return total.tolist()


def cmd_recover_test(args) -> tuple[dict, int]:
    names = _names(args.vars)
    beta = parse_polynomial(args.beta, names)
    return test_to_json(recover_test(PowerPolynomial(args.n, len(names), beta))), EXIT_OK


def cmd_mc_validate(args) -> tuple[dict, int]:
    phi = _parse_test_json(_load_json(args.test))
    point = [parse_rational(v) for v in args.pi.split(",")]
    est = monte_carlo_power(phi, [float(v) for v in point], args.reps, args.seed)
    exact = exact_power(phi, point)
    diff = abs(est.estimate - float(exact))
    return {
        "estimate": est.estimate,
        "std_error": est.std_error,
        "reps": est.reps,
        "seed": est.seed,
        "exact": format_rational(exact),
        "exact_float": float(exact),
        "abs_diff": diff,
        "within_4_se": bool(diff <= 4 * est.std_error + 1e-12),
    }, EXIT_OK


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerpoly",
        description="Exact unbiased-test existence, thresholds, and UMPU search "
        "for multinomial null hypotheses.",
    )
    parser.add_argument("--version", action="version", version=f"powerpoly {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Options that several subcommands share, as parent parsers.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    step_limit = argparse.ArgumentParser(add_help=False)
    step_limit.add_argument("--step-limit", type=int, default=None)
    hypothesis = argparse.ArgumentParser(add_help=False)
    hypothesis.add_argument("--hypothesis", required=True, help="hypothesis JSON path")
    principal = argparse.ArgumentParser(add_help=False)
    principal.add_argument("--n", type=int, required=True, help="sample size")
    principal.add_argument("--alpha", required=True, help="exact rational, e.g. 1/20")
    test = argparse.ArgumentParser(add_help=False)
    test.add_argument("--test", required=True, help="test-function JSON path")

    p = sub.add_parser("gb", parents=[step_limit, out], help="reduced Groebner basis of generators")
    p.add_argument("--gens", action="append", required=True, help="polynomial (repeatable)")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    p.add_argument("--order", default="grevlex", choices=["grevlex", "grlex"])
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("threshold", parents=[hypothesis, step_limit, out],
                       help="NTUB/SUB threshold report for a hypothesis")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("separating", parents=[hypothesis, step_limit, out],
                       help="separating polynomials for a hypothesis")
    p.set_defaults(func=cmd_separating)

    p = sub.add_parser("umpu", parents=[hypothesis, principal, step_limit, out],
                       help="UMPU existence search for a one-generator hypothesis")
    p.add_argument("--emit-vertices", action="store_true")
    p.set_defaults(func=cmd_umpu)

    p = sub.add_parser("coeff-polytope", parents=[hypothesis, principal, step_limit, out],
                       help="coefficient polytope H-rep (and V-rep) of a one-generator hypothesis")
    p.add_argument("--enumerate", action="store_true", help="also enumerate vertices")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("polytope-exists", parents=[hypothesis, step_limit, out],
                       help="UB existence for a polytope hypothesis")
    p.set_defaults(func=cmd_polytope_exists)

    p = sub.add_parser("power-grid", parents=[test, step_limit, out],
                       help="CSV grid of exact power values")
    p.add_argument("--res", type=int, required=True, help="points per axis (>= 2)")
    p.add_argument("--max", default="1", help="grid upper bound per axis (rational)")
    p.set_defaults(func=cmd_power_grid)

    p = sub.add_parser("recover-test", parents=[out], help="test function from a power polynomial")
    p.add_argument("--beta", required=True, help="power polynomial text")
    p.add_argument("--vars", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_recover_test)

    p = sub.add_parser("mc-validate", parents=[test, out], help="Monte-Carlo check of exact power")
    p.add_argument("--pi", required=True, help="comma-separated rational simplex point")
    p.add_argument("--reps", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mc_validate)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process.

    Building it costs more than most commands' parsing; `parse_args` fills
    a new namespace on each call, so nothing carries over between calls.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and --version, and 2 after printing a
        # usage error; 2 is the "does not exist" verdict here.
        return EXIT_OK if not exc.code else EXIT_ERROR
    try:
        # One budget for the whole command; commands without the flag get None.
        limit = getattr(args, "step_limit", None)
        args.counter = None if limit is None else StepCounter(limit)
        # The parser is built once, so its `func` is the command as first
        # bound; calling the module's binding now honours a later rebinding.
        artifact, code = globals()[args.func.__name__](args)
        if isinstance(artifact, dict):
            artifact = json.dumps({"schema_version": SCHEMA_VERSION, **artifact}, indent=2) + "\n"
        _write(artifact, args.out)
        return code
    except StepLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STEP_LIMIT
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
