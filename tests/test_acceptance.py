"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each criterion prints a single PASS line on success (run with -s to see
them).  Where a stated figure disagrees with an independent count, the
test records the misprint and checks the exact value instead.  The
printed vertex table of criterion 2 has two misprinted rows.  The sphere
polytope that criterion 3 states as 72 halfspaces and 17,267 vertices at
n = 8 is the n = 7 one: the H-rep has 2*C(n+2, 2) halfspaces, 72 at
n = 7 and 90 at n = 8.
"""

import itertools
import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

import powerpoly as pp
from powerpoly import (
    MonomialOrder,
    Polynomial,
    TestFunction,
    box_check,
    buchberger_reduced,
    build_hypothesis,
    coefficient_polytope,
    componentwise_max,
    enumerate_vertices,
    exact_power,
    ideal_membership,
    monte_carlo_power,
    normalize_to_power,
    parse_polynomial,
    polytope_existence,
    principal_umpu,
    radical_membership,
    rank_threshold,
    recover_test,
    sample_null_points,
    sos_bounds,
    umpu_search,
    union_separating,
)
from powerpoly import test_to_power as to_power
from powerpoly.groebner import StepCounter, s_polynomial
from powerpoly.groebner import reduce as poly_reduce
from powerpoly.power import count_vectors, max_statistic_test
from powerpoly.umpu import CANDIDATE, EXISTS, NOT_EXISTS

from conftest import (
    EXAMPLE5_BASIS,
    EXAMPLE5_VARS,
    PRINTED_VERTICES_SUM,
    PRINTED_VERTICES_WEIGHTED,
    enumerate_vertices_brute_force,
    monomials_of_degree,
    order_key,
    printed_to_exact,
)

F = Fraction
VARS3 = ["p1", "p2", "p3"]


def P(text, names=VARS3):
    return parse_polynomial(text, names)


def sphere3_generator():
    hyp = build_hypothesis({"kind": "sphere", "params": {"k": 3, "delta_sq": "1/6"}})
    return hyp.generators[0]


def test_criterion_1_umpu_golden_linear():
    started = time.monotonic()
    f = P("p1 + p2 - p3")
    poly = enumerate_vertices(coefficient_polytope(f, 3, F(1, 20)))
    # Printed table coordinates are (h_{p3}, h_{p2}, h_{p1}).
    printed = {tuple(reversed(v)) for v in printed_to_exact(PRINTED_VERTICES_SUM)}
    assert set(poly.vertices) == printed
    assert len(poly.vertices) == 8

    verdict = umpu_search(f, 3, F(1, 20))
    assert verdict.status == EXISTS
    s = Polynomial.simplex_power(3, 1)
    assert verdict.beta.poly == F(3, 20) * f * f * s + F(1, 20) * s**3
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"[criterion 1] PASS: 8 exact vertices and the UMPU power polynomial "
          f"match the published table ({elapsed:.3f}s)")


def test_criterion_2_umpu_golden_no_max():
    f = P("2*p1 + p2 - p3")
    poly = enumerate_vertices(coefficient_polytope(f, 3, F(1, 20)))
    assert len(poly.vertices) == 13
    # Recomputed values: the DD output must match the independent
    # subset-enumeration oracle exactly.
    a, b = poly.one_sided()
    assert list(poly.vertices) == enumerate_vertices_brute_force(a, b)

    cw = componentwise_max(poly.vertices)
    assert cw.vertex is None
    assert cw.certificate is not None

    verdict = umpu_search(f, 3, F(1, 20))
    assert verdict.status == NOT_EXISTS

    # Compare against the printed table; mismatches are reported, not failed.
    printed = [tuple(reversed(v)) for v in printed_to_exact(PRINTED_VERTICES_WEIGHTED)]
    computed = set(poly.vertices)
    # The table prints <= 5 decimals (0.03438 stands for 11/320), so a
    # printed row matches when a computed vertex agrees to print precision.
    def matches_printed(cand):
        return any(
            all(abs(float(c) - float(v)) < 5e-6 for c, v in zip(cand, vert))
            for vert in computed
        )

    mismatches = [
        (row_no, PRINTED_VERTICES_WEIGHTED[row_no])
        for row_no, cand in enumerate(printed)
        if not matches_printed(cand)
    ]
    report = "; ".join(f"row {i}: {row}" for i, row in mismatches)
    print(f"[criterion 2] PASS: 13 recomputed vertices, no componentwise max, "
          f"verdict not-exists; printed rows differing from exact values: {report}")
    # The known misprint rows (0-based 4 and 8); everything else matches.
    assert {i for i, _ in mismatches} <= {4, 8}


def test_criterion_3_sphere_suite_n5_n6():
    f = sphere3_generator()
    v5 = umpu_search(f, 5, F(1, 20))
    assert v5.status == EXISTS
    poly5 = enumerate_vertices(coefficient_polytope(f, 5, F(1, 20)))
    assert len(poly5.vertices) == 8
    cw = componentwise_max(poly5.vertices)
    assert cw.vertex == (F(1, 3), F(1, 3), F(1, 3))

    v6 = umpu_search(f, 6, F(1, 20))
    assert v6.status == CANDIDATE
    expected_h = parse_polynomial(
        "3/5*p1^2 + 3/5*p2^2 + 3/5*p3^2 + 6/5*p1*p2 + 6/5*p1*p3 + 6/5*p2*p3",
        VARS3,
    )
    assert v6.h_star == expected_h
    print("[criterion 3a] PASS: sphere n=5 exists with max (1/3,1/3,1/3); "
          "n=6 candidate with h = 3/5*sum(p_i^2) + 6/5*sum(p_i p_j)")


# Stated by criterion 3 for the sphere polytope it labels n = 8.  Both
# figures are those of the n = 7 polytope.
STATED_SPHERE_HALFSPACES = 72
STATED_SPHERE_VERTICES = 17267
# Double-description steps measured for the n = 7 enumeration: 102,995,200.
STRETCH_STEP_LIMIT = 500_000_000


def test_criterion_3_sphere_n8_halfspace_rows():
    """Stated: the n = 8 sphere H-rep has 72 halfspace rows.

    The H-rep has one two-sided row per degree-n multiindex in 3
    variables.  All 15 degree-4 monomials occur in f~^2, so no row is
    zero, and there are 2*C(n+2, 2) halfspaces: 90 at n = 8, 72 at n = 7.
    The n = 5 and n = 6 claims of the criterion agree with this indexing
    (test_criterion_3_sphere_suite_n5_n6), so the stated 72 belongs to
    n = 7 and the "n = 8" label is off by one.
    """
    f = sphere3_generator()
    assert len((f.homogenize(2) ** 2).terms) == math.comb(4 + 2, 2)
    dims, halfspaces = {}, {}
    for n in range(4, 9):
        poly = coefficient_polytope(f, n, F(1, 20))
        rows = math.comb(n + 2, 2)
        assert poly.dim == math.comb(n - 4 + 2, 2)
        assert sum(row is not None for _, _, row in poly.multiindices) == rows
        assert poly.halfspace_count() == 2 * rows
        dims[n], halfspaces[n] = poly.dim, poly.halfspace_count()
    assert (dims[8], halfspaces[8]) == (15, 90)
    assert halfspaces[7] == STATED_SPHERE_HALFSPACES
    assert halfspaces[8] != STATED_SPHERE_HALFSPACES
    print(f"[criterion 3b] PASS: sphere halfspaces {halfspaces}; the stated "
          f"{STATED_SPHERE_HALFSPACES} is the n=7 count (n=8 has 90)")


@pytest.mark.skipif(
    not os.environ.get("POWERPOLY_STRETCH"),
    reason="stretch goal: set POWERPOLY_STRETCH=1 to enumerate the n=7 "
    "sphere polytope (about 15 s)",
)
def test_criterion_3_sphere_n7_vertex_stretch():
    """Stated: 17,267 vertices (labelled n = 8; it is the n = 7 polytope)."""
    f = sphere3_generator()
    poly7 = coefficient_polytope(f, 7, F(1, 20))
    counter = StepCounter(
        int(os.environ.get("POWERPOLY_STEP_LIMIT", str(STRETCH_STEP_LIMIT)))
    )
    started = time.monotonic()
    vertices = enumerate_vertices(poly7, counter).vertices
    elapsed = time.monotonic() - started
    print(f"[criterion 3 stretch] n=7 vertex count: {len(vertices)} "
          f"({counter.steps} DD steps, {elapsed:.0f}s)")
    assert len(vertices) == STATED_SPHERE_VERTICES
    # Each vertex is feasible and lies on at least dim halfspaces.  Rows
    # and vertices are scaled to integers, so the check stays exact with
    # no Fraction arithmetic in the inner loop.
    a, b = poly7.one_sided()
    int_rows = []
    for row, rhs in zip(a, b):
        den = math.lcm(*(c.denominator for c in row), rhs.denominator)
        int_rows.append(([int(c * den) for c in row], int(rhs * den)))
    for v in vertices:
        den = math.lcm(*(c.denominator for c in v))
        iv = [int(c * den) for c in v]
        slacks = [rhs * den - sum(c * x for c, x in zip(row, iv))
                  for row, rhs in int_rows]
        assert min(slacks) >= 0
        assert slacks.count(0) >= poly7.dim
    assert coefficient_polytope(f, 8, F(1, 20)).facet_count() == 45


def test_criterion_3_sphere_n7_facet_count():
    """The n = 7 sphere polytope has 36 facets, found by one LP per row
    (`irredundant_rows`) with no vertex enumeration."""
    poly7 = coefficient_polytope(sphere3_generator(), 7, F(1, 20))
    assert poly7.facet_count() == 36


def test_criterion_4_c_alpha_golden():
    started = time.monotonic()
    hyp = build_hypothesis({"kind": "sphere", "params": {"k": 4, "delta_sq": "1/4"}})
    f = hyp.generators[0]
    for alpha in (F(1, 20), F(1, 10), F(1, 4), F(1, 2)):
        res = principal_umpu(f, 4, alpha)
        assert res.c_alpha == 4 * alpha

    alpha = F(1, 20)
    phi = recover_test(principal_umpu(f, 4, alpha).beta)
    expected = {
        (4,): 2 * alpha,
        (3, 1): F(0),
        (2, 2): 2 * alpha,
        (2, 1, 1): F(4, 3) * alpha,
        (1, 1, 1, 1): 2 * alpha,
    }
    for x, value in phi.items():
        pattern = tuple(sorted((c for c in x if c), reverse=True))
        assert value == expected[pattern]
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"[criterion 4] PASS: c_alpha = 4*alpha and the five-case test table "
          f"match exactly ({elapsed:.3f}s)")


def test_criterion_5_threshold_goldens(example5_polys):
    hyp = build_hypothesis({"kind": "independence", "params": {"p": 2, "q": 2}})
    gb = buchberger_reduced(hyp.substituted_generators(), MonomialOrder.GREVLEX)
    report = sos_bounds(gb, hypothesis=hyp)
    assert (report.ntub_bound, report.sub_bound) == (4, 4)

    gb5 = buchberger_reduced(example5_polys, MonomialOrder.GREVLEX)
    assert sorted(g.total_degree() for g in gb5.elements) == [1, 2, 2, 3]
    report5 = sos_bounds(gb5)
    assert report5.ntub_bound == 2
    assert report5.cut_out_degree == 2
    assert report5.sub_bound == 4
    lower = [g for g in gb5.elements if g.total_degree() <= 2]
    degree3 = [g for g in gb5.elements if g.total_degree() == 3]
    assert degree3 and all(radical_membership(g, lower) for g in degree3)

    for pqr, expect in [((2, 2, 2), 4), ((3, 3, 2), 4), ((3, 3, 3), 6)]:
        rep = rank_threshold(*pqr)
        assert rep.ntub_bound == rep.sub_bound == expect

    pairwise = [P("p1 - p2") ** 2, P("p1 - p3") ** 2, P("p2 - p3") ** 2]
    assert union_separating(pairwise).total_degree() == 6
    print("[criterion 5] PASS: independence 4/4, constrained-table d=2 with "
          "certified degree-3 redundancy, rank thresholds 2r, union degree 6")


def test_criterion_6_polytope_existence_goldens():
    t = F(3, 4)
    verdict = polytope_existence([[-1, 0], [0, -1]], [-t, -t], 3)
    assert verdict.exists
    names = ["p1", "p2"]
    expect = -1 * (parse_polynomial("p1", names) - t) * (parse_polynomial("p2", names) - t)
    assert verdict.witness == expect

    verdict = polytope_existence([[-1, 0], [0, -1]], [F(-1, 4), F(-1, 4)], 3)
    assert not verdict.exists
    assert verdict.witness_point == (F(1, 4), F(1, 4))

    verdict = polytope_existence([[-1, 1], [-1, -2]], [0, -1], 3)
    assert not verdict.exists
    assert verdict.witness_point == (F(1, 3), F(1, 3))
    print("[criterion 6] PASS: square t=3/4 separating product, t=1/4 interior "
          "corner witness, ordering hypothesis barycenter witness")


def _random_test_function(rng, n, k):
    values = {}
    for x in count_vectors(n, k):
        values[x] = F(rng.randrange(0, 17), 16)
    return TestFunction(n, k, values)


def test_criterion_7_correspondence_properties():
    rng = random.Random(20250811)
    # Round trips, >= 500 cases.
    for _ in range(500):
        n = rng.randrange(1, 5)
        k = rng.randrange(2, 4)
        phi = _random_test_function(rng, n, k)
        beta = to_power(phi)
        assert recover_test(beta) == phi
        assert to_power(recover_test(beta)).poly == beta.poly

    # Box preservation under normalize_to_power, >= 500 cases.
    done = 0
    while done < 500:
        k = rng.randrange(2, 4)
        n = rng.randrange(2, 5)
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            d = rng.randrange(0, n + 1)
            mono = rng.choice(monomials_of_degree(k, d))
            terms[mono] = F(rng.randrange(-12, 13), rng.randrange(1, 7))
        cand = Polynomial(k, terms)
        try:
            beta, a, b = normalize_to_power(cand, n, k)
        except ValueError:
            continue  # constant on the simplex
        assert box_check(beta.poly, n, k)
        assert a > 0 and b >= 0
        # Sign structure preserved relative to the size a*b.
        point = [F(1), F(2)] + ([F(1)] if k == 3 else [])
        total = sum(point)
        point = [v / total for v in point]
        lhs = beta.poly.evaluate(point) - a * b
        rhs = cand.evaluate(point)
        assert (lhs > 0) == (rhs > 0) and (lhs < 0) == (rhs < 0)
        done += 1

    # Similarity on the boundary: separating polynomials vanish exactly at
    # >= 50 sampled null points per family.
    families = [
        {"kind": "independence", "params": {"p": 2, "q": 2}},
        {"kind": "rank_lt", "params": {"p": 3, "q": 3, "r": 2}},
        {"kind": "sphere", "params": {"k": 3, "delta_sq": "1/6"}},
        {"kind": "symmetry", "params": {"p": 2}},
        {"kind": "affine", "params": {"C": [["1", "-1", "0"]], "d": ["0"], "k": 3}},
        {"kind": "logodds", "params": {"a": ["1", "1"], "c": "1", "k": 3}},
    ]
    for spec in families:
        hyp = build_hypothesis(spec)
        # Ambient separating polynomials: squares of the generators and
        # their sum (NTUB and SUB witnesses).
        ntub = hyp.generators[0] * hyp.generators[0]
        sub = sum((g * g for g in hyp.generators), Polynomial.zero(hyp.k))
        for point in sample_null_points(hyp, 50, seed=13):
            assert ntub.evaluate(point) == 0
            assert sub.evaluate(point) == 0
    print("[criterion 7] PASS: 500 exact round trips, 500 normalized "
          "separating polynomials inside the box, exact similarity at 50 "
          "null points for 6 families")


def test_criterion_8_groebner_properties(example5_polys):
    generator_sets = [
        [P("p1*p2 - p3^2"), P("p1 - p3")],
        [P("p1^2 - p2"), P("p2^2 - p3"), P("p1*p3 - p2^2")],
        example5_polys,
        build_hypothesis(
            {"kind": "independence", "params": {"p": 2, "q": 3}}
        ).substituted_generators(),
    ]
    for gens in generator_sets:
        gb = buchberger_reduced(gens, MonomialOrder.GREVLEX)
        for a, b in itertools.combinations(gb.elements, 2):
            s = s_polynomial(a, b, gb.order)
            if not s.is_zero():
                _, r = poly_reduce(s, list(gb.elements), gb.order)
                assert r.is_zero()
        for g in gens:
            assert ideal_membership(g, gb)
        for perm in itertools.islice(itertools.permutations(gens), 6):
            assert buchberger_reduced(list(perm), gb.order).elements == gb.elements

    gb5 = buchberger_reduced(example5_polys, MonomialOrder.GREVLEX)
    expected = sorted(
        (g.monic() for g in example5_polys),
        key=lambda g: order_key(MonomialOrder.GREVLEX)(g.leading_monomial()),
    )
    assert list(gb5.elements) == expected
    print("[criterion 8] PASS: all S-polynomials reduce to zero, generator "
          "permutations give identical bases, published basis is a fixed point")


def test_criterion_9_monte_carlo_consistency():
    started = time.monotonic()
    rng = random.Random(99)
    pairs = []
    for i in range(20):
        n = rng.randrange(2, 6)
        k = rng.randrange(2, 4)
        phi = _random_test_function(rng, n, k)
        raw = [F(rng.randrange(1, 8)) for _ in range(k)]
        total = sum(raw)
        point = [v / total for v in raw]
        pairs.append((phi, point))
    failures = 0
    for seed, (phi, point) in enumerate(pairs):
        est = monte_carlo_power(phi, [float(v) for v in point], 100000, seed)
        exact = exact_power(phi, point)
        if abs(est.estimate - float(exact)) > 4 * est.std_error + 1e-12:
            failures += 1
    elapsed = time.monotonic() - started
    assert failures == 0
    assert elapsed < 30.0
    print(f"[criterion 9] PASS: 20 runs of 100000 replications inside 4 "
          f"standard errors ({elapsed:.1f}s)")


def test_criterion_10_power_grid_contour_tightening(tmp_path):
    from powerpoly.cli import main as cli_main

    c = F(17, 20)  # asymptotic bivariate-normal calibration ~ 0.8485
    boundary = []
    for s in range(5):
        boundary.append((F(1, 4), F(s, 16)))
        boundary.append((F(s, 16), F(1, 4)))
    deviations = {}
    for n in (15, 40):
        phi = max_statistic_test(n, c)
        # Produce the CSV artifact through the CLI.
        test_path = tmp_path / f"maxstat_{n}.json"
        from powerpoly.cli import test_to_json

        test_path.write_text(json.dumps(test_to_json(phi)))
        out_csv = tmp_path / f"grid_{n}.csv"
        code = cli_main(
            ["power-grid", "--test", str(test_path), "--res", "41",
             "--max", "1/2", "--out", str(out_csv)]
        )
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "pi_1,pi_2,power"
        assert len(lines) == 1 + 41 * 41
        deviations[n] = max(
            abs(exact_power(phi, [a, b, 1 - a - b]) - F(1, 20))
            for a, b in boundary
        )
    assert deviations[40] < deviations[15]
    print(f"[criterion 10] PASS: boundary deviation from level 0.05 shrinks "
          f"{float(deviations[15]):.4f} -> {float(deviations[40]):.4f} as n grows")
