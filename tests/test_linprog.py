import hashlib
import random
from fractions import Fraction

import pytest

from powerpoly.linalg import rank
from powerpoly.linprog import solve_lp

# The cases below are written with relations; `as_le` turns them into the
# a.x <= b rows that `solve_lp` takes.
LE, GE, EQ = "<=", ">=", "=="


def as_le(rows):
    """(coeffs, rel, rhs) rows as (coeffs, rhs) rows: a GE row is negated
    and an EQ row becomes both of its rows."""
    out = []
    for coeffs, rel, rhs in rows:
        if rel != GE:
            out.append((coeffs, rhs))
        if rel != LE:
            out.append(([-v for v in coeffs], -rhs))
    return out


def nonneg(n):
    """Rows x_i >= 0 for every variable."""
    return [([int(i == j) for j in range(n)], GE, 0) for i in range(n)]


class TestSolveLP:
    def test_simple_max(self):
        # max x + y st x <= 2, y <= 3, x + y <= 4, x,y >= 0
        res = solve_lp(
            2,
            [1, 1],
            as_le([([1, 0], LE, 2), ([0, 1], LE, 3), ([1, 1], LE, 4)] + nonneg(2)),
        )
        assert res.is_optimal
        assert res.value == 4

    def test_exact_fractions(self):
        res = solve_lp(1, [1], as_le([([Fraction(3)], LE, Fraction(1, 7))] + nonneg(1)))
        assert res.value == Fraction(1, 21)

    def test_free_variables(self):
        # max -x st x >= -5 (free variable can go negative)
        res = solve_lp(1, [-1], as_le([([1], GE, -5)]))
        assert res.is_optimal
        assert res.value == 5
        assert res.point == [Fraction(-5)]

    def test_equality_constraints(self):
        res = solve_lp(
            3,
            [0, 0, 1],
            as_le([([1, 1, 1], EQ, 1), ([1, -1, 0], EQ, 0)] + nonneg(3)),
        )
        assert res.is_optimal
        assert res.value == 1
        assert res.point == [Fraction(0), Fraction(0), Fraction(1)]

    def test_infeasible(self):
        res = solve_lp(1, [1], as_le([([1], LE, 0), ([1], GE, 1)] + nonneg(1)))
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve_lp(1, [1], as_le([([1], GE, 0)]))
        assert res.status == "unbounded"

    def test_min_sense(self):
        # min x + 2y st x + y >= 1, x,y >= 0
        res = solve_lp(2, [-1, -2], as_le([([1, 1], GE, 1)] + nonneg(2)))
        assert res.is_optimal
        assert -res.value == 1
        assert res.point == [Fraction(1), Fraction(0)]

    def test_degenerate_cycling_guard(self):
        # Classic degenerate example; Bland's rule must terminate.
        res = solve_lp(
            4,
            [Fraction(3, 4), -150, Fraction(1, 50), -6],
            as_le(
                [
                    ([Fraction(1, 4), -60, Fraction(-1, 25), 9], LE, 0),
                    ([Fraction(1, 2), -90, Fraction(-1, 50), 3], LE, 0),
                    ([0, 0, 1, 0], LE, 1),
                ]
                + nonneg(4)
            ),
        )
        assert res.is_optimal
        assert res.value == Fraction(1, 20)

    def test_redundant_equalities(self):
        res = solve_lp(
            2,
            [1, 0],
            as_le([([1, 1], EQ, 1), ([2, 2], EQ, 2), ([1, 0], LE, Fraction(1, 3))] + nonneg(2)),
        )
        assert res.is_optimal
        assert res.value == Fraction(1, 3)

    def test_no_rows_and_a_moving_objective_is_unbounded(self):
        assert solve_lp(1, [1], []).status == "unbounded"

    def test_no_rows_and_a_zero_objective_is_optimal(self):
        res = solve_lp(2, [0, 0], [])
        assert res.is_optimal
        assert res.value == 0

    def test_direction_no_row_sees(self):
        # Rows constrain x + y only; the objective moves along x - y.
        rows = as_le([([1, 1], LE, 1), ([1, 1], GE, 0)])
        assert solve_lp(2, [1, 0], rows).status == "unbounded"
        res = solve_lp(2, [2, 2], rows)
        assert res.value == 2 and sum(res.point) == 1

    def test_infeasible_beats_unseen_direction(self):
        rows = as_le([([0, 1], LE, 0), ([0, 1], GE, 1)])
        assert solve_lp(2, [1, 0], rows).status == "infeasible"

    def test_rows_are_coefficient_and_bound_pairs(self):
        # Each row is (a, b) for a.x <= b; a row with a relation is refused.
        assert solve_lp(1, [1], [([1], 2)]).value == 2
        with pytest.raises(ValueError):
            solve_lp(1, [1], [([1], "<=", 2)])
        with pytest.raises(ValueError, match="constraint length mismatch"):
            solve_lp(2, [1, 0], [([1], 2)])


def random_lp(rng):
    """A small random LP with integer data, rank-deficient in part."""
    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(0, 7)):
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        rel = rng.choice([LE, LE, LE, GE, GE, EQ])
        rows.append((coeffs, rel, rng.randint(-4, 6)))
    if rows and rng.random() < 0.3:
        coeffs, rel, rhs = rng.choice(rows)
        scale = rng.choice([2, -1])
        flip = {LE: GE, GE: LE, EQ: EQ}[rel] if scale < 0 else rel
        rows.append(([scale * v for v in coeffs], flip, scale * rhs))
    if rng.random() < 0.5:
        rows += [([int(i == j) for j in range(n)], LE, rng.randint(0, 5)) for i in range(n)]
    objective = [rng.randint(-3, 3) for _ in range(n)]
    return n, objective, rows


class TestHighsOracle:
    STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}

    def test_status_and_value_match_highs(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(20261018)
        seen = set()
        for _ in range(400):
            n, objective, rows = random_lp(rng)
            ub = [[-v for v in c] if rel == GE else c for c, rel, _ in rows if rel != EQ]
            b_ub = [-r if rel == GE else r for _, rel, r in rows if rel != EQ]
            eq = [(c, r) for c, rel, r in rows if rel == EQ]
            ref = optimize.linprog(
                [-v for v in objective],
                A_ub=ub or None,
                b_ub=b_ub or None,
                A_eq=[c for c, _ in eq] or None,
                b_eq=[r for _, r in eq] or None,
                bounds=[(None, None)] * n,
                method="highs",
            )
            res = solve_lp(n, objective, as_le(rows))
            assert res.status == self.STATUS[ref.status], (n, objective, rows)
            seen.add(res.status)
            if res.is_optimal:
                assert abs(float(res.value) + ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
                for c, rel, r in rows:
                    lhs = sum(Fraction(v) * x for v, x in zip(c, res.point))
                    assert {LE: lhs <= r, GE: lhs >= r, EQ: lhs == r}[rel]
                assert res.value == sum(Fraction(v) * x for v, x in zip(objective, res.point))
        assert seen == {"optimal", "infeasible", "unbounded"}


def degenerate_lp(rng):
    """A small random LP whose optimum is full of ties: most rows pass
    through one point, some rows repeat at a positive scale, and half of
    the objectives are parallel to a row."""
    n = rng.randint(1, 4)
    center = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(n, n + 5)):
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        rhs = sum(v * x for v, x in zip(coeffs, center)) + rng.choice([0, 0, 0, 1])
        rows.append((coeffs, rhs))
    for _ in range(rng.randint(0, 3)):
        coeffs, rhs = rng.choice(rows)
        scale = rng.choice([1, 2, 3])
        rows.append(([scale * v for v in coeffs], scale * rhs))
    if rng.random() < 0.5:
        for i in range(n):
            unit = [int(i == j) for j in range(n)]
            rows += [(unit, 3), ([-v for v in unit], 3)]
    rng.shuffle(rows)
    if rng.random() < 0.5:
        objective = list(rng.choice(rows)[0])
    else:
        objective = [rng.randint(-2, 2) for _ in range(n)]
    return n, objective, rows


def seeded_lps(count):
    """`count` draws each of `random_lp` and `degenerate_lp`, as (n, objective, rows)."""
    rng = random.Random(20261020)
    for _ in range(count):
        n, objective, rows = random_lp(rng)
        yield n, objective, as_le(rows)
        yield degenerate_lp(rng)


class TestPivotPath:
    # sha256 of every (status, value, point) below, recorded with the
    # simplex that walked to its first vertex by a nullspace per move and
    # then pivoted on a Fraction inverse.  Bland's rule fixes each pivot,
    # so the optimizer picked among tied optima must not move.
    DIGEST = "05056c1afbac064583c318a374a989fab0159092aa3a80ff925077616aad5e2c"

    def test_answers_on_ties_are_pinned(self):
        lines = []
        for n, objective, rows in seeded_lps(600):
            res = solve_lp(n, objective, rows)
            point = None if res.point is None else [str(v) for v in res.point]
            lines.append(repr((res.status, str(res.value), point)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST

    def test_an_optimum_of_full_column_rank_is_a_vertex(self):
        # With rank A = n every optimum the walk returns has n linearly
        # independent tight rows.
        vertices = 0
        for n, objective, rows in seeded_lps(300):
            if not rows or rank([a for a, _ in rows]) < n:
                continue
            res = solve_lp(n, objective, rows)
            if not res.is_optimal:
                continue
            tight = [a for a, b in rows if sum(Fraction(v) * x for v, x in zip(a, res.point)) == b]
            assert rank(tight) == n, (n, objective, rows)
            vertices += 1
        assert vertices > 150
