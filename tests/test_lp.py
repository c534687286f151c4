"""Exact simplex: trivia, duality, and the vertex-enumeration oracle."""

import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from numbers import Rational

import pytest
from reference_lp import dual_certifies

from alphahg import InvalidInputError
from alphahg.lp import (
    Constraint,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    satisfies,
    solve,
)


class _Ratio:
    """A ``numbers.Rational`` that is neither an int nor a Fraction."""

    def __init__(self, numerator, denominator):
        self.numerator, self.denominator = numerator, denominator


Rational.register(_Ratio)


class TestBasics:
    def test_bounded_maximum(self):
        result = solve(LinearProgram.maximize([1], [([1], "<=", 3)]))
        assert (result.value, result.assignment) == (3, (3,))

    def test_infeasible(self):
        result = solve(
            LinearProgram.maximize([1], [([1], "<=", 1), ([1], ">=", 2)])
        )
        assert isinstance(result, Infeasible)

    def test_unbounded(self):
        result = solve(LinearProgram.maximize([1], [([1], ">=", 0)]))
        assert isinstance(result, Unbounded)

    def test_free_variable_goes_negative(self):
        result = solve(LinearProgram.maximize([-1], [([1], ">=", -5)]))
        assert (result.value, result.assignment) == (5, (-5,))

    def test_equality_constraints(self):
        # max x + y  s.t.  x + y = 4, x - y = 2
        result = solve(
            LinearProgram.maximize(
                [1, 1], [([1, 1], "=", 4), ([1, -1], "=", 2)]
            )
        )
        assert isinstance(result, Optimal)
        assert result.assignment == (Fraction(3), Fraction(1))

    def test_degenerate_pivoting_terminates(self):
        # a classic cycling instance for naive pivoting rules
        lp = LinearProgram.maximize(
            [Fraction(3, 4), -150, Fraction(1, 50), -6],
            [
                ([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
                ([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
                ([0, 0, 1, 0], "<=", 1),
            ],
            lower=[0] * 4,
        )
        result = solve(lp)
        assert isinstance(result, Optimal)
        assert result.value == Fraction(1, 20)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            LinearProgram.maximize([1], [([1, 2], "<=", 3)])
        with pytest.raises(InvalidInputError, match="unknown relation '<<'"):
            LinearProgram.maximize([1], [([1], "<<", 3)])

    @pytest.mark.parametrize("fields,message", [
        ({"names": (), "constraints": (), "objective": ()}, "a program needs at least one"),
        ({"names": ("x", "x")}, "variable names must be unique"),
        ({"objective": (1,)}, "objective length must match variable count"),
        ({"lower": (0,)}, "lower bounds must match variable count"),
        ({"lower": (0, 0), "upper": (1,)}, "upper bounds must match variable count"),
        ({"lower": (0, None), "upper": (1, 1)}, "variable 'y' has an upper bound but no lower"),
        ({"lower": (0, 0), "upper": (1, 0.5)}, "floating-point literal 0.5 rejected"),
        ({"constraints": (Constraint((1, 0.5), 1),)}, "floating-point literal 0.5 rejected"),
        ({"constraints": (Constraint((1, True), 1),)}, "not a rational: True"),
        ({"constraints": (Constraint((1, "one"), 1),)}, "not an exact rational: 'one'"),
        ({"constraints": (Constraint((1, 1, 1), 1),)}, "constraint length must match"),
        ({"constraints": (Constraint((1, 1), 0.5),)}, "floating-point literal 0.5 rejected"),
    ], ids=[
        "no variables", "repeated name", "short objective", "short lower bounds",
        "short upper bounds", "upper bound on a free variable", "float upper bound",
        "float coefficient", "bool coefficient", "str coefficient", "long row", "float rhs",
    ])
    def test_program_refusals(self, fields, message):
        program = {"names": ("x", "y"), "constraints": (((1, 1), 1),), "objective": (1, 1)}
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            LinearProgram(**{**program, **fields})
        rows = fields.get("constraints")
        if rows:
            # a Constraint is refused as its plain (coeffs, rhs) pair is,
            # and as a row appended to a program
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                LinearProgram(**{**program, "constraints": tuple(map(tuple, rows))})
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                LinearProgram(**program)._with_rows(rows)

    def test_point_of_the_wrong_length_is_not_feasible(self):
        lp = LinearProgram(("x", "y"), (((1, 1), 1),), (1, 1))
        assert satisfies(lp, (0, 0)) and not satisfies(lp, (0,))

    def test_entries_kept_or_admitted(self):
        # an int or a Fraction entry is kept as it is; any other rational
        # is admitted by exact
        half = Fraction(1, 2)
        lp = LinearProgram(("x", "y"), (((3, half), 4), (("1/2", _Ratio(3, 4)), half)), (1, half))
        (kept, four), (admitted, rhs) = lp.constraints
        assert [type(x) for x in (*kept, four)] == [int, Fraction, int]
        assert kept[1] is half and rhs is half
        assert admitted == (half, Fraction(3, 4))
        assert [type(x) for x in admitted] == [Fraction, Fraction]
        assert [type(x) for x in lp.objective] == [int, Fraction]
        # a Constraint whose entries are ints and Fractions (of ints, of
        # Fractions, or of both) is admitted as it is
        for row in (
            Constraint((3, -1), 4),
            Constraint((half, Fraction(-3, 4)), Fraction(5, 3)),
            Constraint((3, half), Fraction(1, 3)),
        ):
            lp = LinearProgram(("x", "y"), (row,), (1, 1))
            assert lp.constraints[0] is row
            assert lp._with_rows((row,)).constraints[1] is row
        for bad in (True, 0.5):
            with pytest.raises(InvalidInputError):
                LinearProgram(("x", "y"), (((1, bad), 4),), (1, 1))
            with pytest.raises(InvalidInputError):
                LinearProgram(("x", "y"), (((1, 1), bad),), (1, 1))
        with pytest.raises(InvalidInputError):
            LinearProgram(("x", "y"), (("12", 4),), (1, 1))

    def test_relations_become_one_form(self):
        # maximize stores a >= row negated and an = row as the row, then
        # its negation; the constructor takes (coeffs, rhs) pairs only
        lp = LinearProgram.maximize(
            [1, 1], [([1, 2], "<=", 3), ([1, "1/2"], ">=", -1), ([0, 1], "=", "2/3")]
        )
        assert lp.constraints == (
            ((1, 2), 3),
            ((-1, Fraction(-1, 2)), 1),
            ((0, 1), Fraction(2, 3)),
            ((0, -1), Fraction(-2, 3)),
        )
        assert LinearProgram(lp.names, lp.constraints, lp.objective) == lp
        for bad in (((1, 2), "<=", 3), ((1, 2),), 3):
            with pytest.raises(InvalidInputError, match="pair"):
                LinearProgram(lp.names, (bad,), lp.objective)
        with pytest.raises(InvalidInputError, match="triple"):
            LinearProgram.maximize([1, 1], lp.constraints)


def enumerate_vertices_best(lp):
    """Independent oracle: evaluate the objective on every vertex of the
    constraint polytope (square subsystems solved exactly)."""
    n = lp.num_vars
    rows = [(c.coeffs, c.rhs) for c in lp.constraints]
    for v in range(n):
        if lp.lower[v] is not None:
            rows.append(
                (tuple(Fraction(i == v) for i in range(n)), lp.lower[v])
            )
    best = None
    for combo in combinations(range(len(rows)), n):
        system = [list(rows[i][0]) + [rows[i][1]] for i in combo]
        point = _solve_square(system, n)
        if point is None or not satisfies(lp, point):
            continue
        value = sum(
            (c * x for c, x in zip(lp.objective, point)), Fraction(0)
        )
        if best is None or value > best:
            best = value
    return best


def _solve_square(m, n):
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[i][n] for i in range(n))


def random_boxed_lp(rng, free_vars=False):
    n = rng.randint(1, 4)
    constraints = []
    for _ in range(rng.randint(1, 4)):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        constraints.append(
            (coeffs, rng.choice(["<=", ">=", "="]), Fraction(rng.randint(-6, 6)))
        )
    for v in range(n):
        unit = [Fraction(int(i == v)) for i in range(n)]
        constraints.append((unit, "<=", Fraction(rng.randint(1, 8))))
        if free_vars:
            constraints.append((unit, ">=", Fraction(-rng.randint(1, 8))))
    objective = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    return LinearProgram.maximize(
        objective,
        constraints,
        lower=None if free_vars else [0] * n,
    )


def random_lower_bounded_boxed_lp(rng):
    """Every variable gets a nonzero lower bound, negative or positive,
    with denominators up to 35, and an upper row a little above it (at
    times below it, which leaves the box empty); the other rows pass
    near the corner where every variable is at its bound."""
    n = rng.randint(1, 4)
    lower = [
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7, 12, 35)))
        for _ in range(n)
    ]
    constraints = []
    for _ in range(rng.randint(1, 4)):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        corner = sum(c * x for c, x in zip(coeffs, lower))
        constraints.append((coeffs, rng.choice(["<=", ">=", "="]), corner + rng.randint(-6, 6)))
    for v in range(n):
        unit = [Fraction(int(i == v)) for i in range(n)]
        gap = Fraction(rng.randint(-1, 8), rng.choice((1, 2, 7)))
        constraints.append((unit, "<=", lower[v] + gap))
    objective = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    return LinearProgram.maximize(objective, constraints, lower=lower)


class TestAgainstVertexOracle:
    def test_nonnegative_boxed(self):
        rng = random.Random(41)
        for _ in range(60):
            lp = random_boxed_lp(rng)
            got = solve(lp)
            want = enumerate_vertices_best(lp)
            if want is None:
                assert isinstance(got, Infeasible)
            else:
                assert isinstance(got, Optimal)
                assert got.value == want
                assert satisfies(lp, got.assignment)

    def test_lower_bounded_boxed(self):
        rng = random.Random(44)
        optimal = 0
        for _ in range(200):
            lp = random_lower_bounded_boxed_lp(rng)
            got = solve(lp)
            want = enumerate_vertices_best(lp)
            if want is None:
                assert isinstance(got, Infeasible)
            else:
                assert isinstance(got, Optimal)
                assert got.value == want
                assert satisfies(lp, got.assignment)
                optimal += 1
        # both verdicts are well represented
        assert 40 <= optimal <= 160, optimal

    def test_free_boxed(self):
        rng = random.Random(42)
        for _ in range(40):
            lp = random_boxed_lp(rng, free_vars=True)
            got = solve(lp)
            want = enumerate_vertices_best(lp)
            if want is None:
                assert isinstance(got, Infeasible)
            else:
                assert isinstance(got, Optimal)
                assert got.value == want
                assert satisfies(lp, got.assignment)


class TestDuality:
    def test_primal_dual_values_agree(self):
        # primal: max cx s.t. Ax <= b, x >= 0
        # dual:   min yb s.t. A'y >= c, y >= 0
        rng = random.Random(43)
        checked = 0
        for _ in range(60):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            A = [[Fraction(rng.randint(-3, 4)) for _ in range(n)] for _ in range(m)]
            b = [Fraction(rng.randint(0, 6)) for _ in range(m)]
            c = [Fraction(rng.randint(-3, 4)) for _ in range(n)]
            primal = LinearProgram.maximize(
                c, [(A[i], "<=", b[i]) for i in range(m)], lower=[0] * n
            )
            dual = LinearProgram.maximize(
                [-bi for bi in b],
                [
                    ([-A[i][j] for i in range(m)], "<=", -c[j])
                    for j in range(n)
                ],
                lower=[0] * m,
            )
            p = solve(primal)
            d = solve(dual)
            if isinstance(p, Optimal) and isinstance(d, Optimal):
                checked += 1
                assert p.value == -d.value
            elif isinstance(p, Unbounded):
                assert isinstance(d, Infeasible)
            elif isinstance(d, Unbounded):
                assert isinstance(p, Infeasible)
        assert checked > 10

    def test_dual_certifies_the_optimum(self):
        # free and bounded variables, fractional data, rows of every
        # relation; each optimum solved cold and re-optimised warm from the
        # box rows alone, and each dual checked by plain Fraction sums.
        # About 28% of the programs have an optimum.  The multiplier to
        # negate is drawn from its own stream, so the programs do not
        # depend on how many multipliers are nonzero.
        rng, pick = random.Random(46), random.Random(146)
        checked, refuted = 0, 0
        for _ in range(450):
            n = rng.randint(1, 4)
            lower = [
                None if rng.random() < 0.4 else Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(n)
            ]
            box = []
            for v in range(n):
                unit = [Fraction(int(i == v)) for i in range(n)]
                floor = lower[v]
                if floor is None:
                    floor = Fraction(-rng.randint(1, 9), rng.randint(1, 3))
                    box.append((unit, ">=", floor))
                box.append((unit, "<=", floor + Fraction(rng.randint(0, 9), rng.randint(1, 3))))
            rows = [
                (
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)],
                    rng.choice(["<=", ">=", "="]),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                )
                for _ in range(rng.randint(1, 4))
            ]
            objective = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            lp = LinearProgram.maximize(objective, box + rows, lower=lower)
            start = solve(LinearProgram.maximize(objective, box, lower=lower))
            assert isinstance(start, Optimal)
            for result in (solve(lp), solve(lp, start)):
                if not isinstance(result, Optimal):
                    assert isinstance(result, Infeasible)
                    continue
                duals = result.dual()
                assert satisfies(lp, result.assignment)
                assert dual_certifies(lp, duals, result.value), lp
                checked += 1
                # a multiplier of the wrong sign certifies nothing
                signed = [k for k, y in enumerate(duals) if y]
                if signed:
                    k = pick.choice(signed)
                    negated = duals[:k] + [-duals[k]] + duals[k + 1:]
                    assert not dual_certifies(lp, negated, result.value)
                    refuted += 1
        assert checked >= 200 and refuted >= 150, (checked, refuted)

    def test_dual_is_nonnegative_cold_and_warm(self):
        # one row price and one multiplier per constraint, each price <= 0
        # and each multiplier >= 0, whichever relation the row was written
        # with, for an optimum solved cold and one re-optimised warm
        rng = random.Random(47)
        seen = {"cold": 0, "warm": 0}
        for _ in range(200):
            lp = random_boxed_lp(rng, free_vars=rng.random() < 0.5)
            k = rng.randrange(len(lp.constraints))
            start = solve(replace(lp, constraints=lp.constraints[:k]))
            results = {"cold": solve(lp)}
            if isinstance(start, Optimal):
                results["warm"] = solve(lp, start)
            for kind, result in results.items():
                if isinstance(result, Optimal):
                    prices, duals = result.row_prices(), result.dual()
                    assert len(prices) == len(duals) == len(lp.constraints)
                    assert all(price <= 0 for price in prices)
                    assert all(y >= 0 for y in duals)
                    seen[kind] += 1
        assert min(seen.values()) >= 50, seen
