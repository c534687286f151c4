"""The integer tableau against Fraction simplexes.

``reference_lp.dual_phase_solve`` runs the integer solve's algorithm in
Fraction arithmetic: every row with a basic slack and a right-hand side
of either sign, the dual simplex on a zero objective as phase 1, then the
primal simplex, Bland's rule throughout.  So the two must take the same
pivots and return equal results: the same verdict, and for Optimal the
same value and the same point.  ``reference_lp.reference_solve``, the
two-phase simplex with artificial columns that the package used before,
is the oracle for verdicts and values; its optimal point may be another
one, so the integer solve's point must satisfy the program and attain
the value.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import reference_lp
from alphahg import lp as integer_lp
from alphahg import InvalidInputError
from alphahg.lp import Infeasible, LinearProgram, Optimal, Unbounded, satisfies, solve
from reference_lp import dual_phase_solve, reference_solve

DENOMINATORS = (1, 1, 2, 3, 4, 5, 6, 7, 12, 35)


def _rational(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def random_lp(rng):
    """Up to 5 variables, each free or nonnegative, and up to 6 rows of
    every relation with mixed-denominator coefficients.  Some programs
    get a multiple of one of their rows, which leaves a redundant row,
    an equality when the multiple is negative."""
    n = rng.randint(1, 5)
    constraints = [
        ([_rational(rng) for _ in range(n)], rng.choice(["<=", ">=", "="]), _rational(rng))
        for _ in range(rng.randint(1, 6))
    ]
    if rng.random() < 0.25:
        coeffs, relation, rhs = rng.choice(constraints)
        k = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
        constraints.append(([k * x for x in coeffs], relation if k > 0 else "=", k * rhs))
    return LinearProgram.maximize(
        [_rational(rng) for _ in range(n)],
        constraints,
        lower=[0 if rng.random() < 0.5 else None for _ in range(n)],
    )


def random_lower_bounded_lp(rng):
    """A ``random_lp`` program whose variables get nonzero lower bounds,
    negative and positive, with denominators up to 35; about one in four
    stays free."""
    lp = random_lp(rng)
    lower = [
        None
        if rng.random() < 0.25
        else Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(DENOMINATORS))
        for _ in lp.names
    ]
    return replace(lp, lower=tuple(lower))


def cycling_instance():
    """Beale's example: cycles under the textbook pivoting rule."""
    return LinearProgram.maximize(
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [
            ([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
            ([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
        lower=[0] * 4,
    )


def _attains(lp, result):
    return result.value == sum(
        (c * x for c, x in zip(lp.objective, result.assignment)), Fraction(0)
    )


def _check_result(lp):
    """The integer solve equals the Fraction twin, points included, and
    agrees with the two-phase oracle; returns the oracle's result."""
    got = solve(lp)
    assert got == dual_phase_solve(lp), lp
    want = reference_solve(lp)
    assert type(got) is type(want), lp
    if isinstance(want, Optimal):
        assert got.value == want.value, lp
        assert satisfies(lp, got.assignment) and _attains(lp, got), lp
    return want


class TestSameResults:
    def test_random_programs(self):
        rng = random.Random(2024)
        kinds = {Optimal: 0, Infeasible: 0, Unbounded: 0}
        for _ in range(3000):
            kinds[type(_check_result(random_lp(rng)))] += 1
        # every verdict is well represented
        assert min(kinds.values()) >= 300, kinds

    def test_free_and_nonnegative_and_every_relation(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(200):
            lp = random_lp(rng)
            seen.update(c.relation for c in lp.constraints)
            seen.update(lp.lower)
        assert seen == {"<=", ">=", "=", 0, None}

    def test_cycling_instance(self):
        lp = cycling_instance()
        _check_result(lp)
        assert solve(lp).value == Fraction(1, 20)

    def test_random_lower_bounded_programs(self):
        rng = random.Random(4096)
        kinds = {Optimal: 0, Infeasible: 0, Unbounded: 0}
        for _ in range(2000):
            kinds[type(_check_result(random_lower_bounded_lp(rng)))] += 1
        assert min(kinds.values()) >= 200, kinds


class TestSamePivots:
    """Not only equal answers: the very same pivot sequence as the
    Fraction twin, through dual phases that pivot on negative elements,
    dual phases that prove infeasibility, and equality rows."""

    @pytest.fixture
    def pivot_log(self, monkeypatch):
        log = {"int": [], "ref": []}

        def recording(cls, key):
            original = cls.pivot

            def pivot(self, r, c):
                log[key].append((r, c, self.rows[r][c] < 0, len(self.rows)))
                original(self, r, c)

            monkeypatch.setattr(cls, "pivot", pivot)

        recording(integer_lp._Tableau, "int")
        recording(reference_lp._Tableau, "ref")
        return log

    def test_random_programs(self, pivot_log):
        rng = random.Random(99)
        seen = dict.fromkeys(("dual pivot", "infeasible", "="), 0)
        for _ in range(1000):
            lp = random_lp(rng)
            pivot_log["int"].clear()
            pivot_log["ref"].clear()
            result = solve(lp)
            dual_phase_solve(lp)
            pivots = pivot_log["int"]
            assert pivots == pivot_log["ref"], lp
            seen["dual pivot"] += any(neg for _, _, neg, _ in pivots)
            seen["infeasible"] += isinstance(result, Infeasible)
            seen["="] += any(c.relation == "=" for c in lp.constraints)
        assert min(seen.values()) >= 100, seen

    def test_random_lower_bounded_programs(self, pivot_log):
        rng = random.Random(4097)
        for _ in range(500):
            lp = random_lower_bounded_lp(rng)
            pivot_log["int"].clear()
            pivot_log["ref"].clear()
            solve(lp)
            dual_phase_solve(lp)
            assert pivot_log["int"] == pivot_log["ref"], lp

    def test_cycling_instance(self, pivot_log):
        lp = cycling_instance()
        solve(lp)
        dual_phase_solve(lp)
        assert pivot_log["int"] == pivot_log["ref"]
        assert len(pivot_log["int"]) > 0


class TestWarmStart:
    """``solve(full, start=solve(prefix))`` against the cold reference.

    A warm start re-optimises the prefix's optimal tableau by the dual
    simplex, so it may stop at another optimal point: the verdict and the
    value must equal the reference's, and the point must be feasible and
    attain the value."""

    def test_random_splits(self):
        rng = random.Random(8128)
        seen = dict.fromkeys(("<=", ">=", "=", "negative rhs", "free", Optimal, Infeasible), 0)
        for trial in range(6000):
            full = (random_lp if trial % 2 else random_lower_bounded_lp)(rng)
            k = rng.randrange(len(full.constraints) + 1)
            start = solve(replace(full, constraints=full.constraints[:k]))
            if not isinstance(start, Optimal):
                continue
            want = reference_solve(full)
            got = solve(full, start=start)
            assert type(got) is type(want), (full, k)
            if isinstance(want, Optimal):
                assert got.value == want.value, (full, k)
                assert satisfies(full, got.assignment) and _attains(full, got), (full, k)
            appended = full.constraints[k:]
            for relation in {c.relation for c in appended}:
                seen[relation] += 1
            seen["negative rhs"] += any(c.rhs < 0 for c in appended)
            seen["free"] += bool(appended) and None in full.lower
            seen[type(want)] += 1
        assert min(seen.values()) >= 100, seen

    def test_chained_starts(self):
        # each warm result starts the next longer prefix; the last one
        # must still agree with the cold reference
        rng = random.Random(8129)
        chains = 0
        for _ in range(2000):
            full = random_lower_bounded_lp(rng)
            result = solve(replace(full, constraints=full.constraints[:1]))
            for k in range(2, len(full.constraints) + 1):
                if not isinstance(result, Optimal):
                    break
                result = solve(replace(full, constraints=full.constraints[:k]), result)
            else:
                chains += len(full.constraints) > 2
                want = reference_solve(full)
                assert type(result) is type(want) and (
                    not isinstance(want, Optimal) or result.value == want.value
                ), full
        assert chains >= 100, chains

    def test_start_must_solve_a_prefix(self):
        rng = random.Random(8130)
        refused = dict.fromkeys(("objective", "lower", "order"), 0)
        while min(refused.values()) < 20:
            lp = random_lower_bounded_lp(rng)
            start = solve(lp)
            if not isinstance(start, Optimal):
                continue
            longer = replace(lp, constraints=lp.constraints + lp.constraints[:1])
            assert isinstance(solve(longer, start), (Optimal, Infeasible))
            others = {
                "objective": replace(
                    longer, objective=tuple(x + 1 for x in lp.objective)
                ),
                "lower": replace(
                    longer, lower=tuple(Fraction(-1) if x is None else None for x in lp.lower)
                ),
            }
            first, second, *rest = longer.constraints
            if first != second:
                others["order"] = replace(longer, constraints=(second, first, *rest))
            for kind, other in others.items():
                with pytest.raises(InvalidInputError):
                    solve(other, start)
                refused[kind] += 1

    def test_start_must_be_a_solved_optimum(self):
        lp = cycling_instance()
        for start in (
            Optimal(Fraction(1, 20), reference_solve(lp).assignment),
            Infeasible(),
            Unbounded(),
        ):
            with pytest.raises(InvalidInputError):
                solve(lp, start)

    def test_row_prices_need_a_solved_optimum(self):
        lp = cycling_instance()
        solved = solve(lp)
        prices = solved.row_prices()
        # one tableau row per inequality, two per equation, each priced <= 0
        assert len(prices) == sum(2 if c.relation == "=" else 1 for c in lp.constraints)
        assert all(price <= 0 for price in prices)
        built = Optimal(solved.value, solved.assignment)
        assert built == solved
        with pytest.raises(InvalidInputError, match="solve returned"):
            built.row_prices()

    def test_appended_rows_are_checked(self):
        # the search builds each child LP by appending its witness row
        lp = cycling_instance()
        row = ([1, 0, 0, "1/2"], ">=", "-3/7")
        longer = lp._with_rows([row])
        assert longer == LinearProgram.maximize(
            lp.objective, [*lp.constraints, row], lp.names, lp.lower
        )
        for bad in (([1, 0, 0], "<=", 1), ([1, 0, 0, 0], "<", 1), ([1, 0, 0, 0.5], "<=", 1)):
            with pytest.raises(InvalidInputError):
                lp._with_rows([bad])
