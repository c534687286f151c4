"""The integer tableau against the Fraction simplex it replaced.

Both run the same two-phase simplex with Bland's rule, so they must take
the same pivots and return equal results: the same verdict, and for
Optimal the same value and the same point.  ``reference_lp`` holds the
Fraction implementation.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import reference_lp
from alphahg import lp as integer_lp
from alphahg.lp import Infeasible, LinearProgram, Optimal, Unbounded, solve
from reference_lp import reference_solve

DENOMINATORS = (1, 1, 2, 3, 4, 5, 6, 7, 12, 35)


def _rational(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def random_lp(rng):
    """Up to 5 variables, each free or nonnegative, and up to 6 rows of
    every relation with mixed-denominator coefficients.  Some programs
    get a multiple of one of their rows, which leaves a redundant
    equality whose artificial cannot be pivoted out after phase 1."""
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


class TestSameResults:
    def test_random_programs(self):
        rng = random.Random(2024)
        kinds = {Optimal: 0, Infeasible: 0, Unbounded: 0}
        for _ in range(3000):
            lp = random_lp(rng)
            want = reference_solve(lp)
            assert solve(lp) == want, lp
            kinds[type(want)] += 1
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
        assert solve(lp) == reference_solve(lp)
        assert solve(lp).value == Fraction(1, 20)

    def test_random_lower_bounded_programs(self):
        rng = random.Random(4096)
        kinds = {Optimal: 0, Infeasible: 0, Unbounded: 0}
        for _ in range(2000):
            lp = random_lower_bounded_lp(rng)
            want = reference_solve(lp)
            assert solve(lp) == want, lp
            kinds[type(want)] += 1
        assert min(kinds.values()) >= 200, kinds


class TestSamePivots:
    """Not only equal answers: the very same pivot sequence, including
    artificials pivoted out on a negative element and redundant rows
    dropped after phase 1."""

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
        negative = dropped = 0
        for _ in range(1000):
            lp = random_lp(rng)
            pivot_log["int"].clear()
            pivot_log["ref"].clear()
            solve(lp)
            reference_solve(lp)
            pivots = pivot_log["int"]
            assert pivots == pivot_log["ref"], lp
            negative += any(neg for _, _, neg, _ in pivots)
            dropped += len({rows for _, _, _, rows in pivots}) > 1
        assert negative >= 10 and dropped >= 10

    def test_random_lower_bounded_programs(self, pivot_log):
        rng = random.Random(4097)
        for _ in range(500):
            lp = random_lower_bounded_lp(rng)
            pivot_log["int"].clear()
            pivot_log["ref"].clear()
            solve(lp)
            reference_solve(lp)
            assert pivot_log["int"] == pivot_log["ref"], lp

    def test_cycling_instance(self, pivot_log):
        lp = cycling_instance()
        solve(lp)
        reference_solve(lp)
        assert pivot_log["int"] == pivot_log["ref"]
        assert len(pivot_log["int"]) > 0
