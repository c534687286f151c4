"""Closed-form bounds and class predicates against frozen values."""

import random
import re
from fractions import Fraction

import pytest

from alphahg import (
    ASHG,
    FHG,
    MFHG,
    ODD_EVEN,
    PAIRWISE_COMM,
    AlphaFunction,
    DomainError,
    ashg_improvement_bound,
    cpoa_upper_bound,
    fhg_improvement_bound,
    fhg_improvement_limit,
    guarantees_core_existence,
    improvement_bound,
    is_decreasing,
    is_hospitable,
    simple_fhg_bound,
)

# published-table values for the fractional variant
FHG_TABLE = {
    2: {3: "4/3", 4: "6/4", 5: "8/5", 6: "10/6", 7: "12/7", 8: "14/8", 9: "16/9"},
    3: {4: "5/4", 5: "6/5", 6: "8/6", 7: "9/7", 8: "11/8", 9: "12/9"},
    4: {5: "6/5", 6: "7/6", 7: "8/7", 8: "10/8", 9: "11/9"},
}


class TestImprovementBound:
    def test_fhg_table(self):
        for q, row in FHG_TABLE.items():
            for m, text in row.items():
                want = Fraction(text)
                assert improvement_bound(FHG, q, m) == want
                assert fhg_improvement_bound(q, m) == want

    @pytest.mark.parametrize(
        "alpha,q,m,expected",
        [
            (MFHG, 3, 8, Fraction(1)),
            (ASHG, 3, 6, Fraction(3)),
            (ASHG, 3, 4, Fraction(2)),
        ],
    )
    def test_spot_values(self, alpha, q, m, expected):
        assert improvement_bound(alpha, q, m) == expected

    def test_ashg_pair_baseline_grows_linearly(self):
        for m in range(3, 30):
            assert ashg_improvement_bound(2, m) == m - 1

    def test_ashg_adjacent_size_is_two(self):
        for q in range(2, 12):
            assert ashg_improvement_bound(q, q + 1) == 2

    def test_fhg_adjacent_size(self):
        assert fhg_improvement_bound(5, 6) == Fraction(7, 6)

    def test_factor_scales(self):
        k = Fraction(3, 2)
        assert fhg_improvement_bound(2, 5, k) == k * Fraction(8, 5)
        assert improvement_bound(ASHG, 3, 7, 2) == 2 * improvement_bound(ASHG, 3, 7)

    def test_factor_k_reduces_to_factor_one(self):
        scaled = 0
        for alpha in (ASHG, FHG, MFHG, PAIRWISE_COMM, ODD_EVEN):
            for q in range(2, 9):
                for m in range(q + 1, 31):
                    base = improvement_bound(alpha, q, m)
                    if base > 1:
                        for k in (Fraction(3, 2), Fraction(2), Fraction(7, 3)):
                            assert improvement_bound(alpha, q, m, k) == k * base, (alpha, q, m, k)
                            scaled += 1
        assert scaled >= 1000, scaled

    def test_closed_forms_agree_with_general(self):
        for q in range(2, 51):
            for m in range(q + 1, 51):
                assert fhg_improvement_bound(q, m) == improvement_bound(FHG, q, m)
                assert ashg_improvement_bound(q, m) == improvement_bound(ASHG, q, m)
                assert improvement_bound(MFHG, q, m) == 1

    def test_at_least_one(self):
        table = AlphaFunction.from_table([1, Fraction(1, 2), Fraction(1, 9), Fraction(1, 20)])
        for q in (2, 3):
            for m in range(q + 1, 5):
                assert improvement_bound(table, q, m) >= 1

    def test_not_monotone_in_coalition_size(self):
        assert fhg_improvement_bound(3, 5) == Fraction(6, 5)
        assert fhg_improvement_bound(3, 4) == Fraction(5, 4)
        assert fhg_improvement_bound(3, 5) < fhg_improvement_bound(3, 4)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            improvement_bound(FHG, 1, 3)
        with pytest.raises(DomainError):
            improvement_bound(FHG, 3, 3)
        with pytest.raises(DomainError):
            improvement_bound(FHG, 2, 4, Fraction(1, 2))


class TestImprovementLimit:
    def test_values(self):
        assert fhg_improvement_limit(2) == 2
        assert fhg_improvement_limit(3) == Fraction(3, 2)
        assert fhg_improvement_limit(4) == Fraction(4, 3)
        with pytest.raises(DomainError):
            fhg_improvement_limit(1)

    def test_dominates_every_size(self):
        for q in range(2, 9):
            limit = fhg_improvement_limit(q)
            for m in range(q + 1, 120):
                assert fhg_improvement_bound(q, m) <= limit


class TestSimpleFhgBound:
    def test_values(self):
        assert simple_fhg_bound(4) == Fraction(9, 8)
        assert simple_fhg_bound(6) == Fraction(5, 4)

    def test_never_reaches_three_halves(self):
        for m in range(4, 400):
            assert simple_fhg_bound(m) < Fraction(3, 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            simple_fhg_bound(3)


class TestClassPredicates:
    def test_hospitable(self):
        assert is_hospitable(FHG, 20)
        assert is_hospitable(ASHG, 20)
        assert is_hospitable(MFHG, 20)
        # the odd/even weighting drops too fast at size 5: (1/5)/(1/3) < 3/4
        assert not is_hospitable(ODD_EVEN, 5)
        # direct computation: (1/3)/1 < 1/2 already at size 3
        assert not is_hospitable(PAIRWISE_COMM, 20)

    def test_hospitable_matches_the_fraction_definition(self):
        def by_definition(alpha, max_size):
            return all(
                alpha.value(q) * (q - 1) >= alpha.value(q - 1) * (q - 2)
                for q in range(2, max_size + 1)
            )

        rng = random.Random(20241)
        tables = []
        for _ in range(200):
            values = [Fraction(rng.choice([0, 1, 3])), Fraction(rng.randint(1, 9), rng.randint(1, 9))]
            # each size's value is the threshold (q-2)/(q-1) times the last,
            # times a factor around 1: on it, above it or below it
            for q in range(3, 17):
                factor = Fraction(rng.choice([9, 10, 10, 11, 12]), 10)
                values.append(values[-1] * Fraction(q - 2, q - 1) * factor)
            tables.append(AlphaFunction.from_table(values))
        outcomes = set()
        for alpha in (FHG, ASHG, MFHG, PAIRWISE_COMM, ODD_EVEN, *tables):
            for max_size in range(2, 17):
                want = by_definition(alpha, max_size)
                assert is_hospitable(alpha, max_size) is want, (alpha, max_size)
                outcomes.add(want)
        assert outcomes == {True, False}

    def test_hospitable_stops_at_the_first_failure(self):
        # fails at size 3, so the sizes past the table's three are never read
        short = AlphaFunction.from_table(["1", "1", "1/10"])
        assert is_hospitable(short, 16) is False
        with pytest.raises(DomainError):
            is_hospitable(AlphaFunction.from_table(["1", "1", "1"]), 16)

    def test_decreasing(self):
        for alpha in (FHG, ASHG, MFHG, PAIRWISE_COMM, ODD_EVEN):
            assert is_decreasing(alpha, 20)
        assert not is_decreasing(AlphaFunction.from_table([1, 2]), 2)

    def test_core_existence_condition(self):
        assert guarantees_core_existence(MFHG, 20)
        for m in range(2, 21):
            assert (m - 1) * MFHG.value(m) == MFHG.value(2)  # holds with equality
        assert guarantees_core_existence(PAIRWISE_COMM, 20)
        assert guarantees_core_existence(ODD_EVEN, 20)
        assert not guarantees_core_existence(ASHG, 3)
        assert not guarantees_core_existence(FHG, 3)

    @pytest.mark.parametrize("call,message", [
        (lambda: is_hospitable(FHG, 1), "max_size must be >= 2"),
        (lambda: is_decreasing(FHG, 1), "max_size must be >= 2"),
        (lambda: guarantees_core_existence(FHG, 1), "max_size must be >= 2"),
        # at max_size 1 the next check would name the max_size instead
        (lambda: cpoa_upper_bound(FHG, 1, 1), "stable_size must be >= 2"),
        (lambda: cpoa_upper_bound(FHG, 3, 3), "max_size must be >= stable_size + 1"),
        (lambda: improvement_bound(FHG, 1, 4), "stable_size must be >= 2"),
        (lambda: fhg_improvement_bound(1, 4), "stable_size must be >= 2"),
        (lambda: ashg_improvement_bound(1, 4), "stable_size must be >= 2"),
        (lambda: fhg_improvement_limit(1), "stable_size must be >= 2"),
        (lambda: simple_fhg_bound(3), "coalition_size must be >= 4"),
    ], ids=["hospitable", "decreasing", "core existence", "cpoa q", "cpoa max_size",
            "bound q", "fhg bound q", "ashg bound q", "fhg limit q", "simple fhg m"])
    def test_size_refusals(self, call, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            call()


class TestCpoaUpperBound:
    def test_mfhg_is_two(self):
        for q in (2, 3, 5):
            assert cpoa_upper_bound(MFHG, q, 30) == 2

    def test_ashg(self):
        assert cpoa_upper_bound(ASHG, 2, 10) == 18

    def test_fhg_bounded_window(self):
        # sup over all sizes is 4; any finite window stays strictly below
        value = cpoa_upper_bound(FHG, 2, 50)
        assert value == Fraction(98, 25)
        assert value <= 2 * fhg_improvement_limit(2) == 4

    def test_requires_decreasing(self):
        increasing = AlphaFunction.from_table([1, 1, 2, 3])
        with pytest.raises(DomainError):
            cpoa_upper_bound(increasing, 2, 4)
