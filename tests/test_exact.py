"""The exact-arithmetic boundary: every public entry point admits its
rationals through ``alphahg._rat.exact``, so floats, bools and
float-like strings are rejected everywhere, just as in files."""

from fractions import Fraction

import pytest

from alphahg import (
    FHG,
    AlphaFunction,
    Game,
    InvalidInputError,
    LinearProgram,
    Partition,
    SearchProblem,
    ashg_improvement_bound,
    fhg_improvement_bound,
    find_blocking_coalition,
    improvement_bound,
    improvement_cpoa,
    is_improvement_stable,
    is_size_factor_stable,
    search_blocking_scenario,
)
from alphahg import _rat, io
from alphahg.search import INFEASIBLE_WITHIN_BOUNDS
from alphahg.stability import Scenario, blocking_members_check

INEXACT = [0.1, 4 / 3, True, "2.5", "1e3"]

_GAME = Game.from_matrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]], FHG)
_PAIRS = Partition.of([[0, 1], [2]])

ENTRY_POINTS = {
    "Game.from_matrix": lambda x: Game.from_matrix([[0, x], [x, 0]], FHG),
    "Game.from_edges": lambda x: Game.from_edges(2, [(0, 1, x)], FHG),
    "Game": lambda x: Game(2, ((0, x), (x, 0)), FHG),
    "Scenario weights": lambda x: Scenario(2, ((0, x), (x, 0)), (1, 1), FHG),
    "Scenario baselines": lambda x: Scenario(2, ((0, 1), (1, 0)), (1, x), FHG),
    "AlphaFunction.from_table": lambda x: AlphaFunction.from_table([0, x]),
    "SearchProblem gamma": lambda x: SearchProblem(FHG, 2, 3, gamma=x),
    "SearchProblem weight_bound": lambda x: SearchProblem(FHG, 2, 3, 2, weight_bound=x),
    "SearchProblem baseline_bound": lambda x: SearchProblem(FHG, 2, 3, 2, baseline_bound=x),
    "LinearProgram coefficient": lambda x: LinearProgram.maximize([1], [([x], "<=", 1)]),
    "LinearProgram rhs": lambda x: LinearProgram.maximize([1], [([1], "<=", x)]),
    "LinearProgram objective": lambda x: LinearProgram.maximize([x], [([1], "<=", 1)]),
    "LinearProgram lower": lambda x: LinearProgram.maximize([1], [([1], "<=", 1)], lower=[x]),
    "find_blocking_coalition": lambda x: find_blocking_coalition(_GAME, _PAIRS, 1, 3, x),
    "is_size_factor_stable": lambda x: is_size_factor_stable(_GAME, _PAIRS, 2, x),
    "is_improvement_stable": lambda x: is_improvement_stable(_GAME, _PAIRS, x),
    "blocking_members_check": lambda x: blocking_members_check(_GAME, _PAIRS, (0, 2), x),
    "improvement_bound": lambda x: improvement_bound(FHG, 2, 3, x),
    "fhg_improvement_bound": lambda x: fhg_improvement_bound(2, 3, x),
    "ashg_improvement_bound": lambda x: ashg_improvement_bound(2, 3, x),
    "improvement_cpoa": lambda x: improvement_cpoa(_GAME, x),
}


@pytest.mark.parametrize("value", INEXACT, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_inexact_rational_rejected(entry, value):
    with pytest.raises(InvalidInputError):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_exact_rational_accepted(entry):
    # the same calls go through with an exact 3/2
    ENTRY_POINTS[entry](Fraction(3, 2))


def test_exact_admits_every_rational_form():
    third = Fraction(1, 3)
    assert _rat.exact(third) is third
    assert _rat.exact(7) == Fraction(7) and type(_rat.exact(7)) is Fraction
    assert _rat.exact(" -2/6 ") == Fraction(-1, 3)
    assert io.parse_rational is _rat.exact


def test_scaled_clears_denominators():
    assert _rat.scaled([Fraction(1, 2), Fraction(-2, 3), Fraction(5)]) == ([3, -4, 30], 6)


def test_float_gamma_cannot_flip_the_fhg_bound():
    # 4/3 is the fractional bound at q=2, m=3; the float just above it
    # used to be accepted and answered "feasible"
    with pytest.raises(InvalidInputError):
        SearchProblem(alpha=FHG, stable_size=2, size=3, gamma=4 / 3)
    problem = SearchProblem(alpha=FHG, stable_size=2, size=3, gamma=Fraction(4, 3))
    assert search_blocking_scenario(problem).verdict == INFEASIBLE_WITHIN_BOUNDS
