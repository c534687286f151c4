"""The exact-arithmetic boundary: every public entry point admits its
rationals through ``alphahg._rat.exact``, so floats, bools and
float-like strings are rejected everywhere, just as in files, its
sizes, counts and agent indices through ``alphahg._rat.integer``, so
only ints pass, its names through ``alphahg.core._name``, so only
strings pass, and every alpha it stores through
``alphahg.core._alpha_function``, so only an ``AlphaFunction`` passes."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphahg import (
    ASHG,
    FHG,
    AlphaFunction,
    Coalition,
    Game,
    InvalidInputError,
    LinearProgram,
    Partition,
    SearchProblem,
    ashg_improvement_bound,
    build_construction,
    coalition_utility,
    fhg_improvement_bound,
    find_blocking_coalition,
    improvement_bound,
    complete_graph_scenario,
    cpoa_upper_bound,
    cycle_scenario,
    enumerate_partitions,
    fhg_improvement_limit,
    fixture,
    guarantees_core_existence,
    improvement_cpoa,
    is_decreasing,
    is_hospitable,
    is_improvement_stable,
    is_size_factor_stable,
    is_size_stable,
    mantel_scenario,
    max_improvement_factor_at_size,
    partition_utility,
    scenario_is_size_stable,
    search_blocking_scenario,
    simple_fhg_bound,
    size_cpoa,
    two_group_scenario,
    two_halves_scenario,
    two_valued_scenario,
)
from alphahg import _rat, core, io
from alphahg.search import INFEASIBLE_WITHIN_BOUNDS
from alphahg.generators import complete_graph_factor
from alphahg.stability import Scenario
from reference_stability import blocking_members_check

#: refused by every entry point; ``int`` would read the last two as
#: 1000 and 10
INEXACT = [0.1, 4 / 3, True, "2.5", "1e3", "1_000", "\u0661\u0660"]

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
    "LinearProgram upper": lambda x: LinearProgram.maximize(
        [1], [([1], "<=", 1)], lower=[0], upper=[x]
    ),
    "find_blocking_coalition": lambda x: find_blocking_coalition(_GAME, _PAIRS, 1, 3, x),
    "is_size_factor_stable": lambda x: is_size_factor_stable(_GAME, _PAIRS, 2, x),
    "is_improvement_stable": lambda x: is_improvement_stable(_GAME, _PAIRS, x),
    "blocking_members_check": lambda x: blocking_members_check(_GAME, _PAIRS, (0, 2), x),
    "improvement_bound": lambda x: improvement_bound(FHG, 2, 3, x),
    "fhg_improvement_bound": lambda x: fhg_improvement_bound(2, 3, x),
    "ashg_improvement_bound": lambda x: ashg_improvement_bound(2, 3, x),
    "improvement_cpoa": lambda x: improvement_cpoa(_GAME, x),
}


NOT_INTEGERS = [2.5, 3.0, True, Fraction(3), "3"]

_ZEROS = ((0, 0, 0),) * 3
_GRAND = Partition.of([[0, 1, 2]])
_SCENARIO = Scenario(3, ((0, 1, 2), (1, 0, 3), (2, 3, 0)), (1, 1, 1), FHG)

#: every public size, count or agent-index parameter, each called with
#: a valid int in its place
INTEGER_ENTRY_POINTS = {
    "AlphaFunction.value": (lambda x: FHG.value(x), 3),
    "Partition.singletons": (lambda x: Partition.singletons(x), 3),
    "Partition.covers": (lambda x: _PAIRS.covers(x), 3),
    "Game n": (lambda x: Game(x, _ZEROS, FHG), 3),
    "Game.from_edges n": (lambda x: Game.from_edges(x, [], FHG), 3),
    "Game.from_edges endpoint": (lambda x: Game.from_edges(4, [(x, 0, 1)], FHG), 3),
    "Coalition member": (lambda x: Coalition.of([x, 0]), 3),
    "Partition.block_of": (lambda x: _PAIRS.block_of(x), 2),
    "coalition_utility member": (lambda x: coalition_utility(_GAME, [0, x], 0), 2),
    "coalition_utility agent": (lambda x: coalition_utility(_GAME, [0, 2], x), 2),
    "partition_utility": (lambda x: partition_utility(_GAME, _PAIRS, x), 2),
    "io.game_from_dict n": (lambda x: io.game_from_dict({"n": x, "alpha": "fhg"}), 3),
    "Scenario size": (lambda x: Scenario(x, _ZEROS, (1, 1, 1), FHG), 3),
    "find_blocking_coalition min_size": (lambda x: find_blocking_coalition(_GAME, _PAIRS, x, 3), 3),
    "find_blocking_coalition max_size": (lambda x: find_blocking_coalition(_GAME, _PAIRS, 1, x), 3),
    "is_size_stable": (lambda x: is_size_stable(_GAME, _PAIRS, x), 3),
    "is_size_factor_stable": (lambda x: is_size_factor_stable(_GAME, _PAIRS, x, 1), 3),
    "scenario_is_size_stable": (lambda x: scenario_is_size_stable(_SCENARIO, x), 3),
    "max_improvement_factor_at_size": (lambda x: max_improvement_factor_at_size(_GAME, _GRAND, x), 3),
    "improvement_bound stable_size": (lambda x: improvement_bound(FHG, x, 4), 3),
    "improvement_bound coalition_size": (lambda x: improvement_bound(FHG, 2, x), 3),
    "fhg_improvement_bound": (lambda x: fhg_improvement_bound(x, 4), 3),
    "ashg_improvement_bound": (lambda x: ashg_improvement_bound(2, x), 3),
    "fhg_improvement_limit": (lambda x: fhg_improvement_limit(x), 3),
    "simple_fhg_bound": (lambda x: simple_fhg_bound(x), 4),
    "is_hospitable": (lambda x: is_hospitable(FHG, x), 3),
    "is_decreasing": (lambda x: is_decreasing(FHG, x), 3),
    "guarantees_core_existence": (lambda x: guarantees_core_existence(FHG, x), 3),
    "cpoa_upper_bound stable_size": (lambda x: cpoa_upper_bound(FHG, x, 5), 3),
    "cpoa_upper_bound max_size": (lambda x: cpoa_upper_bound(FHG, 2, x), 3),
    "enumerate_partitions": (lambda x: next(enumerate_partitions(x)), 3),
    "size_cpoa": (lambda x: size_cpoa(_GAME, x), 3),
    "SearchProblem stable_size": (lambda x: SearchProblem(FHG, x, 4, 2), 3),
    "SearchProblem size": (lambda x: SearchProblem(FHG, 2, x, 2), 3),
    "SearchProblem node_limit": (lambda x: SearchProblem(FHG, 2, 3, 2, node_limit=x), 3),
    "complete_graph_scenario": (lambda x: complete_graph_scenario(FHG, 2, x), 3),
    "complete_graph_factor": (lambda x: complete_graph_factor(FHG, 2, x), 3),
    "two_halves_scenario": (lambda x: two_halves_scenario(ASHG, x), 4),
    "cycle_scenario": (lambda x: cycle_scenario(FHG, x), 3),
    "two_valued_scenario": (lambda x: two_valued_scenario(x), 5),
    "two_group_scenario": (lambda x: two_group_scenario(x), 5),
    "mantel_scenario": (lambda x: mantel_scenario(x), 4),
}


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_non_integer_size_rejected(entry, value):
    with pytest.raises(InvalidInputError):
        INTEGER_ENTRY_POINTS[entry][0](value)


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_integer_size_accepted(entry):
    call, valid = INTEGER_ENTRY_POINTS[entry]
    call(valid)


@pytest.mark.parametrize("value", ["5", True, float("nan"), -1, Fraction(-1, 2), [1]], ids=repr)
def test_time_limit_rejected(value):
    with pytest.raises(InvalidInputError):
        SearchProblem(FHG, 2, 3, 2, time_limit=value)


@pytest.mark.parametrize("value", [None, 0, 5, 2.5, Fraction(1, 2), float("inf")], ids=repr)
def test_time_limit_accepted(value):
    assert SearchProblem(FHG, 2, 3, 2, time_limit=value).time_limit == value


NOT_NAMES = [None, 3, b"fhg", ["fhg"]]

#: every public name parameter, each called with a valid name in its place
NAME_ENTRY_POINTS = {
    "AlphaFunction.from_name": (lambda x: AlphaFunction.from_name(x), " FHG "),
    "fixture": (lambda x: fixture(x), "FIG6"),
    "build_construction": (lambda x: build_construction(x, FHG, 2, 3), " Complete"),
}


@pytest.mark.parametrize("value", NOT_NAMES, ids=repr)
@pytest.mark.parametrize("entry", sorted(NAME_ENTRY_POINTS))
def test_non_string_name_rejected(entry, value):
    with pytest.raises(InvalidInputError):
        NAME_ENTRY_POINTS[entry][0](value)


@pytest.mark.parametrize("entry", sorted(NAME_ENTRY_POINTS))
def test_name_accepted(entry):
    call, valid = NAME_ENTRY_POINTS[entry]
    call(valid)


NOT_ALPHAS = ["fhg", None, FHG.value]

#: every public entry point that stores an alpha, each called with a
#: valid alpha in its place
ALPHA_ENTRY_POINTS = {
    "Game": lambda x: Game(2, ((0, 1), (1, 0)), x),
    "Game.from_matrix": lambda x: Game.from_matrix([[0, 1], [1, 0]], x),
    "Game.from_edges": lambda x: Game.from_edges(2, [(0, 1, 1)], x),
    "Scenario": lambda x: Scenario(2, ((0, 1), (1, 0)), (1, 1), x),
    "Scenario.from_pairs": lambda x: Scenario.from_pairs(x, 2, lambda i, j: 1),
    "SearchProblem": lambda x: SearchProblem(x, 2, 3, Fraction(4, 3)),
}


@pytest.mark.parametrize("value", NOT_ALPHAS, ids=repr)
@pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
def test_non_alpha_rejected(entry, value):
    # a stored string would fail only later, with an AttributeError, in
    # the first check or LP that reads alpha.value
    with pytest.raises(InvalidInputError):
        ALPHA_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
def test_alpha_accepted(entry):
    assert ALPHA_ENTRY_POINTS[entry](FHG).alpha is FHG


#: the 4-agent path, and a table that defines alpha up to size 2 only
PATH = ((0, 1, 1), (1, 2, 1), (2, 3, 1))
PATH_MATRIX = tuple(tuple(int(abs(i - j) == 1) for j in range(4)) for i in range(4))

#: every public entry point that stores an alpha for a number of agents,
#: each called with four agents
SIZED_ALPHA_ENTRY_POINTS = {
    "Game": lambda x: Game(4, PATH_MATRIX, x),
    "Game.from_matrix": lambda x: Game.from_matrix(PATH_MATRIX, x),
    "Game.from_edges": lambda x: Game.from_edges(4, PATH, x),
    "Scenario": lambda x: Scenario(4, PATH_MATRIX, (1, 1, 1, 1), x),
    "Scenario.from_pairs": lambda x: Scenario.from_pairs(x, 4, lambda i, j: int(j == i + 1)),
    "SearchProblem": lambda x: SearchProblem(x, 2, 4, Fraction(4, 3)),
}


@pytest.mark.parametrize("values", [[0], [0, 1], [0, 1, 1]], ids=len)
@pytest.mark.parametrize("entry", sorted(SIZED_ALPHA_ENTRY_POINTS))
def test_short_alpha_table_rejected(entry, values):
    # a table that stops before the game's size gave a verdict on some
    # partitions and a refusal mid-scan on others
    with pytest.raises(InvalidInputError, match="alpha table has"):
        SIZED_ALPHA_ENTRY_POINTS[entry](AlphaFunction.from_table(values))


@pytest.mark.parametrize("entry", sorted(SIZED_ALPHA_ENTRY_POINTS))
def test_full_alpha_table_accepted(entry):
    for values in ([0, 1, 1, 1], [0, 1, 1, 1, 1]):
        alpha = AlphaFunction.from_table(values)
        assert SIZED_ALPHA_ENTRY_POINTS[entry](alpha).alpha is alpha


#: a str and a bytes that each read as the sequence (0, 1)
NOT_SEQUENCES = ["01", b"\x00\x01"]

#: every public entry point that admits a sequence of rationals, each
#: called with a valid sequence (0, 1) in its place
SEQUENCE_ENTRY_POINTS = {
    "Game row": lambda x: Game(2, (x, (1, 0)), FHG),
    "Game.from_matrix row": lambda x: Game.from_matrix([x, [1, 0]], FHG),
    "Scenario row": lambda x: Scenario(2, (x, (1, 0)), (1, 1), FHG),
    "Scenario baselines": lambda x: Scenario(2, ((0, 1), (1, 0)), x, FHG),
    "Scenario.from_pairs baselines": lambda x: Scenario.from_pairs(FHG, 2, lambda i, j: 1, x),
    "AlphaFunction": lambda x: AlphaFunction("table", x),
    "AlphaFunction.from_table": lambda x: AlphaFunction.from_table(x),
    "LinearProgram coefficients": lambda x: LinearProgram(("a", "b"), ((x, 3),), (1, 1)),
    "LinearProgram objective": lambda x: LinearProgram(("a", "b"), (((1, 1), 3),), x),
    "LinearProgram lower": lambda x: LinearProgram(("a", "b"), (((1, 1), 3),), (1, 1), x),
    "LinearProgram upper": lambda x: LinearProgram(("a", "b"), (((1, 1), 3),), (1, 1), (0, 0), x),
    "LinearProgram.maximize objective": lambda x: LinearProgram.maximize(x, [((1, 1), "<=", 3)]),
    "LinearProgram.maximize >= row": lambda x: LinearProgram.maximize((1, 1), [(x, ">=", 0)]),
    "LinearProgram.maximize lower": lambda x: LinearProgram.maximize(
        (1, 1), [((1, 1), "<=", 3)], lower=x
    ),
    "LinearProgram.maximize upper": lambda x: LinearProgram.maximize(
        (1, 1), [((1, 1), "<=", 3)], lower=(0, 0), upper=x
    ),
    "LinearProgram names": lambda x: LinearProgram(x, (((1, 1), 3),), (1, 1)),
    "LinearProgram.maximize names": lambda x: LinearProgram.maximize(
        [1, 1], [([1, 1], "<=", 3)], names=x
    ),
}


@pytest.mark.parametrize("value", NOT_SEQUENCES, ids=repr)
@pytest.mark.parametrize("entry", sorted(SEQUENCE_ENTRY_POINTS))
def test_string_sequence_rejected(entry, value):
    # read entry by entry, a str would give "0" and "1" and a bytes the
    # ints 0 and 1, so either would pass as (0, 1)
    with pytest.raises(InvalidInputError):
        SEQUENCE_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", sorted(SEQUENCE_ENTRY_POINTS))
def test_sequence_accepted(entry):
    for valid in ((0, 1), [0, 1]):
        SEQUENCE_ENTRY_POINTS[entry](valid)


def test_integer_admits_only_ints():
    assert _rat.integer(7) == 7
    for value in NOT_INTEGERS:
        with pytest.raises(InvalidInputError):
            _rat.integer(value)


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


def _int_grammar(text):
    """The string's value when its ``/``-separated parts are read by
    ``int``, or None where it is refused: more than two parts, a ``_``,
    a non-ASCII character inside a part, or a zero denominator."""
    parts = text.split("/")
    if len(parts) > 2 or "_" in text or not all(p.strip().isascii() for p in parts):
        return None
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        return None
    if len(numbers) == 2 and numbers[1] == 0:
        return None
    return Fraction(*numbers)


_SPACE = st.sampled_from(["", " ", "\t", "\u00a0"])
_PART = st.tuples(
    _SPACE, st.sampled_from(["", "+", "-"]), st.text("0123456789", min_size=1, max_size=4), _SPACE
).map("".join)


@given(st.one_of(
    _PART,
    st.tuples(_PART, _PART).map("/".join),
    st.text(alphabet=" \t\u00a0+-/0129_.e\u0661\uff11", max_size=9),
))
def test_exact_string_grammar(text):
    want = _int_grammar(text)
    if want is None:
        with pytest.raises(InvalidInputError):
            _rat.exact(text)
    else:
        assert _rat.exact(text) == want


@given(st.fractions())
def test_exact_returns_a_fraction_as_it_is(value):
    assert _rat.exact(value) is value


def test_scaled_clears_denominators():
    assert _rat.scaled([Fraction(1, 2), Fraction(-2, 3), Fraction(5)]) == ([3, -4, 30], 6)


@pytest.mark.parametrize("weights,expected", [
    (
        [
            [0, Fraction(1, 2), Fraction(-2, 3)],
            [Fraction(1, 2), 0, Fraction(5)],
            [Fraction(-2, 3), Fraction(5), 0],
        ],
        (6, [[0, 3, -4], [3, 0, 30], [-4, 30, 0]]),
    ),
    # one agent has no pair, and _rat.scaled of no values takes lcm() = 1
    ([[Fraction(0)]], (1, [[0]])),
    ([[Fraction(0)] * 3 for _ in range(3)], (1, [[0] * 3 for _ in range(3)])),
])
def test_scaled_pairs_clears_a_weight_matrix(weights, expected):
    assert core._scaled_pairs(weights) == expected


def test_float_gamma_cannot_flip_the_fhg_bound():
    # 4/3 is the fractional bound at q=2, m=3; the float just above it
    # used to be accepted and answered "feasible"
    with pytest.raises(InvalidInputError):
        SearchProblem(alpha=FHG, stable_size=2, size=3, gamma=4 / 3)
    problem = SearchProblem(alpha=FHG, stable_size=2, size=3, gamma=Fraction(4, 3))
    assert search_blocking_scenario(problem).verdict == INFEASIBLE_WITHIN_BOUNDS
