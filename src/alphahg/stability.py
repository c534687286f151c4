"""Brute-force stability verifiers.

Four notions are checked exhaustively, all variations on one theme: a
coalition *blocks* a partition when every member strictly improves on
their partition utility (optionally by more than a factor ``k``).

* size-stable up to ``q``: no blocking coalition of size at most ``q``;
* core stable: no blocking coalition of any size;
* size/factor stable at ``(q, k)``: no coalition of size exactly ``q``
  in which every member improves by a factor of more than ``k``;
* improvement stable at ``k``: size/factor stable at ``(q, k)`` for
  every ``q``.

Verdicts are exhaustive at the configured scale, never sampled.
Enumeration is by increasing size, then lexicographic member order, so
returned witnesses are deterministic.  A :class:`Scenario` is a
candidate blocking coalition studied in isolation: weights among its
members plus fixed baseline utilities.

Every blocking check, and the search's branching test, runs one
integer kernel (:func:`_first_blocking`): weights are multiplied once by
the least common multiple ``L`` of their denominators, each threshold
becomes one int per coalition size, and the scan itself only adds and
compares ints.  The improvement-factor scan shares that scaling and
compares ratios by cross-multiplying.  The answers are exactly those of
rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from ._rat import exact, scaled
from .core import (
    AlphaFunction,
    Coalition,
    Game,
    Partition,
    _weight_matrix,
    check_partition,
    coalition_utility,
    partition_utility,
)
from .errors import DomainError, InvalidInputError, ResourceLimitError

#: Default ceiling on the number of coalitions a single verification may
#: enumerate.  Exceeding it raises, never silently truncates.
DEFAULT_SUBSET_BUDGET = 5_000_000


@dataclass(frozen=True)
class Scenario:
    """Weights among ``size`` agents plus fixed baseline utilities.

    The baselines play the role of the agents' utilities under some
    ambient partition that is never materialized.  Searches produce
    scenarios; generators emit them.
    """

    size: int
    weights: tuple[tuple[Fraction, ...], ...]
    baselines: tuple[Fraction, ...]
    alpha: AlphaFunction

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InvalidInputError("scenario needs at least one agent")
        rows = _weight_matrix(self.weights, self.size)
        if len(self.baselines) != self.size:
            raise InvalidInputError("need one baseline per agent")
        object.__setattr__(self, "weights", rows)
        object.__setattr__(self, "baselines", tuple(map(exact, self.baselines)))


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a stability check.

    When ``stable`` is false, ``witness`` is the first blocking
    coalition in (size, lexicographic) order; re-evaluating it violates
    the checked inequality for every member.
    """

    stable: bool
    witness: Coalition | None
    checked_sizes: tuple[int, int]
    factor: Fraction


def _subset_budget_guard(n: int, min_size: int, max_size: int, budget: int) -> None:
    total = sum(math.comb(n, s) for s in range(min_size, max_size + 1))
    if total > budget:
        raise ResourceLimitError(
            f"enumerating {total} coalitions exceeds the budget of {budget}"
        )


def _scaled_weights(weights) -> tuple[int, list[list[int]]]:
    """``(L, W)``: ``L`` the least common multiple of every weight's
    denominator and ``W[i][j] = L * weights[i][j]`` as ints."""
    n = len(weights)
    flat, scale = scaled([w for row in weights for w in row])
    return scale, [flat[i:i + n] for i in range(0, n * n, n)]


def _scaled_utilities(
    game: Game, partition: Partition, scaled: list[list[int]]
) -> list[tuple[int, int]]:
    """Each agent's partition utility times ``L``, as ``(num, den)`` with
    ``den > 0``; ``scaled`` comes from :func:`_scaled_weights`."""
    utilities = [(0, 1)] * game.n
    for block in partition.blocks:
        a = game.alpha.value(len(block))
        for i in block:
            row = scaled[i]
            utilities[i] = (a.numerator * sum(row[j] for j in block), a.denominator)
    return utilities


def _first_blocking(
    scaled: list[list[int]],
    thresholds: list[tuple[int, int]],
    alpha: AlphaFunction,
    min_size: int,
    max_size: int,
) -> tuple[int, ...] | None:
    """The blocking-coalition kernel behind every exhaustive check.

    ``scaled`` holds weights times ``L`` as ints (see
    :func:`_scaled_weights`) and ``thresholds[i] = (num, den)``, with
    ``den > 0``, is agent ``i``'s threshold times ``L``.  Returns the
    first coalition ``S`` with ``2 <= min_size <= |S| <= max_size``, by
    size and then lexicographic order, in which every member ``i`` has
    ``alpha(|S|) * sum_{j in S} w_ij`` strictly above their threshold.
    Since ``alpha(s) > 0`` for ``s >= 2``, that is the int test
    ``sum_{j in S} W[i][j] > floor(num / (den * alpha(s)))``.
    """
    n = len(scaled)
    getters = [row.__getitem__ for row in scaled]
    for s in range(min_size, max_size + 1):
        a = alpha.value(s)
        an, ad = a.numerator, a.denominator
        limits = [(num * ad) // (den * an) for num, den in thresholds]
        # a coalition in lex order is a prefix of s - 1 agents plus a
        # last agent after them; most fail on their first member, whose
        # test reduces to one compare per last agent
        for prefix in combinations(range(n - 1), s - 1):
            first = prefix[0]
            row = scaled[first]
            rest = limits[first] - sum(map(getters[first], prefix))
            for last in range(prefix[-1] + 1, n):
                if row[last] <= rest:
                    continue
                combo = prefix + (last,)
                for i in combo[1:]:
                    if sum(map(getters[i], combo)) <= limits[i]:
                        break
                else:
                    return combo
    return None


def find_blocking_coalition(
    game: Game,
    partition: Partition,
    min_size: int,
    max_size: int,
    factor: Fraction | int = 1,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
) -> Coalition | None:
    """First coalition (by size, then lex order) in which every member
    gets utility strictly greater than ``factor`` times their partition
    utility; ``None`` if no such coalition exists in the size range.
    """
    n = game.n
    factor = exact(factor)
    if not (1 <= min_size <= max_size <= n):
        raise DomainError(f"need 1 <= min_size <= max_size <= {n}")
    if factor < 1:
        raise DomainError("improvement factor must be >= 1")
    check_partition(game, partition)
    _subset_budget_guard(n, min_size, max_size, subset_budget)

    scaled = _scaled_weights(game.weights)[1]
    kp, kq = factor.numerator, factor.denominator
    thresholds = [
        (kp * num, kq * den) for num, den in _scaled_utilities(game, partition, scaled)
    ]

    if min_size == 1:
        # a singleton yields utility 0, so it blocks iff 0 > threshold
        for i in range(n):
            if thresholds[i][0] < 0:
                return Coalition.of([i])

    witness = _first_blocking(
        scaled, thresholds, game.alpha, max(min_size, 2), max_size
    )
    return None if witness is None else Coalition.of(witness)


def is_size_stable(
    game: Game,
    partition: Partition,
    max_size: int,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
) -> StabilityReport:
    """No blocking coalition of size at most ``max_size``."""
    witness = find_blocking_coalition(
        game, partition, 1, max_size, 1, subset_budget=subset_budget
    )
    return StabilityReport(witness is None, witness, (1, max_size), Fraction(1))


def is_core_stable(
    game: Game,
    partition: Partition,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
) -> StabilityReport:
    """No blocking coalition of any size."""
    return is_size_stable(game, partition, game.n, subset_budget=subset_budget)


def is_size_factor_stable(
    game: Game,
    partition: Partition,
    size: int,
    factor: Fraction | int,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
) -> StabilityReport:
    """Every coalition of size exactly ``size`` has a member who does
    not improve by a factor of more than ``factor``."""
    factor = exact(factor)
    witness = find_blocking_coalition(
        game, partition, size, size, factor, subset_budget=subset_budget
    )
    return StabilityReport(witness is None, witness, (size, size), factor)


def is_improvement_stable(
    game: Game,
    partition: Partition,
    factor: Fraction | int,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
) -> StabilityReport:
    """No coalition of any size lets every member improve by a factor
    of more than ``factor``."""
    factor = exact(factor)
    witness = find_blocking_coalition(
        game, partition, 1, game.n, factor, subset_budget=subset_budget
    )
    return StabilityReport(witness is None, witness, (1, game.n), factor)


def scenario_is_size_stable(
    scenario: Scenario,
    max_size: int,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
) -> bool:
    """Would the scenario's baselines survive as size-stable up to
    ``max_size`` among these agents?

    True iff no baseline is negative (a singleton deviation) and every
    subset of size 2..max_size contains an agent whose subset utility
    does not exceed their baseline.
    """
    m = scenario.size
    if not (1 <= max_size <= m):
        raise DomainError(f"need 1 <= max_size <= {m}")
    if any(b < 0 for b in scenario.baselines):
        return False
    _subset_budget_guard(m, 2, max(max_size, 2), subset_budget)
    return _scenario_first_blocking(scenario, max_size) is None


def _scenario_first_blocking(
    scenario: Scenario, max_size: int
) -> tuple[int, ...] | None:
    """First subset of size 2..max_size (size, then lex order) in which
    every member's utility exceeds their baseline."""
    scale, scaled = _scaled_weights(scenario.weights)
    thresholds = [(b.numerator * scale, b.denominator) for b in scenario.baselines]
    return _first_blocking(scaled, thresholds, scenario.alpha, 2, max_size)


def min_improvement_factor(scenario: Scenario) -> Fraction:
    """Worst improvement ratio over the full coalition: the minimum over
    agents of full-coalition utility divided by baseline.

    Requires strictly positive baselines.
    """
    if any(b <= 0 for b in scenario.baselines):
        raise DomainError("improvement factors need strictly positive baselines")
    a = scenario.alpha.value(scenario.size)
    return min(
        a * sum(row, Fraction(0)) / b
        for row, b in zip(scenario.weights, scenario.baselines)
    )


def max_improvement_factor_at_size(
    game: Game,
    partition: Partition,
    size: int,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
) -> Fraction:
    """The largest factor by which some coalition of exactly ``size``
    agents lets *all* its members improve; equivalently the smallest
    ``k`` at which the partition is size/factor stable at ``(size, k)``.

    Requires every agent's partition utility to be strictly positive.
    """
    n = game.n
    if not (2 <= size <= n):
        raise DomainError(f"need 2 <= size <= {n}")
    check_partition(game, partition)
    scaled = _scaled_weights(game.weights)[1]
    utilities = _scaled_utilities(game, partition, scaled)
    if any(num <= 0 for num, _ in utilities):
        raise DomainError("improvement factors need strictly positive baselines")
    _subset_budget_guard(n, size, size, subset_budget)

    # with utility u_i * L = u_num / u_den, member i's ratio is
    # alpha * W_i(S) * u_den / u_num; alpha is common to all of them, so
    # compare W_i(S) * u_den / u_num by cross-multiplying and keep the
    # best as (numerator, denominator)
    getters = [row.__getitem__ for row in scaled]
    best_num, best_den = None, 1
    for combo in combinations(range(n), size):
        worst_num, worst_den = None, 1
        for i in combo:
            u_num, u_den = utilities[i]
            num, den = sum(map(getters[i], combo)) * u_den, u_num
            if best_num is not None and num * best_den <= best_num * den:
                # this coalition cannot beat the best one found so far
                break
            if worst_num is None or num * worst_den < worst_num * den:
                worst_num, worst_den = num, den
        else:
            best_num, best_den = worst_num, worst_den
    assert best_num is not None
    a = game.alpha.value(size)
    return Fraction(a.numerator * best_num, a.denominator * best_den)


def blocking_members_check(
    game: Game,
    partition: Partition,
    coalition: Coalition | Iterable[int],
    factor: Fraction | int = 1,
) -> bool:
    """Re-check a witness: does every member strictly beat ``factor``
    times their partition utility?"""
    members = tuple(coalition)
    factor = exact(factor)
    return all(
        coalition_utility(game, members, i)
        > factor * partition_utility(game, partition, i)
        for i in members
    )
