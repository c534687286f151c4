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
returned witnesses are deterministic.  This module holds only checks:
the games and scenarios they read are admitted by :mod:`alphahg.core`.

Every coalition question (the blocking checks, the largest improvement
factor and the search's branching test) runs one integer kernel,
:func:`_blocking_coalitions`: weights are multiplied once by the least
common multiple ``L`` of their denominators, each threshold becomes one
int per coalition size, and the scan itself only adds and compares
ints.  The scan is bounded twice: it skips a first member whose largest
weights to later agents, as many as the coalition has other members,
cannot beat their threshold, and below a first member it skips every
lex subtree in which that member cannot beat their threshold even if
each member still to be chosen gave that member's largest remaining
weight.  Neither bound skips a blocking coalition and the visit order
is the full scan's, so the witness is the same.  The scan yields the
blocking coalitions one at a time and resumes under thresholds that
may only have risen, so what it passed still fails; the largest
factor raises the thresholds to each yielded coalition's factor.  The
answers are exactly those of rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterator

from ._rat import exact, integer
from .core import AlphaFunction, Coalition, Game, Partition, Scenario, check_partition
from .errors import DomainError, ResourceLimitError

#: The most coalitions one exhaustive scan may enumerate.  A scan that
#: would enumerate more raises ``ResourceLimitError`` before it starts,
#: never truncates; the guard counts the scan's own coalitions, so it
#: holds for a game of any size.
MAX_SUBSETS = 5_000_000


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


def _check_subsets(n: int, min_size: int, max_size: int) -> None:
    total = sum(math.comb(n, s) for s in range(min_size, max_size + 1))
    if total > MAX_SUBSETS:
        raise ResourceLimitError(
            f"enumerating {total} coalitions exceeds the guard of {MAX_SUBSETS}"
        )


def _scaled_utilities(
    game: Game, partition: Partition, scaled: list[list[int]]
) -> list[tuple[int, int]]:
    """Each agent's partition utility times ``L``, as ``(num, den)`` with
    ``den > 0``; ``scaled`` is the game's ``W`` (``Game._scaled``)."""
    utilities = [(0, 1)] * game.n
    for block in partition.blocks:
        a = game.alpha.value(len(block))
        for i in block:
            row = scaled[i]
            utilities[i] = (a.numerator * sum(row[j] for j in block), a.denominator)
    return utilities


def _blocking_coalitions(
    scaled: list[list[int]],
    thresholds: list[tuple[int, int]],
    alpha: AlphaFunction,
    min_size: int,
    max_size: int,
) -> Iterator[tuple[int, ...]]:
    """The blocking-coalition kernel behind every coalition question.

    ``scaled`` holds weights times ``L`` as ints (see
    :func:`~alphahg.core._scaled_pairs`) and ``thresholds[i] = (num,
    den)``, with ``den > 0``, is agent ``i``'s threshold times ``L``.
    Yields, by size and then lexicographic order, every coalition ``S``
    with ``2 <= min_size <= |S| <= max_size`` in which every member
    ``i`` has ``alpha(|S|) * sum_{j in S} w_ij`` strictly above their
    threshold.  Since ``alpha(s) > 0`` for ``s >= 2``, that is the int
    test ``sum_{j in S} W[i][j] > floor(num / (den * alpha(s)))``.

    ``thresholds`` is read again after each yield: a caller may raise
    its entries in place between yields, never lower them, since every
    coalition already passed failed under lower thresholds.

    The scan walks the coalitions of each size depth first from a stack
    (coalitions may be as large as the game), one member at a time in
    increasing order, which visits them in lex order.  Two bounds skip
    coalitions that cannot block, now or under a higher limit, and the
    rest keep the full scan's order.  A first member ``f`` is skipped
    at size ``s`` when ``top_f[s - 1] <= limit_f``, where ``top_f[r]``
    is the sum of the ``r`` largest ``W[f][j]`` over ``j > f``: that
    sum bounds ``f``'s sum in every coalition of size ``s`` that ``f``
    heads.  Below a live first member, a prefix ``P`` with ``r``
    members still to choose after ``P[-1]`` is skipped with its whole
    subtree when ``sum_{j in P} W[f][j] + r * peak_f[P[-1] + 1] <=
    limit_f``, where ``peak_f[k] = max_{j >= k} W[f][j]``: that sum
    bounds ``f``'s sum in every extension of ``P``.  ``top_f`` and
    ``peak_f`` are built once per first member, for every size.
    """
    n = len(scaled)
    getters = [row.__getitem__ for row in scaled]
    tops: list[list[int] | None] = [None] * n
    peaks: list[list[int] | None] = [None] * n
    for s in range(min_size, max_size + 1):
        a = alpha.value(s)
        an, ad = a.numerator, a.denominator
        limits = [(num * ad) // (den * an) for num, den in thresholds]
        for first in range(n - s + 1):
            row, limit, top = scaled[first], limits[first], tops[first]
            if top is None:
                top = tops[first] = list(
                    accumulate(sorted(row[first + 1:], reverse=True), initial=0)
                )
            if top[s - 1] <= limit:
                continue
            peak = peaks[first]
            if peak is None:
                peak = peaks[first] = list(accumulate(reversed(row), max))[::-1]
            # prefixes headed by ``first`` with ``r`` members still to
            # choose; ``total`` is the first member's sum over ``prefix``
            stack = [((first,), 0, s - 1)]
            while stack:
                prefix, total, r = stack.pop()
                end = prefix[-1]
                if total + r * peak[end + 1] <= limit:
                    continue
                if r > 1:
                    r -= 1
                    # pushed last to first, so popped in lex order
                    stack.extend(
                        (prefix + (j,), total + row[j], r) for j in range(n - r - 1, end, -1)
                    )
                    continue
                # most coalitions fail on their first member, whose test
                # is one compare per last member; the others sum in full
                rest = limit - total
                for last in range(end + 1, n):
                    if row[last] <= rest:
                        continue
                    combo = prefix + (last,)
                    for i in combo[1:]:
                        if sum(map(getters[i], combo)) <= limits[i]:
                            break
                    else:
                        yield combo
                        limits = [(num * ad) // (den * an) for num, den in thresholds]
                        limit = limits[first]
                        rest = limit - total


def find_blocking_coalition(
    game: Game,
    partition: Partition,
    min_size: int,
    max_size: int,
    factor: Fraction | int = 1,
) -> Coalition | None:
    """First coalition (by size, then lex order) in which every member
    gets utility strictly greater than ``factor`` times their partition
    utility; ``None`` if no such coalition exists in the size range.
    """
    n = game.n
    factor = exact(factor)
    if not (1 <= integer(min_size) <= integer(max_size) <= n):
        raise DomainError(f"need 1 <= min_size <= max_size <= {n}")
    if factor < 1:
        raise DomainError("improvement factor must be >= 1")
    check_partition(game, partition)
    _check_subsets(n, min_size, max_size)

    scaled = game._scaled[1]
    kp, kq = factor.numerator, factor.denominator
    thresholds = [
        (kp * num, kq * den) for num, den in _scaled_utilities(game, partition, scaled)
    ]

    if min_size == 1:
        # a singleton yields utility 0, so it blocks iff 0 > threshold
        for i in range(n):
            if thresholds[i][0] < 0:
                return Coalition.of([i])

    coalitions = _blocking_coalitions(scaled, thresholds, game.alpha, max(min_size, 2), max_size)
    witness = next(coalitions, None)
    return None if witness is None else Coalition.of(witness)


def is_size_stable(game: Game, partition: Partition, max_size: int) -> StabilityReport:
    """No blocking coalition of size at most ``max_size``."""
    witness = find_blocking_coalition(game, partition, 1, max_size)
    return StabilityReport(witness is None, witness, (1, max_size), Fraction(1))


def is_core_stable(game: Game, partition: Partition) -> StabilityReport:
    """No blocking coalition of any size."""
    return is_size_stable(game, partition, game.n)


def is_size_factor_stable(
    game: Game,
    partition: Partition,
    size: int,
    factor: Fraction | int,
) -> StabilityReport:
    """Every coalition of size exactly ``size`` has a member who does
    not improve by a factor of more than ``factor``."""
    factor = exact(factor)
    witness = find_blocking_coalition(game, partition, size, size, factor)
    return StabilityReport(witness is None, witness, (size, size), factor)


def is_improvement_stable(
    game: Game, partition: Partition, factor: Fraction | int
) -> StabilityReport:
    """No coalition of any size lets every member improve by a factor
    of more than ``factor``."""
    factor = exact(factor)
    witness = find_blocking_coalition(game, partition, 1, game.n, factor)
    return StabilityReport(witness is None, witness, (1, game.n), factor)


def scenario_is_size_stable(scenario: Scenario, max_size: int) -> bool:
    """Would the scenario's baselines survive as size-stable up to
    ``max_size`` among these agents?

    True iff no baseline is negative (a singleton deviation) and every
    subset of size 2..max_size contains an agent whose subset utility
    does not exceed their baseline.
    """
    m = scenario.size
    if not (1 <= integer(max_size) <= m):
        raise DomainError(f"need 1 <= max_size <= {m}")
    if any(b < 0 for b in scenario.baselines):
        return False
    _check_subsets(m, 2, max_size)
    return _scenario_first_blocking(scenario, max_size) is None


def _scenario_first_blocking(
    scenario: Scenario, max_size: int
) -> tuple[int, ...] | None:
    """First subset of size 2..max_size (size, then lex order) in which
    every member's utility exceeds their baseline."""
    scale, scaled = scenario._scaled
    thresholds = [(b.numerator * scale, b.denominator) for b in scenario.baselines]
    return next(_blocking_coalitions(scaled, thresholds, scenario.alpha, 2, max_size), None)


def min_improvement_factor(scenario: Scenario) -> Fraction:
    """Worst improvement ratio over the full coalition: the minimum over
    agents of full-coalition utility divided by baseline.

    Requires strictly positive baselines.
    """
    if any(b <= 0 for b in scenario.baselines):
        raise DomainError("improvement factors need strictly positive baselines")
    # agent i's ratio is alpha * (sum_j W[i][j] / L) / b_i
    scale, scaled = scenario._scaled
    a = scenario.alpha.value(scenario.size)
    an, ad = a.numerator, a.denominator * scale
    return min(
        Fraction(an * sum(row) * b.denominator, ad * b.numerator)
        for row, b in zip(scaled, scenario.baselines)
    )


def max_improvement_factor_at_size(game: Game, partition: Partition, size: int) -> Fraction:
    """The largest factor by which some coalition of exactly ``size``
    agents lets *all* its members improve; equivalently the smallest
    ``k`` at which the partition is size/factor stable at ``(size, k)``.

    Requires every agent's partition utility to be strictly positive.
    """
    n = game.n
    if not (2 <= integer(size) <= n):
        raise DomainError(f"need 2 <= size <= {n}")
    check_partition(game, partition)
    scaled = game._scaled[1]
    utilities = _scaled_utilities(game, partition, scaled)
    if any(num <= 0 for num, _ in utilities):
        raise DomainError("improvement factors need strictly positive baselines")
    _check_subsets(n, size, size)

    # with u_i * L = num / den, member i's ratio is alpha * W_i(S) * den / num,
    # and S beats k iff it blocks at k * u_i * L: raise the thresholds to
    # each better coalition (chain reads them only after the first is set)
    a = game.alpha.value(size)
    thresholds: list[tuple[int, int]] = []
    for combo in chain(
        [tuple(range(size))],
        _blocking_coalitions(scaled, thresholds, game.alpha, size, size),
    ):
        best = a * min(
            Fraction(sum(scaled[i][j] for j in combo) * utilities[i][1], utilities[i][0])
            for i in combo
        )
        thresholds[:] = [(best.numerator * num, best.denominator * den) for num, den in utilities]
    return best
