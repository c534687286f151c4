"""The Fraction subset loops that ``alphahg`` used before its integer kernel.

Kept as the reference for ``tests/test_kernel.py``: the integer kernel
must return the same witnesses, factors and prices of anarchy.  The code
is the former ``find_blocking_coalition``, ``scenario_is_size_stable``,
``max_improvement_factor_at_size``, ``_subset_sum_tables``, ``_cpoa``,
the recursive ``_restricted_growth_strings`` that drove it and the
``best_welfare_partition`` walk over every partition unchanged,
plus the violated-subset test of ``search.explore`` lifted
into a function, apart from the removal of the rational backend shim
(``to_rat`` and ``to_fraction`` below stand in for it with
``Fraction``) and of the per-call coalition budget, which is now the
module constant ``alphahg.stability.MAX_SUBSETS``.

``blocking_members_check`` re-checks a witness member by member; it was
in ``alphahg.stability``, but only the tests call it.
``min_improvement_factor`` is the former Fraction formula, which summed
each agent's row in ``Fraction`` arithmetic.  ``scaled_weights`` is the
former ``alphahg.stability._scaled_weights``, which scaled all ``n * n``
entries at once; the pairs scaling cached on games and scenarios must
equal it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from alphahg._rat import exact, scaled
from alphahg.core import (
    Coalition,
    Game,
    Partition,
    check_partition,
    coalition_utility,
    partition_utility,
)
from alphahg.efficiency import (
    MAX_ENUM_AGENTS,
    NO_STABLE_OUTCOME,
    RATIO,
    UNBOUNDED,
    UNDEFINED,
    PoaResult,
    enumerate_partitions,
    social_welfare,
)
from alphahg.errors import DomainError, ResourceLimitError
from alphahg.stability import Scenario, _check_subsets


def to_rat(value):
    return value if isinstance(value, Fraction) else Fraction(value)


def to_fraction(value):
    return value


def scaled_weights(weights) -> tuple[int, list[list[int]]]:
    """``(L, W)``: ``L`` the least common multiple of every weight's
    denominator and ``W[i][j] = L * weights[i][j]`` as ints."""
    n = len(weights)
    flat, scale = scaled([w for row in weights for w in row])
    return scale, [flat[i:i + n] for i in range(0, n * n, n)]


def _restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    codes = [0] * n

    def rec(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(codes)
            return
        for c in range(mx + 2):
            codes[i] = c
            yield from rec(i + 1, max(mx, c))

    yield from rec(1, 0) if n > 1 else iter([(0,)])


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
    factor = Fraction(factor)
    if not (1 <= min_size <= max_size <= n):
        raise DomainError(f"need 1 <= min_size <= max_size <= {n}")
    if factor < 1:
        raise DomainError("improvement factor must be >= 1")
    check_partition(game, partition)
    _check_subsets(n, min_size, max_size)

    thresholds = [
        to_rat(factor * partition_utility(game, partition, i)) for i in range(n)
    ]
    weights = [[to_rat(w) for w in row] for row in game.weights]

    if min_size == 1:
        # a singleton yields utility 0, so it blocks iff 0 > threshold
        for i in range(n):
            if thresholds[i] < 0:
                return Coalition.of([i])

    for s in range(max(min_size, 2), max_size + 1):
        a = to_rat(game.alpha.value(s))
        for combo in combinations(range(n), s):
            for i in combo:
                row = weights[i]
                total = sum(row[j] for j in combo)
                if a * total <= thresholds[i]:
                    break
            else:
                return Coalition.of(combo)
    return None


def scenario_is_size_stable(
    scenario: Scenario,
    max_size: int,
) -> bool:
    """Would the scenario's baselines survive as size-stable up to
    ``max_size`` among these agents?"""
    m = scenario.size
    if not (1 <= max_size <= m):
        raise DomainError(f"need 1 <= max_size <= {m}")
    if any(b < 0 for b in scenario.baselines):
        return False
    _check_subsets(m, 2, max(max_size, 2))
    weights = [[to_rat(w) for w in row] for row in scenario.weights]
    baselines = [to_rat(b) for b in scenario.baselines]
    for s in range(2, max_size + 1):
        a = to_rat(scenario.alpha.value(s))
        for combo in combinations(range(m), s):
            for i in combo:
                row = weights[i]
                if a * sum(row[j] for j in combo) <= baselines[i]:
                    break
            else:
                return False
    return True


def max_improvement_factor_at_size(
    game: Game,
    partition: Partition,
    size: int,
) -> Fraction:
    """The largest factor by which some coalition of exactly ``size``
    agents lets *all* its members improve."""
    n = game.n
    if not (2 <= size <= n):
        raise DomainError(f"need 2 <= size <= {n}")
    check_partition(game, partition)
    baselines = [partition_utility(game, partition, i) for i in range(n)]
    if any(b <= 0 for b in baselines):
        raise DomainError("improvement factors need strictly positive baselines")
    _check_subsets(n, size, size)

    weights = [[to_rat(w) for w in row] for row in game.weights]
    inv = [to_rat(1 / b) for b in baselines]
    a = to_rat(game.alpha.value(size))
    best = None
    for combo in combinations(range(n), size):
        worst = None
        for i in combo:
            row = weights[i]
            ratio = a * sum(row[j] for j in combo) * inv[i]
            if worst is None or ratio < worst:
                worst = ratio
        if best is None or worst > best:
            best = worst
    assert best is not None
    return to_fraction(best)


def min_improvement_factor(scenario: Scenario) -> Fraction:
    """Worst improvement ratio over the full coalition: the minimum over
    agents of full-coalition utility divided by baseline."""
    if any(b <= 0 for b in scenario.baselines):
        raise DomainError("improvement factors need strictly positive baselines")
    a = scenario.alpha.value(scenario.size)
    return min(
        a * sum(row, Fraction(0)) / b
        for row, b in zip(scenario.weights, scenario.baselines)
    )


def first_violated_subset(alpha, stable_size, candidate, assignment):
    """The violated-subset test of ``search.explore``: the first
    unassigned subset of size 2..stable_size (size, lex order) in which
    every member's utility exceeds their baseline, or ``None``."""
    m, q = candidate.size, stable_size
    subsets = [
        combo
        for s in range(2, min(q, m) + 1)
        for combo in combinations(range(m), s)
    ]
    alphas = {s: alpha.value(s) for s in range(2, min(q, m) + 1)}
    branch_on = None
    for subset in subsets:
        if subset in assignment:
            continue
        a = alphas[len(subset)]
        rows = candidate.weights
        violated = all(
            a * sum(rows[i][j] for j in subset) > candidate.baselines[i]
            for i in subset
        )
        if violated:
            branch_on = subset
            break
    return branch_on


def _subset_sum_tables(game: Game) -> list[list]:
    """table[i][mask] = sum of agent i's weights to the members of mask."""
    n = game.n
    zero = to_rat(0)
    tables = []
    for i in range(n):
        row = [to_rat(w) for w in game.weights[i]]
        table = [zero] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            table[mask] = table[mask ^ low] + row[low.bit_length() - 1]
        tables.append(table)
    return tables


def _cpoa(game: Game, max_block_size: int, factor: Fraction) -> PoaResult:
    """Shared engine: factor-stability against coalitions of size up to
    ``max_block_size`` (single sizes are handled by the caller's choice
    of range)."""
    n = game.n
    if n > MAX_ENUM_AGENTS:
        raise ResourceLimitError(
            f"price-of-anarchy enumeration is gated at n <= {MAX_ENUM_AGENTS}"
        )
    tables = _subset_sum_tables(game)
    alphas = [None] + [to_rat(game.alpha.value(s)) for s in range(1, n + 1)]
    k = to_rat(factor)

    # candidate deviations, grouped as (alpha, members, bit mask)
    deviations = []
    for s in range(2, max_block_size + 1):
        a = alphas[s]
        for combo in combinations(range(n), s):
            mask = 0
            for i in combo:
                mask |= 1 << i
            deviations.append((a, combo, mask))

    best = None
    worst_stable = None
    found_stable = False
    zero = to_rat(0)

    for codes in _restricted_growth_strings(n):
        masks = []
        sizes = []
        for agent, code in enumerate(codes):
            if code == len(masks):
                masks.append(1 << agent)
                sizes.append(1)
            else:
                masks[code] |= 1 << agent
                sizes[code] += 1
        utilities = [zero] * n
        welfare = zero
        for mask, size in zip(masks, sizes):
            a = alphas[size]
            rest = mask
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                u = a * tables[i][mask]
                utilities[i] = u
                welfare += u
                rest ^= low
        if best is None or welfare > best:
            best = welfare

        # singleton deviation: an agent with negative utility walks out
        if any(u < 0 for u in utilities):
            continue
        thresholds = utilities if factor == 1 else [k * u for u in utilities]
        stable = True
        for a, combo, mask in deviations:
            for i in combo:
                if a * tables[i][mask] <= thresholds[i]:
                    break
            else:
                stable = False
                break
        if stable:
            found_stable = True
            if worst_stable is None or welfare < worst_stable:
                worst_stable = welfare

    assert best is not None
    best_f = to_fraction(best)
    if not found_stable:
        return PoaResult(NO_STABLE_OUTCOME, None, best_f, None)
    worst_f = to_fraction(worst_stable)
    if best_f == 0:
        return PoaResult(UNDEFINED, Fraction(1), best_f, worst_f)
    if worst_f <= 0:
        return PoaResult(UNBOUNDED, None, best_f, worst_f)
    return PoaResult(RATIO, best_f / worst_f, best_f, worst_f)


def best_welfare_partition(game: Game) -> tuple[Partition, Fraction]:
    """A welfare-maximizing partition (first in enumeration order)."""
    best: tuple[Partition, Fraction] | None = None
    for partition in enumerate_partitions(game.n):
        sw = social_welfare(game, partition)
        if best is None or sw > best[1]:
            best = (partition, sw)
    assert best is not None
    return best


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
