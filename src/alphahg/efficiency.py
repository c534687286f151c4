"""Social welfare, exhaustive partition enumeration, and prices of anarchy.

The core price of anarchy of a stability notion is the optimal social
welfare divided by the worst social welfare among partitions stable
under that notion, both found by exhaustive enumeration.  Division by
nonpositive welfare is never performed: zero-welfare optima and
zero-welfare stable outcomes get explicit verdicts instead.

The enumeration behind the prices of anarchy runs on ints: weights and
alpha are scaled once to clear their denominators, every coalition's
weight sums come from one table per agent indexed by bit mask, and
only the returned welfares are built as ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from ._rat import exact, scaled
from .core import Game, Partition, check_partition, partition_utility
from .errors import DomainError, ResourceLimitError
from .stability import _scaled_weights

#: Partition enumeration is gated at this agent count (Bell numbers grow
#: superexponentially).
MAX_ENUM_AGENTS = 13

RATIO = "ratio"
UNBOUNDED = "unbounded"
UNDEFINED = "undefined"
NO_STABLE_OUTCOME = "no_stable_outcome"


@dataclass(frozen=True)
class PoaResult:
    """Price-of-anarchy verdict.

    ``ratio``: ``value`` is best/worst welfare.  ``undefined``: the best
    welfare is zero (every stable outcome is welfare-optimal); reported
    with value 1.  ``unbounded``: positive best welfare but a stable
    outcome with nonpositive welfare.  ``no_stable_outcome``: the stable
    set is empty (a legitimate outcome, not an error).
    """

    kind: str
    value: Fraction | None
    best_welfare: Fraction
    worst_stable_welfare: Fraction | None


def social_welfare(game: Game, partition: Partition) -> Fraction:
    """Sum of all agents' partition utilities."""
    check_partition(game, partition)
    return sum(
        (partition_utility(game, partition, i) for i in range(game.n)), Fraction(0)
    )


def _check_enumerable(n: int) -> None:
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > MAX_ENUM_AGENTS:
        raise ResourceLimitError(
            f"enumerating the partitions of {n} agents exceeds the guard "
            f"n <= {MAX_ENUM_AGENTS}"
        )


def _partition_masks(n: int) -> Iterator[list[int]]:
    """Every partition of ``{0..n-1}`` as its list of block bit masks,
    blocks ordered by smallest member, in restricted-growth-string order:
    agent ``i``'s block index is at most one more than the largest index
    before it, and the index strings come in lexicographic order."""
    last = 1 << (n - 1)
    codes = [0] * (n - 1)  # the block index of every agent but the last
    while True:
        masks: list[int] = []
        for agent, code in enumerate(codes):
            if code == len(masks):
                masks.append(1 << agent)
            else:
                masks[code] |= 1 << agent
        # the last agent joins each block in turn, then opens its own
        for k in range(len(masks)):
            blocks = masks.copy()
            blocks[k] |= last
            yield blocks
        yield masks + [last]
        # the last agent of the prefix whose code can still grow: one
        # that shares its block with an earlier agent
        i = n - 2
        while i > 0 and not masks[codes[i]] & ((1 << i) - 1):
            i -= 1
        if i <= 0:
            return
        codes[i] += 1
        codes[i + 1:] = [0] * (n - 2 - i)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Every partition of ``{0..n-1}`` exactly once, in restricted-
    growth-string order."""
    _check_enumerable(n)
    for masks in _partition_masks(n):
        yield Partition.of(
            [agent for agent in range(n) if mask >> agent & 1] for mask in masks
        )


def _subset_sum_tables(scaled: list[list[int]]) -> list[list[int]]:
    """table[i][mask] = sum of scaled[i][j] over the members j of mask."""
    n = len(scaled)
    tables = []
    for row in scaled:
        table = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            table[mask] = table[mask ^ low] + row[low.bit_length() - 1]
        tables.append(table)
    return tables


def _cpoa(game: Game, max_block_size: int, factor: Fraction) -> PoaResult:
    """Shared engine: factor-stability against coalitions of size up to
    ``max_block_size`` (single sizes are handled by the caller's choice
    of range).

    Runs on ints: weights times ``L`` (see
    :func:`alphahg.stability._scaled_weights`) and alpha times ``D``, the
    least common multiple of alpha's denominators, so every utility and
    welfare is an int ``D * L`` times the true one.
    """
    n = game.n
    _check_enumerable(n)
    scale, weights = _scaled_weights(game.weights)
    tables = _subset_sum_tables(weights)
    values, common = scaled([game.alpha.value(s) for s in range(1, n + 1)])
    alphas = [0] + values
    kp, kq = factor.numerator, factor.denominator

    # each candidate deviation S as pairs (i, kq * D * L * utility of i
    # in S): member i beats factor kp / kq times its partition utility
    # u_i iff that value exceeds kp * D * L * u_i
    deviations = []
    for s in range(2, max_block_size + 1):
        a = kq * alphas[s]
        for combo in combinations(range(n), s):
            mask = 0
            for i in combo:
                mask |= 1 << i
            deviations.append(tuple((i, a * tables[i][mask]) for i in combo))

    best = None
    worst_stable = None

    for masks in _partition_masks(n):
        utilities = [0] * n
        for mask in masks:
            a = alphas[mask.bit_count()]
            rest = mask
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                utilities[i] = a * tables[i][mask]
                rest ^= low
        welfare = sum(utilities)
        if best is None or welfare > best:
            best = welfare

        # singleton deviation: an agent with negative utility walks out
        if min(utilities) < 0:
            continue
        thresholds = utilities if kp == 1 else [kp * u for u in utilities]
        for deviation in deviations:
            for i, value in deviation:
                if value <= thresholds[i]:
                    break
            else:
                break  # every member improves: the partition is blocked
        else:
            if worst_stable is None or welfare < worst_stable:
                worst_stable = welfare

    assert best is not None
    best_f = Fraction(best, common * scale)
    if worst_stable is None:
        return PoaResult(NO_STABLE_OUTCOME, None, best_f, None)
    worst_f = Fraction(worst_stable, common * scale)
    if best_f == 0:
        return PoaResult(UNDEFINED, Fraction(1), best_f, worst_f)
    if worst_f <= 0:
        return PoaResult(UNBOUNDED, None, best_f, worst_f)
    return PoaResult(RATIO, best_f / worst_f, best_f, worst_f)


def size_cpoa(game: Game, max_size: int) -> PoaResult:
    """Price of anarchy over partitions with no blocking coalition of
    size at most ``max_size``."""
    if not 1 <= max_size <= game.n:
        raise DomainError(f"need 1 <= max_size <= {game.n}")
    return _cpoa(game, max_size, Fraction(1))


def improvement_cpoa(game: Game, factor: Fraction | int) -> PoaResult:
    """Price of anarchy over partitions in which no coalition of any
    size improves every member by a factor of more than ``factor``."""
    factor = exact(factor)
    if factor < 1:
        raise DomainError("factor must be >= 1")
    return _cpoa(game, game.n, factor)


def greedy_pairing(game: Game) -> Partition:
    """Repeatedly match the heaviest remaining positive-weight pair
    (ties broken by lexicographic pair index); everyone else stays
    alone.  The result admits no blocking coalition of size at most 2.
    """
    n = game.n
    candidates = [
        (game.weights[i][j], i, j)
        for i, j in combinations(range(n), 2)
        if game.weights[i][j] > 0
    ]
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    matched: set[int] = set()
    blocks: list[list[int]] = []
    for _, i, j in candidates:
        if i not in matched and j not in matched:
            matched.update((i, j))
            blocks.append([i, j])
    blocks.extend([i] for i in range(n) if i not in matched)
    return Partition.of(blocks)


def best_welfare_partition(game: Game) -> tuple[Partition, Fraction]:
    """A welfare-maximizing partition (first in enumeration order)."""
    best: tuple[Partition, Fraction] | None = None
    for partition in enumerate_partitions(game.n):
        sw = social_welfare(game, partition)
        if best is None or sw > best[1]:
            best = (partition, sw)
    assert best is not None
    return best
