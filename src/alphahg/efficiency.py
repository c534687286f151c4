"""Social welfare, partition enumeration, and exact prices of anarchy.

The core price of anarchy of a stability notion is the optimal social
welfare divided by the worst social welfare among partitions stable
under that notion.  Division by nonpositive welfare is never performed:
zero-welfare optima and zero-welfare stable outcomes get explicit
verdicts instead.

Both welfares are exact without visiting every partition.  Weights and
alpha are scaled once to clear their denominators, and every
coalition's welfare is tabulated as an int by bit mask.  The optimum is
a subset dynamic program over that table (Yeh 1986; Rahwan & Jennings
2008), filled only for the masks its readers read.  The worst stable
welfare is a depth-first search that places one block at a time: a
block with a member who would walk out is never placed, a deviation is
decided once all its members are placed, and a prefix is dropped once
its welfare reaches the worst stable welfare found (the blocks still
to come are individually rational, so they add at least 0).  Only a
coalition in which every member's weight sum is positive is a
deviation: a member whose sum is <= 0 has utility <= 0 there, and so
never improves on the utility >= 0 of an individually rational block.
Only the returned welfares are built as ``Fraction``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import accumulate, chain, combinations
from operator import or_
from typing import Iterator

from ._rat import exact, integer, scaled
from .core import Game, Partition, _at_least, check_partition, partition_utility
from .errors import DomainError, ResourceLimitError

#: Partition enumeration and the prices of anarchy are gated at this
#: agent count (Bell numbers grow superexponentially; the subset tables
#: hold 2^n entries and the dynamic program takes 3^n steps).
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
    outcome of welfare exactly 0 (never below: its blocks are
    individually rational).  ``no_stable_outcome``: the stable set is
    empty (a legitimate outcome, not an error).
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
    _at_least(n, 1, "n")
    if n > MAX_ENUM_AGENTS:
        raise ResourceLimitError(
            f"enumerating the partitions of {n} agents exceeds the guard "
            f"n <= {MAX_ENUM_AGENTS}"
        )


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Every partition of ``{0..n-1}`` exactly once, in restricted-
    growth-string order: each agent joins every existing block in turn,
    blocks ordered by smallest member, then opens its own."""
    _check_enumerable(n)
    blocks: list[list[int]] = []

    def place(agent: int) -> Iterator[Partition]:
        if agent == n:
            yield Partition.of(blocks)
            return
        for block in blocks:
            block.append(agent)
            yield from place(agent + 1)
            block.pop()
        blocks.append([agent])
        yield from place(agent + 1)
        blocks.pop()

    yield from place(0)


def _subset_sum_tables(scaled: list[list[int]]) -> list[list[int]]:
    """table[i][mask] = sum of scaled[i][j] over the members j of mask."""
    tables = []
    for row in scaled:
        table = [0]
        for weight in row:
            # the masks holding this agent follow the masks below it
            if weight:
                table += [total + weight for total in table]
            else:
                table += table
        tables.append(table)
    return tables


def _members(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _coalition_values(
    game: Game,
) -> tuple[int, list[list[int]], list[int], list[int], list[bool], list[bool]]:
    """The game on ints, indexed by coalition bit mask.

    Returns ``scale``, the weight-sum tables ``tables[i][mask]``, alpha
    by size ``alphas[s]``, every coalition's welfare ``values[mask]``,
    ``rational[mask]``: no member's utility is negative, and
    ``live[mask]``: every member's weight sum to ``mask`` is positive.
    Since alpha(s) > 0 for s >= 2, a member of a coalition of two or
    more has its weight sum's sign, so ``live`` marks the coalitions of
    two or more in which every member's utility is positive; a
    singleton is never live, its member's sum being its zero
    self-weight.

    Weights are scaled by ``L`` (see :func:`alphahg.core._scaled_pairs`)
    and alpha by ``D``, the least common multiple of its denominators,
    so member ``i`` of coalition ``C`` has utility ``alphas[|C|] *
    tables[i][C]`` and every utility and welfare is ``scale = D * L``
    times the true one.
    """
    n = game.n
    scale, weights = game._scaled
    tables = _subset_sum_tables(weights)
    by_size, common = scaled([game.alpha.value(s) for s in range(1, n + 1)])
    alphas = [0] + by_size
    # pair_sums[mask]: the members' weight sums to mask, added up (each
    # pair counts twice)
    pair_sums = [0] * (1 << n)
    values = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        pair_sums[mask] = pair_sums[rest] + 2 * tables[low.bit_length() - 1][rest]
        values[mask] = alphas[mask.bit_count()] * pair_sums[mask]
    rational = [True] * (1 << n)
    live = [True] * (1 << n)
    for i, table in enumerate(tables):
        bit = 1 << i
        for mask in range(bit, 1 << n):
            total = table[mask]
            if total <= 0 and mask & bit:
                live[mask] = False
                if total:
                    rational[mask] = False
    return common * scale, tables, alphas, values, rational, live


def _best_welfare(values: list[int]) -> list[int]:
    """``best[mask]``, the largest welfare of a partition of ``mask``, for
    the full mask and every mask without agent 0; the other entries
    are 0, and no caller reads them.

    One subset dynamic program (Yeh 1986): ``best[mask]`` is the max over
    the blocks ``B`` holding ``mask``'s lowest agent of ``values[B] +
    best[mask ^ B]``, and ``mask ^ B`` never holds agent 0, so the table
    costs O(3^(n-1)) steps over the masks without agent 0, and O(2^(n-1))
    more for the full mask.
    """
    best = [0] * len(values)
    full = len(values) - 1
    for mask in chain(range(2, full, 2), (full,)):
        low = mask & -mask
        rest = mask ^ low
        top = values[mask]
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            total = values[sub | low] + best[rest ^ sub]
            if total > top:
                top = total
        best[mask] = top
    return best


def _cpoa(game: Game, max_block_size: int, factor: Fraction) -> PoaResult:
    """Shared engine: factor-stability against coalitions of size up to
    ``max_block_size`` (single sizes are handled by the caller's choice
    of range).

    The best welfare comes from :func:`_best_welfare`.  The worst
    stable welfare comes from a depth-first search that builds
    partitions one block at a time, each step placing the block that
    holds the lowest agent not yet placed.  A block in which some member
    has negative utility is never placed (that member walks out).  The
    deviations are the live coalitions of 2..``max_block_size`` agents,
    the only ones that can block.  A deviation is decided once all its
    members are placed, so a blocked prefix is dropped with its whole
    subtree, and a prefix whose welfare already reaches the worst stable
    welfare found so far is dropped too.  All of it runs on the ints of
    :func:`_coalition_values`.
    """
    n = game.n
    _check_enumerable(n)
    scale, tables, alphas, values, rational, live = _coalition_values(game)
    best = _best_welfare(values)
    full = (1 << n) - 1
    kp, kq = factor.numerator, factor.denominator

    # Each candidate deviation S, a live coalition of 2..max_block_size
    # agents, is one bit.  Any other S can never block: a member whose
    # weight sum to S is <= 0 has utility <= 0 in S, and every placed
    # block is individually rational, so that member's partition
    # utility u is >= 0 and the member never improves on factor * u.
    # For each agent i, the S holding i sorted by kq * D * L * (utility
    # of i in S): i improves on factor kp / kq times its partition
    # utility u iff that value exceeds kp * D * L * u, so the S that i
    # refuses are a prefix, and refused[i][c] is the union of the first
    # c bits.
    deviations = [
        mask for mask in range(full + 1) if live[mask] and 2 <= mask.bit_count() <= max_block_size
    ]
    every = (1 << len(deviations)) - 1
    offer = [kq * a for a in alphas]
    offer_values = []
    refused = []
    outside = []  # the bits of the S that do not hold agent i
    for i, table in enumerate(tables):
        row = sorted(
            (offer[mask.bit_count()] * table[mask], 1 << k)
            for k, mask in enumerate(deviations)
            if mask >> i & 1
        )
        offer_values.append([value for value, _ in row])
        refused.append(list(accumulate((b for _, b in row), or_, initial=0)))
        outside.append(every ^ refused[i][-1])

    # settled[left]: the deviations with no member among the agents
    # ``left`` still to place
    settled = [every] * (full + 1)
    for left in range(1, full + 1):
        low = left & -left
        settled[left] = settled[left ^ low] & outside[low.bit_length() - 1]

    # unrefused[block]: the deviations no member of block refuses, built
    # when the block is first placed
    unrefused: list[int | None] = [None] * (full + 1)

    def unrefused_by(block: int) -> int:
        a = kp * alphas[block.bit_count()]
        by_block = 0
        members = block
        while members:
            low = members & -members
            i = low.bit_length() - 1
            by_block |= refused[i][bisect_right(offer_values[i], a * tables[i][block])]
            members ^= low
        return every ^ by_block

    worst = best[full] + 1  # no stable welfare exceeds the best one

    def place(free: int, welfare: int, open_deviations: int) -> None:
        nonlocal worst
        low = free & -free
        rest = free ^ low
        sub = rest
        while True:
            block = sub | low
            if rational[block]:
                total = welfare + values[block]
                left = rest ^ sub
                # every block placed is individually rational, so the
                # welfare still to come is >= 0
                if total < worst:
                    still_open = unrefused[block]
                    if still_open is None:
                        still_open = unrefused[block] = unrefused_by(block)
                    still_open &= open_deviations
                    if not settled[left] & still_open:
                        if left:
                            place(left, total, still_open)
                        else:
                            worst = total
            if not sub:
                break
            sub = (sub - 1) & rest

    place(full, 0, every)
    best_f = Fraction(best[full], scale)
    if worst > best[full]:
        return PoaResult(NO_STABLE_OUTCOME, None, best_f, None)
    worst_f = Fraction(worst, scale)
    if best_f == 0:
        return PoaResult(UNDEFINED, Fraction(1), best_f, worst_f)
    if worst_f <= 0:
        return PoaResult(UNBOUNDED, None, best_f, worst_f)
    return PoaResult(RATIO, best_f / worst_f, best_f, worst_f)


def size_cpoa(game: Game, max_size: int) -> PoaResult:
    """Price of anarchy over partitions with no blocking coalition of
    size at most ``max_size``."""
    if not 1 <= integer(max_size) <= game.n:
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


def _submasks(mask: int) -> Iterator[int]:
    """Every subset of ``mask``, ``mask`` itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def best_welfare_partition(game: Game) -> tuple[Partition, Fraction]:
    """A welfare-maximizing partition: the first one in the order of
    :func:`enumerate_partitions`.

    The optimum comes from :func:`_best_welfare`.  The partition is
    then fixed agent by agent in that order: each agent joins the first
    block, or else opens a new one, from which an optimal partition can
    still be completed.
    """
    n = game.n
    _check_enumerable(n)
    scale, _, _, values, _, _ = _coalition_values(game)
    best = _best_welfare(values)
    optimum = best[-1]

    def completion(blocks: list[int], free: int) -> int:
        """Largest welfare of a partition that extends each of ``blocks``
        by a disjoint subset of ``free`` and splits the rest freely."""

        @cache
        def extend(index: int, avail: int) -> int:
            if index == len(blocks):
                return best[avail]
            return max(
                values[blocks[index] | sub] + extend(index + 1, avail ^ sub)
                for sub in _submasks(avail)
            )

        return extend(0, free)

    blocks = [1]
    for agent in range(1, n):
        free = (1 << n) - (2 << agent)  # the agents after this one
        for index in range(len(blocks) + 1):
            trial = blocks + [0]
            trial[index] |= 1 << agent
            if not trial[-1]:
                trial.pop()
            if completion(trial, free) == optimum:
                blocks = trial
                break
    partition = Partition.of(list(_members(mask)) for mask in blocks)
    return partition, Fraction(optimum, scale)
