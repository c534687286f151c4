"""Domain types: size-weight functions, games, scenarios, coalitions,
partitions.

A hedonic game here is a set of agents ``0..n-1`` with a symmetric
rational weight matrix and a *size-weight function* alpha: the utility
of agent ``i`` in a coalition ``C`` is ``alpha(|C|)`` times the sum of
``i``'s weights to the members of ``C``.  A :class:`Scenario` is a
candidate blocking coalition studied in isolation: weights among its
members plus fixed baseline utilities.  All arithmetic is exact
(:class:`fractions.Fraction`); no floating point enters any verdict.

This module admits every domain type; the checks that read them live
in :mod:`alphahg.stability` and the other modules.  A game and a
scenario admit their agent count, their alpha and their weight matrix
alike, and scale the weights to ints alike (``_Agents``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from ._rat import exact, integer, rationals
from .errors import DomainError, InvalidInputError

_VARIANTS = ("ashg", "fhg", "mfhg", "pairwise_comm", "odd_even", "table")


def _name(value: object, what: str) -> str:
    """A caller's variant, construction or fixture name, stripped and
    lower-cased; anything but a ``str`` is refused (cf. :mod:`alphahg._rat`)."""
    if not isinstance(value, str):
        raise InvalidInputError(f"{what} must be a string, got {value!r}")
    return value.strip().lower()


def _at_least(value: Any, least: int, name: str) -> int:
    """A size admitted by :func:`alphahg._rat.integer` and at least
    ``least``; a smaller one is refused with ``DomainError("<name> must be
    >= <least>")``, the one form of every too-small-size refusal."""
    if integer(value) < least:
        raise DomainError(f"{name} must be >= {least}")
    return value


@dataclass(frozen=True)
class AlphaFunction:
    """A coalition-size-to-weight function defining the game class.

    Built-in variants:

    ======================  =============================================
    ``ashg``                additively separable, ``alpha(m) = 1``
    ``fhg``                 fractional, ``alpha(m) = 1/m``
    ``mfhg``                modified fractional, ``alpha(m) = 1/(m-1)``
                            for ``m >= 2`` and ``alpha(1) = 0``
    ``pairwise_comm``       ``alpha(m) = 2/(m(m-1))`` for ``m >= 2``,
                            ``alpha(1) = 1`` (total pairwise
                            communication cost sharing)
    ``odd_even``            ``alpha(m) = 1/(m-1)`` for even ``m``,
                            ``1/m`` for odd ``m`` (random-matching
                            expectation; ``alpha(1) = 1``)
    ``table``               explicit values ``alpha(1)..alpha(n_max)``
    ======================  =============================================

    Values must be positive for sizes ``>= 2``; ``alpha(1)`` may be zero
    (it never affects a utility because self-weights are zero).
    """

    kind: str
    table: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _VARIANTS:
            raise InvalidInputError(f"unknown alpha variant {self.kind!r}")
        if (self.kind == "table") != (self.table is not None):
            raise InvalidInputError("table values required iff kind is 'table'")
        if self.table is not None:
            values = rationals(self.table)
            if not values:
                raise InvalidInputError("alpha table must be nonempty")
            if values[0] < 0:
                raise InvalidInputError("alpha(1) must be >= 0")
            if any(v <= 0 for v in values[1:]):
                raise InvalidInputError("alpha(m) must be > 0 for m >= 2")
            object.__setattr__(self, "table", values)

    @classmethod
    def from_table(cls, values: Iterable) -> "AlphaFunction":
        return cls("table", values)

    @classmethod
    def from_name(cls, name: str) -> "AlphaFunction":
        key = _name(name, "alpha variant").replace("-", "_")
        if key == "pairwise":
            key = "pairwise_comm"
        if key == "oddeven":
            key = "odd_even"
        if key == "table" or key not in _VARIANTS:
            raise InvalidInputError(f"unknown alpha variant {name!r}")
        return cls(key)

    @property
    def name(self) -> str:
        return self.kind

    def value(self, size: int) -> Fraction:
        """Exact alpha(size); raises DomainError outside the domain."""
        m = integer(size)
        if m < 1:
            raise DomainError(f"coalition size must be >= 1, got {m}")
        if self.kind == "ashg":
            return Fraction(1)
        if self.kind == "fhg":
            return Fraction(1, m)
        if self.kind == "mfhg":
            return Fraction(0) if m == 1 else Fraction(1, m - 1)
        if self.kind == "pairwise_comm":
            return Fraction(1) if m == 1 else Fraction(2, m * (m - 1))
        if self.kind == "odd_even":
            return Fraction(1, m - 1) if m % 2 == 0 else Fraction(1, m)
        assert self.table is not None
        if m > len(self.table):
            raise DomainError(
                f"alpha table has {len(self.table)} entries, size {m} is out of range"
            )
        return self.table[m - 1]


def _agent_count(value: object) -> int:
    """A caller's number of agents: an int (:func:`integer`) of at
    least 1."""
    n = integer(value)
    if n < 1:
        raise InvalidInputError("a game needs at least one agent")
    return n


def _alpha_function(value: object, n: int) -> AlphaFunction:
    """A caller's alpha for ``n`` agents, as it is; anything but an
    :class:`AlphaFunction`, or a table that stops before size ``n``, is
    refused (cf. ``_rat.integer``)."""
    if not isinstance(value, AlphaFunction):
        raise InvalidInputError(f"alpha must be an AlphaFunction, got {value!r}")
    if value.table is not None and len(value.table) < n:
        raise InvalidInputError(
            f"alpha table has {len(value.table)} entries, {n} agents need {n}"
        )
    return value


#: Shared singletons for the built-in variants.
ASHG = AlphaFunction("ashg")
FHG = AlphaFunction("fhg")
MFHG = AlphaFunction("mfhg")
PAIRWISE_COMM = AlphaFunction("pairwise_comm")
ODD_EVEN = AlphaFunction("odd_even")


@dataclass(frozen=True, order=True)
class Coalition:
    """A nonempty set of agent indices in canonical sorted order.

    Each member is admitted by :func:`~alphahg._rat.integer`, so bools,
    strings and nested lists are rejected rather than read as agents.
    """

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted(set(map(integer, self.members))))
        if not members:
            raise InvalidInputError("coalition must be nonempty")
        if members[0] < 0:
            raise InvalidInputError("agent indices must be >= 0")
        object.__setattr__(self, "members", members)

    @classmethod
    def of(cls, agents: Iterable[int]) -> "Coalition":
        return cls(tuple(agents))

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, agent: object) -> bool:
        return agent in self.members


@dataclass(frozen=True)
class Partition:
    """Pairwise-disjoint coalitions; blocks sorted by smallest member.  A
    block that is not a :class:`Coalition` is admitted as one, and is
    refused if it repeats an agent, which a coalition would collapse."""

    blocks: tuple[Coalition, ...]

    def __post_init__(self) -> None:
        blocks = []
        for block in self.blocks:
            if not isinstance(block, Coalition):
                members = tuple(block)
                block = Coalition(members)
                if len(block) < len(members):
                    raise InvalidInputError(f"partition block {list(members)!r} repeats an agent")
            blocks.append(block)
        blocks.sort(key=lambda b: b.members)
        seen: set[int] = set()
        for block in blocks:
            for agent in block:
                if agent in seen:
                    raise InvalidInputError(f"agent {agent} appears in two blocks")
                seen.add(agent)
        object.__setattr__(self, "blocks", tuple(blocks))

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        return cls(tuple(blocks))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls.of([i] for i in range(integer(n)))

    @property
    def agents(self) -> frozenset[int]:
        return frozenset(a for b in self.blocks for a in b)

    def block_of(self, agent: int) -> Coalition:
        agent = integer(agent)
        for block in self.blocks:
            if agent in block:
                return block
        raise DomainError(f"agent {agent} is not covered by the partition")

    def covers(self, n: int) -> bool:
        return self.agents == frozenset(range(integer(n)))


def _weight_matrix(weights: Sequence[Sequence], n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The ``n x n`` weight matrix as ``Fraction`` rows, checked for shape,
    zero diagonal and symmetry.

    Each unordered pair is compared once, by identity first: builders
    put one object at ``[i][j]`` and ``[j][i]``, :func:`exact` returns
    a ``Fraction`` as it is, and ``Fraction.__eq__`` runs an ABC check.
    """
    if len(weights) != n or any(len(row) != n for row in weights):
        raise InvalidInputError(f"weight matrix shape must be {n} x {n}")
    rows = tuple(map(rationals, weights))
    for i, row in enumerate(rows):
        if row[i] != 0:
            raise InvalidInputError(f"self-weight of agent {i} must be 0")
        for j in range(i + 1, n):
            a, b = row[j], rows[j][i]
            if a is not b and a != b:
                raise InvalidInputError(
                    f"asymmetric weights for pair ({i},{j}); "
                    "asymmetric weights are rejected (unbounded improvement ratios)"
                )
    return rows


def _exact_once(value: Any, parsed: dict[str, Fraction]) -> Fraction:
    """:func:`exact` of ``value``, parsing a string at most once: ``parsed``
    maps each string already admitted to its ``Fraction``."""
    if type(value) is not str:
        return exact(value)
    admitted = parsed.get(value)
    if admitted is None:
        admitted = parsed[value] = exact(value)
    return admitted


def _baselines(values: object, n: int) -> tuple[Fraction, ...]:
    """One baseline per agent from a list or tuple of ``n`` rationals,
    each string parsed once per call (:func:`_exact_once`)."""
    if not isinstance(values, (list, tuple)) or len(values) != n:
        raise InvalidInputError("baselines must list one rational per agent")
    parsed: dict[str, Fraction] = {}
    return tuple(_exact_once(v, parsed) for v in values)


def _edge_rows(n: int, edges: Iterable) -> tuple[tuple[Fraction, ...], ...]:
    """The ``n x n`` weight matrix of ``[i, j, weight]`` triples; unlisted
    pairs are 0.

    Each triple is admitted as it is placed: its shape, the weight by
    :func:`exact`, the endpoints by :func:`integer`, their range, and
    that they differ.  A weight string is parsed once per call: a string
    seen before reuses its ``Fraction``.  That ``Fraction`` goes to
    ``[i][j]`` and ``[j][i]``, so the matrix is symmetric with a zero
    diagonal as built, and a pair already holding a weight other than
    the shared zero, which no string maps to, was listed before.
    """
    zero = Fraction(0)
    rows = [[zero] * n for _ in range(n)]
    parsed: dict[str, Fraction] = {}
    for entry in edges:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise InvalidInputError(f"bad weight triple: {entry!r}")
        i, j, w = entry
        w = _exact_once(w, parsed)
        i, j = integer(i), integer(j)
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInputError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise InvalidInputError(f"self-edge on agent {i} is not allowed")
        row = rows[i]
        if row[j] is not zero:
            raise InvalidInputError(f"duplicate edge for pair {(min(i, j), max(i, j))}")
        row[j] = rows[j][i] = w
    return tuple(map(tuple, rows))


def _scaled_pairs(weights: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """``(L, W)``: ``L`` the least common multiple of every weight's
    denominator and ``W[i][j] = L * weights[i][j]`` as ints.

    The matrix is admitted, so symmetric with a zero diagonal: each pair
    ``i < j`` is read once and its product mirrored.
    """
    n = len(weights)
    scale = lcm(*{w.denominator for i, row in enumerate(weights) for w in row[i + 1:]})
    scaled = [[0] * n for _ in range(n)]
    for i, row in enumerate(weights):
        out = scaled[i]
        for j in range(i + 1, n):
            w = row[j]
            out[j] = scaled[j][i] = w.numerator * (scale // w.denominator)
    return scale, scaled


_T = TypeVar("_T")


def _admitted(cls: type[_T], **fields: Any) -> _T:
    """A frozen dataclass ``cls`` holding ``fields`` that its builder has
    already admitted, made without running ``__post_init__``'s checks
    again (a builder's matrix is symmetric with a zero diagonal as
    built)."""
    instance = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(instance, name, value)
    return instance


class _Agents:
    """What a :class:`Game` and a :class:`Scenario` admit alike: an
    agent count (:func:`_agent_count`), an alpha defined up to that
    count (:func:`_alpha_function`) and a symmetric weight matrix with
    zero diagonal (:func:`_weight_matrix`).  The weights are scaled to
    ints (:func:`_scaled_pairs`) at most once, by the first check that
    reads them."""

    def _admit(self, n: int) -> None:
        _alpha_function(self.alpha, _agent_count(n))
        object.__setattr__(self, "weights", _weight_matrix(self.weights, n))

    @cached_property
    def _scaled(self) -> tuple[int, list[list[int]]]:
        """``(L, W)`` for the weights (:func:`_scaled_pairs`); read-only."""
        return _scaled_pairs(self.weights)


@dataclass(frozen=True)
class Game(_Agents):
    """``n`` agents, a symmetric weight matrix with zero diagonal, and alpha."""

    n: int
    weights: tuple[tuple[Fraction, ...], ...]
    alpha: AlphaFunction

    def __post_init__(self) -> None:
        self._admit(self.n)

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence], alpha: AlphaFunction) -> "Game":
        return cls(len(matrix), matrix, alpha)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, Fraction | int | str]],
        alpha: AlphaFunction,
    ) -> "Game":
        """Build from ``(i, j, weight)`` triples; unlisted pairs are 0."""
        n = _agent_count(n)
        return _admitted(cls, n=n, weights=_edge_rows(n, edges), alpha=_alpha_function(alpha, n))

    def weight(self, i: int, j: int) -> Fraction:
        return self.weights[i][j]


@dataclass(frozen=True)
class Scenario(_Agents):
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
        self._admit(self.size)
        object.__setattr__(self, "baselines", _baselines(self.baselines, self.size))

    @classmethod
    def from_pairs(
        cls,
        alpha: AlphaFunction,
        size: int,
        weight: Callable[[int, int], Fraction | int],
        baselines: Sequence | None = None,
    ) -> "Scenario":
        """``size`` agents whose pair ``i < j`` weighs ``weight(i, j)``;
        baselines 1 unless given.

        The pairs are placed as :meth:`Game.from_edges` places its
        triples, so the matrix is not checked again.
        """
        n = _agent_count(size)
        pairs = ((i, j, weight(i, j)) for i, j in combinations(range(n), 2))
        return _admitted(
            cls,
            size=n,
            weights=_edge_rows(n, pairs),
            baselines=_baselines([1] * n if baselines is None else baselines, n),
            alpha=_alpha_function(alpha, n),
        )


def coalition_utility(game: Game, coalition: Coalition | Iterable[int], agent: int) -> Fraction:
    """alpha(|C|) times the sum of the agent's weights to C's members.

    The members are admitted as a :class:`Coalition` (a set of agents of
    the game), and the agent must belong to the coalition.
    """
    members = (coalition if isinstance(coalition, Coalition) else Coalition.of(coalition)).members
    if members[-1] >= game.n:
        raise InvalidInputError(f"agent {members[-1]} is not in a game of {game.n} agents")
    agent = integer(agent)
    if agent not in members:
        raise DomainError(f"agent {agent} is not a member of the coalition")
    row = game.weights[agent]
    total = sum((row[j] for j in members), Fraction(0))
    return game.alpha.value(len(members)) * total


def partition_utility(game: Game, partition: Partition, agent: int) -> Fraction:
    """Utility of the unique block containing the agent."""
    return coalition_utility(game, partition.block_of(agent), agent)


def check_partition(game: Game, partition: Partition) -> None:
    """Raise unless the partition covers exactly the game's agent set."""
    if not partition.covers(game.n):
        raise InvalidInputError("partition does not cover agents 0..n-1 exactly")
