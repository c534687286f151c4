"""Domain types: size-weight functions, games, coalitions, partitions.

A hedonic game here is a set of agents ``0..n-1`` with a symmetric
rational weight matrix and a *size-weight function* alpha: the utility
of agent ``i`` in a coalition ``C`` is ``alpha(|C|)`` times the sum of
``i``'s weights to the members of ``C``.  All arithmetic is exact
(:class:`fractions.Fraction`); no floating point enters any verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from ._rat import exact
from .errors import DomainError, InvalidInputError, ResourceLimitError

#: Hard ceiling on agent counts accepted by :class:`Game`.  Downstream
#: brute force is exponential in ``n``; raise deliberately per call.
DEFAULT_MAX_AGENTS = 20

_VARIANTS = ("ashg", "fhg", "mfhg", "pairwise_comm", "odd_even", "table")


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
            values = tuple(map(exact, self.table))
            if not values:
                raise InvalidInputError("alpha table must be nonempty")
            if values[0] < 0:
                raise InvalidInputError("alpha(1) must be >= 0")
            if any(v <= 0 for v in values[1:]):
                raise InvalidInputError("alpha(m) must be > 0 for m >= 2")
            object.__setattr__(self, "table", values)

    @classmethod
    def ashg(cls) -> "AlphaFunction":
        return cls("ashg")

    @classmethod
    def fhg(cls) -> "AlphaFunction":
        return cls("fhg")

    @classmethod
    def mfhg(cls) -> "AlphaFunction":
        return cls("mfhg")

    @classmethod
    def pairwise_communication(cls) -> "AlphaFunction":
        return cls("pairwise_comm")

    @classmethod
    def odd_even(cls) -> "AlphaFunction":
        return cls("odd_even")

    @classmethod
    def from_table(cls, values: Iterable) -> "AlphaFunction":
        return cls("table", tuple(values))

    @classmethod
    def from_name(cls, name: str) -> "AlphaFunction":
        key = name.strip().lower().replace("-", "_")
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
        m = size
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


#: Shared singletons for the built-in variants.
ASHG = AlphaFunction.ashg()
FHG = AlphaFunction.fhg()
MFHG = AlphaFunction.mfhg()
PAIRWISE_COMM = AlphaFunction.pairwise_communication()
ODD_EVEN = AlphaFunction.odd_even()


@dataclass(frozen=True, order=True)
class Coalition:
    """A nonempty set of agent indices in canonical sorted order."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted(set(self.members)))
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
    """Pairwise-disjoint coalitions; blocks sorted by smallest member."""

    blocks: tuple[Coalition, ...]

    def __post_init__(self) -> None:
        blocks = tuple(
            sorted((b if isinstance(b, Coalition) else Coalition.of(b) for b in self.blocks),
                   key=lambda b: b.members)
        )
        seen: set[int] = set()
        for block in blocks:
            for agent in block:
                if agent in seen:
                    raise InvalidInputError(f"agent {agent} appears in two blocks")
                seen.add(agent)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        return cls(tuple(Coalition.of(b) for b in blocks))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls.of([i] for i in range(n))

    @property
    def agents(self) -> frozenset[int]:
        return frozenset(a for b in self.blocks for a in b)

    def block_of(self, agent: int) -> Coalition:
        for block in self.blocks:
            if agent in block:
                return block
        raise DomainError(f"agent {agent} is not covered by the partition")

    def covers(self, n: int) -> bool:
        return self.agents == frozenset(range(n))


def _weight_matrix(weights: Sequence[Sequence], n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The ``n x n`` weight matrix as ``Fraction`` rows, checked for shape,
    zero diagonal and symmetry."""
    if len(weights) != n or any(len(row) != n for row in weights):
        raise InvalidInputError(f"weight matrix shape must be {n} x {n}")
    rows = tuple(tuple(map(exact, row)) for row in weights)
    for i in range(n):
        if rows[i][i] != 0:
            raise InvalidInputError(f"self-weight of agent {i} must be 0")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise InvalidInputError(
                    f"asymmetric weights for pair ({i},{j}); "
                    "asymmetric weights are rejected (unbounded improvement ratios)"
                )
    return rows


def _check_agent_limit(n: int, max_agents: int) -> None:
    if n > max_agents:
        raise ResourceLimitError(
            f"n={n} exceeds the agent limit {max_agents}; "
            "pass a larger max_agents to opt in"
        )


@dataclass(frozen=True)
class Game:
    """``n`` agents, a symmetric weight matrix with zero diagonal, and alpha."""

    n: int
    weights: tuple[tuple[Fraction, ...], ...]
    alpha: AlphaFunction

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidInputError("a game needs at least one agent")
        object.__setattr__(self, "weights", _weight_matrix(self.weights, self.n))

    @classmethod
    def from_matrix(
        cls,
        matrix: Sequence[Sequence],
        alpha: AlphaFunction,
        max_agents: int = DEFAULT_MAX_AGENTS,
    ) -> "Game":
        n = len(matrix)
        _check_agent_limit(n, max_agents)
        return cls(n, tuple(map(tuple, matrix)), alpha)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, Fraction | int | str]],
        alpha: AlphaFunction,
        max_agents: int = DEFAULT_MAX_AGENTS,
    ) -> "Game":
        """Build from ``(i, j, weight)`` triples; unlisted pairs are 0."""
        _check_agent_limit(n, max_agents)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for i, j, w in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidInputError(f"edge ({i},{j}) out of range for n={n}")
            if i == j:
                raise InvalidInputError(f"self-edge on agent {i} is not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InvalidInputError(f"duplicate edge for pair {key}")
            seen.add(key)
            matrix[i][j] = matrix[j][i] = w
        return cls(n, tuple(tuple(row) for row in matrix), alpha)

    def weight(self, i: int, j: int) -> Fraction:
        return self.weights[i][j]


def coalition_utility(game: Game, coalition: Coalition | Iterable[int], agent: int) -> Fraction:
    """alpha(|C|) times the sum of the agent's weights to C's members.

    The agent must belong to the coalition.
    """
    members = coalition.members if isinstance(coalition, Coalition) else tuple(coalition)
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
