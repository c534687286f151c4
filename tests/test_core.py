"""Domain types and the utility function."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphahg import (
    ASHG,
    FHG,
    MFHG,
    ODD_EVEN,
    PAIRWISE_COMM,
    AlphaFunction,
    Coalition,
    DomainError,
    Game,
    InvalidInputError,
    Partition,
    ResourceLimitError,
    coalition_utility,
    partition_utility,
)
from alphahg.io import game_from_dict
from alphahg.stability import Scenario
from conftest import example_game


class TestAlphaFunction:
    @pytest.mark.parametrize(
        "alpha,size,expected",
        [
            (FHG, 4, Fraction(1, 4)),
            (FHG, 1, Fraction(1)),
            (MFHG, 1, Fraction(0)),
            (MFHG, 5, Fraction(1, 4)),
            (ASHG, 9, Fraction(1)),
            (PAIRWISE_COMM, 3, Fraction(1, 3)),
            (PAIRWISE_COMM, 1, Fraction(1)),
            (PAIRWISE_COMM, 5, Fraction(1, 10)),
            (ODD_EVEN, 4, Fraction(1, 3)),
            (ODD_EVEN, 5, Fraction(1, 5)),
            (ODD_EVEN, 1, Fraction(1)),
        ],
    )
    def test_values(self, alpha, size, expected):
        assert alpha.value(size) == expected

    def test_table_lookup_and_range(self):
        table = AlphaFunction.from_table([1, Fraction(1, 2), "1/3"])
        assert table.value(3) == Fraction(1, 3)
        with pytest.raises(DomainError):
            table.value(4)

    def test_size_below_one_rejected(self):
        with pytest.raises(DomainError):
            FHG.value(0)

    def test_table_must_be_positive_beyond_singletons(self):
        with pytest.raises(InvalidInputError):
            AlphaFunction.from_table([1, 0])
        # zero is fine in the first slot only
        AlphaFunction.from_table([0, 1])

    def test_from_name_round_trip(self):
        for alpha in (ASHG, FHG, MFHG, PAIRWISE_COMM, ODD_EVEN):
            assert AlphaFunction.from_name(alpha.name) == alpha
        with pytest.raises(InvalidInputError):
            AlphaFunction.from_name("nope")

    @pytest.mark.parametrize("alias,alpha", [("pairwise", PAIRWISE_COMM), ("oddeven", ODD_EVEN)])
    def test_from_name_aliases(self, alias, alpha):
        assert AlphaFunction.from_name(alias) == alpha

    @pytest.mark.parametrize("build,message", [
        (lambda: AlphaFunction("nope"), "unknown alpha variant 'nope'"),
        (lambda: AlphaFunction("table"), "table values required iff kind is 'table'"),
        (lambda: AlphaFunction.from_table([]), "alpha table must be nonempty"),
        (lambda: AlphaFunction.from_table([-1, 1]), "alpha(1) must be >= 0"),
    ], ids=["unknown kind", "table without values", "empty table", "negative alpha(1)"])
    def test_refusals(self, build, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            build()

    def test_mfhg_scaling_identity(self):
        for m in range(2, 40):
            assert MFHG.value(m) * (m - 1) == 1


class TestUtilities:
    def test_ashg_pair_utility(self):
        game = example_game(ASHG)
        assert coalition_utility(game, [0, 1], 0) == 3

    def test_fhg_grand_coalition(self):
        game = example_game(FHG)
        assert coalition_utility(game, [0, 1, 2, 3], 1) == Fraction(3, 2)

    def test_singleton_utility_is_zero(self):
        for alpha in (ASHG, FHG, MFHG):
            game = example_game(alpha)
            assert coalition_utility(game, [2], 2) == 0

    def test_mfhg_triple(self):
        game = example_game(MFHG)
        assert coalition_utility(game, [0, 1, 2], 0) == Fraction(5, 2)

    def test_partition_utility(self, example_partition):
        game = example_game(ASHG)
        for i in range(4):
            assert partition_utility(game, example_partition, i) == 3
        fhg = example_game(FHG)
        assert partition_utility(fhg, example_partition, 2) == Fraction(3, 2)

    def test_all_zero_game(self, example_partition):
        game = Game.from_edges(4, [], FHG)
        for i in range(4):
            assert partition_utility(game, example_partition, i) == 0

    def test_agent_outside_coalition_rejected(self):
        game = example_game(ASHG)
        with pytest.raises(DomainError):
            coalition_utility(game, [0, 1], 3)

    def test_repeated_member_counts_once(self):
        game = Game.from_edges(3, [(0, 1, 3), (1, 2, 1)], FHG)
        assert coalition_utility(game, [0, 1, 1], 0) == Fraction(3, 2)
        assert coalition_utility(game, [1, 0], 0) == Fraction(3, 2)

    @pytest.mark.parametrize(
        "members,agent",
        [([1, -1], 1), ([0, 5], 0), ([0, 1.0], 0), ([0, True], 0), ([], 0), ([0, 1], True)],
        ids=repr,
    )
    def test_members_and_agent_are_admitted(self, members, agent):
        game = Game.from_edges(3, [(0, 1, 3), (1, 2, 1)], FHG)
        with pytest.raises(InvalidInputError):
            coalition_utility(game, members, agent)

    def test_coalition_beyond_the_game_rejected(self):
        game = Game.from_edges(3, [(0, 1, 3), (1, 2, 1)], FHG)
        with pytest.raises(InvalidInputError, match="agent 3 is not in a game of 3 agents"):
            coalition_utility(game, Coalition.of([0, 3]), 0)

    def test_partition_utility_admits_its_agent(self):
        game = Game.from_edges(3, [(0, 1, 3), (1, 2, 1)], FHG)
        partition = Partition.of([[0, 1], [2]])
        assert partition_utility(game, partition, 1) == Fraction(3, 2)
        with pytest.raises(InvalidInputError):
            partition_utility(game, partition, True)


class TestGameValidation:
    def test_asymmetric_rejected(self):
        matrix = [[0, 1], [2, 0]]
        with pytest.raises(InvalidInputError):
            Game.from_matrix(matrix, ASHG)

    def test_shape_rejected(self):
        with pytest.raises(InvalidInputError, match="weight matrix shape must be 2 x 2"):
            Game(2, [[0]], FHG)

    def test_nonzero_diagonal_rejected(self):
        matrix = [[1, 0], [0, 0]]
        with pytest.raises(InvalidInputError):
            Game.from_matrix(matrix, ASHG)

    def test_agent_limit(self):
        # games of any size build alike; only a file carries an agent limit
        zeros = ((0,) * 24,) * 24
        games = [
            Game(24, zeros, ASHG),
            Game.from_matrix(zeros, ASHG),
            Game.from_edges(24, [(0, 23, 1)], ASHG),
        ]
        assert [g.n for g in games] == [24] * 3
        with pytest.raises(ResourceLimitError):
            game_from_dict({"n": 21, "alpha": "ashg", "weights": []})

    @pytest.mark.parametrize("build", [
        lambda a, b: Game(2, ((0, a), (b, 0)), FHG),
        lambda a, b: Game.from_matrix([[0, 0, a], [0, 0, 0], [b, 0, 0]], ASHG),
        lambda a, b: Scenario(2, ((0, a), (b, 0)), (1, 1), FHG),
        lambda a, b: Scenario(3, ((0, 1, a), (1, 0, 0), (b, 0, 0)), (1, 1, 1), ASHG),
    ], ids=["Game", "Game.from_matrix", "Scenario pair", "Scenario triple"])
    def test_symmetry_is_checked_by_value(self, build):
        # equal but distinct mirrors are admitted; a mirror that differs
        # by 1/10**6 is refused, whichever side is larger
        w = Fraction(3, 7)
        for twin in (Fraction(3, 7), "3/7", " 6/14 "):
            assert twin is not w
            build(w, twin)
        build(2, Fraction(2))
        for off in (Fraction(1, 10**6), Fraction(-1, 10**6)):
            with pytest.raises(InvalidInputError, match="asymmetric"):
                build(w, w + off)
            with pytest.raises(InvalidInputError, match="asymmetric"):
                build(w + off, w)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidInputError):
            Game.from_edges(3, [(0, 1, 1), (1, 0, 1)], ASHG)

    def test_weights_are_immutable_tuples(self):
        game = example_game(ASHG)
        assert isinstance(game.weights, tuple)
        assert isinstance(game.weights[0], tuple)


class TestPartition:
    def test_blocks_are_canonical(self):
        p = Partition.of([[3, 2], [1, 0]])
        assert [b.members for b in p.blocks] == [(0, 1), (2, 3)]

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInputError):
            Partition.of([[0, 1], [1, 2]])

    def test_block_of(self):
        p = Partition.of([[0, 1], [2]])
        assert p.block_of(2).members == (2,)
        with pytest.raises(DomainError):
            p.block_of(5)
        with pytest.raises(InvalidInputError):
            p.block_of(True)

    def test_coalition_canonical_and_nonempty(self):
        assert Coalition.of([2, 0, 2]).members == (0, 2)
        with pytest.raises(InvalidInputError):
            Coalition.of([])


@st.composite
def small_games(draw, alphas=(ASHG, FHG, MFHG)):
    n = draw(st.integers(min_value=2, max_value=6))
    alpha = draw(st.sampled_from(alphas))
    entries = draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    matrix = [[Fraction(0)] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            w = next(it)
            matrix[i][j] = w
            matrix[j][i] = w
    return Game.from_matrix(matrix, alpha)


class TestProperties:
    @given(small_games())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_round_trip(self, game):
        for i in range(game.n):
            for j in range(game.n):
                assert game.weight(i, j) == game.weight(j, i)

    @given(
        small_games(),
        st.fractions(min_value="1/5", max_value=9, max_denominator=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_positive_scaling_scales_utilities(self, game, c):
        if c <= 0:
            return
        scaled = Game(
            game.n,
            tuple(tuple(c * w for w in row) for row in game.weights),
            game.alpha,
        )
        members = tuple(range(game.n))
        for i in range(game.n):
            assert coalition_utility(scaled, members, i) == c * coalition_utility(
                game, members, i
            )
