"""Welfare, partition enumeration, prices of anarchy, greedy pairing."""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from alphahg import (
    ASHG,
    FHG,
    MFHG,
    AlphaFunction,
    DomainError,
    Game,
    Partition,
    ResourceLimitError,
    coalition_utility,
    cpoa_upper_bound,
    enumerate_partitions,
    greedy_pairing,
    improvement_cpoa,
    is_core_stable,
    is_size_stable,
    partition_utility,
    size_cpoa,
    social_welfare,
)
from alphahg.efficiency import (
    NO_STABLE_OUTCOME,
    RATIO,
    UNBOUNDED,
    UNDEFINED,
    _best_welfare,
    _coalition_values,
)
from conftest import ALL_ALPHAS, CORE_EXISTENCE_ALPHAS, example_game, random_game
from reference_stability import _cpoa as reference_cpoa


class TestSocialWelfare:
    def test_example(self):
        p = Partition.of([[0, 1], [2, 3]])
        assert social_welfare(example_game(ASHG), p) == 12
        assert social_welfare(example_game(FHG), p) == 6

    def test_singletons_zero(self):
        game = example_game(ASHG)
        assert social_welfare(game, Partition.singletons(4)) == 0


class TestEnumeratePartitions:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_bell_counts(self, n, count):
        assert sum(1 for _ in enumerate_partitions(n)) == count

    def test_all_distinct_and_cover(self):
        seen = set()
        for p in enumerate_partitions(4):
            key = tuple(b.members for b in p.blocks)
            assert key not in seen
            seen.add(key)
            assert p.covers(4)

    def test_growth_string_order(self):
        first = next(enumerate_partitions(3))
        assert [b.members for b in first.blocks] == [(0, 1, 2)]
        last = list(enumerate_partitions(3))[-1]
        assert [b.members for b in last.blocks] == [(0,), (1,), (2,)]

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            next(enumerate_partitions(14))
        with pytest.raises(DomainError):
            next(enumerate_partitions(0))

    @pytest.mark.parametrize("call,message", [
        (lambda: next(enumerate_partitions(0)), "n must be >= 1"),
    ], ids=["n"])
    def test_size_refusals(self, call, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            call()

    def test_cpoa_guard(self):
        big = Game.from_edges(14, [], FHG)
        with pytest.raises(ResourceLimitError):
            size_cpoa(big, 2)
        with pytest.raises(ResourceLimitError):
            improvement_cpoa(big, 2)


def _naive_size_cpoa(game, q):
    """Independent implementation: materialize partitions and reports."""
    best = None
    worst_stable = None
    for p in enumerate_partitions(game.n):
        sw = social_welfare(game, p)
        if best is None or sw > best:
            best = sw
        if is_size_stable(game, p, q).stable:
            if worst_stable is None or sw < worst_stable:
                worst_stable = sw
    return best, worst_stable


def _naive_improvement_cpoa(game, k):
    best = None
    worst_stable = None
    for p in enumerate_partitions(game.n):
        sw = social_welfare(game, p)
        if best is None or sw > best:
            best = sw
        stable = True
        for s in range(1, game.n + 1):
            for combo in combinations(range(game.n), s):
                if all(
                    coalition_utility(game, combo, i)
                    > k * partition_utility(game, p, i)
                    for i in combo
                ):
                    stable = False
                    break
            if not stable:
                break
        if stable:
            if worst_stable is None or sw < worst_stable:
                worst_stable = sw
    return best, worst_stable


#: a game with no 3-size stable partition (TestCpoa.test_no_stable_outcome)
NO_STABLE_ALPHA = ["3", "3", "4", "9/4", "4/3"]
NO_STABLE_EDGES = [
    (0, 1, 2), (0, 2, 1), (0, 3, 1), (0, 4, 5), (1, 3, 5), (1, 4, 2), (2, 3, 1), (2, 4, 1),
]


class TestCpoa:
    def test_all_zero_game_is_undefined_one(self):
        game = Game.from_edges(4, [], FHG)
        for q in (1, 2, 4):
            result = size_cpoa(game, q)
            assert result.kind == UNDEFINED
            assert result.value == 1
        result = improvement_cpoa(game, 2)
        assert result.kind == UNDEFINED and result.value == 1

    def test_example_fhg_within_published_bound(self):
        game = example_game(FHG)
        result = size_cpoa(game, 2)
        assert result.kind == RATIO
        assert result.value <= 4
        k2 = improvement_cpoa(game, 2)
        assert k2.kind == RATIO and k2.value <= 4

    def test_matches_naive_on_random_games(self):
        rng = random.Random(31)
        for _ in range(12):
            n = rng.randint(2, 5)
            game = random_game(rng, n, rng.choice((ASHG, FHG, MFHG)), low=-2, high=4)
            q = rng.randint(1, n)
            result = size_cpoa(game, q)
            best, worst = _naive_size_cpoa(game, q)
            assert result.best_welfare == best
            assert result.worst_stable_welfare == worst
            k = rng.choice((Fraction(1), Fraction(3, 2)))
            result = improvement_cpoa(game, k)
            best, worst = _naive_improvement_cpoa(game, k)
            assert result.best_welfare == best
            assert result.worst_stable_welfare == worst

    def test_pair_stability_always_has_an_outcome(self):
        # a greedy pairing is always 2-size stable, so the stable set at
        # max_size 2 can never be empty; the no_stable_outcome verdict is
        # reserved for larger sizes (test_no_stable_outcome reaches it
        # with five agents)
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 6)
            game = random_game(rng, n, rng.choice((ASHG, FHG, MFHG)), low=-4, high=4)
            assert size_cpoa(game, 2).kind != NO_STABLE_OUTCOME

    def test_no_stable_outcome(self):
        # no partition of this five-agent table-alpha game is 3-size
        # stable, so none is core stable either, though some are
        # 2-size stable
        game = Game.from_edges(5, NO_STABLE_EDGES, AlphaFunction.from_table(NO_STABLE_ALPHA))
        assert not any(is_size_stable(game, p, 3).stable for p in enumerate_partitions(5))
        for result, expected in (
            (size_cpoa(game, 3), reference_cpoa(game, 3, Fraction(1))),
            (improvement_cpoa(game, 1), reference_cpoa(game, 5, Fraction(1))),
        ):
            assert result == expected
            assert (result.kind, result.best_welfare, result.worst_stable_welfare) == (
                NO_STABLE_OUTCOME, 86, None
            )
        result = size_cpoa(game, 2)
        assert (result.kind, result.value, result.worst_stable_welfare) == (
            RATIO, Fraction(43, 30), 60
        )

    @pytest.mark.parametrize("price,message", [
        (lambda game: size_cpoa(game, 0), "need 1 <= max_size <= 4"),
        (lambda game: improvement_cpoa(game, Fraction(1, 2)), "factor must be >= 1"),
    ])
    def test_refusals(self, price, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            price(example_game(FHG))


def _decreasing_table(rng, n):
    """alpha(1) = 0, then positive rationals that never increase."""
    values = [Fraction(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(n - 1)]
    return AlphaFunction.from_table([0] + sorted(values, reverse=True))


def _check_poa_upper_bound(rng, sizes, alphas, prices, games):
    """Every price of anarchy that ``prices(game)`` yields is within its
    bound, on random games with weights in [-2, 5] and denominators 1
    and 2; undefined counts as meeting the bound and unbounded fails it,
    as in criterion 8.  Returns the number of checks."""
    checks = 0
    for n in sizes:
        for make_alpha in alphas:
            for _ in range(games):
                alpha = make_alpha(rng, n)
                game = random_game(rng, n, alpha, low=-2, high=5, denominators=(1, 2))
                for case, result, bound in prices(game):
                    assert result.kind != UNBOUNDED, (game, case, result)
                    if result.kind == RATIO:
                        assert result.value <= bound, (game, case, result)
                    checks += 1
    return checks


def _size_prices(stable_sizes):
    """``size_cpoa`` against ``cpoa_upper_bound`` at each stable size
    below the game's agent count."""

    def prices(game):
        for q in stable_sizes:
            if q < game.n:
                yield q, size_cpoa(game, q), cpoa_upper_bound(game.alpha, q, game.n)

    return prices


def _improvement_prices(factors):
    """``improvement_cpoa`` against ``2k`` at each factor ``k``."""

    def prices(game):
        for k in factors:
            yield k, improvement_cpoa(game, k), 2 * k

    return prices


def _fixed(alphas):
    return [lambda rng, n, alpha=alpha: alpha for alpha in alphas]


_BUILT_IN = _fixed((FHG, MFHG, ASHG))


class TestPoaUpperBound:
    def test_size_cpoa_within_upper_bound_beyond_brute_force(self):
        # cpoa_upper_bound at sizes the former partition walk could not
        # reach in a test
        prices = _size_prices((2, 3))
        assert _check_poa_upper_bound(random.Random(77), (9, 10), _BUILT_IN, prices, 10) == 120

    def test_size_cpoa_within_upper_bound_at_large_stable_sizes(self):
        alphas = _BUILT_IN + [_decreasing_table]
        prices = _size_prices(range(5, 10))  # q = 5 .. n - 1
        assert _check_poa_upper_bound(random.Random(79), (9, 10), alphas, prices, 6) == 216

    def test_improvement_cpoa_within_twice_the_factor_beyond_brute_force(self):
        # criterion 8 checks 2k only up to n = 7
        alphas = _fixed(ALL_ALPHAS)
        prices = _improvement_prices((Fraction(1), Fraction(3, 2), Fraction(2)))
        assert _check_poa_upper_bound(random.Random(80), (9, 10), alphas, prices, 6) == 180

    @pytest.mark.slow
    def test_size_cpoa_within_upper_bound_with_tables_at_eleven_and_twelve(self):
        alphas = _BUILT_IN + [_decreasing_table]
        prices = _size_prices((2, 3, 4))
        assert _check_poa_upper_bound(random.Random(78), (11, 12), alphas, prices, 5) == 120

    @pytest.mark.slow
    def test_prices_within_their_bounds_at_the_enumeration_guard(self):
        # n = MAX_ENUM_AGENTS = 13, four games per alpha, tables among
        # them; the process peaks near 62 MB RSS after the size_cpoa
        # checks and near 91 MB after improvement_cpoa's prefix masks
        # (ru_maxrss, one fresh Python 3.11 process)
        rng = random.Random(81)
        alphas = _BUILT_IN + [_decreasing_table]
        assert _check_poa_upper_bound(rng, (13,), alphas, _size_prices((3, 5)), 4) == 32
        improvement = _improvement_prices((Fraction(3, 2),))
        assert _check_poa_upper_bound(rng, (13,), _fixed((FHG,)), improvement, 1) == 1


def _brute_best(values, mask):
    """The largest welfare of a partition of ``mask``, over every one."""
    members = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return max(
        sum(values[sum(1 << members[k] for k in block)] for block in partition.blocks)
        for partition in enumerate_partitions(len(members))
    )


class TestBestWelfare:
    def test_read_masks_match_brute_force(self):
        # the table is filled only where it is read: the full mask and
        # every mask without agent 0
        rng = random.Random(37)
        for index in range(24):
            n = rng.randint(1, 6)
            alpha = ALL_ALPHAS[index % len(ALL_ALPHAS)]
            game = random_game(rng, n, alpha, -4, 6, (1, 2, 3))
            values = _coalition_values(game)[3]
            best = _best_welfare(values)
            full = (1 << n) - 1
            for mask in [*range(2, full, 2), full]:
                assert best[mask] == _brute_best(values, mask), (game, mask)


class TestCoalitionSigns:
    def test_live_and_rational_match_brute_force(self):
        # live[mask] (every member's weight sum to mask is > 0) picks the
        # coalitions that get a deviation bit in _cpoa, and rational[mask]
        # (every member's sum is >= 0) the blocks it may place; weights in
        # [-2, 2] with halves make many sums exactly 0
        rng = random.Random(38)
        zero_sums = 0
        for index in range(42):
            n = 1 + index % 7
            alpha = _decreasing_table(rng, n) if index % 3 == 0 else ALL_ALPHAS[index % len(ALL_ALPHAS)]
            game = random_game(rng, n, alpha, -2, 2, (1, 2))
            rational, live = _coalition_values(game)[4:]
            for mask in range(1 << n):
                members = [i for i in range(n) if mask >> i & 1]
                sums = [sum(game.weights[i][j] for j in members) for i in members]
                assert live[mask] == all(total > 0 for total in sums), (game, mask)
                assert rational[mask] == all(total >= 0 for total in sums), (game, mask)
                zero_sums += len(members) >= 2 and 0 in sums
        assert zero_sums > 100


class TestBestWelfarePartition:
    def test_example(self):
        from alphahg import best_welfare_partition

        game = example_game(ASHG)
        partition, welfare = best_welfare_partition(game)
        assert welfare == 28  # everyone together
        assert [b.members for b in partition.blocks] == [(0, 1, 2, 3)]
        assert social_welfare(game, partition) == welfare


class TestGreedyPairing:
    def test_single_positive_edge(self):
        game = Game.from_edges(3, [(0, 1, 2)], ASHG)
        assert [b.members for b in greedy_pairing(game).blocks] == [(0, 1), (2,)]

    def test_all_negative_gives_singletons(self):
        game = Game.from_edges(
            3, [(0, 1, -1), (0, 2, -2), (1, 2, -3)], FHG
        )
        assert greedy_pairing(game) == Partition.singletons(3)

    def test_zero_weight_pairs_stay_apart(self):
        game = Game.from_edges(4, [], MFHG)
        assert greedy_pairing(game) == Partition.singletons(4)

    def test_example_pairs_heaviest_disjoint_edges(self):
        partition = greedy_pairing(example_game(ASHG))
        assert [b.members for b in partition.blocks] == [(0, 1), (2, 3)]

    def test_deterministic_tie_break(self):
        game = Game.from_edges(4, [(0, 1, 1), (0, 2, 1), (2, 3, 1)], ASHG)
        partition = greedy_pairing(game)
        assert [b.members for b in partition.blocks] == [(0, 1), (2, 3)]

    def test_two_size_stable_on_random_games(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(2, 8)
            alpha = rng.choice((ASHG, FHG, MFHG))
            game = random_game(rng, n, alpha, low=-5, high=5, denominators=(1, 2, 3))
            partition = greedy_pairing(game)
            assert is_size_stable(game, partition, 2).stable

    def test_core_stable_when_alpha_guarantees_it(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 7)
            alpha = rng.choice(CORE_EXISTENCE_ALPHAS)
            game = random_game(rng, n, alpha, low=-5, high=5, denominators=(1, 2))
            partition = greedy_pairing(game)
            assert is_core_stable(game, partition).stable
