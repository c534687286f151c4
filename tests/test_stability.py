"""Brute-force stability verdicts on the running example and scenarios."""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphahg import (
    ASHG,
    FHG,
    MFHG,
    Coalition,
    DomainError,
    InvalidInputError,
    Game,
    Partition,
    ResourceLimitError,
    coalition_utility,
    complete_graph_scenario,
    find_blocking_coalition,
    fixture,
    improvement_bound,
    is_core_stable,
    is_improvement_stable,
    is_size_factor_stable,
    is_size_stable,
    max_improvement_factor_at_size,
    min_improvement_factor,
    partition_utility,
    scenario_is_size_stable,
)
from alphahg import stability
from alphahg.stability import Scenario
from reference_stability import blocking_members_check
from conftest import example_game, random_game, random_partition


@pytest.fixture
def pairs_partition():
    return Partition.of([[0, 1], [2, 3]])


class TestFindBlockingCoalition:
    def test_ashg_triple_blocks(self, pairs_partition):
        game = example_game(ASHG)
        witness = find_blocking_coalition(game, pairs_partition, 3, 3)
        assert witness == Coalition.of([0, 1, 2])

    def test_mfhg_nothing_blocks(self, pairs_partition):
        game = example_game(MFHG)
        assert find_blocking_coalition(game, pairs_partition, 1, 4) is None

    def test_fhg_grand_coalition_does_not_block(self, pairs_partition):
        game = example_game(FHG)
        assert find_blocking_coalition(game, pairs_partition, 4, 4) is None

    def test_subset_budget(self, monkeypatch):
        # every entry point counts its coalitions against MAX_SUBSETS and
        # refuses before it scans: the kernel must never be reached
        def scan(*args):
            raise AssertionError("scanned past the guard")

        def ones(n):
            return [[int(i != j) for j in range(n)] for i in range(n)]

        monkeypatch.setattr(stability, "_blocking_coalitions", scan)
        g24 = Game.from_matrix(ones(24), ASHG)  # 2^24 - 1 = 16,777,215 coalitions
        g26 = Game.from_matrix(ones(26), ASHG)  # C(26, 13) = 10,400,600 coalitions
        p24 = Partition.singletons(24)
        p26 = Partition.of([[i, i + 1] for i in range(0, 26, 2)])
        # sum of C(70, s) for s = 2..5 is 13,077,064
        s70 = Scenario(70, ones(70), (1,) * 70, ASHG)
        calls = [
            lambda: find_blocking_coalition(g24, p24, 1, 24),
            lambda: is_size_stable(g24, p24, 12),  # 9,740,685
            lambda: is_core_stable(g24, p24),
            lambda: is_improvement_stable(g24, p24, 2),
            lambda: is_size_factor_stable(g26, p26, 13, 2),
            lambda: max_improvement_factor_at_size(g26, p26, 13),
            lambda: scenario_is_size_stable(s70, 5),
        ]
        for call in calls:
            with pytest.raises(ResourceLimitError):
                call()

    def test_size_one_scan_counts_no_coalitions(self, monkeypatch):
        # at max_size = 1 a scenario's scan enumerates no coalition (a
        # singleton deviation is a negative baseline), so the guard counts
        # none; at max_size = 2 it counts C(4, 2) = 6 > 5 and refuses
        monkeypatch.setattr(stability, "MAX_SUBSETS", 5)
        weights = [[int(i != j) for j in range(4)] for i in range(4)]
        assert scenario_is_size_stable(Scenario(4, weights, (1,) * 4, ASHG), 1) is True
        negative = Scenario(4, weights, (1, 1, -1, 1), ASHG)
        assert scenario_is_size_stable(negative, 1) is False
        with pytest.raises(ResourceLimitError, match="enumerating 6 coalitions"):
            scenario_is_size_stable(Scenario(4, weights, (1,) * 4, ASHG), 2)


class TestSizeStability:
    def test_example_ashg(self, pairs_partition):
        game = example_game(ASHG)
        assert is_size_stable(game, pairs_partition, 2).stable
        report = is_size_stable(game, pairs_partition, 3)
        assert not report.stable
        assert report.witness == Coalition.of([0, 1, 2])

    def test_size_one_stable_with_nonnegative_utilities(self, pairs_partition):
        for alpha in (ASHG, FHG, MFHG):
            assert is_size_stable(example_game(alpha), pairs_partition, 1).stable

    def test_size_one_unstable_with_negative_utility(self):
        game = Game.from_edges(2, [(0, 1, -1)], FHG)
        report = is_size_stable(game, Partition.of([[0, 1]]), 1)
        assert not report.stable
        assert report.witness == Coalition.of([0])

    def test_core_example(self, pairs_partition):
        assert is_core_stable(example_game(MFHG), pairs_partition).stable
        report = is_core_stable(example_game(FHG), pairs_partition)
        assert not report.stable
        assert report.witness == Coalition.of([0, 1, 2])

    def test_core_all_zero_singletons(self):
        game = Game.from_edges(3, [], ASHG)
        assert is_core_stable(game, Partition.singletons(3)).stable


class TestFactorStability:
    def test_example_factors(self, pairs_partition):
        game = example_game(ASHG)
        assert is_size_factor_stable(game, pairs_partition, 3, Fraction(5, 3)).stable
        assert is_size_factor_stable(game, pairs_partition, 4, 2).stable
        assert not is_size_factor_stable(game, pairs_partition, 3, 1).stable

    def test_improvement_stability(self, pairs_partition):
        game = example_game(ASHG)
        assert is_improvement_stable(game, pairs_partition, 2).stable
        assert is_improvement_stable(game, pairs_partition, 100).stable
        # enumeration: {0,1,2} improves everyone by 5/3, 2, 5/3 > 3/2
        report = is_improvement_stable(game, pairs_partition, Fraction(3, 2))
        assert not report.stable
        assert blocking_members_check(
            game, pairs_partition, report.witness, Fraction(3, 2)
        )

    def test_max_factor_at_size(self, pairs_partition):
        game = example_game(ASHG)
        assert max_improvement_factor_at_size(game, pairs_partition, 3) == Fraction(5, 3)
        assert max_improvement_factor_at_size(game, pairs_partition, 4) == 2

    def test_max_factor_at_most_one_when_partition_optimal(self):
        matrix = [[Fraction(0) if i == j else Fraction(1) for j in range(4)] for i in range(4)]
        game = Game.from_matrix(matrix, ASHG)
        grand = Partition.of([[0, 1, 2, 3]])
        for m in (2, 3, 4):
            assert max_improvement_factor_at_size(game, grand, m) <= 1

    def test_nonpositive_baseline_rejected(self):
        game = Game.from_edges(3, [(0, 1, 1)], FHG)
        partition = Partition.of([[0, 1], [2]])  # agent 2 sits alone at 0
        with pytest.raises(DomainError):
            max_improvement_factor_at_size(game, partition, 2)

    def test_each_game_is_scaled_once(self, monkeypatch, pairs_partition):
        # every scan of one game, twice each, and its price of anarchy
        # read one scaling of the weights
        from alphahg import core
        from alphahg.efficiency import size_cpoa

        calls = []
        scale = core._scaled_pairs

        def counting(weights):
            calls.append(weights)
            return scale(weights)

        monkeypatch.setattr(core, "_scaled_pairs", counting)
        game = example_game(ASHG)
        for _ in range(2):
            assert not is_size_stable(game, pairs_partition, 3).stable
            assert max_improvement_factor_at_size(game, pairs_partition, 3) == Fraction(5, 3)
        size_cpoa(game, 2)
        assert len(calls) == 1
        # an equal game is scaled again, and its own scaling kept
        twin = Game(game.n, game.weights, game.alpha)
        assert twin == game and not is_core_stable(twin, pairs_partition).stable
        assert not is_core_stable(twin, pairs_partition).stable
        assert len(calls) == 2


@pytest.mark.parametrize("call,message", [
    (lambda g, p: find_blocking_coalition(g, p, 0, 2), "need 1 <= min_size <= max_size <= 4"),
    (lambda g, p: find_blocking_coalition(g, p, 1, 4, Fraction(1, 2)),
     "improvement factor must be >= 1"),
    (lambda g, p: scenario_is_size_stable(fixture("fig6"), 8), "need 1 <= max_size <= 7"),
    (lambda g, p: max_improvement_factor_at_size(g, p, 1), "need 2 <= size <= 4"),
], ids=["min size", "factor", "scenario max size", "factor size"])
def test_size_and_factor_refusals(pairs_partition, call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call(example_game(ASHG), pairs_partition)


class TestScenarioOps:
    def test_fig6_stable_and_factor(self):
        scenario = fixture("fig6")
        assert scenario_is_size_stable(scenario, 5)
        assert min_improvement_factor(scenario) == Fraction(8, 7)

    def test_complete_graph_scenario_pairwise(self):
        scenario = complete_graph_scenario(FHG, 2, 3)
        assert scenario_is_size_stable(scenario, 2)
        assert min_improvement_factor(scenario) == Fraction(4, 3)

    def test_zero_weight_scenario_stable(self):
        scenario = Scenario(
            size=3,
            weights=tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3)),
            baselines=(Fraction(1),) * 3,
            alpha=FHG,
        )
        for q in (1, 2, 3):
            assert scenario_is_size_stable(scenario, q)

    def test_negative_baseline_is_singleton_deviation(self):
        scenario = Scenario(
            size=2,
            weights=((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
            baselines=(Fraction(-1), Fraction(1)),
            alpha=FHG,
        )
        assert not scenario_is_size_stable(scenario, 2)

    def test_min_factor_requires_positive_baselines(self):
        scenario = Scenario(
            size=2,
            weights=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
            baselines=(Fraction(0), Fraction(1)),
            alpha=FHG,
        )
        with pytest.raises(DomainError):
            min_improvement_factor(scenario)

    def test_fig8_factor(self):
        assert min_improvement_factor(fixture("fig8")) == 2

    def test_from_pairs(self):
        scenario = Scenario.from_pairs(ASHG, 3, lambda i, j: Fraction(i + 2 * j, 3))
        assert scenario.weights == tuple(
            tuple(Fraction(0) if i == j else Fraction(min(i, j) + 2 * max(i, j), 3) for j in range(3))
            for i in range(3)
        )
        assert scenario.baselines == (1, 1, 1)
        assert Scenario.from_pairs(ASHG, 2, lambda i, j: 1, ("1/2", 3)).baselines == (
            Fraction(1, 2),
            3,
        )
        # the size is admitted, and given baselines are never replaced
        for size, baselines in ((2.0, None), (True, None), (2, []), (2, [1])):
            with pytest.raises(InvalidInputError):
                Scenario.from_pairs(ASHG, size, lambda i, j: 1, baselines)


    def test_each_scenario_is_scaled_once(self, monkeypatch):
        # both checks, twice each, read one scaling of the weights
        from alphahg import core

        calls = []
        scale = core._scaled_pairs

        def counting(weights):
            calls.append(weights)
            return scale(weights)

        monkeypatch.setattr(core, "_scaled_pairs", counting)
        scenario = fixture("fig6")
        for _ in range(2):
            assert scenario_is_size_stable(scenario, 5)
            assert min_improvement_factor(scenario) == Fraction(8, 7)
        assert len(calls) == 1
        # an equal scenario is scaled again, and its own scaling kept
        twin = Scenario(scenario.size, scenario.weights, scenario.baselines, scenario.alpha)
        assert twin == scenario and min_improvement_factor(twin) == Fraction(8, 7)
        assert len(calls) == 2


def _naive_blocks(game, partition, min_size, max_size, factor):
    """Definitional double loop, no shared machinery."""
    for s in range(min_size, max_size + 1):
        for combo in combinations(range(game.n), s):
            if all(
                coalition_utility(game, combo, i)
                > factor * partition_utility(game, partition, i)
                for i in combo
            ):
                return combo
    return None


class TestAgainstNaiveOracle:
    def test_random_games_match_naive(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randint(2, 6)
            game = random_game(rng, n, rng.choice((ASHG, FHG, MFHG)), low=-3, high=5)
            partition = random_partition(rng, n)
            factor = rng.choice((Fraction(1), Fraction(3, 2)))
            got = find_blocking_coalition(game, partition, 1, n, factor)
            want = _naive_blocks(game, partition, 1, n, factor)
            if want is None:
                assert got is None
            else:
                assert got is not None
                # same verdict; the naive loop uses the same deterministic order
                assert got.members == want


class TestInvariantProperties:
    def test_consistency_size_vs_factor_one(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 6)
            game = random_game(rng, n, rng.choice((ASHG, FHG, MFHG)), low=-2, high=4)
            partition = random_partition(rng, n)
            for q in range(1, n + 1):
                by_size = is_size_stable(game, partition, q).stable
                by_factors = all(
                    is_size_factor_stable(game, partition, s, 1).stable
                    for s in range(1, q + 1)
                )
                assert by_size == by_factors

    def test_monotonicity(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(3, 6)
            game = random_game(rng, n, rng.choice((ASHG, FHG)), low=-2, high=4)
            partition = random_partition(rng, n)
            stable_sizes = [is_size_stable(game, partition, q).stable for q in range(1, n + 1)]
            # once unstable, further sizes stay unstable
            for earlier, later in zip(stable_sizes, stable_sizes[1:]):
                assert earlier or not later
            factors = [Fraction(1), Fraction(5, 4), Fraction(2), Fraction(4)]
            verdicts = [is_improvement_stable(game, partition, k).stable for k in factors]
            for earlier, later in zip(verdicts, verdicts[1:]):
                assert later or not earlier

    def test_scale_invariance(self):
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(3, 6)
            game = random_game(rng, n, rng.choice((ASHG, FHG, MFHG)), low=-3, high=5)
            partition = random_partition(rng, n)
            for c in (Fraction(1, 2), Fraction(3), Fraction(7, 5)):
                scaled = Game(
                    game.n,
                    tuple(tuple(c * w for w in row) for row in game.weights),
                    game.alpha,
                )
                for q in (2, n):
                    assert (
                        is_size_stable(game, partition, q).stable
                        == is_size_stable(scaled, partition, q).stable
                    )
                assert (
                    is_improvement_stable(game, partition, Fraction(3, 2)).stable
                    == is_improvement_stable(scaled, partition, Fraction(3, 2)).stable
                )

    def test_witness_recheck(self):
        rng = random.Random(10)
        found = 0
        for _ in range(60):
            n = rng.randint(3, 6)
            game = random_game(rng, n, rng.choice((ASHG, FHG, MFHG)), low=-2, high=5)
            partition = random_partition(rng, n)
            report = is_core_stable(game, partition)
            if not report.stable:
                found += 1
                assert blocking_members_check(game, partition, report.witness, 1)
        assert found > 0

    def test_stable_size_bounds_later_improvement(self):
        """Whenever a partition with positive utilities is size-stable up
        to q, larger coalitions cannot beat the closed-form bound."""
        rng = random.Random(11)
        hits = 0
        for _ in range(250):
            n = rng.randint(4, 7)
            game = random_game(rng, n, rng.choice((ASHG, FHG, MFHG)), low=0, high=4)
            partition = random_partition(rng, n)
            if any(partition_utility(game, partition, i) <= 0 for i in range(n)):
                continue
            for q in (2, 3):
                if not is_size_stable(game, partition, q).stable:
                    continue
                hits += 1
                for m in range(q + 1, n + 1):
                    assert max_improvement_factor_at_size(
                        game, partition, m
                    ) <= improvement_bound(game.alpha, q, m)
        assert hits > 0


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_hypothesis_witness_violates_for_every_member(n, seed):
    rng = random.Random(seed)
    game = random_game(rng, n, rng.choice((ASHG, FHG, MFHG)), low=-3, high=5)
    partition = random_partition(rng, n)
    report = is_core_stable(game, partition)
    if report.witness is not None:
        members = report.witness.members
        for i in members:
            assert coalition_utility(game, members, i) > partition_utility(
                game, partition, i
            )
