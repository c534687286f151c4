"""The integer subset kernel against the Fraction loops it replaced.

Blocking checks, improvement factors, the search's branching test and
the prices of anarchy now all clear denominators once and scan on ints.
``reference_stability`` holds the former Fraction loops; every case
here must give the same witness, factor or price-of-anarchy result.
"""

import random
from fractions import Fraction
from itertools import combinations

import reference_stability as reference
from alphahg import (
    ASHG,
    FHG,
    MFHG,
    ODD_EVEN,
    PAIRWISE_COMM,
    AlphaFunction,
    Game,
    Partition,
    find_blocking_coalition,
    greedy_pairing,
    max_improvement_factor_at_size,
    scenario_is_size_stable,
)
from alphahg.efficiency import _cpoa, _partition_masks
from alphahg.stability import Scenario, _scenario_first_blocking
from conftest import positive_baseline_partition, random_partition

FACTORS = (Fraction(1), Fraction(3, 2), Fraction(7, 5), Fraction(2), Fraction(13, 4), Fraction(1001, 1000))


def _rational(rng, low, high):
    """Half integers, half rationals with denominators up to 1000."""
    if rng.random() < 0.5:
        return Fraction(rng.randint(low, high))
    d = rng.randint(2, 1000)
    return Fraction(rng.randint(low * d, high * d), d)


def _alpha(rng, n):
    """A built-in variant, or a table with alpha(1) = 0."""
    if rng.random() < 0.25:
        return AlphaFunction.from_table([0] + [_rational(rng, 1, 3) for _ in range(n - 1)])
    return rng.choice((ASHG, FHG, MFHG, PAIRWISE_COMM, ODD_EVEN))


def _matrix(rng, n, low, high):
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        matrix[i][j] = matrix[j][i] = _rational(rng, low, high)
    return matrix


def _game(rng, n, low=-3, high=9):
    return Game.from_matrix(_matrix(rng, n, low, high), _alpha(rng, n))


def _partition(rng, game):
    """A random partition, the grand coalition or a greedy pairing: the
    last two let many coalitions be scanned before one blocks."""
    pick = rng.random()
    if pick < 0.4:
        return random_partition(rng, game.n)
    if pick < 0.7:
        return greedy_pairing(game)
    return Partition.of([range(game.n)])


def test_find_blocking_coalition_matches_reference():
    rng = random.Random(4001)
    sizes = []
    for _ in range(1000):
        n = rng.randint(2, 9)
        game = _game(rng, n)
        partition = _partition(rng, game)
        factor = rng.choice(FACTORS)
        lo = rng.randint(1, n)
        hi = rng.randint(lo, n)
        got = find_blocking_coalition(game, partition, lo, hi, factor)
        want = reference.find_blocking_coalition(game, partition, lo, hi, factor)
        assert got == want, (game, partition, lo, hi, factor)
        sizes.append(0 if got is None else len(got))
    # every kind of outcome is exercised, not only early exits
    assert sizes.count(0) >= 100
    assert sum(1 for s in sizes if s >= 3) >= 100
    assert sizes.count(1) >= 20


def _planted_scenario(rng, m):
    """Random weights and baselines with one subset S planted: members of
    S get baselines equal to their utility in S (exact ties) or just
    below it, so S blocks iff no member ties.  Baselines may be
    negative."""
    alpha = _alpha(rng, m)
    matrix = _matrix(rng, m, -9, 9)
    baselines = [_rational(rng, -2, 12) for _ in range(m)]
    planted = tuple(sorted(rng.sample(range(m), rng.randint(2, m))))
    a = alpha.value(len(planted))
    ties = set(rng.sample(planted, rng.randint(0, len(planted))))
    for i in planted:
        utility = a * sum(matrix[i][j] for j in planted)
        baselines[i] = utility if i in ties else utility - Fraction(1, rng.randint(1, 1000))
    scenario = Scenario(m, tuple(map(tuple, matrix)), tuple(baselines), alpha)
    return scenario, planted, bool(ties)


def test_scenario_kernel_matches_reference_with_planted_ties():
    rng = random.Random(4002)
    tied = untied = 0
    for _ in range(1000):
        m = rng.randint(2, 9)
        scenario, planted, has_tie = _planted_scenario(rng, m)
        q = rng.randint(len(planted), m)
        got = _scenario_first_blocking(scenario, q)
        want = reference.first_violated_subset(scenario.alpha, q, scenario, {})
        assert got == want, (scenario, q)
        assert scenario_is_size_stable(scenario, q) == reference.scenario_is_size_stable(scenario, q)
        if has_tie:
            # an exact tie is not an improvement
            assert got != planted
            tied += 1
        elif got == planted:
            untied += 1
    assert tied >= 300 and untied >= 50


def test_max_improvement_factor_matches_reference():
    rng = random.Random(4003)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 8)
        game = _game(rng, n, low=-2, high=9)
        partition = positive_baseline_partition(rng, game, attempts=10)
        if partition is None:
            continue
        size = rng.randint(2, n)
        got = max_improvement_factor_at_size(game, partition, size)
        assert got == reference.max_improvement_factor_at_size(game, partition, size)
        checked += 1


def test_cpoa_matches_reference():
    rng = random.Random(4004)
    kinds = set()
    for _ in range(30):
        n = rng.randint(5, 6)
        game = _game(rng, n, low=-4, high=9)
        q = rng.randint(1, n)
        k = rng.choice(FACTORS[1:])
        for size, factor in ((q, Fraction(1)), (n, k)):
            got = _cpoa(game, size, factor)
            assert got == reference._cpoa(game, size, factor)
            kinds.add(got.kind)
    assert len(kinds) >= 2


def _block_masks(codes):
    masks = [0] * (max(codes) + 1)
    for agent, code in enumerate(codes):
        masks[code] |= 1 << agent
    return masks


def test_restricted_growth_strings_match_reference():
    # the iterative mask walk yields the recursive code walk's sequence,
    # so enumerate_partitions and _cpoa visit partitions in the same order
    for n in range(1, 10):
        assert list(_partition_masks(n)) == [
            _block_masks(codes) for codes in reference._restricted_growth_strings(n)
        ], n


def test_backend_name_is_recorded():
    from alphahg import _rat

    assert isinstance(_rat.BACKEND, str) and _rat.BACKEND
