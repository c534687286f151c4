"""The integer subset kernel against the Fraction loops it replaced.

Blocking checks, improvement factors, the search's branching test and
the prices of anarchy now all clear denominators once and scan on ints,
and the prices of anarchy and the best partition no longer walk every
partition.  ``reference_stability`` holds the former Fraction loops;
every case here must give the same witness, factor, partition or
price-of-anarchy result.  The blocking scan's prefix bound is checked
where it decides: games where only late coalitions block, exact ties
at the prune and negative suffix weights; its first-member bound at
exact ties, one unit above them, and at grand coalitions where it
skips every first member.
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
    best_welfare_partition,
    coalition_utility,
    enumerate_partitions,
    find_blocking_coalition,
    greedy_pairing,
    max_improvement_factor_at_size,
    min_improvement_factor,
    partition_utility,
    scenario_is_size_stable,
    social_welfare,
)
from alphahg.efficiency import _cpoa
from alphahg.stability import Scenario, _blocking_coalitions, _scenario_first_blocking
from conftest import positive_baseline_partition, random_game, random_partition

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


def _grand_coalition_games(rng, n):
    """Grand coalitions that no coalition blocks, so the scan must rule
    out every coalition: ASHG with all-positive weights (nobody gains by
    leaving) and FHG with weights in [1, 1 + 1/(n(n-2))] (a proper subset
    S gives at most (|S|-1)(1+d)/|S| <= (n-1)/n)."""
    positive = _matrix(rng, n, 1, 9)
    uniform = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        k = rng.randint(1, 4)
        uniform[i][j] = uniform[j][i] = 1 + Fraction(rng.randint(0, k), k * n * (n - 2))
    grand = Partition.of([range(n)])
    return [(Game.from_matrix(positive, ASHG), grand), (Game.from_matrix(uniform, FHG), grand)]


def _late_blocker_game(rng, n, t):
    """ASHG game whose only blocking coalition is B, the last ``t``
    agents, which come last in (size, lex) order among coalitions of
    size ``t``.  The partition is [A, B1, B2] with B = B1 + B2: weights
    inside each block are at least 2, B1-B2 weights are positive but sum
    to less than 1 per agent, and A-B weights are negative, so a
    coalition blocks only if it holds all of B and nothing of A.
    Returns the game, the partition and a factor that B still beats."""
    a_part = list(range(n - t))
    half = n - t + t // 2
    b1, b2 = list(range(n - t, half)), list(range(half, n))
    matrix = [[Fraction(0)] * n for _ in range(n)]

    def put(i, j, w):
        matrix[i][j] = matrix[j][i] = w

    for block in (a_part, b1, b2):
        for i, j in combinations(block, 2):
            put(i, j, _rational(rng, 2, 9))
    for i in b1:
        for j in b2:
            d = rng.randint(8 * t, 1000)
            put(i, j, Fraction(rng.randint(1, d // t - 1), d))
    for i in a_part:
        for j in b1 + b2:
            put(i, j, -_rational(rng, 1, 9))
    ratio = min(
        sum(matrix[i][j] for j in b1 + b2) / sum(matrix[i][j] for j in (b1 if i in b1 else b2))
        for i in b1 + b2
    )
    return Game.from_matrix(matrix, ASHG), Partition.of([a_part, b1, b2]), (1 + ratio) / 2


def test_bounded_scan_matches_reference_where_only_late_coalitions_block():
    # the stable grand coalitions make the bound skip nearly every
    # prefix, and the late blocker is found only after every other
    # coalition of its size has been ruled out
    rng = random.Random(4007)
    for n in (9, 10, 11):
        t = n // 2 + 1
        for game, partition in _grand_coalition_games(rng, n):
            for lo, hi, factor in ((1, n, 1), (1, t, 1), (1, n, Fraction(5, 4)), (t, t, Fraction(9, 8))):
                got = find_blocking_coalition(game, partition, lo, hi, factor)
                assert got is None
                assert got == reference.find_blocking_coalition(game, partition, lo, hi, factor)
        game, partition, factor = _late_blocker_game(rng, n, t)
        late = tuple(range(n - t, n))
        for lo, hi, k, want in (
            (1, n, 1, late), (1, t, 1, late), (1, t - 1, 1, None),
            (1, n, factor, late), (t, t, factor, late), (t + 1, n, factor, None),
        ):
            got = find_blocking_coalition(game, partition, lo, hi, k)
            assert got == reference.find_blocking_coalition(game, partition, lo, hi, k)
            assert (None if got is None else tuple(got)) == want, (n, lo, hi, k)


def _tied_prune_kernel_case(m, s, c, over):
    """Int weights and thresholds, ASHG (so each limit is the threshold
    itself), in which the first coalition of size ``s`` that can block
    is ``(0, 1, ..., s - 1)``.  Agent 0 weighs ``c`` to everyone, so the
    bound at every prefix through agent 0 is exact; agent 0's limit is
    its sum in that coalition minus ``over``.  Every other agent weighs
    ``c`` to agent 0 and 0 to the rest, with limit ``c - 1``: they
    improve in any coalition with agent 0."""
    weights = [[0] * m for _ in range(m)]
    for j in range(1, m):
        weights[0][j] = weights[j][0] = c
    limits = [(s - 1) * c - over] + [c - 1] * (m - 1)
    return weights, limits


def test_bound_ties_at_the_prune():
    # over = 1: agent 0's sum is limit + 1, so (0, ..., s - 1) blocks and
    # the bound equals its sum at every prefix; over = 0: its sum equals
    # the limit, so nothing of size s blocks and the witness is the
    # first coalition one larger
    for m in range(4, 10):
        for s in range(3, m):
            for c in (1, 2, 7):
                for over in (0, 1):
                    weights, limits = _tied_prune_kernel_case(m, s, c, over)
                    thresholds = [(limit, 1) for limit in limits]
                    scenario = Scenario(m, weights, limits, ASHG)
                    for q in (s, m):
                        got = next(_blocking_coalitions(weights, thresholds, ASHG, 2, q), None)
                        assert got == reference.first_violated_subset(ASHG, q, scenario, {})
                        if over:
                            assert got == tuple(range(s))
                        else:
                            assert got == (None if q == s else tuple(range(s + 1)))


def test_bound_ties_at_the_prune_on_random_rows():
    # the first member f of a planted S weighs exactly its row's suffix
    # maximum to every other member, so the bound is exact along S;
    # f's sum is its limit or one more, the other members beat theirs,
    # and no agent outside S can improve (its limit tops any sum)
    rng = random.Random(4008)
    found = 0
    for _ in range(400):
        m = rng.randint(5, 9)
        weights = [[0] * m for _ in range(m)]
        for i, j in combinations(range(m), 2):
            weights[i][j] = weights[j][i] = rng.randint(-3, 4)
        planted = tuple(sorted(rng.sample(range(m), rng.randint(3, m - 1))))
        f, c = planted[0], rng.randint(-2, 3)
        for j in range(f + 1, m):
            w = c if j in planted else min(weights[f][j], c)
            weights[f][j] = weights[j][f] = w
        over = rng.randint(0, 1)
        limits = [4 * m] * m
        limits[f] = (len(planted) - 1) * c - over
        for i in planted[1:]:
            limits[i] = sum(weights[i][j] for j in planted) - 1
        scenario = Scenario(m, weights, limits, ASHG)
        q = rng.randint(len(planted), m)
        got = next(_blocking_coalitions(weights, [(limit, 1) for limit in limits], ASHG, 2, q), None)
        assert got == reference.first_violated_subset(ASHG, q, scenario, {}), (weights, limits, q)
        if over:
            found += got == planted
        else:
            # a tie is not an improvement
            assert got != planted
    assert found >= 50


def test_bound_with_negative_suffix_peaks():
    # every weight to the last agents is negative, so a first member's
    # suffix maximum is negative there; partitions that leave agents with
    # negative utility let coalitions through those agents block
    rng = random.Random(4009)
    through_tail = 0
    for _ in range(300):
        n = rng.randint(5, 9)
        tail = rng.randint(2, n - 2)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            low, high = (-9, -1) if j >= n - tail else (-3, 6)
            matrix[i][j] = matrix[j][i] = _rational(rng, low, high)
        game = Game.from_matrix(matrix, _alpha(rng, n))
        partition = random_partition(rng, n)
        factor = rng.choice(FACTORS)
        lo = rng.randint(3, n)
        hi = rng.randint(lo, n)
        got = find_blocking_coalition(game, partition, lo, hi, factor)
        want = reference.find_blocking_coalition(game, partition, lo, hi, factor)
        assert got == want, (game, partition, lo, hi, factor)
        through_tail += got is not None and max(got) >= n - tail
    assert through_tail >= 30


def test_bounded_scan_reaches_coalitions_of_any_size():
    # the only coalition of size n is the grand coalition: each agent's
    # sum is n - 1, so a limit of n - 2 lets it block and n - 1 does not
    n = 1100
    weights = [[int(i != j) for j in range(n)] for i in range(n)]
    for limit, want in ((n - 2, tuple(range(n))), (n - 1, None)):
        assert next(_blocking_coalitions(weights, [(limit, 1)] * n, ASHG, n, n), None) == want


def _tops(row, first):
    """``top[r]``: the sum of the ``r`` largest ``row[j]`` over ``j > first``."""
    suffix = sorted(row[first + 1:], reverse=True)
    return [sum(suffix[:r]) for r in range(len(suffix) + 1)]


def _walk_all(weights, thresholds, alpha, lo, hi):
    """Every blocking coalition of size ``lo..hi``, in (size, lex) order,
    in Fraction arithmetic (see :func:`_walk`)."""
    return _walk(weights, thresholds, alpha, lo, hi, [[]] * 2 ** len(weights))


def _tied_root_case(rng, m, s, over):
    """Int weights and thresholds, ASHG, with one planted coalition ``S``
    of size ``s`` headed by ``f``: ``f`` weighs 5..8 to the rest of
    ``S`` and at most 4 to every other later agent, so ``S`` is the one
    coalition of size ``s`` that reaches ``top_f[s - 1]`` for ``f``.
    ``f``'s limit is ``top_f[s - 1] - over``, written as ``(num, den)``
    with a remainder below ``den``, so its floor is that limit; the
    other members of ``S`` beat theirs, and no agent outside ``S`` can
    improve.  Returns the weights, thresholds, ``S`` and ``f``."""
    weights = [[0] * m for _ in range(m)]
    for i, j in combinations(range(m), 2):
        weights[i][j] = weights[j][i] = rng.randint(-3, 4)
    f = rng.randint(0, m - s)
    planted = (f, *sorted(rng.sample(range(f + 1, m), s - 1)))
    for j in range(f + 1, m):
        w = rng.randint(5, 8) if j in planted else rng.randint(-3, 4)
        weights[f][j] = weights[j][f] = w
    limits = [8 * m * m] * m
    limits[f] = _tops(weights[f], f)[s - 1] - over
    for i in planted[1:]:
        limits[i] = sum(weights[i][j] for j in planted) - 1
    thresholds = []
    for limit in limits:
        den = rng.randint(1, 5)
        thresholds.append((limit * den + rng.randint(0, den - 1), den))
    return weights, thresholds, planted, f


def test_root_bound_ties_and_one_unit_above():
    # over = 0: f's r best weights tie its limit, so its root is skipped
    # at size s, and no coalition of that size blocks; over = 1: they
    # beat it by one unit, and the planted coalition is the witness
    rng = random.Random(4011)
    for _ in range(400):
        m = rng.randint(4, 9)
        s = rng.randint(2, m - 1)
        over = rng.randint(0, 1)
        weights, thresholds, planted, f = _tied_root_case(rng, m, s, over)
        assert _tops(weights[f], f)[s - 1] == thresholds[f][0] // thresholds[f][1] + over
        got = list(_blocking_coalitions(weights, thresholds, ASHG, s, s))
        assert got == _walk_all(weights, thresholds, ASHG, s, s)
        assert got == ([planted] if over else [])
        lo = rng.randint(2, s)
        hi = rng.randint(s, m)
        assert list(_blocking_coalitions(weights, thresholds, ASHG, lo, hi)) == _walk_all(
            weights, thresholds, ASHG, lo, hi
        )


def _grand_thresholds(weights, alpha):
    """Each agent's utility in the grand coalition, as an int threshold."""
    a = alpha.value(len(weights))
    return [(a.numerator * sum(row), a.denominator) for row in weights]


def test_every_root_skipped_at_the_grand_coalition():
    # under ASHG an agent's grand-coalition sum is at least its r best
    # later weights when (a) every weight is positive, or (b) agent 0
    # weighs 3(n - 2) or more to everyone, which outweighs any agent's
    # negative weights to later agents; so every root is skipped at
    # every size, agent 0's at size n by a tie, and nothing blocks.
    # With one agent's threshold one unit below its best sum at some
    # size, and every other agent keen, that root is live at that size,
    # and the scan must then match the walk
    rng = random.Random(4012)
    live = 0
    for trial in range(120):
        n = rng.randint(3, 9)
        weights = [[0] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            if trial % 2:
                w = 3 * (n - 2) + rng.randint(0, 3) if i == 0 else rng.randint(-3, 4)
            else:
                w = rng.choice((1, 2, 2, 5))
            weights[i][j] = weights[j][i] = w
        thresholds = _grand_thresholds(weights, ASHG)
        for f in range(n - 1):
            assert all(top <= thresholds[f][0] for top in _tops(weights[f], f))
        assert _tops(weights[0], 0)[n - 1] == thresholds[0][0]
        assert list(_blocking_coalitions(weights, thresholds, ASHG, 2, n)) == []
        assert _walk_all(weights, thresholds, ASHG, 2, n) == []
        for alpha in (FHG, _alpha(rng, n)):
            grand = _grand_thresholds(weights, alpha)
            assert list(_blocking_coalitions(weights, grand, alpha, 2, n)) == _walk_all(
                weights, grand, alpha, 2, n
            )
        f = rng.randint(0, n - 2)
        tops = _tops(weights[f], f)
        s = max(range(2, n - f + 1), key=lambda size: tops[size - 1])
        lowered = [(-8 * n, 1)] * n
        lowered[f] = (tops[s - 1] - 1, 1)
        got = list(_blocking_coalitions(weights, lowered, ASHG, 2, n))
        assert got == _walk_all(weights, lowered, ASHG, 2, n)
        live += any(combo[0] == f and len(combo) == s for combo in got)
    assert live >= 10


def _raise(thresholds, raises):
    """Raise agent ``i``'s threshold ``(num, den)`` by ``d / den`` for
    each ``(i, d)`` in ``raises``, in place."""
    for i, d in raises:
        num, den = thresholds[i]
        thresholds[i] = (num + d, den)


def _walk(weights, thresholds, alpha, lo, hi, raises):
    """Every coalition of size ``lo..hi``, in (size, lex) order, that
    blocks under the thresholds current when it is reached, in Fraction
    arithmetic; after the k-th one the thresholds rise by ``raises[k]``."""
    thresholds, found = list(thresholds), []
    for s in range(lo, hi + 1):
        a = alpha.value(s)
        for combo in combinations(range(len(weights)), s):
            if all(a * sum(weights[i][j] for j in combo) > Fraction(*thresholds[i]) for i in combo):
                _raise(thresholds, raises[len(found)])
                found.append(combo)
    return found


def test_resumed_scan_matches_a_walk_over_combinations():
    # the kernel rereads the thresholds after each yield; raising some of
    # them between yields must give what a walk over every coalition
    # gives when it applies the same raises as it goes
    # half the matrices draw from four values, so first members' best
    # weights tie among themselves and with the thresholds
    rng = random.Random(4010)
    resumed = changed = 0
    for trial in range(600):
        n = rng.randint(2, 8)
        weights = [[0] * n for _ in range(n)]
        values = rng.sample(range(-5, 9), 4)
        for i, j in combinations(range(n), 2):
            w = rng.choice(values) if trial % 2 else rng.randint(-5, 8)
            weights[i][j] = weights[j][i] = w
        alpha = _alpha(rng, n)
        thresholds = [(rng.randint(-8, 12), rng.randint(1, 4)) for _ in range(n)]
        lo = rng.randint(2, n)
        hi = rng.randint(lo, n)
        # one raise per coalition the scan could yield, drawn in advance
        # so that the scan and the walk apply the same ones
        raises = [
            [(i, rng.randint(1, 6)) for i in range(n) if rng.random() < 0.4] if trial % 3 else []
            for _ in range(2 ** n)
        ]
        current, got = list(thresholds), []
        for combo in _blocking_coalitions(weights, current, alpha, lo, hi):
            _raise(current, raises[len(got)])
            got.append(combo)
        assert got == _walk(weights, thresholds, alpha, lo, hi, raises), (weights, thresholds, lo, hi)
        every = _walk_all(weights, thresholds, alpha, lo, hi)
        if trial % 3 == 0:
            # with no raises the scan yields every blocking coalition
            assert got == every
        resumed += len(got) >= 2
        changed += got != every
    assert resumed >= 150 and changed >= 100


def _factors(game, partition, size):
    """Each coalition of ``size`` agents and the least ratio of a
    member's utility in it to their partition utility."""
    return {
        combo: min(
            coalition_utility(game, combo, i) / partition_utility(game, partition, i)
            for i in combo
        )
        for combo in combinations(range(game.n), size)
    }


def _paired_game(n, alpha, weight):
    """``n`` (even) agents partitioned into the pairs ``{i, n - 1 - i}``,
    each pair weighing 1; the other pair ``i < j`` weighs ``weight(i, j)``."""
    pairs = [[i, n - 1 - i] for i in range(n // 2)]
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        matrix[i][j] = matrix[j][i] = Fraction(1) if i + j == n - 1 else Fraction(weight(i, j))
    return Game.from_matrix(matrix, alpha), Partition.of(pairs)


def _planted_factor_cases(rng):
    """Games whose largest factor is planted: (name, game, partition,
    size).  With the partition into pairs weighing 1, an agent whose
    other weights in S are at most 0 improves by at most
    ``alpha(|S|) / alpha(2)``."""
    table = AlphaFunction.from_table([0] + [_rational(rng, 1, 3) for _ in range(7)])
    for n in (4, 6, 8):
        for size in range(2, n // 2 + 1):
            last = set(range(n - size, n))
            c = _rational(rng, 2, 9)
            for alpha in (rng.choice((ASHG, FHG, MFHG, PAIRWISE_COMM, ODD_EVEN)), table):
                # the last agents, one from each of ``size`` pairs, weigh
                # c > 1 to each other and at most 0 to everyone else
                game, partition = _paired_game(
                    n, alpha, lambda i, j: c if {i, j} <= last else -rng.randint(0, 3)
                )
                yield "lex-last", game, partition, size
                # every coalition of one agent from each of ``size`` pairs
                # ties, and any other one holds an agent at most 1 + (s - 2) c
                game, partition = _paired_game(n, alpha, lambda i, j: c)
                yield "tied", game, partition, size
                if size >= 3:
                    # any coalition of 3 or more holds a member with a
                    # weight of -2 or less next to their pair's 1
                    game, partition = _paired_game(n, alpha, lambda i, j: -_rational(rng, 2, 9))
                    yield "negative", game, partition, size


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
    kinds = set()
    for kind, game, partition, size in _planted_factor_cases(rng):
        factors = _factors(game, partition, size)
        got = max_improvement_factor_at_size(game, partition, size)
        assert got == reference.max_improvement_factor_at_size(game, partition, size)
        assert got == max(factors.values())
        best = [combo for combo, factor in factors.items() if factor == got]
        if kind == "lex-last":
            assert best == [tuple(range(game.n - size, game.n))]
        elif kind == "tied":
            assert len(best) >= 2
        else:
            assert got < 0
        kinds.add((kind, game.alpha.kind == "table"))
    assert kinds == {(k, t) for k in ("lex-last", "tied", "negative") for t in (False, True)}


def test_min_improvement_factor_matches_reference():
    # negative weights, table alphas, one to eight agents, and positive
    # baselines whose denominators run far past the weights' own
    rng = random.Random(4009)
    for _ in range(500):
        m = rng.randint(1, 8)
        baselines = []
        for _ in range(m):
            d = rng.choice((1, rng.randint(2, 1000), rng.randint(10**9, 10**15)))
            baselines.append(Fraction(rng.randint(1, 20 * d), d))
        scenario = Scenario(m, tuple(map(tuple, _matrix(rng, m, -9, 9))), tuple(baselines), _alpha(rng, m))
        assert min_improvement_factor(scenario) == reference.min_improvement_factor(scenario)


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


#: alpha(1) = 0, then non-increasing: a decreasing alpha that is no built-in
DECREASING_TABLE = AlphaFunction.from_table(
    [0, 1, Fraction(3, 4), Fraction(3, 4), Fraction(1, 2), Fraction(2, 5), Fraction(1, 3), Fraction(1, 3)]
)


def _zero_game(n, alpha):
    # every partition has welfare 0 and is stable under every notion
    return Game.from_edges(n, [], alpha)


def test_cpoa_matches_reference_at_seven_and_eight_agents():
    # where the block search prunes most: negative weights make agents
    # walk out, all-zero games make every partition stable with tied
    # welfare, and both modes run on every game
    rng = random.Random(4005)
    kinds = set()
    for index in range(12):
        n = 7 + index % 2
        alpha = (FHG, ASHG, MFHG, DECREASING_TABLE)[index % 4]
        game = _zero_game(n, alpha) if index % 6 == 4 else random_game(rng, n, alpha, -4, 6, (1, 2))
        q = rng.randint(2, 4)
        k = rng.choice(FACTORS)
        for size, factor in ((q, Fraction(1)), (n, k)):
            got = _cpoa(game, size, factor)
            assert got == reference._cpoa(game, size, factor), (index, size, factor)
            kinds.add(got.kind)
    assert {"ratio", "undefined"} <= kinds


def _mostly_dead_game(rng, n, alpha):
    """Weights mostly <= 0, many exactly 0, so most coalitions hold a
    member whose weight sum is <= 0 and can never block."""
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        pick = rng.random()
        if pick < 0.25:
            weight = _rational(rng, 1, 9)
        elif pick < 0.6:
            weight = Fraction(0)
        else:
            weight = _rational(rng, -4, 0)
        matrix[i][j] = matrix[j][i] = weight
    return Game.from_matrix(matrix, alpha)


def test_cpoa_matches_reference_where_most_deviations_cannot_block():
    # only the coalitions in which every member's weight sum is positive
    # get a deviation bit; here most do not, and in the last game, whose
    # every pair weight is <= 0, none does
    rng = random.Random(4013)
    kinds = set()
    for index in range(13):
        n = 7 + index % 2
        alpha = (FHG, ASHG, MFHG, DECREASING_TABLE)[index % 4]
        game = _mostly_dead_game(rng, n, alpha) if index < 12 else _game(rng, n, -4, 0)
        q = 2 + index % 3
        k = FACTORS[index % len(FACTORS)]
        for size, factor in ((q, Fraction(1)), (n, k)):
            got = _cpoa(game, size, factor)
            assert got == reference._cpoa(game, size, factor), (index, size, factor)
            kinds.add(got.kind)
    assert "ratio" in kinds
    assert kinds & {"undefined", "unbounded", "no_stable_outcome"}


def _tied_game(rng, n, alpha):
    """Games whose optimum several partitions reach: all-zero games, and
    weights in {-1, 0, 1}, where zero-weight agents can often sit in any
    of several blocks."""
    if rng.random() < 0.3:
        return _zero_game(n, alpha)
    matrix = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        matrix[i][j] = matrix[j][i] = rng.choice((-1, 0, 0, 1))
    return Game.from_matrix(matrix, alpha)


def test_best_welfare_partition_matches_reference_with_ties():
    rng = random.Random(4006)
    tied = 0
    for index in range(60):
        n = rng.randint(1, 7)
        alpha = rng.choice((ASHG, FHG, MFHG, DECREASING_TABLE))
        game = _tied_game(rng, n, alpha) if index % 3 else _game(rng, n)
        partition, welfare = best_welfare_partition(game)
        assert (partition, welfare) == reference.best_welfare_partition(game), game
        assert type(welfare) is Fraction
        optima = sum(1 for p in enumerate_partitions(n) if social_welfare(game, p) == welfare)
        tied += optima > 1
    assert tied >= 25


def _partition_of_codes(codes):
    """The partition that puts agent ``i`` in block ``codes[i]``."""
    return Partition.of(
        [a for a, code in enumerate(codes) if code == k] for k in range(max(codes) + 1)
    )


def test_restricted_growth_strings_match_reference():
    # enumerate_partitions yields the partitions in the order of the
    # recursive code walk that drove the former enumeration
    for n in range(1, 10):
        assert list(enumerate_partitions(n)) == [
            _partition_of_codes(codes) for codes in reference._restricted_growth_strings(n)
        ], n


def test_backend_name_is_recorded():
    from alphahg import _rat

    assert isinstance(_rat.BACKEND, str) and _rat.BACKEND
