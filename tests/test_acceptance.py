"""Acceptance suite.

One test per criterion; each prints a PASS line (run with ``-s`` to see
them all) and enforces its runtime budget.  Random suites use fixed
seeds and are fully deterministic.
"""

import contextlib
import csv
import io as stdio
import random
import time
from fractions import Fraction

from alphahg import (
    ASHG,
    FHG,
    MFHG,
    ODD_EVEN,
    PAIRWISE_COMM,
    SearchProblem,
    ashg_improvement_bound,
    build_construction,
    fhg_improvement_bound,
    fhg_improvement_limit,
    greedy_pairing,
    improvement_bound,
    improvement_cpoa,
    is_core_stable,
    is_size_factor_stable,
    is_size_stable,
    max_improvement_factor_at_size,
    min_improvement_factor,
    partition_utility,
    scenario_is_size_stable,
    search_blocking_scenario,
    simple_fhg_bound,
    size_cpoa,
)
from alphahg.cli import main as cli_main
from alphahg.efficiency import RATIO, UNBOUNDED
from alphahg.lp import Infeasible, Optimal, solve
from alphahg.search import FEASIBLE, INFEASIBLE_WITHIN_BOUNDS
from conftest import (
    ALL_ALPHAS,
    CORE_EXISTENCE_ALPHAS,
    positive_baseline_partition,
    random_game,
    random_partition,
)
from test_lp import enumerate_vertices_best, random_boxed_lp


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"{self.name}: PASS ({self.elapsed:.2f}s < {self.seconds}s budget)")
            assert self.elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: "
                f"{self.elapsed:.1f}s >= {self.seconds}s"
            )
        return False


def test_criterion_01_bound_table_reproduction():
    published = {
        2: {3: "4/3", 4: "6/4", 5: "8/5", 6: "10/6", 7: "12/7", 8: "14/8", 9: "16/9"},
        3: {4: "5/4", 5: "6/5", 6: "8/6", 7: "9/7", 8: "11/8", 9: "12/9"},
        4: {5: "6/5", 6: "7/6", 7: "8/7", 8: "10/8", 9: "11/9"},
    }
    limits = {2: Fraction(2), 3: Fraction(3, 2), 4: Fraction(4, 3)}
    with Budget("criterion 1 (bound-table reproduces the published values)", 1.0):
        buffer = stdio.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(
                ["bound-table", "--alpha", "fhg", "--q-range", "2:4", "--m-range", "3:9"]
            )
        assert code == 0
        rows = list(csv.DictReader(stdio.StringIO(buffer.getvalue())))
        assert len(rows) == 18
        seen = 0
        for row in rows:
            q, m = int(row["q"]), int(row["m"])
            assert Fraction(row["bound"]) == Fraction(published[q][m])
            assert Fraction(row["improvement_limit"]) == limits[q]
            seen += 1
        assert seen == 18


def test_criterion_02_closed_form_consistency():
    with Budget("criterion 2 (closed forms equal the general bound, q < m <= 50)", 1.0):
        for q in range(2, 51):
            for m in range(q + 1, 51):
                general_fhg = improvement_bound(FHG, q, m)
                general_ashg = improvement_bound(ASHG, q, m)
                assert fhg_improvement_bound(q, m) == general_fhg
                assert ashg_improvement_bound(q, m) == general_ashg
                assert improvement_bound(MFHG, q, m) == 1


def test_criterion_03_fixture_tightness():
    expected = {
        "fig6": (Fraction(8, 7), fhg_improvement_bound(5, 7)),
        "fig7": (Fraction(9, 8), fhg_improvement_bound(5, 8)),
        "fig8": (Fraction(2), ashg_improvement_bound(5, 7)),
        "fig9": (Fraction(2), ashg_improvement_bound(5, 8)),
    }
    for name, (factor, bound) in expected.items():
        with Budget(f"criterion 3 (fixture {name} tight at factor {factor})", 1.0):
            built = build_construction(name)
            scenario = built.scenario
            assert scenario_is_size_stable(scenario, 5)
            assert min_improvement_factor(scenario) == factor == bound


def test_criterion_04_generator_tightness():
    with Budget("criterion 4 (every generator tight on its grid)", 60.0):
        cases = []
        for alpha in (FHG, ASHG, MFHG):
            for q in range(2, 12):
                for m in range(q + 1, 13):
                    if (m - 1) % (q - 1) == 0:
                        cases.append(("complete", dict(alpha=alpha, stable_size=q, size=m)))
        for alpha in (FHG, ASHG):
            for m in range(4, 13, 2):
                cases.append(("halves", dict(alpha=alpha, size=m)))
        for q in range(2, 9):
            for alpha in (FHG, ASHG):
                cases.append(("cycle", dict(alpha=alpha, stable_size=q)))
        for m in range(5, 13):
            cases.append(("two-valued", dict(size=m)))
            cases.append(("two-group", dict(size=m)))
        for m in range(4, 11):
            cases.append(("mantel", dict(size=m)))

        assert len(cases) > 100
        for name, params in cases:
            built = build_construction(name, **params)
            assert scenario_is_size_stable(built.scenario, built.stable_size), (name, params)
            assert min_improvement_factor(built.scenario) == built.factor, (name, params)
            assert built.factor == _raw_closed_form(name, params), (name, params)


def _raw_closed_form(name, params):
    """The constructions' stated factors, written out directly."""
    alpha = params.get("alpha")
    m = params.get("size")
    if name == "complete":
        q = params["stable_size"]
        return alpha.value(m) * (m - 1) / (alpha.value(q) * (q - 1))
    if name == "halves":
        return Fraction(m - 2, 2) * alpha.value(m) / alpha.value(3) + alpha.value(
            m
        ) / alpha.value(2)
    if name == "cycle":
        q = params["stable_size"]
        if alpha == FHG:
            return Fraction(q + 2, q + 1)
        return Fraction(2)
    if name == "two-valued":
        return 1 + Fraction((m - 2) // 3, m)
    if name == "two-group":
        return Fraction(1 + (m - 2) // 3)
    assert name == "mantel"
    return 1 + Fraction((m - 2) // 2, m)


def test_criterion_05_stability_implies_bounded_improvement():
    rng = random.Random(20260810)
    with Budget("criterion 5 (500-game bounded-improvement property suite)", 300.0):
        checked = 0
        stable_hits = 0
        while checked < 500:
            n = rng.randint(4, 8)
            alpha = rng.choice(ALL_ALPHAS)
            game = random_game(rng, n, alpha, low=0, high=5)
            partition = positive_baseline_partition(rng, game)
            if partition is None:
                continue
            checked += 1
            for q in (2, 3):
                if not is_size_stable(game, partition, q).stable:
                    continue
                stable_hits += 1
                for m in range(q + 1, n + 1):
                    measured = max_improvement_factor_at_size(game, partition, m)
                    assert measured <= improvement_bound(alpha, q, m), (
                        game.alpha.kind, q, m, measured,
                    )
        assert stable_hits > 0
        print(f"  ({checked} games, {stable_hits} stable cases exercised)")


def test_criterion_06_greedy_pairing_stability():
    rng = random.Random(998877)
    with Budget("criterion 6 (1000-game greedy pairing suite)", 300.0):
        core_checked = 0
        for index in range(1000):
            n = rng.randint(2, 10)
            alpha = ALL_ALPHAS[index % len(ALL_ALPHAS)]
            game = random_game(
                rng, n, alpha, low=-5, high=5, denominators=(1, 2, 3, 4)
            )
            partition = greedy_pairing(game)
            assert is_size_stable(game, partition, 2).stable, (index, alpha.kind)
            if alpha in CORE_EXISTENCE_ALPHAS:
                core_checked += 1
                assert is_core_stable(game, partition).stable, (index, alpha.kind)
        assert core_checked >= 3 * 1000 // len(ALL_ALPHAS)
        print(f"  ({core_checked} core-existence checks)")


def test_criterion_07_search_agreement():
    tuples = [
        (FHG, 2, 3),
        (FHG, 2, 4),
        (FHG, 3, 4),
        (ASHG, 2, 3),
        (ASHG, 3, 4),
    ]
    with Budget("criterion 7 (search agrees with the bound)", 600.0):
        for alpha, q, m in tuples:
            f = improvement_bound(alpha, q, m)
            gamma = f - Fraction(1, 1000)
            problem = SearchProblem(
                alpha=alpha, stable_size=q, size=m, gamma=gamma,
                weight_bound=Fraction(10), baseline_bound=Fraction(10),
            )
            result = search_blocking_scenario(problem)
            assert result.verdict == FEASIBLE, (alpha.kind, q, m)
            scenario = result.scenario
            assert scenario_is_size_stable(scenario, q)
            assert min_improvement_factor(scenario) > gamma
            assert all(abs(w) <= 10 for row in scenario.weights for w in row)
            assert all(1 <= b <= 10 for b in scenario.baselines)

            at_bound = SearchProblem(
                alpha=alpha, stable_size=q, size=m, gamma=f,
                weight_bound=Fraction(10), baseline_bound=Fraction(10),
            )
            result = search_blocking_scenario(at_bound)
            assert result.verdict == INFEASIBLE_WITHIN_BOUNDS, (alpha.kind, q, m)

        for m in (3, 4, 5):
            problem = SearchProblem(
                alpha=MFHG, stable_size=2, size=m, gamma=Fraction(1),
                weight_bound=Fraction(10), baseline_bound=Fraction(10),
            )
            result = search_blocking_scenario(problem)
            assert result.verdict == INFEASIBLE_WITHIN_BOUNDS, ("mfhg", 2, m)


def _cpoa_value_at_most(result, bound) -> bool:
    if result.kind == RATIO:
        return result.value <= bound
    return result.kind != UNBOUNDED  # undefined counts as 1; empty sets vacuous


def test_criterion_08_cpoa_suites():
    rng = random.Random(424242)
    with Budget("criterion 8 (200-game price-of-anarchy suites)", 600.0):
        for index in range(200):
            n = rng.randint(3, 7)
            lane = index % 3
            if lane == 0:
                game = random_game(rng, n, FHG, low=-2, high=5)
                for q in (2, 3):
                    if q > n:
                        continue
                    result = size_cpoa(game, q)
                    assert _cpoa_value_at_most(result, 2 * fhg_improvement_limit(q)), (
                        index, q, result,
                    )
            elif lane == 1:
                game = random_game(rng, n, MFHG, low=-2, high=5)
                for q in range(2, n + 1):
                    result = size_cpoa(game, q)
                    assert _cpoa_value_at_most(result, Fraction(2)), (index, q, result)
            else:
                alpha = ALL_ALPHAS[index % len(ALL_ALPHAS)]
                game = random_game(rng, n, alpha, low=-2, high=5)
                for k in (Fraction(1), Fraction(3, 2), Fraction(2)):
                    result = improvement_cpoa(game, k)
                    assert _cpoa_value_at_most(result, 2 * k), (index, k, result)


def test_criterion_09_binary_fhg_triple_stability():
    rng = random.Random(31415926)
    bound_cache = {m: simple_fhg_bound(m) for m in range(4, 9)}
    with Budget("criterion 9 (300-game binary-weight suite)", 300.0):
        factor_hits = 0
        stable_hits = 0
        for _ in range(300):
            n = rng.randint(4, 8)
            game = random_game(rng, n, FHG, low=0, high=1)
            candidates = [random_partition(rng, n) for _ in range(3)]
            candidates.append(greedy_pairing(game))
            for partition in candidates:
                if not is_size_stable(game, partition, 3).stable:
                    continue
                stable_hits += 1
                positive = all(
                    partition_utility(game, partition, i) > 0 for i in range(n)
                )
                for m in range(4, n + 1):
                    if positive:
                        factor_hits += 1
                        assert (
                            max_improvement_factor_at_size(game, partition, m)
                            <= bound_cache[m]
                        )
                    # boolean form holds with no positivity requirement
                    assert is_size_factor_stable(
                        game, partition, m, bound_cache[m]
                    ).stable
        assert stable_hits > 0 and factor_hits > 0
        print(f"  ({stable_hits} stable cases, {factor_hits} factor checks)")


def test_criterion_10_lp_oracle():
    rng = random.Random(777)
    with Budget("criterion 10 (200 LPs vs vertex enumeration)", 60.0):
        optimal = 0
        infeasible = 0
        for index in range(200):
            lp = random_boxed_lp(rng, free_vars=bool(index % 2))
            got = solve(lp)
            want = enumerate_vertices_best(lp)
            if want is None:
                assert isinstance(got, Infeasible), index
                infeasible += 1
            else:
                assert isinstance(got, Optimal), index
                assert got.value == want, index
                lhs_ok = all(
                    _constraint_holds(c, got.assignment) for c in lp.constraints
                )
                assert lhs_ok, index
                optimal += 1
        assert optimal > 50 and infeasible > 10
        print(f"  ({optimal} optimal, {infeasible} infeasible)")


def _constraint_holds(constraint, assignment) -> bool:
    lhs = sum(
        (c * x for c, x in zip(constraint.coeffs, assignment)), Fraction(0)
    )
    return lhs <= constraint.rhs
