"""Every construction is stability-checked exhaustively and attains its
closed form exactly."""

import re
from fractions import Fraction

import pytest

from alphahg import (
    ASHG,
    FHG,
    MFHG,
    ODD_EVEN,
    AlphaFunction,
    DomainError,
    InvalidInputError,
    ashg_improvement_bound,
    build_construction,
    complete_graph_scenario,
    cycle_scenario,
    fhg_improvement_bound,
    fixture,
    improvement_bound,
    mantel_scenario,
    min_improvement_factor,
    scenario_is_size_stable,
    two_group_scenario,
    two_halves_scenario,
    two_valued_scenario,
)
from alphahg.generators import (
    CONSTRUCTION_NAMES,
    FIXTURE_NAMES,
    complete_graph_factor,
    fixture_path,
)


def assert_tight(scenario, stable_size, factor):
    assert scenario_is_size_stable(scenario, stable_size)
    assert min_improvement_factor(scenario) == factor


class TestCompleteGraph:
    def test_fhg_pair_case(self):
        scenario = complete_graph_scenario(FHG, 2, 3)
        assert scenario.weights[0][1] == 2
        assert_tight(scenario, 2, Fraction(4, 3))

    def test_fhg_divisible_case(self):
        assert_tight(complete_graph_scenario(FHG, 3, 5), 3, Fraction(6, 5))

    def test_mfhg_factor_one(self):
        assert_tight(complete_graph_scenario(MFHG, 2, 4), 2, Fraction(1))

    def test_attains_bound_on_divisible_grid(self):
        for alpha in (FHG, ASHG, MFHG):
            for q in range(2, 7):
                for m in range(q + 1, 10):
                    if (m - 1) % (q - 1):
                        continue
                    scenario = complete_graph_scenario(alpha, q, m)
                    factor = complete_graph_factor(alpha, q, m)
                    assert factor == improvement_bound(alpha, q, m)
                    assert_tight(scenario, q, factor)

    def test_requires_hospitable(self):
        with pytest.raises(DomainError):
            complete_graph_scenario(ODD_EVEN, 4, 5)


class TestTwoHalves:
    @pytest.mark.parametrize(
        "alpha,size,expected",
        [
            (FHG, 4, Fraction(5, 4)),
            (FHG, 6, Fraction(8, 6)),
            (ASHG, 6, Fraction(3)),
            (MFHG, 6, Fraction(1)),
        ],
    )
    def test_factors(self, alpha, size, expected):
        scenario = two_halves_scenario(alpha, size)
        assert expected == improvement_bound(alpha, 3, size)
        assert_tight(scenario, 3, expected)

    def test_ashg_weights(self):
        scenario = two_halves_scenario(ASHG, 6)
        assert scenario.weights[0][1] == 0  # same half
        assert scenario.weights[0][3] == 1  # across

    def test_odd_size_rejected(self):
        with pytest.raises(DomainError):
            two_halves_scenario(FHG, 5)


class TestCycle:
    def test_fhg_factors(self):
        assert_tight(cycle_scenario(FHG, 4), 4, Fraction(6, 5))
        assert_tight(cycle_scenario(FHG, 2), 2, Fraction(4, 3))

    def test_ashg_factor_two(self):
        assert_tight(cycle_scenario(ASHG, 5), 5, Fraction(2))

    def test_domain(self):
        # only the two classes it has closed forms for; a name is no class
        for alpha in (MFHG, ODD_EVEN, "fhg", None):
            with pytest.raises(InvalidInputError, match="variant must be 'fhg' or 'ashg'"):
                cycle_scenario(alpha, 3)
        with pytest.raises(DomainError, match="stable_size must be >= 2"):
            cycle_scenario(FHG, 1)

    def test_heavy_edges_form_a_cycle(self):
        scenario = cycle_scenario(FHG, 4)
        heavy = [
            (i, j)
            for i in range(5)
            for j in range(i + 1, 5)
            if scenario.weights[i][j] == 2
        ]
        assert len(heavy) == 5
        degree = [0] * 5
        for i, j in heavy:
            degree[i] += 1
            degree[j] += 1
        assert all(d == 2 for d in degree)


class TestTwoValued:
    @pytest.mark.parametrize(
        "size,expected",
        [(5, Fraction(6, 5)), (7, Fraction(8, 7)), (8, Fraction(10, 8))],
    )
    def test_factors(self, size, expected):
        assert expected == fhg_improvement_bound(4, size)
        assert_tight(two_valued_scenario(size), 4, expected)


class TestTwoGroup:
    @pytest.mark.parametrize(
        "size,expected",
        [(6, Fraction(2)), (7, Fraction(2)), (8, Fraction(3)), (9, Fraction(3))],
    )
    def test_factors(self, size, expected):
        assert expected == ashg_improvement_bound(4, size)
        assert_tight(two_group_scenario(size), 4, expected)

    def test_divisible_case_is_complete_graph(self):
        scenario = two_group_scenario(7)
        assert scenario == complete_graph_scenario(ASHG, 4, 7)

    def test_matching_structure(self):
        scenario = two_group_scenario(8)  # first group has 2 agents
        # each second-group agent has exactly one weight-1 partner inside
        for i in range(2, 8):
            partners = [
                j for j in range(2, 8) if j != i and scenario.weights[i][j] == 1
            ]
            assert len(partners) == 1


class TestMantel:
    @pytest.mark.parametrize(
        "size,expected",
        [(4, Fraction(5, 4)), (5, Fraction(6, 5)), (6, Fraction(8, 6))],
    )
    def test_factors(self, size, expected):
        assert expected == fhg_improvement_bound(3, size)
        assert_tight(mantel_scenario(size), 3, expected)

    def test_heavy_edges_triangle_free_and_extremal(self):
        for m in (4, 5, 6, 7):
            scenario = mantel_scenario(m)
            heavy = {
                (i, j)
                for i in range(m)
                for j in range(i + 1, m)
                if scenario.weights[i][j] == 2
            }
            assert len(heavy) == (m * m) // 4  # extremal triangle-free count
            for a, b in heavy:
                for c in range(m):
                    if c in (a, b):
                        continue
                    pair_ac = (min(a, c), max(a, c))
                    pair_bc = (min(b, c), max(b, c))
                    assert not (pair_ac in heavy and pair_bc in heavy)


class TestFixtures:
    @pytest.mark.parametrize(
        "name,size,factor",
        [
            ("fig6", 7, Fraction(8, 7)),
            ("fig7", 8, Fraction(9, 8)),
            ("fig8", 7, Fraction(2)),
            ("fig9", 8, Fraction(2)),
        ],
    )
    def test_tightness(self, name, size, factor):
        scenario = fixture(name)
        assert scenario.size == size
        assert_tight(scenario, 5, factor)
        bound = (
            fhg_improvement_bound(5, size)
            if scenario.alpha == FHG
            else ashg_improvement_bound(5, size)
        )
        assert factor == bound

    def test_fig6_geometry(self):
        scenario = fixture("fig6")
        heavy = sum(
            1
            for i in range(7)
            for j in range(i + 1, 7)
            if scenario.weights[i][j] == 2
        )
        assert heavy == 12  # a repeated drawn edge collapses to one

    def test_fig7_heavy_cycle(self):
        scenario = fixture("fig7")
        for i in range(8):
            assert scenario.weights[i][(i + 1) % 8] == 2
        assert scenario.weights[0][2] == 1

    def test_fig7_is_the_fhg_cycle_at_stable_size_7(self):
        # the same scenario under two claims: 9/8 at stable size 5 as a
        # fixture, and (q+2)/(q+1) = 9/8 at stable size 7 as the cycle
        fig7, cycle = build_construction("fig7"), build_construction("cycle", FHG, 7)
        assert fig7.scenario.weights == cycle.scenario.weights
        assert fig7.scenario.baselines == cycle.scenario.baselines
        assert fig7.scenario.alpha == cycle.scenario.alpha
        assert (fig7.stable_size, cycle.stable_size) == (5, 7)
        assert fig7.factor == cycle.factor == Fraction(9, 8)

    def test_fig8_baselines(self):
        scenario = fixture("fig8")
        assert scenario.baselines == (2, 2, 2, 1, 1, 1, 1)


class TestBuildConstruction:
    def test_dispatch(self):
        built = build_construction("cycle", alpha=FHG, stable_size=4)
        assert built.factor == Fraction(6, 5)
        assert built.stable_size == 4
        built = build_construction("fig8")
        assert built.factor == 2

    def test_missing_parameter(self):
        """Every construction reads exactly the arguments below: each one
        it reads, left out, is named as required, and each one it does
        not read, given, is named as not read."""
        reads = {
            "complete": dict(alpha=FHG, stable_size=2, size=5),
            "halves": dict(alpha=FHG, size=6),
            "cycle": dict(alpha=FHG, stable_size=4),
            "two-valued": dict(size=5),
            "two-group": dict(size=5),
            "mantel": dict(size=6),
            **{name: dict() for name in FIXTURE_NAMES},
        }
        assert tuple(reads) == CONSTRUCTION_NAMES
        unread = dict(alpha=ASHG, stable_size=3, size=6)
        for name, given in reads.items():
            build_construction(name, **given)
            for arg in unread:
                if arg in given:
                    others = {k: v for k, v in given.items() if k != arg}
                    message = f"^construction '{name}' requires {arg}$"
                else:
                    others = {**given, arg: unread[arg]}
                    message = f"^construction '{name}' does not read {arg}$"
                with pytest.raises(InvalidInputError, match=message):
                    build_construction(name, **others)

    def test_factor_matches_measurement_everywhere(self):
        """The one claim rule: every construction's factor is
        ``improvement_bound`` for its alpha and sizes, except the complete
        graph's when q - 1 does not divide m - 1, which is below it
        (MFHG's factor and bound are both 1 there)."""
        # (built, whether its claim is strictly below the bound)
        cases = [
            (
                build_construction("complete", alpha=alpha, stable_size=q, size=m),
                (m - 1) % (q - 1) != 0 and alpha != MFHG,
            )
            for alpha in (FHG, ASHG, MFHG)
            for q in range(2, 6)
            for m in range(q + 1, 10)
        ]
        others = [
            build_construction("halves", alpha=alpha, size=m)
            for alpha in (FHG, ASHG, MFHG)
            for m in range(4, 11, 2)
        ]
        others += [
            build_construction("cycle", alpha=alpha, stable_size=q)
            for q in range(2, 7)
            for alpha in (FHG, ASHG)
        ]
        others += [
            build_construction(name, size=m)
            for name in ("two-valued", "two-group")
            for m in range(5, 13)
        ]
        others += [build_construction("mantel", size=m) for m in range(4, 13)]
        others += [build_construction(name) for name in FIXTURE_NAMES]
        cases += [(built, False) for built in others]
        for built, below in cases:
            scenario, q = built.scenario, built.stable_size
            assert scenario_is_size_stable(scenario, q)
            assert min_improvement_factor(scenario) == built.factor
            bound = improvement_bound(scenario.alpha, q, scenario.size)
            assert built.factor < bound if below else built.factor == bound


class TestFactorDomains:
    """``complete_graph_factor`` admits exactly its construction's domain."""

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda: complete_graph_factor(FHG, 1, 4), DomainError),
            (lambda: complete_graph_factor(FHG, 5, 3), DomainError),
            (lambda: complete_graph_factor(ODD_EVEN, 4, 5), DomainError),
        ],
    )
    def test_factor_refuses_what_its_scenario_refuses(self, call, error):
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("call,error,message", [
    # alpha(3) * 2 < alpha(2): a size-3 block loses too much weight
    (lambda: two_halves_scenario(AlphaFunction.from_table([1, 1, "1/10", "1/10"]), 4),
     DomainError, "two_halves_scenario requires a hospitable alpha"),
    (lambda: two_valued_scenario(4), DomainError, "size must be >= 5"),
    (lambda: two_group_scenario(4), DomainError, "size must be >= 5"),
    (lambda: mantel_scenario(3), DomainError, "size must be >= 4"),
    (lambda: fixture_path("fig5"), InvalidInputError, "unknown fixture 'fig5'"),
], ids=["two halves", "two valued", "two group", "mantel", "fixture path"])
def test_construction_refusals(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
