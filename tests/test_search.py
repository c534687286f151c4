"""Feasibility search: witness LPs, verdicts, and certificates."""

import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import lcm

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
    Constraint,
    InvalidInputError,
    Optimal,
    ResourceLimitError,
    Scenario,
    SearchProblem,
    improvement_bound,
    min_improvement_factor,
    scenario_is_size_stable,
    search_blocking_scenario,
    solve,
    witness_system_lp,
)
from alphahg import lp as lp_module
from alphahg import search as search_module
from alphahg.lp import LinearProgram, satisfies
from alphahg.search import (
    BUDGET_EXHAUSTED,
    FEASIBLE,
    INFEASIBLE_WITHIN_BOUNDS,
    _Rows,
    _certificate_ok,
)
from reference_lp import dual_certifies, reference_solve
from reference_search import reference_search, unordered_witness_system_lp


@pytest.fixture(autouse=True)
def node_lp_check(request, monkeypatch):
    """Every node LP that a search in this module solves is checked
    without the integer tableau.  A cold solve must equal the Fraction
    simplex that the integer tableau replaced (``reference_solve``),
    value and point included.  A warm solve (with a ``start``)
    re-optimises its parent's optimum by the dual simplex, so it may
    reach another optimal point; it is checked by duality instead, in
    plain Fraction sums: its point is feasible and attains its value,
    and its dual multipliers (``Optimal.dual``) bound the maximum by
    that value.  Returns the number of node LPs checked so far.  The
    slow tier is left out, and so are ``TestWarmNodesAgainstColdSolves``,
    which checks every node against the cold integer solve itself, and
    ``TestTreeSizes``, ``TestStoredNogoods`` and ``TestSlackUnit``, which
    search trees that other tests check."""
    checked = [0]
    if request.node.get_closest_marker("slow") or request.cls in (
        TestWarmNodesAgainstColdSolves,
        TestTreeSizes,
        TestStoredNogoods,
        TestSlackUnit,
    ):
        return checked
    integer_solve = search_module.solve

    def solve_and_check(lp, start=None):
        result = integer_solve(lp, start)
        if start is None:
            assert isinstance(result, Optimal), lp
            assert (result.value, result.assignment) == reference_solve(lp), lp
        else:
            # a node LP starts feasible and is box-bounded
            assert isinstance(result, Optimal), lp
            assert satisfies(lp, result.assignment), lp
            assert result.value == sum(
                (c * x for c, x in zip(lp.objective, result.assignment)), Fraction(0)
            ), lp
            assert dual_certifies(lp, result.dual(), result.value), lp
        checked[0] += 1
        return result

    monkeypatch.setattr(search_module, "solve", solve_and_check)
    return checked


def problem(alpha, q, m, gamma, B=10, U=10, **kw):
    return SearchProblem(
        alpha=alpha,
        stable_size=q,
        size=m,
        gamma=Fraction(gamma),
        weight_bound=Fraction(B),
        baseline_bound=Fraction(U),
        **kw,
    )


class TestWitnessSystemLp:
    def test_empty_assignment_has_positive_slack(self):
        lp = witness_system_lp(problem(FHG, 2, 3, 1), ())
        result = solve(lp)
        assert isinstance(result, Optimal)
        assert result.value > 0
        assert satisfies(lp, result.assignment)

    def test_huge_gamma_kills_slack(self):
        # improvement beyond the box is impossible: slack must go negative
        lp = witness_system_lp(problem(FHG, 2, 3, 1000), [((0, 1), 0)])
        result = solve(lp)
        assert isinstance(result, Optimal)
        assert result.value <= 0

    def test_tight_point_is_feasible_below_bound(self):
        # the complete-graph certificate satisfies the fully-assigned
        # system at any gamma below 4/3
        p = problem(FHG, 2, 3, Fraction(13, 10))
        lp = witness_system_lp(p, [((0, 1), 0), ((0, 2), 0), ((1, 2), 1)])
        result = solve(lp)
        assert isinstance(result, Optimal)
        assert result.value > 0
        # plug in the known tight scenario: weights 2, baselines 1 (the
        # differences d_0 = d_1 = 0 and b_2 = 1), slack = 4/3 - 13/10
        assert lp.names == ("w_0_1", "w_0_2", "w_1_2", "d_0", "d_1", "b_2", "slack")
        zero, one = Fraction(0), Fraction(1)
        point = [Fraction(2)] * 3 + [zero, zero, one, Fraction(4, 3) - Fraction(13, 10)]
        assert satisfies(lp, point)

    @pytest.mark.parametrize(
        "mapping",
        [
            {(0, 1): 3},  # witness outside its subset
            {(0,): 0},  # singleton subset
            {(0, 1): 9},  # witness outside the game
            {(0, 9): 9},  # subset member outside the game
            {(-1, 0): 0},  # negative subset member
            {(0, 0, 1): 1},  # repeated subset member
            {(0, True): 0},  # bool subset member
            {(0, 1): 5},  # witness outside its subset and the game
            {(0, 1): 0, (1, 0): 1},  # one subset twice once sorted
            {(0, 1): True},  # bool witness
            {("0", 1): 1},  # str subset member
        ],
    )
    def test_plain_mapping_is_admitted(self, mapping):
        # the same table as a mapping, whose entries are its keys, and as
        # a path of its items
        for path in (mapping, list(mapping.items())):
            with pytest.raises(InvalidInputError):
                witness_system_lp(problem(FHG, 2, 4, 1), path)

    @pytest.mark.parametrize(
        "path",
        [
            [((0, 1),)],  # a subset without its witness
            [5],  # an entry that is not a pair
            [(5, 0)],  # a subset that is not iterable
            None,  # no path at all
            [((0, 1), 0, 1)],  # three items
        ],
        ids=repr,
    )
    def test_malformed_path_is_refused(self, path):
        named = repr(path if path is None else path[0])
        with pytest.raises(InvalidInputError, match=re.escape(named)):
            witness_system_lp(problem(FHG, 2, 4, 1), path)

    def test_fixed_rows_then_witness_rows_in_path_order(self):
        p = problem(TABLE_ALPHA, 3, 4, 1)
        fixed = witness_system_lp(p, ()).constraints
        path = [((0, 1, 2), 2), ((1, 3), 3), ((0, 1), 0)]  # not in (size, lex) order
        lp = witness_system_lp(p, path)

        def cap(subset, witness):
            # alpha(|S|) * sum_{j in S} w_witness,j - b_witness <= 0, as
            # its least integer multiple: times den(alpha(|S|))
            alpha = TABLE_ALPHA.value(len(subset))
            coeffs = [0] * len(lp.names)
            for j in subset:
                if j != witness:
                    pair = f"w_{min(witness, j)}_{max(witness, j)}"
                    coeffs[lp.names.index(pair)] = alpha.numerator
            for column in _baseline_columns(lp, p.size, witness):
                coeffs[column] = -alpha.denominator
            return Constraint(tuple(coeffs), 0)

        assert lp.constraints == fixed + tuple(cap(*step) for step in path)
        # the fixed rows end with the pair rows, in pair order: the cap of
        # each pair's first member; q = 1 has none
        pairs = list(combinations(range(p.size), 2))
        assert fixed[-len(pairs):] == tuple(cap(pair, pair[0]) for pair in pairs)
        lone = witness_system_lp(problem(TABLE_ALPHA, 1, 4, 1), ()).constraints
        assert lone == fixed[:-len(pairs)]
        # an unsorted member tuple builds the same row as the sorted one
        unsorted = [((2, 0, 1), 2), ((3, 1), 3), ((1, 0), 0)]
        assert witness_system_lp(p, unsorted) == lp

    def test_problem_validation(self):
        from alphahg import InvalidInputError

        with pytest.raises(InvalidInputError):
            problem(FHG, 2, 2, 1)  # size must exceed stable_size
        with pytest.raises(InvalidInputError):
            problem(FHG, 2, 3, Fraction(1, 2))  # gamma below 1
        with pytest.raises(InvalidInputError):
            problem(FHG, 2, 3, 1, B=0)
        with pytest.raises(InvalidInputError):
            problem(FHG, 2, 3, 1, U=Fraction(1, 2))

    def test_stable_size_below_one_refused(self):
        # at size 2, no later check would refuse stable_size 0
        with pytest.raises(InvalidInputError, match="stable_size must be >= 1"):
            SearchProblem(FHG, 0, 2, 1)


def _baseline_columns(lp, m, agent):
    """The LP columns whose sum is agent's baseline: the differences
    ``d_agent .. d_{m-2}`` and ``b_{m-1}``."""
    names = [f"d_{k}" for k in range(agent, m - 1)] + [f"b_{m - 1}"]
    return [lp.names.index(name) for name in names]


TABLE_ALPHA = AlphaFunction.from_table(
    [0, Fraction(3, 4), Fraction(2, 5), Fraction(7, 3), Fraction(1, 6)]
)
BOXES = ((10, 10), (Fraction(1, 2), 1), (Fraction(1, 2), 3), (2, 1), (Fraction(7, 3), Fraction(5, 2)))


def _slack_unit(p):
    """``L = lcm(den(alpha(m)), den(gamma))``: ``witness_system_lp``
    counts the slack in units of ``1 / L``, so its slack column is ``s =
    L * slack``."""
    return lcm(p.alpha.value(p.size).denominator, p.gamma.denominator)


def _rational_rows(p, lp, path):
    """The rows that ``witness_system_lp``'s docstring defines, written
    from alpha in Fractions: the full-coalition rows, over the slack
    column ``s = L * slack`` (:func:`_slack_unit`), ``w <= B`` per pair,
    ``b_0 <= U``, the pair rows when ``q >= 2``, then one witness row per
    entry of ``path``."""
    m, width = p.size, len(lp.names)

    def weight(i, j):
        return lp.names.index(f"w_{min(i, j)}_{max(i, j)}")

    def agent_row(members, agent, full=False):
        alpha = p.alpha.value(len(members))
        coeffs = [Fraction(0)] * width
        for j in members:
            if j != agent:
                coeffs[weight(agent, j)] = -alpha if full else alpha
        for column in _baseline_columns(lp, m, agent):
            coeffs[column] = p.gamma if full else Fraction(-1)
        if full:
            coeffs[lp.names.index("slack")] = Fraction(1, _slack_unit(p))
        return coeffs, Fraction(0)

    def unit(columns, rhs):
        coeffs = [Fraction(0)] * width
        for column in columns:
            coeffs[column] = Fraction(1)
        return coeffs, rhs

    pairs = list(combinations(range(m), 2))
    rows = [agent_row(range(m), agent, full=True) for agent in range(m)]
    rows += [unit([weight(*pair)], p.weight_bound) for pair in pairs]
    rows.append(unit(_baseline_columns(lp, m, 0), p.baseline_bound))
    if p.stable_size >= 2:
        rows += [agent_row(pair, pair[0]) for pair in pairs]
    rows += [agent_row(sorted(subset), agent) for subset, agent in path]
    return rows


def _least_multiple(coeffs, rhs):
    """A rational row times the LCM of its denominators, and that LCM."""
    scale = lcm(*(x.denominator for x in (*coeffs, rhs)))
    return Constraint(tuple(x * scale for x in coeffs), rhs * scale), scale


def _over_the_slack_itself(p, lp):
    """``lp``, a witness LP over ``s = L * slack``, written over the
    slack itself: its slack column times ``L`` (:func:`_slack_unit`) and
    the slack's lower bound over ``L``.  An integer full-coalition row
    ``(-L * alpha(m), L * gamma, 1)`` becomes ``(-L * alpha(m), L * gamma,
    L)``, still its least integer multiple."""
    unit = _slack_unit(p)
    return LinearProgram(
        names=lp.names,
        constraints=tuple(Constraint(c[:-1] + (c[-1] * unit,), rhs) for c, rhs in lp.constraints),
        objective=lp.objective,
        lower=lp.lower[:-1] + (Fraction(lp.lower[-1], unit),),
    )


def _rational_statement(p, lp, path):
    """``lp`` with each row divided back by its scale and written over
    the slack itself (:func:`_over_the_slack_itself`): the rows written
    from alpha, the objective and the lower bounds in Fractions."""
    rational = LinearProgram(
        names=lp.names,
        constraints=tuple(_rational_rows(p, lp, path)),
        objective=tuple(map(Fraction, lp.objective)),
        lower=tuple(map(Fraction, lp.lower)),
    )
    return _over_the_slack_itself(p, rational)


INTEGER_ROW_ALPHAS = (FHG, ASHG, MFHG, ODD_EVEN, PAIRWISE_COMM, TABLE_ALPHA)


class TestIntegerRows:
    """``witness_system_lp`` writes every row over the integers: the
    least integer multiple of the row its docstring defines, over the
    slack column ``s = L * slack``.  Scaling a row or a column by a
    positive factor changes no pivot, so the integer statement and the
    rational one over the slack itself take the same pivots to the same
    optimum, with the slack coordinate, the value and the dual ``L``
    times the rational one's."""

    @pytest.mark.parametrize("alpha", INTEGER_ROW_ALPHAS, ids=lambda a: a.kind)
    @pytest.mark.parametrize(
        "gamma,B,U",
        [
            (1, 10, 10),
            (2, 3, 1),
            (Fraction(6, 5), Fraction(7, 3), Fraction(5, 2)),
            (Fraction(13, 10), Fraction(1, 2), 3),
            (Fraction(5, 4), 9, Fraction(11, 3)),
        ],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_rows_are_least_integer_multiples(self, alpha, gamma, B, U, seed):
        rng = random.Random(seed)
        q = rng.randint(1, 4)
        m = rng.randint(q + 1, 5)
        subsets = [c for s in range(2, m + 1) for c in combinations(range(m), s)]
        chosen = rng.sample(subsets, rng.randint(0, min(5, len(subsets))))
        path = [(S, rng.choice(S)) for S in chosen]
        p = problem(alpha, q, m, gamma, B, U)
        lp = witness_system_lp(p, path)
        rows = _rational_rows(p, lp, path)
        assert len(rows) == len(lp.constraints)
        for row, written in zip(rows, lp.constraints):
            assert all(type(x) is int for x in (*written.coeffs, written.rhs)), written
            assert written == _least_multiple(*row)[0]
        assert all(type(x) is int for x in lp.objective)
        assert lp.objective == tuple(int(name == "slack") for name in lp.names)

    @pytest.mark.parametrize(
        "alpha,q,m,gamma,B,U",
        [
            (FHG, 3, 4, Fraction(5, 4), 10, 10),
            (FHG, 3, 4, Fraction(6, 5), Fraction(7, 3), Fraction(5, 2)),
            (TABLE_ALPHA, 3, 5, Fraction(9, 7), Fraction(1, 2), 3),
            (ODD_EVEN, 4, 5, 1, 9, Fraction(11, 3)),
            (PAIRWISE_COMM, 2, 4, Fraction(3, 2), 2, 1),
        ],
    )
    def test_same_pivots_as_the_rational_statement(
        self, monkeypatch, alpha, q, m, gamma, B, U
    ):
        pivots = []
        pivot = lp_module._Tableau.pivot

        def logged(tab, r, c):
            pivots.append((r, c))
            pivot(tab, r, c)

        monkeypatch.setattr(lp_module._Tableau, "pivot", logged)
        p = problem(alpha, q, m, gamma, B, U)
        subsets = [c for s in range(2, m + 1) for c in combinations(range(m), s)]
        path = [(S, S[-1]) for S in subsets[-3:]]
        unit = _slack_unit(p)
        results = {}
        for stated in ("int", "rational"):
            lps = [witness_system_lp(p, path[:k]) for k in range(len(path) + 1)]
            if stated == "rational":
                lps = [_rational_statement(p, lp, path[:k]) for k, lp in enumerate(lps)]
            solved, start = [], None
            for lp in lps:
                for warm in (None, start):
                    pivots.clear()
                    result = solve(lp, warm)
                    solved.append((result, pivots[:]))
                start = result
            results[stated] = lps, solved
        (_, integer), (rational_lps, rational) = results["int"], results["rational"]
        assert len(integer) == len(rational) == 2 * len(rational_lps)
        for k, ((a, a_pivots), (b, b_pivots)) in enumerate(zip(integer, rational)):
            assert a_pivots == b_pivots
            # the integer statement's slack column is L times the slack
            assert a.value == unit * b.value
            assert a.assignment == b.assignment[:-1] + (unit * b.assignment[-1],)
            assert [bool(x) for x in a.row_prices()] == [bool(x) for x in b.row_prices()]
            # dual() gives multipliers of the rows it solved: the integer
            # row's times its scale is the rational row's over s, which
            # is L times the rational row's over the slack itself (its
            # scale is the same: a full row's is L either way)
            rows = rational_lps[k // 2].constraints
            scales = [_least_multiple(*row)[1] for row in rows]
            assert [y * scale for y, scale in zip(a.dual(), scales)] == [
                unit * y for y in b.dual()
            ]


SLACK_UNIT_CASES = [
    (alpha, q, m, below)
    for alpha in (FHG, ASHG, MFHG)
    for q in (2, 3)
    for m in range(q + 1, 6)
    for below in (0, Fraction(1, 1000))
    if improvement_bound(alpha, q, m) - below >= 1
]


class TestSlackUnit:
    """The witness LP counts its slack in units of ``1 / L``, so its
    full-coalition rows have slack coefficient 1.  A positive column
    scale changes no pivot, so the search takes the same pivots to the
    same verdict and certificate as over the slack itself, where that
    coefficient is ``L``; only the denominator of a basis that holds the
    slack is ``L`` times smaller."""

    @pytest.mark.parametrize("alpha", [FHG, ASHG], ids=lambda a: a.kind)
    @pytest.mark.parametrize("q,m", [(2, 3), (2, 5), (3, 4), (3, 5)])
    def test_cold_root_first_pivot_is_one_over_one(self, monkeypatch, alpha, q, m):
        p = problem(alpha, q, m, improvement_bound(alpha, q, m) - Fraction(1, 1000))
        assert _slack_unit(p) > 1
        taken = []
        pivot = lp_module._Tableau.pivot

        def logged(tab, r, c):
            taken.append((tab.rows[r][c], tab.d, tab.nonbasic[c], tab.basis[r]))
            pivot(tab, r, c)

        monkeypatch.setattr(lp_module._Tableau, "pivot", logged)
        assert search_blocking_scenario(p).verdict == FEASIBLE
        # the slack (the last column) enters on the first full-coalition
        # row (the first row slack's label) at p == d == 1
        n = len(witness_system_lp(p, ()).names)
        assert taken[0] == (1, 1, n - 1, n)

    @pytest.mark.parametrize(
        "alpha,q,m,below",
        SLACK_UNIT_CASES,
        ids=[f"{a.kind}-q{q}-m{m}-{'below' if b else 'bound'}" for a, q, m, b in SLACK_UNIT_CASES],
    )
    def test_same_search_over_the_slack_itself(self, monkeypatch, alpha, q, m, below):
        p = problem(alpha, q, m, improvement_bound(alpha, q, m) - below, node_limit=10_000)
        unit, slack = _slack_unit(p), len(witness_system_lp(p, ()).names) - 1
        pivot, integer_solve = lp_module._Tableau.pivot, search_module.solve
        runs = {}
        for stated in ("s", "slack"):
            pivots, optima = [], []

            def logged(tab, r, c):
                pivots.append((r, c))
                pivot(tab, r, c)

            def solve_and_log(lp, start=None):
                result = integer_solve(lp, start)
                optima.append((result._tab.d, slack in result._tab.basis))
                return result

            monkeypatch.setattr(lp_module._Tableau, "pivot", logged)
            monkeypatch.setattr(search_module, "solve", solve_and_log)
            if stated == "slack":

                def over_the_slack_itself(given, path):
                    return _over_the_slack_itself(given, witness_system_lp(given, path))

                monkeypatch.setattr(search_module, "witness_system_lp", over_the_slack_itself)
            result = search_blocking_scenario(p)
            runs[stated] = (
                (result.verdict, result.nodes_explored, result.lps_solved, result.scenario),
                pivots,
                optima,
            )
        (found, pivots, optima), over_slack = runs["s"], runs["slack"]
        assert found[0] == (FEASIBLE if below else INFEASIBLE_WITHIN_BOUNDS)
        assert (found, pivots) == over_slack[:2]
        # a basis that holds the slack has a denominator L times larger
        # over the slack itself; one that does not, the same
        assert [basic for _, basic in optima] == [basic for _, basic in over_slack[2]]
        assert any(basic for _, basic in optima)
        for (d, basic), (slack_d, _) in zip(optima, over_slack[2]):
            assert slack_d == (unit * d if basic else d)


def _random_witness_problem(rng):
    """A problem and a random partial witness assignment."""
    alpha = rng.choice([FHG, ASHG, MFHG, TABLE_ALPHA])
    q = rng.randint(2, 3)
    m = rng.randint(q + 1, 5)
    B, U = rng.choice(BOXES)
    gamma = 1 + Fraction(rng.randint(0, 20), rng.choice((1, 2, 3, 7)))
    subsets = [c for s in range(2, q + 1) for c in combinations(range(m), s)]
    chosen = rng.sample(subsets, rng.randint(0, min(len(subsets), 6)))
    return problem(alpha, q, m, gamma, B, U), {S: rng.choice(S) for S in chosen}


def _meets_definition(p, assignment, weights, baselines, slack):
    """The witness system written out from alpha and the weights: every
    assigned witness is capped at their baseline, and so, when ``q >=
    2``, is the first member of every pair (the pair row that the order
    forces), every agent's full-coalition utility is at least gamma *
    baseline + slack, the weights and baselines lie in the box, the
    baselines are ordered ``b_0 >= ... >= b_{m-1}``, and the slack is at
    least its documented floor."""
    m, a = p.size, p.alpha.value
    B, U = p.weight_bound, p.baseline_bound
    caps = all(
        a(len(S)) * sum(weights[w][j] for j in S) <= baselines[w] for S, w in assignment.items()
    )
    caps = caps and (
        p.stable_size < 2
        or all(a(2) * weights[i][j] <= baselines[i] for i, j in combinations(range(m), 2))
    )
    full = all(a(m) * sum(weights[i]) >= p.gamma * baselines[i] + slack for i in range(m))
    box = all(abs(x) <= B for row in weights for x in row) and all(1 <= b <= U for b in baselines)
    ordered = all(baselines[i] >= baselines[i + 1] for i in range(m - 1))
    return caps and full and box and ordered and slack >= -(p.gamma + a(m) * (m - 1) * B)


def _random_point(rng, p, assignment):
    """Weights and baselines inside the box or on its faces, the baselines
    ordered and often tied; most pair rows met, some made tight; most
    witness caps met, some made tight or missed by 1/1000 (by moving one
    of the witness's weights); the full-coalition rows tight, met or
    just missed; at times one coordinate just outside the box, two
    baselines out of order by 1/1000, or the slack on its floor."""
    m, a = p.size, p.alpha.value
    B, U = p.weight_bound, p.baseline_bound
    eps = Fraction(1, 1000)

    def inside(lo, hi):
        if rng.random() < 0.3:
            return rng.choice((lo, hi))
        return lo + (hi - lo) * Fraction(rng.randint(0, 60), 60)

    weights = [[Fraction(0)] * m for _ in range(m)]
    for i, j in combinations(range(m), 2):
        weights[i][j] = weights[j][i] = inside(-B, B)
    baselines = sorted((inside(Fraction(1), U) for _ in range(m)), reverse=True)
    for i, j in combinations(range(m), 2):
        # the weight at which i's pair row is tight
        tight = baselines[i] / a(2)
        if weights[i][j] > tight and rng.random() < 0.9:
            target = tight - rng.choice((0, inside(Fraction(0), B)))
            if -B <= target <= B:
                weights[i][j] = weights[j][i] = target
    for S, w in assignment.items():
        j = rng.choice([x for x in S if x != w])
        others = sum(weights[w][x] for x in S if x != j)
        # the weight w_wj at which w's cap in S is tight
        tight = baselines[w] / a(len(S)) - others
        if rng.random() < 0.5:
            target = tight + rng.choice((0, 0, eps, -eps))
        elif weights[w][j] > tight:
            target = tight - inside(Fraction(0), B)
        else:
            continue
        if -B <= target <= B:
            weights[w][j] = weights[j][w] = target
    luck = rng.random()
    if luck < 0.15:
        i, j = rng.sample(range(m), 2)
        weights[i][j] = weights[j][i] = rng.choice((-B - eps, B + eps))
    elif luck < 0.3:
        if rng.random() < 0.5:
            baselines[-1] = 1 - eps
        else:
            baselines[0] = U + eps
    elif luck < 0.4:
        i = rng.randrange(m - 1)
        baselines[i + 1] = baselines[i] + eps
    slack = min(a(m) * sum(weights[i]) - p.gamma * baselines[i] for i in range(m))
    slack += rng.choice((0, 0, eps, -eps, -1))
    if rng.random() < 0.1:
        slack = -(p.gamma + a(m) * (m - 1) * B) + rng.choice((0, -eps))
    return weights, baselines, slack


def _lp_point(lp, weights, baselines, slack):
    """The point in the LP's variable order, read from its names: the
    baselines as differences ``d_i = b_i - b_{i+1}``, then ``b_{m-1}``."""
    point = []
    for name in lp.names:
        kind, *index = name.split("_")
        if kind == "w":
            point.append(weights[int(index[0])][int(index[1])])
        elif kind == "d":
            i = int(index[0])
            point.append(baselines[i] - baselines[i + 1])
        elif kind == "b":
            assert int(index[0]) == len(baselines) - 1
            point.append(baselines[-1])
        else:
            assert name == "slack"
            point.append(slack)
    return point


class TestWitnessSystemLpDefinition:
    """The search and the m = 4 oracle both solve ``witness_system_lp``;
    here it is pinned against the system it stands for."""

    def test_feasible_points_are_exactly_the_definitions(self):
        rng = random.Random(31337)
        outcomes = {True: 0, False: 0}
        tight = pair_tight = 0
        for _ in range(200):
            p, assignment = _random_witness_problem(rng)
            lp = witness_system_lp(p, assignment.items())
            for _ in range(20):
                weights, baselines, slack = _random_point(rng, p, assignment)
                want = _meets_definition(p, assignment, weights, baselines, slack)
                # the LP's slack column is L * slack
                point = _lp_point(lp, weights, baselines, _slack_unit(p) * slack)
                assert satisfies(lp, point) == want
                outcomes[want] += 1
                tight += want and any(
                    p.alpha.value(len(S)) * sum(weights[w][j] for j in S) == baselines[w]
                    for S, w in assignment.items()
                )
                pair_tight += want and any(
                    p.alpha.value(2) * weights[i][j] == baselines[i]
                    for i, j in combinations(range(p.size), 2)
                )
        # both answers are common, and exact ties on a witness cap and on
        # a pair row occur
        assert min(outcomes.values()) >= 500 and min(tight, pair_tight) >= 60, (
            outcomes,
            tight,
            pair_tight,
        )

    def test_lower_bounds_satisfy_every_node_lp(self):
        # so each node LP starts feasible at its bounds: its dual phase
        # makes no pivot
        rng = random.Random(31338)
        for _ in range(200):
            p, assignment = _random_witness_problem(rng)
            lp = witness_system_lp(p, assignment.items())
            assert satisfies(lp, lp.lower)

    def test_slack_floor_cuts_off_no_optimum(self):
        rng = random.Random(31339)
        for _ in range(40):
            p, assignment = _random_witness_problem(rng)
            lp = witness_system_lp(p, assignment.items())
            free = replace(lp, lower=lp.lower[:-1] + (None,))
            assert solve(lp).value == solve(free).value

    def test_row_order_never_changes_the_optimum(self):
        # a path and its reverse: the same rows in another order
        rng = random.Random(31340)
        for _ in range(200):
            p, assignment = _random_witness_problem(rng)
            path = list(assignment.items())
            lp = witness_system_lp(p, path)
            reverse = witness_system_lp(p, path[::-1])
            assert solve(lp).value == solve(reverse).value
            for _ in range(10):
                point = _lp_point(lp, *_random_point(rng, p, assignment))
                assert satisfies(lp, point) == satisfies(reverse, point)


class TestPairRows:
    """Under the baseline order a pair needs no branch: for ``i < j``,
    "{i, j} does not block" is the one fixed row ``alpha(2) * w_ij <=
    b_i``.  So the search never branches on a pair, and q = 2 is one LP."""

    @pytest.mark.parametrize("alpha", [FHG, ASHG, MFHG, PAIRWISE_COMM, ODD_EVEN, TABLE_ALPHA])
    def test_a_pair_does_not_block_iff_its_row_holds(self, alpha):
        rng = random.Random(2357)
        p = problem(alpha, 2, 5, 1)
        m, a2, eps = p.size, alpha.value(2), Fraction(1, 1000)
        lp = witness_system_lp(p, ())
        # each pair's row is the witness row of its first member, and a
        # fixed row
        rows = {}
        for pair in combinations(range(m), 2):
            rows[pair] = witness_system_lp(p, [(pair, pair[0])]).constraints[-1]
            assert rows[pair] in lp.constraints
        seen = {"blocks": 0, "only j improves": 0, "neither improves": 0}
        for _ in range(100):
            # ordered baselines, often tied; each weight near one
            # member's threshold, or anywhere
            draws = (1 + Fraction(rng.randint(0, 12), 4) for _ in range(m))
            baselines = sorted(draws, reverse=True)
            weights = [[Fraction(0)] * m for _ in range(m)]
            for i, j in rows:
                near = baselines[rng.choice((i, j))] / a2
                shift = rng.choice((0, eps, -eps, Fraction(rng.randint(-40, 40), 4)))
                weights[i][j] = weights[j][i] = near + shift
            point = _lp_point(lp, weights, baselines, Fraction(0))
            for (i, j), (coeffs, rhs) in rows.items():
                holds = sum(c * x for c, x in zip(coeffs, point)) <= rhs
                alone = Scenario.from_pairs(
                    alpha, 2, lambda *_: weights[i][j], (baselines[i], baselines[j])
                )
                assert holds == scenario_is_size_stable(alone, 2), (i, j, weights[i][j])
                if not holds:
                    seen["blocks"] += 1
                elif a2 * weights[i][j] > baselines[j]:
                    seen["only j improves"] += 1
                else:
                    seen["neither improves"] += 1
        # the case a witness-j row would refute and the pair row admits
        # is common
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize(
        "alpha,q,m,below",
        [
            (FHG, 3, 5, 0),
            (ASHG, 3, 4, 0),
            (ASHG, 4, 5, Fraction(1, 1000)),
            (FHG, 5, 7, Fraction(1, 1000)),
            (TABLE_ALPHA, 3, 4, 0),
        ],
    )
    def test_the_search_appends_no_row_for_a_pair(self, monkeypatch, alpha, q, m, below):
        p = problem(alpha, q, m, improvement_bound(alpha, q, m) - below)
        fixed = len(witness_system_lp(p, ()).constraints)
        num_pairs = m * (m - 1) // 2
        appended = []
        checked_solve = search_module.solve

        def recording(lp, start=None):
            appended.extend(lp.constraints[fixed:])
            return checked_solve(lp, start)

        monkeypatch.setattr(search_module, "solve", recording)
        result = search_blocking_scenario(p)
        assert result.verdict == (FEASIBLE if below else INFEASIBLE_WITHIN_BOUNDS)
        assert appended
        # a witness row of an s-subset weighs s - 1 pairs
        assert all(sum(1 for c in coeffs[:num_pairs] if c) >= 2 for coeffs, _ in appended)

    @pytest.mark.parametrize("alpha", [FHG, ASHG, MFHG])
    @pytest.mark.parametrize("m", range(3, 10))
    def test_q2_is_one_lp(self, node_lp_check, alpha, m):
        f = improvement_bound(alpha, 2, m)
        for gamma in _bound_gammas(alpha, 2, m):
            p = problem(alpha, 2, m, gamma, node_limit=None)
            checked = node_lp_check[0]
            result = search_blocking_scenario(p)
            assert (result.nodes_explored, result.lps_solved) == (1, 1), gamma
            assert node_lp_check[0] == checked + 1
            if gamma == f:
                assert result.verdict == INFEASIBLE_WITHIN_BOUNDS
            else:
                assert result.verdict == FEASIBLE, gamma
                assert _certificate_ok(p, result.scenario)


class TestCertificateBox:
    """``_certificate_ok`` holds a candidate to the box ``|w| <= B``, ``1
    <= b <= U`` exactly: a bound met is accepted, and one passed by
    ``10^-9`` is refused."""

    EPS = Fraction(1, 10**9)

    @staticmethod
    def candidate(low=-10, top=10):
        # a certificate of ASHG q = 3, m = 4 at gamma 1999/1000 in the box
        # B = U = 10: weights 10 and -10, and baselines 10 and 9990/1999
        weights = {(0, 1): 0, (2, 3): low}
        b = Fraction(9990, 1999)
        return Scenario.from_pairs(
            ASHG, 4, lambda i, j: Fraction(weights.get((i, j), 10)), [Fraction(top), 10, b, b]
        )

    def test_bounds_met_exactly_are_accepted(self):
        assert _certificate_ok(problem(ASHG, 3, 4, Fraction(1999, 1000)), self.candidate())

    def test_bounds_passed_are_refused(self):
        p, eps = problem(ASHG, 3, 4, Fraction(1999, 1000)), self.EPS
        # a lower weight or a higher baseline keeps the candidate stable
        # and improving, so only the box refuses these
        assert not _certificate_ok(p, self.candidate(low=-10 - eps))
        assert not _certificate_ok(p, self.candidate(top=10 + eps))
        assert not _certificate_ok(replace(p, weight_bound=10 - eps), self.candidate())
        assert not _certificate_ok(replace(p, baseline_bound=10 - eps), self.candidate())


class TestSearchVerdicts:
    def test_feasible_below_tight_factor(self):
        result = search_blocking_scenario(problem(FHG, 2, 3, Fraction(13, 10)))
        assert result.verdict == FEASIBLE
        scenario = result.scenario
        assert scenario_is_size_stable(scenario, 2)
        assert min_improvement_factor(scenario) > Fraction(13, 10)

    def test_infeasible_at_the_bound(self):
        result = search_blocking_scenario(problem(FHG, 2, 3, Fraction(4, 3)))
        assert result.verdict == INFEASIBLE_WITHIN_BOUNDS
        assert result.scenario is None

    def test_mfhg_admits_no_strict_blocking(self):
        for m in (3, 4):
            result = search_blocking_scenario(problem(MFHG, 2, m, 1))
            assert result.verdict == INFEASIBLE_WITHIN_BOUNDS

    def test_ashg_feasible_against_fixture_bound(self):
        result = search_blocking_scenario(
            problem(ASHG, 3, 4, Fraction(2) - Fraction(1, 100))
        )
        assert result.verdict == FEASIBLE
        assert min_improvement_factor(result.scenario) > Fraction(199, 100)

    def test_budget_exhaustion_is_a_verdict(self):
        # the FHG q = 3, m = 4 tree at the bound takes 4 nodes, each with
        # its LP; the node that trips the limit is counted, unsolved
        for limit in range(4):
            result = search_blocking_scenario(
                problem(FHG, 3, 4, Fraction(5, 4), node_limit=limit)
            )
            assert result.verdict == BUDGET_EXHAUSTED
            assert (result.nodes_explored, result.lps_solved) == (limit + 1, limit)

    def test_branching_scan_is_guarded_before_the_root_lp(self, monkeypatch):
        # each node scans the C(24, 2) + ... + C(24, 12) coalitions of
        # sizes 2..12, past stability.MAX_SUBSETS
        def unreachable(lp, start=None):
            raise AssertionError("the root LP was solved")

        monkeypatch.setattr(search_module, "solve", unreachable)
        with pytest.raises(ResourceLimitError, match="9740661 coalitions"):
            search_blocking_scenario(problem(FHG, 12, 24, 1, node_limit=2))

    def test_stats_are_counted(self, node_lp_check):
        # a node refuted by a nogood counts as explored but solves no LP;
        # this tree has 78 nodes and 64 LPs
        result = search_blocking_scenario(problem(FHG, 3, 5, Fraction(13, 10), B=2, U=1))
        assert result.verdict == INFEASIBLE_WITHIN_BOUNDS
        assert node_lp_check[0] == result.lps_solved > 1
        assert result.nodes_explored > result.lps_solved

    def test_certificates_respect_the_box(self):
        result = search_blocking_scenario(problem(ASHG, 2, 3, Fraction(3, 2), B=2, U=3))
        assert result.verdict == FEASIBLE
        s = result.scenario
        assert all(abs(w) <= 2 for row in s.weights for w in row)
        assert all(1 <= b <= 3 for b in s.baselines)

    def test_box_can_forbid_otherwise_feasible_factors(self):
        # ASHG q=2, m=3 admits factor 2 with weights 1; demanding more than
        # factor ~2B is impossible inside |w| <= B
        wide = search_blocking_scenario(problem(ASHG, 2, 3, Fraction(3, 2), B=1))
        assert wide.verdict == FEASIBLE
        narrow = search_blocking_scenario(problem(ASHG, 2, 3, Fraction(50), B=1))
        assert narrow.verdict == INFEASIBLE_WITHIN_BOUNDS


class TestAgreementWithBounds:
    """gamma = bound is infeasible; gamma = bound - 1/1000 is feasible
    whenever a tight construction exists."""

    GRID = [
        (FHG, 2, 3),
        (FHG, 2, 4),
        (FHG, 3, 4),
        (ASHG, 2, 3),
        (ASHG, 3, 4),
        (MFHG, 2, 4),
        (MFHG, 3, 4),
        (FHG, 3, 5),
        (FHG, 4, 5),
        (ASHG, 3, 5),
        (ASHG, 4, 5),
        (MFHG, 3, 5),
        (MFHG, 4, 5),
        (MFHG, 3, 6),
        (FHG, 3, 6),
        (ASHG, 3, 6),
    ]

    @pytest.mark.parametrize("alpha,q,m", GRID)
    def test_infeasible_at_bound(self, alpha, q, m):
        f = improvement_bound(alpha, q, m)
        result = search_blocking_scenario(problem(alpha, q, m, f))
        assert result.verdict == INFEASIBLE_WITHIN_BOUNDS

    @pytest.mark.parametrize("alpha", [FHG, ASHG, MFHG])
    @pytest.mark.parametrize("m", [7, 8])
    def test_q2_infeasible_at_bound_up_to_eight_agents(self, alpha, m):
        # one LP, since the pair rows decide q = 2 at the root;
        # TestPairRows runs m = 3..9 at and below the bound
        f = improvement_bound(alpha, 2, m)
        result = search_blocking_scenario(problem(alpha, 2, m, f, node_limit=None))
        assert result.verdict == INFEASIBLE_WITHIN_BOUNDS

    @pytest.mark.parametrize(
        "alpha,q,m",
        [(FHG, 2, 3), (FHG, 2, 4), (FHG, 3, 4), (ASHG, 2, 3), (ASHG, 3, 4)],
    )
    def test_feasible_just_below_bound(self, alpha, q, m):
        f = improvement_bound(alpha, q, m)
        result = search_blocking_scenario(problem(alpha, q, m, f - Fraction(1, 1000)))
        assert result.verdict == FEASIBLE
        scenario = result.scenario
        assert scenario_is_size_stable(scenario, q)
        assert min_improvement_factor(scenario) > f - Fraction(1, 1000)

    def test_found_scenarios_satisfy_every_subset_constraint(self):
        # one-witness branching loses nothing: the emitted scenario passes
        # the original per-subset requirement, checked exhaustively
        result = search_blocking_scenario(problem(FHG, 3, 4, Fraction(6, 5)))
        assert result.verdict == FEASIBLE
        assert scenario_is_size_stable(result.scenario, 3)

    @pytest.mark.parametrize(
        "alpha,q,m",
        [
            (FHG, 5, 6),
            (ASHG, 5, 6),
            (FHG, 5, 7),
            (ASHG, 5, 7),
            (FHG, 6, 7),
            (ASHG, 6, 7),
        ],
    )
    def test_larger_tight_combinations_feasible(self, alpha, q, m):
        f = improvement_bound(alpha, q, m)
        gamma = f - Fraction(1, 1000)
        result = search_blocking_scenario(problem(alpha, q, m, gamma))
        assert result.verdict == FEASIBLE
        assert scenario_is_size_stable(result.scenario, q)
        assert min_improvement_factor(result.scenario) > gamma


def _reference_search(alpha, q, m, gamma, B=10, U=10):
    """Independent oracle: enumerate *every* full witness assignment and
    solve the witness LP without the baseline order for each; feasible
    iff any optimum has positive slack.  No pruning, no branching
    heuristics, no symmetry reduction."""
    from itertools import combinations, product

    p = problem(alpha, q, m, gamma, B, U)
    subsets = [c for s in range(2, q + 1) for c in combinations(range(m), s)]
    for witnesses in product(*subsets):
        result = solve(unordered_witness_system_lp(p, zip(subsets, witnesses)))
        assert isinstance(result, Optimal)
        if result.value > 0:
            return FEASIBLE
    return INFEASIBLE_WITHIN_BOUNDS


class TestAgainstReferenceSearch:
    def test_verdicts_match_exhaustive_enumeration(self):
        gammas = [
            Fraction(1),
            Fraction(5, 4),
            Fraction(13, 10),
            Fraction(4, 3),
            Fraction(3, 2),
            Fraction(2),
            Fraction(3),
        ]
        for alpha in (FHG, ASHG, MFHG):
            for gamma in gammas:
                want = _reference_search(alpha, 2, 3, gamma)
                got = search_blocking_scenario(problem(alpha, 2, 3, gamma))
                assert got.verdict == want, (alpha.kind, gamma)

    def test_verdicts_match_on_odd_boxes(self):
        for B, U in ((1, 1), (2, 5), (Fraction(1, 2), 3)):
            for gamma in (Fraction(1), Fraction(6, 5), Fraction(2)):
                want = _reference_search(FHG, 2, 3, gamma, B, U)
                got = search_blocking_scenario(problem(FHG, 2, 3, gamma, B, U))
                assert got.verdict == want, (B, U, gamma)


ODD_BOXES = ((1, 1), (2, 5), (Fraction(1, 2), 3))


def _bound_gammas(alpha, q, m):
    """The bound itself, and just below it where that is still >= 1."""
    f = improvement_bound(alpha, q, m)
    return [f] + ([f - Fraction(1, 1000)] if f - Fraction(1, 1000) >= 1 else [])


class TestAgainstReferenceSearchAtFourAgents:
    """m = 4, q = 2: the search decides at its root, by the order and the
    pair rows it forces; the oracle solves all 2^6 = 64 full assignments,
    without the order."""

    @pytest.mark.parametrize("alpha", [FHG, ASHG, MFHG])
    def test_q2_at_and_below_the_bound(self, alpha):
        for gamma in _bound_gammas(alpha, 2, 4):
            want = _reference_search(alpha, 2, 4, gamma)
            got = search_blocking_scenario(problem(alpha, 2, 4, gamma))
            assert got.verdict == want, gamma

    @pytest.mark.parametrize("alpha", [FHG, ASHG, MFHG])
    def test_q2_on_odd_boxes(self, alpha):
        for B, U in ODD_BOXES:
            for gamma in (Fraction(1), Fraction(6, 5), Fraction(2)):
                want = _reference_search(alpha, 2, 4, gamma, B, U)
                got = search_blocking_scenario(problem(alpha, 2, 4, gamma, B, U))
                assert got.verdict == want, (B, U, gamma)


def _grid_gammas(alpha, q, m):
    """The bound, above it, and below it where that is still >= 1."""
    f = improvement_bound(alpha, q, m)
    below = [g for g in (f - Fraction(1, 1000), f - Fraction(1, 5)) if g >= 1]
    return [f, f + Fraction(1, 10), *below]


class TestAgainstConflictFreeSearch:
    """The same verdict as ``reference_search``, the search without
    conflicts, backjumps or nogoods (every node solves its LP) over the
    witness system without the baseline order, on a grid of alphas,
    sizes, gammas and boxes."""

    @pytest.mark.parametrize("alpha", [FHG, ASHG, MFHG, ODD_EVEN, PAIRWISE_COMM])
    @pytest.mark.parametrize("q,m", [(2, 3), (2, 4), (3, 4), (2, 5)])
    def test_same_verdicts(self, alpha, q, m):
        for gamma in _grid_gammas(alpha, q, m):
            for B, U in ((10, 10), (1, 1), (Fraction(1, 2), 3)):
                p = problem(alpha, q, m, gamma, B, U, node_limit=None)
                want = reference_search(p).verdict
                assert search_blocking_scenario(p).verdict == want, (gamma, B, U)


class TestLearnedConflicts:
    """Each conflict read off a refuted node's LP dual refutes the system
    on its own: cold-solved as ``witness_system_lp(problem, conflict)``,
    its optimal slack is the node's, which is not positive.  The order
    is not invariant under relabelling, so a relabelled conflict need
    not refute the ordered system; it refutes the system whose order is
    relabelled with it (the unordered system plus the rows
    ``b_{relabel[0]} >= b_{relabel[1]} >= ...``), with the same slack.
    That is the symmetry that makes the order cost no verdict.  (A
    conflict learned from a subtree refutes only together with the
    subset constraints; the verdict comparisons check those.)"""

    @pytest.mark.parametrize(
        "alpha,q,m",
        [(FHG, 3, 4), (FHG, 3, 5), (ASHG, 3, 5), (ASHG, 4, 5), (ASHG, 3, 4), (TABLE_ALPHA, 3, 4)],
    )
    def test_conflicts_refute_under_relabelling(self, monkeypatch, alpha, q, m):
        rng = random.Random(4242)
        p = problem(alpha, q, m, improvement_bound(alpha, q, m), node_limit=None)
        learned = []
        extract = search_module._conflict

        def recording(result, path, first):
            conflict = extract(result, path, first)
            assert conflict <= set(path)
            learned.append((conflict, result.value))
            return conflict

        monkeypatch.setattr(search_module, "_conflict", recording)
        assert search_blocking_scenario(p).verdict == INFEASIBLE_WITHIN_BOUNDS
        assert len(learned) > 1
        for conflict, value in learned:
            result = solve(witness_system_lp(p, conflict))
            assert isinstance(result, Optimal) and result.value == value <= 0, conflict
            relabel = list(range(m))
            rng.shuffle(relabel)
            image = [(tuple(relabel[x] for x in S), relabel[w]) for S, w in conflict]
            result = solve(unordered_witness_system_lp(p, image, relabel))
            assert isinstance(result, Optimal) and result.value == value, (image, relabel)


class TestStoredNogoods:
    """Every stored nogood, of a leaf or of an inner node, admits no
    feasible scenario of the ordered system: the conflict-free search of
    that system (``reference_search(..., ordered=True)``) started from
    its rows finds none.  Feasible problems are the ones where this can
    fail, so the cases include feasible trees that refute subtrees on
    their way to a certificate."""

    @pytest.mark.parametrize(
        "alpha,q,m,below",
        [
            (FHG, 3, 5, 0),
            (ASHG, 3, 4, 0),
            (FHG, 4, 5, Fraction(1, 1000)),
            (ASHG, 5, 6, Fraction(1, 5)),
            (FHG, 5, 7, Fraction(1, 1000)),
        ],
    )
    def test_nogoods_admit_no_scenario(self, monkeypatch, alpha, q, m, below):
        stored = []
        learn = _Rows.learn

        def recording(rows, conflict):
            if conflict:
                stored.append(conflict)
            return learn(rows, conflict)

        monkeypatch.setattr(_Rows, "learn", recording)
        p = problem(alpha, q, m, improvement_bound(alpha, q, m) - below)
        verdict = search_blocking_scenario(p).verdict
        assert verdict == (FEASIBLE if below else INFEASIBLE_WITHIN_BOUNDS)
        assert stored
        for conflict in stored:
            path = sorted(conflict)
            assert reference_search(p, path, ordered=True).verdict == INFEASIBLE_WITHIN_BOUNDS, path


class TestWatchedNogoods:
    """``_Rows``, the search's watched nogood store, against brute force:
    random push / pop / learn sequences that follow the search's
    protocol (a conflict is learned at a node whose rows contain it, and
    the search pops past its newest row before the next push).  A push
    must return a stored nogood that the node's rows contain iff there
    is one."""

    def test_push_refutes_iff_a_nogood_is_contained(self):
        rng = random.Random(2718)
        found = {True: 0, False: 0}
        for _ in range(300):
            m = rng.randint(3, 6)
            q = rng.randint(2, min(3, m - 1))
            subsets = [c for s in range(2, q + 1) for c in combinations(range(m), s)]
            universe = [(S, a) for S in subsets for a in S]
            node, stored = _Rows(), []
            for _ in range(60):
                if node.rows and rng.random() < 0.4:
                    node.pop()
                    continue
                fresh = [row for row in universe if row not in node.rows]
                if not fresh:
                    node.pop()
                    continue
                row = rng.choice(fresh)
                got = node.push(row)
                rows = set(node.rows)
                want = [nogood for nogood in stored if nogood <= rows]
                assert (got is not None) == bool(want), (row, stored, rows)
                found[got is not None] += 1
                if got is not None:
                    assert got in stored and got <= rows
                    node.pop()  # the search pops a refuted node at once
                elif rng.random() < 0.3:
                    # learn a conflict of this node, with the new row or
                    # without it; the search then pops past its newest row
                    part = rng.sample(list(node.rows), rng.randint(1, min(len(rows), 4)))
                    if rng.random() < 0.7 and row not in part:
                        part[0] = row
                    conflict = frozenset(part)
                    assert node.learn(conflict) is conflict
                    stored.append(conflict)
                    newest = max(node.rows[r] for r in conflict)
                    while len(node.rows) > newest:
                        node.pop()
                    for _ in range(rng.randint(0, 2)):
                        if node.rows:
                            node.pop()
        assert min(found.values()) >= 300, found

    def test_an_empty_conflict_is_not_stored(self):
        node = _Rows()
        node.push(((0, 1), 0))
        assert node.learn(frozenset()) == frozenset()
        node.pop()
        assert node.push(((0, 1), 0)) is None and not node.watches


@pytest.mark.slow
class TestSlowAgainstReferenceSearchAtFourAgents:
    """q = 3, m = 4: 2^6 * 3^4 = 5184 full assignments per infeasible
    case."""

    @pytest.mark.parametrize("alpha", [FHG, ASHG, MFHG])
    def test_q3_at_and_below_the_bound(self, alpha):
        for gamma in _bound_gammas(alpha, 3, 4):
            want = _reference_search(alpha, 3, 4, gamma)
            got = search_blocking_scenario(problem(alpha, 3, 4, gamma))
            assert got.verdict == want, gamma

    @pytest.mark.parametrize("alpha", [FHG, ASHG, MFHG])
    def test_q3_on_odd_boxes(self, alpha):
        for B, U in (ODD_BOXES[0], ODD_BOXES[2]):
            for gamma in (Fraction(6, 5),):
                want = _reference_search(alpha, 3, 4, gamma, B, U)
                got = search_blocking_scenario(problem(alpha, 3, 4, gamma, B, U))
                assert got.verdict == want, (B, U, gamma)


def _first_violated_subset(p, lp, point):
    """The first subset of size 2..q, by size and then lex order, in which
    every member's utility at the LP point exceeds their baseline: the
    subset the search documents it branches on."""
    m, a = p.size, p.alpha.value
    weights = [[Fraction(0)] * m for _ in range(m)]
    for name, x in zip(lp.names, point):
        kind, *index = name.split("_")
        if kind == "w":
            i, j = map(int, index)
            weights[i][j] = weights[j][i] = x
    baselines = [sum(point[c] for c in _baseline_columns(lp, m, i)) for i in range(m)]
    for size in range(2, p.stable_size + 1):
        for subset in combinations(range(m), size):
            if all(a(size) * sum(weights[i][j] for j in subset) > baselines[i] for i in subset):
                return subset
    return None


class TestWarmNodesAgainstColdSolves:
    """At q = 3 (m = 4, 5) and q = 5 (m = 7), where the search
    re-optimises most node LPs from their parent's; at q = 2 the root is
    the one LP.  Following the depth-first path: every node LP that
    is solved (a node refuted by a nogood solves none) is its
    parent's plus one witness row, for the subset the parent's optimum
    violates first and a witness no sibling used; it is
    ``witness_system_lp(problem, path)`` for its path, row for row (a
    builder that put the witness rows before the fixed rows fails here);
    and its optimum value equals the cold integer solve's."""

    def _checked_search(self, monkeypatch, p):
        witness_rows = {}
        for size in range(2, p.stable_size + 1):
            for subset in combinations(range(p.size), size):
                for agent in subset:
                    row = witness_system_lp(p, [(subset, agent)]).constraints[-1]
                    witness_rows[row] = (subset, agent)
        stack = []  # (result, node LP, path, witnesses of its children)
        counts = {"cold": 0, "warm": 0}
        warm_solve = search_module.solve

        def solve_and_check(lp, start=None):
            if start is None:
                assert not stack
                path = ()
            else:
                while stack[-1][0] is not start:
                    stack.pop()
                parent, parent_lp, parent_path, witnesses = stack[-1]
                k = len(parent_lp.constraints)
                assert lp.constraints[:k] == parent_lp.constraints and len(lp.constraints) == k + 1
                subset, agent = witness_rows[lp.constraints[k]]
                assert subset == _first_violated_subset(p, parent_lp, parent.assignment)
                assert agent not in witnesses
                witnesses.add(agent)
                path = parent_path + ((subset, agent),)
            assert lp.constraints == witness_system_lp(p, path).constraints
            result = warm_solve(lp, start)
            cold = solve(lp)
            assert isinstance(result, Optimal) and isinstance(cold, Optimal)
            assert result.value == cold.value, path
            stack.append((result, lp, path, set()))
            counts["warm" if start is not None else "cold"] += 1
            return result

        monkeypatch.setattr(search_module, "solve", solve_and_check)
        result = search_blocking_scenario(p)
        # one cold root, every other node re-optimised from its parent
        assert counts["cold"] == 1
        assert counts["cold"] + counts["warm"] == result.lps_solved
        assert result.nodes_explored >= result.lps_solved
        return result, counts

    @pytest.mark.parametrize("alpha", [FHG, ASHG, MFHG])
    def test_q2_m5_at_the_bound(self, monkeypatch, alpha):
        # the pair rows decide q = 2 at the root: one cold LP
        p = problem(alpha, 2, 5, improvement_bound(alpha, 2, 5), node_limit=10_000)
        result, counts = self._checked_search(monkeypatch, p)
        assert result.verdict == INFEASIBLE_WITHIN_BOUNDS
        assert counts == {"cold": 1, "warm": 0}

    @pytest.mark.parametrize("alpha,m", [(FHG, 5), (ASHG, 5), (TABLE_ALPHA, 4)])
    def test_q3_at_the_bound(self, monkeypatch, alpha, m):
        # a node limit well above the ~1,100 nodes these trees take, so a
        # search that goes astray fails fast
        p = problem(alpha, 3, m, improvement_bound(alpha, 3, m), node_limit=10_000)
        result, counts = self._checked_search(monkeypatch, p)
        assert result.verdict == INFEASIBLE_WITHIN_BOUNDS
        assert counts["warm"] > 0

    def test_fhg_q5_m7_below_the_bound(self, monkeypatch):
        p = problem(FHG, 5, 7, improvement_bound(FHG, 5, 7) - Fraction(1, 1000))
        result, counts = self._checked_search(monkeypatch, p)
        assert result.verdict == FEASIBLE
        assert _certificate_ok(p, result.scenario)
        assert counts["warm"] > 0


class TestTreeSizes:
    """The node and LP counts of six trees, so that a change to the
    branching, the conflicts, the nogood store, the fixed rows or the
    LP's optimal points shows as a changed count and has to say so.
    Nodes refuted by a nogood count as nodes but solve no LP."""

    @pytest.mark.parametrize(
        "alpha,q,m,below,nodes,lps",
        [
            (FHG, 3, 4, 0, 4, 4),
            (FHG, 3, 5, 0, 1107, 511),
            (FHG, 5, 7, Fraction(1, 1000), 55, 55),
            (ASHG, 6, 7, Fraction(1, 1000), 120, 107),
            (FHG, 3, 6, 0, 1236, 683),
            (ASHG, 3, 6, 0, 1237, 686),
        ],
        ids=[
            "fhg-q3-m4-bound",
            "fhg-q3-m5-bound",
            "fhg-q5-m7-below",
            "ashg-q6-m7-below",
            "fhg-q3-m6-bound",
            "ashg-q3-m6-bound",
        ],
    )
    def test_node_counts(self, alpha, q, m, below, nodes, lps):
        p = problem(alpha, q, m, improvement_bound(alpha, q, m) - below, node_limit=None)
        result = search_blocking_scenario(p)
        assert result.verdict == (FEASIBLE if below else INFEASIBLE_WITHIN_BOUNDS)
        assert (result.nodes_explored, result.lps_solved) == (nodes, lps)
