"""Search for extremal blocking scenarios.

Question: given a size-weight function, does some assignment of weights
and baselines exist in which the baseline is size-stable up to ``q``
while a coalition of ``m >= q + 1`` agents improves everyone by a
factor strictly greater than ``gamma``?

The decision system: per subset ``S`` of size 2..q at least one member
must fail to improve; weights are symmetric and box-bounded; every
agent's full-coalition utility must strictly exceed ``gamma`` times
their baseline.  Instead of big-M binaries, the disjunction "someone in
S does not improve" is handled by branching on *which* member is the
non-improving witness (one witness per subset loses no solutions:
further witnesses only shrink the feasible region).  Each branch is an
exact LP; strict inequalities become a shared slack variable that the
LP maximizes, so strict feasibility is exactly "optimal slack > 0".

The search is deterministic: subsets are branched in (size,
lexicographic) order, witness candidates in index order, depth-first
with LP pruning at every node.  Each node's LP is
:func:`witness_system_lp` for the node's assignment: the rows that do
not depend on the assignment are built once per search, and the node's
witness rows go in front of them.  Every Feasible verdict is re-verified
by the stability module before being returned; Infeasible verdicts are
relative to the weight/baseline box.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Mapping

from ._rat import exact
from .core import AlphaFunction
from .errors import DomainError, InvalidInputError
from .lp import Constraint, LinearProgram, Optimal, solve
from .stability import (
    Scenario,
    _scenario_first_blocking,
    min_improvement_factor,
    scenario_is_size_stable,
)

FEASIBLE = "feasible"
INFEASIBLE_WITHIN_BOUNDS = "infeasible_within_bounds"
BUDGET_EXHAUSTED = "budget_exhausted"

DEFAULT_NODE_LIMIT = 200_000

_ZERO = Fraction(0)


@dataclass(frozen=True)
class SearchProblem:
    """Parameters of one feasibility question.

    The box ``|weight| <= weight_bound``, ``1 <= baseline <=
    baseline_bound`` replaces an unbounded search: the system is
    invariant under global positive scaling, so baselines are normalized
    to at least 1, and an unbounded search could not certify
    infeasibility.
    """

    alpha: AlphaFunction
    stable_size: int
    size: int
    gamma: Fraction
    weight_bound: Fraction = Fraction(10)
    baseline_bound: Fraction = Fraction(10)
    node_limit: int | None = DEFAULT_NODE_LIMIT
    time_limit: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", exact(self.gamma))
        object.__setattr__(self, "weight_bound", exact(self.weight_bound))
        object.__setattr__(self, "baseline_bound", exact(self.baseline_bound))
        if self.stable_size < 1:
            raise InvalidInputError("stable_size must be >= 1")
        if self.size < max(self.stable_size + 1, 2):
            raise InvalidInputError("size must be >= stable_size + 1")
        if self.gamma < 1:
            raise InvalidInputError("gamma must be >= 1")
        if self.weight_bound <= 0:
            raise InvalidInputError("weight_bound must be positive")
        if self.baseline_bound < 1:
            raise InvalidInputError("baseline_bound must be >= 1")
        if self.node_limit is not None and self.node_limit < 0:
            raise InvalidInputError("node_limit must be >= 0")
        if self.time_limit is not None and not self.time_limit >= 0:
            raise InvalidInputError("time_limit must be >= 0")


@dataclass(frozen=True)
class WitnessAssignment:
    """For some subsets, the member designated as non-improving."""

    choices: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self) -> None:
        canon = []
        seen = set()
        for subset, agent in self.choices:
            key = tuple(sorted(subset))
            if len(key) < 2:
                raise InvalidInputError("witness subsets must have size >= 2")
            if agent not in key:
                raise InvalidInputError(f"witness {agent} not in subset {key}")
            if key in seen:
                raise InvalidInputError(f"subset {key} assigned twice")
            seen.add(key)
            canon.append((key, agent))
        canon.sort(key=lambda item: (len(item[0]), item[0]))
        object.__setattr__(self, "choices", tuple(canon))

    @classmethod
    def of(cls, mapping: Mapping[tuple[int, ...], int]) -> "WitnessAssignment":
        return cls(tuple(mapping.items()))

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return iter(self.choices)


@dataclass(frozen=True)
class SearchResult:
    """Verdict plus exploration statistics.

    ``feasible`` carries an independently re-verified scenario;
    ``infeasible_within_bounds`` means the witness tree was exhausted;
    ``budget_exhausted`` makes no claim.
    """

    verdict: str
    scenario: Scenario | None
    nodes_explored: int
    lps_solved: int


def _pair_index(size: int) -> dict[tuple[int, int], int]:
    index = {}
    for i, j in combinations(range(size), 2):
        index[(i, j)] = len(index)
    return index


def _witness_row(
    problem: SearchProblem, pairs: dict, subset: tuple[int, ...], agent: int
) -> Constraint:
    """``alpha(|S|) * sum of the agent's weights to S - b_agent <= 0``: the
    witness does not improve in ``S``."""
    a = problem.alpha.value(len(subset))
    coeffs = [_ZERO] * (len(pairs) + problem.size + 1)
    for j in subset:
        if j != agent:
            coeffs[pairs[(min(agent, j), max(agent, j))]] = a
    coeffs[len(pairs) + agent] = Fraction(-1)
    return Constraint(tuple(coeffs), "<=", _ZERO)


def witness_system_lp(
    problem: SearchProblem, assignment: WitnessAssignment | Mapping
) -> LinearProgram:
    """The LP for one (partial) witness assignment.

    Variables: one weight per unordered pair, one baseline per agent,
    and a shared slack.  Constraints, in this order: each assigned
    (subset, witness) caps the witness's subset utility at their
    baseline; every agent's full-coalition utility is at least ``gamma *
    baseline + slack``; ``w <= B`` per pair, then ``b <= U`` per agent.
    Lower bounds: ``w >= -B``, ``b >= 1``, and ``slack >= -(gamma +
    alpha(m) * (m - 1) * B)``.  Objective: maximize the slack.  The
    witness-assigned system is strictly feasible iff the optimum slack
    is positive.

    The slack's bound cuts off no optimum: the point ``w = -B``, ``b =
    1`` meets every witness row (alpha is positive on sizes >= 2), and
    there every full-coalition row allows exactly that slack.  The lower
    bounds also make the LP start feasible: with every variable at its
    bound, each full-coalition row's right-hand side is 0 and each
    witness row's is ``1 + alpha(|S|) * B * (|S| - 1)``, so every row is
    a ``<=`` row with a nonnegative right-hand side and the simplex needs
    no phase 1.
    """
    m = problem.size
    pairs = _pair_index(m)
    num_pairs = len(pairs)
    b_at = num_pairs
    t_at = num_pairs + m
    num_vars = num_pairs + m + 1

    names = [f"w_{i}_{j}" for i, j in combinations(range(m), 2)]
    names += [f"b_{i}" for i in range(m)]
    names.append("slack")
    bound = problem.weight_bound
    a_full = problem.alpha.value(m)
    lower = [-bound] * num_pairs + [Fraction(1)] * m
    lower.append(-(problem.gamma + a_full * (m - 1) * bound))

    def row() -> list[Fraction]:
        return [_ZERO] * num_vars

    items = assignment.items() if hasattr(assignment, "items") else assignment
    constraints = [_witness_row(problem, pairs, subset, agent) for subset, agent in items]

    for i in range(m):
        coeffs = row()
        for j in range(m):
            if j != i:
                key = (min(i, j), max(i, j))
                coeffs[pairs[key]] += a_full
        coeffs[b_at + i] = -problem.gamma
        coeffs[t_at] = Fraction(-1)
        constraints.append(Constraint(tuple(coeffs), ">=", _ZERO))

    for p in range(num_pairs):
        coeffs = row()
        coeffs[p] = Fraction(1)
        constraints.append(Constraint(tuple(coeffs), "<=", bound))
    for i in range(m):
        coeffs = row()
        coeffs[b_at + i] = Fraction(1)
        constraints.append(Constraint(tuple(coeffs), "<=", problem.baseline_bound))

    objective = row()
    objective[t_at] = Fraction(1)
    return LinearProgram(
        names=tuple(names),
        constraints=tuple(constraints),
        objective=tuple(objective),
        lower=tuple(lower),
    )


def _scenario_from_assignment(problem: SearchProblem, values) -> Scenario:
    m = problem.size
    pairs = _pair_index(m)
    matrix = [[Fraction(0)] * m for _ in range(m)]
    for (i, j), p in pairs.items():
        matrix[i][j] = values[p]
        matrix[j][i] = values[p]
    baselines = tuple(values[len(pairs) + i] for i in range(m))
    return Scenario(
        size=m,
        weights=tuple(tuple(r) for r in matrix),
        baselines=baselines,
        alpha=problem.alpha,
    )


def _certificate_ok(problem: SearchProblem, scenario: Scenario) -> bool:
    """Independent re-check of a candidate: box bounds, stability up to
    stable_size, and a strict improvement beyond gamma."""
    B, U = problem.weight_bound, problem.baseline_bound
    for i in range(scenario.size):
        for j in range(scenario.size):
            if abs(scenario.weights[i][j]) > B:
                return False
    if any(not 1 <= b <= U for b in scenario.baselines):
        return False
    if not scenario_is_size_stable(scenario, problem.stable_size):
        return False
    return min_improvement_factor(scenario) > problem.gamma


class _Budget(Exception):
    pass


def search_blocking_scenario(problem: SearchProblem) -> SearchResult:
    """Decide the feasibility question for one parameter set.

    Depth-first over witness assignments; at each node the LP relaxation
    is solved and the node is pruned when the optimal slack is not
    positive (supersets of the assignment only shrink the feasible
    region).  A node whose LP optimum already satisfies every subset
    constraint yields a certificate immediately; otherwise the first
    subset violated at the LP optimum, never an assigned one, is
    branched on.
    """
    q = problem.stable_size
    deadline = (
        time.monotonic() + problem.time_limit if problem.time_limit is not None else None
    )
    stats = {"nodes": 0, "lps": 0}
    # the rows that do not depend on the witness assignment, built once
    base = witness_system_lp(problem, {})
    pairs = _pair_index(problem.size)

    def explore(assignment: dict, touched: set[int]) -> Scenario | None:
        stats["nodes"] += 1
        if problem.node_limit is not None and stats["nodes"] > problem.node_limit:
            raise _Budget
        if deadline is not None and time.monotonic() > deadline:
            raise _Budget
        stats["lps"] += 1
        witness_rows = tuple(_witness_row(problem, pairs, s, a) for s, a in assignment.items())
        result = solve(replace(base, constraints=witness_rows + base.constraints))
        if not isinstance(result, Optimal):  # starts feasible and is box-bounded
            raise AssertionError(f"node LP returned {result!r}")
        if result.value <= 0:
            return None
        candidate = _scenario_from_assignment(problem, result.assignment)
        branch_on = _scenario_first_blocking(candidate, q)
        if branch_on in assignment:
            # at the exact optimum every assigned witness row holds
            raise AssertionError(f"assigned subset {branch_on} violated at the LP optimum")
        if branch_on is None:
            # the LP point already satisfies every subset; certify it
            if not _certificate_ok(problem, candidate):
                raise AssertionError("LP point failed independent re-verification")
            return candidate
        # witnesses that only differ by relabeling agents untouched by the
        # assignment lead to relabeled subtrees; explore one representative
        tried_untouched = False
        for agent in branch_on:
            if agent not in touched:
                if tried_untouched:
                    continue
                tried_untouched = True
            assignment[branch_on] = agent
            added = [a for a in branch_on if a not in touched]
            touched.update(added)
            found = explore(assignment, touched)
            touched.difference_update(added)
            del assignment[branch_on]
            if found is not None:
                return found
        return None

    try:
        scenario = explore({}, set())
    except _Budget:
        return SearchResult(BUDGET_EXHAUSTED, None, stats["nodes"], stats["lps"])
    if scenario is None:
        return SearchResult(
            INFEASIBLE_WITHIN_BOUNDS, None, stats["nodes"], stats["lps"]
        )
    return SearchResult(FEASIBLE, scenario, stats["nodes"], stats["lps"])
