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
with LP pruning at every node.  A node's path is the (subset, witness)
pairs chosen from the root down to it, and its LP is
``witness_system_lp(problem, path)`` row for row: the fixed rows, then
one witness row per pair in path order.  The root is
``witness_system_lp(problem, ())``, and each child is its parent's LP
with the one new witness row appended.  Each child LP is re-optimised
from its parent's optimum by the dual simplex (``solve(child,
parent_result)``); that may change which optimal point a node gets,
never its value.  The subset to branch on is read from the LP point
scaled once to ints, by the stability module's subset kernel; a
:class:`Scenario` is built only for a certificate.  Every Feasible
verdict is re-verified by the stability module before being returned;
Infeasible verdicts are relative to the weight/baseline box.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from numbers import Real

from ._rat import exact, integer, scaled
from .core import AlphaFunction
from .errors import InvalidInputError
from .lp import Constraint, LinearProgram, Optimal, solve
from .stability import (
    Scenario,
    _check_subsets,
    _first_blocking,
    min_improvement_factor,
    scenario_is_size_stable,
)

FEASIBLE = "feasible"
INFEASIBLE_WITHIN_BOUNDS = "infeasible_within_bounds"
BUDGET_EXHAUSTED = "budget_exhausted"

DEFAULT_NODE_LIMIT = 200_000

_ZERO = Fraction(0)
_MINUS_ONE = Fraction(-1)


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
        if integer(self.stable_size) < 1:
            raise InvalidInputError("stable_size must be >= 1")
        if integer(self.size) < max(self.stable_size + 1, 2):
            raise InvalidInputError("size must be >= stable_size + 1")
        if self.gamma < 1:
            raise InvalidInputError("gamma must be >= 1")
        if self.weight_bound <= 0:
            raise InvalidInputError("weight_bound must be positive")
        if self.baseline_bound < 1:
            raise InvalidInputError("baseline_bound must be >= 1")
        if self.node_limit is not None and integer(self.node_limit) < 0:
            raise InvalidInputError("node_limit must be >= 0")
        limit = self.time_limit
        if limit is not None and not (
            isinstance(limit, Real) and not isinstance(limit, bool) and limit >= 0
        ):
            # NaN fails ``>= 0`` as well
            raise InvalidInputError(
                f"time_limit must be None or a number of seconds >= 0, not {limit!r}"
            )


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
    """The column of each pair weight ``w_ij``, ``i < j``, in the search's
    LPs: pairs in lexicographic order, then one baseline per agent, then
    the slack."""
    return {pair: p for p, pair in enumerate(combinations(range(size), 2))}


def _agent_row(
    problem: SearchProblem,
    pairs: dict,
    members: Sequence[int],
    agent: int,
    full: bool = False,
) -> Constraint:
    """Agent ``a``'s utility in ``S = members`` against their baseline:
    the witness row ``alpha(|S|) * sum_{j in S} w_aj - b_a <= 0`` (``a``
    does not improve in ``S``), or with ``full`` the full-coalition row
    ``alpha(m) * sum_j w_aj - gamma * b_a - slack >= 0``."""
    coeffs = [_ZERO] * (len(pairs) + problem.size + 1)
    a = problem.alpha.value(len(members))
    for j in members:
        if j != agent:
            coeffs[pairs[min(agent, j), max(agent, j)]] = a
    if full:
        coeffs[len(pairs) + agent] = -problem.gamma
        coeffs[-1] = _MINUS_ONE
        return Constraint(tuple(coeffs), ">=", _ZERO)
    coeffs[len(pairs) + agent] = _MINUS_ONE
    return Constraint(tuple(coeffs), "<=", _ZERO)


def witness_system_lp(
    problem: SearchProblem,
    path: Iterable[tuple[Sequence[int], int]] | Mapping[Sequence[int], int],
) -> LinearProgram:
    """The search's node LP for one (partial) witness path.

    ``path`` is an ordered iterable of ``(subset, witness)`` pairs, each
    a two-item sequence whose subset is iterable; a mapping is admitted
    in its iteration order.  Subset members and
    witnesses must be ints, each subset at least two distinct agents of
    ``0..m-1`` with its witness among them, and no subset may appear
    twice once its members are sorted.

    Variables: one weight per unordered pair, one baseline per agent,
    and a shared slack.  Constraints, in one order: the fixed rows
    (every agent's full-coalition utility is at least ``gamma *
    baseline + slack``; ``w <= B`` per pair, then ``b <= U`` per agent),
    then one witness row per pair of ``path``, in path order, capping
    the witness's subset utility at their baseline.  Lower bounds: ``w >= -B``, ``b >= 1``, and ``slack >= -(gamma +
    alpha(m) * (m - 1) * B)``.  Objective: maximize the slack.  The
    witness system is strictly feasible iff the optimum slack is
    positive.

    The slack's bound cuts off no optimum: the point ``w = -B``, ``b =
    1`` meets every witness row (alpha is positive on sizes >= 2), and
    there every full-coalition row allows exactly that slack.  The lower
    bounds also make the LP start feasible: with every variable at its
    bound, each full-coalition row's right-hand side is 0 and each
    witness row's is ``1 + alpha(|S|) * B * (|S| - 1)``, so every row is
    a ``<=`` row with a nonnegative right-hand side and the LP's dual
    phase makes no pivot.
    """
    m = problem.size
    pairs = _pair_index(m)
    num_pairs = len(pairs)
    names = [f"w_{i}_{j}" for i, j in pairs] + [f"b_{i}" for i in range(m)] + ["slack"]
    bound = problem.weight_bound
    lower = [-bound] * num_pairs + [Fraction(1)] * m
    lower.append(-(problem.gamma + problem.alpha.value(m) * (m - 1) * bound))

    def unit(v: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(1) if u == v else _ZERO for u in range(len(names)))

    everyone = range(m)
    constraints = [_agent_row(problem, pairs, everyone, i, full=True) for i in everyone]
    constraints += [Constraint(unit(p), "<=", bound) for p in range(num_pairs)]
    constraints += [
        Constraint(unit(num_pairs + i), "<=", problem.baseline_bound) for i in range(m)
    ]
    entries = path.items() if isinstance(path, Mapping) else path
    if not isinstance(entries, Iterable):
        raise InvalidInputError(
            f"witness path {path!r} is not an iterable of (subset, witness) pairs"
        )
    seen = set()
    for entry in entries:
        pair = isinstance(entry, Sequence) and len(entry) == 2
        if not (pair and isinstance(entry[0], Iterable)):
            raise InvalidInputError(
                f"witness path entry {entry!r} is not a (subset, witness) pair"
            )
        subset, agent = entry
        key = tuple(sorted(map(integer, subset)))
        if len(key) < 2:
            raise InvalidInputError("witness subsets must have size >= 2")
        if len(set(key)) < len(key):
            raise InvalidInputError(f"witness subset {key} repeats an agent")
        if integer(agent) not in key:
            raise InvalidInputError(f"witness {agent} not in subset {key}")
        if not 0 <= key[0] <= key[-1] < m:
            raise InvalidInputError(f"witness subset {key} outside agents 0..{m - 1}")
        if key in seen:
            raise InvalidInputError(f"subset {key} assigned twice")
        seen.add(key)
        constraints.append(_agent_row(problem, pairs, key, agent))
    return LinearProgram(
        names=tuple(names),
        constraints=tuple(constraints),
        objective=unit(len(names) - 1),
        lower=tuple(lower),
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

    Depth-first over witness paths; at each node the LP relaxation is
    solved and the node is pruned when the optimal slack is not positive
    (longer paths only shrink the feasible region).  A node whose LP
    optimum already satisfies every subset constraint yields a
    certificate immediately; otherwise the first subset violated at the
    LP optimum, never one on the path, is branched on.
    """
    q, m = problem.stable_size, problem.size
    _check_subsets(m, 2, q)  # each node's branching scan
    deadline = (
        time.monotonic() + problem.time_limit if problem.time_limit is not None else None
    )
    stats = {"nodes": 0, "lps": 0}
    pairs = _pair_index(m)
    b_at = len(pairs)

    def explore(
        lp: LinearProgram, start: Optimal | None, on_path: frozenset, touched: int
    ) -> Scenario | None:
        stats["nodes"] += 1
        if problem.node_limit is not None and stats["nodes"] > problem.node_limit:
            raise _Budget
        if deadline is not None and time.monotonic() > deadline:
            raise _Budget
        stats["lps"] += 1
        result = solve(lp, start)
        if not isinstance(result, Optimal):  # starts feasible and is box-bounded
            raise AssertionError(f"node LP returned {result!r}")
        if result.value <= 0:
            return None
        # the LP point as ints times one common denominator: a positive
        # factor leaves every strict comparison of the kernel as it is
        point = scaled(result.assignment)[0]
        weights = [[0] * m for _ in range(m)]
        for (i, j), p in pairs.items():
            weights[i][j] = weights[j][i] = point[p]
        baselines = [(x, 1) for x in point[b_at:b_at + m]]
        branch_on = _first_blocking(weights, baselines, problem.alpha, 2, q)
        if branch_on in on_path:
            # at the exact optimum every assigned witness row holds
            raise AssertionError(f"assigned subset {branch_on} violated at the LP optimum")
        if branch_on is None:
            # the LP point already satisfies every subset; certify it
            x = result.assignment
            candidate = Scenario.from_pairs(
                problem.alpha, m, lambda i, j: x[pairs[i, j]], x[b_at:b_at + m]
            )
            if not _certificate_ok(problem, candidate):
                raise AssertionError("LP point failed independent re-verification")
            return candidate
        # witnesses that only differ by relabeling agents untouched by the
        # path lead to relabeled subtrees: try the touched members and the
        # first untouched one
        untouched = [a for a in branch_on if not touched >> a & 1]
        on_path = on_path | {branch_on}
        touched = touched | sum(1 << a for a in branch_on)
        for agent in branch_on:
            if agent in untouched[1:]:
                continue
            child = lp._with_rows((_agent_row(problem, pairs, branch_on, agent),))
            found = explore(child, result, on_path, touched)
            if found is not None:
                return found
        return None

    try:
        # the root is the witness-free system, solved cold
        scenario = explore(witness_system_lp(problem, ()), None, frozenset(), 0)
    except _Budget:
        return SearchResult(BUDGET_EXHAUSTED, None, stats["nodes"], stats["lps"])
    if scenario is None:
        return SearchResult(
            INFEASIBLE_WITHIN_BOUNDS, None, stats["nodes"], stats["lps"]
        )
    return SearchResult(FEASIBLE, scenario, stats["nodes"], stats["lps"])
