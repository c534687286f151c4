"""The witness-tree search as it was before conflict learning and before
the baseline order, kept as a reference for ``alphahg.search``.

``unordered_witness_system_lp`` is the witness system with one baseline
column per agent and no order among them: the system the package
searched before it broke the agents' symmetry with ``b_0 >= ... >=
b_{m-1}``.  The order changes no verdict, so the package's verdicts are
checked against searches of this system.

``reference_search`` branches like the package search (the first subset
violated at the LP point, witnesses in index order, each child
re-optimised from its parent's optimum) but learns nothing: every node
solves its LP.  By default it searches the unordered system, where only
the untouched-agent symmetry rule skips witnesses: witnesses that differ
only by relabelling agents that no path row touches lead to relabelled
subtrees, so of the untouched members of a branching subset only the
first is tried.  With ``ordered=True`` it searches the package's own
system, where agents are not interchangeable and every witness is
tried, as ``ordered_witness_system_lp`` writes it: with the box as
rows, so that its LPs do not rest on the package's upper bounds.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations

from alphahg._rat import scaled
from alphahg.lp import Constraint, LinearProgram, Optimal, solve
from alphahg.search import (
    BUDGET_EXHAUSTED,
    FEASIBLE,
    INFEASIBLE_WITHIN_BOUNDS,
    SearchProblem,
    SearchResult,
    _agent_row,
    _baselines,
    _certificate_ok,
    _pair_index,
    witness_system_lp,
)
from alphahg.stability import Scenario, _blocking_coalitions, _check_subsets
from reference_lp import leading_rows

_ZERO = Fraction(0)


def _unordered_row(problem, pairs, members, agent, full=False) -> Constraint:
    """Agent ``a``'s witness row ``alpha(|S|) * sum_{j in S} w_aj - b_a <=
    0``, or with ``full`` their full-coalition row ``-alpha(m) * sum_j
    w_aj + gamma * b_a + slack <= 0``, over one baseline column per
    agent."""
    coeffs = [_ZERO] * (len(pairs) + problem.size + 1)
    a = problem.alpha.value(len(members))
    for j in members:
        if j != agent:
            coeffs[pairs[min(agent, j), max(agent, j)]] = -a if full else a
    if full:
        coeffs[len(pairs) + agent] = problem.gamma
        coeffs[-1] = Fraction(1)
    else:
        coeffs[len(pairs) + agent] = Fraction(-1)
    return Constraint(tuple(coeffs), _ZERO)


def unordered_witness_system_lp(problem: SearchProblem, path, order=None) -> LinearProgram:
    """The witness system for a path of ``(subset, witness)`` pairs, with
    unordered baselines.  Variables: one weight per pair (``w_i_j``), one
    baseline per agent (``b_i``), and the slack.  Rows: the
    full-coalition rows, ``w <= B`` per pair and ``b <= U`` per agent,
    then one witness row per entry of ``path``; with ``order``, a
    permutation of the agents, then the rows ``b_{order[k+1]} -
    b_{order[k]} <= 0``, and, if ``q >= 2``, the pair rows that this
    order forces: for ``k < l``, the witness row of ``order[k]`` in
    ``{order[k], order[l]}``, in that order.  Lower bounds: ``w >= -B``, ``b >= 1``, and
    the slack's floor ``-(gamma + alpha(m) * (m - 1) * B)``.  Objective:
    maximize the slack."""
    m = problem.size
    pairs = _pair_index(m)
    names = [f"w_{i}_{j}" for i, j in pairs] + [f"b_{i}" for i in range(m)] + ["slack"]
    bound = problem.weight_bound
    lower = [-bound] * len(pairs) + [Fraction(1)] * m
    lower.append(-(problem.gamma + problem.alpha.value(m) * (m - 1) * bound))

    def unit(v: int, rhs: Fraction) -> Constraint:
        coeffs = tuple(Fraction(1) if u == v else _ZERO for u in range(len(names)))
        return Constraint(coeffs, rhs)

    constraints = [_unordered_row(problem, pairs, range(m), i, full=True) for i in range(m)]
    constraints += [unit(p, bound) for p in range(len(pairs))]
    constraints += [unit(len(pairs) + i, problem.baseline_bound) for i in range(m)]
    for subset, agent in path:
        constraints.append(_unordered_row(problem, pairs, tuple(sorted(subset)), agent))
    for above, below in zip(order or (), (order or ())[1:]):
        coeffs = [_ZERO] * len(names)
        coeffs[len(pairs) + above], coeffs[len(pairs) + below] = Fraction(-1), Fraction(1)
        constraints.append(Constraint(tuple(coeffs), _ZERO))
    if order and problem.stable_size >= 2:
        constraints += [
            _unordered_row(problem, pairs, tuple(sorted(pair)), pair[0])
            for pair in combinations(order, 2)
        ]
    return LinearProgram(
        names=tuple(names),
        constraints=tuple(constraints),
        objective=tuple(Fraction(name == "slack") for name in names),
        lower=tuple(lower),
    )


def ordered_witness_system_lp(problem: SearchProblem, path) -> LinearProgram:
    """``witness_system_lp(problem, path)`` with its box ``w <= B``
    written as rows placed before every other row, in pair order, and no
    upper bound (``reference_lp.leading_rows``).  The package solves the
    same program with the box as bounds, taking the same pivots."""
    return leading_rows(witness_system_lp(problem, path))


class _Budget(Exception):
    pass


def reference_search(problem: SearchProblem, path=(), ordered: bool = False) -> SearchResult:
    """Decide the feasibility question by the plain witness tree: every
    node's LP is solved, and a node is pruned only when its optimal
    slack is not positive.  With a ``path`` of ``(subset, witness)``
    pairs the tree starts from that node: the verdict is whether some
    point that meets those witness rows is a feasible scenario.  The
    system is the unordered one unless ``ordered``."""
    q, m = problem.stable_size, problem.size
    _check_subsets(m, 2, q)
    deadline = (
        time.monotonic() + problem.time_limit if problem.time_limit is not None else None
    )
    stats = {"nodes": 0, "lps": 0}
    pairs = _pair_index(m)
    b_at = len(pairs)
    if ordered:
        system, row_of, baselines_of = ordered_witness_system_lp, _agent_row, _baselines
    else:
        system, row_of, baselines_of = unordered_witness_system_lp, _unordered_row, list

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
        baselines = [(x, 1) for x in baselines_of(point[b_at:b_at + m])]
        branch_on = next(_blocking_coalitions(weights, baselines, problem.alpha, 2, q), None)
        if branch_on in on_path:
            # at the exact optimum every assigned witness row holds
            raise AssertionError(f"assigned subset {branch_on} violated at the LP optimum")
        if branch_on is None:
            # the LP point already satisfies every subset; certify it
            x = result.assignment
            candidate = Scenario.from_pairs(
                problem.alpha, m, lambda i, j: x[pairs[i, j]], baselines_of(x[b_at:b_at + m])
            )
            if not _certificate_ok(problem, candidate):
                raise AssertionError("LP point failed independent re-verification")
            return candidate
        # in the unordered system, witnesses that only differ by
        # relabeling agents untouched by the path lead to relabeled
        # subtrees: try the touched members and the first untouched one
        untouched = [] if ordered else [a for a in branch_on if not touched >> a & 1]
        on_path = on_path | {branch_on}
        touched = touched | sum(1 << a for a in branch_on)
        for agent in branch_on:
            if agent in untouched[1:]:
                continue
            child = lp._with_rows((row_of(problem, pairs, branch_on, agent),))
            found = explore(child, result, on_path, touched)
            if found is not None:
                return found
        return None

    try:
        # the root is the system of the given path, solved cold
        subsets = frozenset(tuple(sorted(subset)) for subset, _ in path)
        touched = sum(1 << a for subset in subsets for a in set(subset))
        scenario = explore(system(problem, path), None, subsets, touched)
    except _Budget:
        return SearchResult(BUDGET_EXHAUSTED, None, stats["nodes"], stats["lps"])
    if scenario is None:
        return SearchResult(
            INFEASIBLE_WITHIN_BOUNDS, None, stats["nodes"], stats["lps"]
        )
    return SearchResult(FEASIBLE, scenario, stats["nodes"], stats["lps"])
