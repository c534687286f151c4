"""The witness-tree search as it was before conflict learning, kept as a
reference for the conflict-driven search in ``alphahg.search``.

It branches like that search (the first subset violated at the LP point,
witnesses in index order, each child re-optimised from its parent's
optimum) but learns nothing: every node solves its LP, and only the
untouched-agent symmetry rule skips witnesses.  Witnesses that differ
only by relabelling agents that no path row touches lead to relabelled
subtrees, so of the untouched members of a branching subset only the
first is tried.  Verdicts must equal the package search's.
"""

from __future__ import annotations

import time

from alphahg._rat import scaled
from alphahg.lp import LinearProgram, Optimal, solve
from alphahg.search import (
    BUDGET_EXHAUSTED,
    FEASIBLE,
    INFEASIBLE_WITHIN_BOUNDS,
    SearchProblem,
    SearchResult,
    _agent_row,
    _certificate_ok,
    _pair_index,
    witness_system_lp,
)
from alphahg.stability import Scenario, _check_subsets, _first_blocking


class _Budget(Exception):
    pass


def reference_search(problem: SearchProblem, path=()) -> SearchResult:
    """Decide the feasibility question by the plain witness tree: every
    node's LP is solved, and a node is pruned only when its optimal
    slack is not positive.  With a ``path`` of ``(subset, witness)``
    pairs the tree starts from that node: the verdict is whether some
    point that meets those witness rows is a feasible scenario."""
    q, m = problem.stable_size, problem.size
    _check_subsets(m, 2, q)
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
        # the root is the system of the given path, solved cold
        subsets = frozenset(tuple(sorted(subset)) for subset, _ in path)
        touched = sum(1 << a for subset in subsets for a in set(subset))
        scenario = explore(witness_system_lp(problem, path), None, subsets, touched)
    except _Budget:
        return SearchResult(BUDGET_EXHAUSTED, None, stats["nodes"], stats["lps"])
    if scenario is None:
        return SearchResult(
            INFEASIBLE_WITHIN_BOUNDS, None, stats["nodes"], stats["lps"]
        )
    return SearchResult(FEASIBLE, scenario, stats["nodes"], stats["lps"])
