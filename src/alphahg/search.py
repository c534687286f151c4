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

The agents' symmetry is broken once, in the LP: the baselines are
ordered, ``b_0 >= b_1 >= ... >= b_{m-1}`` (Sherali & Smith, *Improving
discrete model representations via symmetry considerations*, Mgmt.
Sci. 2001).  No verdict changes: every feasible scenario relabels to an
ordered one, and the fixed rows, the box and the family of subset
constraints are invariant under relabelling.  Only which certificate is
found can change.  The order is stated by difference variables, so it
costs lower bounds and no rows (see :func:`witness_system_lp`).

Under the order a pair needs no branch.  For ``i < j`` the witness-j row
``alpha(2) * w_ij <= b_j`` implies the witness-i row, since ``b_j <=
b_i``, so "some member of {i, j} does not improve" is the one row
``alpha(2) * w_ij <= b_i``.  Every LP carries these pair rows among its
fixed rows (when ``q >= 2``), and the search branches only on subsets of
size 3..q.  At ``q = 2`` the root LP decides the question, and so it
does whenever ``(s - 1) * alpha(s) <= alpha(2)`` for every size ``s``
in 3..q (MFHG, pairwise communication, odd-even): then the pair rows of
a subset's first member cap their subset utility too.

The search is deterministic: subsets are branched in (size,
lexicographic) order, witness candidates in index order, depth-first.
A node's path is the (subset, witness) entries chosen from the root
down to it, and its LP is ``witness_system_lp(problem, path)`` row for
row: the fixed rows, then one witness row per entry in path order.
The root is ``witness_system_lp(problem, ())``, and each child is its
parent's LP with the one new witness row appended.  Each child LP is
re-optimised from its parent's optimum by the dual simplex
(``solve(child, parent_result)``); that may change which optimal point
a node gets, never its value.  Each node reads its LP point once, as
ints over the tableau's denominator (:meth:`Optimal.scaled_point`).
The subset to branch on is read from those ints by the stability
module's subset kernel, and a certificate is a :class:`Scenario` built
from the same ints over that denominator.

The search is conflict-driven (conflict analysis as in Achterberg,
*Conflict analysis in mixed integer programming*, 2007).  A refuted
subtree names its reason, a *conflict*: a set of its path's witness
rows that no strictly feasible, size-stable point satisfies.

* A node whose optimal slack is not positive has as its conflict the
  path rows whose slack column has a nonzero reduced cost in the final
  tableau: the support of the LP's optimal dual, which with the fixed
  rows bounds the slack on its own.  No extra LP is solved.
* If a child's conflict does not contain the child's own row, it lies
  on the parent's path and refutes the parent: the remaining siblings
  are skipped (a backjump).  Otherwise the parent's conflict is the
  union of its children's conflicts, each without that child's row,
  since every size-stable point meets some witness row of the subset.
* Every conflict, of a leaf or of an inner node, is stored as a
  *nogood*, as it is: the order is not invariant under relabelling, so
  a nogood refutes exactly the nodes whose rows contain its own.  Such
  a node is refuted before its LP is solved, with that nogood as its
  conflict.  The store watches rows, as SAT solvers watch literals
  (Moskewicz et al., *Chaff*, DAC 2001): each nogood is watched by one
  of its rows that the node lacks.  A push looks only at the nogoods
  that watch the new row; each moves its watch to another row the node
  lacks, or else refutes the node.  A pop undoes nothing.

Every Feasible verdict is re-verified by the stability module before
being returned; Infeasible verdicts are relative to the weight/baseline
box.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from numbers import Real

from . import _params
from ._params import DEFAULT_NODE_LIMIT
from ._rat import exact, integer, scaled
from .core import AlphaFunction, Scenario, _alpha_function
from .errors import InvalidInputError
from .lp import Constraint, LinearProgram, Optimal, solve
from .stability import (
    _check_subsets,
    _blocking_coalitions,
    min_improvement_factor,
    scenario_is_size_stable,
)

FEASIBLE = "feasible"
INFEASIBLE_WITHIN_BOUNDS = "infeasible_within_bounds"
BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class SearchProblem:
    """Parameters of one feasibility question.

    The search looks for a scenario in the box ``|weight| <=
    weight_bound``, ``1 <= baseline <= baseline_bound``, and the box is
    what an ``infeasible_within_bounds`` verdict is relative to: no
    scenario in it blocks.  The box is not what makes infeasibility
    certifiable.  The system is homogeneous (invariant under global
    positive scaling), so ``b_{m-1} >= 1`` normalizes it, and an LP
    whose slack is capped is bounded with free weights too.
    """

    alpha: AlphaFunction
    stable_size: int
    size: int
    gamma: Fraction
    weight_bound: Fraction = _params.WEIGHT_BOUND
    baseline_bound: Fraction = _params.BASELINE_BOUND
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
        _alpha_function(self.alpha, self.size)
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

    ``feasible`` carries an independently re-verified scenario, whose
    baselines are ordered (``b_0 >= ... >= b_{m-1}``);
    ``infeasible_within_bounds`` means the witness tree was exhausted;
    ``budget_exhausted`` makes no claim.  ``nodes_explored`` counts
    every node the search reached, and the node limit is checked against
    it; a node whose rows contain a stored nogood's is counted there but
    solves no LP, so ``lps_solved`` can be smaller.  A budget counts the
    node that trips it, unsolved: a node limit ``k`` stops at ``k + 1``
    nodes and at most ``k`` LPs.
    """

    verdict: str
    scenario: Scenario | None
    nodes_explored: int
    lps_solved: int


def _pair_index(size: int) -> dict[tuple[int, int], int]:
    """The column of each pair weight ``w_ij``, ``i < j``, in the search's
    LPs: pairs in lexicographic order, then the ``size`` baseline
    columns, then the slack."""
    return {pair: p for p, pair in enumerate(combinations(range(size), 2))}


def _baselines(columns: Sequence) -> list:
    """The baselines ``b_0..b_{m-1}`` from a point's ``m`` baseline
    columns (``d_0..d_{m-2}``, then ``b_{m-1}``): ``b_i`` is the sum of
    columns ``i..m-1``.  Ints give ints, and Fractions Fractions."""
    return list(accumulate(reversed(columns)))[::-1]


def _row_terms(alpha: Fraction, gamma: Fraction | None = None) -> list[int]:
    """An agent row's weight, baseline and slack coefficients: the least
    integer multiple of the witness row's ``alpha(|S|)``, -1 and 0 (so
    ``num(alpha)``, ``-den(alpha)``, 0), or the full-coalition row's
    ``-L * alpha(m)``, ``L * gamma`` and 1, with ``L = lcm(den(alpha(m)),
    den(gamma))``: the least integer multiple of its weight and baseline
    terms, over a slack counted in units of ``1 / L``."""
    if gamma is None:
        return scaled((alpha, -1, 0))[0]
    return scaled((-alpha, gamma))[0] + [1]


def _agent_row(
    problem: SearchProblem,
    pairs: dict,
    members: Sequence[int],
    agent: int,
    terms: Sequence[int] | None = None,
) -> Constraint:
    """Agent ``a``'s utility in ``S = members`` against their baseline,
    over the integers (``terms``, :func:`_row_terms`): by default the
    witness row ``num(alpha(|S|)) * sum_{j in S} w_aj - den(alpha(|S|)) *
    b_a <= 0``, or the full-coalition row ``-L * alpha(m) * sum_j w_aj +
    L * gamma * b_a + s <= 0`` (``s = L * slack``).  ``b_a`` is the sum
    of the baseline columns ``a..m-1``, so its coefficient is on each of
    them."""
    weight, baseline, slack = terms or _row_terms(problem.alpha.value(len(members)))
    coeffs = [0] * (len(pairs) + agent) + [baseline] * (problem.size - agent) + [slack]
    for j in members:
        if j != agent:
            coeffs[pairs[min(agent, j), max(agent, j)]] = weight
    return Constraint(tuple(coeffs), 0)


def witness_system_lp(
    problem: SearchProblem,
    path: Iterable[tuple[Sequence[int], int]],
) -> LinearProgram:
    """The search's node LP for one (partial) witness path, written over
    the integers.

    ``path`` is an ordered iterable of ``(subset, witness)`` pairs, each
    a two-item sequence whose subset is iterable.  Subset members and
    witnesses must be ints, each subset at least two distinct agents of
    ``0..m-1`` with its witness among them, and no subset may appear
    twice once its members are sorted.

    Variables: one weight per unordered pair, then the baselines as
    ``m`` difference columns, then a shared slack ``s``, counted in units
    of ``1 / L`` with ``L = lcm(den(alpha(m)), den(gamma))``.  The
    baseline columns are ``d_i = b_i - b_{i+1}`` for ``i < m - 1`` and
    ``b_{m-1}`` itself, so ``b_i`` is the sum of columns ``i..m-1`` and
    the order ``b_0 >= ... >= b_{m-1}`` is the lower bounds ``d_i >=
    0``.  Constraints, in one order: the fixed rows (every agent's
    full-coalition utility is at least ``gamma * baseline + s / L``;
    then the one row ``b_0 <= U``, the sum of the baseline columns,
    which with the order caps every baseline; then, if ``q >= 2``, one
    pair row ``alpha(2) * w_ij - b_i <= 0`` per pair ``i < j``, in pair
    order), then one witness row per entry of ``path``, in path order,
    capping the witness's subset utility at their baseline.  Bounds:
    ``-B <= w <= B``, ``d >= 0``, ``b_{m-1} >= 1``, and ``s >= -(L *
    gamma + L * alpha(m) * (m - 1) * B)``; the LP's column unit, the LCM
    of every bound's denominator, makes them ints, and is 1 when ``B`` is
    an integer.  The box is the weights' bounds, not rows, and the LP
    takes the pivots it would take with each ``w <= B`` a row placed
    before every other, in pair order; ``b_0 <= U`` stays a row, since
    ``b_0`` is the sum of every baseline column.  Objective: maximize
    ``s``.  The witness system is strictly feasible iff the optimum is
    positive; the optimum is ``L`` times the slack's.

    Each row is its least integer multiple (times the LCM of its own
    denominators; the ``b_0 <= U`` row is ``den(U) * b_0 <= num(U)``,
    and a full-coalition row is ``-L * alpha(m) * sum_j w_aj + L * gamma
    * b_a + s <= 0``), and the objective is ints, so the LP takes every
    row as it is.  Scaling a row, or the slack's column, by a positive
    constant changes no pivot, so this LP takes the pivots of the one
    written in rationals over the slack itself; only its value and its
    dual are ``L`` times that one's.  With slack coefficient 1, the
    first pivot of a cold solve, the slack entering on the first
    full-coalition row, is ``1`` over the denominator ``1``, and every
    basis that holds the slack has a denominator ``L`` times smaller
    than with coefficient ``L``.

    A pair row is the witness row of ``({i, j}, i)``.  It is fixed, and
    no verdict changes, because the witness-j region lies inside the
    witness-i region (``b_j <= b_i``): some member of the pair fails to
    improve iff the pair row holds.  A path entry for a pair is admitted,
    and its row is then the pair row again or a stronger one.

    The slack's bound cuts off no optimum: the point ``w = -B``, ``b =
    1`` meets every witness row (alpha is positive on sizes >= 2), and
    there every full-coalition row allows exactly that ``s``.  The lower
    bounds also make the LP start feasible: with every variable at its
    lower bound (so every ``w = -B`` and ``b = 1``), each full-coalition
    row's right-hand side is 0 (``L`` times the one it has over the
    slack itself), the ``b_0 <= U`` row's is ``U - 1`` and each pair or
    witness row's is ``1 + alpha(|S|) * B * (|S| - 1)``, and each
    weight is ``2 * B`` below its upper bound, so every row is a ``<=``
    row with a nonnegative right-hand side, every bound holds, and the
    LP's dual phase makes no pivot.
    """
    m = problem.size
    pairs = _pair_index(m)
    num_pairs = len(pairs)
    names = (
        [f"w_{i}_{j}" for i, j in pairs]
        + [f"d_{i}" for i in range(m - 1)]
        + [f"b_{m - 1}", "slack"]
    )
    B, U, width = problem.weight_bound, problem.baseline_bound, len(names)
    # the full rows' -L * alpha(m) and L * gamma, and the slack's unit 1
    full = _row_terms(problem.alpha.value(m), problem.gamma)
    weight, baseline, _ = full
    lower = [-B] * num_pairs + [0] * (m - 1) + [1, weight * (m - 1) * B - baseline]
    upper = [B] * num_pairs + [None] * (m + 1)
    constraints = [_agent_row(problem, pairs, range(m), i, full) for i in range(m)]
    constraints.append(Constraint((0,) * num_pairs + (U.denominator,) * m + (0,), U.numerator))
    if problem.stable_size >= 2:
        pair_terms = _row_terms(problem.alpha.value(2))
        constraints += [_agent_row(problem, pairs, p, p[0], pair_terms) for p in pairs]
    if not isinstance(path, Iterable):
        raise InvalidInputError(
            f"witness path {path!r} is not an iterable of (subset, witness) pairs"
        )
    seen = set()
    for entry in path:
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
        objective=(0,) * (width - 1) + (1,),
        lower=tuple(lower),
        upper=tuple(upper),
    )


def _certificate_ok(problem: SearchProblem, scenario: Scenario) -> bool:
    """Independent re-check of a candidate: box bounds, stability up to
    stable_size, and a strict improvement beyond gamma.  ``|w| <= B`` is
    ``|W| * den(B) <= num(B) * L`` on the cached ints ``W = L * w``."""
    B, U = problem.weight_bound, problem.baseline_bound
    scale, ints = scenario._scaled
    return (
        max(abs(w) for row in ints for w in row) * B.denominator <= B.numerator * scale
        and all(1 <= b <= U for b in scenario.baselines)
        and scenario_is_size_stable(scenario, problem.stable_size)
        and min_improvement_factor(scenario) > problem.gamma
    )


class _Budget(Exception):
    pass


def _conflict(result: Optimal, path: Iterable[tuple], first: int) -> frozenset:
    """The conflict of a node whose optimal slack is not positive: the
    rows of its ``path`` whose slack column has a nonzero reduced cost
    in the final tableau (the node's witness rows start at LP row
    ``first``).  They are the support of the LP's optimal dual, so they,
    the fixed rows and the bounds (the lower bounds and the box ``w <=
    B``) alone bound the slack by the node's value: every node whose
    rows contain them is refuted too."""
    return frozenset(row for row, price in zip(path, result.row_prices()[first:]) if price)


class _Rows:
    """A node's witness rows, and the stored nogoods that refute nodes.

    ``rows`` maps each of the node's rows to its depth, in push order.
    Each stored nogood is watched by one of its rows, and before each
    push that row is one the node lacks; ``watches`` maps a row to the
    nogoods it watches.  The search keeps that true: it learns a
    conflict at the node that the conflict refutes, watched by the
    conflict's newest row, and pops past that row before its next push.
    """

    __slots__ = ("rows", "watches")

    def __init__(self) -> None:
        self.rows: dict[tuple, int] = {}
        self.watches: dict[tuple, list[frozenset]] = {}

    def push(self, row: tuple) -> frozenset | None:
        """Add ``row`` to the node, and return a stored nogood whose rows
        the node's now contain, or None.  Only a nogood that ``row``
        watches can be one: each moves its watch to another row that the
        node lacks, or else refutes the node and keeps its watch."""
        rows = self.rows
        rows[row] = len(rows)
        watching = self.watches.get(row)
        if not watching:
            return None
        for n, nogood in enumerate(watching):
            for other in nogood:
                if other not in rows:
                    self.watches.setdefault(other, []).append(nogood)
                    break
            else:
                del watching[:n]  # the ones that moved
                return nogood
        watching.clear()
        return None

    def pop(self) -> None:
        """Remove the newest row.  A pop undoes no watch: a row the node
        lacked, it still lacks."""
        self.rows.popitem()

    def learn(self, conflict: frozenset) -> frozenset:
        """Store ``conflict``, a set of the node's rows, watched by the
        newest of them; return it.  An empty conflict refutes the root,
        which ends the search, so it is not stored."""
        if conflict:
            newest = max(conflict, key=self.rows.__getitem__)
            self.watches.setdefault(newest, []).append(conflict)
        return conflict


def search_blocking_scenario(problem: SearchProblem) -> SearchResult:
    """Decide the feasibility question for one parameter set.

    Depth-first over witness paths; at each node the LP relaxation is
    solved and the node is refuted when the optimal slack is not
    positive (longer paths only shrink the feasible region).  A node
    whose LP optimum already satisfies every subset constraint yields a
    certificate immediately; otherwise the first subset of size 3..q
    violated at the LP optimum, never one on the path, is branched on
    (the fixed pair rows leave no pair violated).  Each refuted
    subtree's conflict is stored as a nogood, and a node whose rows
    contain some nogood's is refuted without an LP (see the module
    docstring).
    """
    q, m = problem.stable_size, problem.size
    _check_subsets(m, 2, q)  # an upper bound on each node's branching scan
    deadline = (
        time.monotonic() + problem.time_limit if problem.time_limit is not None else None
    )
    stats = {"nodes": 0, "lps": 0}
    pairs = _pair_index(m)
    b_at = len(pairs)
    root = witness_system_lp(problem, ())
    first_witness_row = len(root.constraints)
    node = _Rows()

    def reach() -> None:
        """Count a node; stop the search once a budget is spent."""
        stats["nodes"] += 1
        if problem.node_limit is not None and stats["nodes"] > problem.node_limit:
            raise _Budget
        if deadline is not None and time.monotonic() > deadline:
            raise _Budget

    def explore(lp: LinearProgram, start: Optimal | None) -> Scenario | frozenset:
        reach()
        stats["lps"] += 1
        result = solve(lp, start)
        if not isinstance(result, Optimal):  # starts feasible and is box-bounded
            raise AssertionError(f"node LP returned {result!r}")
        if result.value <= 0:
            return node.learn(_conflict(result, node.rows, first_witness_row))
        # the LP point as ints over one positive denominator, read once: it
        # leaves every strict comparison of the kernel as it is, and over
        # den it is the certificate
        point, den = result.scaled_point()
        weights = [[0] * m for _ in range(m)]
        for (i, j), p in pairs.items():
            weights[i][j] = weights[j][i] = point[p]
        baselines = [(x, 1) for x in _baselines(point[b_at:b_at + m])]
        # the fixed pair rows hold at the optimum, so no pair blocks
        branch_on = next(_blocking_coalitions(weights, baselines, problem.alpha, 3, q), None)
        if any(branch_on == subset for subset, _ in node.rows):
            # at the exact optimum every assigned witness row holds
            raise AssertionError(f"assigned subset {branch_on} violated at the LP optimum")
        if branch_on is None:
            # the LP point already satisfies every subset; certify it, from
            # the ints that chose no branch, over their denominator
            bases = [Fraction(b, den) for b, _ in baselines]
            candidate = Scenario.from_pairs(
                problem.alpha, m, lambda i, j: Fraction(weights[i][j], den), bases
            )
            if not _certificate_ok(problem, candidate):
                raise AssertionError("LP point failed independent re-verification")
            return candidate
        learned: set = set()
        for agent in branch_on:
            row = (branch_on, agent)
            found = node.push(row)
            if found is None:
                child = lp._with_rows((_agent_row(problem, pairs, branch_on, agent),))
                found = explore(child, result)
            else:
                reach()  # refuted by a stored nogood, with no LP
            node.pop()
            if isinstance(found, Scenario):
                return found
            if row not in found:
                # the conflict lies on this node's own path: no sibling
                # can escape it
                return found
            learned |= found
            learned.discard(row)
        return node.learn(frozenset(learned))

    try:
        # the root is the witness-free system, solved cold
        found = explore(root, None)
    except _Budget:
        return SearchResult(BUDGET_EXHAUSTED, None, stats["nodes"], stats["lps"])
    if isinstance(found, Scenario):
        return SearchResult(FEASIBLE, found, stats["nodes"], stats["lps"])
    return SearchResult(INFEASIBLE_WITHIN_BOUNDS, None, stats["nodes"], stats["lps"])
