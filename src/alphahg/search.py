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
lexicographic) order, witness candidates in index order, depth-first.
A node's path is the (subset, witness) pairs chosen from the root down
to it, and its LP is ``witness_system_lp(problem, path)`` row for row:
the fixed rows, then one witness row per pair in path order.  The root
is ``witness_system_lp(problem, ())``, and each child is its parent's
LP with the one new witness row appended.  Each child LP is
re-optimised from its parent's optimum by the dual simplex
(``solve(child, parent_result)``); that may change which optimal point
a node gets, never its value.  The subset to branch on is read from the
LP point's ints (numerators over the tableau's denominator), by the
stability module's subset kernel; a :class:`Scenario` is built only for
a certificate.

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
  *nogood*.  The fixed rows, and the set of subset constraints, are
  invariant under every permutation of the ``m`` agents (Margot,
  *Symmetry in integer linear programming*, 2010), so a relabelled
  nogood refutes too.  Before a node's LP is solved the node is refuted,
  with no LP, if some nogood maps into its rows under a permutation of
  the agents; its conflict is that image.  A nogood is tried only on a
  node whose row counts (per size, per witness, per member) cover its
  own; the matcher then backtracks over its rows, each next row sharing
  agents with the ones before, and never enumerates the ``m!``
  permutations.  A nogood the parent was checked against can only map
  onto the node's rows by sending a row to the newest one, so only
  nogoods learned since then need a full match.

Every Feasible verdict is re-verified by the stability module before
being returned; Infeasible verdicts are relative to the weight/baseline
box.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from numbers import Real

from ._rat import exact, integer
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
    ``budget_exhausted`` makes no claim.  ``nodes_explored`` counts
    every node the search reached, and the node limit is checked against
    it; a node refuted by a nogood is counted there but solves no LP, so
    ``lps_solved`` can be smaller.
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
    path: Iterable[tuple[Sequence[int], int]],
) -> LinearProgram:
    """The search's node LP for one (partial) witness path.

    ``path`` is an ordered iterable of ``(subset, witness)`` pairs, each
    a two-item sequence whose subset is iterable.  Subset members and
    witnesses must be ints, each subset at least two distinct agents of
    ``0..m-1`` with its witness among them, and no subset may appear
    twice once its members are sorted.

    Variables: one weight per unordered pair, one baseline per agent,
    and a shared slack.  Constraints, in one order: the fixed rows
    (every agent's full-coalition utility is at least ``gamma *
    baseline + slack``; ``w <= B`` per pair, then ``b <= U`` per agent),
    then one witness row per pair of ``path``, in path order, capping
    the witness's subset utility at their baseline.  Lower bounds: ``w
    >= -B``, ``b >= 1``, and ``slack >= -(gamma + alpha(m) * (m - 1) *
    B)``.  Objective: maximize the slack.  The witness system is
    strictly feasible iff the optimum slack is positive.

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


def _conflict(result: Optimal, path: Sequence[tuple], first: int) -> frozenset:
    """The conflict of a node whose optimal slack is not positive: the
    rows of its ``path`` whose slack column has a nonzero reduced cost
    in the final tableau (the node's witness rows start at LP row
    ``first``).  They are the support of the LP's optimal dual, so they,
    the fixed rows and the lower bounds alone bound the slack by the
    node's value: every node whose rows contain them is refuted too."""
    return frozenset(row for row, price in zip(path, result.row_prices()[first:]) if price)


class _Rows:
    """A node's witness rows: ``rows`` in push order, indexed for matching
    by subset size, and per agent the number of rows that name them as
    witness and that contain them.  An entry of ``by_size`` is
    ``(members mask, witness, row)``."""

    __slots__ = ("rows", "by_size", "witness", "member")

    def __init__(self, rows: Iterable[tuple], m: int) -> None:
        self.rows: list[tuple] = []
        self.by_size: dict[int, list] = {}
        self.witness = [0] * m
        self.member = [0] * m
        for row in rows:
            self.push(row)

    def push(self, row: tuple) -> None:
        subset, agent = row
        self.rows.append(row)
        self.by_size.setdefault(len(subset), []).append((sum(1 << x for x in subset), agent, row))
        self.witness[agent] += 1
        for x in subset:
            self.member[x] += 1

    def pop(self) -> None:
        subset, agent = self.rows.pop()
        self.by_size[len(subset)].pop()
        self.witness[agent] -= 1
        for x in subset:
            self.member[x] -= 1

    def profile(self) -> tuple[list[int], list[int]]:
        return sorted(self.witness, reverse=True), sorted(self.member, reverse=True)


class _Nogood:
    """A stored conflict: its rows, largest subsets first, each as
    ``(size, witness, other members, members mask)``; one matching plan
    per choice of first row; its number of rows of each size; per agent
    the number of its rows that name them as witness and that contain
    them; and those counts sorted."""

    __slots__ = ("parts", "plans", "sizes", "witness", "member", "profile")

    def __init__(self, conflict: frozenset, m: int) -> None:
        self.parts = [
            (len(subset), a, tuple(x for x in subset if x != a), sum(1 << x for x in subset))
            for subset, a in sorted(conflict, key=lambda row: (-len(row[0]), row))
        ]
        self.plans: list = [None] * len(self.parts)  # each made when first needed
        self.sizes = Counter(part[0] for part in self.parts)
        self.witness = [sum(part[1] == x for part in self.parts) for x in range(m)]
        self.member = [sum(part[3] >> x & 1 for part in self.parts) for x in range(m)]
        self.profile = sorted(self.witness, reverse=True), sorted(self.member, reverse=True)

    def plan(self, i: int) -> tuple:
        """The matching plan that starts with row ``i``: each next row
        shares the most agents with the rows before it.  Each step is
        ``(size, witness, other members, later)``, where ``later`` is the
        bitmask of the agents of the steps after it."""
        if self.plans[i] is None:
            rest = self.parts[i + 1:] + self.parts[:i]
            order, seen = [self.parts[i]], self.parts[i][3]
            while rest:
                best = max(rest, key=lambda part: (seen & part[3]).bit_count())
                rest.remove(best)
                order.append(best)
                seen |= best[3]
            steps, later = [], 0
            for size, a, others, mask in reversed(order):
                steps.append((size, a, others, later))
                later |= mask
            self.plans[i] = tuple(reversed(steps))
        return self.plans[i]

    def fits(self, node: _Rows, profile: tuple[list[int], list[int]]) -> bool:
        """A necessary condition for a match: ``node`` has at least as
        many rows of each size, and the k-th largest witness and member
        count of the nogood's agents is at most the node's (``profile``)."""
        for size, count in self.sizes.items():
            if len(node.by_size.get(size, ())) < count:
                return False
        return all(x <= y for x, y in zip(self.profile[0], profile[0])) and all(
            x <= y for x, y in zip(self.profile[1], profile[1])
        )

    def image(self, node: _Rows, profile: tuple, newest: tuple | None = None) -> frozenset | None:
        """The rows of ``node`` onto which some relabelling of the agents
        maps this nogood, or None; ``profile`` is ``node.profile()``.
        With ``newest``, an entry of ``node``, only a relabelling that
        sends some row onto it counts (so an empty nogood never does)."""
        if not self.fits(node, profile):
            return None
        image, out = [-1] * len(self.witness), []
        if newest is None:
            if not self.parts or _match(self, self.plan(0), 0, node, image, 0, out):
                return frozenset(out)
            return None
        size = len(newest[2][0])
        for i, part in enumerate(self.parts):
            if part[0] == size and _match(self, self.plan(i), 0, node, image, 0, out, newest):
                return frozenset(out)
        return None


def _match(nogood, steps, k, node, image, used, out, seed=None) -> bool:
    """Extend the partial agent map ``image`` (-1 where unset; ``used``
    the bitmask of its values) to steps ``k..`` of one of ``nogood``'s
    plans, each step onto an entry of ``node`` (a :class:`_Rows`), and
    each agent onto one named by at least as many of the node's rows.
    Matched rows are appended to ``out``.  ``seed``, if given, is the
    only entry step ``k`` may take.  An unset member that no later step
    names takes whichever free slot is left, so only the members that
    later steps read are permuted."""
    if k == len(steps):
        return True
    size, a, others, later = steps[k]
    need_w, need_m = nogood.witness, nogood.member
    have_w, have_m = node.witness, node.member
    target = image[a]
    candidates = (seed,) if seed is not None else node.by_size.get(size, ())
    mapped, free = 0, []
    for x in others:
        y = image[x]
        if y >= 0:
            mapped |= 1 << y
        else:
            free.append(x)
    named = [x for x in free if later >> x & 1]
    for mask, b, row in candidates:
        if target >= 0:
            # a set witness takes only the rows it heads
            if b != target:
                continue
        elif used >> b & 1 or need_w[a] > have_w[b] or need_m[a] > have_m[b]:
            continue
        rest = mask & ~(1 << b)
        slots = rest & ~mapped
        if mapped & ~rest or slots & used:
            continue
        now_used = used | rest | 1 << b
        image[a] = b
        out.append(row)
        free_slots = [y for y in range(mask.bit_length()) if slots >> y & 1]
        for chosen in permutations(free_slots, len(named)):
            if any(
                need_w[x] > have_w[y] or need_m[x] > have_m[y] for x, y in zip(named, chosen)
            ):
                continue
            for x, y in zip(named, chosen):
                image[x] = y
            if _match(nogood, steps, k + 1, node, image, now_used, out):
                return True
        for x in named:
            image[x] = -1
        out.pop()
        image[a] = target
    return False


def search_blocking_scenario(problem: SearchProblem) -> SearchResult:
    """Decide the feasibility question for one parameter set.

    Depth-first over witness paths; at each node the LP relaxation is
    solved and the node is refuted when the optimal slack is not
    positive (longer paths only shrink the feasible region).  A node
    whose LP optimum already satisfies every subset constraint yields a
    certificate immediately; otherwise the first subset violated at the
    LP optimum, never one on the path, is branched on.  Each refuted
    subtree's conflict is learned as a nogood, and a node into whose
    rows some nogood maps under a relabelling of the agents is refuted
    without an LP (see the module docstring).
    """
    q, m = problem.stable_size, problem.size
    _check_subsets(m, 2, q)  # each node's branching scan
    deadline = (
        time.monotonic() + problem.time_limit if problem.time_limit is not None else None
    )
    stats = {"nodes": 0, "lps": 0}
    pairs = _pair_index(m)
    b_at = len(pairs)
    root = witness_system_lp(problem, ())
    first_witness_row = len(root.constraints)
    nogoods: list[_Nogood] = []
    node = _Rows((), m)

    def learn(conflict: frozenset) -> frozenset:
        nogoods.append(_Nogood(conflict, m))
        return conflict

    def refuting_image(checked: int) -> frozenset | None:
        """The image of a nogood in the node's rows, or None.  The first
        ``checked`` nogoods were tried on the parent, so they can only
        map onto this node's rows by sending some row to its newest."""
        newest = node.by_size[len(node.rows[-1][0])][-1]
        profile = node.profile()
        for n, nogood in enumerate(nogoods):
            image = nogood.image(node, profile, newest if n < checked else None)
            if image is not None:
                return image
        return None

    def explore(lp: LinearProgram, start: Optimal | None, checked: int) -> Scenario | frozenset:
        stats["nodes"] += 1
        if problem.node_limit is not None and stats["nodes"] > problem.node_limit:
            raise _Budget
        if deadline is not None and time.monotonic() > deadline:
            raise _Budget
        if nogoods:
            image = refuting_image(checked)
            if image is not None:
                return image
        checked = len(nogoods)
        stats["lps"] += 1
        result = solve(lp, start)
        if not isinstance(result, Optimal):  # starts feasible and is box-bounded
            raise AssertionError(f"node LP returned {result!r}")
        if result.value <= 0:
            return learn(_conflict(result, node.rows, first_witness_row))
        # the LP point as ints over one positive denominator, which leaves
        # every strict comparison of the kernel as it is
        point = result.scaled_point()[0]
        weights = [[0] * m for _ in range(m)]
        for (i, j), p in pairs.items():
            weights[i][j] = weights[j][i] = point[p]
        baselines = [(x, 1) for x in point[b_at:b_at + m]]
        branch_on = _first_blocking(weights, baselines, problem.alpha, 2, q)
        if any(branch_on == subset for subset, _ in node.rows):
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
        learned: set = set()
        for agent in branch_on:
            row = (branch_on, agent)
            node.push(row)
            child = lp._with_rows((_agent_row(problem, pairs, branch_on, agent),))
            found = explore(child, result, checked)
            node.pop()
            if isinstance(found, Scenario):
                return found
            if row not in found:
                # the conflict lies on this node's own path: no sibling
                # can escape it
                return found
            learned |= found
            learned.discard(row)
        return learn(frozenset(learned))

    try:
        # the root is the witness-free system, solved cold
        found = explore(root, None, 0)
    except _Budget:
        return SearchResult(BUDGET_EXHAUSTED, None, stats["nodes"], stats["lps"])
    if isinstance(found, Scenario):
        return SearchResult(FEASIBLE, found, stats["nodes"], stats["lps"])
    return SearchResult(INFEASIBLE_WITHIN_BOUNDS, None, stats["nodes"], stats["lps"])
