"""Exact rational linear programming.

A small dense two-phase primal simplex with integer pivoting: each
constraint row is scaled to Python ints once, and the tableau is kept
as ints over one common denominator, so the pivots run on plain int
arithmetic and never on ``Fraction``.
Bland's rule guarantees termination; there is no floating point and no
tolerance anywhere, so Optimal/Infeasible/Unbounded verdicts, values
and points are exact.  The intended scale is a few hundred variables
and constraints.

Each variable is free or has a rational lower bound; a nonnegative
variable is one with ``lower = 0``.  A free variable is split into a
nonnegative pair internally; a bounded one is solved as ``x - lower >=
0`` and its bound added back to the returned point.  Relations are
non-strict (strictness is encoded upstream, e.g. via a maximized slack
variable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import InvalidInputError

RELATIONS = ("<=", "=", ">=")


class Constraint(NamedTuple):
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction


def _fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _fractions(values) -> tuple[Fraction, ...]:
    return tuple(map(_fraction, values))


@dataclass(frozen=True)
class LinearProgram:
    """Maximize ``objective . x`` subject to the constraints and
    ``x[v] >= lower[v]`` for every variable whose bound is not None."""

    names: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    objective: tuple[Fraction, ...]
    lower: tuple[Fraction | None, ...] = field(default=())

    def __post_init__(self) -> None:
        n = len(self.names)
        if n == 0:
            raise InvalidInputError("a program needs at least one variable")
        if len(set(self.names)) != n:
            raise InvalidInputError("variable names must be unique")
        if len(self.objective) != n:
            raise InvalidInputError("objective length must match variable count")
        lower = self.lower or (None,) * n
        if len(lower) != n:
            raise InvalidInputError("lower bounds must match variable count")
        rows = []
        for c in self.constraints:
            coeffs, relation, rhs = c
            if relation not in RELATIONS:
                raise InvalidInputError(f"unknown relation {relation!r}")
            if len(coeffs) != n:
                raise InvalidInputError("constraint length must match variable count")
            rows.append(Constraint(_fractions(coeffs), relation, _fraction(rhs)))
        object.__setattr__(self, "constraints", tuple(rows))
        object.__setattr__(self, "objective", _fractions(self.objective))
        object.__setattr__(
            self, "lower", tuple(None if x is None else _fraction(x) for x in lower)
        )

    @classmethod
    def maximize(
        cls,
        objective: Sequence,
        constraints: Iterable[tuple[Sequence, str, object]],
        names: Sequence[str] | None = None,
        lower: Sequence | None = None,
    ) -> "LinearProgram":
        n = len(objective)
        if names is None:
            names = tuple(f"x{i}" for i in range(n))
        return cls(
            names=tuple(names),
            constraints=tuple(Constraint(tuple(co), rel, rhs) for co, rel, rhs in constraints),
            objective=tuple(objective),
            lower=tuple(lower) if lower is not None else (),
        )

    @property
    def num_vars(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class Optimal:
    value: Fraction
    assignment: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class Unbounded:
    pass


SolveResult = Union[Optimal, Infeasible, Unbounded]


class _Tableau:
    """Dense simplex tableau of Python ints over one common denominator.

    Integer pivoting (Edmonds 1967; Bareiss 1968): the true tableau is
    ``rows / d`` with ``d > 0``, each row carrying its right-hand side
    as the last cell, and ``obj`` the reduced-cost row (last cell: minus
    the objective value), also over ``d``.  ``d`` is up to sign the
    determinant of the current basis matrix, so every cell is a minor of
    the integer constraint matrix (bordered by the integer cost row, for
    ``obj``) and each update ``(x*p - f*y) // d`` divides exactly.
    """

    def __init__(self, rows, basis, num_cols):
        self.rows = rows          # list of int lists, num_cols + 1 long
        self.basis = basis        # basic column index per row
        self.num_cols = num_cols
        self.d = 1
        self.obj = None           # reduced-cost row, when an objective is set

    def pivot(self, r: int, c: int) -> None:
        prow = self.rows[r]
        p, d = prow[c], self.d
        others = [row for i, row in enumerate(self.rows) if i != r]
        if self.obj is not None:
            others.append(self.obj)
        for row in others:
            f = row[c]
            if f:
                row[:] = [(x * p - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                row[:] = [x * p // d for x in row]
        if p < 0:
            # only an artificial pivoted out after phase 1 lands here;
            # flip every row so the denominator stays positive
            for row in others + [prow]:
                row[:] = [-x for x in row]
            p = -p
        self.d = p
        self.basis[r] = c

    def run(self, allowed):
        """Primal simplex on the current basis and objective row.

        Maximization: optimal when no allowed reduced cost is positive.
        Returns "optimal" or "unbounded".  Bland's rule throughout
        (lowest-index entering and leaving variable), which guarantees
        termination.
        """
        rows, obj, basis = self.rows, self.obj, self.basis
        while True:
            entering = -1
            for j in range(self.num_cols):
                if allowed[j] and obj[j] > 0:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            # ratio rhs/a over rows with a > 0, compared by cross-multiplying
            leaving = -1
            best_rhs = best_a = 0
            for i, row in enumerate(rows):
                a = row[entering]
                if a > 0:
                    if leaving >= 0:
                        lhs, rhs = row[-1] * best_a, best_rhs * a
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[leaving]):
                            continue
                    best_rhs, best_a, leaving = row[-1], a, i
            if leaving < 0:
                return "unbounded"
            self.pivot(leaving, entering)


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The rationals times the LCM of their denominators, as ints, and
    that LCM."""
    common = lcm(*{x.denominator for x in values})
    return [x.numerator * (common // x.denominator) for x in values], common


def solve(lp: LinearProgram) -> SolveResult:
    """Solve exactly; every Optimal assignment satisfies all constraints
    with exact rational comparison."""
    n = lp.num_vars

    # column layout: one column per bounded variable (x - lower), a
    # (plus, minus) pair per free variable
    col_of: list[tuple[int, int]] = []  # (plus column, minus column or -1)
    num_struct = 0
    for bound in lp.lower:
        if bound is not None:
            col_of.append((num_struct, -1))
            num_struct += 1
        else:
            col_of.append((num_struct, num_struct + 1))
            num_struct += 2

    def expand(values) -> list[int]:
        row = [0] * num_struct
        for v, x in enumerate(values):
            if x:
                plus, minus = col_of[v]
                row[plus] = x
                if minus >= 0:
                    row[minus] = -x
        return row

    # the lower bounds as ints over one common denominator; a free
    # variable is not shifted
    low, low_den = _scaled([Fraction(0) if x is None else x for x in lp.lower])

    # canonicalize every constraint to <= or = with rhs >= 0, as one int
    # row (coefficients, then rhs) scaled by the LCM of its denominators;
    # substituting x = y + lower leaves rhs - sum(c * lower) on the right
    canon: list[tuple[list[int], str, int]] = []
    for coeffs, relation, rhs in lp.constraints:
        scaled, common = _scaled((*coeffs, rhs))
        shift = sum(map(mul, scaled, low))  # stops before the rhs
        if shift:
            # over common * low_den the rhs is r; dividing the row and
            # that denominator by their gcd rescales the row to the LCM
            # of the shifted row's denominators
            r = scaled[-1] * low_den - shift
            g = gcd(gcd(common, *scaled[:-1]) * low_den, r)
            scaled = [c * low_den // g for c in scaled[:-1]] + [r // g]
            common = common * low_den // g
        row = expand(scaled[:-1])
        r = scaled[-1]
        if relation == ">=":
            row = [-x for x in row]
            r = -r
            relation = "<="
        if r < 0:
            row = [-x for x in row]
            r = -r
            relation = {"<=": ">=", ">=": "<=", "=": "="}[relation]
        canon.append((row + [r], relation, common))

    num_slack = sum(1 for _, rel, _ in canon if rel in ("<=", ">="))
    num_art = sum(1 for _, rel, _ in canon if rel in (">=", "="))
    total = num_struct + num_slack + num_art

    # slack and artificial columns get coefficient +-1 in the scaled row,
    # so each stands for its row's LCM times the Fraction tableau's
    # variable; that positive column scaling leaves every sign, ratio
    # order and so every pivot unchanged
    rows: list[list[int]] = []
    basis: list[int] = []
    art_cols: list[int] = []
    slack_at = num_struct
    art_at = num_struct + num_slack
    for row, relation, _ in canon:
        full = row[:-1] + [0] * (num_slack + num_art) + row[-1:]
        if relation == "<=":
            full[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        elif relation == ">=":
            full[slack_at] = -1
            slack_at += 1
            full[art_at] = 1
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        else:
            full[art_at] = 1
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        rows.append(full)

    tab = _Tableau(rows, basis, total)
    art_set = set(art_cols)
    allowed = [True] * total

    if art_cols:
        # phase 1: maximize minus the sum of the Fraction tableau's
        # artificials, i.e. each integer artificial weighted by 1/L_i;
        # the objective row is scaled by M = lcm(L_i) to stay integral
        art_rows = [i for i, b in enumerate(basis) if b in art_set]
        big = lcm(*{canon[i][2] for i in art_rows})
        obj = [0] * (total + 1)
        for i in art_rows:
            w = big // canon[i][2]
            for j, x in enumerate(rows[i]):
                if x:
                    obj[j] += w * x
            obj[basis[i]] -= w  # basic columns price out to 0
        # its last cell, sum(w * rhs), is minus M times the phase-1 value
        tab.obj = obj
        status = tab.run(allowed)
        assert status == "optimal"  # phase-1 objective is bounded above by 0
        if obj[-1] != 0:
            return Infeasible()
        tab.obj = None
        # pivot surviving artificials out of the basis, or drop their rows
        for i in range(len(tab.basis) - 1, -1, -1):
            if tab.basis[i] in art_set:
                for j in range(num_struct + num_slack):
                    if tab.rows[i][j] != 0:
                        tab.pivot(i, j)
                        break
                else:
                    del tab.rows[i]
                    del tab.basis[i]
        for c in art_cols:
            allowed[c] = False

    # phase 2: the real objective (scaled to ints), priced out for the
    # current basis
    cost = expand(_scaled(lp.objective)[0]) + [0] * (total - num_struct)
    d = tab.d
    obj = [d * x for x in cost] + [0]
    for i, b in enumerate(tab.basis):
        cb = cost[b]
        if cb:
            for j, x in enumerate(tab.rows[i]):
                if x:
                    obj[j] -= cb * x
    tab.obj = obj
    if tab.run(allowed) == "unbounded":
        return Unbounded()

    d = tab.d
    col_value = {b: tab.rows[i][-1] for i, b in enumerate(tab.basis)}
    assignment = []
    for v in range(n):
        plus, minus = col_of[v]
        x = col_value.get(plus, 0)
        if minus >= 0:
            x -= col_value.get(minus, 0)
        assignment.append(Fraction(x * low_den + low[v] * d, d * low_den))
    objective_value = sum(
        (c * x for c, x in zip(lp.objective, assignment)), Fraction(0)
    )
    return Optimal(objective_value, tuple(assignment))


def satisfies(lp: LinearProgram, assignment: Sequence[Fraction]) -> bool:
    """Exact feasibility check of an assignment against all constraints."""
    if len(assignment) != lp.num_vars:
        return False
    for x, bound in zip(assignment, lp.lower):
        if bound is not None and x < bound:
            return False
    for coeffs, relation, rhs in lp.constraints:
        lhs = sum((c * x for c, x in zip(coeffs, assignment)), Fraction(0))
        if relation == "<=" and not lhs <= rhs:
            return False
        if relation == ">=" and not lhs >= rhs:
            return False
        if relation == "=" and lhs != rhs:
            return False
    return True
