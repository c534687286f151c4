"""Exact rational linear programming.

A small simplex with integer pivoting: each constraint row is scaled to
Python ints once, and the tableau is kept as ints over one common
denominator, so the pivots run on plain int arithmetic and never on
``Fraction``.  An entry that is an int stays an int (and a ``Fraction``
a ``Fraction``), so a row of ints goes in with no LCM.  Every
constraint is admitted by one path, and a :class:`Constraint` whose
entries all stay as they are comes out as the very object it is.
Bland's rule guarantees termination.  It is written once, as two
functions through which the primal and the dual simplex pick every
pivot: :func:`_lowest` takes the lowest of the chosen labels, and
:func:`_least_ratio` runs the least-ratio test with ties to the lowest
label.  There is no floating point and no tolerance anywhere, so
Optimal/Infeasible/Unbounded verdicts, values and points are exact.
The intended scale is a few hundred variables and constraints.

Scaling a row by a positive constant changes no pivot, and neither
does scaling a column, that is, a variable's unit: Bland's rule reads
signs, and ratios within one row or one column, and each scales by one
positive factor.  So a caller may state a row as its least integer
multiple, and a variable in whatever unit keeps the integers small; the
tableau's denominator, the common denominator of its basis, shrinks
with them.

The tableau is condensed: it stores only the nonbasic columns, each
with its label (structural columns first, then one slack per row), and
a pivot puts the leaving column where the entering one was.  Appending
a row adds no column, and a pivot updates no basic slack's unit column.
Bland's rule breaks its ties by label, not by position, so the pivots
are those of the full tableau with its columns in label order.

Every constraint has one form, ``coeffs . x <= rhs`` with ``rhs`` of
either sign; :meth:`LinearProgram.maximize` alone reads ``>=`` (stored
negated) and ``=`` (the row, then its negation).  Strictness is encoded
upstream, e.g. via a maximized slack variable.  Each variable is free
or has a rational lower bound (``lower = 0`` for a nonnegative one).  A
free variable is split into a nonnegative pair internally; a bounded
one is solved as ``x - lower >= 0`` and its bound added back to the
returned point.

There is one path.  A solve appends one row per constraint to a
tableau, as ``a . y + s = r`` with a fresh slack ``s >= 0`` basic, and
reads each against the tableau's basis (:meth:`_Tableau.reduced`).  The
basis stays dual feasible, so a dual simplex (Bland's rule on the dual)
restores primal feasibility or finds a row with a negative right-hand
side and no negative entry, which proves the program infeasible; its
slack entries are then nonnegative multipliers of the scaled rows (a
Farkas certificate).  A cold solve starts from the empty program: no
rows, ``d = 1`` and a zero objective, which every basis prices dual
feasible, so the dual simplex is its phase 1; no structural column is
basic there, so each row reads as it is.  It then reads the real
objective against its basis by the same reduction, and runs the primal
simplex.

An :class:`Optimal` is only ever one that :func:`solve` returned, and
it keeps the program it solved, that program's int columns and its
final tableau.  ``solve(lp, start)``, where ``start`` solved a program
whose constraints are a prefix of ``lp``'s (same names, objective and
lower bounds), copies that tableau, appends only the new rows and
stops after the dual simplex.  The value and verdict equal a cold
solve's; the optimal point may be a different one.  An optimum reads
its value, point and prices off its own final tableau: the value off
the objective row, the point's numerators over one denominator
(:meth:`Optimal.scaled_point`) off the right-hand sides, and the
reduced costs of the rows' slack columns, whose nonzero entries are the
support of the optimal dual (:meth:`Optimal.row_prices`), off the
objective row; from those comes the optimal dual itself, one
multiplier ``y >= 0`` per constraint (:meth:`Optimal.dual`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Sequence, Union

from ._rat import exact, rationals, scaled
from .errors import InvalidInputError


class Constraint(NamedTuple):
    """``coeffs . x <= rhs``."""

    coeffs: tuple[int | Fraction, ...]
    rhs: int | Fraction


def _entry(value: object) -> int | Fraction:
    """An ``int`` or ``Fraction`` entry as it is, any other by :func:`exact`."""
    return value if type(value) in (int, Fraction) else exact(value)


def _entries(values) -> tuple:
    """:func:`_entry` of each of ``values`` (:func:`rationals`), as a
    tuple; a tuple of ints and Fractions as it is."""
    if type(values) is tuple and {int, Fraction}.issuperset(map(type, values)):
        return values
    return rationals(values, _entry)


def _checked(c, n: int) -> Constraint:
    """``c`` admitted as a :class:`Constraint` on ``n`` variables: every
    input is unpacked, its length checked and its entries admitted
    (:func:`_entries`, :func:`_entry`).  A ``Constraint`` whose admitted
    coefficient tuple and rhs are its own (a tuple whose entries are
    ints and ``Fraction`` objects, and an int or a ``Fraction``; a bool
    is neither) is kept as it is, since rebuilding it would give an
    equal one."""
    try:
        coeffs, rhs = c
    except (TypeError, ValueError):
        raise InvalidInputError(f"a constraint is a (coeffs, rhs) pair, not {c!r}") from None
    if len(coeffs) != n:
        raise InvalidInputError("constraint length must match variable count")
    entries, value = _entries(coeffs), _entry(rhs)
    if type(c) is Constraint and entries is coeffs and value is rhs:
        return c
    return Constraint(entries, value)


def _bound(value: object) -> int | Fraction | None:
    """A variable's lower bound: a rational, or None for none."""
    return None if value is None else _entry(value)


@dataclass(frozen=True)
class LinearProgram:
    """Maximize ``objective . x`` subject to the constraints, each a
    :class:`Constraint` ``coeffs . x <= rhs``, and ``x[v] >= lower[v]``
    for every variable whose bound is not None."""

    names: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    objective: tuple[int | Fraction, ...]
    lower: tuple[int | Fraction | None, ...] = field(default=())

    def __post_init__(self) -> None:
        if isinstance(self.names, (str, bytes)):
            raise InvalidInputError(f"not a sequence of variable names: {self.names!r}")
        object.__setattr__(self, "names", tuple(self.names))
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
        object.__setattr__(self, "constraints", tuple(_checked(c, n) for c in self.constraints))
        object.__setattr__(self, "objective", _entries(self.objective))
        object.__setattr__(self, "lower", rationals(lower, _bound))

    @classmethod
    def maximize(
        cls,
        objective: Sequence,
        constraints: Iterable[tuple[Sequence, str, object]],
        names: Sequence[str] | None = None,
        lower: Sequence | None = None,
    ) -> "LinearProgram":
        """The program from ``(coeffs, relation, rhs)`` triples, each
        relation ``"<="``, ``">="`` or ``"="``: a ``>=`` is stored
        negated, and an ``=`` as the row followed by its negation."""
        n = len(objective)
        if names is None:
            names = tuple(f"x{i}" for i in range(n))
        rows = []
        for c in constraints:
            try:
                coeffs, relation, rhs = c
            except (TypeError, ValueError):
                raise InvalidInputError(f"not a (coeffs, relation, rhs) triple: {c!r}") from None
            if relation not in ("<=", ">=", "="):
                raise InvalidInputError(f"unknown relation {relation!r}")
            if relation != ">=":
                rows.append((coeffs, rhs))
            if relation != "<=":
                rows.append(([-x for x in _entries(coeffs)], -_entry(rhs)))
        return cls(
            names=names,
            constraints=tuple(rows),
            objective=objective,
            lower=() if lower is None else lower,
        )

    def _with_rows(self, rows: Iterable) -> "LinearProgram":
        """This program with ``rows`` appended; only the new rows are
        checked, since this program's own were checked when it was made."""
        n = self.num_vars
        lp = object.__new__(LinearProgram)
        lp.__dict__.update(
            self.__dict__, constraints=self.constraints + tuple(_checked(c, n) for c in rows)
        )
        return lp

    @property
    def num_vars(self) -> int:
        return len(self.names)


class Optimal:
    """An optimum that :func:`solve` returned: the program it solved,
    that program's columns and its final tableau, so that it can be the
    ``start`` of a later solve.  Its ``value``, point and row prices are
    read off that tableau, which is never changed again (a warm solve
    copies it): the value once, the point and the prices on each call."""

    __slots__ = ("value", "_lp", "_columns", "_tab")

    def __init__(self, lp: LinearProgram, columns: _Columns, tab: _Tableau) -> None:
        self._lp, self._columns, self._tab = lp, columns, tab
        # the objective row's last cell is -d times cost . y at the basis
        # (y = x - lower), and cost is the objective times cost_scale
        self.value = Fraction(-tab.obj[-1], tab.d * columns.cost_scale) + columns.at_lower

    @property
    def assignment(self) -> tuple[Fraction, ...]:
        nums, den = self.scaled_point()
        return tuple(Fraction(x, den) for x in nums)

    def scaled_point(self) -> tuple[list[int], int]:
        """The point as int numerators over one positive common
        denominator, ``d * low_den``: the tableau's right-hand sides over
        ``d`` shifted by the lower bounds scaled to the same denominator."""
        tab, d, low_den = self._tab, self._tab.d, self._columns.low_den
        # a bounded variable's minus label is -1, which no column has
        col_value = {b: row[-1] for b, row in zip(tab.basis, tab.rows)}
        nums = [
            (col_value.get(plus, 0) - col_value.get(minus, 0)) * low_den + low * d
            for (plus, minus), low in zip(self._columns.col_of, self._columns.low)
        ]
        return nums, d * low_den

    def row_prices(self) -> list[int]:
        """The reduced costs of the slack columns of the final tableau's
        rows, one row per constraint in order, as ints over its
        denominator (0 for a basic slack, whose column the tableau does
        not store): each is ``<= 0``, and minus the row's price in the
        optimal dual.  So the rows with a nonzero entry are the support
        of that dual, and those rows with the lower bounds alone bound
        the objective by ``value``."""
        columns, tab = self._columns, self._tab
        prices = [0] * len(tab.rows)
        for label, x in zip(tab.nonbasic, tab.obj):
            if label >= columns.num:
                prices[label - columns.num] = x
        return prices

    def dual(self) -> list[Fraction]:
        """The optimal dual: one multiplier ``y_i >= 0`` per constraint
        of the program that :func:`solve` solved, in its order.  With ``z
        = A^T y - objective``, ``z >= 0`` on every variable with a lower
        bound and ``z = 0`` on a free one; and ``y . rhs - z . lower``
        equals ``value``.  So, with the point, they prove the optimum in
        plain rational arithmetic.  Each is a :meth:`row_prices` entry
        over the tableau's denominator, negated, times its row's scale
        (:meth:`_Columns.row`) over the objective's."""
        columns = self._columns
        den = self._tab.d * columns.cost_scale
        return [
            -price * Fraction(*columns.row(c)[1]) / den
            for price, c in zip(self.row_prices(), self._lp.constraints)
        ]

    def __repr__(self) -> str:
        return f"Optimal(value={self.value!r}, assignment={self.assignment!r})"


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class Unbounded:
    pass


SolveResult = Union[Optimal, Infeasible, Unbounded]


def _lowest(labels: list[int], chosen: list[bool]) -> int:
    """Bland's choice of one: the position of the lowest label whose
    ``chosen`` flag is set, or -1 if none is; ``chosen`` may run past
    ``labels``."""
    best = -1
    for k in compress(range(len(labels)), chosen):
        if best < 0 or labels[k] < labels[best]:
            best = k
    return best


def _least_ratio(tops: list[int], bottoms: list[int], labels: list[int], sign: int) -> int:
    """Bland's ratio test: over the positions ``k`` whose ``bottoms[k]``
    has the sign of ``sign``, the position of the least ratio ``tops[k] /
    bottoms[k]``, ties to the lowest label, or -1 if there is none.  Two
    entries of one sign have a positive product, so for either sign the
    ratios compare by cross-multiplying; ``tops`` and ``bottoms`` may run
    past ``labels``."""
    best = -1
    for k, label in enumerate(labels):
        bottom = bottoms[k]
        if sign * bottom > 0:
            if best >= 0:
                lhs, rhs = tops[k] * best_bottom, best_top * bottom
                if lhs > rhs or (lhs == rhs and label > labels[best]):
                    continue
            best, best_top, best_bottom = k, tops[k], bottom
    return best


class _Tableau:
    """Condensed simplex tableau of Python ints over one common denominator.

    Only the nonbasic columns are stored (the dictionary form; Chvátal,
    *Linear Programming*, 1983, ch. 2).  A column has a label: the
    structural columns come first, then one slack per row in the order
    the rows were appended.  ``basis[i]`` is the label of row ``i``'s
    basic column, whose unit column needs no cells, and ``nonbasic[k]``
    the label of stored column ``k``.  Each row is ``len(nonbasic) + 1``
    ints, its right-hand side last, and ``obj`` is the reduced-cost row
    (last cell: minus the objective value).

    Integer pivoting (Edmonds 1967; Bareiss 1968): the true tableau is
    ``rows / d`` with ``d > 0``.  ``d`` is up to sign the determinant of
    the current basis matrix, so every cell is a minor of the integer
    constraint matrix (bordered by the integer cost row, for ``obj``) and
    each update ``(x*p - f*y) // d`` divides exactly.  When ``d`` divides
    the pivot ``p``, say ``p = k*d``, ``x*p / d`` is the int ``k*x``, so
    ``d`` divides every ``f*y`` too and the update is ``k*x - f*y // d``
    (``x - f*y // d`` when ``p == d``).  No cell then needs a division:
    with ``g`` the gcd of ``d`` and the pivot column's entries, ``q = d /
    g`` divides every entry ``y`` of the pivot row, and ``f*y // d`` is
    ``(f/g) * (y/q)``; when ``d == 1``, ``q = 1``.  A row whose entry
    ``f`` is 0 is ``k`` times itself, so with ``p == d`` it stays as it
    is.

    A pivot on row ``r`` at stored column ``c`` puts the leaving column
    at position ``c``: its unit column over the old ``d`` becomes
    ``s*d`` in the pivot row and ``-s*f`` in every other row whose old
    entry at ``c`` was ``f``, where ``s = -1`` if the pivot row was
    negated and 1 otherwise.  So every stored cell equals the cell of its
    label in the dense tableau, which keeps every column.

    Bland's rule picks columns by label, not by position.  The pivots
    permute the positions but not the labels, so lowest-label ties take
    the dense tableau's pivots one for one, and with them its points,
    row prices and verdicts.

    Rows are replaced by a pivot, never changed in place, so a copy made
    by :meth:`appended` shares them with this tableau.
    """

    def __init__(self, rows, basis, nonbasic, d, obj):
        self.rows = rows          # list of int lists, len(nonbasic) + 1 long
        self.basis = basis        # basic column label per row
        self.nonbasic = nonbasic  # column label per stored column
        self.d = d
        self.obj = obj            # reduced-cost row, len(nonbasic) + 1 long

    def pivot(self, r: int, c: int) -> None:
        prow, d = self.rows[r], self.d
        p = prow[c]
        if p < 0:
            # a dual simplex pivot: negate the pivot row first, so every
            # row comes out over the positive denominator -p
            prow = [-x for x in prow]
            p, s = -p, -1
        else:
            prow, s = prow[:], 1
        # each new cell is the minor (x*p - f*y) / d; when d divides p it
        # is k*x - (f/g) * (y/q), with no division (see the class docstring)
        k, rem = divmod(p, d)
        table = self.rows + [self.obj]
        if not rem:
            g = gcd(d, *[row[c] for row in table])
            q = d // g
            ys = prow if q == 1 else [y // q for y in prow]
        for i, row in enumerate(table):
            if i == r:
                continue
            f = row[c]
            if f:
                if rem:
                    row = [(x * p - f * y) // d for x, y in zip(row, prow)]
                elif k == 1:
                    h = f // g
                    row = [x - h * y for x, y in zip(row, ys)]
                else:
                    h = f // g
                    row = [x * k - h * y for x, y in zip(row, ys)]
                row[c] = -s * f
                table[i] = row
            elif rem:
                table[i] = [x * p // d for x in row]
            elif k != 1:
                table[i] = [x * k for x in row]
        prow[c] = s * d
        table[r] = prow
        self.obj = table.pop()
        self.rows = table
        self.d = p
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]

    def reduced(self, a: list[int]) -> list[int]:
        """The row ``a`` (int coefficients indexed by label, a label past
        them reading as 0, then a last cell) read against the basis over
        ``d``: ``d * a_j - sum_i a[basis[i]] * rows[i][j]`` for each
        stored column ``j`` and for the last cell.  Read so, a cost row
        with last cell 0 is the objective row priced out for this basis,
        and a row ``a . y <= r`` is ``a . y + s = r`` with its slack
        basic."""
        n, d = len(a) - 1, self.d
        new = [d * a[j] if j < n else 0 for j in self.nonbasic] + [d * a[-1]]
        for b, row in zip(self.basis, self.rows):
            f = a[b] if b < n else 0
            if f:
                new = [x - f * y for x, y in zip(new, row)]
        return new

    def run(self):
        """Primal simplex on the current basis and objective row.

        Maximization: optimal when no reduced cost is positive.
        Returns "optimal" or "unbounded".  Bland's rule throughout, which
        guarantees termination: the positive reduced cost of lowest label
        enters (:func:`_lowest`), and the row of least ratio ``rhs_i /
        a_i`` over the column's positive entries leaves, ties to the
        lowest label (:func:`_least_ratio`).
        """
        while True:
            entering = _lowest(self.nonbasic, [x > 0 for x in self.obj])
            if entering < 0:
                return "optimal"
            rows = self.rows
            leaving = _least_ratio(
                [row[-1] for row in rows], [row[entering] for row in rows], self.basis, 1
            )
            if leaving < 0:
                return "unbounded"
            self.pivot(leaving, entering)

    def dual(self):
        """Dual simplex from a dual feasible basis (no reduced cost
        positive) whose right-hand sides may be negative.

        Returns "optimal" once every right-hand side is nonnegative, or
        "infeasible" when a row with a negative right-hand side has no
        negative entry.  Bland's rule on the dual: the infeasible row
        whose basic label is lowest leaves (:func:`_lowest`), and the
        column of least ratio ``obj_j / a_j`` over the row's negative
        entries enters, ties to the lowest label (:func:`_least_ratio`);
        this terminates.
        """
        while True:
            leaving = _lowest(self.basis, [row[-1] < 0 for row in self.rows])
            if leaving < 0:
                return "optimal"
            entering = _least_ratio(self.obj, self.rows[leaving], self.nonbasic, -1)
            if entering < 0:
                return "infeasible"
            self.pivot(leaving, entering)

    def appended(self, added: list[list[int]]) -> "_Tableau":
        """A copy of this tableau with each ``<=`` row of ``added``
        (structural coefficients, then rhs) appended as ``a . y + s = r``
        with a fresh slack ``s >= 0`` basic, as :meth:`reduced` reads it;
        this tableau is not changed, and no column is added.  A new row is
        zero on every slack column but its own, so each is read against
        this tableau's basis alone."""
        first = len(self.nonbasic) + len(self.basis)  # the first new slack's label
        rows = self.rows + [self.reduced(a) for a in added]
        basis = self.basis + list(range(first, first + len(added)))
        return _Tableau(rows, basis, list(self.nonbasic), self.d, self.obj)


class _Columns:
    """A program turned into ints.  The structural columns of a program
    with these lower bounds: one column per bounded variable (``x -
    lower``), a (plus, minus) pair per free variable; the lower bounds as
    ints over one common denominator (a free variable is not shifted);
    the objective as ints (``cost``, times ``cost_scale``) with its value
    at the lower bounds (``at_lower``); and each constraint as an int row
    (:meth:`row`)."""

    def __init__(self, lower, objective) -> None:
        self.col_of: list[tuple[int, int]] = []  # (plus column, minus column or -1)
        self.num = 0
        for bound in lower:
            self.col_of.append((self.num, -1 if bound is not None else self.num + 1))
            self.num += 1 if bound is not None else 2
        self.low, self.low_den = scaled([0 if x is None else x for x in lower])
        self.cost, self.cost_scale = scaled(objective)
        self.at_lower = sum(c * x for c, x in zip(objective, lower) if c and x is not None)

    def expand(self, values: list[int]) -> list[int]:
        """A whole int row over the variables (a coefficient per
        variable, then a last cell) over the structural columns: a
        bounded variable's coefficient on its column, a free one's on
        its plus column and negated on its minus column, and the last
        cell (a rhs, or 0 for a cost row) as it is.  This is the one
        place that asks whether a variable is free: with none, each
        variable is its own column and ``values`` is returned as it
        is."""
        if self.num == len(self.low):  # no free variable: a column per variable
            return values
        row = [0] * self.num + [values[-1]]
        for (plus, minus), x in zip(self.col_of, values):  # stops before the last cell
            if x:
                row[plus] = x
                if minus >= 0:
                    row[minus] = -x
        return row

    def row(self, constraint: Constraint) -> tuple[list[int], tuple[int, int]]:
        """The constraint as an int row (structural coefficients, then rhs
        of either sign) scaled by the LCM of its denominators, and that
        scale as ``(num, den)`` (a row of ints is its own); substituting
        x = y + lower leaves rhs - sum(c * lower) on the right.  The row
        is built once over the variables, its rhs rewritten in place when
        the shift leaves its coefficients as they are (``g == low_den``
        below), and then put over the structural columns by
        :meth:`expand`."""
        low_den = self.low_den
        ints, common = [*constraint.coeffs, constraint.rhs], 1
        if not {int}.issuperset(map(type, ints)):
            ints, common = scaled(ints)
        shift = sum(map(mul, ints, self.low))  # stops before the rhs
        scale = common, 1
        if shift:
            # over common * low_den the rhs is r; dividing the row and
            # that denominator by their gcd rescales the row to the LCM
            # of the shifted row's denominators
            r = ints[-1] * low_den - shift
            g = gcd(gcd(common, *ints[:-1]) * low_den, r)
            if g == low_den:  # the coefficients stay as they are
                ints[-1] = r // g
            else:
                ints = [c * low_den // g for c in ints[:-1]] + [r // g]
            scale = common * low_den, g
        return self.expand(ints), scale


def solve(lp: LinearProgram, start: Optimal | None = None) -> SolveResult:
    """Solve exactly; every Optimal assignment satisfies all constraints
    with exact rational comparison.

    ``start``, if given, is an :class:`Optimal` for a program whose
    constraints are a prefix of ``lp``'s, with the same names, objective
    and lower bounds; ``lp`` is then re-optimised from that optimum by
    the dual simplex (see the module docstring).  Any other ``start``
    raises :class:`InvalidInputError`.
    """
    if start is None:
        columns = _Columns(lp.lower, lp.objective)
        n = columns.num
        # the empty program (no rows, d = 1, and a zero objective, which
        # every basis prices dual feasible) with every row appended: no
        # structural column is basic, so each row goes in as it is
        rows = [columns.row(c)[0] for c in lp.constraints]
        tab = _Tableau(rows, list(range(n, n + len(rows))), list(range(n)), 1, [0] * (n + 1))
    else:
        if not isinstance(start, Optimal):
            raise InvalidInputError(f"start must be an Optimal, not {start!r}")
        prev, columns, base = start._lp, start._columns, start._tab
        k = len(prev.constraints)
        if (
            lp.names != prev.names
            or lp.objective != prev.objective
            or lp.lower != prev.lower
            or lp.constraints[:k] != prev.constraints
        ):
            raise InvalidInputError(
                "start must solve a program whose constraints are a prefix of this one's,"
                " with the same names, objective and lower bounds"
            )
        tab = base.appended([columns.row(c)[0] for c in lp.constraints[k:]])
    if tab.dual() == "infeasible":
        return Infeasible()
    if start is None:
        tab.obj = tab.reduced(columns.expand(columns.cost + [0]))
        if tab.run() == "unbounded":
            return Unbounded()
    return Optimal(lp, columns, tab)


def satisfies(lp: LinearProgram, assignment: Sequence[Fraction]) -> bool:
    """Exact feasibility check of an assignment against all constraints."""
    if len(assignment) != lp.num_vars:
        return False
    for x, bound in zip(assignment, lp.lower):
        if bound is not None and x < bound:
            return False
    return all(
        sum((c * x for c, x in zip(coeffs, assignment) if c), Fraction(0)) <= rhs
        for coeffs, rhs in lp.constraints
    )
