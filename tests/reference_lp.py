"""Fraction simplexes to check ``alphahg.lp`` against.

``reference_solve`` is the two-phase Fraction simplex that ``alphahg.lp``
used before its integer tableau: artificial columns, a phase 1 that
minimizes their sum, then phase 2.  It is the oracle for verdicts and
values in ``tests/test_lp_integer.py``, and for the node LPs in
``tests/test_search.py``, whose rows all start feasible, so that there
the integer solve must equal it point included.  The code is the former
``_Tableau`` and ``solve`` unchanged, apart from the removal of an unused
debug dump and of the rational backend shim (``to_rat`` and
``to_fraction`` below stand in for it with ``Fraction``), and lower
bounds in place of nonnegative flags: a bounded variable is solved as
``x - lower >= 0``, so each right-hand side loses ``sum(c * lower)`` and
the point gets ``lower`` back.

``dual_phase_solve`` is the integer solve's own algorithm in Fraction
arithmetic (slack rows of either sign, the dual simplex as phase 1), so
the integer tableau must take its pivots and return its results, points
included.

Neither reads an upper bound as a bound: both solve ``leading_rows(lp)``,
the program with each upper bound written as a row ``x_v <= upper_v``
placed before every constraint, in variable order.

``dual_certifies`` checks an optimum by its dual multipliers instead of
solving again: plain Fraction sums, no simplex.

Every constraint is a ``(coeffs, rhs)`` pair meaning ``coeffs . x <=
rhs``, as in ``alphahg.lp``, and both solvers return ``(value,
assignment)`` for an optimum.
"""

from __future__ import annotations

from fractions import Fraction

from alphahg.lp import Constraint, Infeasible, LinearProgram, Unbounded


def leading_rows(lp: LinearProgram) -> LinearProgram:
    """``lp`` with no upper bounds: each is the row ``x_v <= upper_v``,
    placed before every constraint, in variable order."""
    n = lp.num_vars
    rows = tuple(
        Constraint(tuple(int(u == v) for u in range(n)), upper)
        for v, upper in enumerate(lp.upper)
        if upper is not None
    )
    return LinearProgram(lp.names, rows + lp.constraints, lp.objective, lp.lower)


def dual_certifies(lp: LinearProgram, duals, value: Fraction) -> bool:
    """Do ``duals``, one multiplier per constraint, bound the maximum of
    ``lp`` by ``value``?  Every multiplier must be ``>= 0``; ``z = A^T y
    - objective`` must be 0 on a free variable, and ``>= 0`` on one
    without an upper bound; ``y . rhs``, less ``z * lower`` for each
    ``z >= 0`` and ``z * upper`` for each ``z < 0``, must equal
    ``value``.  Then every feasible point has objective at most
    ``value``, so a feasible point that attains it is optimal."""
    if len(duals) != len(lp.constraints) or any(y < 0 for y in duals):
        return False
    # a zero multiplier adds nothing to either sum
    priced = [(y, c) for y, c in zip(duals, lp.constraints) if y]
    bound = sum((y * c.rhs for y, c in priced), Fraction(0))
    for v, (cost, lower, upper) in enumerate(zip(lp.objective, lp.lower, lp.upper)):
        z = sum((y * c.coeffs[v] for y, c in priced), -cost)
        if lower is None:
            if z != 0:
                return False
        elif z >= 0:
            bound -= z * lower
        elif upper is None:
            return False
        else:
            bound -= z * upper
    return bound == value


def to_rat(value):
    return value if isinstance(value, Fraction) else Fraction(value)


def to_fraction(value):
    return value


class _Tableau:
    """Dense simplex tableau over the exact-rational backend."""

    def __init__(self, rows, rhs, basis, num_cols):
        self.rows = rows          # list of lists, each num_cols long
        self.rhs = rhs            # list, one entry per row
        self.basis = basis        # basic column index per row
        self.num_cols = num_cols

    def pivot(self, r: int, c: int) -> None:
        piv = self.rows[r][c]
        inv = 1 / piv
        row_r = self.rows[r]
        if piv != 1:
            for j in range(self.num_cols):
                row_r[j] *= inv
            self.rhs[r] *= inv
        for i, row in enumerate(self.rows):
            if i == r:
                continue
            f = row[c]
            if f:
                for j in range(self.num_cols):
                    if row_r[j]:
                        row[j] -= f * row_r[j]
                self.rhs[i] -= f * self.rhs[r]
        self.basis[r] = c

    def run(self, reduced, value, allowed):
        """Primal simplex on the current basis.

        ``reduced`` is the reduced-cost row (maximization: optimal when
        none positive), ``value`` the current objective value.  Returns
        ("optimal", value) or ("unbounded", None).

        Bland's rule throughout (lowest-index entering and leaving
        variable), which guarantees termination.
        """
        rows, rhs = self.rows, self.rhs
        while True:
            entering = -1
            for j in range(self.num_cols):
                if allowed[j] and reduced[j] > 0:
                    entering = j
                    break
            if entering < 0:
                return "optimal", value
            leaving = -1
            best = None
            for i, row in enumerate(rows):
                a = row[entering]
                if a > 0:
                    ratio = rhs[i] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leaving]
                    ):
                        best = ratio
                        leaving = i
            if leaving < 0:
                return "unbounded", None
            self.pivot(leaving, entering)
            # update the reduced-cost row with the fresh pivot row
            f = reduced[entering]
            if f:
                prow = rows[leaving]
                for j in range(self.num_cols):
                    if prow[j]:
                        reduced[j] -= f * prow[j]
                value += f * rhs[leaving]


def reference_solve(lp: LinearProgram):
    """Solve exactly: ``(value, assignment)`` for an optimum, whose
    assignment satisfies all constraints with exact rational comparison,
    else ``Infeasible()`` or ``Unbounded()``."""
    lp = leading_rows(lp)
    n = lp.num_vars

    # column layout: one column per bounded variable (x - lower), a
    # (plus, minus) pair per free variable
    col_of: list[tuple[int, int]] = []  # (plus column, minus column or -1)
    num_struct = 0
    for v in range(n):
        if lp.lower[v] is not None:
            col_of.append((num_struct, -1))
            num_struct += 1
        else:
            col_of.append((num_struct, num_struct + 1))
            num_struct += 2

    zero = to_rat(0)
    lower = [zero if x is None else x for x in lp.lower]

    def expand(coeffs) -> list:
        row = [zero] * num_struct
        for v, x in enumerate(coeffs):
            if x:
                r = to_rat(x)
                plus, minus = col_of[v]
                row[plus] = r
                if minus >= 0:
                    row[minus] = -r
        return row

    # canonicalize every constraint to <= or >= with rhs >= 0: a row
    # with a negative rhs is negated, and gets an artificial column
    canon: list[tuple[list, str, object]] = []
    for coeffs, rhs in lp.constraints:
        row = expand(coeffs)
        r = to_rat(rhs) - sum((c * x for c, x in zip(coeffs, lower)), zero)
        if r < 0:
            canon.append(([-x for x in row], ">=", -r))
        else:
            canon.append((row, "<=", r))

    num_slack = len(canon)
    num_art = sum(1 for _, rel, _ in canon if rel == ">=")
    total = num_struct + num_slack + num_art

    rows: list[list] = []
    rhs: list = []
    basis: list[int] = []
    art_cols: list[int] = []
    slack_at = num_struct
    art_at = num_struct + num_slack
    for row, relation, r in canon:
        full = row + [zero] * (num_slack + num_art)
        if relation == "<=":
            full[slack_at] = to_rat(1)
            basis.append(slack_at)
            slack_at += 1
        else:
            full[slack_at] = to_rat(-1)
            slack_at += 1
            full[art_at] = to_rat(1)
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        rows.append(full)
        rhs.append(r)

    tab = _Tableau(rows, rhs, basis, total)
    art_set = set(art_cols)
    allowed = [True] * total

    if art_cols:
        # phase 1: maximize minus the sum of artificials
        reduced = [zero] * total
        value = zero
        for i, b in enumerate(basis):
            if b in art_set:
                for j in range(total):
                    reduced[j] += rows[i][j]
                value -= rhs[i]
        for c in art_cols:
            reduced[c] -= to_rat(1)
        status, value = tab.run(reduced, value, allowed)
        assert status == "optimal"  # phase-1 objective is bounded above by 0
        if value != 0:
            return Infeasible()
        # pivot surviving artificials out of the basis, or drop their rows
        for i in range(len(tab.basis) - 1, -1, -1):
            if tab.basis[i] in art_set:
                for j in range(num_struct + num_slack):
                    if tab.rows[i][j] != 0:
                        tab.pivot(i, j)
                        break
                else:
                    del tab.rows[i]
                    del tab.rhs[i]
                    del tab.basis[i]
        for c in art_cols:
            allowed[c] = False

    # phase 2: the real objective, priced out for the current basis
    cost = [zero] * total
    for v, x in enumerate(lp.objective):
        if x:
            r = to_rat(x)
            plus, minus = col_of[v]
            cost[plus] = r
            if minus >= 0:
                cost[minus] = -r
    reduced = list(cost)
    value = zero
    for i, b in enumerate(tab.basis):
        cb = cost[b]
        if cb:
            row = tab.rows[i]
            for j in range(tab.num_cols):
                if row[j]:
                    reduced[j] -= cb * row[j]
            value += cb * tab.rhs[i]
    status, value = tab.run(reduced, value, allowed)
    if status == "unbounded":
        return Unbounded()

    col_value = {b: tab.rhs[i] for i, b in enumerate(tab.basis)}
    assignment = []
    for v in range(n):
        plus, minus = col_of[v]
        x = col_value.get(plus, zero)
        if minus >= 0:
            x = x - col_value.get(minus, zero)
        assignment.append(to_fraction(x) + lower[v])
    objective_value = sum(
        (c * x for c, x in zip(lp.objective, assignment)), Fraction(0)
    )
    return objective_value, tuple(assignment)


def dual_phase_solve(lp: LinearProgram):
    """The algorithm of ``alphahg.lp.solve`` in Fraction arithmetic.

    Same column layout and results as ``reference_solve``.  Every
    constraint becomes a row ``a . y + s = r`` with a fresh slack ``s``
    basic and ``r`` of either sign.  Phase 1 is the dual simplex on a zero objective, which
    every basis prices dual feasible; phase 2 prices the real objective
    and runs the primal simplex.  Bland's rule in both phases.
    """
    lp = leading_rows(lp)
    n = lp.num_vars

    col_of: list[tuple[int, int]] = []  # (plus column, minus column or -1)
    num_struct = 0
    for v in range(n):
        if lp.lower[v] is not None:
            col_of.append((num_struct, -1))
            num_struct += 1
        else:
            col_of.append((num_struct, num_struct + 1))
            num_struct += 2

    zero = to_rat(0)
    lower = [zero if x is None else x for x in lp.lower]

    def expand(coeffs) -> list:
        row = [zero] * num_struct
        for v, x in enumerate(coeffs):
            if x:
                r = to_rat(x)
                plus, minus = col_of[v]
                row[plus] = r
                if minus >= 0:
                    row[minus] = -r
        return row

    # every constraint as a row with rhs of either sign
    leq = [
        (expand(coeffs), to_rat(rhs) - sum((c * x for c, x in zip(coeffs, lower)), zero))
        for coeffs, rhs in lp.constraints
    ]

    total = num_struct + len(leq)
    rows: list[list] = []
    rhs: list = []
    basis: list[int] = []
    for t, (row, r) in enumerate(leq):
        full = row + [zero] * len(leq)
        full[num_struct + t] = to_rat(1)
        rows.append(full)
        rhs.append(r)
        basis.append(num_struct + t)
    tab = _Tableau(rows, rhs, basis, total)

    # phase 1: the dual simplex on a zero objective.  The infeasible row
    # whose basic column is lowest leaves; every ratio is 0 / a, so the
    # lowest column with a negative entry enters.  A leaving row with no
    # negative entry proves the program infeasible.
    while True:
        leaving = -1
        for i in range(len(rows)):
            if rhs[i] < 0 and (leaving < 0 or basis[i] < basis[leaving]):
                leaving = i
        if leaving < 0:
            break
        entering = -1
        for j in range(total):
            if rows[leaving][j] < 0:
                entering = j
                break
        if entering < 0:
            return Infeasible()
        tab.pivot(leaving, entering)

    # phase 2: the real objective, priced out for the current basis
    cost = expand(lp.objective) + [zero] * len(leq)
    reduced = list(cost)
    value = zero
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            for j in range(total):
                if rows[i][j]:
                    reduced[j] -= cb * rows[i][j]
            value += cb * rhs[i]
    status, value = tab.run(reduced, value, [True] * total)
    if status == "unbounded":
        return Unbounded()

    col_value = {b: rhs[i] for i, b in enumerate(basis)}
    assignment = []
    for v in range(n):
        plus, minus = col_of[v]
        x = col_value.get(plus, zero)
        if minus >= 0:
            x = x - col_value.get(minus, zero)
        assignment.append(to_fraction(x) + lower[v])
    objective_value = sum(
        (c * x for c, x in zip(lp.objective, assignment)), Fraction(0)
    )
    return objective_value, tuple(assignment)
