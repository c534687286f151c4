"""The integer tableau against Fraction simplexes.

``reference_lp.dual_phase_solve`` runs the integer solve's algorithm in
Fraction arithmetic: every row with a basic slack and a right-hand side
of either sign, the dual simplex on a zero objective as phase 1, then the
primal simplex, Bland's rule throughout.  So the two must take the same
pivots and return equal results: the same verdict, and for Optimal the
same value and the same point (the references return an optimum as
``(value, assignment)``).  ``reference_lp.reference_solve``, the
two-phase simplex with artificial columns that the package used before,
is the oracle for verdicts and values; its optimal point may be another
one, so the integer solve's point must satisfy the program and attain
the value.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import lcm
from operator import mul

import pytest

import reference_lp
from alphahg import lp as integer_lp
from alphahg import ASHG, FHG, InvalidInputError, SearchProblem, witness_system_lp
from alphahg.lp import Constraint, Infeasible, LinearProgram, Optimal, Unbounded, satisfies, solve
from reference_lp import dual_certifies, dual_phase_solve, leading_rows, reference_solve

DENOMINATORS = (1, 1, 2, 3, 4, 5, 6, 7, 12, 35)


def _rational(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def random_lp(rng):
    """Up to 5 variables, each free or nonnegative, and up to 6 rows of
    every relation with mixed-denominator coefficients.  Some programs
    get a multiple of one of their rows, which leaves a redundant row,
    an equality when the multiple is negative.  ``maximize`` stores each
    ``>=`` negated and each ``=`` as two opposite rows."""
    n = rng.randint(1, 5)
    constraints = [
        ([_rational(rng) for _ in range(n)], rng.choice(["<=", ">=", "="]), _rational(rng))
        for _ in range(rng.randint(1, 6))
    ]
    if rng.random() < 0.25:
        coeffs, relation, rhs = rng.choice(constraints)
        k = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
        constraints.append(([k * x for x in coeffs], relation if k > 0 else "=", k * rhs))
    return LinearProgram.maximize(
        [_rational(rng) for _ in range(n)],
        constraints,
        lower=[0 if rng.random() < 0.5 else None for _ in range(n)],
    )


def random_lower_bounded_lp(rng):
    """A ``random_lp`` program whose variables get nonzero lower bounds,
    negative and positive, with denominators up to 35; about one in four
    stays free."""
    lp = random_lp(rng)
    lower = [
        None
        if rng.random() < 0.25
        else Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(DENOMINATORS))
        for _ in lp.names
    ]
    return replace(lp, lower=tuple(lower))


def random_int_lp(rng, fractional_lower: bool):
    """Up to 5 variables and up to 6 rows whose coefficients, right-hand
    sides and objective are ints, given as :class:`Constraint` rows, so
    the program admits them as they are.  About one variable in four is
    free; the others are bounded below by an int or, when
    ``fractional_lower``, half of them by a Fraction over 2 to 35."""
    n = rng.randint(1, 5)

    def entry():
        return 0 if rng.random() < 0.3 else rng.randint(-9, 9)

    def bound():
        if rng.random() < 0.25:
            return None
        if fractional_lower and rng.random() < 0.5:
            return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS[2:]))
        return rng.randint(-9, 9)

    rows = [Constraint(tuple(entry() for _ in range(n)), entry()) for _ in range(rng.randint(1, 6))]
    objective = tuple(entry() for _ in range(n))
    return LinearProgram(tuple(f"x{i}" for i in range(n)), tuple(rows), objective, tuple(bound() for _ in range(n)))


def with_upper(rng, lp):
    """``lp`` with an upper bound on about two in three of its variables
    that have a lower bound: the lower bound itself (a degenerate tie)
    about one time in seven, an int or a Fraction above it otherwise,
    and about one time in twenty a Fraction below it, which makes the
    program infeasible."""

    def upper(lower):
        if lower is None or rng.random() < 1 / 3:
            return None
        draw = rng.random()
        if draw < 0.05:
            return lower - Fraction(rng.randint(1, 3), rng.choice(DENOMINATORS))
        if draw < 0.2:
            return lower
        if draw < 0.6:
            return lower + rng.randint(1, 5)
        return lower + Fraction(rng.randint(1, 20), rng.choice(DENOMINATORS))

    return replace(lp, upper=tuple(map(upper, lp.lower)))


def random_upper_bounded_lp(rng):
    """A ``random_lp``, ``random_lower_bounded_lp`` or ``random_int_lp``
    program, in turn at random, with upper bounds (:func:`with_upper`)."""
    kind = rng.randrange(3)
    if kind == 2:
        return with_upper(rng, random_int_lp(rng, fractional_lower=rng.random() < 0.5))
    return with_upper(rng, (random_lp, random_lower_bounded_lp)[kind](rng))


def cycling_instance():
    """Beale's example: cycles under the textbook pivoting rule."""
    return LinearProgram.maximize(
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [
            ([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
            ([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
        lower=[0] * 4,
    )


def _attains(lp, result):
    return result.value == sum(
        (c * x for c, x in zip(lp.objective, result.assignment)), Fraction(0)
    )


def _outcome(result):
    """An optimum as ``(value, assignment)``, the references' form; an
    ``Infeasible`` or ``Unbounded`` as it is."""
    return (result.value, result.assignment) if isinstance(result, Optimal) else result


def _agrees(got, want) -> bool:
    """Has ``got``, a result of ``solve``, the verdict of ``want``, one
    of ``reference_solve``, and for an optimum its value?"""
    if isinstance(got, Optimal):
        return isinstance(want, tuple) and got.value == want[0]
    return got == want


def _relations(rows) -> set:
    """The relations that ``maximize`` wrote ``rows`` from, as far as
    they show: ``"="`` for a row followed by its negation, ``"<="`` for
    any other row (``maximize`` stores a ``>=`` row negated)."""
    seen, rows, i = set(), list(rows), 0
    while i < len(rows):
        pair = rows[i + 1:i + 2] == [(tuple(-x for x in rows[i].coeffs), -rows[i].rhs)]
        seen.add("=" if pair else "<=")
        i += 2 if pair else 1
    return seen


def _check_result(lp):
    """The integer solve equals the Fraction twin, points included, and
    agrees with the two-phase oracle; returns the solve's result."""
    got = solve(lp)
    assert _outcome(got) == dual_phase_solve(lp), lp
    assert _agrees(got, reference_solve(lp)), lp
    if isinstance(got, Optimal):
        assert satisfies(lp, got.assignment) and _attains(lp, got), lp
    return got


class TestSameResults:
    def test_random_programs(self):
        rng = random.Random(2024)
        kinds = {Optimal: 0, Infeasible: 0, Unbounded: 0}
        for _ in range(3000):
            kinds[type(_check_result(random_lp(rng)))] += 1
        # every verdict is well represented
        assert min(kinds.values()) >= 300, kinds

    def test_free_and_nonnegative_and_every_relation(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(200):
            lp = random_lp(rng)
            seen.update(_relations(lp.constraints))
            seen.update(lp.lower)
        assert seen == {"<=", "=", 0, None}

    def test_cycling_instance(self):
        lp = cycling_instance()
        _check_result(lp)
        assert solve(lp).value == Fraction(1, 20)

    def test_random_lower_bounded_programs(self):
        rng = random.Random(4096)
        kinds = {Optimal: 0, Infeasible: 0, Unbounded: 0}
        for _ in range(2000):
            kinds[type(_check_result(random_lower_bounded_lp(rng)))] += 1
        assert min(kinds.values()) >= 200, kinds

    def test_random_upper_bounded_programs(self):
        # the references read each upper bound as a leading row
        rng = random.Random(4098)
        kinds = {Optimal: 0, Infeasible: 0, Unbounded: 0}
        for _ in range(3000):
            kinds[type(_check_result(random_upper_bounded_lp(rng)))] += 1
        assert min(kinds.values()) >= 200, kinds


def _dense_int(tab):
    """The integer tableau as the dense Fraction tableau it stands for:
    the basic label per row, a row per tableau row (cells by label, then
    the right-hand side, all over ``d``; a basic label's cell is 1 in its
    own row and 0 in the others), and the reduced costs by label."""
    d, width = tab.d, len(tab.nonbasic) + len(tab.rows)
    rows = []
    for basic, row in zip(tab.basis, tab.rows):
        cells = [Fraction(0)] * width
        cells[basic] = Fraction(1)
        for label, x in zip(tab.nonbasic, row):
            cells[label] = Fraction(x, d)
        rows.append((cells, Fraction(row[-1], d)))
    obj = [Fraction(0)] * width
    for label, x in zip(tab.nonbasic, tab.obj):
        obj[label] = Fraction(x, d)
    return list(tab.basis), rows, obj


def _dense_ref(tab):
    """The Fraction twin's tableau in ``_dense_int``'s form; its reduced
    costs are zero in phase 1 and the row its ``run`` updates after."""
    rows = [(list(row), rhs) for row, rhs in zip(tab.rows, tab.rhs)]
    reduced = getattr(tab, "reduced", None)
    obj = list(reduced) if reduced is not None else [Fraction(0)] * tab.num_cols
    return list(tab.basis), rows, obj


def _structural_unit(lp):
    """The unit the integer solve counts every structural column in: the
    LCM of the denominators of the program's lower and upper bounds."""
    return lcm(*(x.denominator for x in (*lp.lower, *lp.upper) if x is not None))


def _slack_units(int_start, ref_start, unit):
    """Per label, the unit of its variable in the integer tableau over
    the twin's: ``unit``, the program's structural unit, for a
    structural column, and for row ``t``'s slack the factor ``k_t > 0``
    that scaled the row to ints (then ``k_t * s`` is the integer slack).
    Checks that each starting int row is ``k_t / unit`` times the twin's
    on the structural cells and ``k_t`` times on the right-hand side."""
    _, rows, obj = int_start
    _, ref_rows, _ = ref_start
    num_struct = len(obj) - len(rows)
    units = [Fraction(unit)] * num_struct
    for (cells, rhs), (ref_cells, ref_rhs) in zip(rows, ref_rows):
        pairs = [(x * unit, y) for x, y in zip(cells[:num_struct], ref_cells[:num_struct])]
        pairs.append((rhs, ref_rhs))
        k = next((x / y for x, y in pairs if y), Fraction(1))
        assert k > 0 and all(x == k * y for x, y in pairs)
        units.append(k)
    return units


def _in_units(state, units, cost_scale):
    """A twin state in the integer tableau's units: the cell of label
    ``j`` in a row whose basic label is ``b`` times ``units[b] /
    units[j]``, the right-hand side times ``units[b]``, and the reduced
    cost of ``j`` times ``cost_scale / units[j]``, since the integer
    solve prices the objective scaled to ints by ``cost_scale``."""
    basis, rows, obj = state
    return (
        basis,
        [
            ([x * units[b] / unit for x, unit in zip(cells, units)], rhs * units[b])
            for b, (cells, rhs) in zip(basis, rows)
        ],
        [x * cost_scale / unit for x, unit in zip(obj, units)],
    )


@pytest.fixture
def update_kinds(monkeypatch):
    """A count of each way a pivot updates a row of the integer tableau,
    by the pivot ``p`` against the denominator ``d`` and by the row's
    entry ``f`` in the pivot column, and of the rows that ``_Columns.row``
    shifts to their lower bounds and that it writes in a column unit
    above 1, as the solves run."""
    seen = Counter()
    pivot, row = integer_lp._Tableau.pivot, integer_lp._Columns.row

    def counted_pivot(self, r, c):
        p, d = abs(self.rows[r][c]), self.d
        kind = "p == d" if p == d else "d == 1" if d == 1 else "d | p" if p % d == 0 else "general"
        for i, other in enumerate(self.rows + [self.obj]):
            if i != r:
                seen[kind, "f != 0" if other[c] else "f == 0"] += 1
        pivot(self, r, c)

    def counted_row(self, constraint):
        ints, scale = row(self, constraint)
        seen["shifted"] += sum(map(mul, constraint.coeffs, self.low)) != 0
        seen["unit > 1"] += self.unit > 1
        return ints, scale

    monkeypatch.setattr(integer_lp._Tableau, "pivot", counted_pivot)
    monkeypatch.setattr(integer_lp._Columns, "row", counted_row)
    return seen


# witness LPs whose pivots and row shifts the search takes: at and below
# the bound (q = 2, m = 4: 3/2 for FHG, 3 for ASHG), and with a path
WITNESS_LPS = [
    (SearchProblem(FHG, 2, 4, Fraction(3, 2), 9, 11), ()),
    (SearchProblem(FHG, 2, 4, Fraction(3, 2) - Fraction(1, 997), Fraction(1, 2), 3), ()),
    (SearchProblem(ASHG, 2, 4, Fraction(3) - Fraction(1, 1000), Fraction(7, 3), Fraction(5, 2)), ()),
    (SearchProblem(ASHG, 3, 4, Fraction(3, 2), 9, 11), [((0, 1, 2), 2), ((1, 2, 3), 1)]),
]


def _keeps_int_rows(lp):
    """A program whose bounds are all ints is counted in unit 1, with its
    lower bounds as they are, and each int row keeps its coefficient
    list, with ``r - a . lower`` on the right and scale 1."""
    assert all(x.denominator == 1 for x in (*lp.lower, *lp.upper) if x is not None), lp
    columns = integer_lp._Columns(lp.lower, lp.upper, lp.objective)
    assert columns.unit == 1 and columns.low == [x or 0 for x in lp.lower], lp
    for coeffs, rhs in lp.constraints:
        if all(type(x) is int for x in (*coeffs, rhs)):
            shifted = rhs - sum(c * x for c, x in zip(coeffs, lp.lower) if x is not None)
            want = columns.expand([*coeffs, shifted]), 1
            assert columns.row(Constraint(coeffs, rhs)) == want, lp


class TestSamePivots:
    """Not only equal answers: the very same pivot sequence as the
    Fraction twin, through dual phases that pivot on negative elements,
    dual phases that prove infeasibility, and equality rows.  A pivot is
    logged by its column's label.  Before each pivot and after the last
    one, every stored int cell over ``d`` equals the twin's dense cell of
    its label, in the objective row too, once each variable is measured
    in the integer tableau's unit (``_slack_units``: the program's
    structural unit for a structural column, its row's int scale for a
    slack)."""

    @pytest.fixture
    def pivot_log(self, monkeypatch):
        log = {"int": [], "ref": []}
        states = {"int": [], "ref": []}
        start, last = {}, {}

        def recording(cls, key, label, dense):
            init, pivot = cls.__init__, cls.pivot

            def recorded_init(self, *args):
                init(self, *args)
                start[key], last[key] = dense(self), self

            def recorded_pivot(self, r, c):
                log[key].append((r, label(self, c), self.rows[r][c] < 0, len(self.rows)))
                states[key].append(dense(self))
                pivot(self, r, c)

            monkeypatch.setattr(cls, "__init__", recorded_init)
            monkeypatch.setattr(cls, "pivot", recorded_pivot)

        recording(integer_lp._Tableau, "int", lambda tab, c: tab.nonbasic[c], _dense_int)
        recording(reference_lp._Tableau, "ref", lambda tab, c: c, _dense_ref)
        run = reference_lp._Tableau.run

        def recorded_run(self, reduced, value, allowed):
            self.reduced = reduced  # updated in place after each pivot
            return run(self, reduced, value, allowed)

        monkeypatch.setattr(reference_lp._Tableau, "run", recorded_run)

        def same_pivots(lp):
            """Cold-solve ``lp`` both ways and check the pivots, the
            tableaux, and for an optimum its row prices and point against
            the twin's final tableau; return the pivots and the result."""
            for key in log:
                log[key].clear()
                states[key].clear()
            result = solve(lp)
            twin = dual_phase_solve(lp)
            assert log["int"] == log["ref"], lp
            states["int"].append(_dense_int(last["int"]))
            states["ref"].append(_dense_ref(last["ref"]))
            unit = _structural_unit(lp)
            units = _slack_units(start["int"], start["ref"], unit)
            cost_scale = unit * lcm(*(x.denominator for x in lp.objective))
            want = [_in_units(s, units, cost_scale) for s in states["ref"]]
            assert states["int"] == want, lp
            if isinstance(result, Optimal):
                d, num_struct = last["int"].d, len(units) - len(last["int"].rows)
                prices = [Fraction(x, d) for x in result.row_prices()]
                assert prices == want[-1][2][num_struct:], lp
                nums, den = result.scaled_point()
                assert tuple(Fraction(x, den) for x in nums) == twin[1], lp
                # the twin's rows are the constraints as given, with slack
                # coefficient 1, and its objective is unscaled: minus its
                # reduced cost of row t's slack is row t's multiplier
                ref_obj = _dense_ref(last["ref"])[2]
                assert result.dual() == [-x for x in ref_obj[num_struct:]], lp
            return log["int"][:], result

        return same_pivots

    def test_random_programs(self, pivot_log):
        rng = random.Random(99)
        seen = dict.fromkeys(("dual pivot", "infeasible", "=", "optimal"), 0)
        for _ in range(1000):
            lp = random_lp(rng)
            pivots, result = pivot_log(lp)
            seen["dual pivot"] += any(neg for _, _, neg, _ in pivots)
            seen["infeasible"] += isinstance(result, Infeasible)
            seen["optimal"] += isinstance(result, Optimal)
            seen["="] += "=" in _relations(lp.constraints)
        assert min(seen.values()) >= 100, seen

    def test_random_lower_bounded_programs(self, pivot_log):
        rng = random.Random(4097)
        for _ in range(500):
            pivot_log(random_lower_bounded_lp(rng))

    def test_cycling_instance(self, pivot_log):
        pivots, _ = pivot_log(cycling_instance())
        assert len(pivots) > 0

    def test_integer_programs_and_witness_lps(self, pivot_log, update_kinds):
        # all-int programs, which LinearProgram admits as they are, and
        # the search's witness LPs with their box written as leading rows
        # (the twin's tableau has a row per bound; TestUpperBounds checks
        # the bounds against those rows), through every way a pivot
        # updates a row (d divides p or not, p == d, d == 1; f zero or
        # not) and rows that _Columns.row shifts, in a unit above 1 too;
        # every program whose bounds are ints keeps its int rows
        rng = random.Random(3535)
        for trial in range(600):
            lp = random_int_lp(rng, fractional_lower=trial % 2 == 1)
            if trial % 2 == 0:
                _keeps_int_rows(lp)
            pivot_log(lp)
        for problem, path in WITNESS_LPS:
            lp = witness_system_lp(problem, path)
            if problem.weight_bound.denominator == problem.baseline_bound.denominator == 1:
                _keeps_int_rows(lp)
            pivots, result = pivot_log(leading_rows(lp))
            assert pivots and isinstance(result, Optimal)
        kinds = [
            (kind, f)
            for kind in ("p == d", "d == 1", "d | p", "general")
            for f in ("f != 0", "f == 0")
        ]
        kinds += ["shifted", "unit > 1"]
        assert min(update_kinds[k] for k in kinds) >= 50, update_kinds


class TestUpperBounds:
    """A program with upper bounds against the same program with each
    bound written as a leading row (``reference_lp.leading_rows``): the
    same verdict, the same pivots by entering and leaving label (a flip
    is the pivot on the entering variable's own bound row), and for an
    optimum the same value, point and row prices.  The row form's
    multiplier of the bound on ``x_j`` is ``max(0, -z_j)``, with ``z =
    A^T y - objective`` from the bounded program's dual.  Cold solves
    and warm ones from a prefix of the rows, each on both programs."""

    @pytest.fixture
    def label_log(self, monkeypatch):
        """Each pivot as ``(entering label, leaving label, kind)``, kind
        ``"flip"`` for a pivot on the entering variable's own bound row
        and ``"pivot"`` otherwise."""
        log = []
        pivot = integer_lp._Tableau.pivot

        def logged_pivot(tab, r, c):
            entering, leaving = tab.nonbasic[c], tab.basis[r]
            own = tab.bound.get(entering, (0, None))[1] == leaving
            log.append((entering, leaving, "flip" if own else "pivot"))
            pivot(tab, r, c)

        monkeypatch.setattr(integer_lp._Tableau, "pivot", logged_pivot)
        return log

    @staticmethod
    def _solved(log, lp, start=None):
        log.clear()
        return solve(lp, start), log[:]

    def _same(self, log, lp, k, seen):
        """Check ``lp`` against its row form, cold and, when the first
        ``k`` rows have an optimum, warm from it; count what was seen."""
        rows = leading_rows(lp)
        bounds = [v for v, x in enumerate(lp.upper) if x is not None]
        # the bound slacks' labels follow the structural columns'
        first = sum(1 if x is not None else 2 for x in lp.lower)
        slacks = range(first, first + len(bounds))
        starts = (
            solve(replace(lp, constraints=lp.constraints[:k])),
            solve(replace(rows, constraints=rows.constraints[:len(bounds) + k])),
        )
        runs = [(None, None)] + [starts] * isinstance(starts[0], Optimal)
        for start, row_start in runs:
            got, got_log = self._solved(log, lp, start)
            want, want_log = self._solved(log, rows, row_start)
            assert [(e, l) for e, l, _ in got_log] == [(e, l) for e, l, _ in want_log], (lp, k)
            assert type(got) is type(want), (lp, k)
            seen[type(got).__name__] += 1
            seen["warm"] += start is not None
            seen["flip"] += any(kind == "flip" for _, _, kind in got_log)
            seen["bound slack leaves a row"] += any(
                kind == "pivot" and l in slacks for _, l, kind in got_log
            )
            seen["bound slack enters a row"] += any(
                kind == "pivot" and e in slacks for e, _, kind in got_log
            )
            if not isinstance(got, Optimal):
                continue
            assert (got.value, got.assignment) == (want.value, want.assignment), (lp, k)
            duals, row_duals = got.dual(), want.dual()
            assert duals == row_duals[len(bounds):], (lp, k)
            prices = [bool(x) for x in want.row_prices()]
            assert [bool(x) for x in got.row_prices()] == prices[len(bounds):], (lp, k)
            for v, y in zip(bounds, row_duals):
                z = sum((y * c.coeffs[v] for y, c in zip(duals, lp.constraints)), -lp.objective[v])
                assert y == max(0, -z), (lp, k)
                seen["upper priced"] += y > 0
            assert satisfies(lp, got.assignment) and dual_certifies(lp, duals, got.value)
            seen["upper == lower"] += any(lp.lower[v] == lp.upper[v] for v in bounds)

    def test_random_programs(self, label_log):
        rng = random.Random(1955)
        seen = Counter()
        for _ in range(2500):
            lp = random_upper_bounded_lp(rng)
            self._same(label_log, lp, rng.randrange(len(lp.constraints) + 1), seen)
            seen["upper < lower"] += any(
                u is not None and u < x for x, u in zip(lp.lower, lp.upper)
            )
        assert len(seen) == 10 and min(seen.values()) >= 100, seen

    def test_upper_below_lower_is_infeasible(self, label_log):
        rng = random.Random(1956)
        for _ in range(200):
            lp = random_upper_bounded_lp(rng)
            low = [Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in lp.names]
            up = list(low)
            up[rng.randrange(len(up))] -= Fraction(1, rng.choice(DENOMINATORS))
            lp = replace(lp, lower=tuple(low), upper=tuple(up))
            assert isinstance(solve(lp), Infeasible)
            self._same(label_log, lp, 0, Counter())

    def test_witness_lps(self, label_log):
        # the search's node LPs, whose box is the weights' upper bounds,
        # cold and warm from every prefix of their witness rows
        seen = Counter()
        for problem, path in WITNESS_LPS:
            lp = witness_system_lp(problem, path)
            first = len(witness_system_lp(problem, ()).constraints)
            for k in range(first, len(lp.constraints) + 1):
                self._same(label_log, lp, k, seen)
        assert seen["Optimal"] == 2 * seen["warm"] > 0, seen


def test_witness_rows_are_admitted_as_they_are():
    # every witness row is a Constraint of ints, which a program, and a
    # child's appended row, keeps as the very object it was given
    for problem, path in WITNESS_LPS:
        lp = witness_system_lp(problem, path)
        assert all(type(x) is int for c in lp.constraints for x in (*c.coeffs, c.rhs))
        assert lp._with_rows(lp.constraints).constraints[-1] is lp.constraints[-1]


class TestWarmStart:
    """``solve(full, start=solve(prefix))`` against the cold reference.

    A warm start re-optimises the prefix's optimal tableau by the dual
    simplex, so it may stop at another optimal point: the verdict and the
    value must equal the reference's, and the point must be feasible and
    attain the value."""

    def test_random_splits(self):
        rng = random.Random(8128)
        seen = dict.fromkeys(("<=", "=", "negative rhs", "free", Optimal, Infeasible), 0)
        for trial in range(6000):
            full = (random_lp if trial % 2 else random_lower_bounded_lp)(rng)
            k = rng.randrange(len(full.constraints) + 1)
            start = solve(replace(full, constraints=full.constraints[:k]))
            if not isinstance(start, Optimal):
                continue
            got = solve(full, start=start)
            assert _agrees(got, reference_solve(full)), (full, k)
            if isinstance(got, Optimal):
                assert satisfies(full, got.assignment) and _attains(full, got), (full, k)
            appended = full.constraints[k:]
            for relation in _relations(appended):
                seen[relation] += 1
            seen["negative rhs"] += any(c.rhs < 0 for c in appended)
            seen["free"] += bool(appended) and None in full.lower
            seen[type(got)] += 1
        assert min(seen.values()) >= 100, seen

    def test_chained_starts(self):
        # each warm result starts the next longer prefix; the last one
        # must still agree with the cold reference
        rng = random.Random(8129)
        chains = 0
        for _ in range(2000):
            full = random_lower_bounded_lp(rng)
            result = solve(replace(full, constraints=full.constraints[:1]))
            for k in range(2, len(full.constraints) + 1):
                if not isinstance(result, Optimal):
                    break
                result = solve(replace(full, constraints=full.constraints[:k]), result)
            else:
                chains += len(full.constraints) > 2
                assert _agrees(result, reference_solve(full)), full
        assert chains >= 100, chains

    def test_appended_rows_read_their_slack(self):
        # every point of an optimum's tableau, given by any int values of
        # its nonbasic labels, must meet each appended row a . y + s = r
        # with s = r - a . y, read off that row alone
        rng = random.Random(8131)
        seen = dict.fromkeys(("appends", "slack basic", "structural basic"), 0)
        for trial in range(3000):
            result = solve((random_lp if trial % 2 else random_lower_bounded_lp)(rng))
            if not isinstance(result, Optimal):
                continue
            tab, num, k = result._tab, result._columns.num, len(result._tab.rows)
            added = [
                [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(num + 1)]
                for _ in range(rng.randint(1, 3))
            ]
            new = tab.appended(added)
            assert (new.d, new.nonbasic, new.obj) == (tab.d, tab.nonbasic, tab.obj)
            assert (new.rows[:k], new.basis[:k]) == (tab.rows, tab.basis)
            free = [rng.randint(-9, 9) for _ in tab.nonbasic]

            def basic_value(row):
                # the row's basic variable at these nonbasic values; map
                # stops before the right-hand side
                return Fraction(row[-1] - sum(map(mul, row, free)), tab.d)

            value = dict(zip(tab.nonbasic, free))
            value.update((b, basic_value(row)) for b, row in zip(tab.basis, tab.rows))
            for t, a in enumerate(added):
                assert new.basis[k + t] == len(value) + t
                want = a[-1] - sum(a[j] * value[j] for j in range(num))
                assert basic_value(new.rows[k + t]) == want, (tab, a)
            seen["appends"] += len(added)
            seen["slack basic"] += len(added) * any(b >= num for b in tab.basis)
            seen["structural basic"] += len(added) * any(b < num for b in tab.basis)
        assert min(seen.values()) >= 800, seen

    def test_start_must_solve_a_prefix(self):
        rng = random.Random(8130)
        refused = dict.fromkeys(("objective", "lower", "order"), 0)
        while min(refused.values()) < 20:
            lp = random_lower_bounded_lp(rng)
            start = solve(lp)
            if not isinstance(start, Optimal):
                continue
            longer = replace(lp, constraints=lp.constraints + lp.constraints[:1])
            assert isinstance(solve(longer, start), (Optimal, Infeasible))
            others = {
                "objective": replace(
                    longer, objective=tuple(x + 1 for x in lp.objective)
                ),
                "lower": replace(
                    longer, lower=tuple(Fraction(-1) if x is None else None for x in lp.lower)
                ),
            }
            first, second, *rest = longer.constraints
            if first != second:
                others["order"] = replace(longer, constraints=(second, first, *rest))
            for kind, other in others.items():
                with pytest.raises(InvalidInputError):
                    solve(other, start)
                refused[kind] += 1

    def test_start_must_be_a_solved_optimum(self):
        lp = cycling_instance()
        for start in (Infeasible(), Unbounded()):
            with pytest.raises(InvalidInputError):
                solve(lp, start)

    def test_appended_rows_are_checked(self):
        # the search builds each child LP by appending its witness row
        lp = cycling_instance()
        row = ([1, 0, 0, "1/2"], "-3/7")
        longer = lp._with_rows([row])
        assert longer == LinearProgram(lp.names, (*lp.constraints, row), lp.objective, lp.lower)
        assert longer.constraints[-1] == ((1, 0, 0, Fraction(1, 2)), Fraction(-3, 7))
        for bad in (([1, 0, 0], 1), ([1, 0, 0, 0], "<=", 1), ([1, 0, 0, 0.5], 1)):
            with pytest.raises(InvalidInputError):
                lp._with_rows([bad])
