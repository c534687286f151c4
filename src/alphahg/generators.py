"""Constructions of extremal blocking scenarios.

Each builder emits a :class:`Scenario` that is size-stable up to a
stated ``stable_size`` while the full coalition improves every agent by
exactly a stated factor, matching the corresponding closed form in
:mod:`alphahg.bounds`.  Nothing is trusted: callers (and the test
suite) re-verify stability exhaustively and the factor by rational
equality.

``fig6``..``fig9`` are bundled hand-drawn instances for stable size 5
at coalition sizes 7 and 8 (fractional and additively separable); they
ship as JSON data files.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    ashg_improvement_bound,
    fhg_improvement_bound,
    improvement_bound,
    is_hospitable,
)
from .core import ASHG, FHG, AlphaFunction
from .errors import DomainError, InvalidInputError
from .io import load_scenario
from .stability import Scenario


@dataclass(frozen=True)
class BuiltScenario:
    """A generated scenario with its claimed stability size and factor."""

    scenario: Scenario
    stable_size: int
    factor: Fraction


def _matrix(size: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * size for _ in range(size)]


def _set(matrix: list[list[Fraction]], i: int, j: int, w: Fraction) -> None:
    matrix[i][j] = w
    matrix[j][i] = w


def _scenario(alpha, matrix, baselines=None) -> Scenario:
    size = len(matrix)
    if baselines is None:
        baselines = [Fraction(1)] * size
    return Scenario(
        size=size,
        weights=tuple(tuple(row) for row in matrix),
        baselines=tuple(baselines),
        alpha=alpha,
    )


def complete_graph_scenario(
    alpha: AlphaFunction, stable_size: int, size: int
) -> Scenario:
    """Complete graph, every weight ``1/(alpha(q)(q-1))``, baselines 1.

    Requires a hospitable alpha.  Stable up to ``stable_size``; the full
    coalition improves everyone by ``alpha(m)(m-1)/(alpha(q)(q-1))``,
    which attains the general bound whenever ``q-1`` divides ``m-1``.
    """
    q, m = stable_size, size
    if not 2 <= q < m:
        raise DomainError("need 2 <= stable_size < size")
    if not is_hospitable(alpha, m):
        raise DomainError("complete_graph_scenario requires a hospitable alpha")
    w = 1 / (alpha.value(q) * (q - 1))
    matrix = _matrix(m)
    for i in range(m):
        for j in range(i + 1, m):
            _set(matrix, i, j, w)
    return _scenario(alpha, matrix)


def complete_graph_factor(alpha: AlphaFunction, stable_size: int, size: int) -> Fraction:
    q, m = stable_size, size
    return alpha.value(m) * (m - 1) / (alpha.value(q) * (q - 1))


def two_halves_scenario(alpha: AlphaFunction, size: int) -> Scenario:
    """Two halves of ``size/2`` agents; weight ``1/alpha(3) - 1/alpha(2)``
    within a half and ``1/alpha(2)`` across, baselines 1.

    Requires a hospitable alpha and even ``size >= 4``.  Stable up to
    size 3; the full coalition attains the general bound for q = 3.
    """
    m = size
    if m < 4 or m % 2:
        raise DomainError("size must be even and >= 4")
    if not is_hospitable(alpha, m):
        raise DomainError("two_halves_scenario requires a hospitable alpha")
    intra = 1 / alpha.value(3) - 1 / alpha.value(2)
    cross = 1 / alpha.value(2)
    half = m // 2
    matrix = _matrix(m)
    for i in range(m):
        for j in range(i + 1, m):
            _set(matrix, i, j, intra if (i < half) == (j < half) else cross)
    return _scenario(alpha, matrix)


def cycle_scenario(stable_size: int, variant: str) -> Scenario:
    """``stable_size + 1`` agents whose heavy edges form a cycle.

    Fractional: cycle edges weigh 2, all other pairs 1; the full
    coalition improves everyone by ``(q+2)/(q+1)``.  Additively
    separable: cycle edges weigh 1, other pairs 0; factor 2.  Baselines
    are 1 and the scenario is stable up to ``stable_size``.
    """
    q = stable_size
    if q < 2:
        raise DomainError("stable_size must be >= 2")
    key = variant.strip().lower()
    if key not in ("fhg", "ashg"):
        raise InvalidInputError("variant must be 'fhg' or 'ashg'")
    m = q + 1
    heavy, light = (Fraction(2), Fraction(1)) if key == "fhg" else (Fraction(1), Fraction(0))
    matrix = _matrix(m)
    for i in range(m):
        for j in range(i + 1, m):
            _set(matrix, i, j, light)
    for i in range(m):
        _set(matrix, i, (i + 1) % m, heavy)
    return _scenario(FHG if key == "fhg" else ASHG, matrix)


def cycle_factor(stable_size: int, variant: str) -> Fraction:
    if variant.strip().lower() == "fhg":
        return Fraction(stable_size + 2, stable_size + 1)
    return Fraction(2)


def two_valued_scenario(size: int) -> Scenario:
    """Fractional construction for stable size 4.

    ``floor((m-2)/3) + 1`` *two-valued* agents (weight 0 among
    themselves) and ``m - t`` *one-valued* agents (weight 1 among
    themselves), weight 2 across, baselines 1.  The full coalition
    improves everyone by ``1 + floor((m-2)/3)/m``.
    """
    m = size
    if m < 5:
        raise DomainError("size must be >= 5")
    t = (m - 2) // 3 + 1
    matrix = _matrix(m)
    for i in range(m):
        for j in range(i + 1, m):
            if i < t and j < t:
                w = Fraction(0)
            elif i >= t and j >= t:
                w = Fraction(1)
            else:
                w = Fraction(2)
            _set(matrix, i, j, w)
    return _scenario(FHG, matrix)


def two_group_scenario(size: int) -> Scenario:
    """Additively separable construction for stable size 4, by
    ``size mod 3``.

    * ``m % 3 == 1``: the complete-graph construction (q-1 divides m-1).
    * ``m % 3 == 0``: groups of ``2m/3`` (baseline 1) and ``m/3``
      (baseline 2), weight 1 across, 0 within.
    * ``m % 3 == 2``: a group of ``(m-2)/3`` agents with baseline 2 and
      the rest with baseline 1; weight 1 across, plus a perfect matching
      of weight-1 edges pairing the second group consecutively.

    The full coalition improves everyone by ``1 + floor((m-2)/3)``.
    """
    m = size
    if m < 5:
        raise DomainError("size must be >= 5")
    if m % 3 == 1:
        return complete_graph_scenario(ASHG, 4, m)
    matrix = _matrix(m)
    if m % 3 == 0:
        first = 2 * m // 3
        baselines = [Fraction(1)] * first + [Fraction(2)] * (m - first)
        for i in range(first):
            for j in range(first, m):
                _set(matrix, i, j, Fraction(1))
    else:
        first = (m - 2) // 3
        baselines = [Fraction(2)] * first + [Fraction(1)] * (m - first)
        for i in range(first):
            for j in range(first, m):
                _set(matrix, i, j, Fraction(1))
        # the second group has even size; match consecutive members
        for a in range(first, m, 2):
            _set(matrix, a, a + 1, Fraction(1))
    return _scenario(ASHG, matrix, baselines)


def mantel_scenario(size: int) -> Scenario:
    """Fractional construction for stable size 3 from the extremal
    triangle-free graph: complete bipartite heavy edges of weight 2
    between halves of ``floor(m/2)`` and ``ceil(m/2)`` agents, weight 1
    elsewhere, baselines 1.  Factor ``1 + floor((m-2)/2)/m``.
    """
    m = size
    if m < 4:
        raise DomainError("size must be >= 4")
    half = m // 2
    matrix = _matrix(m)
    for i in range(m):
        for j in range(i + 1, m):
            cross = (i < half) != (j < half)
            _set(matrix, i, j, Fraction(2) if cross else Fraction(1))
    return _scenario(FHG, matrix)


FIXTURE_NAMES = ("fig6", "fig7", "fig8", "fig9")


def fixture(name: str) -> Scenario:
    """A bundled tight instance for stable size 5, read from its JSON
    data file (see :func:`fixture_path`).

    ``fig6``/``fig7``: fractional, sizes 7 and 8.  ``fig8``/``fig9``:
    additively separable, sizes 7 and 8 with baselines 2 on the first
    three agents and 1 elsewhere.
    """
    return load_scenario(fixture_path(name.strip().lower()))


_FIXTURE_META = {
    "fig6": (5, Fraction(8, 7)),
    "fig7": (5, Fraction(9, 8)),
    "fig8": (5, Fraction(2)),
    "fig9": (5, Fraction(2)),
}


def fixture_path(name: str) -> str:
    """Filesystem path of the bundled JSON copy of a fixture."""
    if name not in FIXTURE_NAMES:
        raise InvalidInputError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")
    from importlib.resources import files

    return str(files("alphahg").joinpath(f"data/{name}.json"))

CONSTRUCTION_NAMES = (
    "complete",
    "halves",
    "cycle",
    "two-valued",
    "two-group",
    "mantel",
) + FIXTURE_NAMES


def build_construction(
    name: str,
    alpha: AlphaFunction | None = None,
    stable_size: int | None = None,
    size: int | None = None,
    variant: str | None = None,
) -> BuiltScenario:
    """Build any construction by name, with its claimed stability size
    and improvement factor attached."""

    def need(value, flag: str):
        if value is None:
            raise InvalidInputError(f"construction {name!r} requires {flag}")
        return value

    key = name.strip().lower()
    if key == "complete":
        alpha = need(alpha, "--alpha")
        q = need(stable_size, "--q")
        m = need(size, "--m")
        return BuiltScenario(
            complete_graph_scenario(alpha, q, m), q, complete_graph_factor(alpha, q, m)
        )
    if key == "halves":
        alpha = need(alpha, "--alpha")
        m = need(size, "--m")
        return BuiltScenario(
            two_halves_scenario(alpha, m), 3, improvement_bound(alpha, 3, m)
        )
    if key == "cycle":
        q = need(stable_size, "--q")
        v = need(variant, "--variant")
        return BuiltScenario(cycle_scenario(q, v), q, cycle_factor(q, v))
    if key == "two-valued":
        m = need(size, "--m")
        return BuiltScenario(two_valued_scenario(m), 4, fhg_improvement_bound(4, m))
    if key == "two-group":
        m = need(size, "--m")
        return BuiltScenario(two_group_scenario(m), 4, ashg_improvement_bound(4, m))
    if key == "mantel":
        m = need(size, "--m")
        return BuiltScenario(mantel_scenario(m), 3, fhg_improvement_bound(3, m))
    if key in FIXTURE_NAMES:
        q, factor = _FIXTURE_META[key]
        return BuiltScenario(fixture(key), q, factor)
    raise InvalidInputError(
        f"unknown construction {name!r}; expected one of {CONSTRUCTION_NAMES}"
    )
