"""Constructions of extremal blocking scenarios.

Each builder emits a :class:`Scenario` that is size-stable up to a
stated ``stable_size`` while the full coalition improves every agent by
exactly a stated factor.  Every construction claims the paper's bound
``improvement_bound(alpha, stable_size, size)`` for its own alpha and
sizes, except the complete graph, which claims
``alpha(m)(m-1)/(alpha(q)(q-1))`` (:func:`complete_graph_factor`); that
equals the bound when ``q-1`` divides ``m-1`` and is never above it.
Nothing is trusted: callers (and the test suite) re-verify stability
exhaustively and the factor by rational equality.

``fig6``..``fig9`` are bundled instances for stable size 5 at
coalition sizes 7 and 8 (fractional and additively separable); they
ship as JSON data files.  ``fig6``, ``fig8`` and ``fig9`` are drawn by
hand; ``fig7`` is not: it equals ``cycle_scenario(FHG, 7)`` in weights,
baselines and alpha, and both claim 9/8 (the fixture at stable size 5,
the cycle at 7).

:func:`build_construction` looks each name up in one table that holds
the arguments it reads (some of ``alpha``, ``stable_size``, ``size``),
its stable size when it reads none, its builder and its claim, and
refuses a missing argument and an unread one alike: no input is
dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from ._params import CONSTRUCTION_NAMES, FIXTURE_NAMES
from ._rat import integer
from .bounds import improvement_bound, is_hospitable
from .core import ASHG, FHG, AlphaFunction, Scenario, _at_least, _name
from .errors import DomainError, InvalidInputError
from .io import load_scenario


@dataclass(frozen=True)
class BuiltScenario:
    """A generated scenario with its claimed stability size and factor."""

    scenario: Scenario
    stable_size: int
    factor: Fraction


def _complete_graph_domain(
    alpha: AlphaFunction, stable_size: int, size: int
) -> tuple[int, int]:
    """``(q, m)`` for the complete-graph construction and its factor."""
    q, m = integer(stable_size), integer(size)
    if not 2 <= q < m:
        raise DomainError("need 2 <= stable_size < size")
    if not is_hospitable(alpha, m):
        raise DomainError("complete_graph_scenario requires a hospitable alpha")
    return q, m


def complete_graph_scenario(
    alpha: AlphaFunction, stable_size: int, size: int
) -> Scenario:
    """Complete graph, every weight ``1/(alpha(q)(q-1))``, baselines 1.

    Requires a hospitable alpha.  Stable up to ``stable_size``; the full
    coalition improves everyone by ``alpha(m)(m-1)/(alpha(q)(q-1))``,
    which attains the general bound whenever ``q-1`` divides ``m-1``.
    """
    q, m = _complete_graph_domain(alpha, stable_size, size)
    w = 1 / (alpha.value(q) * (q - 1))
    return Scenario.from_pairs(alpha, m, lambda i, j: w)


def complete_graph_factor(alpha: AlphaFunction, stable_size: int, size: int) -> Fraction:
    q, m = _complete_graph_domain(alpha, stable_size, size)
    return alpha.value(m) * (m - 1) / (alpha.value(q) * (q - 1))


def two_halves_scenario(alpha: AlphaFunction, size: int) -> Scenario:
    """Two halves of ``size/2`` agents; weight ``1/alpha(3) - 1/alpha(2)``
    within a half and ``1/alpha(2)`` across, baselines 1.

    Requires a hospitable alpha and even ``size >= 4``.  Stable up to
    size 3; the full coalition attains the general bound for q = 3.
    """
    m = integer(size)
    if m < 4 or m % 2:
        raise DomainError("size must be even and >= 4")
    if not is_hospitable(alpha, m):
        raise DomainError("two_halves_scenario requires a hospitable alpha")
    intra = 1 / alpha.value(3) - 1 / alpha.value(2)
    cross = 1 / alpha.value(2)
    half = m // 2
    return Scenario.from_pairs(alpha, m, lambda i, j: cross if i < half <= j else intra)


def cycle_scenario(alpha: AlphaFunction, stable_size: int) -> Scenario:
    """``stable_size + 1`` agents whose heavy edges form a cycle.

    Fractional (``FHG``): cycle edges weigh 2, all other pairs 1; the
    full coalition improves everyone by ``(q+2)/(q+1)``.  Additively
    separable (``ASHG``): cycle edges weigh 1, other pairs 0; factor 2.
    Baselines are 1 and the scenario is stable up to ``stable_size``.
    """
    q = _at_least(stable_size, 2, "stable_size")
    if alpha not in (FHG, ASHG):
        raise InvalidInputError("the cycle's alpha variant must be 'fhg' or 'ashg'")
    m = q + 1
    heavy, light = (2, 1) if alpha == FHG else (1, 0)
    return Scenario.from_pairs(alpha, m, lambda i, j: heavy if j - i in (1, m - 1) else light)


def two_valued_scenario(size: int) -> Scenario:
    """Fractional construction for stable size 4.

    ``floor((m-2)/3) + 1`` *two-valued* agents (weight 0 among
    themselves) and ``m - t`` *one-valued* agents (weight 1 among
    themselves), weight 2 across, baselines 1.  The full coalition
    improves everyone by ``1 + floor((m-2)/3)/m``.
    """
    m = _at_least(size, 5, "size")
    t = (m - 2) // 3 + 1
    return Scenario.from_pairs(FHG, m, lambda i, j: 2 if i < t <= j else 0 if j < t else 1)


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
    m = _at_least(size, 5, "size")
    if m % 3 == 1:
        return complete_graph_scenario(ASHG, 4, m)
    if m % 3 == 0:
        first = 2 * m // 3
        baselines = [1] * first + [2] * (m - first)
        return Scenario.from_pairs(ASHG, m, lambda i, j: 1 if i < first <= j else 0, baselines)
    first = (m - 2) // 3
    baselines = [2] * first + [1] * (m - first)

    def weight(i: int, j: int) -> int:
        # the second group has even size; match consecutive members
        matched = i >= first and j == i + 1 and (i - first) % 2 == 0
        return 1 if i < first <= j or matched else 0

    return Scenario.from_pairs(ASHG, m, weight, baselines)


def mantel_scenario(size: int) -> Scenario:
    """Fractional construction for stable size 3 from the extremal
    triangle-free graph: complete bipartite heavy edges of weight 2
    between halves of ``floor(m/2)`` and ``ceil(m/2)`` agents, weight 1
    elsewhere, baselines 1.  Factor ``1 + floor((m-2)/2)/m``.
    """
    m = _at_least(size, 4, "size")
    half = m // 2
    return Scenario.from_pairs(FHG, m, lambda i, j: 2 if i < half <= j else 1)


def fixture(name: str) -> Scenario:
    """A bundled tight instance for stable size 5, read from its JSON
    data file (see :func:`fixture_path`).

    ``fig6``/``fig7``: fractional, sizes 7 and 8.  ``fig8``/``fig9``:
    additively separable, sizes 7 and 8 with baselines 2 on the first
    three agents and 1 elsewhere.
    """
    return load_scenario(fixture_path(_name(name, "fixture name")))


def fixture_path(name: str) -> str:
    """Filesystem path of the bundled JSON copy of a fixture."""
    if name not in FIXTURE_NAMES:
        raise InvalidInputError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")
    from importlib.resources import files

    return str(files("alphahg").joinpath(f"data/{name}.json"))


#: name -> (the arguments it reads, its stable size if it reads none,
#: its scenario builder, which takes those arguments by name, and its
#: claimed factor as ``claim(alpha, stable_size, size)``)
_CONSTRUCTIONS = {
    "complete": (("alpha", "stable_size", "size"), None, complete_graph_scenario, complete_graph_factor),
    "halves": (("alpha", "size"), 3, two_halves_scenario, improvement_bound),
    "cycle": (("alpha", "stable_size"), None, cycle_scenario, improvement_bound),
    "two-valued": (("size",), 4, two_valued_scenario, improvement_bound),
    "two-group": (("size",), 4, two_group_scenario, improvement_bound),
    "mantel": (("size",), 3, mantel_scenario, improvement_bound),
    **{name: ((), 5, partial(fixture, name), improvement_bound) for name in FIXTURE_NAMES},
}


def build_construction(
    name: str,
    alpha: AlphaFunction | None = None,
    stable_size: int | None = None,
    size: int | None = None,
) -> BuiltScenario:
    """Build any construction by name, with its claimed stability size
    and improvement factor attached.

    A construction must be given exactly the arguments it reads; any
    other is refused rather than ignored, and the refusal names the
    parameter (``construction 'cycle' requires stable_size``).  The
    claimed factor is the table's claim for the name, called with the
    scenario's alpha, the stable size and the scenario's size:
    ``improvement_bound`` for every construction but ``complete``, which
    claims :func:`complete_graph_factor` (equal to that bound when
    ``q-1`` divides ``m-1``, and never above it).
    """
    key = _name(name, "construction name")
    if key not in _CONSTRUCTIONS:
        raise InvalidInputError(
            f"unknown construction {name!r}; expected one of {CONSTRUCTION_NAMES}"
        )
    reads, q, build, claim = _CONSTRUCTIONS[key]
    given = {"alpha": alpha, "stable_size": stable_size, "size": size}
    for arg, value in given.items():
        if (arg in reads) != (value is not None):
            verb = "does not read" if value is not None else "requires"
            raise InvalidInputError(f"construction {name!r} {verb} {arg}")
    scenario = build(**{arg: given[arg] for arg in reads})
    q = stable_size if q is None else q
    return BuiltScenario(scenario, q, claim(scenario.alpha, q, scenario.size))
