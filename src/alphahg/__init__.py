"""Exact-arithmetic laboratory for relaxed core stability in
size-weighted (alpha) hedonic games.

Agents derive utility from a coalition as the sum of their pairwise
weights to its members, scaled by a factor depending only on the
coalition's size.  The package verifies relaxed core-stability notions
by exhaustive enumeration, evaluates the closed-form improvement bounds
relating them, generates the known tight instances, computes prices of
anarchy, and searches for extremal blocking scenarios with an exact
rational LP engine.  No floating point enters any verdict.

All public types are immutable after construction and every operation
is a pure function, so everything is safe for concurrent use.

Every public name is resolved on first access (PEP 562), so
``import alphahg`` imports no engine: a command-line call loads only
the modules its command runs, and each module a fresh interpreter
imports is a few milliseconds of start-up, compiled from source when no
bytecode cache is written.  ``from alphahg import *``, ``dir(alphahg)``
and ``alphahg.search`` after a bare ``import alphahg`` work as if every
module had been imported up front.
"""

from importlib import import_module as _import_module

#: each submodule and the names the package exports from it
_EXPORTS = {
    "bounds": (
        "ashg_improvement_bound",
        "cpoa_upper_bound",
        "fhg_improvement_bound",
        "fhg_improvement_limit",
        "guarantees_core_existence",
        "improvement_bound",
        "is_decreasing",
        "is_hospitable",
        "simple_fhg_bound",
    ),
    "core": (
        "ASHG",
        "FHG",
        "MFHG",
        "ODD_EVEN",
        "PAIRWISE_COMM",
        "AlphaFunction",
        "Coalition",
        "Game",
        "Partition",
        "Scenario",
        "coalition_utility",
        "partition_utility",
    ),
    "efficiency": (
        "PoaResult",
        "best_welfare_partition",
        "enumerate_partitions",
        "greedy_pairing",
        "improvement_cpoa",
        "size_cpoa",
        "social_welfare",
    ),
    "errors": (
        "AlphaHGError",
        "DomainError",
        "InvalidInputError",
        "ResourceLimitError",
    ),
    "generators": (
        "BuiltScenario",
        "build_construction",
        "complete_graph_scenario",
        "cycle_scenario",
        "fixture",
        "mantel_scenario",
        "two_group_scenario",
        "two_halves_scenario",
        "two_valued_scenario",
    ),
    "io": (),
    "lp": ("Constraint", "Infeasible", "LinearProgram", "Optimal", "Unbounded", "solve"),
    "search": (
        "SearchProblem",
        "SearchResult",
        "search_blocking_scenario",
        "witness_system_lp",
    ),
    "stability": (
        "StabilityReport",
        "find_blocking_coalition",
        "is_core_stable",
        "is_improvement_stable",
        "is_size_factor_stable",
        "is_size_stable",
        "max_improvement_factor_at_size",
        "min_improvement_factor",
        "scenario_is_size_stable",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule, imported on first access (the import binds it
    here), or a name imported from its home module and bound here."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
