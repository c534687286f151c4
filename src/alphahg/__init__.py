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
"""

from .bounds import (
    ashg_improvement_bound,
    cpoa_upper_bound,
    fhg_improvement_bound,
    fhg_improvement_limit,
    guarantees_core_existence,
    improvement_bound,
    is_decreasing,
    is_hospitable,
    simple_fhg_bound,
)
from .core import (
    ASHG,
    FHG,
    MFHG,
    ODD_EVEN,
    PAIRWISE_COMM,
    AlphaFunction,
    Coalition,
    Game,
    Partition,
    Scenario,
    coalition_utility,
    partition_utility,
)
from .efficiency import (
    PoaResult,
    best_welfare_partition,
    enumerate_partitions,
    greedy_pairing,
    improvement_cpoa,
    size_cpoa,
    social_welfare,
)
from .errors import (
    AlphaHGError,
    DomainError,
    InvalidInputError,
    ResourceLimitError,
)
from .generators import (
    BuiltScenario,
    build_construction,
    complete_graph_scenario,
    cycle_scenario,
    fixture,
    mantel_scenario,
    two_group_scenario,
    two_halves_scenario,
    two_valued_scenario,
)
from .lp import Constraint, Infeasible, LinearProgram, Optimal, Unbounded, solve
from .search import (
    SearchProblem,
    SearchResult,
    search_blocking_scenario,
    witness_system_lp,
)
from .stability import (
    StabilityReport,
    find_blocking_coalition,
    is_core_stable,
    is_improvement_stable,
    is_size_factor_stable,
    is_size_stable,
    max_improvement_factor_at_size,
    min_improvement_factor,
    scenario_is_size_stable,
)

__version__ = "0.1.0"
