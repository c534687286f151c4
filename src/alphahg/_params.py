"""The defaults and names that the command line's parser shows.

The search's box and node budget and the construction names are
defined here, in a module that imports no engine, so that building the
parser reads them without importing ``search`` or ``generators``; each
of those reads its own from here (``SearchProblem``'s defaults,
``generators.CONSTRUCTION_NAMES``).
"""

#: ``SearchProblem``'s box: ``|weight| <= WEIGHT_BOUND`` and
#: ``1 <= baseline <= BASELINE_BOUND``, ints so that building the parser
#: imports no ``fractions`` (``SearchProblem`` admits them by ``exact``)
WEIGHT_BOUND = 10
BASELINE_BOUND = 10
DEFAULT_NODE_LIMIT = 200_000

#: the bundled instances, one data file each; each is stable up to size 5
FIXTURE_NAMES = ("fig6", "fig7", "fig8", "fig9")
#: every name ``generators.build_construction`` admits, in its table's order
CONSTRUCTION_NAMES = (
    "complete", "halves", "cycle", "two-valued", "two-group", "mantel", *FIXTURE_NAMES,
)
