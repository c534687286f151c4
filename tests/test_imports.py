"""What the package and the command line import, and the public API
that lazy loading must keep: each check of a fresh footprint runs in
its own interpreter, since this one has imported every module."""

import json
import os
import re
import subprocess
import sys

import pytest

import alphahg
from alphahg import _params, generators, search

ENGINES = ("core", "io", "lp", "search", "stability", "efficiency", "generators", "bounds")

#: ``from alphahg import *`` before the names were resolved lazily: each
#: name and the module that defines it (a submodule maps to itself)
PUBLIC = {
    "bounds": "bounds", "core": "core", "efficiency": "efficiency", "errors": "errors",
    "generators": "generators", "io": "io", "lp": "lp", "search": "search",
    "stability": "stability",
    **dict.fromkeys((
        "ashg_improvement_bound", "cpoa_upper_bound", "fhg_improvement_bound",
        "fhg_improvement_limit", "guarantees_core_existence", "improvement_bound",
        "is_decreasing", "is_hospitable", "simple_fhg_bound",
    ), "bounds"),
    **dict.fromkeys((
        "ASHG", "FHG", "MFHG", "ODD_EVEN", "PAIRWISE_COMM", "AlphaFunction", "Coalition",
        "Game", "Partition", "Scenario", "coalition_utility", "partition_utility",
    ), "core"),
    **dict.fromkeys((
        "PoaResult", "best_welfare_partition", "enumerate_partitions", "greedy_pairing",
        "improvement_cpoa", "size_cpoa", "social_welfare",
    ), "efficiency"),
    **dict.fromkeys(
        ("AlphaHGError", "DomainError", "InvalidInputError", "ResourceLimitError"), "errors"
    ),
    **dict.fromkeys((
        "BuiltScenario", "build_construction", "complete_graph_scenario", "cycle_scenario",
        "fixture", "mantel_scenario", "two_group_scenario", "two_halves_scenario",
        "two_valued_scenario",
    ), "generators"),
    **dict.fromkeys(
        ("Constraint", "Infeasible", "LinearProgram", "Optimal", "Unbounded", "solve"), "lp"
    ),
    **dict.fromkeys(
        ("SearchProblem", "SearchResult", "search_blocking_scenario", "witness_system_lp"),
        "search",
    ),
    **dict.fromkeys((
        "StabilityReport", "find_blocking_coalition", "is_core_stable",
        "is_improvement_stable", "is_size_factor_stable", "is_size_stable",
        "max_improvement_factor_at_size", "min_improvement_factor",
        "scenario_is_size_stable",
    ), "stability"),
}

#: runs ``alphahg.cli.main`` on its arguments with stdout discarded, then
#: prints the exit code and the package's modules that are loaded
PROBE = """
import contextlib, io, json, sys
from alphahg import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("alphahg."))]))
"""


def fresh(code, *args):
    """stdout of ``code`` run in a fresh interpreter that imports the
    package under test, installed or not."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(alphahg.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return proc.stdout


def loaded_by(*argv):
    """(exit code, engines loaded) of one CLI call in a fresh interpreter."""
    code, modules = json.loads(fresh(PROBE, *argv))
    return code, {m.removeprefix("alphahg.") for m in modules} & set(ENGINES)


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({
        "n": 4, "alpha": "ashg",
        "weights": [[0, 1, "3"], [1, 2, "3"], [2, 3, "3"], [3, 0, "3"], [0, 2, "2"]],
        "partition": [[0, 1], [2, 3]],
    }))
    return str(path)


class TestFootprint:
    def test_parser_loads_no_engine(self):
        out = fresh(
            "import json, sys, alphahg, alphahg.cli; alphahg.cli.build_parser();"
            " print(json.dumps(list(sys.modules)))"
        )
        loaded = set(json.loads(out))
        assert not {f"alphahg.{name}" for name in ENGINES} & loaded
        # the box's defaults are ints and bound-table's --k a string, so
        # no rational arithmetic is imported before a command parses
        assert not {"fractions", "decimal"} & loaded

    def test_verify_loads_no_lp_search_or_efficiency(self, game_file):
        code, engines = loaded_by("verify", game_file, "--core")
        assert code == 1
        assert {"io", "stability"} <= engines
        assert not engines & {"lp", "search", "efficiency"}

    def test_poa_loads_no_lp_search_stability_or_generators(self, game_file):
        code, engines = loaded_by("poa", game_file, "--q", "2")
        assert code == 0
        assert "efficiency" in engines
        assert not engines & {"lp", "search", "stability", "generators"}

    def test_search_loads_no_efficiency_or_generators(self):
        code, engines = loaded_by(
            "search", "--alpha", "fhg", "--q", "2", "--m", "3", "--gamma", "4/3"
        )
        assert code == 1
        assert {"lp", "search"} <= engines
        # the options are read by _rat, and an infeasible search writes no
        # certificate, so the file layer is never needed
        assert not engines & {"efficiency", "generators", "io"}

    def test_generate_loads_no_lp_search_or_efficiency(self):
        code, engines = loaded_by("generate", "--construction", "mantel", "--m", "6")
        assert code == 0
        assert "generators" in engines
        assert not engines & {"lp", "search", "efficiency"}

    def test_bound_table_and_greedy_run_fresh(self, game_file):
        # every command binds the engines it reaches before it reads them
        code, engines = loaded_by(
            "bound-table", "--alpha", "fhg", "--q-range", "2:3", "--m-range", "3:4"
        )
        assert code == 0 and "bounds" in engines
        assert not engines & {"lp", "search", "efficiency", "stability", "generators"}
        code, engines = loaded_by("greedy", game_file)
        assert code == 0 and "efficiency" in engines
        assert not engines & {"lp", "search", "stability", "generators"}


class TestPublicApi:
    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from alphahg import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(PUBLIC)
        for name, home in PUBLIC.items():
            module = getattr(alphahg, home)
            expected = module if name == home else getattr(module, name)
            assert namespace[name] is expected is getattr(alphahg, name), name

    def test_dir_lists_every_public_name(self):
        assert set(PUBLIC) <= set(dir(alphahg))

    def test_submodule_after_a_bare_import(self):
        out = fresh(
            "import sys, alphahg; print(alphahg.search.SearchProblem.__module__,"
            " 'alphahg.lp' in sys.modules, alphahg.Game is alphahg.core.Game)"
        )
        assert out.split() == ["alphahg.search", "True", "True"]

    def test_unknown_name_is_named(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            alphahg.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from alphahg import no_such_name", {})

    def test_readme_library_example_runs(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme, encoding="utf-8") as handle:
            text = handle.read()
        section = text.split("## Library example", 1)[1]
        block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        exec(compile(block, "README.md", "exec"), {})


class TestParserFacts:
    def test_constructions_table_has_exactly_the_names(self):
        assert tuple(generators._CONSTRUCTIONS) == generators.CONSTRUCTION_NAMES

    def test_library_reads_the_shared_defaults(self):
        assert generators.CONSTRUCTION_NAMES is _params.CONSTRUCTION_NAMES
        assert generators.FIXTURE_NAMES is _params.FIXTURE_NAMES
        assert search.DEFAULT_NODE_LIMIT == search.SearchProblem.node_limit
        assert search.SearchProblem.weight_bound is _params.WEIGHT_BOUND
        assert search.SearchProblem.baseline_bound is _params.BASELINE_BOUND
