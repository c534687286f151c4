"""Command-line interface: verdicts, exit codes, CSV, determinism."""

import csv
import io as stdio
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import alphahg
from alphahg import FHG, Partition
from alphahg.cli import main
from alphahg.generators import fixture_path
from alphahg.io import game_from_dict, game_to_dict, load_game, load_scenario, save_game
from conftest import EXAMPLE_EDGES, example_game


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    save_game(example_game(FHG), str(path), Partition.of([[0, 1], [2, 3]]))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: the running example as an ASHG game file, split into the 4-cycle's pairs
ASHG_EXAMPLE = {
    "n": 4,
    "alpha": "ashg",
    "weights": [[i, j, str(w)] for i, j, w in EXAMPLE_EDGES],
    "partition": [[0, 1], [2, 3]],
}


def write_ashg_example(tmp_path):
    path = tmp_path / "ashg.json"
    path.write_text(json.dumps(ASHG_EXAMPLE))
    return str(path)


class TestVerify:
    def test_stable_exit_zero(self, capsys, tmp_path):
        path = write_ashg_example(tmp_path)
        code, out, _ = run(capsys, "verify", path, "--q-size", "2")
        assert code == 0
        assert out.startswith("stable")

    def test_unstable_exit_one_with_witness(self, capsys, tmp_path):
        path = write_ashg_example(tmp_path)
        code, out, _ = run(capsys, "verify", path, "--q-size", "3")
        assert code == 1
        assert "witness: 0 1 2" in out

    def test_qk_mode(self, capsys, tmp_path):
        path = write_ashg_example(tmp_path)
        code, out, _ = run(capsys, "verify", path, "--qk", "3", "5/3")
        assert code == 0

    def test_improvement_mode(self, capsys, tmp_path):
        path = write_ashg_example(tmp_path)
        assert run(capsys, "verify", path, "--improvement", "2")[0] == 0
        assert run(capsys, "verify", path, "--improvement", "3/2")[0] == 1

    def test_core_mode(self, capsys, example_file):
        code, out, _ = run(capsys, "verify", example_file, "--core")
        assert code == 1  # fractional variant: the triple blocks

    def test_scenario_file(self, capsys):
        code, out, _ = run(capsys, "verify", fixture_path("fig6"), "--q-size", "5")
        assert code == 0
        assert out.startswith("stable")

    def test_parse_error_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "alpha": "fhg", "weights": [[0, 1, 0.5]]}')
        code, _, err = run(capsys, "verify", str(path), "--core")
        assert code == 2
        assert "error" in err

    def test_missing_partition_exit_two(self, capsys, tmp_path):
        path = tmp_path / "nopart.json"
        path.write_text('{"n": 2, "alpha": "fhg", "weights": []}')
        code, _, _ = run(capsys, "verify", str(path), "--core")
        assert code == 2

    @pytest.mark.parametrize("mode", [("--core",), ("--improvement", "2"), ("--qk", "2", "1")])
    def test_scenario_file_takes_only_q_size(self, capsys, mode):
        code, out, err = run(capsys, "verify", fixture_path("fig6"), *mode)
        assert code == 2 and out == ""
        assert err == "error: scenario files support only --q-size\n"


class TestBoundTable:
    def test_published_values(self, capsys):
        code, out, _ = run(
            capsys,
            "bound-table",
            "--alpha", "fhg",
            "--q-range", "2:4",
            "--m-range", "3:9",
        )
        assert code == 0
        rows = list(csv.DictReader(stdio.StringIO(out)))
        assert len(rows) == 7 + 6 + 5
        table = {(int(r["q"]), int(r["m"])): r for r in rows}
        assert Fraction(table[(2, 5)]["bound"]) == Fraction(8, 5)
        assert Fraction(table[(3, 6)]["bound"]) == Fraction(8, 6)
        assert Fraction(table[(4, 8)]["bound"]) == Fraction(10, 8)
        assert Fraction(table[(2, 3)]["improvement_limit"]) == 2
        assert table[(2, 3)]["bound_decimal"] == "1.333333"

    def test_mfhg_rows_are_all_one(self, capsys):
        code, out, _ = run(
            capsys, "bound-table", "--alpha", "mfhg", "--q-range", "2:3", "--m-range", "3:6"
        )
        rows = list(csv.DictReader(stdio.StringIO(out)))
        assert rows and all(r["bound"] == "1" for r in rows)
        assert all(r["improvement_limit"] == "" for r in rows)

    def test_deterministic(self, capsys):
        args = ["bound-table", "--alpha", "ashg", "--q-range", "2:3", "--m-range", "3:6"]
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_bad_range_exit_two(self, capsys):
        code, _, err = run(
            capsys, "bound-table", "--alpha", "fhg", "--q-range", "2-4", "--m-range", "3:9"
        )
        assert code == 2

    def test_limit_scales_with_k(self, capsys):
        # at factor k the ceiling is k * q/(q-1), so no bound exceeds it
        k = Fraction(3, 2)
        code, out, _ = run(
            capsys,
            "bound-table", "--alpha", "fhg", "--q-range", "2:4", "--m-range", "3:9", "--k", "3/2",
        )
        assert code == 0
        rows = list(csv.DictReader(stdio.StringIO(out)))
        assert len(rows) == 7 + 6 + 5
        for r in rows:
            q, limit = int(r["q"]), Fraction(r["improvement_limit"])
            assert limit == k * Fraction(q, q - 1)
            assert Fraction(r["bound"]) <= limit


class TestGenerate:
    def test_cycle_verified(self, capsys, tmp_path):
        out_path = tmp_path / "cycle.json"
        code, out, _ = run(
            capsys,
            "generate",
            "--construction", "cycle",
            "--alpha", "fhg",
            "--q", "4",
            "--out", str(out_path),
        )
        assert code == 0
        assert "improvement-factor: 6/5" in out
        assert "verification: ok" in out
        scenario = load_scenario(str(out_path))
        assert scenario.size == 5

    def test_fixture_by_name(self, capsys):
        code, out, _ = run(capsys, "generate", "--construction", "fig8")
        assert code == 0
        assert "improvement-factor: 2" in out

    def test_missing_parameter_exit_two(self, capsys):
        code, out, err = run(capsys, "generate", "--construction", "cycle", "--q", "4")
        assert code == 2
        assert out == "" and "requires --alpha" in err

    @pytest.mark.parametrize("argv,message", [
        (("--construction", "cycle", "--q", "4"), "construction 'cycle' requires --alpha"),
        (("--construction", "cycle", "--alpha", "fhg"), "construction 'cycle' requires --q"),
        (("--construction", "mantel"), "construction 'mantel' requires --m"),
        (("--construction", "fig6", "--q", "3"), "construction 'fig6' does not read --q"),
        (("--construction", "cycle", "--alpha", "fhg", "--q", "4", "--m", "5"),
         "construction 'cycle' does not read --m"),
    ])
    def test_refusals_name_the_flag(self, capsys, argv, message):
        # the library names its parameters; the command line its flags
        code, out, err = run(capsys, "generate", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_names_are_admitted_by_the_library(self, capsys):
        # as --alpha FHG is: stripped and lower-cased
        args = ("generate", "--construction", "cycle", "--q", "4", "--alpha")
        code, out, _ = run(capsys, *args, "fhg")
        assert code == 0
        assert run(capsys, *args, "FHG") == (0, out, "")
        code, out, _ = run(capsys, "generate", "--construction", " Fig8 ")
        assert code == 0 and "improvement-factor: 2" in out

    def test_header_names_the_admitted_construction(self, capsys):
        code, out, _ = run(capsys, "generate", "--construction", " Fig6 ")
        assert code == 0
        assert out.splitlines()[0] == "construction: fig6"

    @pytest.mark.parametrize("argv,message", [
        (("--construction", "bogus"), "unknown construction 'bogus'"),
        (("--construction", "cycle", "--q", "4", "--alpha", "mfhg"), "variant must be"),
        # an input the construction would ignore is refused, not dropped
        (("--construction", "mantel", "--alpha", "ashg", "--m", "6"), "does not read --alpha"),
        (("--construction", "mantel", "--alpha", "", "--m", "6"), "unknown alpha variant ''"),
    ])
    def test_unknown_name_exit_two(self, capsys, argv, message):
        code, out, err = run(capsys, "generate", *argv)
        assert code == 2
        assert out == "" and err.startswith("error: ") and message in err

    def test_help_lists_the_names(self, capsys):
        from alphahg.generators import CONSTRUCTION_NAMES

        with pytest.raises(SystemExit) as exc:
            main(["generate", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(CONSTRUCTION_NAMES) + "}" in out

    def test_failed_verification_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # a claim that re-verification refutes exits 1, as in search, and
        # leaves no scenario file behind
        from alphahg import cli

        built = cli.generators.build_construction("cycle", alpha=FHG, stable_size=4)

        def wrong_claim(*args, **kwargs):
            return replace(built, factor=built.factor + 1)

        monkeypatch.setattr(cli.generators, "build_construction", wrong_claim)
        out_path = tmp_path / "cycle.json"
        code, out, _ = run(capsys, "generate", "--construction", "cycle", "--out", str(out_path))
        assert code == 1
        assert "improvement-factor: 6/5" in out and "verification: FAILED" in out
        assert "wrote" not in out and not out_path.exists()


class TestSearch:
    def test_feasible_exit_zero(self, capsys, tmp_path):
        out_path = tmp_path / "found.json"
        code, out, _ = run(
            capsys,
            "search",
            "--alpha", "fhg", "--q", "2", "--m", "3", "--gamma", "13/10",
            "--out", str(out_path),
        )
        assert code == 0
        assert "verdict: feasible" in out
        scenario = load_scenario(str(out_path))
        assert scenario.size == 3

    def test_certificate_is_scaled_once(self, capsys, monkeypatch):
        # the search's re-verification and the CLI's report check the
        # same scenario, which scales its weights once
        from alphahg import core

        calls = []
        scale = core._scaled_pairs

        def counting(weights):
            calls.append(weights)
            return scale(weights)

        monkeypatch.setattr(core, "_scaled_pairs", counting)
        code, out, _ = run(
            capsys, "search", "--alpha", "fhg", "--q", "2", "--m", "3", "--gamma", "13/10"
        )
        assert code == 0 and "verification: ok" in out
        assert len(calls) == 1

    def test_infeasible_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "search", "--alpha", "fhg", "--q", "2", "--m", "3", "--gamma", "4/3"
        )
        assert code == 1
        assert "verdict: infeasible_within_bounds" in out

    def test_budget_exit_three(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--alpha", "fhg", "--q", "3", "--m", "4", "--gamma", "5/4",
            "--node-limit", "2",
        )
        assert code == 3
        assert "verdict: budget_exhausted" in out

    def test_node_limit_zero_counts_the_tripping_node(self, capsys):
        code, out, _ = run(capsys, *SEARCH_ARGS, "--node-limit", "0")
        assert code == 3
        assert out.splitlines() == ["verdict: budget_exhausted", "nodes: 1", "lps: 0"]

    def test_deterministic_output(self, capsys):
        args = ["search", "--alpha", "ashg", "--q", "2", "--m", "3", "--gamma", "3/2"]
        assert run(capsys, *args) == run(capsys, *args)

    def test_box_defaults_are_the_library_defaults(self):
        from dataclasses import fields

        from alphahg import cli

        args = cli.build_parser().parse_args(list(SEARCH_ARGS))
        defaults = {f.name: f.default for f in fields(cli.search.SearchProblem)}
        assert args.weight_bound == defaults["weight_bound"]
        assert args.baseline_bound == defaults["baseline_bound"]

    def test_help_shows_the_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--help"])
        assert exc.value.code == 0
        # argparse wraps its help to the terminal's width
        shown = " ".join(capsys.readouterr().out.split()) + " "
        assert "--weight-bound WEIGHT_BOUND default: 10 " in shown
        assert "--baseline-bound BASELINE_BOUND default: 10 " in shown
        assert "default: 200000 " in shown



SEARCH_ARGS = ("search", "--alpha", "fhg", "--q", "2", "--m", "3", "--gamma", "4/3")

_PAIR = {"n": 2, "alpha": "fhg", "weights": [[0, 1, "1"]], "partition": [[0], [1]]}

#: game files that must be refused where they are read: each one
#: overrides fields of _PAIR, with the exit code it must get and the
#: text by which its error names the offending field
FILE_ADMISSION = [
    pytest.param({"partition": [[0], [True]]}, 2, "'partition'", id="bool member"),
    pytest.param({"partition": [["a"], [1]]}, 2, "'partition'", id="string member"),
    pytest.param({"partition": [[0, None], [1]]}, 2, "'partition'", id="null member"),
    pytest.param({"partition": [[[0]], [1]]}, 2, "'partition'", id="list member"),
    pytest.param({"partition": [[{"a": 1}], [1]]}, 2, "'partition'", id="object member"),
    pytest.param({"partition": [[0, 0], [1]]}, 2, "'partition'", id="repeated member"),
    pytest.param({"partition": [[0]]}, 2, "'partition'", id="missing agent"),
    pytest.param({"partition": [[0], [1], [2]]}, 2, "'partition'", id="agent past n"),
    pytest.param({"weights": [[True, 1, "1"]]}, 2, "'weights'", id="bool endpoint"),
    pytest.param({"weights": [["0", 1, "1"]]}, 2, "'weights'", id="string endpoint"),
    pytest.param({"weights": [[0, 1, None]]}, 2, "'weights'", id="null weight"),
    pytest.param({"weights": {"0": 1}}, 2, "'weights'", id="weights not a list"),
    pytest.param({"weights": [[0, 1]]}, 2, "'weights'", id="two-item triple"),
    pytest.param({"weights": ["0 1 1"]}, 2, "'weights'", id="string triple"),
    pytest.param({"weights": [{"i": 0, "j": 1, "w": "1"}]}, 2, "'weights'", id="object triple"),
    pytest.param({"weights": [[0, 2, "1"]]}, 2, "'weights'", id="endpoint out of range"),
    pytest.param({"weights": [[-1, 1, "1"]]}, 2, "'weights'", id="negative endpoint"),
    pytest.param({"weights": [[1, 1, "1"]]}, 2, "'weights'", id="self-edge"),
    pytest.param({"weights": [[0, 1, "1"], [1, 0, "1"]]}, 2, "'weights'", id="repeated pair"),
    pytest.param({"weights": [[0, 1, "1/0"]]}, 2, "'weights'", id="zero denominator"),
    pytest.param({"weights": [[0, 1, ["1"]]]}, 2, "'weights'", id="list weight"),
    pytest.param({"n": True}, 2, "'n'", id="bool n"),
    pytest.param({"n": 0, "weights": [], "partition": []}, 2, "'n'", id="zero n"),
    pytest.param({"n": -2, "weights": [], "partition": []}, 2, "'n'", id="negative n"),
    pytest.param({"alpha": ["1", "x"]}, 2, "'alpha'", id="alpha table entry"),
    pytest.param({"alpha": ["1"]}, 2, "'alpha'", id="short alpha table"),
    # a field that a game does not hold is refused, not dropped: read
    # without its weights, a misspelt file would be a game of no edges
    pytest.param({"weigths": [[0, 1, "1"]]}, 2, "'weigths'", id="foreign field"),
    pytest.param(
        {"n": 21, "weights": [], "partition": [[i] for i in range(21)]}, 3, "n=21", id="21 agents"
    ),
    # the size is refused before any weight is read
    pytest.param({"n": 21, "weights": "x"}, 3, "n=21", id="21 agents, bad weights"),
]

_SCENARIO_PAIR = {"n": 2, "alpha": "fhg", "weights": [[0, 1, "1"]], "baselines": ["1", "1"]}

#: scenario files that ``verify --q-size`` must refuse (exit 2), each
#: overriding fields of _SCENARIO_PAIR, with the text that names the field
SCENARIO_ADMISSION = [
    pytest.param({"baselines": ["1"]}, "'baselines'", id="short baselines"),
    pytest.param({"baselines": {"0": "1"}}, "'baselines'", id="baselines not a list"),
    pytest.param({"baselines": None}, "'baselines'", id="null baselines"),
    pytest.param({"baselines": True}, "'baselines'", id="bool baselines"),
    pytest.param({"baselines": "x"}, "'baselines'", id="string baselines"),
    pytest.param({"baselines": ["1", "x"]}, "'baselines'", id="bad baseline"),
    pytest.param({"weights": [[0, 1]]}, "'weights'", id="bad triple"),
    # a scenario reads no partition, so even a valid one is refused
    pytest.param({"partition": [[0, 1]]}, "'partition'", id="partition"),
    pytest.param({"partition": [[0, 0]]}, "'partition'", id="malformed partition"),
    pytest.param({"weigths": [[0, 1, "1"]]}, "'weigths'", id="foreign field"),
]


class TestExitCodeContract:
    """0 positive, 1 negative, 2 input error, 3 budget, 4 internal error:
    no bad input and no crash may read as a verdict."""

    def test_qk_size_not_an_integer_exit_two(self, capsys, tmp_path):
        path = write_ashg_example(tmp_path)
        code, _, err = run(capsys, "verify", path, "--qk", "x", "1")
        assert code == 2
        assert "--qk" in err

    def test_non_utf8_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"n": 2, "alpha": "fhg", "weights": [], "note": "\xe9"}'.encode("latin-1"))
        code, _, err = run(capsys, "verify", str(path), "--core")
        assert code == 2
        assert "UTF-8" in err

    @pytest.mark.parametrize("command", [("verify", "--core"), ("poa", "--q", "2"), ("greedy",)])
    @pytest.mark.parametrize("n, weight", [("2", "0.5"), ("2.0", "1")])
    def test_float_literal_names_the_file(self, capsys, tmp_path, command, n, weight):
        path = tmp_path / "float.json"
        path.write_text(
            f'{{"n": {n}, "alpha": "fhg", "weights": [[0, 1, {weight}]], "partition": [[0, 1]]}}'
        )
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        literal = weight if n == "2" else n
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: floating-point literal {literal} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [("verify", "--core"), ("poa", "--q", "2"), ("greedy",)])
    @pytest.mark.parametrize("field", ["n", "weight"])
    def test_over_long_integer_exit_two(self, capsys, tmp_path, command, field):
        # int() refuses a literal past the interpreter's digit limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integer literals of any length")
        literal = "1" * (limit + 1)
        n, weight = (literal, "1") if field == "n" else ("2", literal)
        path = tmp_path / "long.json"
        path.write_text(f'{{"n": {n}, "alpha": "fhg", "weights": [[0, 1, {weight}]]}}')
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_deeply_nested_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, "verify", str(path), "--core")
        assert code == 2
        assert "nested" in err

    def test_search_past_the_subset_guard_exit_three(self, capsys):
        code, out, err = run(
            capsys,
            "search", "--alpha", "fhg", "--q", "12", "--m", "24", "--gamma", "1",
            "--node-limit", "2",
        )
        assert code == 3
        assert out == "" and "exceeds the guard" in err

    def test_negative_node_limit_exit_two(self, capsys):
        code, out, err = run(capsys, *SEARCH_ARGS, "--node-limit", "-1")
        assert code == 2
        assert "verdict" not in out and "node_limit" in err

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_negative_or_nan_time_limit_exit_two(self, capsys, value):
        code, out, err = run(capsys, *SEARCH_ARGS, "--time-limit", value)
        assert code == 2
        assert "verdict" not in out and "time_limit" in err

    @pytest.mark.parametrize("command", [("verify", "--core"), ("poa", "--q", "2")])
    @pytest.mark.parametrize("fields,expected,named", FILE_ADMISSION)
    def test_file_admission(self, capsys, tmp_path, command, fields, expected, named):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({**_PAIR, **fields}))
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == expected
        assert out == "" and err.startswith("error: ") and named in err

    @pytest.mark.parametrize("fields,named", SCENARIO_ADMISSION)
    def test_scenario_file_admission(self, capsys, tmp_path, fields, named):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**_SCENARIO_PAIR, **fields}))
        code, out, err = run(capsys, "verify", str(path), "--q-size", "2")
        assert code == 2
        assert out == "" and err.startswith("error: ") and named in err

    @pytest.mark.parametrize("command", [("poa", "--q", "2"), ("greedy",)])
    def test_game_command_refuses_scenario_file(self, capsys, tmp_path, command):
        # poa and greedy read a game, which has no baselines; verify reads
        # the same file as a scenario
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_SCENARIO_PAIR))
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == 2
        assert out == "" and err == "error: field 'baselines': a game file takes no baselines\n"

    @pytest.mark.parametrize("target", ["missing directory", "a directory"])
    @pytest.mark.parametrize("command", ["search", "generate", "greedy"])
    def test_unwritable_out_exit_two(self, capsys, tmp_path, command, target):
        if target == "a directory":
            out_path = tmp_path / "taken"
            out_path.mkdir()
        else:
            out_path = tmp_path / "missing" / "x.json"
        argv = {
            "search": ("search", "--alpha", "fhg", "--q", "2", "--m", "3", "--gamma", "13/10"),
            "generate": ("generate", "--construction", "cycle", "--alpha", "fhg", "--q", "2"),
            "greedy": ("greedy", write_ashg_example(tmp_path)),
        }[command]
        code, _, err = run(capsys, *argv, "--out", str(out_path))
        assert code == 2
        assert err.startswith("error: ") and str(out_path) in err and "Traceback" not in err

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("argv", [
        ("generate", "--construction", "fig6"),
        ("search", "--alpha", "fhg", "--q", "2", "--m", "3", "--gamma", "13/10"),
    ])
    def test_closed_stdout_exit_two(self, argv, buffered):
        # as in `alphahg ... | head -1`: the reader has gone before the
        # command writes, so the output cannot be written, which is no
        # crash, and the exit flush must not report it again
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        package_root = os.path.dirname(os.path.dirname(alphahg.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "alphahg", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    @pytest.mark.parametrize("modes", [
        ("--core", "--q-size", "1"),
        ("--q-size", "2", "--improvement", "2"),
        ("--improvement", "2", "--qk", "3", "5/3"),
        (),
    ])
    def test_verify_needs_exactly_one_mode(self, capsys, tmp_path, modes):
        path = write_ashg_example(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["verify", path, *modes])
        assert exc.value.code == 2

    def test_repeated_calls_share_one_parser(self, capsys, tmp_path):
        # the parser is built once per process; an argparse error must
        # leave it fit for the next call and for another subcommand
        from alphahg import cli

        path = write_ashg_example(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["verify", path, "--q-size", "two"])
        assert exc.value.code == 2
        code, out, _ = run(capsys, "verify", path, "--q-size", "2")
        assert code == 0 and out.startswith("stable")
        code, out, _ = run(capsys, "bound-table", "--alpha", "fhg", "--q-range", "2:2", "--m-range", "3:3")
        assert code == 0 and out.splitlines()[1].startswith("2,3,4/3,")
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("ranges", [
        ("--q-range", "1:3", "--m-range", "3:5"),
        ("--q-range", "2:2", "--m-range", "3:5", "--k", "1/2"),
        ("--q-range", "3:2", "--m-range", "3:5"),
        # int() would read the upper bound as 10
        ("--q-range", "2:2", "--m-range", "3:1_0"),
    ])
    def test_bound_table_input_error_writes_nothing(self, capsys, ranges):
        code, out, err = run(capsys, "bound-table", "--alpha", "fhg", *ranges)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("search", "--alpha", "fhg", "--q", "2", "--m", "3", "--gamma", "1.5"),
        (*SEARCH_ARGS, "--weight-bound", "1.5"),
        ("poa", "x.json", "--k", "1e3"),
        # int() would read these as 1000 and 10
        ("search", "--alpha", "fhg", "--q", "2", "--m", "3", "--gamma", "1_000"),
        (*SEARCH_ARGS, "--weight-bound", "\u0661\u0660"),
    ])
    def test_rational_option_says_why(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        option, value = argv[-2:]
        assert f"argument {option}: not an exact rational: {value!r}" in err
        assert "_rational" not in err

    @pytest.mark.parametrize("argv,option,value", [
        # int() would read these as 3, 1000 and 3
        (("verify", "FILE", "--q-size", "٣"), "--q-size", "٣"),
        ((*SEARCH_ARGS, "--node-limit", "1_000"), "--node-limit", "1_000"),
        (("verify", "FILE", "--qk", "٣", "1"), "--qk", "٣"),
        # the factor of --qk is read after argparse, and named as well
        (("verify", "FILE", "--qk", "3", "abc"), "--qk", "abc"),
        (("verify", "FILE", "--qk", "3", "1/0"), "--qk", "1/0"),
    ])
    def test_integer_option_says_why(self, capsys, example_file, argv, option, value):
        # sizes and counts follow the rational grammar, without a "/"
        argv = [example_file if a == "FILE" else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # refused by argparse
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert option in captured.err and f"{value!r}" in captured.err

    def test_internal_error_exit_four_with_traceback(self, capsys, monkeypatch):
        from alphahg import cli

        def crash(problem):
            raise ZeroDivisionError("planted fault")

        monkeypatch.setattr(cli.search, "search_blocking_scenario", crash)
        code, out, err = run(capsys, *SEARCH_ARGS)
        assert code == cli.EXIT_INTERNAL == 4
        assert "Traceback" in err and "ZeroDivisionError: planted fault" in err


class TestPoaAndGreedy:
    def test_poa_fractional_example(self, capsys, example_file):
        code, out, _ = run(capsys, "poa", example_file, "--q", "2")
        assert code == 0
        lines = dict(line.split(": ") for line in out.strip().splitlines())
        assert Fraction(lines["best-welfare"]) > 0
        assert Fraction(lines["ratio"]) <= 4

    def test_poa_needs_exactly_one_mode(self, capsys, example_file):
        # refused by argparse, as verify's modes are
        for modes in ((), ("--q", "2", "--k", "2")):
            with pytest.raises(SystemExit) as exc:
                main(["poa", example_file, *modes])
            assert exc.value.code == 2
            assert "--q" in capsys.readouterr().err

    def test_greedy_all_negative_prints_singletons(self, capsys, tmp_path):
        data = {
            "n": 3,
            "alpha": "fhg",
            "weights": [[0, 1, "-1"], [0, 2, "-2"], [1, 2, "-1"]],
        }
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "greedy", str(path))
        assert code == 0
        assert out.splitlines() == ["0", "1", "2"]

    def test_greedy_example_pairs(self, capsys, tmp_path):
        path = write_ashg_example(tmp_path)
        code, out, _ = run(capsys, "greedy", path)
        assert code == 0
        assert out.splitlines() == ["0 1", "2 3"]

    def test_greedy_writes_the_pairing(self, capsys, tmp_path):
        # the pairing goes to stdout and to the file; the note to stderr
        out_path = str(tmp_path / "paired.json")
        code, out, err = run(capsys, "greedy", write_ashg_example(tmp_path), "--out", out_path)
        assert (code, out, err) == (0, "0 1\n2 3\n", f"wrote: {out_path}\n")
        assert load_game(out_path) == game_from_dict(ASHG_EXAMPLE)


class TestRoundTrip:
    def test_game_write_read_identical(self, tmp_path):
        game = example_game(FHG)
        partition = Partition.of([[0, 2], [1, 3]])
        path = tmp_path / "g.json"
        save_game(game, str(path), partition)
        from alphahg.io import load_game

        back, back_p = load_game(str(path))
        assert back == game and back_p == partition
        assert game_to_dict(back, back_p) == game_to_dict(game, partition)


_GRAND = {
    "n": 8,
    "alpha": "ashg",
    "weights": [
        [i, j, "2" if (i + j) % 2 == 0 else "1"] for i in range(8) for j in range(i + 1, 8)
    ],
    "partition": [list(range(8))],
}

#: the files that transcripts read, by name
TRANSCRIPT_FILES = {
    "game.json": ASHG_EXAMPLE,
    # an ASHG grand coalition whose weights repeat two strings: every
    # agent's best later weights sum to at most its utility, so the scan
    # skips every first member at every size
    "grand.json": _GRAND,
    # the same with the pair {0, 1} at -10: agent 0's utility is -1, so
    # it blocks alone
    "negative.json": {**_GRAND, "weights": [[0, 1, "-10"], *_GRAND["weights"][1:]]},
    # no partition is 3-size stable, so none is core stable either
    "nostable.json": {
        "n": 5,
        "alpha": ["3", "3", "4", "9/4", "4/3"],
        "weights": [
            [0, 1, "2"], [0, 2, "1"], [0, 3, "1"], [0, 4, "5"],
            [1, 3, "5"], [1, 4, "2"], [2, 3, "1"], [2, 4, "1"],
        ],
    },
}

#: command-line transcripts: each runs its commands in turn in one
#: directory that holds TRANSCRIPT_FILES, and pins each command's exit
#: code and every line of its stdout
TRANSCRIPTS = [
    pytest.param((
        ("generate --construction fig6", 0, [
            "construction: fig6", "agents: 7", "stable-up-to: 5", "improvement-factor: 8/7",
            "verification: ok",
        ]),
    ), id="fig6"),
    pytest.param((
        ("generate --construction fig9", 0, [
            "construction: fig9", "agents: 8", "stable-up-to: 5", "improvement-factor: 2",
            "verification: ok",
        ]),
    ), id="fig9"),
    # a scenario file written, then read back by verify
    pytest.param((
        ("generate --construction mantel --m 6 --out m6.json", 0, [
            "construction: mantel", "agents: 6", "stable-up-to: 3", "improvement-factor: 4/3",
            "verification: ok", "wrote: m6.json",
        ]),
        ("verify m6.json --q-size 3", 0, ["stable (scenario, sizes 1..3)"]),
    ), id="mantel certificate"),
    pytest.param((
        ("search --alpha fhg --q 2 --m 3 --gamma 4/3", 1, [
            "verdict: infeasible_within_bounds", "nodes: 1", "lps: 1",
        ]),
    ), id="search infeasible"),
    # the LP point read, written as a certificate and verified
    pytest.param((
        ("search --alpha fhg --q 2 --m 3 --gamma 13/10 --out found.json", 0, [
            "verdict: feasible", "nodes: 1", "lps: 1", "improvement-factor: 4/3",
            "verification: ok", "wrote: found.json",
        ]),
        ("verify found.json --q-size 2", 0, ["stable (scenario, sizes 1..2)"]),
    ), id="search certificate"),
    # a box whose bounds are not integers, so the LP's rows are rescaled
    pytest.param((
        ("search --alpha fhg --q 3 --m 4 --gamma 5/4 --weight-bound 7/3 --baseline-bound 5/2", 1, [
            "verdict: infeasible_within_bounds", "nodes: 4", "lps: 4",
        ]),
    ), id="fractional box infeasible"),
    pytest.param((
        ("search --alpha fhg --q 3 --m 4 --gamma 6/5 --weight-bound 7/3 --baseline-bound 5/2"
         " --out frac.json", 0, [
            "verdict: feasible", "nodes: 5", "lps: 5", "improvement-factor: 5/4",
            "verification: ok", "wrote: frac.json",
        ]),
        ("verify frac.json --q-size 3", 0, ["stable (scenario, sizes 1..3)"]),
    ), id="fractional box certificate"),
    # the running example's 4-cycle is blocked by {0, 1, 2}, which beats
    # 3/2 at size 3, and no coalition beats 2
    pytest.param((
        ("verify game.json --core", 1, ["unstable (sizes 1..4, factor 1)", "witness: 0 1 2"]),
        ("verify game.json --qk 3 3/2", 1, [
            "unstable (sizes 3..3, factor 3/2)", "witness: 0 1 2",
        ]),
        ("verify game.json --improvement 2", 0, ["stable (sizes 1..4, factor 2)"]),
        ("poa game.json --q 2", 0, ["best-welfare: 28", "worst-stable-welfare: 12", "ratio: 7/3"]),
        ("poa game.json --k 2", 0, ["best-welfare: 28", "worst-stable-welfare: 12", "ratio: 7/3"]),
    ), id="running example"),
    pytest.param((
        ("poa nostable.json --q 3", 0, [
            "best-welfare: 86", "worst-stable-welfare: -", "ratio: no_stable_outcome",
        ]),
        ("poa nostable.json --k 1", 0, [
            "best-welfare: 86", "worst-stable-welfare: -", "ratio: no_stable_outcome",
        ]),
    ), id="no stable outcome"),
    # at q = 3 the larger coalition (m = 5) has the lower factor
    pytest.param((
        ("bound-table --alpha fhg --q-range 3:3 --m-range 4:5", 0, [
            "q,m,bound,bound_decimal,improvement_limit",
            "3,4,5/4,1.250000,3/2",
            "3,5,6/5,1.200000,3/2",
        ]),
    ), id="bound table"),
    pytest.param((
        ("verify grand.json --core", 0, ["stable (sizes 1..8, factor 1)"]),
        ("verify negative.json --core", 1, ["unstable (sizes 1..8, factor 1)", "witness: 0"]),
    ), id="grand coalition"),
]


@pytest.mark.parametrize("steps", TRANSCRIPTS)
def test_transcript(capsys, tmp_path, monkeypatch, steps):
    monkeypatch.chdir(tmp_path)
    for name, data in TRANSCRIPT_FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    for argv, code, lines in steps:
        out = "".join(f"{line}\n" for line in lines)
        assert run(capsys, *argv.split()) == (code, out, ""), argv


#: every valid command line of this file's tables, and one that sets
#: every option of each command that the tables leave unset
VALID_ARGVS = [
    *(argv.split() for steps in TRANSCRIPTS for argv, _, _ in steps.values[0]),
    list(SEARCH_ARGS),
    [*SEARCH_ARGS, "--weight-bound", "7/3", "--baseline-bound", "5", "--node-limit", "9",
     "--time-limit", "1.5", "--out", "x.json"],
    ["generate", "--construction", "cycle", "--alpha", "fhg", "--q", "4", "--out", "x.json"],
    ["bound-table", "--alpha", "ashg", "--q-range", "2:3", "--m-range", "3:6", "--k", "3/2"],
    ["greedy", "game.json", "--out", "x.json"],
]


class TestParseOnce:
    """A command line that names a command is parsed by that command's
    parser alone; the top-level parser handles only one that names none."""

    @pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
    def test_command_parser_reads_what_the_full_parse_reads(self, argv):
        from alphahg import cli

        full = vars(cli.build_parser().parse_args(argv))
        assert full.pop("command") == argv[0]
        assert vars(cli._parsers()[1][argv[0]].parse_args(argv[1:])) == full

    def test_commands_are_the_parsers_choices(self):
        from alphahg import cli

        usage = cli.build_parser().format_usage()
        commands = cli._parsers()[1]
        assert "{" + ",".join(commands) + "}" in usage
        assert {argv[0] for argv in VALID_ARGVS} == set(commands)

    def test_a_command_never_runs_the_top_level_parser(self, capsys, monkeypatch):
        from alphahg import cli

        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser ran")

        monkeypatch.setattr(cli.build_parser(), "parse_known_args", refuse)
        assert run(capsys, *SEARCH_ARGS)[0] == 1
        code, out, _ = run(
            capsys, "bound-table", "--alpha", "fhg", "--q-range", "2:2", "--m-range", "3:3"
        )
        assert code == 0 and out.splitlines()[1].startswith("2,3,4/3,")
        for name in cli._parsers()[1]:
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith(f"usage: alphahg {name} ")
        with pytest.raises(SystemExit) as exc:
            main([*SEARCH_ARGS, "--bogus"])
        assert exc.value.code == 2

    def test_argv_defaults_to_the_process_arguments(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["alphahg", *SEARCH_ARGS])
        code = main()
        assert code == 1
        assert capsys.readouterr().out.startswith("verdict: infeasible_within_bounds\n")

    def test_unrecognized_argument_is_the_commands_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*SEARCH_ARGS, "--bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: alphahg search ")
        assert err.endswith("alphahg search: error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("argv,code,stream,text", [
        ((), 2, "err", "alphahg: error: the following arguments are required: command\n"),
        (("bogus",), 2, "err", "alphahg: error: argument command: invalid choice: 'bogus'"),
        (("--help",), 0, "out", "Exact stability lab for size-weighted hedonic games."),
        # an option before the command is the top-level parser's to refuse
        (("--q", "2", *SEARCH_ARGS), 2, "err", "alphahg: error: "),
    ])
    def test_no_command_gets_the_top_level_parser(self, capsys, argv, code, stream, text):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == code
        captured = capsys.readouterr()
        shown = captured.out if stream == "out" else captured.err
        assert shown.startswith("usage: alphahg [-h] {verify,bound-table,")
        assert text in shown
