"""Command-line interface: verdicts, exit codes, CSV, determinism."""

import csv
import io as stdio
import json
from fractions import Fraction

import pytest

from alphahg import FHG, Partition
from alphahg.cli import main
from alphahg.generators import fixture_path
from alphahg.io import game_to_dict, load_scenario, save_game
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


def write_ashg_example(tmp_path):
    data = {
        "n": 4,
        "alpha": "ashg",
        "weights": [[i, j, str(w)] for i, j, w in EXAMPLE_EDGES],
        "partition": [[0, 1], [2, 3]],
    }
    path = tmp_path / "ashg.json"
    path.write_text(json.dumps(data))
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


class TestGenerate:
    def test_cycle_verified(self, capsys, tmp_path):
        out_path = tmp_path / "cycle.json"
        code, out, _ = run(
            capsys,
            "generate",
            "--construction", "cycle",
            "--q", "4",
            "--variant", "fhg",
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
        code, _, _ = run(capsys, "generate", "--construction", "cycle", "--q", "4")
        assert code == 2


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
            "--alpha", "fhg", "--q", "2", "--m", "4", "--gamma", "3/2",
            "--node-limit", "2",
        )
        assert code == 3
        assert "verdict: budget_exhausted" in out

    def test_env_default_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHAHG_NODE_LIMIT", "2")
        code, out, _ = run(
            capsys, "search", "--alpha", "fhg", "--q", "2", "--m", "4", "--gamma", "3/2"
        )
        assert code == 3

    def test_deterministic_output(self, capsys):
        args = ["search", "--alpha", "ashg", "--q", "2", "--m", "3", "--gamma", "3/2"]
        assert run(capsys, *args) == run(capsys, *args)



SEARCH_ARGS = ("search", "--alpha", "fhg", "--q", "2", "--m", "3", "--gamma", "4/3")


class TestExitCodeContract:
    """0 positive, 1 negative, 2 input error, 3 budget, 4 internal error:
    no bad input and no crash may read as a verdict."""

    @pytest.mark.parametrize("name,value", [
        ("ALPHAHG_NODE_LIMIT", "abc"),
        ("ALPHAHG_NODE_LIMIT", "-1"),
        ("ALPHAHG_TIME_LIMIT", "soon"),
        ("ALPHAHG_TIME_LIMIT", "nan"),
    ])
    def test_bad_environment_budget_exit_two(self, capsys, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        code, _, err = run(capsys, *SEARCH_ARGS)
        assert code == 2
        assert "error" in err

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

    def test_deeply_nested_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, "verify", str(path), "--core")
        assert code == 2
        assert "nested" in err

    def test_negative_node_limit_exit_two(self, capsys):
        code, out, err = run(capsys, *SEARCH_ARGS, "--node-limit", "-1")
        assert code == 2
        assert "verdict" not in out and "node_limit" in err

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_negative_or_nan_time_limit_exit_two(self, capsys, value):
        code, out, err = run(capsys, *SEARCH_ARGS, "--time-limit", value)
        assert code == 2
        assert "verdict" not in out and "time_limit" in err

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
        assert run(capsys, "poa", example_file)[0] == 2
        assert run(capsys, "poa", example_file, "--q", "2", "--k", "2")[0] == 2

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
