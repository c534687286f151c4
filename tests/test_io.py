"""File formats: exact rationals, round trips, float rejection."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphahg import ASHG, FHG, AlphaFunction, Game, InvalidInputError, Partition
from alphahg.generators import fixture, fixture_path
from alphahg.stability import Scenario
from alphahg.io import (
    format_rational,
    game_from_dict,
    game_to_dict,
    load_game,
    load_json,
    load_scenario,
    parse_rational,
    save_game,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from conftest import example_game
from reference_stability import scaled_weights

#: an alpha table as a file writes it, and as the table it is read as
TABLE_ALPHA_JSON = ["0", "1/2", "1/3", "1/4"]
TABLE_ALPHA = AlphaFunction.from_table(TABLE_ALPHA_JSON)

#: rational strings a file may repeat, two of them equal in value
REPEATED = ["1", "-1", "3/4", " 3 / 4 ", "0", "-7/2", "2/6", "1/3"]


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3/4", Fraction(3, 4)),
            ("-7/2", Fraction(-7, 2)),
            ("5", Fraction(5)),
            (12, Fraction(12)),
            ("-3", Fraction(-3)),
            ("  2/6 ", Fraction(1, 3)),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("bad", [3.5, "3.5", "1e3", "nan", "1/0", "a/b", None, True, [1]])
    def test_rejects(self, bad):
        with pytest.raises(InvalidInputError):
            parse_rational(bad)

    def test_format(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(-8, 2)) == "-4"


class TestGameFormat:
    def test_round_trip(self):
        game = example_game(FHG)
        partition = Partition.of([[0, 1], [2, 3]])
        data = game_to_dict(game, partition)
        back, back_partition = game_from_dict(data)
        assert back == game
        assert back_partition == partition

    def test_unlisted_pairs_default_to_zero(self):
        game, _ = game_from_dict({"n": 3, "alpha": "ashg", "weights": [[0, 1, "2"]]})
        assert game.weight(0, 2) == 0
        assert game.weight(0, 1) == 2

    def test_alpha_as_table(self):
        game, _ = game_from_dict(
            {"n": 2, "alpha": ["1", "1/2"], "weights": [[0, 1, 1]]}
        )
        assert game.alpha.kind == "table"
        assert game.alpha.value(2) == Fraction(1, 2)

    def test_float_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            game_from_dict({"n": 2, "alpha": "fhg", "weights": [[0, 1, 1.5]]})

    def test_partition_must_cover(self):
        with pytest.raises(InvalidInputError):
            game_from_dict(
                {"n": 3, "alpha": "fhg", "weights": [], "partition": [[0, 1]]}
            )

    def test_missing_field(self):
        with pytest.raises(InvalidInputError):
            game_from_dict({"alpha": "fhg", "weights": []})

    def test_repeated_member_refused_alike(self):
        # a Coalition collapses a repeat, so Partition refuses it first,
        # in the library and in a file alike
        message = "partition block [0, 0] repeats an agent"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            Partition.of([[0, 0], [1]])
        with pytest.raises(InvalidInputError, match=re.escape(f"field 'partition': {message}")):
            game_from_dict({"n": 2, "alpha": "fhg", "partition": [[0, 0], [1]]})

    @pytest.mark.parametrize("text,message", [
        ('{"n": 2, "alpha": 5}', "field 'alpha': alpha must be a variant name or a table"),
        ('{"n": 2, "alpha": "fhg", "partition": [0, 1]}', "field 'partition': partition must be"),
        ("[]", "expected a JSON object"),
    ], ids=["number alpha", "flat partition", "array file"])
    def test_file_refusals(self, tmp_path, text, message):
        path = tmp_path / "game.json"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            load_game(str(path))

    def test_repeated_key_refused(self, tmp_path):
        # JSON would keep the last "partition", which splits a stable
        # grand coalition into unstable singletons; either copy alone
        # is read as it is
        edges = '"weights": [[0, 1, "1"], [0, 2, "1"], [1, 2, "1"]]'
        first, second = '"partition": [[0, 1], [2]]', '"partition": [[0], [1], [2]]'
        path = tmp_path / "game.json"
        for partition, blocks in ((first, [[0, 1], [2]]), (second, [[0], [1], [2]])):
            path.write_text(f'{{"n": 3, "alpha": "fhg", {edges}, {partition}}}')
            assert load_game(str(path))[1] == Partition.of(blocks)
        path.write_text(f'{{"n": 3, "alpha": "fhg", {edges}, {first}, {second}}}')
        message = f"{path}: key 'partition' repeated in one object"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            load_game(str(path))
        # in a nested object too
        path.write_text('{"n": 2, "alpha": "fhg", "weights": [{"a": 1, "a": 2}]}')
        with pytest.raises(InvalidInputError, match="key 'a' repeated"):
            load_json(str(path))

    def test_table_alpha_file_round_trip(self, tmp_path):
        game = Game.from_edges(4, [(0, 1, "3/2"), (2, 3, -1)], TABLE_ALPHA)
        partition = Partition.of([[0, 1], [2, 3]])
        path = str(tmp_path / "game.json")
        save_game(game, path, partition)
        assert load_game(path) == (game, partition)
        assert load_json(path)["alpha"] == TABLE_ALPHA_JSON


class TestRoundTripProperty:
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_any_game_survives_serialization(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        alpha = data.draw(
            st.sampled_from(["ashg", "fhg", "mfhg", "pairwise_comm", "odd_even"])
        )
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = data.draw(
                    st.fractions(min_value=-9, max_value=9, max_denominator=12)
                )
                matrix[i][j] = w
                matrix[j][i] = w
        game = Game.from_matrix(matrix, AlphaFunction.from_name(alpha))
        back, _ = game_from_dict(game_to_dict(game))
        assert back == game


class TestScenarioFormat:
    def test_round_trip(self):
        scenario = fixture("fig8")
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_table_alpha_file_round_trip(self, tmp_path):
        scenario = Scenario.from_pairs(
            TABLE_ALPHA, 4, lambda i, j: Fraction(i + j, 2), ["1", "1/2", 2, 3]
        )
        path = str(tmp_path / "scenario.json")
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario
        assert load_json(path)["alpha"] == TABLE_ALPHA_JSON

    def test_bundled_data_files_match_builtins(self):
        # the hand-drawn instances, pinned here independently of the data
        # files: heavy edges weigh 2, light edges 1, every other pair 0
        fig7_light = [(i, j) for i in range(8) for j in range(i + 2, 8) if (i, j) != (0, 7)]
        drawn = {
            "fig6": (FHG, 7, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5, 6)],
                     [(3, 5), (3, 6), (4, 5), (4, 6)], [1] * 7),
            "fig7": (FHG, 8, [(i, (i + 1) % 8) for i in range(8)], fig7_light, [1] * 8),
            "fig8": (ASHG, 7, [(0, 1), (1, 2), (6, 0)],
                     [(2, 3), (2, 4), (3, 4), (4, 5), (5, 6)], [2, 2, 2, 1, 1, 1, 1]),
            "fig9": (ASHG, 8, [(0, 1)],
                     [(0, 2), (0, 7), (1, 3), (1, 4), (2, 3), (2, 5), (2, 6), (4, 5), (6, 7)],
                     [2, 2, 2, 1, 1, 1, 1, 1]),
        }
        for name, (alpha, size, heavy, light, baselines) in drawn.items():
            matrix = [[Fraction(0)] * size for _ in range(size)]
            for edges, w in ((heavy, 2), (light, 1)):
                for i, j in edges:
                    matrix[i][j] = matrix[j][i] = Fraction(w)
            expected = Scenario(
                size=size,
                weights=tuple(tuple(row) for row in matrix),
                baselines=tuple(Fraction(b) for b in baselines),
                alpha=alpha,
            )
            assert load_scenario(fixture_path(name)) == expected
            assert fixture(name) == expected

    def test_baselines_length_checked(self):
        data = scenario_to_dict(fixture("fig6"))
        data["baselines"] = data["baselines"][:-1]
        with pytest.raises(InvalidInputError):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "bad", [["1"], ["1", "1", "1"], "11", b"11", ("1", 0.5)],
        ids=["short", "long", "str", "bytes", "float"],
    )
    def test_bad_baselines_refused_alike(self, bad):
        # Scenario, Scenario.from_pairs and a scenario file admit
        # baselines through one admitter, so they refuse with one message
        messages = []
        for build in (
            lambda: Scenario(2, ((0, 1), (1, 0)), bad, FHG),
            lambda: Scenario.from_pairs(FHG, 2, lambda i, j: 1, bad),
            lambda: scenario_from_dict(
                {"n": 2, "alpha": "fhg", "weights": [[0, 1, "1"]], "baselines": bad}
            ),
        ):
            with pytest.raises(InvalidInputError) as caught:
                build()
            messages.append(str(caught.value))
        assert messages == [messages[0], messages[0], f"field 'baselines': {messages[0]}"]


def _random_file(rng: random.Random, n: int):
    """A game and scenario file of ``n`` agents, as the parsed JSON a
    file gives, with the matrix and baselines it describes: negative
    weights, denominators, unlisted pairs and listed zeros, triples in
    any order with either endpoint first, and weights written as ints
    or as rational strings in any form ``exact`` admits."""
    matrix = [[Fraction(0)] * n for _ in range(n)]
    triples = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                continue
            w = Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2, 3, 7, 60, 1000)))
            matrix[i][j] = matrix[j][i] = w
            text = rng.choice([
                f"{w.numerator}/{w.denominator}",
                f" {3 * w.numerator} / {3 * w.denominator} ",
                str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}",
            ])
            value = w.numerator if w.denominator == 1 and rng.random() < 0.5 else text
            triples.append([j, i, value] if rng.random() < 0.5 else [i, j, value])
    rng.shuffle(triples)
    baselines = [Fraction(rng.randint(-5, 20), rng.choice((1, 4, 9))) for _ in range(n)]
    alpha = rng.choice(["ashg", "fhg", "mfhg", "pairwise_comm", "odd_even"])
    data = {"n": n, "alpha": alpha, "weights": triples}
    scenario = {**data, "baselines": [format_rational(b) for b in baselines]}
    # through JSON text, as a file is read
    data, scenario = json.loads(json.dumps(data)), json.loads(json.dumps(scenario))
    return data, scenario, matrix, baselines, AlphaFunction.from_name(alpha)


class TestAdmissionReference:
    """A file's weights are admitted in one pass, and the builders skip
    the whole-matrix check; every object they build must equal the one
    the checked generic constructors build from the same matrix, and its
    scaling the whole-matrix scaling."""

    def test_files_match_the_generic_constructors(self):
        rng = random.Random(23)
        for n in range(1, 17):
            for _ in range(4):
                data, scenario_data, matrix, baselines, alpha = _random_file(rng, n)
                game, partition = game_from_dict(data)
                assert partition is None
                expected = Game.from_matrix(matrix, alpha)
                assert game == expected
                assert game._scaled == scaled_weights(matrix) == expected._scaled
                scenario = scenario_from_dict(scenario_data)
                expected = Scenario(n, matrix, baselines, alpha)
                assert scenario == expected
                assert scenario._scaled == scaled_weights(matrix) == expected._scaled

    def test_builders_match_the_generic_constructors(self):
        rng = random.Random(29)
        for n in range(1, 17):
            data, _, matrix, baselines, alpha = _random_file(rng, n)
            game = Game.from_edges(n, [tuple(t) for t in data["weights"]], alpha)
            assert game == Game(n, matrix, alpha)
            assert game._scaled == scaled_weights(matrix)
            scenario = Scenario.from_pairs(alpha, n, lambda i, j: matrix[i][j], baselines)
            assert scenario == Scenario(n, matrix, baselines, alpha)
            assert scenario._scaled == scaled_weights(matrix)
            # built rows are tuples of Fractions, as the checked ones are
            for built in (game.weights, scenario.weights):
                assert type(built) is tuple and all(type(row) is tuple for row in built)
                assert all(type(w) is Fraction for row in built for w in row)

    def test_repeated_strings_match_the_generic_constructors(self):
        # a file's weights and baselines drawn from a few strings: each
        # string is parsed once, and a repeat reuses its Fraction
        rng = random.Random(31)
        for n in range(2, 17):
            for _ in range(3):
                texts = rng.sample(REPEATED, rng.randint(1, 3))
                matrix = [[Fraction(0)] * n for _ in range(n)]
                triples = []
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < 0.2:
                            continue
                        text = rng.choice(texts)
                        matrix[i][j] = matrix[j][i] = parse_rational(text)
                        triples.append([j, i, text] if rng.random() < 0.5 else [i, j, text])
                rng.shuffle(triples)
                baseline_texts = [rng.choice(texts) for _ in range(n)]
                alpha = rng.choice([ASHG, FHG])
                data = {"n": n, "alpha": alpha.name, "weights": triples}
                game, _ = game_from_dict(data)
                assert game == Game.from_matrix(matrix, alpha)
                assert game._scaled == scaled_weights(matrix)
                scenario = scenario_from_dict({**data, "baselines": baseline_texts})
                baselines = [parse_rational(text) for text in baseline_texts]
                assert scenario == Scenario(n, matrix, baselines, alpha)
                assert scenario._scaled == scaled_weights(matrix)
                shared = {}
                for i, j, text in triples:
                    assert shared.setdefault(text, game.weights[i][j]) is game.weights[i][j]
                shared = {}
                for text, b in zip(baseline_texts, scenario.baselines):
                    assert shared.setdefault(text, b) is b

    @pytest.mark.parametrize(
        "first,second", [("1", "1"), ("0", "0"), (" 0 ", " 0 "), ("3/4", "3/4"), ("0", 0), (0, "0")]
    )
    def test_pair_listed_twice_refused(self, first, second):
        # a repeated string shares its Fraction, and "0" one as well, but
        # never the zero that unlisted pairs hold, so a pair listed twice
        # is refused whatever it weighs
        for triples in (
            [[0, 1, first], [0, 1, second]],
            [[0, 1, first], [1, 2, first], [1, 0, second]],
        ):
            with pytest.raises(InvalidInputError, match="duplicate edge for pair"):
                game_from_dict({"n": 3, "alpha": "fhg", "weights": triples})
            with pytest.raises(InvalidInputError, match="duplicate edge for pair"):
                Game.from_edges(3, triples, FHG)
