"""File formats.

Games and scenarios are stored as JSON with exact rational strings.
Floating-point literals are rejected outright: stability verdicts are
boundary-sensitive and silent rounding would corrupt them.

Game file::

    {
      "n": 4,
      "alpha": "ashg",                  // variant name, or a table
                                        // ["1", "1/2", ...] of rationals
      "weights": [[0, 1, "3"], ...],    // triples [i, j, "p/q"];
                                        // unlisted pairs default to 0
      "partition": [[0, 1], [2, 3]]     // optional
    }

Scenario file: same shape plus ``"baselines": ["1", ...]`` (one entry
per agent).  Rationals serialize as ``"p/q"`` or integer strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from ._rat import exact as parse_rational
from .core import AlphaFunction, Game, Partition, check_partition
from .errors import InvalidInputError
from .stability import Scenario


def format_rational(value: Fraction) -> str:
    """``"p/q"``, or just ``"p"`` for integers."""
    value = parse_rational(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _alpha_to_json(alpha: AlphaFunction) -> Any:
    if alpha.kind == "table":
        assert alpha.table is not None
        return [format_rational(v) for v in alpha.table]
    return alpha.name


def _alpha_from_json(value: Any) -> AlphaFunction:
    if isinstance(value, str):
        return AlphaFunction.from_name(value)
    if isinstance(value, list):
        return AlphaFunction.from_table(parse_rational(v) for v in value)
    raise InvalidInputError("alpha must be a variant name or a table of rationals")


def _weights_to_triples(weights) -> list[list]:
    triples = []
    n = len(weights)
    for i in range(n):
        for j in range(i + 1, n):
            if weights[i][j] != 0:
                triples.append([i, j, format_rational(weights[i][j])])
    return triples


def _edges_from_json(value: Any) -> list[tuple[int, int, Fraction]]:
    if not isinstance(value, list):
        raise InvalidInputError("weights must be a list of [i, j, rational] triples")
    edges = []
    for entry in value:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise InvalidInputError(f"bad weight triple: {entry!r}")
        i, j, w = entry
        if not (isinstance(i, int) and isinstance(j, int)) or isinstance(i, bool) or isinstance(j, bool):
            raise InvalidInputError(f"agent indices must be integers: {entry!r}")
        edges.append((i, j, parse_rational(w)))
    return edges


def game_to_dict(game: Game, partition: Partition | None = None) -> dict:
    data: dict[str, Any] = {
        "n": game.n,
        "alpha": _alpha_to_json(game.alpha),
        "weights": _weights_to_triples(game.weights),
    }
    if partition is not None:
        data["partition"] = [list(block.members) for block in partition.blocks]
    return data


def game_from_dict(data: dict, max_agents: int | None = None) -> tuple[Game, Partition | None]:
    if not isinstance(data, dict):
        raise InvalidInputError("expected a JSON object")
    try:
        n = data["n"]
        alpha = _alpha_from_json(data["alpha"])
        edges = _edges_from_json(data.get("weights", []))
    except KeyError as exc:
        raise InvalidInputError(f"missing field {exc.args[0]!r}") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidInputError("n must be an integer")
    kwargs = {} if max_agents is None else {"max_agents": max_agents}
    game = Game.from_edges(n, edges, alpha, **kwargs)
    partition = None
    if "partition" in data:
        blocks = data["partition"]
        if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
            raise InvalidInputError("partition must be a list of lists of agent indices")
        partition = Partition.of(blocks)
        check_partition(game, partition)
    return game, partition


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "n": scenario.size,
        "alpha": _alpha_to_json(scenario.alpha),
        "weights": _weights_to_triples(scenario.weights),
        "baselines": [format_rational(b) for b in scenario.baselines],
    }


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise InvalidInputError("expected a JSON object")
    game, _ = game_from_dict({k: v for k, v in data.items() if k != "baselines"})
    baselines = data.get("baselines")
    if not isinstance(baselines, list) or len(baselines) != game.n:
        raise InvalidInputError("baselines must list one rational per agent")
    return Scenario(
        size=game.n,
        weights=game.weights,
        baselines=tuple(parse_rational(b) for b in baselines),
        alpha=game.alpha,
    )


def is_scenario_dict(data: dict) -> bool:
    return isinstance(data, dict) and "baselines" in data


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # parse_float intercepts every float literal in the document
            return json.load(handle, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON ({exc})") from None
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not UTF-8 text") from None
    except RecursionError:
        raise InvalidInputError(f"{path}: JSON nested too deeply") from None
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc.strerror}") from None


def _reject_float(text: str) -> None:
    raise InvalidInputError(
        f"floating-point literal {text} rejected; write an exact \"p/q\" string"
    )


def dump_json(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def load_game(path: str, max_agents: int | None = None) -> tuple[Game, Partition | None]:
    return game_from_dict(load_json(path), max_agents=max_agents)


def save_game(game: Game, path: str, partition: Partition | None = None) -> None:
    dump_json(game_to_dict(game, partition), path)


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(load_json(path))


def save_scenario(scenario: Scenario, path: str) -> None:
    dump_json(scenario_to_dict(scenario), path)
