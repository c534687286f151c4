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
per agent), and no ``"partition"``.  Rationals serialize as ``"p/q"`` or
integer strings.

A game file holds only ``n``, ``alpha``, ``weights`` and ``partition``,
and a scenario file only ``n``, ``alpha``, ``weights`` and
``baselines``; any other field, a misspelt one included, is refused by
name rather than dropped, and so is a key that an object repeats (JSON
would keep only its last value).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable

from ._rat import exact as parse_rational, reject_float
from .core import (
    AlphaFunction,
    Game,
    Partition,
    Scenario,
    _admitted,
    _agent_count,
    _alpha_function,
    _baselines,
    _edge_rows,
    check_partition,
)
from .errors import InvalidInputError, ResourceLimitError

#: The most agents a game or scenario file may declare.  Files are the
#: one input whose size no caller chose; every exhaustive scan also
#: guards the work it would do, whatever the size of the game.
MAX_FILE_AGENTS = 20


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
        return AlphaFunction.from_table(value)
    raise InvalidInputError("alpha must be a variant name or a table of rationals")


def _weights_to_triples(weights) -> list[list]:
    triples = []
    n = len(weights)
    for i in range(n):
        for j in range(i + 1, n):
            if weights[i][j] != 0:
                triples.append([i, j, format_rational(weights[i][j])])
    return triples


def _weights_from_json(n: int, value: Any) -> tuple[tuple[Fraction, ...], ...]:
    """The weight matrix of a file's ``[i, j, "p/q"]`` triples, each
    admitted as it is placed (:func:`~alphahg.core._edge_rows`)."""
    if not isinstance(value, list):
        raise InvalidInputError("weights must be a list of [i, j, rational] triples")
    return _edge_rows(n, value)


def game_to_dict(game: Game, partition: Partition | None = None) -> dict:
    data: dict[str, Any] = {
        "n": game.n,
        "alpha": _alpha_to_json(game.alpha),
        "weights": _weights_to_triples(game.weights),
    }
    if partition is not None:
        data["partition"] = [list(block.members) for block in partition.blocks]
    return data


def _field(name: str, admit: Callable[[Any], Any], value: Any) -> Any:
    """``admit(value)``, with the file field ``name`` named in its input
    error."""
    try:
        return admit(value)
    except InvalidInputError as exc:
        raise InvalidInputError(f"field {name!r}: {exc}") from None


def _partition_of(game: Game, value: Any) -> Partition:
    """The partition of ``game``'s agents that a file lists."""
    if not isinstance(value, list) or not all(isinstance(b, list) for b in value):
        raise InvalidInputError("partition must be a list of lists of agent indices")
    partition = Partition.of(value)
    check_partition(game, partition)
    return partition


#: The fields that each kind of file holds; any other field is refused
#: by name, not dropped.
_FIELDS = {
    "game": ("n", "alpha", "weights", "partition"),
    "scenario": ("n", "alpha", "weights", "baselines"),
}


def _agents_from_dict(data: dict, kind: str) -> tuple[int, AlphaFunction, tuple]:
    """A ``kind`` file's agent count, alpha and weight matrix, each
    admitted, once every field of the file is one that ``kind`` holds."""
    if not isinstance(data, dict):
        raise InvalidInputError("expected a JSON object")
    for name in data:
        if name not in _FIELDS[kind]:
            raise InvalidInputError(f"field {name!r}: a {kind} file takes no {name}")
    try:
        n = _field("n", _agent_count, data["n"])
        alpha = _field("alpha", lambda v: _alpha_function(_alpha_from_json(v), n), data["alpha"])
    except KeyError as exc:
        raise InvalidInputError(f"missing field {exc.args[0]!r}") from None
    if n > MAX_FILE_AGENTS:
        raise ResourceLimitError(
            f"n={n} exceeds the limit of {MAX_FILE_AGENTS} agents for a file"
        )
    # the matrix is symmetric with a zero diagonal as built
    return n, alpha, _field("weights", lambda v: _weights_from_json(n, v), data.get("weights", []))


def game_from_dict(data: dict) -> tuple[Game, Partition | None]:
    n, alpha, weights = _agents_from_dict(data, "game")
    game = _admitted(Game, n=n, weights=weights, alpha=alpha)
    partition = None
    if "partition" in data:
        partition = _field("partition", lambda v: _partition_of(game, v), data["partition"])
    return game, partition


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "n": scenario.size,
        "alpha": _alpha_to_json(scenario.alpha),
        "weights": _weights_to_triples(scenario.weights),
        "baselines": [format_rational(b) for b in scenario.baselines],
    }


def scenario_from_dict(data: dict) -> Scenario:
    n, alpha, weights = _agents_from_dict(data, "scenario")
    baselines = _field("baselines", lambda v: _baselines(v, n), data.get("baselines"))
    return _admitted(Scenario, size=n, weights=weights, baselines=baselines, alpha=alpha)


def is_scenario_dict(data: dict) -> bool:
    return isinstance(data, dict) and "baselines" in data


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object from its ``(key, value)`` pairs, refusing a key
    that appears twice, which ``json`` would resolve to its last value."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise InvalidInputError(f"key {key!r} repeated in one object")
            seen.add(key)
    return data


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # parse_float intercepts every float literal in the document,
            # and object_pairs_hook every object's keys
            return json.load(handle, parse_float=reject_float, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON ({exc})") from None
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not UTF-8 text") from None
    except InvalidInputError as exc:
        # the refusal of a float literal or of a repeated key
        raise InvalidInputError(f"{path}: {exc}") from None
    except ValueError as exc:
        # int() refuses a literal longer than sys.get_int_max_str_digits()
        raise InvalidInputError(f"{path}: unreadable number ({exc})") from None
    except RecursionError:
        raise InvalidInputError(f"{path}: JSON nested too deeply") from None
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc.strerror}") from None


def dump_json(data: dict, path: str) -> None:
    text = json.dumps(data, indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc.strerror}") from None


def load_game(path: str) -> tuple[Game, Partition | None]:
    return game_from_dict(load_json(path))


def save_game(game: Game, path: str, partition: Partition | None = None) -> None:
    dump_json(game_to_dict(game, partition), path)


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(load_json(path))


def save_scenario(scenario: Scenario, path: str) -> None:
    dump_json(scenario_to_dict(scenario), path)
