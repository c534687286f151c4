"""Command-line interface.

Subcommands: ``verify``, ``bound-table``, ``generate``, ``search``,
``poa``, ``greedy``.  All input is file-based (JSON with exact rational
strings); output is deterministic.  Exit codes: 0 for a positive
verdict (stable / feasible-as-requested), 1 for a negative verdict, 2
for input errors (bad arguments, files or environment values), 3 for
exhausted budgets, and 4 for an internal error: any other exception,
reported with its traceback on stderr, so that a crash never reads as a
verdict.

Environment: ``ALPHAHG_NODE_LIMIT`` and ``ALPHAHG_TIME_LIMIT`` set the
default search budgets.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from fractions import Fraction

from . import bounds, efficiency, generators, io, search, stability
from .core import AlphaFunction
from .errors import AlphaHGError, InvalidInputError, ResourceLimitError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _parse_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 2:
        raise InvalidInputError(f"bad range {text!r}; expected LO:HI")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidInputError(f"bad range {text!r}; expected LO:HI") from None
    if lo > hi:
        raise InvalidInputError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _rational(text: str) -> Fraction:
    return io.parse_rational(text)


def _print_report(report: stability.StabilityReport) -> int:
    lo, hi = report.checked_sizes
    scope = f"sizes {lo}..{hi}, factor {io.format_rational(report.factor)}"
    if report.stable:
        print(f"stable ({scope})")
        return EXIT_OK
    members = " ".join(str(a) for a in report.witness)
    print(f"unstable ({scope})")
    print(f"witness: {members}")
    return EXIT_NEGATIVE


def cmd_verify(args: argparse.Namespace) -> int:
    data = io.load_json(args.file)
    if io.is_scenario_dict(data):
        scenario = io.scenario_from_dict(data)
        if args.q_size is None:
            raise InvalidInputError("scenario files support only --q-size")
        ok = stability.scenario_is_size_stable(scenario, args.q_size)
        print(f"{'stable' if ok else 'unstable'} (scenario, sizes 1..{args.q_size})")
        return EXIT_OK if ok else EXIT_NEGATIVE
    game, partition = io.game_from_dict(data)
    if partition is None:
        raise InvalidInputError("game file carries no partition to verify")
    if args.core:
        return _print_report(stability.is_core_stable(game, partition))
    if args.q_size is not None:
        return _print_report(stability.is_size_stable(game, partition, args.q_size))
    if args.improvement is not None:
        return _print_report(
            stability.is_improvement_stable(game, partition, args.improvement)
        )
    size, factor = args.qk
    try:
        size = int(size)
    except ValueError:
        raise InvalidInputError(f"--qk: size must be an integer, not {size!r}") from None
    return _print_report(
        stability.is_size_factor_stable(game, partition, size, _rational(factor))
    )


def cmd_bound_table(args: argparse.Namespace) -> int:
    alpha = AlphaFunction.from_name(args.alpha)
    k = args.k
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["q", "m", "bound", "bound_decimal", "improvement_limit"])
    for q in _parse_range(args.q_range):
        limit = (
            io.format_rational(bounds.fhg_improvement_limit(q))
            if alpha.kind == "fhg" and q >= 2
            else ""
        )
        for m in _parse_range(args.m_range):
            if m < q + 1:
                continue
            value = bounds.improvement_bound(alpha, q, m, k)
            writer.writerow(
                [q, m, io.format_rational(value), f"{float(value):.6f}", limit]
            )
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    alpha = AlphaFunction.from_name(args.alpha) if args.alpha else None
    built = generators.build_construction(
        args.construction,
        alpha=alpha,
        stable_size=args.q,
        size=args.m,
        variant=args.variant,
    )
    scenario = built.scenario
    stable = stability.scenario_is_size_stable(scenario, built.stable_size)
    factor = stability.min_improvement_factor(scenario)
    ok = stable and factor == built.factor
    print(f"construction: {args.construction}")
    print(f"agents: {scenario.size}")
    print(f"stable-up-to: {built.stable_size}")
    print(f"improvement-factor: {io.format_rational(factor)}")
    print(f"verification: {'ok' if ok else 'FAILED'}")
    if args.out:
        io.save_scenario(scenario, args.out)
        print(f"wrote: {args.out}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_search(args: argparse.Namespace) -> int:
    node_limit = args.node_limit
    if node_limit is None:
        node_limit = _env_number("ALPHAHG_NODE_LIMIT", int)
    if node_limit is None:
        node_limit = search.DEFAULT_NODE_LIMIT
    time_limit = args.time_limit
    if time_limit is None:
        time_limit = _env_number("ALPHAHG_TIME_LIMIT", float)
    problem = search.SearchProblem(
        alpha=AlphaFunction.from_name(args.alpha),
        stable_size=args.q,
        size=args.m,
        gamma=args.gamma,
        weight_bound=args.weight_bound,
        baseline_bound=args.baseline_bound,
        node_limit=node_limit,
        time_limit=time_limit,
    )
    result = search.search_blocking_scenario(problem)
    print(f"verdict: {result.verdict}")
    print(f"nodes: {result.nodes_explored}")
    print(f"lps: {result.lps_solved}")
    if result.verdict == search.FEASIBLE:
        assert result.scenario is not None
        factor = stability.min_improvement_factor(result.scenario)
        ok = (
            stability.scenario_is_size_stable(result.scenario, args.q)
            and factor > args.gamma
        )
        print(f"improvement-factor: {io.format_rational(factor)}")
        print(f"verification: {'ok' if ok else 'FAILED'}")
        if not ok:
            return EXIT_NEGATIVE
        if args.out:
            io.save_scenario(result.scenario, args.out)
            print(f"wrote: {args.out}")
        return EXIT_OK
    if result.verdict == search.INFEASIBLE_WITHIN_BOUNDS:
        return EXIT_NEGATIVE
    return EXIT_BUDGET


def cmd_poa(args: argparse.Namespace) -> int:
    game, _ = io.game_from_dict(io.load_json(args.file))
    if (args.q is None) == (args.k is None):
        raise InvalidInputError("choose exactly one of --q / --k")
    if args.q is not None:
        result = efficiency.size_cpoa(game, args.q)
    else:
        result = efficiency.improvement_cpoa(game, args.k)
    print(f"best-welfare: {io.format_rational(result.best_welfare)}")
    worst = (
        io.format_rational(result.worst_stable_welfare)
        if result.worst_stable_welfare is not None
        else "-"
    )
    print(f"worst-stable-welfare: {worst}")
    if result.kind == efficiency.RATIO:
        print(f"ratio: {io.format_rational(result.value)}")
    else:
        print(f"ratio: {result.kind}")
    return EXIT_OK


def cmd_greedy(args: argparse.Namespace) -> int:
    game, _ = io.game_from_dict(io.load_json(args.file))
    partition = efficiency.greedy_pairing(game)
    for block in partition.blocks:
        print(" ".join(str(a) for a in block))
    if args.out:
        io.save_game(game, args.out, partition)
        print(f"wrote: {args.out}", file=sys.stderr)
    return EXIT_OK


def _env_number(name: str, kind: type) -> int | float | None:
    value = os.environ.get(name)
    if not value:
        return None
    try:
        return kind(value)
    except ValueError:
        raise InvalidInputError(f"{name}={value!r} is not a valid {kind.__name__}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing keeps no state in the parser."""
    parser = argparse.ArgumentParser(
        prog="alphahg",
        description="Exact stability lab for size-weighted hedonic games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a partition or scenario for stability")
    p.add_argument("file", help="game file (with partition) or scenario file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--core", action="store_true", help="no blocking coalition at all")
    mode.add_argument("--q-size", type=int, metavar="Q", help="no blocking coalition of size <= Q")
    mode.add_argument(
        "--improvement", type=_rational, metavar="K",
        help="no coalition improves everyone by a factor > K",
    )
    mode.add_argument(
        "--qk", nargs=2, metavar=("Q", "K"),
        help="no coalition of size exactly Q improves everyone by a factor > K",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound-table", help="CSV of improvement bounds")
    p.add_argument("--alpha", required=True)
    p.add_argument("--q-range", required=True, metavar="LO:HI")
    p.add_argument("--m-range", required=True, metavar="LO:HI")
    p.add_argument("--k", type=_rational, default=Fraction(1))
    p.set_defaults(func=cmd_bound_table)

    p = sub.add_parser("generate", help="emit a tight blocking scenario")
    p.add_argument(
        "--construction", required=True,
        choices=list(generators.CONSTRUCTION_NAMES),
    )
    p.add_argument("--alpha")
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--variant", choices=["fhg", "ashg"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("search", help="search for an extremal blocking scenario")
    p.add_argument("--alpha", required=True)
    p.add_argument("--q", type=int, required=True, help="stability size of the baseline")
    p.add_argument("--m", type=int, required=True, help="blocking coalition size")
    p.add_argument("--gamma", type=_rational, required=True)
    p.add_argument("--weight-bound", type=_rational, default=Fraction(10))
    p.add_argument("--baseline-bound", type=_rational, default=Fraction(10))
    p.add_argument(
        "--node-limit", type=int,
        help=f"default: $ALPHAHG_NODE_LIMIT, else {search.DEFAULT_NODE_LIMIT}",
    )
    p.add_argument("--time-limit", type=float, help="seconds; default: $ALPHAHG_TIME_LIMIT")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("poa", help="brute-force price of anarchy")
    p.add_argument("file")
    p.add_argument("--q", type=int, help="size-stable core")
    p.add_argument("--k", type=_rational, help="improvement-stable core")
    p.set_defaults(func=cmd_poa)

    p = sub.add_parser("greedy", help="greedy pairing partition")
    p.add_argument("file")
    p.add_argument("--out", help="write the game back with the partition attached")
    p.set_defaults(func=cmd_greedy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AlphaHGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:  # noqa: BLE001 - a crash must not read as a verdict
        import traceback  # imported here: a cold import costs ~3 ms of start-up

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
