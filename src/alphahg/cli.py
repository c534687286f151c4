"""Command-line interface.

Subcommands: ``verify``, ``bound-table``, ``generate``, ``search``,
``poa``, ``greedy``.  All input is file-based (JSON with exact rational
strings); output is deterministic.  Exit codes: 0 for a positive
verdict (stable / feasible-as-requested), 1 for a negative verdict, 2
for input errors (bad arguments or files) and for output that cannot be
written (an ``--out`` path, or a standard output whose reader has
gone), 3 for exhausted budgets, and 4 for an internal error: any other
exception, reported with its traceback on stderr, so that a crash never
reads as a verdict.

A command-line call starts a fresh interpreter, whose start-up costs
more than most verdicts, so this module imports no engine up front.  Each engine
(``bounds``, ``core``, ``efficiency``, ``generators``, ``io``,
``search``, ``stability``) is an attribute of this module, imported the
first time a command or an argument type looks it up (see
:func:`__getattr__` and :func:`_load`): building the parser loads none,
and ``verify`` never loads the LP.  Commands reach the engines through
this module's namespace, so a stand-in set on it (a test's monkeypatch,
a tracer's proxy) is what they call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Callable
from fractions import Fraction
from importlib import import_module

from . import _params
from .errors import AlphaHGError, InvalidInputError, ResourceLimitError

#: the engines, each imported on first use
_ENGINES = frozenset({"bounds", "core", "efficiency", "generators", "io", "search", "stability"})


def __getattr__(name: str):
    """An engine, imported on its first lookup and bound here, so that
    later lookups, plain global names included, find it directly."""
    if name not in _ENGINES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"alphahg.{name}")
    globals()[name] = module
    return module


def _load(*names: str) -> None:
    """Bind each named engine in this module, importing it on first use,
    since a function's plain global lookup does not reach
    :func:`__getattr__`.  An engine already bound here, or a stand-in set
    in its place, is kept."""
    this = sys.modules[__name__]
    for name in names:
        getattr(this, name)


EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def integer(text: str) -> int:
    """A size or count: a rational string (:mod:`alphahg._rat`) without
    a ``/``.  As an argparse type, its refusal names the option
    (``argument --q: invalid integer value: '1_0'``)."""
    _load("io")
    if "/" not in text:
        try:
            return int(io.parse_rational(text))
        except InvalidInputError:
            pass
    raise InvalidInputError(f"not an integer: {text!r}")


def _parse_range(text: str, option: str) -> range:
    lo, _, hi = text.partition(":")
    try:
        lo, hi = integer(lo), integer(hi)
    except InvalidInputError:
        raise InvalidInputError(f"{option}: bad range {text!r}; expected LO:HI") from None
    if lo > hi:
        raise InvalidInputError(f"{option}: empty range {text!r}")
    return range(lo, hi + 1)


def _rational(text: str) -> Fraction:
    """An argparse type: the refusal's reason becomes argparse's message."""
    _load("io")
    try:
        return io.parse_rational(text)
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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


def _report_scenario(
    scenario: core.Scenario,
    stable_size: int,
    accept: Callable[[Fraction], bool],
    out: str | None,
) -> bool:
    """Re-verify a scenario: size-stable up to ``stable_size`` and an
    improvement factor that ``accept`` admits.  Prints the factor and the
    outcome, and writes the scenario to ``out`` only if it passed."""
    _load("io", "stability")
    factor = stability.min_improvement_factor(scenario)
    ok = stability.scenario_is_size_stable(scenario, stable_size) and accept(factor)
    print(f"improvement-factor: {io.format_rational(factor)}")
    print(f"verification: {'ok' if ok else 'FAILED'}")
    if ok and out:
        io.save_scenario(scenario, out)
        print(f"wrote: {out}")
    return ok


def cmd_verify(args: argparse.Namespace) -> int:
    _load("io", "stability")
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
        size = integer(size)
    except InvalidInputError:
        raise InvalidInputError(f"--qk: size must be an integer, not {size!r}") from None
    try:
        factor = io.parse_rational(factor)
    except InvalidInputError as exc:
        raise InvalidInputError(f"--qk: factor: {exc}") from None
    return _print_report(stability.is_size_factor_stable(game, partition, size, factor))


def cmd_bound_table(args: argparse.Namespace) -> int:
    import csv  # imported here: only this command writes CSV

    _load("bounds", "core", "io")
    alpha = core.AlphaFunction.from_name(args.alpha)
    rows = [["q", "m", "bound", "bound_decimal", "improvement_limit"]]
    # every row is built before any is written, so an input error
    # leaves stdout empty
    for q in _parse_range(args.q_range, "--q-range"):
        limit = (
            io.format_rational(args.k * bounds.fhg_improvement_limit(q))
            if alpha.kind == "fhg" and q >= 2
            else ""
        )
        for m in _parse_range(args.m_range, "--m-range"):
            if m < q + 1:
                continue
            value = bounds.improvement_bound(alpha, q, m, args.k)
            rows.append([q, m, io.format_rational(value), f"{float(value):.6f}", limit])
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    return EXIT_OK


#: the flag of each parameter of ``generators.build_construction``
_GENERATE_FLAGS = {"alpha": "--alpha", "stable_size": "--q", "size": "--m"}


def cmd_generate(args: argparse.Namespace) -> int:
    _load("core", "generators")
    alpha = None if args.alpha is None else core.AlphaFunction.from_name(args.alpha)
    try:
        built = generators.build_construction(args.construction, alpha, args.q, args.m)
    except InvalidInputError as error:
        # the library names a parameter it requires or does not read;
        # name the flag that sets it
        head, _, parameter = str(error).rpartition(" ")
        if parameter in _GENERATE_FLAGS and head.endswith(("requires", "does not read")):
            raise InvalidInputError(f"{head} {_GENERATE_FLAGS[parameter]}") from None
        raise
    print(f"construction: {core._name(args.construction, 'construction name')}")
    print(f"agents: {built.scenario.size}")
    print(f"stable-up-to: {built.stable_size}")
    ok = _report_scenario(
        built.scenario, built.stable_size, lambda f: f == built.factor, args.out
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_search(args: argparse.Namespace) -> int:
    _load("core", "search")
    problem = search.SearchProblem(
        alpha=core.AlphaFunction.from_name(args.alpha),
        stable_size=args.q,
        size=args.m,
        gamma=args.gamma,
        weight_bound=args.weight_bound,
        baseline_bound=args.baseline_bound,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
    )
    result = search.search_blocking_scenario(problem)
    print(f"verdict: {result.verdict}")
    print(f"nodes: {result.nodes_explored}")
    print(f"lps: {result.lps_solved}")
    if result.verdict == search.FEASIBLE:
        assert result.scenario is not None
        ok = _report_scenario(result.scenario, args.q, lambda f: f > args.gamma, args.out)
        return EXIT_OK if ok else EXIT_NEGATIVE
    if result.verdict == search.INFEASIBLE_WITHIN_BOUNDS:
        return EXIT_NEGATIVE
    return EXIT_BUDGET


def cmd_poa(args: argparse.Namespace) -> int:
    _load("efficiency", "io")
    game, _ = io.load_game(args.file)
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
    _load("efficiency", "io")
    game, _ = io.load_game(args.file)
    partition = efficiency.greedy_pairing(game)
    for block in partition.blocks:
        print(" ".join(str(a) for a in block))
    if args.out:
        io.save_game(game, args.out, partition)
        print(f"wrote: {args.out}", file=sys.stderr)
    return EXIT_OK


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
    mode.add_argument(
        "--q-size", type=integer, metavar="Q", help="no blocking coalition of size <= Q"
    )
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
    # names are admitted by the library, as --alpha is; the metavars list them
    p.add_argument(
        "--construction", required=True,
        metavar="{" + ",".join(_params.CONSTRUCTION_NAMES) + "}",
    )
    p.add_argument("--alpha")
    p.add_argument("--q", type=integer)
    p.add_argument("--m", type=integer)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("search", help="search for an extremal blocking scenario")
    p.add_argument("--alpha", required=True)
    p.add_argument("--q", type=integer, required=True, help="stability size of the baseline")
    p.add_argument("--m", type=integer, required=True, help="blocking coalition size")
    p.add_argument("--gamma", type=_rational, required=True)
    p.add_argument(
        "--weight-bound", type=_rational, default=_params.WEIGHT_BOUND,
        help="default: %(default)s",
    )
    p.add_argument(
        "--baseline-bound", type=_rational, default=_params.BASELINE_BOUND,
        help="default: %(default)s",
    )
    p.add_argument(
        "--node-limit", type=integer, default=_params.DEFAULT_NODE_LIMIT,
        help="the node past it is counted, unsolved (exit 3); default: %(default)s",
    )
    p.add_argument(
        "--time-limit", type=float,
        help="seconds, checked before each node's LP, so one LP can overrun it;"
        " default: no limit",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("poa", help="exact price of anarchy")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--q", type=integer, help="size-stable core")
    mode.add_argument("--k", type=_rational, help="improvement-stable core")
    p.set_defaults(func=cmd_poa)

    p = sub.add_parser("greedy", help="greedy pairing partition")
    p.add_argument("file")
    p.add_argument("--out", help="write the game back with the partition attached")
    p.set_defaults(func=cmd_greedy)

    return parser


def _discard_stdout() -> None:
    """Point stdout's file descriptor, if it has one, at the null device:
    its reader is gone, and the interpreter's flush at exit must not fail
    on the output still buffered."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # flushed here, so that a closed stdout fails inside the try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        print("error: output closed before it was written (broken pipe)", file=sys.stderr)
        return EXIT_INPUT
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
