"""alphahg benchmark: time to an exact verdict through the real CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search|verify|poa --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # a handful of checked jobs per workload

The seed fixes a *deck* of jobs (``workloads.py``); ``--seconds`` scales
it, and at ``REFERENCE_SECONDS`` the deck holds the job counts listed in
``workloads.py``, which take 7-10 s a pass on a 2-vCPU VM.  Each
job is one in-process call of ``alphahg.cli.main(argv)`` in a worker
interpreter (``worker.py``): one process, one thread, closed loop, so
interpreter start-up is not job time.  Jobs run with no
``--time-limit``, so no verdict depends on machine speed.  Every exit
code and output is checked against its known answer.

``--trace 0`` measures the end-to-end metrics.  The deck runs
``PASSES`` times, each pass in a fresh worker process and in its own
seeded order.  A fresh process per pass keeps one run of a job from
warming a cache for the next, and within a pass no two jobs share their
inputs.  Every job is bracketed by speed probes (``speed.py``), and its
time is rescaled to the reference speed; a job's time is the median of
its scaled runs.  Fresh-interpreter set-up, from launch until the
parser is built, is timed before, between and after the passes, probed
and scaled the same way inside the new interpreter.  The time metrics
are therefore seconds at the reference speed: a shared machine's slow
and fast phases, which last long enough to swing whole runs by 1.5-2x,
cancel, and a change to ``alphahg`` moves them as it moves raw time.
Raw times are printed beside them and kept in the per-run record.

``--trace 1`` runs the same deck once in one worker, every job plain
and traced back to back (``spans.py``), and reports per-layer metrics
as totals over the deck, so counts move only when the work per job
does, plus the tracing overhead.

The last line of stdout is one JSON object.  A per-run record with the
environment, and the spans of a traced run, are written under
``perfbench/out/``.  The package is imported from ``src/`` of the
checkout the script sits in, never from an installed copy; without it
the script exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

PASSES = 3
REFERENCE_SECONDS = 30
SETUP_LAUNCHES = 3
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import alphahg, alphahg.cli; alphahg.cli.build_parser(); ready = time.monotonic(); "
    "sys.path.insert(0, sys.argv[2]); import speed; print(ready, speed.probe())"
)
SMOKE_JOBS = 5


def require_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "alphahg", "__init__.py")):
        raise SystemExit(f"error: no alphahg package under {SRC}")


@contextlib.contextmanager
def scratch_dir(tag: str):
    """A fresh directory under perfbench/out for job input files."""
    path = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def failure(job, rc, out):
    """Why a finished job's answer is wrong, or None."""
    try:
        return workloads.check(job, rc, out)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"


def check_runs(deck, runs, failures) -> set[int]:
    """Deck positions whose [seconds, rc, stdout, ...] run answered
    wrong; each wrong answer is appended to failures."""
    wrong = set()
    for i, (job, run) in enumerate(zip(deck, runs)):
        reason = failure(job, run[1], run[2])
        if reason:
            failures.append((job.label, reason))
            wrong.add(i)
    return wrong


def setup_times(launches: int, warm: bool = False) -> list[list[float]]:
    """[seconds, probe seconds] of fresh interpreters, from launch until
    alphahg is imported and the CLI parser built, each with a speed probe
    the interpreter runs once it is ready; ``warm`` adds one unmeasured
    launch first."""
    times = []
    for _ in range(launches + warm):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, HERE],
            check=True, stdout=subprocess.PIPE, text=True, timeout=60,
        )
        ready, probe_s = map(float, done.stdout.split())
        times.append([ready - start, probe_s])
    return times[warm:]


def make_deck(workload, seed, seconds, workdir, answers):
    """The seed's deck, scaled to the run length, with inputs written."""
    rng = random.Random(f"{workload}:{seed}")
    deck = workloads.make_deck(workload, rng, workdir, answers, seconds / REFERENCE_SECONDS)
    workloads.write_inputs(deck)
    return deck


def run_pass(deck, order, workdir: str, tag: str, spans_path=None):
    """Run the deck's jobs in ``order`` in a fresh worker process.
    Returns the worker's environment record and its per-job results in
    deck order."""
    deck_path = os.path.join(workdir, f"{tag}-deck.json")
    results_path = os.path.join(workdir, f"{tag}-results.json")
    with open(deck_path, "w", encoding="utf-8") as handle:
        json.dump([deck[i].argv for i in order], handle)
    command = [sys.executable, WORKER, deck_path, results_path]
    if spans_path:
        command += ["--spans", spans_path]
    subprocess.run(command, check=True)
    with open(results_path, encoding="utf-8") as handle:
        done = json.load(handle)
    results = [None] * len(deck)
    for position, i in enumerate(order):
        results[i] = done["jobs"][position]
    return done["env"], results


def measure(workload, seed, seconds, workdir, answers):
    """PASSES passes over the deck, each in a fresh worker and its own
    seeded order.  Returns the deck, each job's [seconds, probe seconds]
    per pass, how many deck jobs ever answered wrong, the failures, the
    set-up [seconds, probe seconds] and the worker's environment record."""
    deck = make_deck(workload, seed, seconds, workdir, answers)
    times, wrong, failures = [[] for _ in deck], set(), []
    setup = setup_times(SETUP_LAUNCHES, warm=True)
    env = {}
    for p in range(PASSES):
        order = list(range(len(deck)))
        random.Random(f"{workload}:{seed}:pass{p}").shuffle(order)
        env, runs = run_pass(deck, order, workdir, f"pass{p}")
        wrong |= check_runs(deck, runs, failures)
        for job_times, run in zip(times, runs):
            job_times.append([run[0], run[3]])
        setup += setup_times(SETUP_LAUNCHES)
    return deck, times, len(wrong), failures, setup, env


def measure_traced(workload, seed, seconds, workdir, answers):
    """The same deck once, every job plain and traced in one worker.
    A search job's certificate is checked after both runs, so it is the
    second run's certificate that is re-checked."""
    deck = make_deck(workload, seed, seconds, workdir, answers)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    env, runs = run_pass(deck, range(len(deck)), workdir, "traced", spans_path)
    failures = []
    for traced in (0, 1):
        check_runs(deck, [run[traced] for run in runs], failures)
    walls = [sum(run[traced][0] for run in runs) for traced in (0, 1)]
    return spans.read(spans_path), walls, 2 * len(deck), failures, env


def scaled_median(runs) -> float:
    """Median of [seconds, probe seconds] runs, each rescaled to the
    reference speed."""
    return statistics.median(speed.scale(seconds, probe_s) for seconds, probe_s in runs)


def end_to_end(times, wrong, setup) -> dict:
    """The end-to-end metrics from each job's scaled time and the
    set-up runs."""
    values = {
        "verdicts_per_s": ((len(times) - wrong) / sum(times), "1/s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_p90_s": (statistics.quantiles(times, n=10)[8], "s"),
        "setup_s": (scaled_median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args, worker_env: dict, jobs: int, timed_s: float) -> dict:
    return {
        **worker_env,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": jobs,
        "run_seconds": args.seconds,
        "timed_seconds": timed_s,
    }


def benchmark(args) -> int:
    require_package()
    answers = workloads.load_answers()
    os.makedirs(OUT, exist_ok=True)
    per_job = {}
    with scratch_dir(args.workload) as workdir:
        if args.trace:
            recorded, walls, attempted, failures, worker_env = measure_traced(
                args.workload, args.seed, args.seconds, workdir, answers
            )
            metrics = spans.per_layer(recorded, walls[1], walls[0])
            timed = sum(walls)
        else:
            deck, runs, wrong, failures, setup, worker_env = measure(
                args.workload, args.seed, args.seconds, workdir, answers
            )
            times = [scaled_median(job_runs) for job_runs in runs]
            attempted = PASSES * len(deck)
            timed = sum(seconds for job_runs in runs for seconds, _ in job_runs)
            metrics = end_to_end(times, wrong, setup)
            per_job["setup"] = setup
            per_job["jobs"] = [[job.label, job.argv, job_runs] for job, job_runs in zip(deck, runs)]

    env = environment(args, worker_env, attempted, timed)
    print(f"alphahg benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:30s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'fail_ratio':30s} {len(failures) / attempted:>16.6g} -  ({len(failures)}/{attempted})")
    if not args.trace:
        beyond = sum(1 for t in times if t > metrics["verdict_p90_s"]["value"])
        print(f"  {len(times)} jobs x {PASSES} passes, median scaled time per job; "
              f"{beyond} beyond the 90th percentile")
        raw = [statistics.median(seconds for seconds, _ in job_runs) for job_runs in runs]
        print(f"  raw, unscaled: p50 {statistics.median(raw):.6g} s, "
              f"p90 {statistics.quantiles(raw, n=10)[8]:.6g} s, "
              f"setup {statistics.median(seconds for seconds, _ in setup):.6g} s; "
              f"median speed probe {statistics.median(p for r in runs for _, p in r):.6g} s "
              f"(reference {speed.REFERENCE_S} s)")
    for label, reason in failures[:20]:
        print(f"  FAILED {label}: {reason}")
    print("env: " + json.dumps(env))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump({"env": env, "failures": failures, **result, **per_job}, handle, indent=1)
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """A handful of jobs per workload, plain and traced, all checked."""
    require_package()
    answers = workloads.load_answers()
    os.makedirs(OUT, exist_ok=True)
    ok = True
    with scratch_dir("smoke") as workdir:
        for workload in workloads.WORKLOADS:
            deck = make_deck(workload, 0, 0, workdir, answers)
            deck = sorted(deck, key=lambda j: j.label)[:SMOKE_JOBS]
            failures = []
            _, runs = run_pass(deck, range(len(deck)), workdir, f"{workload}-plain")
            check_runs(deck, runs, failures)
            spans_path = os.path.join(workdir, f"{workload}-spans.jsonl")
            _, runs = run_pass(deck, range(len(deck)), workdir, f"{workload}-traced", spans_path)
            for traced in (0, 1):
                check_runs(deck, [run[traced] for run in runs], failures)
            ok = ok and not failures
            print(f"smoke {workload}: {3 * len(deck) - len(failures)}/{3 * len(deck)} correct, "
                  f"{len(spans.read(spans_path))} spans")
            for label, reason in failures:
                print(f"  FAILED {label}: {reason}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
