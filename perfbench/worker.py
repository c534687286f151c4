"""Run one pass over a deck of alphahg CLI jobs in a fresh interpreter.

Usage::

    python3 perfbench/worker.py DECK RESULTS [--spans SPANS]

DECK is a JSON list of argv lists.  Each job is one in-process call of
``alphahg.cli.main(argv)``, timed with ``time.perf_counter``; the next
job starts when the previous one returns.  RESULTS receives the
environment and, per job, ``[seconds, exit code, stdout, probe
seconds]``: a speed probe (``speed.py``) runs before the first job and
after every job, and a job's probe time is the mean of the probes on
either side of it.

With ``--spans``, every job runs twice back to back, plain and with
spans recorded at the layer boundaries (``spans.py``), alternating which
goes first so warm-up falls on both sides alike, and no probe runs;
RESULTS then holds ``[plain, traced]`` per job, each ``[seconds, exit
code, stdout]``, and SPANS the spans.  ``run.py`` starts this
script and checks the answers; each pass is its own process, so nothing
one pass leaves in memory can serve the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_package():
    """The ``alphahg`` package from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "alphahg", "__init__.py")):
        raise SystemExit(f"error: no alphahg package under {SRC}")
    sys.path.insert(0, SRC)
    import alphahg
    import alphahg.cli
    import alphahg.search

    if os.path.dirname(os.path.dirname(os.path.abspath(alphahg.__file__))) != SRC:
        raise SystemExit(f"error: imported alphahg from {alphahg.__file__}, not {SRC}")
    return alphahg


def run_job(cli, argv, tracer=None, job_id=0):
    """[seconds, exit code, stdout] of one in-process CLI call.  An
    exception is a failed job (exit code None), not a crash of the pass."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.run_job(job_id, cli.main, argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # noqa: BLE001 - a crash is a wrong answer, counted in fail_ratio
        rc = None
    return [time.perf_counter() - start, rc, out.getvalue()]


def run_both(alphahg, tracer, argv, job_id: int) -> list:
    """[plain, traced] runs of one job, back to back."""
    runs = {}
    for traced in ((True, False) if job_id % 2 else (False, True)):
        restore = tracer.install(alphahg.cli, alphahg.search) if traced else None
        try:
            runs[traced] = run_job(alphahg.cli, argv, tracer if traced else None, job_id)
        finally:
            if restore:
                restore()
    return [runs[False], runs[True]]


def main(argv) -> int:
    deck_path, results_path = argv[0], argv[1]
    spans_path = argv[3] if argv[2:3] == ["--spans"] else None
    alphahg = import_package()
    with open(deck_path, encoding="utf-8") as handle:
        deck = json.load(handle)
    if spans_path is None:
        results, before = [], speed.probe()
        for job in deck:
            run = run_job(alphahg.cli, job)
            after = speed.probe()
            results.append(run + [(before + after) / 2])
            before = after
    else:
        tracer = spans.Tracer()
        results = [run_both(alphahg, tracer, job, i) for i, job in enumerate(deck)]
        spans.write(spans_path, tracer.spans)
    from alphahg import _rat

    env = {"python": sys.version.split()[0], "backend": _rat.BACKEND}
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump({"env": env, "jobs": results}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
