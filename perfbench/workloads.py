"""Job generators and answer checks for the three workloads.

A *job* is one ``alphahg`` command line plus the JSON files it reads.
Each workload is a fixed list of job classes, each with a count.  A
*deck* holds that many jobs of every class, each with distinct inputs,
in a seeded order.  Every deck has the same mix of job sizes.  The seed
draws the ``search`` boxes and epsilons, which barely move a job's cost,
and the order of every deck; ``verify`` and ``poa`` decks hold the same
instances for every seed, because their costs differ between instances
of a class by enough to move a run's figures by several percent.  Deck sizes are chosen so that the 50th and 90th percentiles of
job time fall inside a group of classes of similar cost, not on an edge
between groups, and at least 10 jobs lie beyond the 90th percentile.

* ``search``: ``alphahg search``.  About half the classes set gamma at
  the closed-form bound (infeasible by the theorem, a tree of many small
  LPs); the rest set it just below (feasible, a few larger LPs plus a
  certificate check).  Mostly ``lp`` time.
* ``verify``: ``alphahg verify`` in all four modes on game files,
  ``verify`` on scenario files, and ``generate``, at n = 13..16.  Long
  exhaustive coalition scans in ``stability``, no LP.
* ``poa``: ``alphahg poa`` on random 7- and 8-agent games.  Bell(n)
  partitions in ``efficiency``, each with many short blocking checks
  that exit early.

Verdicts known by construction are checked against the construction.
``poa`` answers, and ``verify`` verdicts and witnesses as well, are
checked against ``answers.json``, recorded once from the commit named in
its ``meta`` entry.  ``verify`` and ``poa`` instances come from a fixed
pool of ``POOL`` instances per class, each with a recorded answer; a
deck holds the first ones.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import checks

WORKLOADS = ("search", "verify", "poa")
POOL = 12
ANSWERS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")


@dataclass
class Job:
    """One CLI invocation: argv, the files to write first, and what a
    correct run prints."""

    label: str
    argv: list[str]
    expect: dict
    files: dict[str, dict] = field(default_factory=dict)


def fmt(value: Fraction) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def mixed_rational(rng: random.Random, lo, hi) -> Fraction:
    """Half integers, half rationals with denominators up to 1000."""
    if rng.random() < 0.5:
        return Fraction(rng.randint(int(lo), int(hi)))
    d = rng.randint(2, 1000)
    return Fraction(rng.randint(int(lo * d), int(hi * d)), d)


def game_doc(n: int, alpha: str, weights: dict, partition=None) -> dict:
    doc = {
        "n": n,
        "alpha": alpha,
        "weights": [[i, j, fmt(w)] for (i, j), w in sorted(weights.items()) if w != 0],
    }
    if partition is not None:
        doc["partition"] = partition
    return doc


def pairs(agents):
    agents = list(agents)
    return [(a, b) for x, a in enumerate(agents) for b in agents[x + 1:]]


# --------------------------------------------------------------------- search

# ((alpha, q, m, side), jobs per deck).  At the bound only (q, m) in {(2,3),
# (2,4), (3,4)}; below it, m up to 6.  mfhg's bound is 1 for every
# (q, m), so it has no below-bound class (gamma must be at least 1).
# fhg q=3 m=5 at the bound runs out of the default node budget, and fhg
# q=3 m=4 at the bound takes seconds a job; both are left out.  fhg q=5
# m=6 below the bound (33 LPs, ~1.3 s) is left out too, to keep a run
# within its time.  Half the jobs are at the bound.  Job costs (best of
# four runs on a 2-vCPU VM): the first block takes ~0.01-0.03 s a job,
# the next two ~0.085 s and ~0.2 s, the last ~1.4 s (the 206-LP ashg
# tree).  The median falls in the first block, the 90th percentile in
# the ~0.2 s block, which holds the at-bound trees of 46 LPs.
SEARCH_DECK = [
    (("fhg", 2, 3, "at"), 14), (("ashg", 2, 3, "at"), 14), (("mfhg", 2, 3, "at"), 14),
    (("fhg", 2, 3, "below"), 7), (("ashg", 2, 3, "below"), 7), (("fhg", 2, 4, "below"), 7),
    (("ashg", 2, 4, "below"), 7), (("fhg", 3, 4, "below"), 6), (("ashg", 3, 4, "below"), 6),
    (("fhg", 2, 5, "below"), 3), (("ashg", 2, 5, "below"), 3),
    (("fhg", 2, 4, "at"), 3), (("ashg", 2, 4, "at"), 2), (("mfhg", 2, 4, "at"), 2),
    (("mfhg", 3, 4, "at"), 2), (("fhg", 3, 5, "below"), 1), (("ashg", 3, 5, "below"), 1),
    (("fhg", 2, 6, "below"), 1), (("ashg", 2, 6, "below"), 1),
    (("ashg", 3, 4, "at"), 1),
]

# Seeded draws stay inside ranges where the verdict is known: at the bound
# the theorem makes every box infeasible; below it, feasibility only grows
# with the box and with epsilon, and the smallest box with the smallest
# epsilon was checked feasible for every below-bound class when
# answers.json was recorded.  The weight bound is drawn no larger than
# the baseline bound: with it larger, the ashg q=3 m=4 tree grows from
# 206 to 257 nodes, and the job mix would vary between seeds.  A class
# draws distinct boxes, so no two of its jobs share a command line.
BOX_RANGE = (8, 12)
BOXES = [(w, b) for w in range(BOX_RANGE[0], BOX_RANGE[1] + 1) for b in range(w, BOX_RANGE[1] + 1)]
EPS_DENOMINATOR_RANGE = (500, 2000)


def search_job(alpha, q, m, side, weight_bound, baseline_bound, eps_den, cert_path) -> Job:
    bound = checks.improvement_bound(alpha, q, m)
    gamma = bound if side == "at" else bound - Fraction(1, eps_den)
    argv = [
        "search", "--alpha", alpha, "--q", str(q), "--m", str(m), "--gamma", fmt(gamma),
        "--weight-bound", str(weight_bound), "--baseline-bound", str(baseline_bound),
    ]
    expect = {"rc": 1, "verdict": "infeasible_within_bounds"}
    if side == "below":
        argv += ["--out", cert_path]
        expect = {
            "rc": 0, "verdict": "feasible", "cert": cert_path, "q": q, "gamma": fmt(gamma),
            "weight_bound": weight_bound, "baseline_bound": baseline_bound,
        }
    return Job(f"search/{alpha}/q{q}m{m}/{side}", argv, expect)


def search_deck(rng: random.Random, workdir: str, classes) -> list[Job]:
    jobs = []
    for slot, ((alpha, q, m, side), count) in enumerate(classes):
        for i, (weight_bound, baseline_bound) in enumerate(rng.sample(BOXES, min(count, len(BOXES)))):
            jobs.append(search_job(
                alpha, q, m, side, weight_bound, baseline_bound,
                rng.randint(*EPS_DENOMINATOR_RANGE),
                os.path.join(workdir, f"{slot}-{i}-cert.json"),
            ))
    return jobs


# --------------------------------------------------------------------- verify

def ashg_grand(rng, n):
    """ASHG grand coalition with all-positive weights: nobody gains by
    leaving, so it is stable in every mode."""
    weights = {p: mixed_rational(rng, 1, 9) for p in pairs(range(n))}
    return game_doc(n, "ashg", weights, [list(range(n))]), None


def fhg_grand(rng, n):
    """FHG grand coalition with weights in [1, 1 + 1/(n(n-2))]: for a
    proper subset S, (|S|-1)(1+d)/|S| <= (n-1)/n, so it is stable."""
    weights = {}
    for p in pairs(range(n)):
        k = rng.randint(1, 4)
        weights[p] = 1 + Fraction(rng.randint(0, k), k * n * (n - 2))
    return game_doc(n, "fhg", weights, [list(range(n))]), None


def ashg_late(rng, n, t):
    """ASHG game whose only blocking coalition is B, the last t agents,
    which come last in (size, lex) order among coalitions of size t.

    Partition [A, B1, B2] with B = B1 + B2.  Weights inside each block
    are at least 2, B1-B2 weights are positive but sum to less than 1
    per agent, A-B weights are negative.  So a coalition blocks only if
    it holds all of B1 and B2 and nothing of A.  Returns the game and
    the smallest improvement factor B gives its members.
    """
    a_part = list(range(n - t))
    half = n - t + t // 2
    b1, b2 = list(range(n - t, half)), list(range(half, n))
    weights = {}
    for block in (a_part, b1, b2):
        for p in pairs(block):
            weights[p] = mixed_rational(rng, 2, 9)
    for i in b1:
        for j in b2:
            d = rng.randint(8 * t, 1000)
            weights[(i, j)] = Fraction(rng.randint(1, d // t - 1), d)
    for i in a_part:
        for j in b1 + b2:
            weights[(i, j)] = -mixed_rational(rng, 1, 9)

    def w(i, j):
        return weights[(min(i, j), max(i, j))]

    ratio = min(
        sum(w(i, j) for j in b1 + b2 if j != i)
        / sum(w(i, j) for j in (b1 if i in b1 else b2) if j != i)
        for i in b1 + b2
    )
    return game_doc(n, "ashg", weights, [a_part, b1, b2]), ratio


def complete_scenario(alpha, q, m, scale=1):
    """The complete-graph construction, weights and baselines times
    ``scale``; stability is unchanged by the common factor."""
    w = scale / (checks.alpha_value(alpha, q) * (q - 1))
    weights = {p: w for p in pairs(range(m))}
    return {**game_doc(m, alpha, weights), "baselines": [fmt(scale)] * m}


def mantel_scenario(m, scale=1):
    half = m // 2
    weights = {(i, j): scale * (2 if (i < half) != (j < half) else 1) for i, j in pairs(range(m))}
    return {**game_doc(m, "fhg", weights), "baselines": [fmt(scale)] * m}


# Each class: (label, kind, parameters).  Sizes are fixed per class so
# every deck holds jobs of the same size.
VERIFY_CLASSES = [
    ("core-ashg-13", "ashg_grand", {"n": 13, "mode": ["--core"]}),
    ("core-ashg-14", "ashg_grand", {"n": 14, "mode": ["--core"]}),
    ("core-fhg-14", "fhg_grand", {"n": 14, "mode": ["--core"]}),
    ("improvement-fhg-13", "fhg_grand", {"n": 13, "mode": ["--improvement", "5/4"]}),
    ("improvement-fhg-14", "fhg_grand", {"n": 14, "mode": ["--improvement", "9/8"]}),
    ("qsize-fhg-16", "fhg_grand", {"n": 16, "mode": ["--q-size", "5"]}),
    ("qsize-ashg-15", "ashg_grand", {"n": 15, "mode": ["--q-size", "5"]}),
    ("qk-ashg-16", "ashg_grand", {"n": 16, "mode": ["--qk", "6", "3/2"]}),
    ("qk-fhg-15", "fhg_grand", {"n": 15, "mode": ["--qk", "6", "1"]}),
    ("late-core-13", "ashg_late", {"n": 13, "t": 7, "mode": ["--core"]}),
    ("late-qsize-16", "ashg_late", {"n": 16, "t": 5, "mode": ["--q-size", "7"]}),
    ("late-qk-15", "ashg_late", {"n": 15, "t": 6, "mode": ["--qk", "6"]}),
    ("late-improvement-14", "ashg_late", {"n": 14, "t": 6, "mode": ["--improvement"]}),
    ("scenario-complete-fhg-16", "complete", {"alpha": "fhg", "q": 4, "m": 16}),
    ("scenario-complete-ashg-15", "complete", {"alpha": "ashg", "q": 5, "m": 15}),
    ("scenario-mantel-14", "mantel", {"m": 14}),
    ("generate-complete", "gen_complete",
     {"variants": [(alpha, q, m) for alpha in ("fhg", "ashg", "mfhg") for q in (3, 4) for m in (15, 16)]}),
    ("generate-mantel", "gen_mantel", {"variants": [13, 14, 15, 16]}),
]

# Job costs (best of four runs on a 2-vCPU VM): scenario-mantel and
# generate ~0.01-0.02 s, scenario-complete-fhg ~0.025 s, the other qsize,
# qk and late classes and scenario-complete-ashg ~0.05-0.09 s, qk-ashg-16,
# core-ashg-13 and improvement-fhg-13 ~0.11-0.15 s, the three at n = 14
# that scan every coalition ~0.24-0.34 s.  The counts put the median among the
# ~0.05-0.075 s jobs and the 90th percentile among the ~0.11 s ones.
# Scenario and generate instances are the constructions at distinct
# scales and sizes, so no two jobs in a deck share their input.
VERIFY_COUNTS = {
    "core-ashg-14": 1, "core-fhg-14": 1, "improvement-fhg-14": 1,
    "scenario-mantel-14": 12, "scenario-complete-fhg-16": 12,
    "generate-complete": 12, "generate-mantel": 4,
    "qsize-ashg-15": 6, "scenario-complete-ashg-15": 6,
}
VERIFY_DECK = [(cls, VERIFY_COUNTS.get(cls[0], 5)) for cls in VERIFY_CLASSES]


def verify_job(label: str, kind: str, params: dict, k: int, path: str, answers: dict) -> Job:
    """Pooled instance k of a verify class, reading its input from path;
    ``answers`` maps pooled instances to their recorded answers."""
    rng = random.Random(f"verify:{label}:{k}")
    key = f"{label}#{k}"
    if kind == "gen_complete":
        alpha, q, m = params["variants"][k]
        argv = ["generate", "--construction", "complete", "--alpha", alpha, "--q", str(q), "--m", str(m)]
        return Job(key, argv, {"rc": 0, "factor": fmt(checks.complete_factor(alpha, q, m))})
    if kind == "gen_mantel":
        m = params["variants"][k]
        argv = ["generate", "--construction", "mantel", "--m", str(m)]
        return Job(key, argv, {"rc": 0, "factor": fmt(checks.mantel_factor(m))})
    if kind in ("complete", "mantel"):
        scale = 1 + Fraction(k, POOL)  # distinct per pooled instance
        if kind == "complete":
            doc, q = complete_scenario(params["alpha"], params["q"], params["m"], scale), params["q"]
        else:
            doc, q = mantel_scenario(params["m"], scale), 3
        argv = ["verify", path, "--q-size", str(q)]
        expect = {"rc": 0, "stable": True, "witness": None, "recorded": answers.get(key)}
        return Job(key, argv, expect, {path: doc})
    n = params["n"]
    mode = list(params["mode"])
    if kind == "ashg_late":
        t = params["t"]
        doc, ratio = ashg_late(rng, n, t)
        if mode[0] in ("--improvement", "--qk"):
            # a factor that B still beats, so B stays the witness
            mode.append(fmt((1 + ratio) / 2))
        expect = {"rc": 1, "stable": False, "witness": list(range(n - t, n))}
    else:
        doc, _ = (ashg_grand if kind == "ashg_grand" else fhg_grand)(rng, n)
        expect = {"rc": 0, "stable": True, "witness": None}
    expect["recorded"] = answers.get(key)
    return Job(key, ["verify", path] + mode, expect, {path: doc})


def pool_size(params: dict) -> int:
    """Distinct instances a verify class can draw."""
    return len(params.get("variants", range(POOL)))


def verify_deck(workdir: str, classes, answers: dict) -> list[Job]:
    return [
        verify_job(label, kind, params, k, os.path.join(workdir, f"{slot}-{k}.json"), answers)
        for slot, ((label, kind, params), count) in enumerate(classes)
        for k in range(min(count, pool_size(params)))
    ]


# ------------------------------------------------------------------------ poa

# Job costs (best of four runs on a 2-vCPU VM): 7-agent --q ~0.04-0.06 s, 7-agent --k
# ~0.06-0.1 s, 8-agent --q ~0.25 s.  66, 30 and 5 jobs of each put the
# median among the 7-agent --q jobs and the 90th percentile among the
# slowest 7-agent --k jobs (ashg), away from the group edges where it
# would jump.
POA_CLASSES = [
    ("ashg", 7, ("--q", "2")), ("fhg", 7, ("--q", "3")), ("mfhg", 7, ("--q", "2")), ("ashg", 7, ("--q", "3")),
    ("fhg", 7, ("--q", "2")), ("mfhg", 7, ("--q", "3")),
    ("ashg", 7, ("--k", "3/2")), ("fhg", 7, ("--k", "3/2")), ("mfhg", 7, ("--k", "3/2")),
    ("ashg", 8, ("--q", "2")), ("fhg", 8, ("--q", "3")), ("mfhg", 8, ("--q", "2")),
    ("ashg", 8, ("--q", "3")), ("fhg", 8, ("--q", "2")),
]
POA_DECK = list(zip(POA_CLASSES, [11] * 6 + [10] * 3 + [1] * 5))


def poa_game(alpha: str, n: int, k: int) -> dict:
    """Pooled random game: a fifth of pairs at weight 0, the rest mixed
    rationals in [-3, 9], so some weights are negative."""
    rng = random.Random(f"poa:{alpha}:{n}:{k}")
    weights = {p: (Fraction(0) if rng.random() < 0.2 else mixed_rational(rng, -3, 9)) for p in pairs(range(n))}
    return game_doc(n, alpha, weights)


def poa_job(alpha: str, n: int, mode, k: int, path: str, answers: dict) -> Job:
    label = f"{alpha}-n{n}-{mode[0][2:]}{mode[1]}"
    key = f"{label}#{k}"
    return Job(key, ["poa", path, *mode], {"rc": 0, **answers.get(key, {})}, {path: poa_game(alpha, n, k)})


def poa_deck(workdir: str, classes, answers: dict) -> list[Job]:
    return [
        poa_job(alpha, n, mode, k, os.path.join(workdir, f"{slot}-{k}.json"), answers)
        for slot, ((alpha, n, mode), count) in enumerate(classes)
        for k in range(min(count, POOL))
    ]


# ---------------------------------------------------------------------- decks

DECKS = {"search": SEARCH_DECK, "verify": VERIFY_DECK, "poa": POA_DECK}


def load_answers() -> dict:
    with open(ANSWERS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def make_deck(workload: str, rng: random.Random, workdir: str, answers: dict, scale: float = 1.0) -> list[Job]:
    """The workload's deck, in seeded order.  ``scale`` multiplies every
    class's job count (at least 1, at most the distinct inputs a class
    can draw)."""
    classes = [(cls, max(1, round(count * scale))) for cls, count in DECKS[workload]]
    if workload == "search":
        jobs = search_deck(rng, workdir, classes)
    elif workload == "verify":
        jobs = verify_deck(workdir, classes, answers["verify"])
    else:
        jobs = poa_deck(workdir, classes, answers["poa"])
    rng.shuffle(jobs)
    return jobs


def write_inputs(jobs: list[Job]) -> None:
    for job in jobs:
        for path, doc in job.files.items():
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)


# --------------------------------------------------------------------- checks

def parse_output(text: str) -> dict:
    """``key: value`` lines, plus the first word of the first line."""
    lines = text.splitlines()
    fields = {"head": lines[0].split()[0] if lines and lines[0].split() else ""}
    for line in lines:
        key, sep, value = line.partition(": ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def check(job: Job, rc: int, out: str) -> str | None:
    """None if the job's exit code and output are the known answer,
    else the reason it is wrong."""
    expect = job.expect
    if rc != expect["rc"]:
        return f"exit code {rc}, expected {expect['rc']}"
    got = parse_output(out)
    command = job.argv[0]
    if command == "search":
        if got.get("verdict") != expect["verdict"]:
            return f"verdict {got.get('verdict')!r}, expected {expect['verdict']!r}"
        if expect["verdict"] == "feasible":
            with open(expect["cert"], encoding="utf-8") as handle:
                doc = json.load(handle)
            reason = checks.certificate_error(
                doc, expect["q"], Fraction(expect["gamma"]),
                expect["weight_bound"], expect["baseline_bound"],
            )
            if reason:
                return f"certificate: {reason}"
        return None
    if command == "generate":
        if got.get("verification") != "ok":
            return "generate verification failed"
        if got.get("improvement-factor") != expect["factor"]:
            return f"factor {got.get('improvement-factor')}, expected {expect['factor']}"
        return None
    if command == "verify":
        stable = got["head"] == "stable"
        if stable != expect["stable"]:
            return f"verdict {got['head']!r}"
        witness = [int(a) for a in got["witness"].split()] if "witness" in got else None
        if witness != expect["witness"]:
            return f"witness {witness}, expected {expect['witness']}"
        recorded = expect.get("recorded")
        if recorded is not None and (recorded["rc"], recorded["witness"]) != (rc, witness):
            return "differs from the recorded answer"
        return None
    # poa
    if "ratio" not in expect:
        return "no recorded answer"
    for key in ("best-welfare", "worst-stable-welfare", "ratio"):
        if got.get(key) != expect[key]:
            return f"{key} {got.get(key)}, expected {expect[key]}"
    return None
