"""Self-tests of the benchmark: computed counts against brute force,
answer checks that catch planted wrong answers, tracing, and a smoke run.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

import checks
import run
import spans
import worker
import workloads

alphahg = worker.import_package()


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[first]] + partition
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]


@pytest.mark.parametrize("n", range(1, 8))
def test_bell_matches_enumeration(n):
    assert checks.bell(n) == sum(1 for _ in set_partitions(list(range(n))))


@pytest.mark.parametrize("n", range(1, 8))
def test_coalitions_scanned_matches_enumeration(n):
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            order = [c for s in range(lo, hi + 1) for c in combinations(range(n), s)]
            assert checks.coalitions_scanned(n, lo, hi, None) == len(order)
            for position, combo in enumerate(order, start=1):
                assert checks.coalitions_scanned(n, lo, hi, combo) == position


def test_lp_size_read_from_argument():
    problem = alphahg.SearchProblem(alpha=alphahg.FHG, stable_size=2, size=3, gamma=Fraction(1))
    lp = alphahg.witness_system_lp(problem, {})
    counts = spans._counts("lp", "solve", (lp,), None)
    assert counts == {"rows": len(lp.constraints), "cols": len(lp.names)}


def test_scenario_subsets_count_matches_naive_scan():
    scenario = alphahg.mantel_scenario(6)
    stable = spans._counts("stability", "scenario_is_size_stable", (scenario, 3), True)
    assert stable == {"subsets": checks.subsets_in_range(6, 2, 3)}
    blocked = alphahg.Scenario(3, ((0, 2, 2), (2, 0, 2), (2, 2, 0)), (1, 1, 1), alphahg.ASHG)
    counts = spans._counts("stability", "scenario_is_size_stable", (blocked, 2), False)
    assert counts == {"subsets": 1}


def test_certificate_checker_rejects_tampered_scenario():
    doc = workloads.complete_scenario("fhg", 2, 3)
    gamma = checks.complete_factor("fhg", 2, 3) - Fraction(1, 1000)
    assert checks.certificate_error(doc, 2, gamma, 10, 10) is None
    assert checks.certificate_error(doc, 2, gamma + 1, 10, 10) is not None
    doc["baselines"][0] = "1/2"
    assert checks.certificate_error(doc, 2, gamma, 10, 10) is not None


def test_planted_wrong_answers_count_as_failures(tmp_path, monkeypatch):
    good = workloads.search_job("fhg", 2, 3, "at", 10, 10, 1000, str(tmp_path / "a.json"))
    wrong_verdict = workloads.search_job("fhg", 2, 3, "at", 10, 10, 1000, str(tmp_path / "b.json"))
    wrong_verdict.expect = {"rc": 0, "verdict": "feasible"}
    answers = workloads.load_answers()
    label, kind, params = workloads.VERIFY_CLASSES[0]
    verify = workloads.verify_job(label, kind, params, 0, str(tmp_path / "v.json"), answers["verify"])
    verify.expect["recorded"] = {"rc": 1, "witness": [0, 1]}
    alpha, n, mode = workloads.POA_CLASSES[0]
    poa = workloads.poa_job(alpha, n, mode, 0, str(tmp_path / "p.json"), answers["poa"])
    poa.expect["ratio"] = "1/3"
    jobs = [good, wrong_verdict, verify, poa]
    monkeypatch.setattr(workloads, "make_deck", lambda *args: list(jobs))
    deck, times, wrong, failures, _, env = run.measure("search", 0, 1, str(tmp_path), answers)
    assert len(deck) == len(times) == 4 and env["backend"]
    assert all(len(job_times) == run.PASSES for job_times in times)
    assert all(seconds > 0 and probe_s > 0 for job_times in times for seconds, probe_s in job_times)
    assert wrong == 3 and len(failures) == 3 * run.PASSES
    assert {label for label, _ in failures} == {j.label for j in jobs[1:]}


def test_setup_launches_report_ready_time_and_probe():
    (seconds, probe_s), = run.setup_times(1)
    assert 0 < seconds < 60 and 0 < probe_s < 1


def test_recorded_answers_cover_the_pool(tmp_path):
    answers = workloads.load_answers()
    for label, kind, params in workloads.VERIFY_CLASSES:
        for k in range(workloads.pool_size(params)):
            job = workloads.verify_job(label, kind, params, k, str(tmp_path / "v.json"), {})
            if job.argv[0] == "verify":
                recorded = answers["verify"][job.label]
                assert (recorded["rc"], recorded["witness"]) == (job.expect["rc"], job.expect["witness"])
    for alpha, n, mode in workloads.POA_CLASSES:
        for k in range(workloads.POOL):
            assert "ratio" in workloads.poa_job(alpha, n, mode, k, "", answers["poa"]).expect


def test_tracer_nests_spans_and_restores_modules(tmp_path):
    job = workloads.search_job("ashg", 2, 4, "below", 10, 10, 1000, str(tmp_path / "c.json"))
    tracer = spans.Tracer()
    restore = tracer.install(alphahg.cli, alphahg.search)
    try:
        _, rc, out = worker.run_job(alphahg.cli, job.argv, tracer, 7)
    finally:
        restore()
    assert run.failure(job, rc, out) is None
    assert alphahg.cli.search is alphahg.search and alphahg.search.solve is alphahg.lp.solve
    by_layer = {s.layer for s in tracer.spans}
    assert {"cli", "search", "lp", "stability", "io"} <= by_layer
    for s in tracer.spans:
        assert s.job == 7 and s.start <= s.end
        if s.layer == "lp":
            assert tracer.spans[s.parent].layer == "search"
    agg = spans.layer_metrics(tracer.spans)
    assert agg["search"]["self_s"] < agg["search"]["busy_s"]
    assert agg["lp"]["calls"] == agg["search"]["lps"]


def test_decks_are_seeded():
    first = workloads.make_deck("search", random.Random(5), "w", {})
    again = workloads.make_deck("search", random.Random(5), "w", {})
    other = workloads.make_deck("search", random.Random(6), "w", {})
    assert [j.argv for j in first] == [j.argv for j in again]
    assert [j.argv for j in first] != [j.argv for j in other]
    assert len(first) == sum(count for _, count in workloads.SEARCH_DECK)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_decks_hold_distinct_inputs_and_enough_jobs(workload):
    answers = workloads.load_answers()
    deck = workloads.make_deck(workload, random.Random(3), "w", answers)
    # paths differ between jobs by construction, so compare without them
    inputs = [
        (tuple(a for a in j.argv if not a.startswith("w/")), json.dumps(list(j.files.values()))) for j in deck
    ]
    assert len(set(inputs)) == len(deck) >= 100
    small = workloads.make_deck(workload, random.Random(3), "w", answers, scale=0)
    assert len(small) == len(workloads.DECKS[workload])


def test_traced_counts_are_work_per_deck(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    answers = workloads.load_answers()
    counts = []
    for attempt in range(2):
        recorded, walls, attempted, failures, _ = run.measure_traced("poa", 4, 1, str(tmp_path), answers)
        metrics = spans.per_layer(recorded, walls[1], walls[0])
        assert not failures and attempted == 2 * len(workloads.POA_DECK)
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1] and counts[0]["efficiency.partitions"] > 0


def test_smoke_runs_every_workload_correctly():
    assert run.smoke() == 0
