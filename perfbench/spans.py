"""Per-layer spans, recorded from outside the ``alphahg`` package.

Layers are wrapped where their callers look them up, so nothing inside
the package changes:

* ``alphahg.cli`` reaches ``search``, ``stability``, ``efficiency``,
  ``generators`` and ``io`` through module attributes; each is replaced
  by a proxy whose functions record a span;
* ``alphahg.search`` imported ``solve`` (layer ``lp``) and
  ``scenario_is_size_stable`` / ``min_improvement_factor`` (layer
  ``stability``) by name; those names are rebound in its namespace.

Each span has a name, start, end, parent span and job id, and lives in
memory until the run writes it out.  Work counts attached to spans are
computed from arguments and results by :mod:`checks`.
"""

from __future__ import annotations

import functools
import json
import time
import types
from dataclasses import dataclass, field

import checks

CLI_LAYERS = ("search", "stability", "efficiency", "generators", "io")
SEARCH_HOOKS = {
    "solve": "lp",
    "scenario_is_size_stable": "stability",
    "min_improvement_factor": "stability",
}


@dataclass
class Span:
    layer: str
    name: str
    job: int
    parent: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _stability_counts(name, args, result) -> dict:
    if name == "scenario_is_size_stable":
        scenario, max_size = args[0], args[1]
        if result:
            return {"subsets": checks.subsets_in_range(scenario.size, 2, max_size)}
        position = checks.first_blocking(
            scenario.weights, scenario.baselines, scenario.alpha.name, max_size
        )
        return {"subsets": position or 0}
    if hasattr(result, "checked_sizes"):
        lo, hi = result.checked_sizes
        members = None if result.witness is None else tuple(result.witness)
        return {"subsets": checks.coalitions_scanned(args[0].n, lo, hi, members)}
    return {}


def _counts(layer: str, name: str, args, result) -> dict:
    """Computed work for one call, read from its arguments and result."""
    if layer == "lp":
        return {"rows": len(args[0].constraints), "cols": args[0].num_vars}
    if layer == "search" and name == "search_blocking_scenario":
        return {"nodes": result.nodes_explored, "lps": result.lps_solved}
    if layer == "stability":
        return _stability_counts(name, args, result)
    if layer == "efficiency" and name in ("size_cpoa", "improvement_cpoa"):
        return {"partitions": checks.bell(args[0].n)}
    return {}


class Tracer:
    """Collects spans; ``install`` wraps the layer boundaries and
    returns a function that puts the originals back."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = -1

    def _open(self, layer: str, name: str) -> Span:
        span = Span(layer, name, self.job, self._stack[-1] if self._stack else -1, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def run_job(self, job_id: int, fn, *args):
        """Run fn(*args) as job ``job_id`` under a ``cli`` span."""
        self.job = job_id
        span = self._open("cli", "main")
        try:
            return fn(*args)
        finally:
            self._close(span)

    def wrap(self, layer: str, fn):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.counts = _counts(layer, name, args, result)
            return result

        return traced

    def install(self, cli, search):
        originals = [(cli, layer, getattr(cli, layer)) for layer in CLI_LAYERS]
        originals += [(search, attr, getattr(search, attr)) for attr in SEARCH_HOOKS]
        for layer in CLI_LAYERS:
            setattr(cli, layer, _LayerProxy(getattr(cli, layer), layer, self))
        for attr, layer in SEARCH_HOOKS.items():
            setattr(search, attr, self.wrap(layer, getattr(search, attr)))

        def restore() -> None:
            for owner, attr, value in originals:
                setattr(owner, attr, value)

        return restore


class _LayerProxy:
    """A module stand-in whose plain functions record spans; classes and
    constants pass through unchanged."""

    def __init__(self, module, layer: str, tracer: Tracer) -> None:
        self._module = module
        self._layer = layer
        self._tracer = tracer
        self._wrapped: dict = {}

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if not isinstance(value, types.FunctionType):
            return value
        if name not in self._wrapped:
            self._wrapped[name] = self._tracer.wrap(self._layer, value)
        return self._wrapped[name]


def write(path: str, spans: list[Span]) -> None:
    """One JSON array per line: layer, function, job, parent index,
    start, end, computed counts."""
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps([s.layer, s.name, s.job, s.parent, s.start, s.end, s.counts]) + "\n")


def read(path: str) -> list[Span]:
    """The spans ``write`` wrote."""
    with open(path, encoding="utf-8") as handle:
        return [Span(*json.loads(line)) for line in handle]


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer calls, busy and self time, and computed work, from a
    list of spans.  Busy time counts only spans with no ancestor of the
    same layer; self time subtracts the time covered by child spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start

    def outermost(index: int) -> bool:
        layer = spans[index].layer
        parent = spans[index].parent
        while parent >= 0:
            if spans[parent].layer == layer:
                return False
            parent = spans[parent].parent
        return True

    agg: dict = {}
    for index, span in enumerate(spans):
        entry = agg.setdefault(span.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        if outermost(index):
            entry["busy_s"] += span.end - span.start
        entry["self_s"] += span.end - span.start - child_time[index]
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return agg


def per_layer(spans: list[Span], traced_wall: float, untraced_wall: float) -> dict:
    """The benchmark's per-layer metrics, with units."""
    agg = layer_metrics(spans)

    def get(layer, key):
        return agg.get(layer, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    jobs_busy = get("cli", "busy_s")
    values = {
        "lp.calls": (get("lp", "calls"), "count"),
        "lp.busy_s": (get("lp", "busy_s"), "s"),
        "lp.ms_per_call": (1000 * ratio(get("lp", "busy_s"), get("lp", "calls")), "ms"),
        "lp.rows_mean": (ratio(get("lp", "rows"), get("lp", "calls")), "count"),
        "lp.cols_mean": (ratio(get("lp", "cols"), get("lp", "calls")), "count"),
        "lp.share_of_search": (ratio(get("lp", "busy_s"), get("search", "busy_s")), "ratio"),
        "lp.share_of_jobs": (ratio(get("lp", "busy_s"), jobs_busy), "ratio"),
        "search.calls": (get("search", "calls"), "count"),
        "search.busy_s": (get("search", "busy_s"), "s"),
        "search.self_s": (get("search", "self_s"), "s"),
        "search.nodes": (get("search", "nodes"), "count"),
        "search.lps": (get("search", "lps"), "count"),
        "search.nodes_per_s": (ratio(get("search", "nodes"), get("search", "busy_s")), "1/s"),
        "stability.calls": (get("stability", "calls"), "count"),
        "stability.busy_s": (get("stability", "busy_s"), "s"),
        "stability.subsets": (get("stability", "subsets"), "count"),
        "stability.subsets_per_s": (ratio(get("stability", "subsets"), get("stability", "busy_s")), "1/s"),
        "stability.share_of_jobs": (ratio(get("stability", "busy_s"), jobs_busy), "ratio"),
        "efficiency.calls": (get("efficiency", "calls"), "count"),
        "efficiency.busy_s": (get("efficiency", "busy_s"), "s"),
        "efficiency.partitions": (get("efficiency", "partitions"), "count"),
        "efficiency.partitions_per_s": (
            ratio(get("efficiency", "partitions"), get("efficiency", "busy_s")), "1/s"),
        "efficiency.share_of_jobs": (ratio(get("efficiency", "busy_s"), jobs_busy), "ratio"),
        "generators.calls": (get("generators", "calls"), "count"),
        "generators.busy_s": (get("generators", "busy_s"), "s"),
        "io.calls": (get("io", "calls"), "count"),
        "io.busy_s": (get("io", "busy_s"), "s"),
        "cli.busy_s": (jobs_busy, "s"),
        "cli.self_s": (get("cli", "self_s"), "s"),
        "trace.jobs": (get("cli", "calls"), "count"),
        "trace.overhead": (ratio(traced_wall, untraced_wall) - 1, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
