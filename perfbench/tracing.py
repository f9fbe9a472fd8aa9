"""Traced, in-process run of the chain: spans around the calls into each layer.

The wrappers replace gridhot's public functions at the module attributes the
CLI looks up at call time (``gridhot.cli.*`` and, inside ``compute_all``,
``gridhot.centrality.*``), so the package itself is not modified.  Each span
records name, start, end and the index of its parent span; spans stay in
memory until the caller writes them out.

The activity and interaction parsers are generators.  Their spans carry
``busy``, the time spent inside ``next()``, so the self time of the
``aggregate_*`` span that consumed them is its duration minus that time.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import types
from contextlib import contextmanager
from time import perf_counter

# Span names are the per-layer metric names without the ``_s`` suffix.
CLI_WRAPS = {
    "parse_activity": "ingest.parse_activity",
    "aggregate_traffic": "ingest.aggregate_traffic",
    "parse_interactions": "ingest.parse_interactions",
    "aggregate_interactions": "ingest.aggregate_interactions",
    "parse_grid": "ingest.parse_grid",
    "calibrate_p": "hotspot.calibrate_p",
    "build_graph": "graph.build_graph",
    "compute_all": "centrality.compute_all",
    "compare_weeks": "compare.compare_weeks",
    "atomic_write_text": "fileio.atomic_write_text",
    "sha256_file": "fileio.sha256_file",
    "heatmap_feature_collection": "cli.heatmap_feature_collection",
    "generate_city": "synth.generate_city",
}
CENTRALITY_WRAPS = {
    "closeness": "centrality.closeness",
    "betweenness": "centrality.betweenness",
    "degree": "centrality.degree",
    "pagerank": "centrality.pagerank",
    "eigenvector": "centrality.eigenvector",
    "symmetrize": "graph.symmetrize",
}
PARSERS = {"parse_activity", "parse_interactions"}

# Layers reported as self time: their span minus the parser time they consumed.
SELF_TIMED = {"ingest.aggregate_traffic", "ingest.aggregate_interactions"}
TIMED_LAYERS = sorted(set(CLI_WRAPS.values()) | set(CENTRALITY_WRAPS.values()))


def _iterations(result, metric: str) -> int:
    scores = result[0].get(metric)
    return scores.params.get("iterations", 0) if scores is not None else 0


# Counts recorded on a span when its call returns: fn(args, result) -> fields.
COUNTERS = {
    "ingest.aggregate_traffic": lambda args, r: {"cells": len(r.intensities)},
    "ingest.aggregate_interactions": lambda args, r: {"pairs": len(r.strengths)},
    "ingest.parse_grid": lambda args, r: {"cells": len(r)},
    "hotspot.calibrate_p": lambda args, r: {
        "members": len(r[1].members),
        "truncated": int(r[1].truncated),
    },
    "graph.build_graph": lambda args, r: {"nodes": r.n, "edges": len(r.edges)},
    "centrality.closeness": lambda args, r: {"sources": args[0].n},
    "centrality.betweenness": lambda args, r: {"sources": args[0].n},
    "centrality.compute_all": lambda args, r: {
        "failed": len(r[1]),
        "pagerank_iterations": _iterations(r, "pagerank"),
        "eigenvector_iterations": _iterations(r, "eigenvector"),
    },
    "compare.compare_weeks": lambda args, r: {"series_len": len(args[0].values)},
    "fileio.atomic_write_text": lambda args, r: {"bytes": len(args[1])},
    "fileio.sha256_file": lambda args, r: {"bytes": os.path.getsize(args[0])},
}


class Tracer:
    """In-memory span recorder with wrappers for plain and generator calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **fields):
        span = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            **fields,
        }
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # aggregate_*(records, window): the parsers it drives read the window
            window = {"window": args[1]} if name in SELF_TIMED else {}
            with self.span(name, **window) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                span.update(count(args, result))
            return result

        return traced

    def wrap_parser(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            window = self.spans[parent].get("window") if parent is not None else None
            span = {"name": name, "start": perf_counter(), "end": None, "parent": parent}
            self.spans.append(span)
            return _timed_items(fn(*args, **kwargs), span, window)

        return traced


def _timed_items(items, span: dict, window):
    """Yield from a parser, adding the time spent inside ``next()`` to ``busy``."""
    busy = 0.0
    count = 0
    inside = 0
    lo, hi = (window.start, window.end) if window is not None else (0, 0)
    try:
        while True:
            started = perf_counter()
            try:
                item = next(items)
            except StopIteration:
                busy += perf_counter() - started
                return
            busy += perf_counter() - started
            count += 1
            if lo <= item.timestamp < hi:
                inside += 1
            yield item
    finally:
        span.update(end=perf_counter(), busy=busy, items=count, in_window=inside)
        items.close()


@contextmanager
def installed(tracer: Tracer, gridhot_cli, gridhot_centrality):
    """Patch the wrapped functions in for the duration of the block."""
    saved = []
    targets = [(gridhot_cli, CLI_WRAPS), (gridhot_centrality, CENTRALITY_WRAPS)]
    try:
        for module, names in targets:
            for attr, name in names.items():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                wrapper = tracer.wrap_parser if attr in PARSERS else tracer.wrap
                setattr(module, attr, wrapper(original, name))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@contextmanager
def counting_sqrt(gridhot_synth):
    """Count ``math.sqrt`` calls made by the synth module: one per scored pair."""
    calls = [0]
    real_sqrt = math.sqrt

    def sqrt(x):
        calls[0] += 1
        return real_sqrt(x)

    proxy = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math) if not k.startswith("_")})
    proxy.sqrt = sqrt
    gridhot_synth.math = proxy
    try:
        yield calls
    finally:
        gridhot_synth.math = math


def duration(span: dict) -> float:
    return span["busy"] if "busy" in span else span["end"] - span["start"]


def chain_metrics(spans: list[dict], startup_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced chain.

    Times and work counts are summed over the chain's commands; sizes
    (cells, pairs, members, nodes, edges, series length) are the largest
    seen in one call.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += duration(span)

    def named(name):
        return [(i, s) for i, s in enumerate(spans) if s["name"] == name]

    def total(name, field):
        return sum(s.get(field, 0) for _, s in named(name))

    def largest(name, field):
        return max((s.get(field, 0) for _, s in named(name)), default=0)

    metrics = {}
    for name in TIMED_LAYERS:
        if name == "synth.generate_city":
            continue
        metrics[name + "_s"] = sum(
            duration(s) - (child_time[i] if name in SELF_TIMED else 0.0) for i, s in named(name)
        )
    commands = named("cli.main")
    metrics["cli.self_s"] = sum(duration(s) - child_time[i] for i, s in commands)
    metrics["cli.startup_s"] = startup_s

    lines = total("ingest.parse_activity", "items")
    in_window = total("ingest.parse_activity", "in_window")
    pairs = total("ingest.aggregate_interactions", "pairs")
    metrics.update(
        {
            "ingest.activity_lines": lines,
            "ingest.lines_per_s": lines / metrics["ingest.parse_activity_s"],
            "ingest.in_window": in_window,
            "ingest.in_window_ratio": in_window / lines,
            "ingest.cells": largest("ingest.aggregate_traffic", "cells"),
            "ingest.interaction_lines": total("ingest.parse_interactions", "items"),
            "ingest.pairs": largest("ingest.aggregate_interactions", "pairs"),
            "graph.pairs_kept_ratio": total("graph.build_graph", "edges") / pairs,
            "hotspot.members": largest("hotspot.calibrate_p", "members"),
            "hotspot.truncated": largest("hotspot.calibrate_p", "truncated"),
            "graph.nodes": largest("graph.build_graph", "nodes"),
            "graph.edges": largest("graph.build_graph", "edges"),
            "centrality.dijkstra_sources": total("centrality.closeness", "sources")
            + total("centrality.betweenness", "sources"),
            "centrality.pagerank_iterations": total("centrality.compute_all", "pagerank_iterations"),
            "centrality.eigenvector_iterations": total(
                "centrality.compute_all", "eigenvector_iterations"
            ),
            "centrality.failed": total("centrality.compute_all", "failed"),
            "compare.series_len": largest("compare.compare_weeks", "series_len"),
            "compare.failed": sum(1 for _, s in named("compare.compare_weeks") if "error" in s),
            "fileio.bytes_written": total("fileio.atomic_write_text", "bytes"),
            "fileio.bytes_hashed": total("fileio.sha256_file", "bytes"),
        }
    )
    return metrics


def accounted_s(spans: list[dict], startup_s: float) -> float:
    """Command spans plus start-up: what the spans, self time and start-up cover."""
    return sum(duration(s) for s in spans if s["name"] == "cli.main") + startup_s


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
