"""Multi-command front end: synth, hotspots, centrality, compare, heatmap.

Every command writes a ``manifest.json`` next to its outputs with the
command name, tool version, config values and SHA-256 digests of inputs
and outputs, so identical runs are verifiably byte-identical.  Exit codes:
0 success, 1 domain or convergence error, 2 I/O, decoding or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator

from . import METRICS, PAGERANK_VARIANTS, __version__
from .config import IngestConfig, TimeWindow, load_ingest_config, parse_epoch_ms
from .errors import GridhotError, UnreadableInputError
from .fileio import SizedChunks, atomic_write_text, open_text, sha256_file

if TYPE_CHECKING:
    from .ingest import GridCell, TrafficAggregate

# The names taken from modules that not every command runs, each with its
# module.  So that a command imports only what it runs, a name becomes an
# attribute of this module on first use: a command binds its names with
# _bind, and a lookup from outside, such as the setattr of a wrapper or a
# test's monkeypatch, binds the name through __getattr__.
_LAZY = {
    "parse_activity": "ingest",
    "aggregate_traffic": "ingest",
    "parse_interactions": "ingest",
    "aggregate_interactions": "ingest",
    "load_aggregate": "ingest",
    "parse_grid": "ingest",
    "format_grid": "ingest",
    "calibrate_p": "hotspot",
    "detect_hotspots": "hotspot",
    "build_graph": "graph",
    "symmetrize": "graph",
    "CentralityParams": "centrality",
    "compute_all": "centrality",
    "rank": "centrality",
    "compare_weeks": "compare",
    "report_json_obj": "compare",
    "to_series": "compare",
    "generate_city": "synth",
    "load_synth_config": "synth",
}


def _bind(*names: str) -> None:
    """Bind each of ``names`` that this module does not hold yet to the
    function or class of that name in its module; a name already bound, to
    the original or to a wrapper set in its place, is left as it is."""
    namespace = globals()
    for name in names:
        if name not in namespace:
            # the built-in __import__, unlike importlib.import_module, is timed
            # by -X importtime, so an import profile lists these modules too
            module = __import__(f"{__package__}.{_LAZY[name]}", fromlist=[name])
            namespace[name] = getattr(module, name)


def __getattr__(name: str):
    # called only for the names this module does not hold (PEP 562)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _digest(path, digests: dict) -> str:
    """The SHA-256 of ``path``, taken once per command: ``digests`` keeps it by path."""
    if path not in digests:
        digests[path] = sha256_file(path)
    return digests[path]


def _write_manifest(
    path, command: str, inputs: dict, config: dict, outputs: dict, *,
    status=None, diagnostics=None, digests=None,
) -> None:
    """Write the reproducibility record that accompanies a command's outputs.

    ``inputs`` maps names to paths: a list expands to ``name[i]`` and an
    optional input given as ``None`` is left out.  Inputs and outputs are
    recorded with their SHA-256 digests, outputs under their file names.
    ``digests`` maps input paths to the digests the command has already
    taken, so that no input is hashed twice.  ``outputs`` maps output paths
    to the digests of the bytes written there, as :func:`atomic_write_text`
    took them, so that no output is read back.  ``diagnostics`` holds
    deterministic facts about how a result was reached, such as each
    centrality solver's params.
    """
    digests = {} if digests is None else digests

    def entry(file_path, sha256) -> dict:
        return {"path": str(file_path), "sha256": sha256}

    recorded = {}
    for name, value in inputs.items():
        if isinstance(value, list):
            recorded.update(
                (f"{name}[{i}]", entry(item, _digest(item, digests))) for i, item in enumerate(value)
            )
        elif value is not None:
            recorded[name] = entry(value, _digest(value, digests))
    manifest = {
        "command": command,
        "tool_version": __version__,
        "inputs": recorded,
        "config": config,
        "outputs": {Path(out).name: entry(out, sha256) for out, sha256 in outputs.items()},
        "status": status or {},
        "diagnostics": diagnostics or {},
    }
    atomic_write_text(path, _json_text(manifest))


def _warn(command: str, message: str) -> None:
    print(f"gridhot {command}: warning: {message}", file=sys.stderr)


def _metric_list(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    for i, name in enumerate(names):
        if name not in METRICS:
            raise argparse.ArgumentTypeError(
                f"unknown metric {name!r}; choose from {', '.join(METRICS)}"
            )
        if name in names[:i]:
            raise argparse.ArgumentTypeError(f"metric {name!r} is given more than once")
    if not names:
        raise argparse.ArgumentTypeError("metric list is empty")
    return names


def _window_bound(text: str):
    try:
        return parse_epoch_ms(text)
    except GridhotError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_window_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--window-start",
        required=True,
        type=_window_bound,
        help="window start (inclusive): epoch ms or ISO date, e.g. 2013-11-18",
    )
    sub.add_argument(
        "--window-end",
        required=True,
        type=_window_bound,
        help="window end (exclusive): epoch ms or ISO date",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridhot",
        description="Detect traffic hotspots in gridded telecom data and analyse them "
        "with graph centrality metrics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic city dataset")
    p_synth.add_argument("--config", required=True, help="generator key=value config file")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_hot = sub.add_parser("hotspots", help="detect hotspot cells from activity data")
    p_hot.add_argument("--activity", required=True, action="append", help="activity file (repeatable)")
    _add_window_args(p_hot)
    group = p_hot.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float, help="cutoff parameter in [0, 1]")
    group.add_argument("--k", type=int, help="calibrate the cutoff to select k hotspots")
    p_hot.add_argument("--grid", help="grid GeoJSON; adds heatmap.geojson to the outputs")
    p_hot.add_argument("--config", help="ingest key=value config file")
    p_hot.add_argument("--out", required=True, help="output directory")
    p_hot.set_defaults(func=cmd_hotspots)

    p_cen = sub.add_parser("centrality", help="score hotspots on the interaction graph")
    p_cen.add_argument(
        "--interactions", required=True, action="append", help="interaction file (repeatable)"
    )
    p_cen.add_argument("--hotspots", required=True, help="hotspots.csv from the hotspots command")
    _add_window_args(p_cen)
    p_cen.add_argument("--damping", type=float, default=0.85, help="PageRank damping (default 0.85)")
    p_cen.add_argument("--tol", type=float, default=1e-12, help="iteration tolerance (default 1e-12)")
    p_cen.add_argument("--max-iter", type=int, default=10_000, help="iteration cap (default 10000)")
    p_cen.add_argument(
        "--metrics",
        type=_metric_list,
        default=METRICS,
        help=f"comma-separated subset of {','.join(METRICS)} (default: all)",
    )
    p_cen.add_argument(
        "--pagerank-variant",
        choices=PAGERANK_VARIANTS,
        default="weighted",
        help="spread PageRank mass by edge weight or by neighbour count",
    )
    p_cen.add_argument("--config", help="ingest key=value config file")
    p_cen.add_argument("--out", required=True, help="output directory")
    p_cen.set_defaults(func=cmd_centrality)

    p_cmp = sub.add_parser("compare", help="compare two centrality reports")
    p_cmp.add_argument("week1", help="centrality.csv of the reference week")
    p_cmp.add_argument("week2", help="centrality.csv of the comparison week")
    p_cmp.add_argument(
        "--metrics", type=_metric_list, default=None, help="comma-separated metric subset"
    )
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_heat = sub.add_parser("heatmap", help="export per-cell intensities as GeoJSON")
    p_heat.add_argument("--activity", required=True, action="append", help="activity file (repeatable)")
    p_heat.add_argument("--grid", required=True, help="grid GeoJSON")
    _add_window_args(p_heat)
    p_heat.add_argument("--hotspots", help="hotspots.csv; marks member cells in the output")
    p_heat.add_argument("--config", help="ingest key=value config file")
    p_heat.add_argument("--out", required=True, help="output GeoJSON path")
    p_heat.set_defaults(func=cmd_heatmap)

    return parser


def _ingest_config(args) -> IngestConfig:
    if getattr(args, "config", None):
        return load_ingest_config(args.config)
    return IngestConfig()


def _window(args) -> TimeWindow:
    return TimeWindow(args.window_start, args.window_end)


def _load_records(
    command: str, kind: str, parse, aggregate, paths, window: TimeWindow, cfg: IngestConfig
):
    """Aggregate the records that ``parse`` reads from every file in ``paths``.

    Returns the aggregate and its ingest counts for the manifest's
    ``diagnostics``: lines read, parsed and skipped, and records in the window.
    """
    _bind("load_aggregate")
    result, stats = load_aggregate(kind, parse, aggregate, paths, window, cfg)
    _warn_skipped(command, kind, stats.skipped)
    return result, {**vars(stats), "in_window": result.in_window}


def _warn_skipped(command: str, kind: str, skipped: int) -> None:
    if skipped:
        _warn(command, f"skipped {skipped} malformed {kind} line(s)")


def _csv_text(header: str, rows) -> str:
    return "".join([header + "\n"] + [",".join(str(v) for v in row) + "\n" for row in rows])


def _read_hotspots_csv(path) -> dict[int, float]:
    import csv  # only the commands that read a CSV input import it

    with open_text(path) as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "cell_id" not in reader.fieldnames:
            raise GridhotError(f"hotspot file {path} lacks a cell_id column")
        members = {}
        for row in reader:
            try:
                cell = int(row["cell_id"])
                if cell <= 0 or cell in members:
                    raise ValueError
                members[cell] = float(row.get("intensity", 0) or 0)
            except (TypeError, ValueError):
                raise GridhotError(f"malformed row {reader.line_num} in {path}") from None
    return members


def _read_scores_csv(path) -> dict[str, dict[int, float]]:
    import csv

    with open_text(path) as handle:
        reader = csv.DictReader(handle)
        required = {"cell_id", "metric", "score"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise GridhotError(f"centrality file {path} lacks columns {sorted(required)}")
        scores: dict[str, dict[int, float]] = {}
        for row in reader:
            try:
                score = float(row["score"])
                cell = int(row["cell_id"])
                metric_scores = scores.setdefault(row["metric"], {})
                if not math.isfinite(score) or cell in metric_scores:
                    raise ValueError
                metric_scores[cell] = score
            except (TypeError, ValueError):
                raise GridhotError(f"malformed row {reader.line_num} in {path}") from None
    return scores


def heatmap_feature_collection(
    cells: list[GridCell],
    traffic: TrafficAggregate,
    hotspot_members: set[int] | None = None,
) -> tuple[Iterator[str], int]:
    """The heatmap FeatureCollection as text chunks, and the geometry-less cells.

    Every grid cell becomes a feature (intensity 0 when it saw no traffic);
    ``intensity_norm`` is min-max over those cells and defined as 0 for all
    of them when max equals min.  Activity cells with no grid polygon are
    skipped and counted.  ``cells`` have distinct ids and finite
    coordinates, as :func:`parse_grid` gives them.  The chunks are those of
    :func:`format_grid`, with the features in cell id order.
    """
    _bind("format_grid")
    intensities = traffic.intensities
    skipped = len(intensities) - sum(cell.cell_id in intensities for cell in cells)
    low = min((intensities.get(cell.cell_id, 0.0) for cell in cells), default=0.0)
    high = max((intensities.get(cell.cell_id, 0.0) for cell in cells), default=0.0)
    span = high - low

    def features():
        for cell in sorted(cells, key=operator.attrgetter("cell_id")):
            intensity = intensities.get(cell.cell_id, 0.0)
            properties = [
                ("cell_id", cell.cell_id),
                ("intensity", intensity),
                ("intensity_norm", 0.0 if span == 0 else (intensity - low) / span),
            ]
            if hotspot_members is not None:
                properties.append(("is_hotspot", cell.cell_id in hotspot_members))
            yield cell.polygon, properties

    properties = (
        ("cells_without_geometry", skipped),
        ("normalization", "min-max over grid cells; all zero when max equals min"),
    )
    return format_grid(features(), properties), skipped


def _warn_no_geometry(command: str, skipped: int) -> None:
    if skipped:
        _warn(command, f"{skipped} active cell(s) have no grid geometry and were skipped")


def _write_heatmap(
    command: str, path, cells: list[GridCell], traffic: TrafficAggregate, members: set[int] | None
) -> tuple[str, int]:
    """Stream the heatmap to ``path``, warning of active cells without geometry;
    returns the digest of the bytes written and the count of those cells."""
    chunks, skipped = heatmap_feature_collection(cells, traffic, members)
    sha256 = atomic_write_text(path, SizedChunks(chunks))
    _warn_no_geometry(command, skipped)
    return sha256, skipped


def cmd_synth(args) -> int:
    _bind("load_synth_config", "generate_city")
    cfg = load_synth_config(args.config)
    out_dir = Path(args.out)
    city = generate_city(cfg, out_dir)

    config = {**cfg._asdict(), "window": cfg.window._asdict()}
    _write_manifest(
        out_dir / "manifest.json", "synth", {"config": args.config}, config,
        city.digests, diagnostics={"synth": city.stats._asdict()},
    )
    return 0


def cmd_hotspots(args) -> int:
    _bind("parse_activity", "aggregate_traffic", "parse_grid", "calibrate_p", "detect_hotspots")
    cfg = _ingest_config(args)
    window = _window(args)
    traffic, counts = _load_records(
        args.command, "activity", parse_activity, aggregate_traffic, args.activity, window, cfg
    )
    # a bad grid must fail the run before any output is written; parsed after
    # the records so that the grid and the per-cell sums never share the peak
    cells = parse_grid(args.grid) if args.grid else None

    if args.k is not None:
        p, hotspots = calibrate_p(traffic, args.k)
    else:
        hotspots = detect_hotspots(traffic, args.p)
        p = args.p

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = [(cell, repr(hotspots.intensities[cell])) for cell in hotspots.members]
    csv_path = out_dir / "hotspots.csv"
    outputs = {csv_path: atomic_write_text(csv_path, _csv_text("cell_id,intensity", rows))}

    threshold_doc = {
        **hotspots.spec._asdict(),
        "k": args.k,
        "truncated": hotspots.truncated,
        "member_count": len(hotspots.members),
        "window": window._asdict(),
    }
    threshold_path = out_dir / "threshold.json"
    outputs[threshold_path] = atomic_write_text(threshold_path, _json_text(threshold_doc))
    diagnostics = {"ingest": {**counts, "cells": len(traffic.intensities)}}

    if cells is not None:
        heatmap_path = out_dir / "heatmap.geojson"
        outputs[heatmap_path], skipped = _write_heatmap(
            args.command, heatmap_path, cells, traffic, set(hotspots.members)
        )
        # for a heatmap command that copies this file to warn as this run did
        diagnostics["heatmap"] = {"cells_without_geometry": skipped}

    config = {
        "window": window._asdict(), "p": p, "k": args.k, "on_malformed": cfg.on_malformed
    }
    inputs = {"activity": args.activity, "config": args.config, "grid": args.grid}
    _write_manifest(
        out_dir / "manifest.json", "hotspots", inputs, config, outputs, diagnostics=diagnostics
    )
    return 0


def cmd_centrality(args) -> int:
    _bind(
        "parse_interactions", "aggregate_interactions",
        "build_graph", "symmetrize", "CentralityParams", "compute_all", "rank",
    )
    cfg = _ingest_config(args)
    window = _window(args)
    members = _read_hotspots_csv(args.hotspots)

    # only the pairs between hotspots are summed; the others' records are counted
    aggregate = functools.partial(aggregate_interactions, members=members)
    interactions, counts = _load_records(
        args.command, "interaction", parse_interactions, aggregate, args.interactions, window, cfg
    )

    graph = build_graph(interactions, sorted(members))
    # the graph's edges hold the aggregate's pair tuples; its own dict goes now
    del interactions
    params = CentralityParams(
        damping=args.damping,
        tol=args.tol,
        max_iter=args.max_iter,
        pagerank_variant=args.pagerank_variant,
    )
    # one undirected graph serves the path metrics, degree, eigenvector and
    # the diagnostics below
    undirected = symmetrize(graph)
    results, failures = compute_all(graph, params, metrics=args.metrics, undirected=undirected)
    graph_facts = {
        "nodes": graph.n,
        "edges": len(undirected.edges),
        "components": undirected.components,
    }
    if {"closeness", "betweenness"} & set(args.metrics):
        # the undirected edges the shortest-path pass ran on
        graph_facts["path_edges"] = sum(map(len, undirected.path_adjacency)) // 2
    # free both graphs, and the path adjacency cached on one, before the
    # outputs are formatted and hashing loads OpenSSL at the first write
    del graph, undirected

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    ordered = [results[name] for name in METRICS if name in results]
    score_rows = [
        (cell, result.metric, repr(score))
        for result in ordered for cell, score in sorted(result.scores.items())
    ]
    ranking_rows = []
    for result in ordered:
        for position, (cell, score) in enumerate(rank(result), start=1):
            ranking_rows.append((result.metric, position, cell, repr(score)))
    outputs = {}
    for name, header, rows in (
        ("centrality.csv", "cell_id,metric,score", score_rows),
        ("rankings.csv", "metric,rank,cell_id,score", ranking_rows),
    ):
        outputs[out_dir / name] = atomic_write_text(out_dir / name, _csv_text(header, rows))

    config = {
        **params._asdict(),
        "window": window._asdict(),
        "metrics": list(args.metrics),
    }
    status = {
        name: "ok" if name in results else f"error: {failures[name]}"
        for name in args.metrics
    }
    _write_manifest(
        out_dir / "manifest.json",
        "centrality",
        {"interactions": args.interactions, "hotspots": args.hotspots, "config": args.config},
        config,
        outputs,
        status=status,
        diagnostics={
            "ingest": counts,
            "graph": graph_facts,
            **{name: result.params for name, result in results.items()},
        },
    )

    for name, error in failures.items():
        _warn(args.command, f"metric {name} failed: {error}")
    return 0 if results else 1


def cmd_compare(args) -> int:
    _bind("to_series", "compare_weeks", "report_json_obj")
    week1 = _read_scores_csv(args.week1)
    week2 = _read_scores_csv(args.week2)

    metrics = args.metrics or tuple(name for name in METRICS if name in week1)
    if not metrics:
        raise GridhotError(f"report {args.week1} holds none of the metrics {', '.join(METRICS)}")
    missing = [name for name in metrics if name not in week1 or name not in week2]
    if missing:
        raise GridhotError(f"metric(s) {missing} absent from one of the reports")

    node_sets = {frozenset(week1[name]) for name in metrics}
    node_sets |= {frozenset(week2[name]) for name in metrics}
    if len(node_sets) > 1:
        union = set().union(*node_sets)
        shared = set.intersection(*(set(s) for s in node_sets))
        raise GridhotError(
            f"reports cover different hotspot sets; ids not shared by all: {sorted(union - shared)}"
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    status = {}
    outputs = {}
    for name in metrics:
        node_set = sorted(week1[name])
        # to_series reads only these two fields of a centrality result
        series1 = to_series(SimpleNamespace(metric=name, scores=week1[name]), node_set)
        series2 = to_series(SimpleNamespace(metric=name, scores=week2[name]), node_set)
        try:
            report = compare_weeks(series1, series2)
        except GridhotError as exc:
            status[name] = f"error: {exc}"
            _warn(args.command, f"comparison for {name} failed: {exc}")
            continue
        status[name] = "ok"

        diff_rows = [
            (cell, repr(report.per_node_rel_diff_pct[cell]))
            for cell in sorted(report.per_node_rel_diff_pct)
        ]
        corr_rows = list(zip(report.auto_cross_diff.shifts, map(repr, report.auto_cross_diff.values)))
        for suffix, text in (
            ("comparison.json", _json_text(report_json_obj(report))),
            ("reldiff.csv", _csv_text("cell_id,rel_diff_pct", diff_rows)),
            ("corr_diff.csv", _csv_text("shift,diff_pct", corr_rows)),
        ):
            path = out_dir / f"{name}_{suffix}"
            outputs[path] = atomic_write_text(path, text)

    inputs = {"week1": args.week1, "week2": args.week2}
    config = {"metrics": list(metrics)}
    _write_manifest(out_dir / "manifest.json", "compare", inputs, config, outputs, status=status)
    return 0 if outputs else 1


# What the check of a hotspots run's manifest.json catches, by the malformed
# file that raises it: OSError, a missing or unreadable file; ValueError, bytes
# that are not UTF-8 or text that is not JSON; LookupError, a missing key;
# TypeError, a top-level list; AttributeError, "inputs": [1] (name.startswith
# on an int); RecursionError, JSON nested past the recursion limit.  The check
# itself raises no error.
_REUSE_ERRORS = (OSError, ValueError, LookupError, TypeError, AttributeError, RecursionError)
# the ingest counts a heatmap records, taken from the manifest of a copied run
_INGEST_KEYS = ("lines", "parsed", "skipped", "in_window", "cells")


def _copied_heatmap(
    args, window: TimeWindow, cfg: IngestConfig, digests: dict
) -> tuple[dict, str] | None:
    """Copy the ``heatmap.geojson`` of the ``hotspots`` run that wrote
    ``args.hotspots`` to ``args.out`` and return that run's ``diagnostics``
    with the digest of the bytes copied; None, with ``args.out`` untouched,
    when the files must be read.

    The file is copied when the run's ``manifest.json`` names the command
    ``hotspots`` and this ``__version__``; records this window and
    ``on_malformed`` policy; records the digests of this ``--grid``, of these
    ``--activity`` files, as many and in the same order, and of this
    ``--config``, or neither run has one; lists ``args.hotspots`` and
    ``heatmap.geojson`` by their digests; and holds integer ingest counts and
    an integer count of active cells without geometry.  Digests are
    compared, never paths, and the ones taken are kept in ``digests``.  The
    copy is streamed as text that keeps every byte, hashed as it is written,
    and only renamed into place when the bytes copied have the recorded
    digest.  ``__version__`` does not change with every change to the code,
    so a change to how intensities are summed, to
    :func:`heatmap_feature_collection` or to :func:`format_grid` must also
    change what this check accepts.  A mismatch, a missing or unreadable
    file, malformed JSON or a missing key returns None.
    """
    run_dir = Path(args.hotspots).parent
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        inputs, config, outputs = manifest["inputs"], manifest["config"], manifest["outputs"]
        diagnostics = manifest["diagnostics"]
        ingest, heatmap = diagnostics["ingest"], diagnostics["heatmap"]
        if not (
            manifest["command"] == "hotspots"
            and manifest["tool_version"] == __version__
            and config["window"] == window._asdict()
            and config["on_malformed"] == cfg.on_malformed
            and sum(name.startswith("activity[") for name in inputs) == len(args.activity)
            and ("config" in inputs) == (args.config is not None)
            and all(type(ingest[key]) is int for key in _INGEST_KEYS)
            and type(heatmap["cells_without_geometry"]) is int
        ):
            return None
        recorded = outputs["heatmap.geojson"]["sha256"]
        # the small files first: a mismatch there hashes no activity file
        pairs = [
            (args.hotspots, outputs["hotspots.csv"]),
            (args.grid, inputs["grid"]),
            *([(args.config, inputs["config"])] if args.config is not None else []),
            *((path, inputs[f"activity[{i}]"]) for i, path in enumerate(args.activity)),
        ]
        if any(_digest(path, digests) != entry["sha256"] for path, entry in pairs):
            return None
        # newline="" passes line ends through, so the text is the file's bytes
        source = open(run_dir / "heatmap.geojson", encoding="utf-8", newline="")
    except _REUSE_ERRORS:
        return None
    with source:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        blocks = iter(lambda: source.read(1 << 16), "")
        try:
            # bytes that are not UTF-8 raise UnicodeDecodeError, a ValueError
            sha256 = atomic_write_text(args.out, SizedChunks(blocks), expect=recorded)
        except ValueError:
            return None
    return diagnostics, sha256


def cmd_heatmap(args) -> int:
    cfg = _ingest_config(args)
    window = _window(args)
    digests = {}
    out_path = Path(args.out)
    copied = _copied_heatmap(args, window, cfg, digests) if args.hotspots else None
    if copied is not None:
        run, sha256 = copied
        counts = run["ingest"]
        _warn_skipped(args.command, "activity", counts["skipped"])
        _warn_no_geometry(args.command, run["heatmap"]["cells_without_geometry"])
    else:
        _bind("parse_activity", "aggregate_traffic", "parse_grid")
        traffic, counts = _load_records(
            args.command, "activity", parse_activity, aggregate_traffic, args.activity, window, cfg
        )
        cells = parse_grid(args.grid)
        hotspot_members = set(_read_hotspots_csv(args.hotspots)) if args.hotspots else None
        out_path.parent.mkdir(parents=True, exist_ok=True)
        sha256, _ = _write_heatmap(args.command, out_path, cells, traffic, hotspot_members)
        counts = {**counts, "cells": len(traffic.intensities)}

    inputs = {
        "activity": args.activity,
        "grid": args.grid,
        "hotspots": args.hotspots,
        "config": args.config,
    }
    config = {"window": window._asdict(), "on_malformed": cfg.on_malformed}
    diagnostics = {"ingest": {key: counts[key] for key in _INGEST_KEYS}}
    manifest_path = Path(str(out_path) + ".manifest.json")
    _write_manifest(
        manifest_path, "heatmap", inputs, config, {out_path: sha256},
        diagnostics=diagnostics, digests=digests,
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GridhotError as exc:
        print(f"gridhot {args.command}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UnreadableInputError) else 1
    except OSError as exc:
        # a missing or unopenable file; undecodable bytes are UnreadableInputError
        print(f"gridhot {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
