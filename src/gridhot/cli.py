"""Multi-command front end: synth, hotspots, centrality, compare, heatmap.

Every command writes a ``manifest.json`` next to its outputs with the
command name, tool version, config values and SHA-256 digests of inputs
and outputs, so identical runs are verifiably byte-identical.  Exit codes:
0 success, 1 domain or convergence error, 2 I/O, decoding or usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .centrality import (
    METRICS,
    PAGERANK_VARIANTS,
    CentralityParams,
    CentralityScores,
    compute_all,
    rank,
    scores_csv_rows,
)
from .compare import compare_weeks, report_json_obj, to_series
from .errors import GridhotError, UnreadableInputError
from .fileio import atomic_write_text, sha256_file
from .graph import build_graph, symmetrize
from .hotspot import calibrate_p, detect_hotspots
from .ingest import (
    GridCell,
    IngestConfig,
    TimeWindow,
    TrafficAggregate,
    aggregate_interactions,
    aggregate_traffic,
    load_aggregate,
    load_ingest_config,
    open_text,
    parse_activity,
    parse_epoch_ms,
    parse_grid,
    parse_interactions,
)
from .synth import generate_city, load_synth_config

log = logging.getLogger("gridhot")


def _write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_manifest(
    path, command: str, inputs: dict, config: dict, outputs, *, status=None, diagnostics=None
) -> None:
    """Write the reproducibility record that accompanies a command's outputs.

    ``inputs`` maps names to paths: a list expands to ``name[i]`` and an
    optional input given as ``None`` is left out.  Inputs and outputs are
    recorded with their SHA-256 digests, outputs under their file names.
    ``diagnostics`` holds deterministic facts about how a result was
    reached, such as each centrality solver's params.
    """

    def digest(file_path) -> dict:
        return {"path": str(file_path), "sha256": sha256_file(file_path)}

    recorded = {}
    for name, value in inputs.items():
        if isinstance(value, list):
            recorded.update((f"{name}[{i}]", digest(item)) for i, item in enumerate(value))
        elif value is not None:
            recorded[name] = digest(value)
    manifest = {
        "command": command,
        "tool_version": __version__,
        "inputs": recorded,
        "config": config,
        "outputs": {Path(out).name: digest(out) for out in outputs},
        "status": status or {},
        "diagnostics": diagnostics or {},
    }
    _write_json(path, manifest)


def _setup_logging() -> None:
    level_name = os.environ.get("HOTSPOT_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _metric_list(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    for name in names:
        if name not in METRICS:
            raise argparse.ArgumentTypeError(
                f"unknown metric {name!r}; choose from {', '.join(METRICS)}"
            )
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
        "--metrics", type=_metric_list, default=METRICS, help="comma-separated metric subset"
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


def _load_records(kind: str, parse, aggregate, paths, window: TimeWindow, cfg: IngestConfig):
    """Aggregate the records that ``parse`` reads from every file in ``paths``.

    Returns the aggregate and its ingest counts for the manifest's
    ``diagnostics``: lines read, parsed and skipped, and records in the window.
    """
    result, stats = load_aggregate(kind, parse, aggregate, paths, window, cfg)
    if stats.skipped:
        log.warning("skipped %d malformed %s line(s)", stats.skipped, kind)
    counts = dataclasses.asdict(stats)
    counts["in_window"] = result.in_window
    return result, counts


def _csv_text(header: str, rows) -> str:
    return "".join([header + "\n"] + [",".join(str(v) for v in row) + "\n" for row in rows])


def _read_hotspots_csv(path) -> dict[int, float]:
    with open_text(path) as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "cell_id" not in reader.fieldnames:
            raise GridhotError(f"hotspot file {path} lacks a cell_id column")
        members = {}
        for row in reader:
            try:
                members[int(row["cell_id"])] = float(row.get("intensity", 0) or 0)
            except (TypeError, ValueError):
                raise GridhotError(f"malformed row {reader.line_num} in {path}") from None
    return members


def _read_scores_csv(path) -> dict[str, dict[int, float]]:
    with open_text(path) as handle:
        reader = csv.DictReader(handle)
        required = {"cell_id", "metric", "score"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise GridhotError(f"centrality file {path} lacks columns {sorted(required)}")
        scores: dict[str, dict[int, float]] = {}
        for row in reader:
            try:
                scores.setdefault(row["metric"], {})[int(row["cell_id"])] = float(row["score"])
            except (TypeError, ValueError):
                raise GridhotError(f"malformed row {reader.line_num} in {path}") from None
    return scores


def heatmap_feature_collection(
    cells: list[GridCell],
    traffic: TrafficAggregate,
    hotspot_members: set[int] | None = None,
) -> tuple[dict, int]:
    """Build the heatmap FeatureCollection and count geometry-less cells.

    Every grid cell becomes a feature (intensity 0 when it saw no traffic);
    ``intensity_norm`` is min-max over those cells and defined as 0 for all
    of them when max equals min.  Activity cells with no grid polygon are
    skipped and counted.
    """
    by_id = {cell.cell_id: cell for cell in cells}
    skipped = sum(1 for cell_id in traffic.intensities if cell_id not in by_id)
    intensities = {cell_id: traffic.intensities.get(cell_id, 0.0) for cell_id in by_id}
    low = min(intensities.values(), default=0.0)
    high = max(intensities.values(), default=0.0)
    span = high - low
    features = []
    for cell_id in sorted(by_id):
        properties = {
            "cell_id": cell_id,
            "intensity": intensities[cell_id],
            "intensity_norm": 0.0 if span == 0 else (intensities[cell_id] - low) / span,
        }
        if hotspot_members is not None:
            properties["is_hotspot"] = cell_id in hotspot_members
        features.append(
            {
                "type": "Feature",
                "properties": properties,
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[list(point) for point in by_id[cell_id].polygon]],
                },
            }
        )
    doc = {
        "type": "FeatureCollection",
        "properties": {
            "normalization": "min-max over grid cells; all zero when max equals min",
            "cells_without_geometry": skipped,
        },
        "features": features,
    }
    return doc, skipped


def _write_heatmap(
    path, cells: list[GridCell], traffic: TrafficAggregate, members: set[int] | None
) -> None:
    doc, skipped = heatmap_feature_collection(cells, traffic, members)
    if skipped:
        log.warning("%d active cell(s) have no grid geometry and were skipped", skipped)
    _write_json(path, doc)


def cmd_synth(args) -> int:
    cfg = load_synth_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    city = generate_city(cfg, out_dir)

    outputs = (city.activity_path, city.interactions_path, city.grid_path)
    _write_manifest(
        out_dir / "manifest.json", "synth", {"config": args.config}, dataclasses.asdict(cfg),
        outputs, diagnostics={"synth": dataclasses.asdict(city.stats)},
    )
    return 0


def cmd_hotspots(args) -> int:
    cfg = _ingest_config(args)
    window = _window(args)
    traffic, counts = _load_records(
        "activity", parse_activity, aggregate_traffic, args.activity, window, cfg
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
    atomic_write_text(out_dir / "hotspots.csv", _csv_text("cell_id,intensity", rows))

    threshold_doc = {
        **dataclasses.asdict(hotspots.spec),
        "k": args.k,
        "truncated": hotspots.truncated,
        "member_count": len(hotspots.members),
        "window": dataclasses.asdict(window),
    }
    _write_json(out_dir / "threshold.json", threshold_doc)
    outputs = [out_dir / "hotspots.csv", out_dir / "threshold.json"]

    if cells is not None:
        heatmap_path = out_dir / "heatmap.geojson"
        _write_heatmap(heatmap_path, cells, traffic, set(hotspots.members))
        outputs.append(heatmap_path)

    config = {
        "window": dataclasses.asdict(window), "p": p, "k": args.k, "on_malformed": cfg.on_malformed
    }
    inputs = {"activity": args.activity, "config": args.config, "grid": args.grid}
    diagnostics = {"ingest": {**counts, "cells": len(traffic.intensities)}}
    _write_manifest(
        out_dir / "manifest.json", "hotspots", inputs, config, outputs, diagnostics=diagnostics
    )
    return 0


def cmd_centrality(args) -> int:
    cfg = _ingest_config(args)
    window = _window(args)
    members = _read_hotspots_csv(args.hotspots)

    interactions, counts = _load_records(
        "interaction", parse_interactions, aggregate_interactions, args.interactions, window, cfg
    )

    graph = build_graph(interactions, sorted(members))
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

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    ordered = [results[name] for name in METRICS if name in results]
    score_rows = [(cell, metric, repr(score)) for cell, metric, score in scores_csv_rows(ordered)]
    atomic_write_text(out_dir / "centrality.csv", _csv_text("cell_id,metric,score", score_rows))

    ranking_rows = []
    for result in ordered:
        for position, (cell, score) in enumerate(rank(result), start=1):
            ranking_rows.append((result.metric, position, cell, repr(score)))
    atomic_write_text(
        out_dir / "rankings.csv", _csv_text("metric,rank,cell_id,score", ranking_rows)
    )

    config = {
        **dataclasses.asdict(params),
        "window": dataclasses.asdict(window),
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
        [out_dir / "centrality.csv", out_dir / "rankings.csv"],
        status=status,
        diagnostics={
            "ingest": {**counts, "pairs": len(interactions.strengths)},
            "graph": {
                "nodes": graph.n,
                "edges": len(undirected.edges) // 2,
                "components": undirected.components,
            },
            **{name: result.params for name, result in results.items()},
        },
    )

    for name, error in failures.items():
        log.warning("metric %s failed: %s", name, error)
    return 0 if results else 1


def cmd_compare(args) -> int:
    week1 = _read_scores_csv(args.week1)
    week2 = _read_scores_csv(args.week2)

    metrics = args.metrics or tuple(name for name in METRICS if name in week1)
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
    outputs = []
    for name in metrics:
        node_set = sorted(week1[name])
        series1 = to_series(CentralityScores(name, week1[name]), node_set)
        series2 = to_series(CentralityScores(name, week2[name]), node_set)
        try:
            report = compare_weeks(series1, series2)
        except GridhotError as exc:
            status[name] = f"error: {exc}"
            log.warning("comparison for %s failed: %s", name, exc)
            continue
        status[name] = "ok"

        _write_json(out_dir / f"{name}_comparison.json", report_json_obj(report))
        diff_rows = [
            (cell, repr(report.per_node_rel_diff_pct[cell]))
            for cell in sorted(report.per_node_rel_diff_pct)
        ]
        atomic_write_text(
            out_dir / f"{name}_reldiff.csv", _csv_text("cell_id,rel_diff_pct", diff_rows)
        )
        corr_rows = list(zip(report.auto_cross_diff.shifts, map(repr, report.auto_cross_diff.values)))
        atomic_write_text(
            out_dir / f"{name}_corr_diff.csv", _csv_text("shift,diff_pct", corr_rows)
        )
        for suffix in ("comparison.json", "reldiff.csv", "corr_diff.csv"):
            outputs.append(out_dir / f"{name}_{suffix}")

    inputs = {"week1": args.week1, "week2": args.week2}
    config = {"metrics": list(metrics)}
    _write_manifest(out_dir / "manifest.json", "compare", inputs, config, outputs, status=status)
    return 0 if outputs else 1


def cmd_heatmap(args) -> int:
    cfg = _ingest_config(args)
    window = _window(args)
    traffic, counts = _load_records(
        "activity", parse_activity, aggregate_traffic, args.activity, window, cfg
    )
    cells = parse_grid(args.grid)
    hotspot_members = None
    if args.hotspots:
        hotspot_members = set(_read_hotspots_csv(args.hotspots))

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_heatmap(out_path, cells, traffic, hotspot_members)

    inputs = {
        "activity": args.activity,
        "grid": args.grid,
        "hotspots": args.hotspots,
        "config": args.config,
    }
    config = {"window": dataclasses.asdict(window), "on_malformed": cfg.on_malformed}
    diagnostics = {"ingest": {**counts, "cells": len(traffic.intensities)}}
    manifest_path = Path(str(out_path) + ".manifest.json")
    _write_manifest(manifest_path, "heatmap", inputs, config, [out_path], diagnostics=diagnostics)
    return 0


def main(argv=None) -> int:
    _setup_logging()
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
