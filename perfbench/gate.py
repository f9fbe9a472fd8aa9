"""Correctness gate: checks one finished chain's outputs before any number
is reported.

The checks read the files the CLI wrote and never import gridhot, so a
defect in the package cannot hide itself from them.  Each check raises
:class:`GateError` with a message naming the file and the broken promise.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime, timezone
from pathlib import Path

METRICS = ("closeness", "betweenness", "degree", "pagerank", "eigenvector")

# PageRank sums to 1 and the eigenvector has unit norm, to within this.
NORM_TOL = 1e-12

# Largest |gridhot - networkx| / max|networkx| accepted per metric.  The seed
# code agrees to within 1e-14 on the path metrics and degree; PageRank and
# eigenvector stop at gridhot's iteration tolerance of 1e-12.
NETWORKX_TOL = {
    "closeness": 1e-12,
    "betweenness": 1e-12,
    "degree": 1e-12,
    "pagerank": 1e-9,
    "eigenvector": 1e-9,
}


class GateError(Exception):
    """An output broke a promise the benchmark relies on."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_digest(path: Path, expected: str) -> None:
    actual = sha256(path)
    require(actual == expected, f"{path.name}: sha256 {actual} differs from the pinned {expected}")


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def check_hotspots(path: Path, k: int, expected_sha: str) -> list[int]:
    """Exactly ``k`` members, and the file is byte-identical to the pinned one."""
    members = [int(row["cell_id"]) for row in _rows(path)]
    require(len(members) == k, f"{path}: {len(members)} hotspots, expected {k}")
    check_digest(path, expected_sha)
    return members


def check_centrality(out_dir: Path, members: list[int]) -> dict[str, str]:
    """Check one ``centrality`` output directory and return its metric statuses."""
    status = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["status"]
    require(sorted(status) == sorted(METRICS), f"{out_dir}: statuses {sorted(status)}")
    scores: dict[str, dict[int, float]] = {}
    for row in _rows(out_dir / "centrality.csv"):
        scores.setdefault(row["metric"], {})[int(row["cell_id"])] = float(row["score"])
    member_set = set(members)
    for metric, state in status.items():
        if state != "ok":
            require(state.startswith("error: "), f"{out_dir}: {metric} status {state!r}")
            require(metric not in scores, f"{out_dir}: failed {metric} still has scores")
            continue
        require(
            set(scores.get(metric, ())) == member_set,
            f"{out_dir}: {metric} does not score exactly the hotspot cells",
        )
    if status["pagerank"] == "ok":
        total = math.fsum(scores["pagerank"].values())
        require(abs(total - 1.0) <= NORM_TOL, f"{out_dir}: PageRank sums to {total!r}")
    if status["eigenvector"] == "ok":
        norm = math.sqrt(math.fsum(v * v for v in scores["eigenvector"].values()))
        require(abs(norm - 1.0) <= NORM_TOL, f"{out_dir}: eigenvector norm {norm!r}")

    ranked: dict[str, list[tuple[int, int, float]]] = {}
    for row in _rows(out_dir / "rankings.csv"):
        ranked.setdefault(row["metric"], []).append(
            (int(row["rank"]), int(row["cell_id"]), float(row["score"]))
        )
    require(sorted(ranked) == sorted(scores), f"{out_dir}: rankings cover {sorted(ranked)}")
    for metric, rows in ranked.items():
        require(
            [rank for rank, _, _ in rows] == list(range(1, len(rows) + 1)),
            f"{out_dir}: {metric} ranks are not 1..{len(rows)} in order",
        )
        keys = [(-score, cell) for _, cell, score in rows]
        require(keys == sorted(keys), f"{out_dir}: {metric} ranking is not sorted by (-score, cell_id)")
        require(
            {cell: score for _, cell, score in rows} == scores[metric],
            f"{out_dir}: {metric} ranking scores differ from centrality.csv",
        )
    return status


def check_compare(out_dir: Path) -> dict[str, str]:
    """Every metric has a status; each ``ok`` one wrote a readable report."""
    status = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["status"]
    require(sorted(status) == sorted(METRICS), f"{out_dir}: statuses {sorted(status)}")
    for metric, state in status.items():
        if state == "ok":
            report = json.loads((out_dir / f"{metric}_comparison.json").read_text(encoding="utf-8"))
            require(report["metric"] == metric, f"{out_dir}: {metric} report names {report['metric']}")
        else:
            require(state.startswith("error: "), f"{out_dir}: {metric} status {state!r}")
    return status


def check_heatmap(path: Path, members: list[int], n_cells: int) -> None:
    """One feature per grid cell, and exactly the hotspot cells flagged."""
    features = json.loads(path.read_text(encoding="utf-8"))["features"]
    require(len(features) == n_cells, f"{path}: {len(features)} features, expected {n_cells}")
    flagged = sorted(f["properties"]["cell_id"] for f in features if f["properties"]["is_hotspot"])
    require(flagged == sorted(members), f"{path}: flagged cells differ from hotspots.csv")


def epoch_ms(day: str) -> int:
    return int(datetime.fromisoformat(day).replace(tzinfo=timezone.utc).timestamp() * 1000)


def check_networkx(
    interactions: Path, week: tuple[str, str], members: list[int], centrality_dir: Path
) -> dict[str, float] | str:
    """Compare one week's ``ok`` scores with networkx on an independently built graph.

    Returns the largest relative error per metric, or a note when networkx
    is not installed.  The graph is rebuilt here from the interaction file
    (in-window strengths summed per ordered pair, restricted to hotspot
    cells, self-pairs dropped), without gridhot's ingest or graph code.
    """
    try:
        import networkx as nx
    except ImportError:
        return "networkx is not installed; cross-check skipped"

    start, end = epoch_ms(week[0]), epoch_ms(week[1])
    member_set = set(members)
    parts: dict[tuple[int, int], list[float]] = {}
    with open(interactions, encoding="utf-8") as handle:
        for line in handle:
            src, dst, stamp, strength = line.rstrip("\n").split("\t")[:4]
            u, v = int(src), int(dst)
            if u != v and u in member_set and v in member_set and start <= int(stamp) < end:
                parts.setdefault((u, v), []).append(float(strength))
    directed = {pair: math.fsum(values) for pair, values in sorted(parts.items())}
    directed = {pair: weight for pair, weight in directed.items() if weight > 0}

    undirected: dict[tuple[int, int], float] = {}
    for (u, v), weight in directed.items():
        key = (min(u, v), max(u, v))
        undirected[key] = undirected.get(key, 0.0) + weight
    G = nx.Graph()
    G.add_nodes_from(members)
    G.add_weighted_edges_from((u, v, w) for (u, v), w in undirected.items())
    D = nx.DiGraph()
    D.add_nodes_from(members)
    D.add_weighted_edges_from((u, v, w) for (u, v), w in directed.items())

    reference = {
        "closeness": {
            v: 1.0 / math.fsum(d for t, d in nx.single_source_dijkstra_path_length(G, v).items() if t != v)
            for v in G
        },
        "betweenness": nx.betweenness_centrality(G, weight="weight", normalized=False),
        "degree": dict(G.degree(weight="weight")),
        "pagerank": nx.pagerank(D, alpha=0.85, weight="weight", tol=1e-14, max_iter=10_000),
        "eigenvector": nx.eigenvector_centrality(G, weight="weight", tol=1e-14, max_iter=10_000),
    }
    ours: dict[str, dict[int, float]] = {}
    for row in _rows(centrality_dir / "centrality.csv"):
        ours.setdefault(row["metric"], {})[int(row["cell_id"])] = float(row["score"])
    errors = {}
    for metric, expected in reference.items():
        if metric not in ours:
            continue
        scale = max(abs(value) for value in expected.values())
        worst = max(abs(ours[metric][v] - expected[v]) for v in expected) / scale
        require(
            worst <= NETWORKX_TOL[metric],
            f"{centrality_dir}: {metric} differs from networkx by {worst:.3e} relative",
        )
        errors[metric] = worst
    return errors
