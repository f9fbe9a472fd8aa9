"""Five node-importance metrics over weighted interaction graphs.

Closeness and betweenness read edge weight as path length, so they reward
nodes reachable through light edges; degree, PageRank and eigenvector read
weight as volume, rewarding heavy edges.  Closeness, betweenness, degree
and eigenvector operate on the symmetrized graph, PageRank on the directed
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .errors import ConvergenceError, DomainError, GridhotError
from .graph import WeightedGraph, symmetrize

METRICS = ("closeness", "betweenness", "degree", "pagerank", "eigenvector")

PAGERANK_VARIANTS = ("weighted", "literal")

# two path lengths within this relative tolerance count as equal
PATH_TIE_REL_TOL = 1e-9

INF = math.inf


@dataclass(frozen=True)
class CentralityParams:
    """Solver settings shared by the iterative metrics."""

    damping: float = 0.85
    tol: float = 1e-12
    max_iter: int = 10_000
    pagerank_variant: str = "weighted"


@dataclass(frozen=True)
class CentralityScores:
    """Per-node scores for one metric, plus the parameters that produced them."""

    metric: str
    scores: dict[int, float]
    params: dict = field(default_factory=dict)


def _require_undirected(g: WeightedGraph, metric: str) -> None:
    if g.directed:
        raise DomainError(f"{metric} needs an undirected graph; symmetrize first")


# smallest graph each path metric is defined on
_PATH_MIN_NODES = {"closeness": 2, "betweenness": 3}


def _require_path_metric(g: WeightedGraph, metric: str) -> None:
    _require_undirected(g, metric)
    minimum = _PATH_MIN_NODES[metric]
    if g.n < minimum:
        raise DomainError(f"{metric} needs at least {minimum} nodes")


def _indexed_adjacency(g: WeightedGraph) -> list[list[tuple[int, float]]]:
    """Adjacency over node indices; index i is the i-th smallest node id."""
    index = {v: i for i, v in enumerate(g.nodes)}
    adj = g.adjacency()
    return [[(index[v], weight) for v, weight in adj[u]] for u in g.nodes]


def _source_pass(
    adj: list[list[tuple[int, float]]], source: int
) -> tuple[list[float], list[int], list[list[int]], list[int]]:
    """Dijkstra with shortest-path counting from one source index.

    Returns (dist, sigma, predecessors, settle order), indexed like ``adj``.
    Lengths within ``PATH_TIE_REL_TOL`` relative tolerance are treated as
    equal; heap ties fall to the smaller index, i.e. the smaller node id.
    """
    n = len(adj)
    dist = [INF] * n
    sigma = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    settled = [False] * n
    dist[source] = 0.0
    sigma[source] = 1
    order: list[int] = []
    heap: list[tuple[float, int]] = [(0.0, source)]
    isclose = math.isclose
    while heap:
        d, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        order.append(u)
        sigma_u = sigma[u]
        for v, weight in adj[u]:
            if settled[v]:
                continue
            candidate = d + weight
            if isclose(candidate, dist[v], rel_tol=PATH_TIE_REL_TOL):
                sigma[v] += sigma_u
                preds[v].append(u)
            elif candidate < dist[v]:
                dist[v] = candidate
                sigma[v] = sigma_u
                preds[v] = [u]
                heappush(heap, (candidate, v))
    return dist, sigma, preds, order


def _path_metrics(g: WeightedGraph, metrics: Sequence[str]) -> dict[str, CentralityScores]:
    """Closeness and/or betweenness from one shortest-path pass per source.

    Closeness sums each source's reachable distances; betweenness
    accumulates Brandes dependencies over the same shortest-path DAG.
    Preconditions are the caller's to check.
    """
    adj = _indexed_adjacency(g)
    n = g.n
    close = [0.0] * n
    between = [0.0] * n
    on_component = False
    for s in range(n):
        dist, sigma, preds, order = _source_pass(adj, s)
        if "closeness" in metrics:
            reachable = [d for v, d in enumerate(dist) if v != s and d < INF]
            if len(reachable) < n - 1:
                on_component = True
            close[s] = 0.0 if not reachable else 1.0 / math.fsum(reachable)
        if "betweenness" in metrics:
            delta = [0.0] * n
            for w in reversed(order):
                sigma_w = sigma[w]
                carried = 1.0 + delta[w]
                for v in preds[w]:
                    delta[v] += sigma[v] / sigma_w * carried
                if w != s:
                    between[w] += delta[w]
    results = {}
    if "closeness" in metrics:
        results["closeness"] = CentralityScores(
            metric="closeness",
            scores=dict(zip(g.nodes, close)),
            params={"on_component": on_component, "tie_rel_tol": PATH_TIE_REL_TOL},
        )
    if "betweenness" in metrics:
        # each unordered pair was accumulated from both endpoints
        results["betweenness"] = CentralityScores(
            metric="betweenness",
            scores={v: value / 2.0 for v, value in zip(g.nodes, between)},
            params={"tie_rel_tol": PATH_TIE_REL_TOL},
        )
    return results


def closeness(g: WeightedGraph) -> CentralityScores:
    """Reciprocal of the summed shortest-path distances to all other nodes.

    On a disconnected graph each node's sum runs over its reachable set and
    the result is flagged ``on_component``; a node reaching nothing scores 0.
    """
    _require_path_metric(g, "closeness")
    return _path_metrics(g, ("closeness",))["closeness"]


def betweenness(g: WeightedGraph) -> CentralityScores:
    """Sum over node pairs of the fraction of shortest paths through a node.

    Each unordered pair {s, t} counts once and only interior vertices score;
    unreachable pairs contribute nothing.  Uses stack-based dependency
    accumulation over the shortest-path DAG of every source (Brandes 2001).
    """
    _require_path_metric(g, "betweenness")
    return _path_metrics(g, ("betweenness",))["betweenness"]


def degree(g: WeightedGraph) -> CentralityScores:
    """Weighted degree: the sum of incident edge weights (node strength)."""
    _require_undirected(g, "degree")
    adj = g.adjacency()
    scores = {v: math.fsum(weight for _, weight in adj[v]) for v in g.nodes}
    return CentralityScores(metric="degree", scores=scores, params={})


def _pagerank_structure(g: WeightedGraph, variant: str):
    out_weight = {u: 0.0 for u in g.nodes}
    out_count = {u: 0 for u in g.nodes}
    for (u, _), weight in g.edges.items():
        out_weight[u] += weight
        out_count[u] += 1
    in_shares: dict[int, list[tuple[int, float]]] = {u: [] for u in g.nodes}
    for (u, v), weight in sorted(g.edges.items()):
        share = weight / out_weight[u] if variant == "weighted" else 1.0 / out_count[u]
        in_shares[v].append((u, share))
    dangling = tuple(u for u in g.nodes if out_count[u] == 0)
    return in_shares, dangling


def pagerank_iterates(
    g: WeightedGraph, damping: float = 0.85, variant: str = "weighted"
) -> Iterable[dict[int, float]]:
    """Yield successive score maps of the damped random-walk update.

    Every iterate sums to 1: teleportation contributes ``(1 - damping) / n``
    per node and dangling nodes spread their mass uniformly.
    """
    if not 0.0 < damping < 1.0:
        raise DomainError(f"damping must lie strictly in (0, 1), got {damping}")
    if variant not in PAGERANK_VARIANTS:
        raise DomainError(f"pagerank variant must be one of {PAGERANK_VARIANTS}, got {variant!r}")
    n = g.n
    if n == 0:
        raise DomainError("pagerank needs a nonempty graph")
    in_shares, dangling = _pagerank_structure(g, variant)
    ranks = {u: 1.0 / n for u in g.nodes}
    while True:
        dangling_mass = math.fsum(ranks[u] for u in dangling)
        base = (1.0 - damping) / n + damping * dangling_mass / n
        ranks = {
            x: base + damping * math.fsum(ranks[y] * share for y, share in in_shares[x])
            for x in g.nodes
        }
        yield ranks


def pagerank(
    g: WeightedGraph,
    damping: float = 0.85,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    variant: str = "weighted",
) -> CentralityScores:
    """Damped random-walk scores with teleportation, normalized to sum 1.

    The ``weighted`` variant spreads a node's mass over its successors in
    proportion to outgoing edge weight; the ``literal`` variant splits it
    evenly across out-neighbours.  Stops when the L1 change drops to ``tol``;
    raises :class:`ConvergenceError` after ``max_iter`` iterations.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    previous = {u: 1.0 / g.n for u in g.nodes} if g.n else {}
    iterations = 0
    residual = INF
    for ranks in pagerank_iterates(g, damping=damping, variant=variant):
        iterations += 1
        residual = math.fsum(abs(ranks[u] - previous[u]) for u in g.nodes)
        previous = ranks
        if residual <= tol:
            return CentralityScores(
                metric="pagerank",
                scores=ranks,
                params={
                    "damping": damping,
                    "tol": tol,
                    "max_iter": max_iter,
                    "variant": variant,
                    "iterations": iterations,
                },
            )
        if iterations >= max_iter:
            break
    raise ConvergenceError(
        f"pagerank did not converge within {max_iter} iterations (residual {residual:.3e})",
        residual=residual,
        iterations=iterations,
    )


def eigenvector(
    g: WeightedGraph, tol: float = 1e-12, max_iter: int = 10_000
) -> CentralityScores:
    """Principal eigenvector of the weighted adjacency matrix (norm 1).

    Power iteration from the uniform vector on the unit-shifted matrix
    ``A + I``: the shift keeps the principal eigenvector while making it
    strictly dominant, so near-bipartite graphs do not oscillate.  The
    reported ``lambda`` is the Rayleigh quotient of ``A`` at the result.
    """
    _require_undirected(g, "eigenvector")
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    if g.n == 0:
        raise DomainError("eigenvector needs a nonempty graph")
    # the settle order of a shortest-path pass is its source's component
    indexed = _indexed_adjacency(g)
    reached: set[int] = set()
    components = 0
    for root in range(g.n):
        if root not in reached:
            components += 1
            reached.update(_source_pass(indexed, root)[3])
    if components > 1:
        raise DomainError(
            f"eigenvector centrality needs a connected graph; got {components} components"
        )
    adj = g.adjacency()
    x = {u: 1.0 / math.sqrt(g.n) for u in g.nodes}
    iterations = 0
    delta = INF
    while iterations < max_iter:
        iterations += 1
        y = {u: x[u] + math.fsum(weight * x[v] for v, weight in adj[u]) for u in g.nodes}
        norm = math.sqrt(math.fsum(value * value for value in y.values()))
        new_x = {u: y[u] / norm for u in g.nodes}
        delta = math.sqrt(math.fsum((new_x[u] - x[u]) ** 2 for u in g.nodes))
        x = new_x
        if delta <= tol:
            ax = {u: math.fsum(weight * x[v] for v, weight in adj[u]) for u in g.nodes}
            lam = math.fsum(x[u] * ax[u] for u in g.nodes)
            return CentralityScores(
                metric="eigenvector",
                scores=x,
                params={"lambda": lam, "tol": tol, "max_iter": max_iter, "iterations": iterations},
            )
    raise ConvergenceError(
        f"eigenvector iteration did not converge within {max_iter} iterations (delta {delta:.3e})",
        residual=delta,
        iterations=iterations,
    )


def compute_all(
    g: WeightedGraph,
    params: CentralityParams | None = None,
    metrics: Sequence[str] | None = None,
) -> tuple[dict[str, CentralityScores], dict[str, GridhotError]]:
    """Compute the requested metrics, symmetrizing internally where needed.

    Returns ``(results, failures)``: metrics whose preconditions fail (for
    example betweenness on a 2-node graph) land in ``failures`` keyed by
    metric name while the rest still succeed.
    """
    params = params or CentralityParams()
    requested = tuple(metrics) if metrics is not None else METRICS
    for name in requested:
        if name not in METRICS:
            raise DomainError(f"unknown metric {name!r}; expected one of {METRICS}")
    undirected = symmetrize(g) if g.directed else g
    results: dict[str, CentralityScores] = {}
    failures: dict[str, GridhotError] = {}
    path_metrics = []
    for name in METRICS:
        if name not in requested:
            continue
        try:
            if name in _PATH_MIN_NODES:
                # closeness and betweenness share the shortest-path pass below
                _require_path_metric(undirected, name)
                path_metrics.append(name)
            elif name == "degree":
                results[name] = degree(undirected)
            elif name == "pagerank":
                results[name] = pagerank(
                    g,
                    damping=params.damping,
                    tol=params.tol,
                    max_iter=params.max_iter,
                    variant=params.pagerank_variant,
                )
            else:
                results[name] = eigenvector(
                    undirected, tol=params.tol, max_iter=params.max_iter
                )
        except (DomainError, ConvergenceError) as exc:
            failures[name] = exc
    if path_metrics:
        results.update(_path_metrics(undirected, path_metrics))
    return results, failures


def rank(scores: CentralityScores) -> list[tuple[int, float]]:
    """Order nodes by descending score, ties broken by ascending cell id."""
    return sorted(scores.scores.items(), key=lambda item: (-item[1], item[0]))


def scores_csv_rows(all_scores: Iterable[CentralityScores]) -> list[tuple[int, str, float]]:
    """Flatten score maps into (cell_id, metric, score) rows."""
    rows = []
    for result in all_scores:
        for cell in sorted(result.scores):
            rows.append((cell, result.metric, result.scores[cell]))
    return rows

