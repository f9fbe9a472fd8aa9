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
from itertools import repeat
from operator import add, itemgetter, mul, sub, truediv
from typing import Iterable, Sequence

from .errors import ConvergenceError, DomainError, GridhotError
from .graph import WeightedGraph, symmetrize
from .workers import Workers
from .workers import worker_count as _worker_count

METRICS = ("closeness", "betweenness", "degree", "pagerank", "eigenvector")

PAGERANK_VARIANTS = ("weighted", "literal")

# two path lengths within this relative tolerance count as equal
PATH_TIE_REL_TOL = 1e-9

INF = math.inf

# Smaller graphs run the shortest-path pass in this process: below this many
# nodes, forking and reading the children's records cost more than the
# other cores save.
PARALLEL_MIN_NODES = 64


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
            # far above dist[v]: neither a tie at PATH_TIE_REL_TOL nor shorter
            if candidate > dist[v] * 1.000001:
                continue
            if isclose(candidate, dist[v], rel_tol=PATH_TIE_REL_TOL):
                sigma[v] += sigma_u
                preds[v].append(u)
            elif candidate < dist[v]:
                dist[v] = candidate
                sigma[v] = sigma_u
                preds[v] = [u]
                heappush(heap, (candidate, v))
    return dist, sigma, preds, order


def _source_terms(
    adj: list[list[tuple[int, float]]], s: int, closeness: bool, betweenness: bool
) -> tuple[float | None, bool | None, list[float] | None]:
    """One source's share of the path metrics, from one :func:`_source_pass`.

    Returns the closeness of ``s``, whether some node is unreachable from
    it, and the Brandes dependency of every node on ``s`` with the entry of
    ``s`` itself 0.0; parts that were not asked for are None.  Raises
    ``OverflowError`` when a path length or the closeness sum passes the
    largest float.
    """
    dist, sigma, preds, order = _source_pass(adj, s)
    # a node reached only by lengths that overflowed keeps dist inf, has
    # predecessors and is never settled
    if len(order) < len(adj) and any(preds[v] for v, d in enumerate(dist) if d == INF):
        raise OverflowError("a path length passes the largest float")
    close = partial = delta = None
    if closeness:
        reachable = [d for v, d in enumerate(dist) if v != s and d < INF]
        partial = len(reachable) < len(adj) - 1
        close = 0.0 if not reachable else 1.0 / math.fsum(reachable)
    if betweenness:
        delta = [0.0] * len(adj)
        for w in reversed(order):
            sigma_w = sigma[w]
            carried = 1.0 + delta[w]
            for v in preds[w]:
                delta[v] += sigma[v] / sigma_w * carried
        # a source is no interior vertex of its own paths
        delta[s] = 0.0
    return close, partial, delta


def _source_record(adj, s: int, closeness: bool, betweenness: bool):
    """:func:`_source_terms`, or None where it overflows."""
    try:
        return _source_terms(adj, s, closeness, betweenness)
    except OverflowError:
        return None


class _PathPass:
    """Closeness and/or betweenness from one shortest-path pass per source.

    With at least ``PARALLEL_MIN_NODES`` nodes and two or more CPUs, the
    sources are split over forked :class:`Workers`, one per CPU: worker k
    runs the sources ``s ≡ k (mod W)`` and sends one record per source,
    while the caller is free to compute other metrics.  :meth:`results`
    reads the records in source order and folds them as the in-process loop
    does, so scores are bitwise the same for any W, and at most a pipe
    buffer of records per worker is held at once.  Use it as a context
    manager: leaving the block reaps every worker.
    """

    def __init__(self, g: WeightedGraph, metrics: Sequence[str]):
        self._g = g
        self._closeness = "closeness" in metrics
        self._betweenness = "betweenness" in metrics
        self._workers = None
        workers = _worker_count() if metrics and g.n >= PARALLEL_MIN_NODES else 1
        if workers > 1:
            # a record of dependencies is about 9 bytes per node
            per_child = -(-g.n // workers) * (9 * g.n + 64)
            # built for the children only: this process drops it once they run
            adj = _indexed_adjacency(g)

            def send_terms(k, send):
                for s in range(k, g.n, workers):
                    send(_source_record(adj, s, self._closeness, self._betweenness))

            self._workers = Workers("shortest-path", workers, send_terms, pipe_bytes=per_child)

    def __enter__(self) -> _PathPass:
        return self

    def __exit__(self, *exc_info) -> None:
        if self._workers is not None:
            self._workers.close()

    def _received(self):
        """The workers' records in source order."""
        workers = self._workers
        for s in range(self._g.n):
            yield workers.receive(
                s % workers.count, f"sending the paths from node {self._g.nodes[s]}"
            )

    def results(self) -> dict[str, CentralityScores]:
        g = self._g
        if self._workers is not None:
            records = self._received()
        else:
            adj = _indexed_adjacency(g)
            records = (
                _source_record(adj, s, self._closeness, self._betweenness) for s in range(g.n)
            )
        close = [0.0] * g.n
        between = [0.0] * g.n
        on_component = False
        for s, record in enumerate(records):
            if record is None:
                raise DomainError(
                    f"the path lengths from node {g.nodes[s]} or their sum pass the largest float"
                )
            close_s, partial, delta = record
            if self._closeness:
                close[s] = close_s
                on_component = on_component or partial
            if self._betweenness:
                # x + 0.0 == x: the zero entries of s and of the nodes it does
                # not reach leave each sum as the serial accumulation has it
                between = list(map(add, between, delta))
        results = {}
        if self._closeness:
            results["closeness"] = CentralityScores(
                metric="closeness",
                scores=dict(zip(g.nodes, close)),
                params={"on_component": on_component, "tie_rel_tol": PATH_TIE_REL_TOL},
            )
        if self._betweenness:
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
    with _PathPass(g, ("closeness",)) as paths:
        return paths.results()["closeness"]


def betweenness(g: WeightedGraph) -> CentralityScores:
    """Sum over node pairs of the fraction of shortest paths through a node.

    Each unordered pair {s, t} counts once and only interior vertices score;
    unreachable pairs contribute nothing.  Uses stack-based dependency
    accumulation over the shortest-path DAG of every source (Brandes 2001).
    """
    _require_path_metric(g, "betweenness")
    with _PathPass(g, ("betweenness",)) as paths:
        return paths.results()["betweenness"]


def degree(g: WeightedGraph) -> CentralityScores:
    """Weighted degree: the sum of incident edge weights (node strength)."""
    _require_undirected(g, "degree")
    adj = g.adjacency()
    scores = {}
    for v in g.nodes:
        try:
            scores[v] = math.fsum([weight for _, weight in adj[v]])
        except OverflowError:
            raise DomainError(
                f"the edge weights of node {v} sum past the largest float"
            ) from None
    return CentralityScores(metric="degree", scores=scores, params={})


def _pagerank_structure(g: WeightedGraph, variant: str):
    """Per node index, the indices of its in-neighbours and the share of their
    mass each sends, in ascending source order; and the dangling indices."""
    index = {v: i for i, v in enumerate(g.nodes)}
    out_weight = [0.0] * g.n
    out_count = [0] * g.n
    for (u, _), weight in g.edges.items():
        out_weight[index[u]] += weight
        out_count[index[u]] += 1
    sources: list[list[int]] = [[] for _ in g.nodes]
    shares: list[list[float]] = [[] for _ in g.nodes]
    for (u, v), weight in sorted(g.edges.items()):
        i = index[u]
        sources[index[v]].append(i)
        shares[index[v]].append(
            weight / out_weight[i] if variant == "weighted" else 1.0 / out_count[i]
        )
    dangling = [i for i, count in enumerate(out_count) if count == 0]
    return list(zip(sources, shares)), dangling


def _pagerank_lists(g: WeightedGraph, damping: float, variant: str):
    """Successive PageRank iterates as lists over node indices."""
    if not 0.0 < damping < 1.0:
        raise DomainError(f"damping must lie strictly in (0, 1), got {damping}")
    if variant not in PAGERANK_VARIANTS:
        raise DomainError(f"pagerank variant must be one of {PAGERANK_VARIANTS}, got {variant!r}")
    n = g.n
    if n == 0:
        raise DomainError("pagerank needs a nonempty graph")
    in_shares, dangling = _pagerank_structure(g, variant)
    ranks = [1.0 / n] * n
    while True:
        rank_of = ranks.__getitem__
        dangling_mass = math.fsum(map(rank_of, dangling))
        base = (1.0 - damping) / n + damping * dangling_mass / n
        ranks = [
            base + damping * math.fsum(map(mul, map(rank_of, sources), shares))
            for sources, shares in in_shares
        ]
        yield ranks


def pagerank_iterates(
    g: WeightedGraph, damping: float = 0.85, variant: str = "weighted"
) -> Iterable[dict[int, float]]:
    """Yield successive score maps of the damped random-walk update.

    Every iterate sums to 1: teleportation contributes ``(1 - damping) / n``
    per node and dangling nodes spread their mass uniformly.
    """
    for ranks in _pagerank_lists(g, damping, variant):
        yield dict(zip(g.nodes, ranks))


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
    previous = [1.0 / g.n] * g.n if g.n else []
    iterations = 0
    residual = INF
    for ranks in _pagerank_lists(g, damping, variant):
        iterations += 1
        residual = math.fsum(map(abs, map(sub, ranks, previous)))
        previous = ranks
        if residual <= tol:
            return CentralityScores(
                metric="pagerank",
                scores=dict(zip(g.nodes, ranks)),
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
    if g.components > 1:
        raise DomainError(
            f"eigenvector centrality needs a connected graph; got {g.components} components"
        )
    adj = [
        (list(map(itemgetter(0), edges)), list(map(itemgetter(1), edges)))
        for edges in _indexed_adjacency(g)
    ]

    def times_adjacency(x: list[float]) -> list[float]:
        at = x.__getitem__
        return [math.fsum(map(mul, weights, map(at, nbrs))) for nbrs, weights in adj]

    x = [1.0 / math.sqrt(g.n)] * g.n
    iterations = 0
    delta = INF
    while iterations < max_iter:
        iterations += 1
        y = list(map(add, x, times_adjacency(x)))
        norm = math.sqrt(math.fsum(map(mul, y, y)))
        new_x = list(map(truediv, y, repeat(norm)))
        # ** 2, not d * d: libm's pow and a product differ by an ulp on some values
        delta = math.sqrt(math.fsum(map(pow, map(sub, new_x, x), repeat(2))))
        x = new_x
        if delta <= tol:
            lam = math.fsum(map(mul, x, times_adjacency(x)))
            return CentralityScores(
                metric="eigenvector",
                scores=dict(zip(g.nodes, x)),
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
    *,
    undirected: WeightedGraph | None = None,
) -> tuple[dict[str, CentralityScores], dict[str, GridhotError]]:
    """Compute the requested metrics, symmetrizing internally where needed.

    Returns ``(results, failures)``: metrics whose preconditions fail (for
    example betweenness on a 2-node graph) or whose sums pass the largest
    float land in ``failures`` keyed by metric name while the rest still
    succeed.  ``undirected`` is ``g``
    symmetrized, for a caller that already holds it.  The shortest-path pass
    of closeness and betweenness runs while degree, PageRank and eigenvector
    are computed, on every CPU for graphs of ``PARALLEL_MIN_NODES`` or more.
    """
    params = params or CentralityParams()
    requested = tuple(metrics) if metrics is not None else METRICS
    for name in requested:
        if name not in METRICS:
            raise DomainError(f"unknown metric {name!r}; expected one of {METRICS}")
    if undirected is None:
        undirected = symmetrize(g) if g.directed else g
    results: dict[str, CentralityScores] = {}
    failures: dict[str, GridhotError] = {}
    path_metrics = []
    for name in _PATH_MIN_NODES:
        if name in requested:
            try:
                _require_path_metric(undirected, name)
                path_metrics.append(name)
            except DomainError as exc:
                failures[name] = exc
    with _PathPass(undirected, path_metrics) as paths:
        for name in ("degree", "pagerank", "eigenvector"):
            if name not in requested:
                continue
            try:
                if name == "degree":
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
            except ArithmeticError as exc:
                # weights near the largest float overflow the solver's sums
                failures[name] = DomainError(f"{name} left the float range ({exc})")
        if path_metrics:
            try:
                results.update(paths.results())
            except DomainError as exc:
                failures.update(dict.fromkeys(path_metrics, exc))
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

