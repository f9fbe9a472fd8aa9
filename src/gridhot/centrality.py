"""Five node-importance metrics over weighted interaction graphs.

Closeness and betweenness read edge weight as path length, so they reward
nodes reachable through light edges; degree, PageRank and eigenvector read
weight as volume, rewarding heavy edges.  Closeness, betweenness, degree
and eigenvector operate on the symmetrized graph, PageRank on the directed
one.
"""

from __future__ import annotations

import math
from functools import reduce
from heapq import heappop, heappush
from itertools import repeat
from operator import add, itemgetter, mul, sub, truediv
from typing import NamedTuple, Sequence

from . import METRICS, PAGERANK_VARIANTS
from .errors import ConvergenceError, DomainError, GridhotError
from .graph import WeightedGraph, symmetrize
from .workers import Workers
from .workers import worker_count as _worker_count

# two path lengths within this relative tolerance count as equal
PATH_TIE_REL_TOL = 1e-9

INF = math.inf

# Smaller graphs run the shortest-path pass in this process: below this many
# nodes, forking and reading the children's records cost more than the
# other cores save.
PARALLEL_MIN_NODES = 64


class CentralityParams(NamedTuple):
    """Solver settings shared by the iterative metrics."""

    damping: float = 0.85
    tol: float = 1e-12
    max_iter: int = 10_000
    pagerank_variant: str = "weighted"


class _CentralityScores(NamedTuple):
    metric: str
    scores: dict[int, float]
    params: dict


class CentralityScores(_CentralityScores):
    """Per-node scores for one metric, plus the parameters that produced them."""

    __slots__ = ()

    def __new__(cls, metric: str, scores: dict[int, float], params: dict | None = None):
        # a new dict for each result made without params, never one shared default
        return super().__new__(cls, metric, scores, {} if params is None else params)


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


def _gather(indices: list[int]):
    """One C call that takes ``x[i]`` for every i in ``indices``, in order."""
    if len(indices) > 1:
        return itemgetter(*indices)
    # itemgetter of one index gives the bare item; a slice keeps a sequence
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


def _source_pass(
    adj: list[list[tuple[int, float]]], source: int
) -> tuple[list[float], list[int], list[list[int]], list[int]]:
    """Dijkstra with shortest-path counting from one source index.

    ``adj`` holds, per node index, ``(neighbour index, weight)`` pairs in
    ascending neighbour order, as in ``WeightedGraph.path_adjacency``.
    Returns (dist, sigma, predecessors, settle order), indexed like ``adj``.
    Lengths within ``PATH_TIE_REL_TOL`` relative tolerance are treated as
    equal; heap ties fall to the smaller index, i.e. the smaller node id.
    """
    n = len(adj)
    dist = [INF] * n
    # dist[v] * 1.000001 while v is unsettled, -1.0 once it is settled: a
    # candidate above it is neither a tie at PATH_TIE_REL_TOL nor shorter
    limit = [INF] * n
    sigma = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    dist[source] = 0.0
    sigma[source] = 1
    order: list[int] = []
    heap: list[tuple[float, int]] = [(0.0, source)]
    isclose = math.isclose
    while heap:
        d, u = heappop(heap)
        if limit[u] < 0.0:
            continue
        limit[u] = -1.0
        order.append(u)
        sigma_u = sigma[u]
        for v, weight in adj[u]:
            candidate = d + weight
            if candidate > limit[v]:
                continue
            if isclose(candidate, dist[v], rel_tol=PATH_TIE_REL_TOL):
                sigma[v] += sigma_u
                preds[v].append(u)
            elif candidate < dist[v]:
                dist[v] = candidate
                limit[v] = candidate * 1.000001
                sigma[v] = sigma_u
                preds[v] = [u]
                heappush(heap, (candidate, v))
    return dist, sigma, preds, order


def _source_terms(
    adj: list[list[tuple[int, float]]], s: int, closeness: bool, betweenness: bool
) -> tuple[float | None, bool | None, list[float] | None] | None:
    """One source's share of the path metrics, from one :func:`_source_pass`.

    Returns the closeness of ``s``, whether some node is unreachable from
    it, and the Brandes dependency of every node on ``s`` with the entry of
    ``s`` itself 0.0; parts that were not asked for are None.  Returns None
    instead when a path length or the closeness sum passes the largest
    float.
    """
    dist, sigma, preds, order = _source_pass(adj, s)
    # a node reached only by lengths that overflowed keeps dist inf, has
    # predecessors and is never settled
    if len(order) < len(adj) and any(preds[v] for v, d in enumerate(dist) if d == INF):
        return None
    close = partial = delta = None
    if closeness:
        reachable = [d for v, d in enumerate(dist) if v != s and d < INF]
        partial = len(reachable) < len(adj) - 1
        try:
            close = 0.0 if not reachable else 1.0 / math.fsum(reachable)
        except OverflowError:
            return None
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


class _PathPass:
    """Closeness and/or betweenness from one shortest-path pass per source.

    The pass runs on the graph's ``path_adjacency``, which leaves out edges
    that a two-edge detour beats by at least ``DETOUR_REL_MARGIN`` (1e-6) of
    any path length through them.  Its distances, path counts, predecessor
    lists and settle orders, and so every score bit, are those of the full
    adjacency: a candidate length through a left-out edge exceeds its
    target's final distance by at least about 1e-6, relative, a thousand
    times the ``PATH_TIE_REL_TOL`` tie band.  Such a candidate can only make
    an interim leader or tie, which the final distance replaces, and no
    leader or tie near the final distance ever meets it.

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
            # built before the fork, so that every child shares this one copy
            adj = g.path_adjacency

            def send_terms(k, send):
                for s in range(k, g.n, workers):
                    send(_source_terms(adj, s, self._closeness, self._betweenness))

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
            adj = g.path_adjacency
            records = (
                _source_terms(adj, s, self._closeness, self._betweenness) for s in range(g.n)
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
    scores = {}
    for v, (_, weights) in zip(g.nodes, g.rows):
        try:
            scores[v] = math.fsum(weights)
        except OverflowError:
            raise DomainError(
                f"the edge weights of node {v} sum past the largest float"
            ) from None
    return CentralityScores(metric="degree", scores=scores, params={})


def _check_budget(tol: float, max_iter: int) -> None:
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")


def _iterate(step, change, x, tol: float, max_iter: int, solver: str, measure: str):
    """Apply ``x = step(x)`` until ``change(x, previous) <= tol``; returns the
    last ``x`` and the steps taken.  After ``max_iter`` steps, raises
    :class:`ConvergenceError` naming ``solver`` and the last change as ``measure``.
    """
    for iterations in range(1, max_iter + 1):
        previous, x = x, step(x)
        residual = change(x, previous)
        if residual <= tol:
            return x, iterations
    raise ConvergenceError(
        f"{solver} did not converge within {max_iter} iterations ({measure} {residual:.3e})",
        residual=residual,
        iterations=iterations,
    )


def _pagerank_structure(g: WeightedGraph, variant: str):
    """Per node index, a :func:`_gather` of its in-neighbours' entries and
    the share of their mass each sends, and a :func:`_gather` of the
    dangling entries.

    Each node's out-weights are added one by one in ascending neighbour
    order, so the shares depend only on the graph, not on the order of
    ``g.edges``.  A node whose out-edge weights sum past the largest float
    raises :class:`DomainError` in the ``weighted`` variant, whose shares
    it would make 0.
    """
    rows = g.rows
    sources: list[list[int]] = [[] for _ in rows]
    shares: list[list[float]] = [[] for _ in rows]
    for i, (nbrs, weights) in enumerate(rows):
        total = reduce(add, weights, 0.0)
        if variant == "weighted" and total == INF:
            raise DomainError(
                f"the out-edge weights of node {g.nodes[i]} sum past the largest float"
            )
        for j, weight in zip(nbrs, weights):
            sources[j].append(i)
            shares[j].append(weight / total if variant == "weighted" else 1.0 / len(nbrs))
    dangling = [i for i, (nbrs, _) in enumerate(rows) if not nbrs]
    return list(zip(map(_gather, sources), shares)), _gather(dangling)


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
    evenly across out-neighbours.  Every iterate sums to 1: teleportation
    contributes ``(1 - damping) / n`` per node and dangling nodes spread
    their mass uniformly.  Stops when the L1 change drops to ``tol``;
    raises :class:`ConvergenceError` after ``max_iter`` iterations.
    """
    _check_budget(tol, max_iter)
    if not 0.0 < damping < 1.0:
        raise DomainError(f"damping must lie strictly in (0, 1), got {damping}")
    if variant not in PAGERANK_VARIANTS:
        raise DomainError(f"pagerank variant must be one of {PAGERANK_VARIANTS}, got {variant!r}")
    n = g.n
    if n == 0:
        raise DomainError("pagerank needs a nonempty graph")
    in_shares, dangling = _pagerank_structure(g, variant)

    def step(ranks: list[float]) -> list[float]:
        base = (1.0 - damping) / n + damping * math.fsum(dangling(ranks)) / n
        return [
            base + damping * math.fsum(map(mul, sources(ranks), shares))
            for sources, shares in in_shares
        ]

    ranks, iterations = _iterate(
        step, lambda new, old: math.fsum(map(abs, map(sub, new, old))),
        [1.0 / n] * n, tol, max_iter, "pagerank", "residual",
    )
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
    _check_budget(tol, max_iter)
    if g.n == 0:
        raise DomainError("eigenvector needs a nonempty graph")
    if g.components > 1:
        raise DomainError(
            f"eigenvector centrality needs a connected graph; got {g.components} components"
        )
    adj = [(_gather(nbrs), weights) for nbrs, weights in g.rows]

    def times_adjacency(x: list[float]) -> list[float]:
        return [math.fsum(map(mul, weights, nbrs(x))) for nbrs, weights in adj]

    def step(x: list[float]) -> list[float]:
        y = list(map(add, x, times_adjacency(x)))
        norm = math.sqrt(math.fsum(map(mul, y, y)))
        return list(map(truediv, y, repeat(norm)))

    x, iterations = _iterate(
        step,
        # ** 2, not d * d: libm's pow and a product differ by an ulp on some values
        lambda new, old: math.sqrt(math.fsum(map(pow, map(sub, new, old), repeat(2)))),
        [1.0 / math.sqrt(g.n)] * g.n, tol, max_iter, "eigenvector iteration", "delta",
    )
    lam = math.fsum(map(mul, x, times_adjacency(x)))
    return CentralityScores(
        metric="eigenvector",
        scores=dict(zip(g.nodes, x)),
        params={"lambda": lam, "tol": tol, "max_iter": max_iter, "iterations": iterations},
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
