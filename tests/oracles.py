"""Independent reference implementations used only to check results.

Deliberately different algorithm families from the package: Floyd-Warshall
plus exhaustive path enumeration instead of Dijkstra/dependency
accumulation, a dense linear solve instead of power iteration for
PageRank, a dense eigendecomposition for the eigenvector metric, and
every ordered cell pair scored and sorted instead of the synthetic
generator's pruned pair search.  Two exceptions are kept on purpose: the
one-process path loop, the bitwise reference for the path pass at any
worker count, and frozen copies of the package's own kernels (Dijkstra,
degree, PageRank, eigenvector, the correlations and the dispersion), the
bitwise references for their faster inner loops.
"""

from __future__ import annotations

import math
import random
from heapq import heappop, heappush
from typing import Iterable, Sequence

import numpy as np

from gridhot.centrality import PAGERANK_VARIANTS, CentralityScores, _require_undirected
from gridhot.compare import CorrelationSeries, Dispersion, MetricSeries, _check_aligned
from gridhot.errors import ConvergenceError, DomainError, EmptyInputError
from gridhot.graph import WeightedGraph
from gridhot.ingest import (
    ActivityRecord,
    InteractionRecord,
    format_activity_line,
    format_interaction_line,
)
from gridhot.synth import (
    ACTIVITY_SPLIT,
    TOP_PAIRS_PER_CELL,
    SplitMix64,
    SynthConfig,
    cell_intensities,
)

INF = math.inf
TIE_REL_TOL = 1e-9


def undirected_graph(nodes, weighted_pairs) -> WeightedGraph:
    edges = {}
    for u, v, w in weighted_pairs:
        edges[(u, v)] = w
        edges[(v, u)] = w
    return WeightedGraph(nodes=tuple(sorted(nodes)), edges=edges, directed=False)


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.4,
                           w_lo: float = 0.1, w_hi: float = 10.0) -> WeightedGraph:
    """Random spanning tree plus extra edges, weights uniform in [w_lo, w_hi]."""
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    pairs = []
    for i in range(1, n):
        pairs.append((nodes[i], nodes[rng.randrange(i)], rng.uniform(w_lo, w_hi)))
    present = {(min(u, v), max(u, v)) for u, v, _ in pairs}
    for i in range(n):
        for j in range(i + 1, n):
            key = (min(nodes[i], nodes[j]), max(nodes[i], nodes[j]))
            if key not in present and rng.random() < extra_edge_prob:
                pairs.append((key[0], key[1], rng.uniform(w_lo, w_hi)))
    return undirected_graph(range(1, n + 1), pairs)


def random_directed_graph(rng: random.Random, n: int, edge_prob: float = 0.35,
                          w_lo: float = 0.1, w_hi: float = 10.0) -> WeightedGraph:
    nodes = tuple(range(1, n + 1))
    edges = {}
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < edge_prob:
                edges[(u, v)] = rng.uniform(w_lo, w_hi)
    return WeightedGraph(nodes=nodes, edges=edges, directed=True)


def floyd_warshall(g: WeightedGraph) -> dict[tuple[int, int], float]:
    dist = {(u, v): INF for u in g.nodes for v in g.nodes}
    for u in g.nodes:
        dist[(u, u)] = 0.0
    for (u, v), w in g.edges.items():
        dist[(u, v)] = min(dist[(u, v)], w)
    for k in g.nodes:
        for i in g.nodes:
            for j in g.nodes:
                through = dist[(i, k)] + dist[(k, j)]
                if through < dist[(i, j)]:
                    dist[(i, j)] = through
    return dist


def all_shortest_paths(g: WeightedGraph, s: int, t: int,
                       dist: dict[tuple[int, int], float]) -> list[tuple[int, ...]]:
    """Enumerate every simple path from s to t whose length ties the optimum.

    DFS pruned with the Floyd-Warshall lower bound, so only near-optimal
    branches are explored.
    """
    best = dist[(s, t)]
    if best == INF:
        return []
    slack = best * TIE_REL_TOL
    adj = g.adjacency()
    paths = []

    def walk(node, length, path, visited):
        if node == t:
            if math.isclose(length, best, rel_tol=TIE_REL_TOL):
                paths.append(tuple(path))
            return
        for nxt, w in adj[node]:
            if nxt in visited:
                continue
            extended = length + w
            if extended + dist[(nxt, t)] > best + 2 * slack + 1e-300:
                continue
            visited.add(nxt)
            path.append(nxt)
            walk(nxt, extended, path, visited)
            path.pop()
            visited.remove(nxt)

    walk(s, 0.0, [s], {s})
    return paths


def closeness_oracle(g: WeightedGraph) -> dict[int, float]:
    dist = floyd_warshall(g)
    scores = {}
    for x in g.nodes:
        reachable = [dist[(x, y)] for y in g.nodes if y != x and dist[(x, y)] < INF]
        scores[x] = 0.0 if not reachable else 1.0 / sum(reachable)
    return scores


def betweenness_oracle(g: WeightedGraph) -> dict[int, float]:
    """Interior-vertex fractions summed over unordered pairs, by enumeration."""
    dist = floyd_warshall(g)
    scores = {x: 0.0 for x in g.nodes}
    nodes = list(g.nodes)
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            s, t = nodes[i], nodes[j]
            paths = all_shortest_paths(g, s, t, dist)
            if not paths:
                continue
            sigma = len(paths)
            counts = {x: 0 for x in g.nodes}
            for path in paths:
                for x in path[1:-1]:
                    counts[x] += 1
            for x in g.nodes:
                scores[x] += counts[x] / sigma
    return scores


def sigma_oracle(g: WeightedGraph) -> dict[tuple[int, int], int]:
    dist = floyd_warshall(g)
    sigma = {}
    for s in g.nodes:
        for t in g.nodes:
            if s == t:
                sigma[(s, t)] = 1
            else:
                sigma[(s, t)] = len(all_shortest_paths(g, s, t, dist))
    return sigma


def pagerank_dense(g: WeightedGraph, damping: float = 0.85,
                   variant: str = "weighted") -> dict[int, float]:
    """Exact stationary scores via a dense linear solve."""
    nodes = list(g.nodes)
    n = len(nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    out_weight = {u: 0.0 for u in nodes}
    out_count = {u: 0 for u in nodes}
    for (u, _), w in g.edges.items():
        out_weight[u] += w
        out_count[u] += 1
    P = np.zeros((n, n))
    for (u, v), w in g.edges.items():
        P[idx[u], idx[v]] = w / out_weight[u] if variant == "weighted" else 1.0 / out_count[u]
    for u in nodes:
        if out_count[u] == 0:
            P[idx[u], :] = 1.0 / n
    solution = np.linalg.solve(np.eye(n) - damping * P.T, np.full(n, (1.0 - damping) / n))
    return {u: float(solution[idx[u]]) for u in nodes}


def eigenvector_dense(g: WeightedGraph) -> tuple[dict[int, float], float]:
    """Principal eigenvector and eigenvalue from a dense eigendecomposition."""
    nodes = list(g.nodes)
    n = len(nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    A = np.zeros((n, n))
    for (u, v), w in g.edges.items():
        A[idx[u], idx[v]] = w
    eigenvalues, vectors = np.linalg.eigh(A)
    principal = vectors[:, -1]
    if principal.sum() < 0:
        principal = -principal
    return {u: float(principal[idx[u]]) for u in nodes}, float(eigenvalues[-1])

# The package's kernels as they were before their inner loops moved to C-level
# products and index lists, verbatim.  The package must match them to the bit:
# ``math.fsum`` is correctly rounded, so only the set of terms matters, and the
# shortest-path pass must keep every distance, count, predecessor and settle
# order of this Dijkstra.

PATH_TIE_REL_TOL = TIE_REL_TOL


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
    if g.components > 1:
        raise DomainError(
            f"eigenvector centrality needs a connected graph; got {g.components} components"
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


def cross_correlation(f: MetricSeries, g: MetricSeries) -> CorrelationSeries:
    """Discrete sliding dot product with zero padding outside the series.

    ``value(n) = sum over m of f[m] * g[m + n]`` for shifts -(L-1) ... L-1.
    """
    _check_aligned(f, g)
    length = len(f.values)
    if length == 0:
        raise DomainError("cross-correlation needs series of length at least 1")
    shifts = tuple(range(-(length - 1), length))
    values = tuple(
        math.fsum(
            f.values[m] * g.values[m + n] for m in range(length) if 0 <= m + n < length
        )
        for n in shifts
    )
    return CorrelationSeries(shifts=shifts, values=values)


def autocorrelation(f: MetricSeries) -> CorrelationSeries:
    """Correlation of a series with shifted copies of itself."""
    return cross_correlation(f, f)


def dispersion_of(values: Sequence[float]) -> Dispersion:
    """Population variance and cv of a value collection."""
    values = list(values)
    if not values:
        raise EmptyInputError("dispersion needs at least one value")
    n = len(values)
    mean = math.fsum(values) / n
    variance = math.fsum((v - mean) ** 2 for v in values) / n
    cv = math.sqrt(variance) / mean if mean > 0 else None
    return Dispersion(variance=variance, cv=cv)


def reference_path_sums(g: WeightedGraph) -> tuple[list[float], list[float], bool]:
    """Closeness scores, betweenness sums (before halving) and the
    ``on_component`` flag from the one-process loop the package ran before its
    path pass could be split over workers, verbatim: each source's
    dependencies are added into the sums while its settle order unwinds.
    Scores of any worker count must match these to the bit."""
    adj = _indexed_adjacency(g)
    n = g.n
    close = [0.0] * n
    between = [0.0] * n
    on_component = False
    for s in range(n):
        dist, sigma, preds, order = _source_pass(adj, s)
        reachable = [d for v, d in enumerate(dist) if v != s and d < INF]
        if len(reachable) < n - 1:
            on_component = True
        close[s] = 0.0 if not reachable else 1.0 / math.fsum(reachable)
        delta = [0.0] * n
        for w in reversed(order):
            sigma_w = sigma[w]
            carried = 1.0 + delta[w]
            for v in preds[w]:
                delta[v] += sigma[v] / sigma_w * carried
            if w != s:
                between[w] += delta[w]
    return close, between, on_component


def _cell_center(cell_id: int, side: int) -> tuple[float, float]:
    row, col = divmod(cell_id - 1, side)
    return row + 0.5, col + 0.5


def reference_pairs(intensities: dict[int, float], side: int) -> list[tuple[float, int, int]]:
    """The kept (strength, u, v) of a synthetic city: every ordered pair scored,
    sorted by (-strength, u, v), cut at the top 20 per cell, sorted by (u, v)."""
    pairs = []
    cells = sorted(intensities)
    for u in cells:
        uy, ux = _cell_center(u, side)
        for v in cells:
            if u == v:
                continue
            vy, vx = _cell_center(v, side)
            distance = math.sqrt((uy - vy) ** 2 + (ux - vx) ** 2)
            strength = intensities[u] * intensities[v] / (1.0 + distance)
            if strength > 0.0:
                pairs.append((strength, u, v))
    pairs.sort(key=lambda item: (-item[0], item[1], item[2]))
    return sorted(pairs[: TOP_PAIRS_PER_CELL * len(cells)], key=lambda item: (item[1], item[2]))


def _draw_timestamp(rng: SplitMix64, window) -> int:
    """One timestamp from the generator's next draw, by method calls."""
    span = window.end - window.start
    return window.start + int(rng.next_float() * span)


def reference_city_lines(cfg: SynthConfig) -> tuple[list[str], list[str]]:
    """The lines of a synthetic city's activity.tsv and interactions.tsv,
    one record formatted at a time and every ordered cell pair scored."""
    rng = SplitMix64(cfg.seed)
    intensities = cell_intensities(cfg, rng)
    side = cfg.grid_side

    activity_lines = []
    for cell_id in sorted(intensities):
        slice_total = intensities[cell_id] / cfg.records_per_cell
        for _ in range(cfg.records_per_cell):
            record = ActivityRecord(
                cell_id=cell_id,
                timestamp=_draw_timestamp(rng, cfg.window),
                sms_in=slice_total * ACTIVITY_SPLIT[0],
                sms_out=slice_total * ACTIVITY_SPLIT[1],
                call_in=slice_total * ACTIVITY_SPLIT[2],
                call_out=slice_total * ACTIVITY_SPLIT[3],
                internet=slice_total * ACTIVITY_SPLIT[4],
            )
            activity_lines.append(format_activity_line(record))

    kept = reference_pairs(intensities, side)
    interaction_lines = []
    for strength, u, v in kept:
        record = InteractionRecord(
            src_id=u,
            dst_id=v,
            timestamp=_draw_timestamp(rng, cfg.window),
            strength=strength,
        )
        interaction_lines.append(format_interaction_line(record))
    return activity_lines, interaction_lines
