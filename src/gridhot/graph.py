"""Weighted interaction graphs over hotspot cells."""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import Checked, DomainError
from .ingest import InteractionAggregate

if TYPE_CHECKING:
    from .hotspot import HotspotSet

# an edge leaves the path adjacency when a two-edge detour is shorter by this
# share of the longest length a path through it can have
DETOUR_REL_MARGIN = 1e-6


class _WeightedGraph(NamedTuple):
    nodes: tuple[int, ...]
    edges: dict[tuple[int, int], float]
    directed: bool


class WeightedGraph(Checked, _WeightedGraph):
    """A graph with positive edge weights and ascending node order.

    Undirected graphs store each edge under both ordered keys with equal
    weight, so adjacency iteration needs no special-casing.
    """

    # no __slots__: the instance __dict__ holds what is cached below

    def _check(self):
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes) or list(self.nodes) != sorted(node_set):
            raise DomainError("nodes must be strictly ascending and unique")
        for (u, v), weight in self.edges.items():
            if u not in node_set or v not in node_set:
                raise DomainError(f"edge ({u}, {v}) has an endpoint outside the node set")
            if u == v:
                raise DomainError(f"self-loop on node {u}")
            if not weight > 0:
                raise DomainError(f"edge ({u}, {v}) weight must be positive, got {weight}")
            if not self.directed and self.edges.get((v, u)) != weight:
                raise DomainError(f"undirected edge ({u}, {v}) lacks an equal reverse entry")

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def components(self) -> int:
        """Connected components, edge directions ignored; counted once per graph."""
        neighbours: dict[int, list[int]] = {u: [] for u in self.nodes}
        for u, v in self.edges:
            neighbours[u].append(v)
            if self.directed:
                neighbours[v].append(u)
        reached: set[int] = set()
        components = 0
        for root in self.nodes:
            if root not in reached:
                components += 1
                reached.add(root)
                stack = [root]
                while stack:
                    for v in neighbours[stack.pop()]:
                        if v not in reached:
                            reached.add(v)
                            stack.append(v)
        return components

    @cached_property
    def rows(self) -> list[tuple[list[int], list[float]]]:
        """Per node index, the indices of its out-neighbours in ascending
        order and the weights of those edges; index i is the i-th smallest
        node id.  Built once per graph."""
        index = {v: i for i, v in enumerate(self.nodes)}
        # neighbours and weights as two flat lists per node: no object per edge
        rows: list[tuple[list[int], list[float]]] = [([], []) for _ in self.nodes]
        edges = self.edges
        for key in sorted(edges):
            u, v = key
            nbrs, weights = rows[index[u]]
            nbrs.append(index[v])
            weights.append(edges[key])
        return rows

    @cached_property
    def path_adjacency(self) -> list[list[tuple[int, float]]]:
        """Per node index, ``(neighbour index, weight)`` pairs in ascending
        neighbour order, as in :attr:`rows`, without the edges that no
        shortest path uses.  Built once per graph.

        An undirected edge {u, v} of weight w is left out when a common
        neighbour x has ``w(u, x) + w(x, v) < w - DETOUR_REL_MARGIN * (n * W + w)``,
        W being the largest weight.  A path through the edge is at most
        ``n * W + w`` long, so the detour is shorter by at least
        ``DETOUR_REL_MARGIN`` of that path's length.  Where the detour's
        lighter edges are left out too, their own detours are shorter
        still, so distances are unchanged.  Nothing is left out of a
        directed graph, nor where ``2 * n * W`` is not finite and path
        lengths may overflow.  The pairs are made from :attr:`rows`, which
        stay cached beside them; the detour search's lists do not outlive
        the call.
        """
        rows = self.rows
        n = len(rows)
        top = max(self.edges.values(), default=0.0)
        left_out: list[set[int]] = [set() for _ in rows]
        if not self.directed and math.isfinite(2.0 * n * top):
            # each node's (weight, neighbour) pairs, lightest first
            lightest_first = [sorted(zip(weights, nbrs)) for nbrs, weights in rows]
            # the weights from u by neighbour index, while u's edges are tested
            from_u = [math.inf] * n
            for u, (nbrs, weights) in enumerate(rows):
                for x, weight in zip(nbrs, weights):
                    from_u[x] = weight
                for v, weight in zip(nbrs, weights):
                    if v < u:
                        continue
                    bound = weight - DETOUR_REL_MARGIN * (n * top + weight)
                    for onward, x in lightest_first[v]:
                        if onward >= bound:
                            break
                        if from_u[x] + onward < bound:
                            left_out[u].add(v)
                            left_out[v].add(u)
                            break
                for x in nbrs:
                    from_u[x] = math.inf
            # freed before the kept pairs are made, which can reuse its memory
            del lightest_first
        return [
            [edge for edge in zip(nbrs, weights) if edge[0] not in gone]
            for (nbrs, weights), gone in zip(rows, left_out)
        ]


def build_graph(
    interactions: InteractionAggregate, hotspots: HotspotSet | Iterable[int]
) -> WeightedGraph:
    """Restrict aggregated interactions to a hotspot set (directed graph).

    ``hotspots`` is a :class:`HotspotSet`, whose ``members`` are sorted, or
    any iterable of cell ids.  Self-loop entries are dropped; no centrality
    metric consumes them.
    """
    # read by name, so that the hotspot module is not imported to tell them apart
    members = getattr(hotspots, "members", None)
    if members is None:
        members = tuple(sorted(set(hotspots)))
    if not members:
        raise DomainError("cannot build a graph over an empty hotspot set")
    member_set = set(members)
    edges = {
        (src, dst): weight
        for (src, dst), weight in interactions.strengths.items()
        if src in member_set and dst in member_set and src != dst
    }
    return WeightedGraph(nodes=members, edges=edges, directed=True)


def symmetrize(g: WeightedGraph) -> WeightedGraph:
    """Sum the two directions of every pair into an undirected graph.

    Raises :class:`DomainError` naming the first pair whose sum is past the
    largest float.
    """
    if not g.directed:
        raise DomainError("symmetrize expects a directed graph")
    totals: dict[tuple[int, int], float] = {}
    for (u, v), weight in g.edges.items():
        key = (u, v) if u < v else (v, u)
        totals[key] = totals.get(key, 0.0) + weight
    edges: dict[tuple[int, int], float] = {}
    for (u, v), weight in totals.items():
        if weight == math.inf:
            raise DomainError(f"the strengths of pair {u} <-> {v} sum past the largest float")
        if weight > 0:
            edges[(u, v)] = weight
            edges[(v, u)] = weight
    return WeightedGraph(nodes=g.nodes, edges=edges, directed=False)

