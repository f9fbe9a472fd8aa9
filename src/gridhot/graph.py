"""Weighted interaction graphs over hotspot cells."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError
from .hotspot import HotspotSet
from .ingest import InteractionAggregate


@dataclass(frozen=True)
class WeightedGraph:
    """A graph with positive edge weights and ascending node order.

    Undirected graphs store each edge under both ordered keys with equal
    weight, so adjacency iteration needs no special-casing.
    """

    nodes: tuple[int, ...]
    edges: dict[tuple[int, int], float]
    directed: bool

    def __post_init__(self):
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

    def adjacency(self) -> dict[int, list[tuple[int, float]]]:
        """Out-adjacency lists with neighbours in ascending order."""
        adj: dict[int, list[tuple[int, float]]] = {u: [] for u in self.nodes}
        for (u, v), weight in sorted(self.edges.items()):
            adj[u].append((v, weight))
        return adj


def build_graph(interactions: InteractionAggregate, hotspots) -> WeightedGraph:
    """Restrict aggregated interactions to a hotspot set (directed graph).

    ``hotspots`` is a :class:`HotspotSet` or any iterable of cell ids.
    Self-loop entries are dropped; no centrality metric consumes them.
    """
    if isinstance(hotspots, HotspotSet):
        members = hotspots.members
    else:
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
    """Sum the two directions of every pair into an undirected graph."""
    if not g.directed:
        raise DomainError("symmetrize expects a directed graph")
    totals: dict[tuple[int, int], float] = {}
    for (u, v), weight in g.edges.items():
        key = (u, v) if u < v else (v, u)
        totals[key] = totals.get(key, 0.0) + weight
    edges: dict[tuple[int, int], float] = {}
    for (u, v), weight in totals.items():
        if weight > 0:
            edges[(u, v)] = weight
            edges[(v, u)] = weight
    return WeightedGraph(nodes=g.nodes, edges=edges, directed=False)

