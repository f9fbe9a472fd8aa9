import math
import random

import pytest

import oracles
from gridhot.errors import DomainError
from gridhot.graph import WeightedGraph, build_graph, symmetrize
from gridhot.hotspot import HotspotSet, ThresholdSpec
from gridhot.ingest import (
    InteractionAggregate, InteractionRecord, TimeWindow, aggregate_interactions,
)

WINDOW = TimeWindow(0, 1_000)


def interactions(strengths):
    return InteractionAggregate(window=WINDOW, strengths=dict(strengths))


def hotspot_set(members):
    members = tuple(sorted(members))
    spec = ThresholdSpec(p=0.5, mean_intensity=1.0, max_traffic=2.0, delta=0.5,
                         threshold=1.5, n_areas=len(members))
    return HotspotSet(window=WINDOW, spec=spec, members=members,
                      intensities={m: 2.0 for m in members})


class TestBuildGraph:
    def test_restricts_to_hotspot_pairs(self):
        agg = interactions({(1, 2): 3.0, (2, 1): 1.0, (1, 9): 5.0})
        g = build_graph(agg, hotspot_set([1, 2]))
        assert g.nodes == (1, 2)
        assert g.edges == {(1, 2): 3.0, (2, 1): 1.0}
        assert g.directed

    def test_self_loops_dropped(self):
        g = build_graph(interactions({(1, 1): 7.0}), hotspot_set([1]))
        assert g.edges == {}

    def test_no_edges(self):
        g = build_graph(interactions({}), hotspot_set([1, 2]))
        assert g.nodes == (1, 2) and g.edges == {}

    def test_empty_hotspots(self):
        with pytest.raises(DomainError):
            build_graph(interactions({}), hotspot_set([]))

    def test_accepts_plain_id_iterable(self):
        g = build_graph(interactions({(3, 5): 1.0}), [5, 3])
        assert g.nodes == (3, 5)
        assert g.edges == {(3, 5): 1.0}


class TestSymmetrize:
    def test_sums_both_directions(self):
        g = WeightedGraph(nodes=(1, 2), edges={(1, 2): 3.0, (2, 1): 1.0}, directed=True)
        und = symmetrize(g)
        assert not und.directed
        assert und.edges == {(1, 2): 4.0}

    def test_overflowing_pair_named(self):
        g = WeightedGraph(
            nodes=(1, 2, 3), edges={(1, 3): 1.0, (3, 2): 1e308, (2, 3): 1e308}, directed=True
        )
        with pytest.raises(DomainError, match="^the strengths of pair 2 <-> 3 sum past the"):
            symmetrize(g)

    def test_largest_finite_sum_kept(self):
        big = 1.7976931348623157e308
        g = WeightedGraph(nodes=(1, 2), edges={(1, 2): big / 2, (2, 1): big / 2}, directed=True)
        assert symmetrize(g).edges == {(1, 2): big}

    def test_one_way_edge_kept(self):
        for key in ((1, 2), (2, 1)):
            g = WeightedGraph(nodes=(1, 2), edges={key: 3.0}, directed=True)
            assert symmetrize(g).edges == {(1, 2): 3.0}

    def test_empty(self):
        g = WeightedGraph(nodes=(1, 2), edges={}, directed=True)
        assert symmetrize(g).edges == {}

    def test_rejects_undirected_input(self):
        und = WeightedGraph(nodes=(1, 2), edges={(1, 2): 1.0}, directed=False)
        with pytest.raises(DomainError):
            symmetrize(und)

    def test_round_trip_on_symmetric_directed_input(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 8)
            directed = {}
            for u in range(1, n + 1):
                for v in range(u + 1, n + 1):
                    if rng.random() < 0.5:
                        w = rng.uniform(0.1, 5.0)
                        directed[(u, v)] = w
                        directed[(v, u)] = w
            g = WeightedGraph(nodes=tuple(range(1, n + 1)), edges=directed, directed=True)
            und = symmetrize(g)
            for (u, v), w in und.edges.items():
                assert w == directed[(u, v)] + directed[(v, u)]

    def test_one_key_per_pair_lower_first(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 12)
            g = _random_graph(rng, n, directed=True, isolated=rng.randint(0, n - 1))
            pairs = {(min(u, v), max(u, v)) for u, v in g.edges}
            und = symmetrize(g)
            assert sorted(und.edges) == sorted(pairs)
            assert all(u < v for u, v in und.edges)


class TestPairsHeldOnce:
    """The graphs key their edges by the pair tuples they are given, so a
    centrality run holds each interaction pair once."""

    RECORDS = [
        *(InteractionRecord(u, v, 100, float(u + v)) for u in range(1, 6) for v in range(1, 6)),
        # pairs that sum to zero or below are dropped
        InteractionRecord(2, 3, 200, -5.0),
        InteractionRecord(4, 1, 200, -9.0),
    ]

    def test_aggregate_drops_the_pairs_at_or_below_zero(self):
        agg = aggregate_interactions(self.RECORDS, WINDOW, members={1, 2, 3, 4})
        assert (2, 3) not in agg.strengths and (4, 1) not in agg.strengths
        assert list(agg.strengths) == sorted(agg.strengths)
        assert len(agg.strengths) == 16 - 2

    def test_build_graph_keeps_the_aggregate_keys(self):
        agg = aggregate_interactions(self.RECORDS, WINDOW, members={1, 2, 3, 4})
        g = build_graph(agg, [1, 2, 3])
        keys = {pair: pair for pair in agg.strengths}
        assert len(g.edges) == 5
        assert all(pair is keys[pair] for pair in g.edges)

    def test_symmetrize_keeps_the_keys_of_the_lower_to_higher_direction(self):
        agg = aggregate_interactions(self.RECORDS, WINDOW)
        g = build_graph(agg, [1, 2, 3, 4, 5])
        und = symmetrize(g)
        keys = {pair: pair for pair in und.edges}
        ascending = [pair for pair in g.edges if pair[0] < pair[1]]
        assert len(ascending) == 9
        assert all(keys[pair] is pair for pair in ascending)


class TestValidation:
    def test_endpoint_outside_nodes(self):
        with pytest.raises(DomainError):
            WeightedGraph(nodes=(1, 2), edges={(1, 3): 1.0}, directed=True)

    def test_nonpositive_weight(self):
        with pytest.raises(DomainError):
            WeightedGraph(nodes=(1, 2), edges={(1, 2): 0.0}, directed=True)

    def test_self_loop_rejected(self):
        with pytest.raises(DomainError):
            WeightedGraph(nodes=(1,), edges={(1, 1): 1.0}, directed=True)

    @pytest.mark.parametrize(
        "edges",
        [{(2, 1): 1.0}, {(1, 2): 1.0, (2, 1): 1.0}, {(2, 1): 1.0, (1, 2): 1.0}],
        ids=["alone", "after", "before"],
    )
    def test_reversed_undirected_key_rejected(self, edges):
        with pytest.raises(DomainError, match=r"^undirected edge \(2, 1\) must be keyed \(1, 2\)$"):
            WeightedGraph(nodes=(1, 2), edges=edges, directed=False)

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    @pytest.mark.parametrize("weight", [math.inf, math.nan, 0.0, -2.0])
    def test_weight_positive_and_finite(self, weight, directed):
        with pytest.raises(
            DomainError, match=rf"^edge \(1, 2\) weight must be positive and finite, got {weight}$"
        ):
            WeightedGraph(nodes=(1, 2), edges={(1, 2): weight}, directed=directed)

    def test_unsorted_nodes_rejected(self):
        with pytest.raises(DomainError):
            WeightedGraph(nodes=(2, 1), edges={}, directed=True)

    def test_adjacency_deterministic_order(self):
        g = WeightedGraph(nodes=(1, 2, 3), edges={(1, 3): 1.0, (1, 2): 2.0}, directed=True)
        assert g.path_adjacency == [[(1, 2.0), (2, 1.0)], [], []]


def _reference_rows(g):
    """Per node index, the sorted out-neighbour indices and their weights,
    read from the edges node by node; an undirected edge from both ends."""
    edges = oracles.ordered_edges(g)
    rows = []
    for u in g.nodes:
        targets = sorted(v for (src, v) in edges if src == u)
        rows.append(([g.nodes.index(v) for v in targets], [edges[(u, v)] for v in targets]))
    return rows


def _random_graph(rng, n, directed, isolated=0):
    """Sparse ids, shuffled insertion order; the last ``isolated`` ids have no edge."""
    nodes = tuple(sorted(rng.sample(range(1, 10 * n + 1), n)))
    linked = list(nodes[:n - isolated])
    rng.shuffle(linked)
    edges = {}
    for u in linked:
        for v in linked:
            if u != v and (directed or u < v) and rng.random() < 0.4:
                edges[(u, v)] = rng.uniform(0.1, 5.0)
    return WeightedGraph(nodes=nodes, edges=edges, directed=directed)


class TestComponents:
    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    def test_random_graphs_match_networkx(self, directed):
        """Sparse ids, isolated nodes and up to hundreds of components."""
        nx = pytest.importorskip("networkx")
        rng = random.Random(29)
        counts = []
        for _ in range(40):
            n = rng.randint(1, 300)
            nodes = tuple(sorted(rng.sample(range(1, 10 * n + 1), n)))
            linked = nodes[: n - (rng.randint(0, n // 4) if rng.random() < 0.5 else 0)]
            edges = {}
            for _ in range(int((len(linked) - 1) * rng.choice([0.2, 0.6, 1.5, 5.0]))):
                u, v = rng.sample(linked, 2)
                edges[(u, v) if directed else (min(u, v), max(u, v))] = rng.uniform(0.1, 5.0)
            g = WeightedGraph(nodes=nodes, edges=edges, directed=directed)
            reference = nx.DiGraph() if directed else nx.Graph()
            reference.add_nodes_from(nodes)
            reference.add_edges_from(edges)
            if directed:
                expected = nx.number_weakly_connected_components(reference)
            else:
                expected = nx.number_connected_components(reference)
            assert g.components == expected
            counts.append(expected)
        assert min(counts) == 1 and max(counts) > 100


class TestRows:
    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    @pytest.mark.parametrize("isolated", [0, 3])
    def test_random_graphs_match_reference(self, directed, isolated):
        rng = random.Random(17 + isolated)
        for _ in range(30):
            g = _random_graph(rng, rng.randint(isolated + 1, isolated + 12), directed, isolated)
            assert g.rows == _reference_rows(g)
            for nbrs, _ in g.rows[len(g.nodes) - isolated:]:
                assert nbrs == []

    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    def test_one_node(self, directed):
        g = WeightedGraph(nodes=(7,), edges={}, directed=directed)
        assert g.rows == _reference_rows(g) == [([], [])]
