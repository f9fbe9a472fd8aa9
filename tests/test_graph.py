import random

import pytest

from gridhot.errors import DomainError
from gridhot.graph import WeightedGraph, build_graph, symmetrize
from gridhot.hotspot import HotspotSet, ThresholdSpec
from gridhot.ingest import InteractionAggregate, TimeWindow

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
        assert und.edges == {(1, 2): 4.0, (2, 1): 4.0}

    def test_overflowing_pair_named(self):
        g = WeightedGraph(
            nodes=(1, 2, 3), edges={(1, 3): 1.0, (3, 2): 1e308, (2, 3): 1e308}, directed=True
        )
        with pytest.raises(DomainError, match="^the strengths of pair 2 <-> 3 sum past the"):
            symmetrize(g)

    def test_largest_finite_sum_kept(self):
        big = 1.7976931348623157e308
        g = WeightedGraph(nodes=(1, 2), edges={(1, 2): big / 2, (2, 1): big / 2}, directed=True)
        assert symmetrize(g).edges == {(1, 2): big, (2, 1): big}

    def test_one_way_edge_kept(self):
        g = WeightedGraph(nodes=(1, 2), edges={(1, 2): 3.0}, directed=True)
        assert symmetrize(g).edges == {(1, 2): 3.0, (2, 1): 3.0}

    def test_empty(self):
        g = WeightedGraph(nodes=(1, 2), edges={}, directed=True)
        assert symmetrize(g).edges == {}

    def test_rejects_undirected_input(self):
        und = WeightedGraph(nodes=(1, 2), edges={(1, 2): 1.0, (2, 1): 1.0}, directed=False)
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

    def test_asymmetric_undirected_rejected(self):
        with pytest.raises(DomainError):
            WeightedGraph(nodes=(1, 2), edges={(1, 2): 1.0}, directed=False)

    def test_unsorted_nodes_rejected(self):
        with pytest.raises(DomainError):
            WeightedGraph(nodes=(2, 1), edges={}, directed=True)

    def test_adjacency_deterministic_order(self):
        g = WeightedGraph(nodes=(1, 2, 3), edges={(1, 3): 1.0, (1, 2): 2.0}, directed=True)
        assert g.path_adjacency == [[(1, 2.0), (2, 1.0)], [], []]


def _reference_rows(g):
    """Per node index, the sorted out-neighbour indices and their weights,
    read from ``g.edges`` node by node."""
    rows = []
    for u in g.nodes:
        targets = sorted(v for (src, v) in g.edges if src == u)
        rows.append(([g.nodes.index(v) for v in targets], [g.edges[(u, v)] for v in targets]))
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
                if not directed:
                    edges[(v, u)] = edges[(u, v)]
    return WeightedGraph(nodes=nodes, edges=edges, directed=directed)


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
