import math
import os
import random

import pytest

import oracles
from gridhot import centrality
from gridhot.errors import ConvergenceError, DomainError, WorkerError
from gridhot.graph import WeightedGraph, symmetrize
from gridhot.centrality import (
    PARALLEL_MIN_NODES,
    PATH_TIE_REL_TOL,
    CentralityParams,
    CentralityScores,
    betweenness,
    closeness,
    compute_all,
    degree,
    eigenvector,
    pagerank,
    rank,
    _source_pass,
)

und = oracles.undirected_graph

PATH3 = und([1, 2, 3], [(1, 2, 1.0), (2, 3, 1.0)])
TRIANGLE_DETOUR = und([1, 2, 3], [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 10.0)])
TRIANGLE_UNIT = und([1, 2, 3], [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
TRIANGLE_AND_PAIR = WeightedGraph(
    nodes=(1, 2, 3, 4, 5),
    edges={(1, 2): 1.0, (2, 3): 2.0, (3, 1): 1.5, (4, 5): 3.0},
    directed=True,
)


def path_table(g):
    """(dist, sigma) keyed by (u, v), each pair taken from the pass rooted at u."""
    adj = g.path_adjacency
    dist, sigma = {}, {}
    for i, u in enumerate(g.nodes):
        d, s, _, _ = _source_pass(adj, i)
        for j, v in enumerate(g.nodes):
            dist[(u, v)], sigma[(u, v)] = d[j], s[j]
    return dist, sigma


class TestShortestPaths:
    def test_path_graph(self):
        dist, sigma = path_table(PATH3)
        assert dist[(1, 3)] == 2.0
        assert sigma[(1, 3)] == 1

    def test_detour_through_middle(self):
        dist, _ = path_table(TRIANGLE_DETOUR)
        assert dist[(1, 3)] == 2.0

    def test_single_node(self):
        g = WeightedGraph(nodes=(1,), edges={}, directed=False)
        dist, _ = path_table(g)
        assert dist == {(1, 1): 0.0}

    def test_unreachable_pairs(self):
        g = WeightedGraph(nodes=(1, 2), edges={}, directed=False)
        dist, sigma = path_table(g)
        assert dist[(1, 2)] == math.inf
        assert sigma[(1, 2)] == 0

    def test_tied_paths_counted(self):
        diamond = und([1, 2, 3, 4], [(1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)])
        dist, sigma = path_table(diamond)
        assert dist[(1, 4)] == 2.0
        assert sigma[(1, 4)] == 2

    def test_invariants_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(20):
            g = oracles.random_connected_graph(rng, rng.randint(2, 7))
            dist, sigma = path_table(g)
            for u in g.nodes:
                assert dist[(u, u)] == 0.0
                for v in g.nodes:
                    # the two directions sum the same edges in a different order
                    assert math.isclose(dist[(u, v)], dist[(v, u)], rel_tol=PATH_TIE_REL_TOL)
                    if v != u:
                        assert sigma[(u, v)] >= 1
                    for w in g.nodes:
                        assert dist[(u, v)] <= dist[(u, w)] + dist[(w, v)] + 1e-9


class TestCloseness:
    def test_two_nodes(self):
        g = und([1, 2], [(1, 2, 4.0)])
        assert closeness(g).scores == {1: 0.25, 2: 0.25}

    def test_path_graph(self):
        scores = closeness(PATH3).scores
        assert scores[2] == 0.5
        assert scores[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_detour(self):
        assert closeness(TRIANGLE_DETOUR).scores[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_single_node_rejected(self):
        with pytest.raises(DomainError):
            closeness(WeightedGraph(nodes=(1,), edges={}, directed=False))

    def test_component_flag(self):
        g = WeightedGraph(nodes=(1, 2, 3), edges={(1, 2): 1.0}, directed=False)
        result = closeness(g)
        assert result.params["on_component"]
        assert result.scores[3] == 0.0
        assert result.scores[1] == 1.0  # sum over the reachable set only


class TestBetweenness:
    def test_path_graph(self):
        assert betweenness(PATH3).scores == {1: 0.0, 2: 1.0, 3: 0.0}

    def test_triangle_unit(self):
        assert betweenness(TRIANGLE_UNIT).scores == {1: 0.0, 2: 0.0, 3: 0.0}

    def test_path_four(self):
        g = und([1, 2, 3, 4], [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        assert betweenness(g).scores == {1: 0.0, 2: 2.0, 3: 2.0, 4: 0.0}

    def test_split_shortest_paths(self):
        diamond = und([1, 2, 3, 4], [(1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)])
        scores = betweenness(diamond).scores
        assert scores[2] == pytest.approx(0.5, abs=1e-12)
        assert scores[3] == pytest.approx(0.5, abs=1e-12)

    def test_too_small(self):
        with pytest.raises(DomainError):
            betweenness(und([1, 2], [(1, 2, 1.0)]))

    def test_leaves_score_zero(self):
        rng = random.Random(9)
        for _ in range(20):
            g = oracles.random_connected_graph(rng, rng.randint(3, 8), extra_edge_prob=0.2)
            adj = oracles.adjacency(g)
            scores = betweenness(g).scores
            for node in g.nodes:
                if len(adj[node]) == 1:
                    assert scores[node] == 0.0


class TestDegree:
    def test_star(self):
        g = und([1, 2, 3, 4], [(1, 2, 2.0), (1, 3, 3.0), (1, 4, 5.0)])
        assert degree(g).scores[1] == 10.0

    def test_triangle(self):
        assert degree(TRIANGLE_UNIT).scores == {1: 2.0, 2: 2.0, 3: 2.0}

    def test_isolated_node(self):
        g = WeightedGraph(nodes=(1, 2, 3), edges={(1, 2): 1.0}, directed=False)
        assert degree(g).scores[3] == 0.0


class TestPagerank:
    def test_symmetric_complete_graph_uniform(self):
        edges = {(u, v): 1.0 for u in (1, 2, 3) for v in (1, 2, 3) if u != v}
        g = WeightedGraph(nodes=(1, 2, 3), edges=edges, directed=True)
        scores = pagerank(g).scores
        for value in scores.values():
            assert value == pytest.approx(1 / 3, abs=1e-12)

    def test_two_nodes_both_ways(self):
        g = WeightedGraph(nodes=(1, 2), edges={(1, 2): 1.0, (2, 1): 1.0}, directed=True)
        scores = pagerank(g).scores
        assert scores[1] == pytest.approx(0.5, abs=1e-12)

    def test_chain_matches_dense_oracle(self):
        g = WeightedGraph(nodes=(1, 2, 3), edges={(1, 2): 1.0, (2, 3): 1.0}, directed=True)
        scores = pagerank(g).scores
        # frozen from the dense linear-solve oracle
        assert scores[1] == pytest.approx(0.18441678192715538, abs=1e-8)
        assert scores[2] == pytest.approx(0.34117104656523745, abs=1e-8)
        assert scores[3] == pytest.approx(0.47441217150760720, abs=1e-8)

    def test_weighted_vs_literal_differ(self):
        g = WeightedGraph(
            nodes=(1, 2, 3),
            edges={(1, 2): 10.0, (1, 3): 1.0, (2, 1): 1.0, (3, 1): 1.0},
            directed=True,
        )
        weighted = pagerank(g, variant="weighted").scores
        literal = pagerank(g, variant="literal").scores
        assert weighted[2] > literal[2]
        for scores in (weighted, literal):
            oracle = oracles.pagerank_dense(
                g, variant="weighted" if scores is weighted else "literal"
            )
            assert sum(abs(scores[u] - oracle[u]) for u in g.nodes) < 1e-8

    def test_dangling_nodes_conserve_mass(self):
        rng = random.Random(13)
        for _ in range(20):
            g = oracles.random_directed_graph(rng, rng.randint(2, 8))
            iterates = oracles.pagerank_iterates(g)
            for _ in range(5):
                ranks = next(iterates)
                assert math.fsum(ranks.values()) == pytest.approx(1.0, abs=1e-9)
            scores = pagerank(g).scores
            assert math.fsum(scores.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(value > 0 for value in scores.values())

    @pytest.mark.parametrize("damping", [0.0, 1.0, -0.2, 1.7])
    def test_invalid_damping(self, damping):
        g = WeightedGraph(nodes=(1, 2), edges={(1, 2): 1.0}, directed=True)
        with pytest.raises(DomainError):
            pagerank(g, damping=damping)

    def test_nonconvergence_carries_residual(self):
        g = WeightedGraph(nodes=(1, 2, 3), edges={(1, 2): 1.0, (2, 3): 1.0}, directed=True)
        with pytest.raises(ConvergenceError) as info:
            pagerank(g, max_iter=2)
        assert info.value.iterations == 2
        assert info.value.residual > 0


class TestEigenvector:
    def test_complete_graph(self):
        result = eigenvector(TRIANGLE_UNIT)
        for value in result.scores.values():
            assert value == pytest.approx(1 / math.sqrt(3), abs=1e-9)
        assert result.params["lambda"] == pytest.approx(2.0, abs=1e-9)

    def test_star(self):
        g = und([1, 2, 3, 4], [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)])
        result = eigenvector(g)
        assert result.scores[1] == pytest.approx(math.sqrt(0.5), abs=1e-7)
        for leaf in (2, 3, 4):
            assert result.scores[leaf] == pytest.approx(1 / math.sqrt(6), abs=1e-7)
        assert result.params["lambda"] == pytest.approx(math.sqrt(3), abs=1e-9)

    def test_two_nodes(self):
        g = und([1, 2], [(1, 2, 7.5)])
        result = eigenvector(g)
        assert result.scores[1] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert result.params["lambda"] == pytest.approx(7.5, abs=1e-9)

    def test_norm_is_one(self):
        rng = random.Random(17)
        for _ in range(20):
            g = oracles.random_connected_graph(rng, rng.randint(2, 8))
            scores = eigenvector(g).scores
            norm = math.sqrt(math.fsum(v * v for v in scores.values()))
            assert norm == pytest.approx(1.0, abs=1e-9)
            assert all(v >= 0 for v in scores.values())

    def test_disconnected_rejected(self):
        g = WeightedGraph(nodes=(1, 2, 3), edges={(1, 2): 1.0}, directed=False)
        with pytest.raises(DomainError, match="got 2 components"):
            eigenvector(g)

    def test_component_count_named(self):
        # a triangle, a pair and an isolated node, listed out of component order
        g = und([1, 2, 3, 4, 5, 6], [(1, 5, 1.0), (5, 3, 2.0), (3, 1, 1.0), (2, 6, 4.0)])
        assert g.components == 3
        assert TRIANGLE_AND_PAIR.components == symmetrize(TRIANGLE_AND_PAIR).components == 2
        with pytest.raises(DomainError, match="connected graph; got 3 components"):
            eigenvector(g)
        _, failures = compute_all(g, CentralityParams(), metrics=("eigenvector",))
        assert "got 3 components" in str(failures["eigenvector"])


@pytest.mark.parametrize("max_iter", [0, -5])
def test_max_iter_below_one_rejected(max_iter):
    for solver in (pagerank, eigenvector):
        with pytest.raises(DomainError, match="max_iter must be at least 1"):
            solver(TRIANGLE_UNIT, max_iter=max_iter)
    results, failures = compute_all(TRIANGLE_UNIT, CentralityParams(max_iter=max_iter))
    assert set(failures) == {"pagerank", "eigenvector"}
    assert set(results) == {"closeness", "betweenness", "degree"}


class TestComputeAll:
    def test_triangle_has_all_five(self):
        edges = {(u, v): 1.0 for u in (1, 2, 3) for v in (1, 2, 3) if u != v}
        g = WeightedGraph(nodes=(1, 2, 3), edges=edges, directed=True)
        results, failures = compute_all(g)
        assert sorted(results) == sorted(
            ["closeness", "betweenness", "degree", "pagerank", "eigenvector"]
        )
        assert failures == {}
        # symmetrized weights double, so the trivial-case values follow
        assert results["degree"].scores == {1: 4.0, 2: 4.0, 3: 4.0}
        assert results["betweenness"].scores == {1: 0.0, 2: 0.0, 3: 0.0}

    def test_two_node_graph_partial(self):
        g = WeightedGraph(nodes=(1, 2), edges={(1, 2): 1.0, (2, 1): 2.0}, directed=True)
        results, failures = compute_all(g)
        assert set(failures) == {"betweenness"}
        assert isinstance(failures["betweenness"], DomainError)
        assert set(results) == {"closeness", "degree", "pagerank", "eigenvector"}

    def test_matches_individual_calls(self):
        rng = random.Random(23)
        g = oracles.random_directed_graph(rng, 20, edge_prob=0.2)
        params = CentralityParams()
        results, failures = compute_all(g, params)
        und_g = symmetrize(g)
        assert failures == {}
        assert results["closeness"].scores == closeness(und_g).scores
        assert results["betweenness"].scores == betweenness(und_g).scores
        assert results["degree"].scores == degree(und_g).scores
        assert results["pagerank"].scores == pagerank(g).scores
        assert results["eigenvector"].scores == eigenvector(und_g).scores

    @pytest.mark.parametrize(
        "g",
        [
            oracles.random_directed_graph(random.Random(29), 30, edge_prob=0.15),
            TRIANGLE_AND_PAIR,
            WeightedGraph(nodes=(1, 2), edges={(1, 2): 1.0, (2, 1): 2.0}, directed=True),
        ],
        ids=["connected", "disconnected", "two-node"],
    )
    def test_shared_path_pass_is_bitwise_standalone(self, g):
        results, failures = compute_all(g, metrics=("closeness", "betweenness"))
        und_g = symmetrize(g)
        alone = closeness(und_g)
        assert alone.params["on_component"] is (g is TRIANGLE_AND_PAIR)
        assert results["closeness"].params == alone.params
        assert {v: s.hex() for v, s in results["closeness"].scores.items()} == {
            v: s.hex() for v, s in alone.scores.items()
        }
        if g.n < 3:
            with pytest.raises(DomainError) as info:
                betweenness(und_g)
            assert str(failures["betweenness"]) == str(info.value)
            return
        assert failures == {}
        assert {v: s.hex() for v, s in results["betweenness"].scores.items()} == {
            v: s.hex() for v, s in betweenness(und_g).scores.items()
        }

    def test_solvers_called_through_module_attributes(self, monkeypatch):
        """The benchmark's tracer times degree, PageRank and eigenvector by
        replacing these attributes of ``gridhot.centrality``; compute_all
        must reach each solver through them, once, with the shared graphs."""
        g = oracles.random_directed_graph(random.Random(31), 12, edge_prob=0.3)
        calls = []
        for name in ("degree", "pagerank", "eigenvector"):
            solver = getattr(centrality, name)

            def counted(graph, *args, _name=name, _solver=solver, **kwargs):
                calls.append((_name, graph.directed))
                return _solver(graph, *args, **kwargs)

            monkeypatch.setattr(centrality, name, counted)
        results, failures = compute_all(g)
        assert failures == {}
        assert sorted(calls) == [("degree", False), ("eigenvector", False), ("pagerank", True)]
        assert set(results) == set(centrality.METRICS)

    def test_unknown_metric_rejected(self):
        g = WeightedGraph(nodes=(1, 2), edges={(1, 2): 1.0}, directed=True)
        with pytest.raises(DomainError):
            compute_all(g, metrics=("pagerank", "fame"))

    def test_metric_subset(self):
        g = WeightedGraph(nodes=(1, 2), edges={(1, 2): 1.0}, directed=True)
        results, failures = compute_all(g, metrics=("degree",))
        assert set(results) == {"degree"} and failures == {}


def integer_weighted(g: WeightedGraph, rng: random.Random) -> WeightedGraph:
    """The same edges with small integer weights, so many paths tie exactly."""
    edges = {pair: float(rng.randint(1, 3)) for pair in sorted(g.edges)}
    return WeightedGraph(nodes=g.nodes, edges=edges, directed=g.directed)


class TestNetworkxCrossCheck:
    """All four iterative and path metrics against networkx at scale."""

    @pytest.mark.parametrize(
        "n, seed, integer_weights",
        [(50, 41, False), (120, 43, False), (300, 47, False), (150, 53, True)],
    )
    def test_matches_networkx(self, n, seed, integer_weights):
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        g = oracles.random_directed_graph(rng, n, edge_prob=6.0 / n)
        if integer_weights:
            g = integer_weighted(g, rng)
        results, failures = compute_all(g)
        assert failures == {}
        und_g = symmetrize(g)
        G = nx.Graph()
        G.add_nodes_from(und_g.nodes)
        G.add_weighted_edges_from((u, v, w) for (u, v), w in und_g.edges.items() if u < v)
        D = nx.DiGraph()
        D.add_nodes_from(g.nodes)
        D.add_weighted_edges_from((u, v, w) for (u, v), w in g.edges.items())
        # networkx scales closeness by n - 1 on a connected graph
        reference = {
            "closeness": {
                v: c / (n - 1) for v, c in nx.closeness_centrality(G, distance="weight").items()
            },
            "betweenness": nx.betweenness_centrality(G, weight="weight", normalized=False),
            "pagerank": nx.pagerank(D, alpha=0.85, weight="weight", tol=1e-14, max_iter=10_000),
            "eigenvector": nx.eigenvector_centrality(
                G, weight="weight", tol=1e-14, max_iter=10_000
            ),
        }
        for metric, expected in reference.items():
            assert results[metric].scores == pytest.approx(expected, rel=1e-9), metric


def _two_pieces(rng: random.Random) -> WeightedGraph:
    """Two random directed graphs side by side, 45 and 30 nodes."""
    left = oracles.random_directed_graph(rng, 45, edge_prob=0.15)
    right = oracles.random_directed_graph(rng, 30, edge_prob=0.2)
    edges = dict(left.edges)
    edges.update({(u + 100, v + 100): w for (u, v), w in right.edges.items()})
    nodes = left.nodes + tuple(u + 100 for u in right.nodes)
    return WeightedGraph(nodes=nodes, edges=edges, directed=True)


# graphs large enough for the path pass to fork
PARALLEL_GRAPHS = {
    "connected": oracles.random_directed_graph(random.Random(61), 80, edge_prob=0.08),
    "disconnected": _two_pieces(random.Random(63)),
    "integer-ties": integer_weighted(
        oracles.random_directed_graph(random.Random(67), 90, edge_prob=0.06), random.Random(69)
    ),
}


def _hex(scores: dict[int, float]) -> dict[int, str]:
    return {v: s.hex() for v, s in scores.items()}


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children this process forks during the test."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelPathPass:
    """The path pass split over W forked workers against the one-process loop."""

    def test_worker_count_is_affinity(self):
        if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
            assert centrality._worker_count() == len(os.sched_getaffinity(0))
        else:
            assert centrality._worker_count() == 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(PARALLEL_GRAPHS))
    def test_bitwise_equal_to_serial(self, monkeypatch, forks, workers, kind):
        g = PARALLEL_GRAPHS[kind]
        assert g.n >= PARALLEL_MIN_NODES
        monkeypatch.setattr(centrality, "_worker_count", lambda: 1)
        serial, serial_failures = compute_all(g)
        assert forks == []
        monkeypatch.setattr(centrality, "_worker_count", lambda: workers)
        results, failures = compute_all(g)
        assert len(forks) == (workers if workers > 1 else 0)
        assert_no_children()

        close, between, on_component = oracles.reference_path_sums(symmetrize(g))
        assert _hex(results["closeness"].scores) == _hex(dict(zip(g.nodes, close)))
        assert _hex(results["betweenness"].scores) == _hex(
            {v: b / 2.0 for v, b in zip(g.nodes, between)}
        )
        assert results["closeness"].params["on_component"] is on_component
        assert on_component is (kind == "disconnected")
        assert list(results) == list(serial)
        for metric, scores in serial.items():
            assert _hex(results[metric].scores) == _hex(scores.scores), metric
            assert results[metric].params == scores.params, metric
        assert {k: str(e) for k, e in failures.items()} == {
            k: str(e) for k, e in serial_failures.items()
        }
        assert set(failures) == ({"eigenvector"} if kind == "disconnected" else set())

    @pytest.mark.parametrize("metric", [closeness, betweenness])
    def test_standalone_metrics_fork_too(self, monkeypatch, forks, metric):
        g = symmetrize(PARALLEL_GRAPHS["integer-ties"])
        monkeypatch.setattr(centrality, "_worker_count", lambda: 1)
        serial = metric(g)
        monkeypatch.setattr(centrality, "_worker_count", lambda: 3)
        assert _hex(metric(g).scores) == _hex(serial.scores)
        assert len(forks) == 3
        assert_no_children()

    @pytest.mark.parametrize("n", [20, PARALLEL_MIN_NODES - 1])
    def test_small_graphs_never_fork(self, monkeypatch, n):
        calls = []

        def refused_fork():
            calls.append(1)
            raise AssertionError("the path pass forked below its threshold")

        monkeypatch.setattr(os, "fork", refused_fork)
        monkeypatch.setattr(centrality, "_worker_count", lambda: 3)
        g = oracles.random_directed_graph(random.Random(n), n, edge_prob=6.0 / n)
        results, _ = compute_all(g)
        assert {"closeness", "betweenness"} <= set(results)
        assert calls == []

    def test_children_reaped_when_a_solver_raises(self, monkeypatch, forks):
        def broken(*args, **kwargs):
            raise RuntimeError("solver broke")

        monkeypatch.setattr(centrality, "_worker_count", lambda: 2)
        monkeypatch.setattr(centrality, "pagerank", broken)
        with pytest.raises(RuntimeError, match="solver broke"):
            compute_all(PARALLEL_GRAPHS["connected"])
        assert len(forks) == 2
        assert_no_children()

    def test_fork_failure_named(self, monkeypatch):
        real_fork = os.fork
        calls = []

        def second_fork_fails():
            calls.append(1)
            if len(calls) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(centrality, "_worker_count", lambda: 3)
        monkeypatch.setattr(os, "fork", second_fork_fails)
        open_fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        with pytest.raises(WorkerError, match="cannot start a shortest-path worker: .*unavailable"):
            compute_all(PARALLEL_GRAPHS["connected"])
        assert len(calls) == 2
        assert_no_children()
        if open_fds is not None:
            assert len(os.listdir("/proc/self/fd")) == open_fds

    @pytest.mark.parametrize(
        "die, source, expected",
        [
            (lambda: os._exit(3), 5, "worker 2 of 2 exited with status 3"),
            (lambda: os.kill(os.getpid(), 9), 4, "worker 1 of 2 was killed by signal 9"),
        ],
        ids=["exit", "signal"],
    )
    def test_dead_worker_named(self, monkeypatch, die, source, expected):
        real_terms = centrality._source_terms

        def dying_terms(adj, s, *args):
            if s == source:
                die()
            return real_terms(adj, s, *args)

        monkeypatch.setattr(centrality, "_worker_count", lambda: 2)
        monkeypatch.setattr(centrality, "_source_terms", dying_terms)
        g = PARALLEL_GRAPHS["connected"]
        with pytest.raises(WorkerError) as info:
            compute_all(g)
        assert str(info.value) == f"shortest-path {expected} before sending the paths from node {g.nodes[source]}"
        assert_no_children()


class TestFloatRange:
    """Weights near the largest float fail the metrics they overflow, each
    with its own status, and leave the others alone."""

    def test_overflowing_metrics_recorded_as_failures(self):
        # each edge is finite; node 2's two edges and the path 1 -> 3 are not
        g = und([1, 2, 3], [(1, 2, 1e308), (2, 3, 1e308)])
        results, failures = compute_all(g)
        assert results == {}
        assert str(failures["degree"]) == "the edge weights of node 2 sum past the largest float"
        assert str(failures["pagerank"]) == (
            "the out-edge weights of node 2 sum past the largest float"
        )
        assert str(failures["eigenvector"]).startswith("eigenvector left the float range (")
        path_error = "the path lengths from node 1 or their sum pass the largest float"
        assert str(failures["closeness"]) == str(failures["betweenness"]) == path_error
        for metric in (closeness, betweenness):
            with pytest.raises(DomainError, match=path_error):
                metric(g)

    def test_closeness_sum_past_largest_float(self):
        # every path is finite; node 1's distances, 1e308 and 1.5e308, sum past it
        g = und([1, 2, 3], [(1, 2, 1e308), (2, 3, 1e308), (1, 3, 1.5e308)])
        with pytest.raises(DomainError, match="from node 1 or their sum"):
            closeness(g)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_failure_for_any_worker_count(self, monkeypatch, workers):
        # a path of PARALLEL_MIN_NODES + 6 nodes whose far ends are more than
        # the largest float apart
        n = PARALLEL_MIN_NODES + 6
        g = und(range(1, n + 1), [(v, v + 1, 1e307) for v in range(1, n)])
        monkeypatch.setattr(centrality, "_worker_count", lambda: workers)
        results, failures = compute_all(g)
        assert sorted(results) == ["degree", "pagerank"]
        assert str(failures["closeness"]) == (
            "the path lengths from node 1 or their sum pass the largest float"
        )
        assert failures["betweenness"] is failures["closeness"]
        assert_no_children()


class TestRank:
    def test_ties_broken_by_id(self):
        scores = CentralityScores("degree", {1: 0.5, 2: 0.9, 3: 0.5})
        assert rank(scores) == [(2, 0.9), (1, 0.5), (3, 0.5)]

    def test_single_entry(self):
        assert rank(CentralityScores("degree", {7: 1.0})) == [(7, 1.0)]

    def test_all_equal(self):
        scores = CentralityScores("degree", {3: 1.0, 1: 1.0, 2: 1.0})
        assert [cell for cell, _ in rank(scores)] == [1, 2, 3]


def test_scores_without_params_share_no_dict():
    first, second = CentralityScores("degree", {1: 1.0}), CentralityScores("degree", {2: 1.0})
    assert first.params == second.params == {}
    first.params["iterations"] = 3
    assert second.params == {} and CentralityScores("degree", {}).params == {}
    assert CentralityScores("degree", {}, {"tol": 1e-9}).params == {"tol": 1e-9}


class TestProperties:
    def test_permutation_equivariance(self):
        rng = random.Random(31)
        for _ in range(10):
            g = oracles.random_connected_graph(rng, rng.randint(3, 7))
            mapping = dict(zip(g.nodes, rng.sample(range(100, 200), g.n)))
            relabeled = oracles.undirected_graph(
                mapping.values(), [(mapping[u], mapping[v], w) for (u, v), w in g.edges.items()]
            )
            for metric in (closeness, betweenness, degree, eigenvector):
                base = metric(g).scores
                moved = metric(relabeled).scores
                for node, value in base.items():
                    assert moved[mapping[node]] == pytest.approx(value, abs=1e-9)

    def test_weight_scaling_behaviour(self):
        rng = random.Random(37)
        for _ in range(10):
            g = oracles.random_connected_graph(rng, rng.randint(3, 7))
            factor = 2.0  # exact in floating point
            scaled = WeightedGraph(
                nodes=g.nodes,
                edges={pair: w * factor for pair, w in g.edges.items()},
                directed=False,
            )
            base_close, scaled_close = closeness(g).scores, closeness(scaled).scores
            base_between, scaled_between = betweenness(g).scores, betweenness(scaled).scores
            base_degree, scaled_degree = degree(g).scores, degree(scaled).scores
            base_eig, scaled_eig = eigenvector(g), eigenvector(scaled)
            for node in g.nodes:
                assert scaled_close[node] == pytest.approx(base_close[node] / factor, rel=1e-12)
                assert scaled_between[node] == pytest.approx(base_between[node], abs=1e-9)
                assert scaled_degree[node] == base_degree[node] * factor
                assert scaled_eig.scores[node] == pytest.approx(base_eig.scores[node], abs=1e-9)
            assert scaled_eig.params["lambda"] == pytest.approx(
                base_eig.params["lambda"] * factor, rel=1e-9
            )
            base_order = [cell for cell, _ in rank(closeness(g))]
            scaled_order = [cell for cell, _ in rank(closeness(scaled))]
            assert base_order == scaled_order


def _random_ascending_graph(rng: random.Random) -> WeightedGraph:
    """A directed graph of 3-20 nodes whose edges were inserted in ascending
    key order; every other one has integer weights with many ties."""
    n = rng.randint(3, 20)
    tied = rng.random() < 0.5
    edges = {}
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and rng.random() < 0.3:
                edges[(u, v)] = float(rng.randint(1, 3)) if tied else rng.uniform(0.1, 10.0)
    return WeightedGraph(nodes=tuple(range(1, n + 1)), edges=edges, directed=True)


def _all_outcomes(g: WeightedGraph):
    results, failures = compute_all(g)
    return (
        {name: ({v: s.hex() for v, s in r.scores.items()}, r.params) for name, r in results.items()},
        {name: str(exc) for name, exc in failures.items()},
    )


class TestEdgeInsertionOrder:
    def test_scores_depend_only_on_the_graph(self):
        """Every metric gives the same bits, params and failure texts whatever
        the order in which a graph's edges were inserted."""
        rng = random.Random(41)
        for _ in range(120):
            g = _random_ascending_graph(rng)
            items = list(g.edges.items())
            rng.shuffle(items)
            shuffled = WeightedGraph(nodes=g.nodes, edges=dict(items), directed=True)
            assert _all_outcomes(shuffled) == _all_outcomes(g)
            # the oracle adds out-weights in g.edges order: ascending here
            for variant in centrality.PAGERANK_VARIANTS:
                got, want = pagerank(g, variant=variant), oracles.pagerank(g, variant=variant)
                assert {v: s.hex() for v, s in got.scores.items()} == {
                    v: s.hex() for v, s in want.scores.items()
                }
                assert got.params == want.params
