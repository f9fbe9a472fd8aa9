"""The package's inner loops against frozen copies of their earlier versions.

Every score, iteration count, residual and correlation must match ``oracles`` to
the bit (compared as ``float.hex``), and the shortest-path pass must give
the same distances, path counts, predecessors and settle order.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gridhot.centrality import (
    _source_pass,
    _source_terms,
    degree,
    eigenvector,
    pagerank,
)
from gridhot.compare import MetricSeries, autocorrelation, cross_correlation, dispersion_of
from gridhot.errors import ConvergenceError, DomainError
from gridhot.graph import WeightedGraph, symmetrize

SIZES = [2, 3, 5, 17, 64, 300]


def _hex(values):
    if isinstance(values, dict):
        return {key: _hex(value) for key, value in values.items()}
    if isinstance(values, (list, tuple)):
        return [_hex(value) for value in values]
    return values.hex() if isinstance(values, float) else values


def _outcome(run, *args, **kwargs):
    """A result's fields as hex, or the type and text of the error it raised."""
    try:
        result = run(*args, **kwargs)
    except (ArithmeticError, ValueError, DomainError, ConvergenceError) as exc:
        return type(exc), str(exc), _hex(getattr(exc, "residual", None))
    return _hex(result._asdict())


def _assert_same_passes(g: WeightedGraph):
    """The pass on the full and on the path adjacency against the oracle's
    pass on the full adjacency."""
    full = oracles._indexed_adjacency(g)
    for adj in (full, g.path_adjacency):
        for s in range(g.n):
            got = _source_pass(adj, s)
            want = oracles._source_pass(full, s)
            assert _hex(got[0]) == _hex(want[0]), s
            assert got[1:] == want[1:], s


def _diamond(gap: float, long_first: bool) -> WeightedGraph:
    """Source 1 reaches 4 through 2 and through 3, one way longer by ``gap``
    relative to the path length 2; the longer way settles its middle node
    first when ``long_first``."""
    long_w, short_w = 1.0 + 2.0 * gap, 1.0
    w24, w34 = (long_w, short_w) if long_first else (short_w, long_w)
    return oracles.undirected_graph(
        [1, 2, 3, 4], [(1, 2, 1.0), (1, 3, 1.0), (2, 4, w24), (3, 4, w34)]
    )


def _perturbed(rng: random.Random, n: int) -> WeightedGraph:
    """Integer weights with some scaled by 1 ± a gap around the reject margin."""
    g = oracles.random_connected_graph(rng, n, extra_edge_prob=0.3, w_lo=1.0, w_hi=3.0)
    pairs = []
    for (u, v), w in g.edges.items():
        if u < v:
            w = float(round(w))
            if rng.random() < 0.5:
                w *= 1.0 + rng.choice([5e-10, -5e-10, 5e-7, -5e-7, 2e-6, -2e-6, 9.9e-7])
            pairs.append((u, v, w))
    return oracles.undirected_graph(g.nodes, pairs)


class TestPathPassOracle:
    @pytest.mark.parametrize("long_first", [True, False])
    @pytest.mark.parametrize(
        "gap, ties", [(5e-10, True), (5e-7, False), (2e-6, False)]
    )
    def test_near_ties(self, gap, ties, long_first):
        g = _diamond(gap, long_first)
        _assert_same_passes(g)
        dist, sigma, preds, _ = _source_pass(g.path_adjacency, 0)
        assert sigma[3] == (2 if ties else 1)
        if not ties:
            # the shorter way wins whichever way arrives first
            assert preds[3] == [2 if long_first else 1]
            assert dist[3] == 2.0

    @pytest.mark.parametrize("seed", range(6))
    def test_near_tie_graphs(self, seed):
        rng = random.Random(seed)
        _assert_same_passes(_perturbed(rng, rng.randint(4, 40)))

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_tie_heavy_graphs(self, seed):
        rng = random.Random(100 + seed)
        g = oracles.random_connected_graph(rng, rng.randint(3, 40), extra_edge_prob=0.4)
        pairs = [(u, v, float(rng.randint(1, 3))) for (u, v) in g.edges if u < v]
        _assert_same_passes(oracles.undirected_graph(g.nodes, pairs))

    @pytest.mark.parametrize("seed", range(4))
    def test_disconnected_graphs(self, seed):
        rng = random.Random(200 + seed)
        g = symmetrize(oracles.random_directed_graph(rng, rng.randint(5, 40), edge_prob=0.05))
        _assert_same_passes(g)

    @pytest.mark.parametrize("n", [64, 150, 300])
    def test_hotspot_sized_graphs(self, n):
        """About 15% density, weights over a 60x range, as on the benchmark's
        250-node hotspot graphs, where the path adjacency drops over a third."""
        g = oracles.random_connected_graph(
            random.Random(250 + n), n, extra_edge_prob=0.15, w_lo=1.0, w_hi=60.0
        )
        assert _kept_share(g) < 0.9
        _assert_same_passes(g)

    @pytest.mark.parametrize("n", [64, 120])
    def test_large_integer_tie_heavy_graphs(self, n):
        rng = random.Random(260 + n)
        g = oracles.random_connected_graph(rng, n, extra_edge_prob=0.15)
        pairs = [(u, v, float(rng.randint(1, 3))) for (u, v) in g.edges if u < v]
        g = oracles.undirected_graph(g.nodes, pairs)
        assert _kept_share(g) < 1.0
        _assert_same_passes(g)

    @pytest.mark.parametrize("n", [64, 100])
    def test_large_near_tie_graphs(self, n):
        g = _perturbed(random.Random(270 + n), n)
        assert _kept_share(g) < 1.0
        _assert_same_passes(g)

    def test_large_disconnected_graph(self):
        g = symmetrize(oracles.random_directed_graph(random.Random(280), 120, edge_prob=0.012))
        assert g.components > 1
        _assert_same_passes(g)

    def test_rule_off_where_path_lengths_may_overflow(self):
        """With 2 * n * W past the largest float nothing is left out, even an
        edge that a detour beats by far, and the passes still match."""
        rng = random.Random(290)
        g = oracles.random_connected_graph(rng, 70, extra_edge_prob=0.15, w_lo=1.0, w_hi=60.0)
        # n * W is 1.5e308: the margin is finite, twice it is not
        scale = 1.5e308 / (g.n * max(g.edges.values()))
        pairs = [(u, v, w * scale) for (u, v), w in g.edges.items() if u < v]
        big = oracles.undirected_graph(g.nodes, pairs)
        top = max(big.edges.values())
        assert math.isfinite(big.n * top) and math.isinf(2.0 * big.n * top)
        assert big.path_adjacency == oracles._indexed_adjacency(big)
        assert _kept_share(g) < 1.0
        _assert_same_passes(big)

    def test_rule_drops_only_edges_a_detour_beats_by_the_margin(self):
        # 1-2-3 is a detour of 2.0 around the edge 1-3; the margin is
        # 1e-6 * (n * W + w), about 1.8e-5 here
        margin = 1e-6 * (4 * 4.0 + 2.0)
        for w13, dropped in [(4.0, True), (2.0 + 2 * margin, True), (2.0 + margin / 2, False),
                             (2.0, False)]:
            g = oracles.undirected_graph(
                [1, 2, 3, 4], [(1, 2, 1.0), (2, 3, 1.0), (1, 3, w13), (3, 4, 4.0)]
            )
            full = {(u, v) for u, row in enumerate(oracles._indexed_adjacency(g)) for v, _ in row}
            kept = {(u, v) for u, row in enumerate(g.path_adjacency) for v, _ in row}
            assert kept == (full - {(0, 2), (2, 0)} if dropped else full), w13
            _assert_same_passes(g)

    def test_directed_graphs_keep_every_edge(self):
        g = WeightedGraph(
            nodes=(1, 2, 3), edges={(1, 2): 1.0, (2, 3): 1.0, (1, 3): 9.0}, directed=True
        )
        assert g.path_adjacency == oracles._indexed_adjacency(g)


def _kept_share(g: WeightedGraph) -> float:
    """The share of adjacency entries the path adjacency keeps."""
    return sum(map(len, g.path_adjacency)) / sum(map(len, oracles._indexed_adjacency(g)))


# weights with exact integer ties, ties within and just outside the path
# tolerance, and spreads of a few decades
_WEIGHTS = st.one_of(
    st.integers(min_value=1, max_value=4).map(float),
    st.sampled_from([1.0, 2.0, 3.0]).flatmap(
        lambda w: st.sampled_from([5e-10, -5e-10, 5e-7, -5e-7, 2e-6, -2e-6]).map(
            lambda gap: w * (1.0 + gap)
        )
    ),
    st.floats(min_value=0.01, max_value=100.0),
)


@st.composite
def _undirected_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=14))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return oracles.undirected_graph(
        range(1, n + 1), [(u, v, draw(_WEIGHTS)) for u, v in chosen]
    )


@settings(max_examples=200, deadline=None)
@given(g=_undirected_graphs())
def test_source_terms_same_on_path_and_full_adjacency(g):
    """Closeness, partial flag and dependencies of every source, to the bit."""
    for s in range(g.n):
        assert _hex(_source_terms(g.path_adjacency, s, True, True)) == _hex(
            _source_terms(oracles._indexed_adjacency(g), s, True, True)
        ), s


def _directed_with_dangling(rng: random.Random, n: int) -> WeightedGraph:
    g = oracles.random_directed_graph(
        rng, n, edge_prob=min(0.5, 6.0 / n), w_lo=1e-3, w_hi=1e3
    )
    dangling = set(rng.sample(g.nodes, max(1, n // 5)))
    edges = {key: w for key, w in g.edges.items() if key[0] not in dangling}
    return WeightedGraph(nodes=g.nodes, edges=edges, directed=True)


def _connected(rng: random.Random, n: int, w_lo: float = 1e-3, w_hi: float = 1e3):
    return oracles.random_connected_graph(
        rng, n, extra_edge_prob=min(0.4, 8.0 / n), w_lo=w_lo, w_hi=w_hi
    )


class TestKernelOracles:
    @pytest.mark.parametrize("n", SIZES)
    def test_degree(self, n):
        g = _connected(random.Random(n), n)
        assert _hex(degree(g).scores) == _hex(oracles.degree(g).scores)

    @pytest.mark.parametrize("variant", ["weighted", "literal"])
    @pytest.mark.parametrize("n", SIZES)
    def test_pagerank(self, n, variant):
        g = _directed_with_dangling(random.Random(300 + n), n)
        for damping in (0.85, 0.7):
            got = pagerank(g, damping=damping, variant=variant)
            want = oracles.pagerank(g, damping=damping, variant=variant)
            assert list(got.scores) == list(want.scores)
            assert _hex(got.scores) == _hex(want.scores)
            assert got.params == want.params

    @pytest.mark.parametrize("n", SIZES)
    def test_eigenvector(self, n):
        # weights within two decades, so that power iteration converges
        g = _connected(random.Random(400 + n), n, w_lo=0.1, w_hi=10.0)
        got = eigenvector(g)
        want = oracles.eigenvector(g)
        assert list(got.scores) == list(want.scores)
        assert _hex(got.scores) == _hex(want.scores)
        assert _hex(got.params) == _hex(want.params)

    def test_far_from_one_weights(self):
        """Weights near the float limits: the same scores or the same error."""
        rng = random.Random(450)
        for scale in (1e-300, 1e150, 1e300):
            g = _connected(rng, 12)
            big = oracles.undirected_graph(
                g.nodes, [(u, v, w * scale) for (u, v), w in g.edges.items() if u < v]
            )
            assert _outcome(degree, big) == _outcome(oracles.degree, big)
            assert _outcome(eigenvector, big) == _outcome(oracles.eigenvector, big)

    @pytest.mark.parametrize("max_iter", [1, 2, 5])
    def test_nonconvergence(self, max_iter):
        rng = random.Random(500 + max_iter)
        directed = _directed_with_dangling(rng, 40)
        undirected = _connected(rng, 40)
        for run, seed_run, g in [
            (pagerank, oracles.pagerank, directed),
            (eigenvector, oracles.eigenvector, undirected),
        ]:
            with pytest.raises(ConvergenceError) as got:
                run(g, max_iter=max_iter)
            with pytest.raises(ConvergenceError) as want:
                seed_run(g, max_iter=max_iter)
            assert got.value.residual.hex() == want.value.residual.hex()
            assert got.value.iterations == want.value.iterations == max_iter
            assert str(got.value) == str(want.value)

    def test_empty_graph_error_unchanged(self):
        g = WeightedGraph(nodes=(), edges={}, directed=True)
        assert _outcome(pagerank, g) == _outcome(oracles.pagerank, g)


def _series(rng: random.Random, length: int, span: int = 150) -> MetricSeries:
    values = []
    for _ in range(length):
        kind = rng.random()
        if kind < 0.15:
            value = 0.0
        elif kind < 0.3:
            value = rng.randint(1, 1 << 20) * 5e-324
        else:
            value = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-span, span)
        values.append(value)
    return MetricSeries(metric="degree", ordering=tuple(range(1, length + 1)), values=tuple(values))


class TestCorrelationOracles:
    @pytest.mark.parametrize("length", [1, 2, 3, 10, 257, 1000])
    def test_correlations(self, length):
        rng = random.Random(600 + length)
        f, g = _series(rng, length), _series(rng, length)
        for got, want in [
            (cross_correlation(f, g), oracles.cross_correlation(f, g)),
            (cross_correlation(g, f), oracles.cross_correlation(g, f)),
            (autocorrelation(f), oracles.autocorrelation(f)),
        ]:
            assert got.shifts == want.shifts
            assert _hex(got.values) == _hex(want.values)

    @pytest.mark.parametrize("length", [1, 2, 10, 1000])
    def test_dispersion(self, length):
        rng = random.Random(700 + length)
        values = [abs(v) for v in _series(rng, length).values]
        got, want = dispersion_of(values), oracles.dispersion_of(values)
        assert _hex([got.variance, got.cv]) == _hex([want.variance, want.cv])

    @pytest.mark.parametrize("seed", range(4))
    def test_values_near_the_float_limits(self, seed):
        """Products and squares that overflow: the same values or the same error."""
        rng = random.Random(750 + seed)
        f, g = _series(rng, 40, span=300), _series(rng, 40, span=300)
        assert _outcome(cross_correlation, f, g) == _outcome(oracles.cross_correlation, f, g)
        assert _outcome(autocorrelation, f) == _outcome(oracles.autocorrelation, f)
        values = [abs(v) for v in f.values]
        assert _outcome(dispersion_of, values) == _outcome(oracles.dispersion_of, values)

    def test_squares_keep_pow(self):
        """``x ** 2`` and ``x * x`` differ in the last bit for some x on some
        libms; the variance of ``[x, -x]`` is exactly ``x ** 2``."""
        rng = random.Random(800)
        draws = (rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-100, 100) for _ in range(200_000))
        odd = next((x for x in draws if x ** 2 != x * x), None)
        if odd is None:
            pytest.skip("this libm squares every sampled value as a product does")
        assert dispersion_of([odd, -odd]).variance == odd ** 2
        assert oracles.dispersion_of([odd, -odd]).variance == odd ** 2
