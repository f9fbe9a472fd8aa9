"""Acceptance gate: one test per criterion, each printed as a pass/fail line.

The first six criteria are self-contained properties over random or
synthetic inputs.  The last four reproduce reference per-city results and
run only when the real dataset is available under ``GRIDHOT_DATA_DIR``
(see README for the expected layout); otherwise they are skipped.
"""

import itertools
import math
import os
import random
from pathlib import Path

import pytest

import oracles
from gridhot.centrality import (
    betweenness,
    closeness,
    compute_all,
    eigenvector,
    pagerank,
    rank,
)
from gridhot.cli import main
from gridhot.compare import (
    MetricSeries,
    autocorrelation,
    compare_weeks,
    cross_correlation,
    dispersion_of,
    to_series,
)
from gridhot.graph import build_graph, symmetrize
from gridhot.hotspot import calibrate_p, detect_hotspots
from gridhot.ingest import (
    TimeWindow,
    TrafficAggregate,
    aggregate_interactions,
    aggregate_traffic,
    parse_activity,
    parse_interactions,
)
from gridhot.centrality import CentralityScores, degree
from gridhot.synth import SynthConfig, generate_city

WEEK_MS = 7 * 24 * 3600 * 1000
WINDOW = TimeWindow(0, WEEK_MS)


def report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_centrality_oracle_equivalence():
    rng = random.Random(20131118)
    for trial in range(200):
        n = rng.randint(3, 8)
        g = oracles.random_connected_graph(rng, n, extra_edge_prob=rng.uniform(0.2, 0.7))

        close_scores = closeness(g).scores
        close_oracle = oracles.closeness_oracle(g)
        for node in g.nodes:
            assert abs(close_scores[node] - close_oracle[node]) <= 1e-9

        between_scores = betweenness(g).scores
        between_oracle = oracles.betweenness_oracle(g)
        for node in g.nodes:
            assert abs(between_scores[node] - between_oracle[node]) <= 1e-9

        eig_scores = eigenvector(g).scores
        eig_oracle, _ = oracles.eigenvector_dense(g)
        sign = 1.0 if sum(eig_oracle.values()) >= 0 else -1.0
        for node in g.nodes:
            assert abs(eig_scores[node] - sign * eig_oracle[node]) <= 1e-7

        pr_scores = pagerank(g).scores
        pr_oracle = oracles.pagerank_dense(g)
        l1 = math.fsum(abs(pr_scores[node] - pr_oracle[node]) for node in g.nodes)
        assert l1 <= 1e-8
        assert abs(math.fsum(pr_scores.values()) - 1.0) <= 1e-9
    report(1, "centrality oracle equivalence on 200 random graphs")


def test_criterion_2_hotspot_threshold_properties():
    rng = random.Random(20131125)
    for trial in range(100):
        n_cells = rng.randint(1, 60)
        intensities = {cell: rng.uniform(0.0, 1000.0) for cell in range(1, n_cells + 1)}
        traffic = TrafficAggregate(WINDOW, intensities)

        previous = None
        for tenth in range(11):
            hotspots = detect_hotspots(traffic, tenth / 10)
            members = set(hotspots.members)
            if previous is not None:
                assert members <= previous
            for cell in members:
                assert intensities[cell] >= hotspots.spec.mean_intensity
            previous = members

        p = rng.random()
        base_members = detect_hotspots(traffic, p).members
        for factor in (0.5, 3.0):
            scaled = TrafficAggregate(
                WINDOW, {cell: value * factor for cell, value in intensities.items()}
            )
            assert detect_hotspots(scaled, p).members == base_members
    report(2, "hotspot threshold monotonicity, mean bound, scale covariance")


def test_criterion_3_correlation_identities():
    rng = random.Random(20131208)
    for trial in range(100):
        ordering = tuple(range(1, 21))
        f = MetricSeries("closeness", ordering, tuple(rng.uniform(0.01, 10.0) for _ in range(20)))
        g = MetricSeries("closeness", ordering, tuple(rng.uniform(0.01, 10.0) for _ in range(20)))

        auto = autocorrelation(f)
        assert cross_correlation(f, f) == auto
        for shift, value in zip(auto.shifts, auto.values):
            assert value == auto.values[auto.shifts.index(-shift)]

        cross0, auto_f0, auto_g0 = (
            result.values[result.shifts.index(0)]
            for result in (cross_correlation(f, g), auto, autocorrelation(g))
        )
        assert cross0**2 <= auto_f0 * auto_g0 * (1 + 1e-12)

        self_report = compare_weeks(f, f)
        assert all(value == 0.0 for value in self_report.per_node_rel_diff_pct.values())
        assert all(value == 0.0 for value in self_report.auto_cross_diff.values)
    report(3, "correlation identities on 100 random series")


CONCENTRATED = dict(
    grid_side=10, n_centers=4, concentration=8.0, decay_radius=2.5, noise=0.3, records_per_cell=3
)


def _synthetic_aggregates(tmp_path, seed, **overrides):
    settings = dict(CONCENTRATED)
    settings.update(overrides)
    out = tmp_path / f"city_{seed}_{settings['concentration']}"
    out.mkdir()
    city = generate_city(SynthConfig(window=WINDOW, seed=seed, **settings), out)
    traffic = aggregate_traffic(parse_activity(city.activity_path), WINDOW)
    interactions = aggregate_interactions(parse_interactions(city.interactions_path), WINDOW)
    return traffic, interactions


def test_criterion_4_two_metric_families_disagree(tmp_path):
    differing = 0
    for seed in range(50):
        traffic, interactions = _synthetic_aggregates(tmp_path, seed)
        _, hotspots = calibrate_p(traffic, 20)
        graph = symmetrize(build_graph(interactions, hotspots))
        top_by_closeness = rank(closeness(graph))[0][0]
        top_by_degree = rank(degree(graph))[0][0]
        if top_by_closeness != top_by_degree:
            differing += 1
    assert differing >= 40  # >= 80% of 50 trials
    report(4, f"two families disagree on the top node in {differing}/50 trials")


def test_criterion_5_dispersion_contrast(tmp_path):
    for seed in range(20):
        cvs = {}
        for concentration in (5.0, 50.0):
            traffic, _ = _synthetic_aggregates(
                tmp_path, seed, grid_side=8, concentration=concentration, noise=0.1
            )
            cvs[concentration] = dispersion_of(traffic.intensities.values()).cv
        assert cvs[50.0] > cvs[5.0]
    report(5, "concentrated city has strictly larger cv for all 20 seeds")


def _run_chain(base: Path, monkeypatch) -> dict[str, bytes]:
    """Run synth + hotspots + centrality + compare with relative paths."""
    base.mkdir(parents=True)
    monkeypatch.chdir(base)
    config = Path("synth.cfg")
    config.write_text(
        "grid_side = 10\nn_centers = 4\nconcentration = 8.0\ndecay_radius = 2.5\n"
        "noise = 0.3\nseed = 11\nrecords_per_cell = 3\n"
        "window_start = 2013-11-18\nwindow_end = 2013-11-25\n",
        encoding="utf-8",
    )
    week = ("--window-start", "2013-11-18", "--window-end", "2013-11-25")
    assert main(["synth", "--config", "synth.cfg", "--out", "city"]) == 0
    assert (
        main(["hotspots", "--activity", "city/activity.tsv", *week, "--k", "20", "--out", "hs"])
        == 0
    )
    assert (
        main(
            ["centrality", "--interactions", "city/interactions.tsv",
             "--hotspots", "hs/hotspots.csv", *week, "--out", "cen"]
        )
        == 0
    )
    assert (
        main(
            ["compare", "cen/centrality.csv", "cen/centrality.csv",
             "--metrics", "closeness,pagerank", "--out", "cmp"]
        )
        == 0
    )
    contents = {}
    for path in sorted(base.rglob("*")):
        if path.is_file():
            contents[str(path.relative_to(base))] = path.read_bytes()
    return contents


def test_criterion_6_end_to_end_determinism(tmp_path, monkeypatch):
    first = _run_chain(tmp_path / "run1", monkeypatch)
    second = _run_chain(tmp_path / "run2", monkeypatch)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"
    report(6, f"two identical pipeline runs produced {len(first)} byte-identical files")


# --- dataset-gated reproduction suite ------------------------------------

DATA_DIR = os.environ.get("GRIDHOT_DATA_DIR")
needs_dataset = pytest.mark.skipif(
    not DATA_DIR or not Path(DATA_DIR).is_dir(),
    reason="set GRIDHOT_DATA_DIR to the dataset root to run reproduction checks",
)

MILAN_WEEK1 = TimeWindow(1384732800000, 1385337600000)  # 2013-11-18 .. 2013-11-25
MILAN_WEEK2 = TimeWindow(1386460800000, 1387065600000)  # 2013-12-08 .. 2013-12-15


def _city_files(city: str, kind: str) -> list[Path]:
    root = Path(DATA_DIR) / city / kind
    files = sorted(
        path for path in root.glob("*") if path.suffix in {".txt", ".gz", ".tsv", ".csv"}
    )
    if not files:
        pytest.skip(f"no {kind} files under {root}")
    return files


def _city_traffic(city: str, window: TimeWindow) -> TrafficAggregate:
    records = itertools.chain.from_iterable(
        parse_activity(path) for path in _city_files(city, "activity")
    )
    return aggregate_traffic(records, window)


def _city_graph(city: str, window: TimeWindow, hotspots):
    records = itertools.chain.from_iterable(
        parse_interactions(path) for path in _city_files(city, "interactions")
    )
    return build_graph(aggregate_interactions(records, window), hotspots)


def _week_scores(city: str, window: TimeWindow, hotspots):
    graph = _city_graph(city, window, hotspots)
    results, failures = compute_all(graph)
    assert not failures, f"metrics failed: {failures}"
    return results


def _top_ids(scores: CentralityScores, count: int) -> set[int]:
    return {cell for cell, _ in rank(scores)[:count]}


def _rel_diffs(results1, results2, metric: str, members) -> list[float]:
    series1 = to_series(results1[metric], members)
    series2 = to_series(results2[metric], members)
    return list(compare_weeks(series1, series2).per_node_rel_diff_pct.values())


def _corr_diffs(results1, results2, metric: str, members) -> list[float]:
    series1 = to_series(results1[metric], members)
    series2 = to_series(results2[metric], members)
    return list(compare_weeks(series1, series2).auto_cross_diff.values)


@needs_dataset
def test_criterion_7_milan_calibration():
    traffic = _city_traffic("milan", MILAN_WEEK1)
    p, hotspots = calibrate_p(traffic, 20)
    assert abs(p - 0.75) <= 0.05
    assert len(hotspots.members) == 20
    report(7, f"milan week-1 calibration found p={p} with 20 hotspots")


@needs_dataset
def test_criterion_8_milan_week1_rankings():
    traffic = _city_traffic("milan", MILAN_WEEK1)
    _, hotspots = calibrate_p(traffic, 20)
    results = _week_scores("milan", MILAN_WEEK1, hotspots)
    assert _top_ids(results["closeness"], 2) == {4459, 6058}
    assert _top_ids(results["betweenness"], 2) == {4459, 6058}
    for metric in ("degree", "pagerank", "eigenvector"):
        assert _top_ids(results[metric], 3) == {5059, 5159, 5259}
    report(8, "milan week-1 rankings match the reference leaders")


@needs_dataset
def test_criterion_9_milan_week_over_week():
    traffic = _city_traffic("milan", MILAN_WEEK1)
    _, hotspots = calibrate_p(traffic, 20)
    week1 = _week_scores("milan", MILAN_WEEK1, hotspots)
    week2 = _week_scores("milan", MILAN_WEEK2, hotspots)
    members = hotspots.members

    close_diffs = _rel_diffs(week1, week2, "closeness", members)
    assert sum(1 for diff in close_diffs if diff > 10.0) <= 1
    pr_diffs = _rel_diffs(week1, week2, "pagerank", members)
    assert sum(1 for diff in pr_diffs if diff > 8.0) <= 1

    assert max(_corr_diffs(week1, week2, "closeness", members)) <= 6.0
    assert max(_corr_diffs(week1, week2, "pagerank", members)) <= 2.0
    report(9, "milan week-over-week stability within reference bounds")


@needs_dataset
def test_criterion_10_trento_weeks():
    traffic = _city_traffic("trento", MILAN_WEEK1)
    _, hotspots = calibrate_p(traffic, 20)
    week1 = _week_scores("trento", MILAN_WEEK1, hotspots)
    week2 = _week_scores("trento", MILAN_WEEK2, hotspots)
    members = hotspots.members

    assert {2738, 5202} <= _top_ids(week1["closeness"], 2)
    assert {5200, 5201} <= _top_ids(week1["pagerank"], 2)

    close_diffs = _rel_diffs(week1, week2, "closeness", members)
    assert sum(1 for diff in close_diffs if diff > 8.0) <= 1
    pr_diffs = _rel_diffs(week1, week2, "pagerank", members)
    assert max(pr_diffs) <= 2.0

    assert max(_corr_diffs(week1, week2, "closeness", members)) <= 4.0
    assert max(_corr_diffs(week1, week2, "pagerank", members)) <= 1.0
    report(10, "trento rankings and stability within reference bounds")
