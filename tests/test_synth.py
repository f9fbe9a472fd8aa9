import importlib
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gridhot.synth
import oracles
from gridhot.compare import dispersion_of
from gridhot.errors import DomainError, ParseError
from gridhot.fileio import sha256_file
from gridhot.hotspot import detect_hotspots
from gridhot.ingest import (
    TimeWindow,
    aggregate_interactions,
    aggregate_traffic,
    format_activity_line,
    parse_activity,
    parse_grid,
    parse_interactions,
)
from gridhot.synth import (
    SplitMix64,
    SynthConfig,
    SynthStats,
    _select_pairs,
    cell_intensities,
    generate_city,
    load_synth_config,
)

WINDOW = TimeWindow(0, 604_800_000)  # one week in ms
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def config(**overrides):
    defaults = dict(
        grid_side=5,
        window=WINDOW,
        n_centers=2,
        concentration=10.0,
        decay_radius=1.5,
        noise=0.1,
        seed=7,
        records_per_cell=3,
    )
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestSplitMix64:
    def test_reference_vector_seed_zero(self):
        # published test vector for the algorithm
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(123)
        values = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    @settings(max_examples=200, deadline=None)
    @example(seed=0, draws=0)
    @example(seed=2**64 - 1, draws=1)  # the state passes 2**64 at once
    @given(seed=st.integers(-(2**65), 2**65), draws=st.integers(0, 300))
    def test_start_at_draw_equals_draws_made(self, seed, draws):
        rng = SplitMix64(seed)
        for _ in range(draws):
            rng.next_u64()
        jumped = SplitMix64(seed, draws)
        assert jumped._state == rng._state
        assert [jumped.next_u64() for _ in range(3)] == [rng.next_u64() for _ in range(3)]

    @given(seed=st.integers(0, 2**64 - 1), draws=st.integers(0, 2**70))
    def test_state_has_period_two_to_the_64(self, seed, draws):
        assert SplitMix64(seed, draws + 2**64)._state == SplitMix64(seed, draws)._state
        assert SplitMix64(seed, 2**64)._state == seed


class TestGenerateCity:
    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        city_a = generate_city(config(), a)
        city_b = generate_city(config(), b)
        for first, second in (
            (city_a.activity_path, city_b.activity_path),
            (city_a.interactions_path, city_b.interactions_path),
            (city_a.grid_path, city_b.grid_path),
        ):
            assert sha256_file(first) == sha256_file(second)

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        city_a = generate_city(config(seed=1), a)
        city_b = generate_city(config(seed=2), b)
        assert sha256_file(city_a.activity_path) != sha256_file(city_b.activity_path)

    def test_flat_field_all_cells_hotspots(self, tmp_path):
        city = generate_city(config(n_centers=0, noise=0.0), tmp_path)
        traffic = aggregate_traffic(parse_activity(city.activity_path), WINDOW)
        values = set(traffic.intensities.values())
        assert len(traffic.intensities) == 25
        assert max(values) == pytest.approx(min(values), rel=1e-12)
        for p in (0.0, 0.5, 1.0):
            assert len(detect_hotspots(traffic, p).members) == 25

    def test_outputs_are_ingest_ready(self, tmp_path):
        cfg = config()
        city = generate_city(cfg, tmp_path)
        traffic = aggregate_traffic(parse_activity(city.activity_path), WINDOW)
        assert set(traffic.intensities) == set(range(1, 26))
        interactions = aggregate_interactions(parse_interactions(city.interactions_path), WINDOW)
        assert interactions.strengths
        assert all(w > 0 for w in interactions.strengths.values())
        cells = parse_grid(city.grid_path)
        assert sorted(c.cell_id for c in cells) == list(range(1, 26))

    @pytest.mark.parametrize("side", [1, 2, 5])
    def test_grid_is_one_document_dump(self, tmp_path, side):
        # the grid is written a row at a time; its bytes are still those of
        # one json.dumps of the whole FeatureCollection
        city = generate_city(config(grid_side=side), tmp_path)
        text = city.grid_path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert [c.cell_id for c in parse_grid(city.grid_path)] == list(range(1, side * side + 1))

    def test_aggregate_matches_intensity_field(self, tmp_path):
        cfg = config(noise=0.0)
        city = generate_city(cfg, tmp_path)
        expected = cell_intensities(cfg, SplitMix64(cfg.seed))
        traffic = aggregate_traffic(parse_activity(city.activity_path), WINDOW)
        for cell, value in expected.items():
            assert traffic.intensities[cell] == pytest.approx(value, rel=1e-9)

    def test_cv_monotone_in_concentration(self, tmp_path):
        previous = -1.0
        for index, concentration in enumerate((0.0, 5.0, 50.0)):
            out = tmp_path / str(index)
            out.mkdir()
            city = generate_city(config(concentration=concentration, noise=0.0), out)
            traffic = aggregate_traffic(parse_activity(city.activity_path), WINDOW)
            cv = dispersion_of(traffic.intensities.values()).cv
            assert cv >= previous
            previous = cv


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


def synth_workers(monkeypatch, workers):
    """Write the synth files with ``workers`` CPUs, however small the city."""
    monkeypatch.setattr(gridhot.synth, "_worker_count", lambda: workers)
    monkeypatch.setattr(gridhot.synth, "PARALLEL_MIN_LINES", 1)


class TestParallelFiles:
    """activity.tsv and grid.geojson written by a forked worker while this
    process searches the pairs, against the one-process run and the reference."""

    @pytest.mark.parametrize(
        "knobs",
        [dict(n_centers=0, noise=0.0), dict(n_centers=3, noise=1.4)],
        ids=["flat", "clamped"],
    )
    def test_same_bytes_for_any_worker_count(self, tmp_path, monkeypatch, forks, knobs):
        cfg = config(grid_side=9, records_per_cell=4, **knobs)
        activity, interactions = oracles.reference_city_lines(cfg)
        trees = {}
        for workers in (1, 2, 3):
            synth_workers(monkeypatch, workers)
            city = generate_city(cfg, tmp_path / str(workers))
            assert file_lines(city.activity_path) == activity
            assert file_lines(city.interactions_path) == interactions
            assert city.stats == SynthStats(81, 324, len(interactions), city.stats.pairs_scored)
            trees[workers] = {p.name: p.read_bytes() for p in sorted(city.activity_path.parent.iterdir())}
        assert sorted(trees[1]) == ["activity.tsv", "grid.geojson", "interactions.tsv"]
        assert trees[1] == trees[2] == trees[3]
        assert len(forks) == 2  # one worker at W = 2 and at W = 3
        if knobs["noise"] > 1.0:
            assert any(line.endswith("\t0.0\t0.0\t0.0\t0.0\t0.0") for line in activity)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "grid_side, records_per_cell, forked",
        [(12, 3, 0), (1, gridhot.synth.PARALLEL_MIN_LINES - 1, 0),
         (1, gridhot.synth.PARALLEL_MIN_LINES, 1)],
    )
    def test_forks_from_the_threshold_on(self, tmp_path, monkeypatch, forks, grid_side,
                                         records_per_cell, forked):
        monkeypatch.setattr(gridhot.synth, "_worker_count", lambda: 3)
        generate_city(config(grid_side=grid_side, records_per_cell=records_per_cell), tmp_path)
        assert len(forks) == forked


def file_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


@st.composite
def intensity_grids(draw):
    """(side, intensities in cell-id order); few distinct values make ties,
    and a descending grid puts the strongest pairs first."""
    side = draw(st.integers(1, 12))
    values = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 50.0),
            min_size=side * side,
            max_size=side * side,
        )
    )
    if draw(st.booleans()):
        values.sort(reverse=True)
    return side, values


class TestAgainstReference:
    """The pruned pair search and per-cell formatting against the one-record,
    all-pairs reference in ``oracles``."""

    @settings(max_examples=60, deadline=None)
    # flat fields: every pair at one distance ties, also at the cut
    @example(grid_side=7, n_centers=0, concentration=0.0, decay_radius=1.0, noise=0.0, seed=0,
             records_per_cell=1)
    @example(grid_side=12, n_centers=0, concentration=0.0, decay_radius=1.0, noise=0.0, seed=0,
             records_per_cell=1)
    @given(
        grid_side=st.integers(1, 14),
        n_centers=st.integers(0, 5),
        concentration=st.floats(0.0, 20.0),
        decay_radius=st.floats(0.5, 5.0),
        noise=st.floats(0.0, 1.5),  # above 1 some cells clamp to intensity 0
        seed=st.integers(0, 2**64 - 1),
        records_per_cell=st.integers(1, 3),
    )
    def test_files_match_reference(self, **knobs):
        cfg = SynthConfig(window=WINDOW, **knobs)
        with tempfile.TemporaryDirectory() as out:
            city = generate_city(cfg, out)
            activity, interactions = oracles.reference_city_lines(cfg)
            assert file_lines(city.interactions_path) == interactions
            assert file_lines(city.activity_path) == activity
            assert city.stats.interaction_pairs == len(interactions)
            assert city.stats.activity_lines == len(activity)

    @settings(max_examples=100, deadline=None)
    # strongest first: the cut is raised before the last pairs are scored
    @example(grid=(11, [float(121 - i) for i in range(121)]))
    @given(grid=intensity_grids())
    def test_pair_selection_matches_reference(self, grid):
        side, values = grid
        kept, _ = _select_pairs(values, side)
        assert kept == oracles.reference_pairs(dict(enumerate(values, start=1)), side)

    @pytest.mark.parametrize("n_centers", [4, 12])
    def test_interactions_match_reference_40x40(self, tmp_path, n_centers):
        cfg = config(grid_side=40, n_centers=n_centers, concentration=8.0, decay_radius=2.5,
                     noise=0.3, records_per_cell=1)
        city = generate_city(cfg, tmp_path)
        assert file_lines(city.interactions_path) == oracles.reference_city_lines(cfg)[1]
        assert city.stats.pairs_scored < 1600 * 1599 // 2  # not every pair was scored

    def test_activity_lines_format_their_records(self, tmp_path):
        cfg = config(noise=1.2, records_per_cell=4)
        city = generate_city(cfg, tmp_path)
        records = list(parse_activity(city.activity_path))
        assert file_lines(city.activity_path) == [format_activity_line(r) for r in records]
        assert any(r.total() == 0.0 for r in records)  # a clamped cell
        assert len({r.timestamp for r in records}) == len(records)


def test_pairs_scored_counts_sqrt_calls(tmp_path, monkeypatch):
    """The benchmark counts scored pairs as the synth module's ``math.sqrt`` calls."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for side in (5, 12):
        with tracing.counting_sqrt(gridhot.synth) as calls:
            city = generate_city(config(grid_side=side), tmp_path / str(side))
        assert calls[0] == city.stats.pairs_scored > 0


PAIRS_SCORED = {"graph-k250": 166_405, "ingest-week": 153_492}


@pytest.mark.parametrize("workload", sorted(PAIRS_SCORED))
def test_benchmark_cities_match_pinned_digests(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    digests = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))[workload]
    path = tmp_path / "synth.cfg"
    path.write_text(run.WORKLOADS[workload].synth_config(), encoding="utf-8")
    city = generate_city(load_synth_config(path), tmp_path / "city")
    for file in (city.activity_path, city.interactions_path, city.grid_path):
        assert sha256_file(file) == digests[file.name], file.name
    # the search's work is pinned like its bytes; scoring every ordered
    # pair would take 900 * 899 = 809,100
    assert city.stats.pairs_scored == PAIRS_SCORED[workload]


class TestSynthConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"grid_side": 0},
            {"n_centers": -1},
            {"concentration": -2.0},
            {"decay_radius": 0.0},
            {"noise": -0.5},
            {"records_per_cell": 0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(DomainError):
            config(**overrides)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text(
            "# synthetic city\n"
            "grid_side = 6\n"
            "n_centers = 1\n"
            "concentration = 4.5\n"
            "decay_radius = 2.0\n"
            "noise = 0\n"
            "seed = 99\n"
            "records_per_cell = 2\n"
            "window_start = 2013-11-18\n"
            "window_end = 2013-11-25\n",
            encoding="utf-8",
        )
        cfg = load_synth_config(path)
        assert cfg.grid_side == 6
        assert cfg.seed == 99
        assert cfg.window.start == 1384732800000
        assert cfg.window.end == 1385337600000

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("grid_side = 4\n", encoding="utf-8")
        with pytest.raises(DomainError, match="window_start"):
            load_synth_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text(
            "grid_side = 4\nwindow_start = 0\nwindow_end = 10\nshape = round\n",
            encoding="utf-8",
        )
        with pytest.raises(DomainError, match="shape"):
            load_synth_config(path)

    def test_missing_equals_names_line(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("grid_side = 4\n\nwindow_start 0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="key = value") as info:
            load_synth_config(path)
        assert info.value.line_no == 3

    def test_trailing_comments_ignored(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text(
            "grid_side = 4  # side = 5\n# shape = round\nwindow_start = 0\nwindow_end = 10 #\n",
            encoding="utf-8",
        )
        cfg = load_synth_config(path)
        assert cfg.grid_side == 4
        assert cfg.window.end == 10
