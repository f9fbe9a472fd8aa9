import pytest

from gridhot.compare import dispersion_of
from gridhot.errors import DomainError, ParseError
from gridhot.fileio import sha256_file
from gridhot.hotspot import detect_hotspots
from gridhot.ingest import (
    TimeWindow,
    aggregate_interactions,
    aggregate_traffic,
    parse_activity,
    parse_grid,
    parse_interactions,
)
from gridhot.synth import SplitMix64, SynthConfig, cell_intensities, generate_city, load_synth_config

WINDOW = TimeWindow(0, 604_800_000)  # one week in ms


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
