import dataclasses
import functools
import gzip
import json
import math
import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridhot import ingest
from gridhot.errors import DomainError, GridhotError, ParseError, UnsupportedGeometryError
from gridhot.ingest import (
    ACTIVITY_COLUMNS,
    DEFAULT_LAYOUT,
    INTERACTION_COLUMNS,
    ActivityRecord,
    ColumnLayout,
    IngestConfig,
    InteractionRecord,
    ParseStats,
    TimeWindow,
    aggregate_interactions,
    aggregate_traffic,
    format_activity_line,
    format_interaction_line,
    load_aggregate,
    load_ingest_config,
    parse_activity,
    parse_epoch_ms,
    parse_grid,
    parse_interactions,
    _activity_record,
    _checked_record,
    _exact_partials,
    _interaction_record,
)

WINDOW = TimeWindow(1_000, 2_000)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def grid_doc(features):
    return json.dumps({"type": "FeatureCollection", "features": features})


def square_feature(cell_id, origin=(9.0, 45.0)):
    lon, lat = origin
    ring = [[lon, lat], [lon + 1, lat], [lon + 1, lat + 1], [lon, lat + 1], [lon, lat]]
    return {
        "type": "Feature",
        "properties": {"cellId": cell_id},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }


class TestParseActivity:
    def test_default_layout_with_missing_field(self, tmp_path):
        path = write(tmp_path, "a.tsv", "1\t1383260400000\t39\t0.1\t0.2\t\t0.3\t1.5\n")
        (record,) = list(parse_activity(path))
        assert record == ActivityRecord(
            cell_id=1,
            timestamp=1383260400000,
            sms_in=0.1,
            sms_out=0.2,
            call_in=0.0,
            call_out=0.3,
            internet=1.5,
            country_code=39,
        )

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "a.tsv", "")
        assert list(parse_activity(path)) == []

    def test_malformed_cell_id_names_line(self, tmp_path):
        path = write(tmp_path, "a.tsv", "abc\t1000\t0\t1\n")
        with pytest.raises(ParseError) as info:
            list(parse_activity(path))
        assert info.value.line_no == 1
        assert "abc" in str(info.value)

    def test_nonpositive_cell_id_rejected(self, tmp_path):
        path = write(tmp_path, "a.tsv", "0\t1000\t0\t1\n")
        with pytest.raises(ParseError):
            list(parse_activity(path))

    def test_negative_quantity_rejected(self, tmp_path):
        path = write(tmp_path, "a.tsv", "1\t1000\t0\t-0.5\n")
        with pytest.raises(ParseError):
            list(parse_activity(path))

    def test_skip_mode_counts(self, tmp_path):
        path = write(tmp_path, "a.tsv", "1\t1000\t0\t1.0\nbad line\n2\t1500\t0\t2.0\n")
        stats = ParseStats()
        records = list(parse_activity(path, on_malformed="skip", stats=stats))
        assert [r.cell_id for r in records] == [1, 2]
        assert stats.lines == 3 and stats.parsed == 2 and stats.skipped == 1

    def test_unknown_policy(self, tmp_path):
        path = write(tmp_path, "a.tsv", "")
        with pytest.raises(DomainError):
            list(parse_activity(path, on_malformed="ignore"))

    def test_gzip_detected_by_magic(self, tmp_path):
        path = tmp_path / "a.tsv.gz"
        path.write_bytes(gzip.compress(b"7\t1000\t0\t1.5\n"))
        (record,) = list(parse_activity(path))
        assert record.cell_id == 7 and record.sms_in == 1.5

    def test_custom_layout(self, tmp_path):
        layout = ColumnLayout(delimiter=",", square_id=1, time=0, country_code=2)
        path = write(tmp_path, "a.csv", "1000,5,39,0.5\n")
        (record,) = list(parse_activity(path, layout))
        assert record.cell_id == 5 and record.timestamp == 1000 and record.sms_in == 0.5


class TestParseInteractions:
    def test_example_line(self, tmp_path):
        path = write(tmp_path, "i.tsv", "5\t7\t1383260400000\t2.5\n")
        (record,) = list(parse_interactions(path))
        assert record == InteractionRecord(
            src_id=5, dst_id=7, timestamp=1383260400000, strength=2.5
        )

    def test_negative_strength_rejected(self, tmp_path):
        path = write(tmp_path, "i.tsv", "5\t7\t1000\t-1.0\n")
        with pytest.raises(ParseError):
            list(parse_interactions(path))

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "i.tsv", "")
        assert list(parse_interactions(path)) == []


# (parser, a valid line, the same line with its last quantity replaced)
PARSERS = {
    "activity": (parse_activity, "1\t1000\t0\t1.0", "1\t1000\t0\t{}"),
    "interactions": (parse_interactions, "5\t7\t1000\t2.5", "5\t7\t1000\t{}"),
}


@pytest.mark.parametrize("kind", sorted(PARSERS))
class TestParseLoop:
    def test_abort_names_bad_line(self, tmp_path, kind):
        parse, good, _ = PARSERS[kind]
        path = write(tmp_path, "x.tsv", f"{good}\nbad line\n{good}\n")
        with pytest.raises(ParseError) as info:
            list(parse(path))
        assert info.value.line_no == 2
        assert "x.tsv:2" in str(info.value)

    def test_skip_fills_stats(self, tmp_path, kind):
        parse, good, _ = PARSERS[kind]
        path = write(tmp_path, "x.tsv", f"{good}\nbad line\n{good}\n\n")
        stats = ParseStats()
        records = list(parse(path, on_malformed="skip", stats=stats))
        assert len(records) == 2
        assert (stats.lines, stats.parsed, stats.skipped) == (4, 2, 2)

    @pytest.mark.parametrize(
        "raw, message",
        [("nan", "must be finite"), ("inf", "must be finite"), ("-inf", "must be nonnegative")],
    )
    def test_non_finite_quantity(self, tmp_path, kind, raw, message):
        parse, good, template = PARSERS[kind]
        path = write(tmp_path, "x.tsv", f"{good}\n{template.format(raw)}\n")
        with pytest.raises(ParseError, match=message) as info:
            list(parse(path))
        assert info.value.line_no == 2
        stats = ParseStats()
        assert len(list(parse(path, on_malformed="skip", stats=stats))) == 1
        assert (stats.lines, stats.parsed, stats.skipped) == (2, 1, 1)


# Differential check of the record builders' fast path against the checked,
# field-by-field path that owns the validation rules.
PADDING = st.sampled_from(["", " ", "  ", "\x0b", "\x0c", "\x1f", "\xa0", "\u2003", "\u3000"])
EDGE_VALUES = [
    "", " ", "\xa0", "0", "-0", "-1", " 3 ", "0.0", "-0.0", "-1e-300", "1e308", "1e309", "2.5E-3",
    "nan", "-nan", "inf", "-inf", "Infinity", ".5", "5.", "+7", "1_000", "1_0.5", "\u0661\u0662",
    "abc", "0x10",
]
EDGE_TEXT = st.sampled_from(EDGE_VALUES)
NUMBER_TEXT = st.one_of(
    EDGE_TEXT,
    st.integers(min_value=-5, max_value=10**15).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=0, max_value=1e6).map(lambda x: f"{x:e}"),
)
FIELD_TEXT = st.one_of(
    EDGE_TEXT,
    st.tuples(PADDING, NUMBER_TEXT, PADDING).map("".join),
    PADDING,
    st.sampled_from(["1.5.2", "1 2", "--1", "e5", "_1", "1__0"]),
)
CLEAN_TEXT = st.one_of(
    st.integers(min_value=1, max_value=10**13).map(str),
    st.floats(min_value=0, max_value=1e6).map(repr),
    st.just(""),
)
# Eight columns fill either builder's layout: mostly well formed, sometimes
# cut short, sometimes with extra columns.
ROWS = st.tuples(
    st.lists(st.one_of(CLEAN_TEXT, CLEAN_TEXT, CLEAN_TEXT, FIELD_TEXT), min_size=8, max_size=8),
    st.one_of(st.just(8), st.integers(min_value=0, max_value=8)),
    st.lists(FIELD_TEXT, max_size=2),
).map(lambda row: row[0][: row[1]] + row[2])
# the default layout, and a comma layout with shuffled columns and a trailing country code
LAYOUTS = [
    DEFAULT_LAYOUT,
    ColumnLayout(
        delimiter=",", square_id=1, time=0, country_code=7, sms_in=2, sms_out=3,
        call_in=4, call_out=5, internet=6, src_id=2, dst_id=0, interaction_time=3, strength=1,
    ),
]
BUILDERS = {
    "activity": (
        _activity_record,
        functools.partial(_checked_record, ActivityRecord, ACTIVITY_COLUMNS),
    ),
    "interactions": (
        _interaction_record,
        functools.partial(_checked_record, InteractionRecord, INTERACTION_COLUMNS),
    ),
}


def _outcome(build, *args):
    try:
        record = build(*args)
    except ParseError as exc:
        return ("error", str(exc), exc.line_no)
    # repr tells -0.0 from 0.0, so equal outcomes are bit for bit equal
    return (type(record).__name__, repr(record))


@pytest.mark.parametrize("layout", LAYOUTS, ids=["default", "comma"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
@settings(max_examples=200)
@given(columns=ROWS, line_no=st.integers(min_value=1, max_value=10**6))
def test_fast_path_matches_checked_path(kind, layout, columns, line_no):
    fast, checked = BUILDERS[kind]
    line = layout.delimiter.join(columns)
    expected = _outcome(checked, line.split(layout.delimiter), layout, "x.tsv", line_no)
    assert _outcome(fast, line, layout, "x.tsv", line_no) == expected


@pytest.mark.parametrize("layout", LAYOUTS, ids=["default", "comma"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_fast_path_matches_checked_path_each_column(kind, layout):
    """Every edge value in every column of an otherwise clean row."""
    fast, checked = BUILDERS[kind]
    clean = ["5", "1000", "39", "1.5", "", "0.25", "", "2"]
    for index in range(len(clean)):
        for value in EDGE_VALUES:
            line = layout.delimiter.join(clean[:index] + [value] + clean[index + 1 :])
            expected = _outcome(checked, line.split(layout.delimiter), layout, "x.tsv", 7)
            assert _outcome(fast, line, layout, "x.tsv", 7) == expected, line


# One malformed row per column kind (id, time, code, quantity) for each record
# kind, with the exact message; rows with two bad columns pin which one is named.
MESSAGE_CASES = [
    ("activity", "\t1000\t39\t1", "missing cell id column"),
    ("activity", "x\t1000\t39\t1", "malformed cell id 'x'"),
    ("activity", "0\t1000\t39\t1", "cell id must be positive, got 0"),
    ("activity", "5", "missing timestamp column"),
    ("activity", "5\t 1.5 \t39\t1", "malformed timestamp '1.5'"),
    ("activity", "5\t1000\tIT\t1", "malformed country code 'IT'"),
    ("activity", "5\t1000\t39\tabc", "malformed sms_in 'abc'"),
    ("activity", "5\t1000\t39\t1\t-2", "sms_out must be nonnegative, got -2.0"),
    ("activity", "5\t1000\t39\t1\t2\t3\t-inf", "call_out must be nonnegative, got -inf"),
    ("activity", "5\t1000\t39\t1\t2\t3\t4\tnan", "internet must be finite, got nan"),
    ("activity", "x\ty\t39\t1", "malformed cell id 'x'"),
    ("activity", "5\tt\tIT\t1", "malformed timestamp 't'"),
    ("activity", "5\t1000\tIT\tx", "malformed country code 'IT'"),
    ("activity", "5\t1000\t39\tx\t-1\t-1\t-1\t-1", "malformed sms_in 'x'"),
    ("interactions", "\t2\t1000\t1", "missing source id column"),
    ("interactions", "1\t-2\t1000\t1", "destination id must be positive, got -2"),
    ("interactions", "1\t2\t\t1", "missing timestamp column"),
    ("interactions", "1\t2\tt\t1", "malformed timestamp 't'"),
    ("interactions", "1\t2\t1000\tinf", "strength must be finite, got inf"),
    ("interactions", "1\t2\t1000\t-1", "strength must be nonnegative, got -1.0"),
    ("interactions", "1\t2\t1000\tstrong", "malformed strength 'strong'"),
    ("interactions", "a\tb\t1000\t1", "malformed source id 'a'"),
    ("interactions", "1\t0\tt\t1", "destination id must be positive, got 0"),
    ("interactions", "1\t2\tt\tx", "malformed timestamp 't'"),
]


@pytest.mark.parametrize("kind, line, message", MESSAGE_CASES)
def test_malformed_row_message(kind, line, message):
    fast, _ = BUILDERS[kind]
    with pytest.raises(ParseError) as info:
        fast(line, DEFAULT_LAYOUT, "x.tsv", 7)
    assert str(info.value) == f"{message} (x.tsv:7)"
    assert info.value.line_no == 7


def test_column_tables_cover_layout_and_records():
    """A new layout column cannot land without a validation rule."""
    attrs = [attr for _, attr, _, _ in ACTIVITY_COLUMNS + INTERACTION_COLUMNS]
    layout_fields = [f.name for f in dataclasses.fields(ColumnLayout) if f.name != "delimiter"]
    assert sorted(attrs) == sorted(layout_fields)
    assert {field for field, *_ in ACTIVITY_COLUMNS} == set(ActivityRecord._fields)
    assert {field for field, *_ in INTERACTION_COLUMNS} == set(InteractionRecord._fields)


def test_record_is_immutable_tuple():
    record = ActivityRecord(1, 1_000, sms_in=0.5, internet=2.0)
    assert record == (1, 1_000, 0.5, 0.0, 0.0, 0.0, 2.0, 0)
    assert record.total() == 2.5
    with pytest.raises(AttributeError):
        record.cell_id = 2
    with pytest.raises(AttributeError):
        InteractionRecord(1, 2, 1_000, 1.0).strength = 0.0


class TestParseGrid:
    def test_single_square(self, tmp_path):
        path = write(tmp_path, "g.geojson", grid_doc([square_feature(42)]))
        (cell,) = parse_grid(path)
        assert cell.cell_id == 42
        assert len(cell.polygon) == 5
        assert cell.polygon[0] == cell.polygon[-1]

    def test_duplicate_id(self, tmp_path):
        path = write(tmp_path, "g.geojson", grid_doc([square_feature(7), square_feature(7)]))
        with pytest.raises(ParseError, match="duplicate cell id 7"):
            parse_grid(path)

    def test_point_geometry_unsupported(self, tmp_path):
        feature = {
            "type": "Feature",
            "properties": {"cellId": 1},
            "geometry": {"type": "Point", "coordinates": [9.0, 45.0]},
        }
        path = write(tmp_path, "g.geojson", grid_doc([feature]))
        with pytest.raises(UnsupportedGeometryError):
            parse_grid(path)

    def test_invalid_json(self, tmp_path):
        path = write(tmp_path, "g.geojson", "{not json")
        with pytest.raises(ParseError):
            parse_grid(path)

    def test_open_ring_rejected(self, tmp_path):
        feature = square_feature(1)
        feature["geometry"]["coordinates"][0].pop()
        path = write(tmp_path, "g.geojson", grid_doc([feature]))
        with pytest.raises(ParseError, match="closed"):
            parse_grid(path)

    @pytest.mark.parametrize(
        "features, message",
        [
            (5, "features must be a JSON array, got int"),
            ([1], "feature 0 must be a JSON object, got int"),
            ([{"geometry": "x"}], "feature 0 geometry must be a JSON object, got str"),
            ([dict(square_feature(1), properties=5)], "feature 0 properties must be a JSON object"),
            ([dict(square_feature(1), properties="grid")], "feature 0 properties must be a JSON"),
            (
                [square_feature(1), {"geometry": {"type": "Polygon", "coordinates": {"a": 1}}}],
                "feature 1 has malformed coordinates",
            ),
        ],
    )
    def test_wrong_json_shapes_rejected(self, tmp_path, features, message):
        path = write(tmp_path, "g.geojson", grid_doc(features))
        with pytest.raises(ParseError, match=message):
            parse_grid(path)

    def test_id_fallback_keys(self, tmp_path):
        feature = square_feature(3)
        feature["properties"] = {}
        feature["id"] = "3"
        path = write(tmp_path, "g.geojson", grid_doc([feature]))
        assert parse_grid(path)[0].cell_id == 3


class TestAggregation:
    def test_traffic_sums_components(self):
        records = [
            ActivityRecord(3, 1_100, sms_in=1.0, sms_out=0.5, call_in=0.25, call_out=0.25),
            ActivityRecord(3, 1_900, sms_in=2.0, sms_out=1.0, call_in=0.5),
        ]
        traffic = aggregate_traffic(records, WINDOW)
        assert traffic.intensities == {3: 5.5}

    def test_window_end_exclusive_start_inclusive(self):
        records = [
            ActivityRecord(1, WINDOW.end, sms_in=1.0),
            ActivityRecord(2, WINDOW.start, sms_in=1.0),
        ]
        traffic = aggregate_traffic(records, WINDOW)
        assert traffic.intensities == {2: 1.0}
        assert traffic.in_window == 1

    def test_empty_stream(self):
        assert aggregate_traffic([], WINDOW).intensities == {}

    def test_interactions_sum_per_ordered_pair(self):
        records = [
            InteractionRecord(5, 7, 1_100, 1.0),
            InteractionRecord(5, 7, 1_200, 2.0),
            InteractionRecord(7, 5, 1_300, 4.0),
        ]
        agg = aggregate_interactions(records, WINDOW)
        assert agg.strengths == {(5, 7): 3.0, (7, 5): 4.0}

    def test_interactions_all_outside_window(self):
        records = [InteractionRecord(1, 2, 5_000, 1.0)]
        assert aggregate_interactions(records, WINDOW).strengths == {}

    def test_zero_sum_pairs_omitted(self):
        records = [InteractionRecord(1, 2, 1_100, 0.0)]
        agg = aggregate_interactions(records, WINDOW)
        assert agg.strengths == {} and agg.in_window == 1


# dyadic quantities keep every float addition exact, so the set-level
# properties below can assert bit-identical equality
dyadic = st.integers(min_value=0, max_value=4_000).map(lambda n: n / 4.0)
activity_records = st.builds(
    ActivityRecord,
    cell_id=st.integers(min_value=1, max_value=20),
    timestamp=st.integers(min_value=0, max_value=3_000),
    sms_in=dyadic,
    sms_out=dyadic,
    call_in=dyadic,
    call_out=dyadic,
    internet=dyadic,
)


@given(st.lists(activity_records, max_size=60), st.randoms(use_true_random=False))
def test_aggregation_permutation_invariant(records, rng):
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert aggregate_traffic(records, WINDOW) == aggregate_traffic(shuffled, WINDOW)


quantities = st.floats(min_value=0, max_value=1e6)


@given(
    st.lists(
        st.builds(
            ActivityRecord,
            cell_id=st.integers(min_value=1, max_value=5),
            timestamp=st.integers(min_value=0, max_value=3_000),
            sms_in=quantities,
            sms_out=quantities,
            call_in=quantities,
            call_out=quantities,
            internet=quantities,
        ),
        max_size=40,
    )
)
def test_aggregation_matches_record_totals(records):
    """Bit for bit the fsum of each in-window record's total(), in any float."""
    parts = {}
    for record in records:
        if WINDOW.start <= record.timestamp < WINDOW.end:
            parts.setdefault(record.cell_id, []).append(record.total())
    traffic = aggregate_traffic(records, WINDOW)
    assert traffic.intensities == {cell: math.fsum(values) for cell, values in parts.items()}
    assert traffic.in_window == sum(map(len, parts.values()))


@given(st.lists(activity_records, max_size=40), st.lists(activity_records, max_size=40))
def test_aggregation_additive_over_streams(first, second):
    merged = {}
    for part in (aggregate_traffic(first, WINDOW), aggregate_traffic(second, WINDOW)):
        for cell, value in part.intensities.items():
            merged[cell] = merged.get(cell, 0.0) + value
    combined = aggregate_traffic(first + second, WINDOW).intensities
    assert combined == {cell: value for cell, value in merged.items()}


@given(st.lists(activity_records, max_size=60))
def test_window_partition_sums(records):
    mid = 1_500
    whole = aggregate_traffic(records, WINDOW).intensities
    left = aggregate_traffic(records, TimeWindow(WINDOW.start, mid)).intensities
    right = aggregate_traffic(records, TimeWindow(mid, WINDOW.end)).intensities
    recombined = {}
    for part in (left, right):
        for cell, value in part.items():
            recombined[cell] = recombined.get(cell, 0.0) + value
    assert recombined == whole


def test_activity_round_trip_random(tmp_path):
    rng = random.Random(11)
    records = [
        ActivityRecord(
            cell_id=rng.randint(1, 99),
            timestamp=rng.randint(0, 10_000),
            sms_in=rng.random() * 5,
            sms_out=rng.random() * 5,
            call_in=rng.random() * 5,
            call_out=rng.random() * 5,
            internet=rng.random() * 20,
            country_code=rng.choice([0, 39, 49]),
        )
        for _ in range(25)
    ]
    path = write(tmp_path, "a.tsv", "".join(format_activity_line(r) + "\n" for r in records))
    assert list(parse_activity(path)) == records


def test_interaction_round_trip(tmp_path):
    rng = random.Random(7)
    records = [
        InteractionRecord(
            src_id=rng.randint(1, 50),
            dst_id=rng.randint(1, 50),
            timestamp=rng.randint(0, 10_000),
            strength=rng.random() * 10,
        )
        for _ in range(25)
    ]
    path = write(
        tmp_path, "i.tsv", "".join(format_interaction_line(r) + "\n" for r in records)
    )
    assert list(parse_interactions(path)) == records


def test_activity_file_round_trip(tmp_path):
    records = [
        ActivityRecord(1, 1_100, sms_in=0.1, internet=1.5, country_code=39),
        ActivityRecord(2, 1_200, call_out=0.25),
    ]
    path = write(tmp_path, "a.tsv", "".join(format_activity_line(r) + "\n" for r in records))
    assert list(parse_activity(path)) == records


class TestWindow:
    def test_degenerate_window_rejected(self):
        with pytest.raises(DomainError):
            TimeWindow(5, 5)

    def test_parse_epoch_ms_forms(self):
        assert parse_epoch_ms("1383260400000") == 1383260400000
        assert parse_epoch_ms("2013-11-18") == 1384732800000
        assert parse_epoch_ms("1970-01-01T00:00") == 0

    def test_parse_epoch_ms_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_epoch_ms("next tuesday")


class TestIngestConfig:
    def test_layout_and_policy_overrides(self, tmp_path):
        path = write(
            tmp_path,
            "ingest.cfg",
            "# comment\ndelimiter = comma\non_malformed = skip\nsms_in = 2\ncountry_code = 3\n",
        )
        cfg = load_ingest_config(path)
        assert cfg.on_malformed == "skip"
        assert cfg.layout.delimiter == ","
        assert cfg.layout.sms_in == 2
        assert cfg.layout.country_code == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "ingest.cfg", "colour = blue\n")
        with pytest.raises(ParseError, match="unknown config key"):
            load_ingest_config(path)

    def test_trailing_comment_ignored(self, tmp_path):
        path = write(tmp_path, "ingest.cfg", "delimiter = comma  # export = csv\n#sms_in = x\n")
        cfg = load_ingest_config(path)
        assert cfg.layout.delimiter == ","
        assert cfg.layout.sms_in == ColumnLayout().sms_in

    def test_missing_equals_names_line(self, tmp_path):
        path = write(tmp_path, "ingest.cfg", "# layout\ndelimiter comma\n")
        with pytest.raises(ParseError, match="key = value") as info:
            load_ingest_config(path)
        assert info.value.line_no == 2

    def test_unknown_key_names_line(self, tmp_path):
        path = write(tmp_path, "ingest.cfg", "delimiter = tab\n\ncolour = blue\n")
        with pytest.raises(ParseError) as info:
            load_ingest_config(path)
        assert info.value.line_no == 3

    def test_bad_policy_rejected(self, tmp_path):
        path = write(tmp_path, "ingest.cfg", "on_malformed = maybe\n")
        with pytest.raises(ParseError):
            load_ingest_config(path)


# ---------------------------------------------------------------------------
# Parallel ingest: byte ranges reduced in forked workers, merged exactly

LOADERS = {
    "activity": (parse_activity, aggregate_traffic),
    "interaction": (parse_interactions, aggregate_interactions),
}


def _loaded(kind, paths, workers, policy="abort"):
    """What ``load_aggregate`` gives with ``workers`` CPUs and no size floor:
    the sums as float.hex and the counters, or the error type and text."""
    parse, aggregate = LOADERS[kind]
    cfg = IngestConfig(on_malformed=policy)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_worker_count", lambda: workers)
        patch.setattr(ingest, "PARALLEL_MIN_BYTES", 1)
        try:
            result, stats = load_aggregate(kind, parse, aggregate, paths, WINDOW, cfg)
        except GridhotError as exc:
            return type(exc).__name__, str(exc)
    sums = result.intensities if kind == "activity" else result.strengths
    assert_no_children()
    return [(key, value.hex()) for key, value in sums.items()], result.in_window, stats


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _activity_lines(rng, count):
    return [
        f"{rng.randint(1, 6)}\t{rng.randint(500, 2_500)}\t39\t{rng.random() * 10}\t\t"
        f"{rng.uniform(0, 1e3)}\t{rng.random()}\t{rng.expovariate(0.1)}"
        for _ in range(count)
    ]


def _write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


LINES = _activity_lines(random.Random(3), 40)
BAD = "7\t1500\t39\tnot-a-number"

# name -> the files' bytes; each is read with 1, 2 and 3 workers
EDGE_FILES = {
    "lf": ["\n".join(LINES).encode() + b"\n"],
    "crlf": ["\r\n".join(LINES).encode() + b"\r\n"],
    "no-trailing-newline": ["\n".join(LINES).encode()],
    "lone-cr-lines": ["\r".join(LINES).encode() + b"\r"],
    "blank-line-at-boundary": [
        ("\n".join(LINES[:20]) + "\n").encode() + b"\n" + ("\n".join(LINES[20:]) + "\n").encode()
    ],
    "fewer-lines-than-workers": [(LINES[0] + "\n" + LINES[1] + "\n").encode()],
    "one-line": [LINES[0].encode()],
    "empty": [b""],
    "bad-line-in-later-range": [
        "\n".join(LINES[:25] + [BAD] + LINES[25:30] + ["x"] + LINES[30:]).encode() + b"\n"
    ],
    "two-files": ["\n".join(LINES[:15]).encode() + b"\n", "\n".join(LINES[15:]).encode() + b"\n"],
    "two-files-bad-in-second": [
        "\n".join(LINES[:15]).encode() + b"\n",
        "\n".join(LINES[15:30] + [BAD] + LINES[30:]).encode() + b"\n",
    ],
    "gzip": [gzip.compress("\n".join(LINES).encode() + b"\n", mtime=0)],
    "gzip-and-plain": [
        gzip.compress("\n".join(LINES[:10] + [BAD]).encode() + b"\n", mtime=0),
        "\n".join(LINES[10:20] + ["x"] + LINES[20:]).encode() + b"\n",
    ],
}


@pytest.mark.parametrize("policy", ["abort", "skip"])
@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_parallel_ingest_matches_one_process(tmp_path, name, policy):
    paths = [_write_bytes(tmp_path, f"{i}.tsv", data) for i, data in enumerate(EDGE_FILES[name])]
    serial = _loaded("activity", paths, 1, policy)
    for workers in (2, 3):
        assert _loaded("activity", paths, workers, policy) == serial, workers
    # and the same as reading through the public functions directly
    try:
        stats = ParseStats()
        records = (r for p in paths for r in parse_activity(p, on_malformed=policy, stats=stats))
        traffic = aggregate_traffic(records, WINDOW)
    except GridhotError as exc:
        assert serial == (type(exc).__name__, str(exc))
    else:
        expected = [(cell, value.hex()) for cell, value in traffic.intensities.items()]
        assert serial == (expected, traffic.in_window, stats)


def test_bad_line_in_later_range_named_with_file_line(tmp_path):
    data = EDGE_FILES["bad-line-in-later-range"][0]
    # past the first cut for 2 and for 3 workers
    assert data.index(BAD.encode()) > len(data) // 2
    path = _write_bytes(tmp_path, "a.tsv", data)
    kind, message = _loaded("activity", [path], 3)
    assert kind == "ParseError"
    assert message == f"malformed sms_in 'not-a-number' ({path}:26)"
    _, _, stats = _loaded("activity", [path], 3, "skip")
    assert (stats.lines, stats.parsed, stats.skipped) == (42, 40, 2)


def test_interactions_read_in_one_process(tmp_path, monkeypatch):
    rng = random.Random(8)
    lines = [
        f"{rng.randint(1, 4)}\t{rng.randint(1, 4)}\t{rng.randint(500, 2_500)}\t{rng.random()}"
        for _ in range(60)
    ] + ["2\t3\t1500\t0.0", "3\t2\t1500\t", "bad"]
    path = _write_bytes(tmp_path, "i.tsv", "\n".join(lines).encode() + b"\n")
    serial = _loaded("interaction", [path], 1, "skip")

    def refused_fork():
        raise AssertionError("interaction ingest forked")

    monkeypatch.setattr(os, "fork", refused_fork)
    assert _loaded("interaction", [path], 3, "skip") == serial
    assert serial[2].skipped == 1


# a file of several 8 KiB decode chunks
LONG = _activity_lines(random.Random(5), 400)


def _faulty(tmp_path, workers, before, after):
    """``LONG`` with the lines ``before`` and ``after`` on either side of
    the last cut that ``workers`` make in it, and with the start of
    ``before`` in the 8 KiB decode chunk of ``after``; the file's path and
    bytes.  Leading zeros on the first cell id shift the bytes."""
    for pad in range(300):
        lines = [line + "\n" for line in ["0" * pad + LONG[0], *LONG[1:]]]
        for at in range(1, len(lines)):
            head = "".join(lines[:at]).encode() + before
            data = head + after + "".join(lines[at:]).encode()
            last_cut = len(data) * (workers - 1) // workers
            if len(head) > last_cut + 100:
                break
            if data.index(b"\n", last_cut - 1) + 1 != len(head):
                continue
            if (len(head) - len(before)) // 8192 != len(head) // 8192:
                continue
            path = _write_bytes(tmp_path, f"{workers}.tsv", data)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ingest, "PARALLEL_MIN_BYTES", 1)
                assert ingest._shares([path], workers)[-1][0][1][0] == len(head)
            return path, data
    raise AssertionError("no line start puts the faults at the cut")


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "before, after, error",
    [
        (b"", b"\xff\n", "UnreadableInputError"),
        # a one-process read decodes the chunk holding both before it parses
        # the bad line, so it meets the undecodable byte first
        (BAD.encode() + b"\n", b"\xff\n", "UnreadableInputError"),
        (BAD.encode() + b"\n", b"", "ParseError"),
        (b"", BAD.encode() + b"\n", "ParseError"),
    ],
    ids=["undecodable", "bad-line-then-undecodable", "bad-line-before-cut", "bad-line-after-cut"],
)
def test_first_error_same_text_for_any_workers(tmp_path, workers, before, after, error):
    path, data = _faulty(tmp_path, workers, before, after)
    serial = _loaded("activity", [path], 1)
    assert serial[0] == error
    if b"\xff" in data:
        at = data.index(b"\xff")
        assert at > 8192
        assert serial[1] == (
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position {at % 8192}:"
            " invalid start byte"
        )
    if error == "ParseError":
        line_no = data.count(b"\n", 0, data.index(BAD.encode())) + 1
        assert serial[1] == f"malformed sms_in 'not-a-number' ({path}:{line_no})"
    assert _loaded("activity", [path], workers) == serial
    assert _loaded("activity", [path], 5 - workers) == serial


def test_shares_cut_at_line_starts(tmp_path):
    data = "\r\n".join(LINES).encode() + b"\n\n" + "\n".join(LINES).encode()
    path = _write_bytes(tmp_path, "a.tsv", data)
    starts = {0} | {i + 1 for i, byte in enumerate(data) if byte == ord("\n")}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "PARALLEL_MIN_BYTES", 1)
        for workers in range(1, 8):
            shares = ingest._shares([path], workers)
            assert len(shares) == workers
            spans = [span or (0, len(data)) for share in shares for _, span in share]
            assert spans[0][0] == 0 and spans[-1][1] == len(data)
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert end == start and start in starts


def test_small_inputs_never_fork(tmp_path, monkeypatch):
    def refused_fork():
        raise AssertionError("ingest forked below its threshold")

    monkeypatch.setattr(os, "fork", refused_fork)
    monkeypatch.setattr(ingest, "_worker_count", lambda: 3)
    data = "\n".join(LINES).encode() + b"\n"
    paths = [_write_bytes(tmp_path, f"{i}.tsv", data) for i in range(2)]
    assert 2 * len(data) < ingest.PARALLEL_MIN_BYTES
    parse, aggregate = LOADERS["activity"]
    traffic, stats = load_aggregate("activity", parse, aggregate, paths, WINDOW, IngestConfig())
    assert stats.lines == 2 * len(LINES)


def test_dead_worker_named(tmp_path, monkeypatch):
    def dying_reduce(*args):
        os._exit(3)

    monkeypatch.setattr(ingest, "_reduce_share", dying_reduce)
    path = _write_bytes(tmp_path, "a.tsv", "\n".join(LINES).encode() + b"\n")
    assert _loaded("activity", [path], 2) == (
        "WorkerError", f"ingest worker 1 of 1 exited with status 3 before sending its sums of {path}"
    )


# in-window values whose sums overflow; the two big lines fall in different ranges
OVERFLOWS = {
    "across-ranges": ["1\t1500\t0\t1e308"] + LINES + ["1\t1600\t0\t1e308"],
    "one-record": LINES + ["2\t1500\t0\t1e308\t1e308"],
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_overflow_is_a_domain_error(tmp_path, name):
    path = _write_bytes(tmp_path, "a.tsv", "\n".join(OVERFLOWS[name]).encode() + b"\n")
    cell = 1 if name == "across-ranges" else 2
    expected = ("DomainError", f"in-window activity of cell {cell} sums past the largest float")
    for workers in (1, 2, 3):
        assert _loaded("activity", [path], workers) == expected


def test_pair_overflow_is_a_domain_error():
    records = [InteractionRecord(4, 5, 1_100, 1e308), InteractionRecord(4, 5, 1_200, 1e308)]
    with pytest.raises(DomainError, match=r"^in-window strength of pair 4 -> 5 sums past"):
        aggregate_interactions(records, WINDOW)


finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@given(st.lists(st.lists(finite, max_size=12), min_size=1, max_size=5))
def test_exact_partials_merge_bitwise(chunks):
    merged = [p for chunk in chunks for p in _exact_partials(chunk)]
    assert math.fsum(merged).hex() == math.fsum([x for chunk in chunks for x in chunk]).hex()


def test_exact_partials_of_non_finite_sums_are_nan():
    assert math.isnan(_exact_partials([1e308, 1e308])[0])
    assert math.isnan(_exact_partials([1.0, math.inf])[0])
    assert _exact_partials([]) == [0.0]


line_kinds = st.sampled_from(["good", "good", "good", "bad", "blank", "late"])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(line_kinds, max_size=30),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
    st.integers(min_value=2, max_value=5),
    st.sampled_from(["abort", "skip"]),
    st.randoms(use_true_random=False),
)
def test_random_files_any_range_count(kinds, newline, trailing, workers, policy, rng):
    """Random files with malformed lines read in 2-5 ranges agree with one process."""
    good = iter(_activity_lines(rng, len(kinds)))
    text_of = {"bad": lambda: BAD, "blank": lambda: "", "late": lambda: "1\t9999\t0\t1.5"}
    lines = [next(good) if kind == "good" else text_of[kind]() for kind in kinds]
    data = (newline.join(lines) + (newline if trailing else "")).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_bytes(Path(tmp), "r.tsv", data)
        assert _loaded("activity", [path], workers, policy) == _loaded("activity", [path], 1, policy)
