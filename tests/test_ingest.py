import functools
import gzip
import json
import math
import os
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from gridhot import config, fileio, ingest
from gridhot.errors import (
    DomainError,
    GridhotError,
    ParseError,
    UnreadableInputError,
    UnsupportedGeometryError,
)
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
    _checked_record,
    _exact_partials,
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


# Differential check of the fast path, block conversion, against the checked,
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
# Eight columns fill either record's layout: mostly well formed, sometimes
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
SCHEMAS = {
    "activity": (ActivityRecord, ACTIVITY_COLUMNS),
    "interactions": (InteractionRecord, INTERACTION_COLUMNS),
}


def _outcome(build, *args):
    try:
        record = build(*args)
    except ParseError as exc:
        return ("error", str(exc), exc.line_no)
    # repr tells -0.0 from 0.0, so equal outcomes are bit for bit equal
    return (type(record).__name__, repr(record))


def _fast_agrees(kind, layout, line, line_no):
    """A one-line block is refused, or converts to the record the checked
    path gives; a line the checked path rejects is always refused."""
    record_type, columns = SCHEMAS[kind]
    checked = functools.partial(_checked_record, record_type, columns)
    expected = _outcome(checked, line.split(layout.delimiter), layout, "x.tsv", line_no)
    records = ingest._block_records(record_type, columns, layout)([line + "\n"])
    return records is None or _outcome(next, records) == expected


@pytest.mark.parametrize("layout", LAYOUTS, ids=["default", "comma"])
@pytest.mark.parametrize("kind", sorted(SCHEMAS))
@settings(max_examples=200)
@given(columns=ROWS, line_no=st.integers(min_value=1, max_value=10**6))
def test_fast_path_matches_checked_path(kind, layout, columns, line_no):
    assert _fast_agrees(kind, layout, layout.delimiter.join(columns), line_no)


@pytest.mark.parametrize("layout", LAYOUTS, ids=["default", "comma"])
@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_fast_path_matches_checked_path_each_column(kind, layout):
    """Every edge value in every column of an otherwise clean row."""
    clean = ["5", "1000", "39", "1.5", "", "0.25", "", "2"]
    for index in range(len(clean)):
        for value in EDGE_VALUES:
            line = layout.delimiter.join(clean[:index] + [value] + clean[index + 1 :])
            assert _fast_agrees(kind, layout, line, 7), line


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
def test_malformed_row_message(tmp_path, kind, line, message):
    parse, good, _ = PARSERS[kind]
    path = write(tmp_path, "x.tsv", f"{good}\n" * 6 + f"{line}\n")
    with pytest.raises(ParseError) as info:
        list(parse(path))
    assert str(info.value) == f"{message} ({path}:7)"
    assert info.value.line_no == 7


def test_column_tables_cover_layout_and_records():
    """A new layout column cannot land without a validation rule."""
    attrs = [attr for _, attr, _, _ in ACTIVITY_COLUMNS + INTERACTION_COLUMNS]
    layout_fields = [name for name in ColumnLayout._fields if name != "delimiter"]
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

    def test_nesting_past_the_recursion_limit_is_invalid(self, tmp_path):
        # json's decoder recurses once per level and raises RecursionError
        path = write(tmp_path, "g.geojson", "[" * 200_000 + "]" * 200_000)
        with pytest.raises(ParseError, match=r"^invalid GeoJSON: .*recursion"):
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

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_coordinates_rejected(self, tmp_path, literal):
        # json.load reads these non-standard literals; a heatmap would write them back
        text = grid_doc([square_feature(1), square_feature(2, origin=(9.0, 44.0))])
        path = write(tmp_path, "g.geojson", text.replace("44.0", literal))
        with pytest.raises(ParseError, match=r"^feature 1 has non-finite coordinates"):
            parse_grid(path)

    def test_infinite_cell_id_is_malformed(self, tmp_path):
        text = grid_doc([square_feature(1)]).replace('"cellId": 1', '"cellId": Infinity')
        path = write(tmp_path, "g.geojson", text)
        with pytest.raises(ParseError, match=r"^feature 0 has malformed cell id inf"):
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

    def test_members_keep_their_pairs_and_every_pair_is_counted(self):
        records = [
            InteractionRecord(1, 2, 1_100, 1.0),
            InteractionRecord(1, 2, 1_200, 2.0),
            InteractionRecord(2, 1, 1_300, 0.0),
            InteractionRecord(1, 9, 1_400, 4.0),
            InteractionRecord(9, 8, 1_500, 0.5),
            InteractionRecord(9, 8, 1_600, 0.5),
            InteractionRecord(8, 9, 1_700, 0.0),
            InteractionRecord(8, 9, 1_800, -0.0),
            InteractionRecord(7, 9, 5_000, 1.0),
        ]
        everything = aggregate_interactions(records, WINDOW)
        assert everything.strengths == {(1, 2): 3.0, (1, 9): 4.0, (9, 8): 1.0}
        agg = aggregate_interactions(iter(records), WINDOW, members={1, 2, 3})
        assert agg.strengths == {(1, 2): 3.0}
        # every in-window record is counted, its pair kept or not
        assert agg.in_window == everything.in_window == 8

    @pytest.mark.parametrize(
        "pairs, named",
        [
            ([(8, 9)], (8, 9)),
            ([(1, 9)], (1, 9)),
            ([(2, 1), (3, 9)], (2, 1)),
            ([(9, 1), (3, 2)], (3, 2)),
        ],
    )
    def test_first_overflowing_pair_named_kept_or_not(self, pairs, named):
        """Every pair is summed and checked without members; with them, only
        the member pairs are, and a non-member pair's sum is never formed."""
        base = [InteractionRecord(1, 2, 1_100, 1.0), InteractionRecord(9, 1, 1_150, 2.0)]
        records = base + [
            InteractionRecord(src, dst, t, 1e308) for src, dst in pairs for t in (1_200, 1_300)
        ]
        message = rf"^in-window strength of pair {named[0]} -> {named[1]} sums past the largest float$"
        with pytest.raises(DomainError, match=message):
            aggregate_interactions(records, WINDOW)
        members = {1, 2, 3}
        if members.issuperset(named):
            with pytest.raises(DomainError, match=message):
                aggregate_interactions(records, WINDOW, members=members)
        else:
            agg = aggregate_interactions(records, WINDOW, members=members)
            assert agg.strengths == aggregate_interactions(base, WINDOW, members=members).strengths
            assert agg.in_window == len(records)

    def test_traffic_values_held_at_eight_bytes(self):
        # 100k fresh records in 4 cells: float objects in lists took 32 B a record
        count = 100_000
        records = (
            ActivityRecord(1 + i % 4, 1_500, sms_in=float(i), internet=0.5) for i in range(count)
        )
        tracemalloc.start()
        try:
            traffic = aggregate_traffic(records, WINDOW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traffic.in_window == count
        assert peak <= 12 * count, peak / count


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


# finite strengths whose sums over a few dozen records stay below the largest float
interaction_records = st.builds(
    InteractionRecord,
    src_id=st.integers(min_value=1, max_value=6),
    dst_id=st.integers(min_value=1, max_value=6),
    timestamp=st.integers(min_value=0, max_value=3_000),
    strength=st.floats(min_value=0, max_value=1e306) | st.just(-0.0),
)


@given(
    st.lists(interaction_records, max_size=60),
    st.frozensets(st.integers(min_value=1, max_value=6)),
)
def test_member_aggregate_is_the_restriction_of_the_whole(records, members):
    whole = aggregate_interactions(records, WINDOW)
    kept = aggregate_interactions(records, WINDOW, members=members)
    assert [(pair, total.hex()) for pair, total in kept.strengths.items()] == [
        (pair, total.hex()) for pair, total in whole.strengths.items()
        if members.issuperset(pair)
    ]
    assert kept.in_window == whole.in_window


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


def bound_outcome(parse, text: str):
    """The epoch ms that ``parse`` reads from ``text``, or its error text."""
    try:
        value = parse(text)
    except DomainError as exc:
        return "error", str(exc)
    assert type(value) is int
    return value


def padded(draw, value: int, width: int) -> str:
    # zero-padded most often, as the canonical forms are; else unpadded or space-padded
    style = draw(st.sampled_from(["zero", "zero", "zero", "none", "space"]))
    if style == "zero":
        return f"{value:0{width}d}"
    return f"{value:{width}d}" if style == "space" else str(value)


@st.composite
def window_bounds(draw) -> str:
    """Text for a window bound: ISO dates and datetimes with zero-padded,
    unpadded or space-padded fields, impossible ones included, epoch
    milliseconds with spaces or underscores, and any text of their characters."""
    kind = draw(st.sampled_from(["iso", "iso", "iso", "epoch", "any"]))
    if kind == "epoch":
        ms = draw(st.integers(min_value=-10**14, max_value=10**14))
        return draw(st.sampled_from([str(ms), f"{ms:_}", f" {ms} ", f"\t{ms:_}\n", f"{ms}_"]))
    if kind == "any":
        # the Arabic-Indic three is a digit to int() and to strptime's \d
        return draw(st.text(alphabet="0123456789-:_Tt +\t\u0663", max_size=21))
    # year, month, day, hour, minute and second, each one past its range and more
    highs = (10_000, 13, 32, 25, 61, 62)
    fields = [draw(st.integers(min_value=0, max_value=high)) for high in highs]
    count = draw(st.sampled_from([3, 5, 6]))
    texts = [padded(draw, value, 4 if i == 0 else 2) for i, value in enumerate(fields[:count])]
    text = "-".join(texts[:3])
    if count > 3:
        text += draw(st.sampled_from(["T", "T", "t"])) + ":".join(texts[3:])
    return draw(st.sampled_from(["", "", " "])) + text


class TestWindow:
    def test_degenerate_window_rejected(self):
        with pytest.raises(DomainError):
            TimeWindow(5, 5)
        # every construction is checked, _replace and keyword arguments included
        with pytest.raises(DomainError, match=r"^window start must precede end, got \[5, 4\)$"):
            TimeWindow(1, 4)._replace(start=5)
        with pytest.raises(DomainError):
            TimeWindow(end=1, start=2)

    def test_parse_epoch_ms_forms(self):
        assert parse_epoch_ms("1383260400000") == 1383260400000
        assert parse_epoch_ms("2013-11-18") == 1384732800000
        assert parse_epoch_ms("1970-01-01T00:00") == 0

    def test_parse_epoch_ms_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_epoch_ms("next tuesday")

    @given(window_bounds())
    @example("2013-02-30")
    @example("2012-02-29T23:59:59")
    @example("2013-11-18T06:30:60")
    @example("2013-11-18T24:00")
    @example("0000-01-01")
    @example("9999-12-31T23:59:59")
    @example("2013-1-8")
    @example("2013-11- 8")
    @example("2013-11-18t06:30")
    @example(" 1_383_260_400_000 ")
    @example("2013-11-18T06:30:00 ")
    @settings(max_examples=1000, deadline=None)
    def test_parse_epoch_ms_matches_strptime(self, text):
        """Reading the canonical ISO forms from their fields gives what
        strptime gives, for every text: the same int or the same error."""
        assert bound_outcome(parse_epoch_ms, text) == bound_outcome(oracles.parse_epoch_ms, text)


# The public names of gridhot.ingest before the window and configuration types
# and open_text moved out; the benchmark imports TimeWindow, aggregate_traffic,
# parse_activity and parse_epoch_ms from it.
INGEST_NAMES = (
    "ACTIVITY_COLUMNS", "ActivityRecord", "ColumnLayout", "DEFAULT_LAYOUT", "GridCell",
    "INTERACTION_COLUMNS", "IngestConfig", "InteractionAggregate", "InteractionRecord",
    "MALFORMED_POLICIES", "PARALLEL_MIN_BYTES", "ParseStats", "TimeWindow", "TrafficAggregate",
    "aggregate_interactions", "aggregate_traffic", "format_activity_line", "format_grid",
    "format_interaction_line", "load_aggregate", "load_ingest_config", "open_text",
    "parse_activity", "parse_epoch_ms", "parse_grid", "parse_interactions", "read_key_values",
)
MOVED_TO_CONFIG = (
    "ColumnLayout", "DEFAULT_LAYOUT", "IngestConfig", "MALFORMED_POLICIES", "TimeWindow",
    "load_ingest_config", "parse_epoch_ms", "read_key_values",
)


def test_every_public_name_still_imports_from_ingest():
    namespace = {}
    exec(f"from gridhot.ingest import {', '.join(INGEST_NAMES)}", namespace)
    assert set(INGEST_NAMES) <= set(namespace)
    # the moved names are re-exported, not copied
    for name in MOVED_TO_CONFIG:
        assert getattr(ingest, name) is getattr(config, name), name
    assert ingest.open_text is fileio.open_text


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
# Parallel ingest: strided line shares reduced in forked workers, merged exactly

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
    # line 26, in the share of worker 1 for 2 and for 3 workers
    assert data.split(b"\n").index(BAD.encode()) == 25
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


def _member_only_peak(tmp_path, outside: int) -> int:
    """The tracemalloc peak of ``load_aggregate`` as ``centrality`` calls it,
    on a file of the 380 ordered pairs of members 1..20 and ``outside``
    pairs with a non-member end, 3 records each, a pair's records far
    apart."""
    members = range(1, 21)
    pairs = [(src, dst) for src in members for dst in members if src != dst]
    pairs += [(1 + i % 150, 151 + i // 150) for i in range(outside)]
    path = tmp_path / f"outside-{outside}.tsv"
    with path.open("w", encoding="utf-8") as handle:
        for t in (1_100, 1_200, 1_300):
            handle.writelines(f"{src}\t{dst}\t{t}\t0.5\n" for src, dst in pairs)
    aggregate = functools.partial(aggregate_interactions, members=dict.fromkeys(members, 1.0))
    tracemalloc.start()
    try:
        agg, stats = load_aggregate(
            "interaction", parse_interactions, aggregate, [path], WINDOW, IngestConfig()
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert agg.in_window == stats.lines == 3 * len(pairs)
    assert agg.strengths == dict.fromkeys(pairs[:380], 1.5)
    return peak


def test_member_only_ingest_peak_flat_in_non_member_pairs(tmp_path):
    small = _member_only_peak(tmp_path, 2_000)
    large = _member_only_peak(tmp_path, 20_000)
    assert abs(large - small) < 256 * 1024, (small, large)


# a file of several 8 KiB decode chunks
LONG = _activity_lines(random.Random(5), 400)


def _faulty(tmp_path, workers, before, after):
    """``LONG`` with the lines ``before`` and ``after`` put in past its first
    8 KiB decode chunk, both starting in one chunk; the file's path and
    bytes.  The line that starts where ``after`` does is in the last of
    ``workers`` shares, and the line before it in the share ahead of that."""
    lines = [line + "\n" for line in LONG]
    for at in range(len(lines)):
        head = "".join(lines[:at]).encode() + before
        chunk = len(head) // 8192
        if chunk and (len(head) - len(before)) // 8192 == chunk:
            if (at + before.count(b"\n")) % workers == workers - 1:
                data = head + after + "".join(lines[at:]).encode()
                return _write_bytes(tmp_path, f"{workers}.tsv", data), data
    raise AssertionError("no line puts the faults in one chunk and two shares")


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


def test_failed_share_read_again_in_one_process(tmp_path, monkeypatch):
    """A share that meets an error a one-process read does not, as when a
    file changes while it is read, gives that read's result."""
    path = _write_bytes(tmp_path, "a.tsv", "\n".join(LINES).encode() + b"\n")
    serial = _loaded("activity", [path], 1)
    assert serial[2].lines == len(LINES)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_reduce_share", lambda *args: None)
        for workers in (2, 3):
            assert _loaded("activity", [path], workers) == serial

    def faulty_shares(path, layout, on_malformed, stats, share=(0, 1)):
        if share != (0, 1):
            raise UnreadableInputError(f"cannot read {path}: it changed")
        return parse_activity(path, layout, on_malformed, stats)

    monkeypatch.setattr(ingest, "_worker_count", lambda: 3)
    monkeypatch.setattr(ingest, "PARALLEL_MIN_BYTES", 1)
    result, stats = load_aggregate(
        "activity", faulty_shares, aggregate_traffic, [path], WINDOW, IngestConfig()
    )
    assert ([(key, value.hex()) for key, value in result.intensities.items()],
            result.in_window, stats) == serial
    assert_no_children()


def test_dead_worker_named(tmp_path, monkeypatch):
    def dying_reduce(*args):
        os._exit(3)

    monkeypatch.setattr(ingest, "_reduce_share", dying_reduce)
    path = _write_bytes(tmp_path, "a.tsv", "\n".join(LINES).encode() + b"\n")
    assert _loaded("activity", [path], 2) == (
        "WorkerError", f"ingest worker 1 of 1 exited with status 3 before sending its sums of {path}"
    )
    # each worker reads a share of every input, so the message names them all
    other = _write_bytes(tmp_path, "b.tsv", "\n".join(LINES).encode() + b"\n")
    assert _loaded("activity", [path, other], 2) == (
        "WorkerError",
        f"ingest worker 1 of 1 exited with status 3 before sending its sums of {path}, {other}",
    )


@pytest.mark.parametrize("name", ["gzip", "gzip-and-plain"])
def test_gzip_inputs_fork(tmp_path, monkeypatch, name):
    plain = EDGE_FILES["lf" if name == "gzip" else "two-files"]
    files = [gzip.compress(plain[0], mtime=0), *plain[1:]]
    paths = [_write_bytes(tmp_path, f"{i}.tsv", data) for i, data in enumerate(files)]
    serial = _loaded("activity", paths, 1)
    assert serial[2].lines == len(LINES)
    real_fork = os.fork
    forked = []
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or real_fork())
    for workers in (2, 3):
        assert _loaded("activity", paths, workers) == serial
    assert len(forked) == 1 + 2


# in-window values whose sums overflow; the two big lines fall in different shares
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


# Block conversion against the per-line loop it stands in for.  The reference
# read refuses every block, so each line goes through _checked_record.
def _line_at_a_time(patch):
    patch.setattr(ingest, "_block_records", lambda *args: lambda lines: None)


def _parsed(parse, path, layout, policy):
    """Records as float.hex with their type, and the counters; or the error."""
    stats = ParseStats()
    try:
        records = [
            (type(r).__name__, *(v.hex() if isinstance(v, float) else v for v in r))
            for r in parse(path, layout, policy, stats)
        ]
    except GridhotError as exc:
        return type(exc).__name__, str(exc)
    return records, stats


def _column_kinds(columns, layout, width=8):
    kinds = ["any"] * width
    for _, attr, _, kind in columns:
        kinds[getattr(layout, attr)] = kind
    return kinds


# well-formed text per column kind; "any" is a column no record field reads
WELL_FORMED = {
    "id": st.integers(min_value=1, max_value=10**7).map(str),
    "time": st.integers(min_value=-(10**13), max_value=10**13).map(str),
    "code": st.one_of(st.just(""), st.integers(min_value=-5, max_value=999).map(str)),
    "quantity": st.one_of(
        st.just(""), st.just("-0.0"), st.floats(min_value=0, max_value=1e300).map(repr)
    ),
    "any": st.sampled_from(["", "x", "1.5"]),
}
# a field put in place of a well-formed one: values each kind rejects or
# reads only through the checked path, among them empty and padded fields,
# nan, inf, negatives and ids of 0 and below; -0.0 is a valid quantity
ODD_FIELDS = {
    "id": ["0", "-0", "-7", " 0", "", " ", "1.0"],
    "time": ["", " ", "1.5", "x"],
    "code": [" ", "\xa0", "IT", "1.0"],
    "quantity": ["nan", "-nan", "inf", "-inf", "-1e-300", "-2", " ", "\xa0", "1e309", " 3 "],
}
ODD_FIELD = st.one_of(EDGE_TEXT, st.tuples(PADDING, NUMBER_TEXT, PADDING).map("".join))


@st.composite
def block_lines(draw, kinds):
    """Rows of fields: mostly well formed, some with an odd field, a column
    too few or too many, or blank."""
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        row = [draw(WELL_FORMED[kind]) for kind in kinds]
        shape = draw(st.sampled_from(["good"] * 6 + ["odd", "short", "long", "blank"]))
        if shape == "odd":
            index = draw(st.sampled_from([i for i, kind in enumerate(kinds) if kind != "any"]))
            row[index] = draw(st.sampled_from(ODD_FIELDS[kinds[index]]) | ODD_FIELD)
        elif shape == "short":
            row = row[: draw(st.integers(min_value=0, max_value=len(row) - 1))]
        elif shape == "long":
            row += draw(st.lists(FIELD_TEXT, min_size=1, max_size=2))
        elif shape == "blank":
            row = []
        rows.append(row)
    return rows


@pytest.mark.parametrize("layout", LAYOUTS, ids=["default", "comma"])
@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), trailing=st.booleans(), policy=st.sampled_from(["abort", "skip"]))
def test_blocks_match_line_at_a_time(kind, layout, data, trailing, policy):
    parse = PARSERS[kind][0]
    columns = ACTIVITY_COLUMNS if kind == "activity" else INTERACTION_COLUMNS
    rows = data.draw(block_lines(_column_kinds(columns, layout)), label="rows")
    lines = [layout.delimiter.join(row) for row in rows]
    text = "\n".join(lines) + ("\n" if trailing and lines else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp), "b.tsv", text)
        with pytest.MonkeyPatch.context() as patch:
            _line_at_a_time(patch)
            expected = _parsed(parse, path, layout, policy)
        for size in (1, 2, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ingest, "_BLOCK_LINES", size)
                assert _parsed(parse, path, layout, policy) == expected, size


# a full row of each kind, with an empty quantity field, as a record
FULL_ROWS = {
    "activity": (
        ActivityRecord, ACTIVITY_COLUMNS, "5\t1000\t39\t1.5\t\t0.25\t\t2",
        ActivityRecord(5, 1000, 1.5, 0.0, 0.25, 0.0, 2.0, 39),
    ),
    "interactions": (
        InteractionRecord, INTERACTION_COLUMNS, "5\t7\t1000\t", InteractionRecord(5, 7, 1000, 0.0)
    ),
}


@pytest.mark.parametrize("kind", sorted(FULL_ROWS))
def test_well_formed_blocks_are_converted(kind):
    """The property above compares converted blocks, not only refused ones."""
    record_type, columns, row, record = FULL_ROWS[kind]
    convert = ingest._block_records(record_type, columns, DEFAULT_LAYOUT)
    converted = list(convert([row + "\n", row + "\n"]))
    assert converted == [record, record] and type(converted[0]) is record_type
    # a bad value, a line without its newline, uneven field counts, too few fields
    for lines in (["-" + row + "\n"], [row], [row + "\n", row + "\t\n"], ["5\t1000\n"]):
        assert convert([row + "\n", *lines]) is None, lines


@pytest.mark.parametrize("policy", ["abort", "skip"])
@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_edge_files_in_small_blocks(tmp_path, name, policy):
    """Blocks smaller than the files, at 1, 2 and 3 workers, read as one
    process does a line at a time."""
    paths = [_write_bytes(tmp_path, f"{i}.tsv", data) for i, data in enumerate(EDGE_FILES[name])]
    with pytest.MonkeyPatch.context() as patch:
        _line_at_a_time(patch)
        expected = _loaded("activity", paths, 1, policy)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_BLOCK_LINES", 3)
        for workers in (1, 2, 3):
            assert _loaded("activity", paths, workers, policy) == expected, workers


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_bad_line_in_earlier_chunk_than_undecodable_byte(tmp_path, workers):
    """Both in one block, but a line-by-line read parses the bad line before it
    decodes the chunk holding the byte, so the bad line is the error."""
    lines = [line + "\n" for line in LONG]
    lines[5] = BAD + "\n"
    data = "".join(lines).encode()
    at = len(data) - len(lines[-1])
    data = data[:at] + b"\xff\n" + data[at:]
    assert data.index(BAD.encode()) < 8192 < at and data.count(b"\n") < ingest._BLOCK_LINES
    path = _write_bytes(tmp_path, "a.tsv", data)
    assert _loaded("activity", [path], workers) == (
        "ParseError", f"malformed sms_in 'not-a-number' ({path}:6)"
    )
    # with the bad line skipped, the undecodable byte is the error
    kind, message = _loaded("activity", [path], workers, "skip")
    assert kind == "UnreadableInputError" and message.startswith(f"cannot read {path}: ")
