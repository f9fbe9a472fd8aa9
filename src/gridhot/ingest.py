"""Parsing and aggregation of gridded telecom activity datasets.

Three inputs are handled: per-cell activity files (SMS / call / internet
quantities), cell-to-cell interaction files (directional strengths), and a
GeoJSON grid file with one polygon per cell.  Activity and interaction
files are delimited text, optionally gzip-compressed (detected by magic
bytes).  Records are filtered to a half-open time window and reduced to
per-cell traffic intensities and directed pairwise interaction strengths.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import DomainError, ParseError, UnsupportedGeometryError

MALFORMED_POLICIES = ("abort", "skip")


@dataclass(frozen=True)
class ColumnLayout:
    """Column positions within the delimited input files.

    Defaults match the published layout: activity files carry square id,
    time, country code and the five activity quantities; interaction files
    carry source id, destination id, time and strength.
    """

    delimiter: str = "\t"
    # activity file columns
    square_id: int = 0
    time: int = 1
    country_code: int = 2
    sms_in: int = 3
    sms_out: int = 4
    call_in: int = 5
    call_out: int = 6
    internet: int = 7
    # interaction file columns
    src_id: int = 0
    dst_id: int = 1
    interaction_time: int = 2
    strength: int = 3


DEFAULT_LAYOUT = ColumnLayout()


@dataclass(frozen=True)
class IngestConfig:
    layout: ColumnLayout = DEFAULT_LAYOUT
    on_malformed: str = "abort"


@dataclass(frozen=True)
class TimeWindow:
    """Half-open interval [start, end) in epoch milliseconds (UTC)."""

    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise DomainError(
                f"window start must precede end, got [{self.start}, {self.end})"
            )


class ActivityRecord(NamedTuple):
    """One activity measurement for one cell; absent quantities are 0.

    An immutable named tuple, so a record also unpacks in field order.
    """

    cell_id: int
    timestamp: int
    sms_in: float = 0.0
    sms_out: float = 0.0
    call_in: float = 0.0
    call_out: float = 0.0
    internet: float = 0.0
    country_code: int = 0

    def total(self) -> float:
        """Equal-weight sum of the five activity quantities."""
        return self.sms_in + self.sms_out + self.call_in + self.call_out + self.internet


class InteractionRecord(NamedTuple):
    """Directional interaction strength from one cell to another (a named tuple)."""

    src_id: int
    dst_id: int
    timestamp: int
    strength: float


@dataclass(frozen=True)
class GridCell:
    """A grid cell with its WGS84 polygon ring (closed, first == last)."""

    cell_id: int
    polygon: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class TrafficAggregate:
    """Per-cell summed communication intensity over one window."""

    window: TimeWindow
    intensities: dict[int, float]
    # records summed into the map; 0 for an aggregate built by hand
    in_window: int = 0


@dataclass(frozen=True)
class InteractionAggregate:
    """Summed directional strength per ordered cell pair over one window."""

    window: TimeWindow
    strengths: dict[tuple[int, int], float]
    # records summed into the map, zero-sum pairs included; 0 when built by hand
    in_window: int = 0


@dataclass
class ParseStats:
    """Mutable line counters, filled in by the parsers when supplied."""

    lines: int = 0
    parsed: int = 0
    skipped: int = 0


_GZIP_MAGIC = b"\x1f\x8b"


def open_text(path) -> IO[str]:
    """Open a text file, transparently unpacking gzip (sniffed by magic bytes)."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == _GZIP_MAGIC:
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def parse_epoch_ms(text: str) -> int:
    """Parse a window bound: epoch milliseconds, or an ISO date/datetime (UTC).

    Accepted forms: ``1383260400000``, ``2013-11-18``, ``2013-11-18T06:30``.
    """
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    for fmt in ("%Y-%m-%d", "%Y-%m-%dT%H:%M", "%Y-%m-%dT%H:%M:%S"):
        try:
            dt = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
            return int(dt.timestamp() * 1000)
        except ValueError:
            continue
    raise DomainError(f"cannot parse time bound {text!r}")


def _check_policy(on_malformed: str) -> None:
    if on_malformed not in MALFORMED_POLICIES:
        raise DomainError(
            f"on_malformed must be one of {MALFORMED_POLICIES}, got {on_malformed!r}"
        )


# One row per record field, in the order a bad line is reported: the record
# field, its ColumnLayout attribute, its name in messages and its kind.  An
# ``id`` is a positive int and a ``time`` any int; both are required.  An
# empty ``code`` reads 0.  An empty or absent ``quantity`` reads 0.0 (the
# source data omits zero activity); otherwise it is finite and nonnegative.
ACTIVITY_COLUMNS = (
    ("cell_id", "square_id", "cell id", "id"),
    ("timestamp", "time", "timestamp", "time"),
    ("country_code", "country_code", "country code", "code"),
    ("sms_in", "sms_in", "sms_in", "quantity"),
    ("sms_out", "sms_out", "sms_out", "quantity"),
    ("call_in", "call_in", "call_in", "quantity"),
    ("call_out", "call_out", "call_out", "quantity"),
    ("internet", "internet", "internet", "quantity"),
)
INTERACTION_COLUMNS = (
    ("src_id", "src_id", "source id", "id"),
    ("dst_id", "dst_id", "destination id", "id"),
    ("timestamp", "interaction_time", "timestamp", "time"),
    ("strength", "strength", "strength", "quantity"),
)
_EMPTY_VALUES = {"code": 0, "quantity": 0.0}


def _checked_record(
    record_type, columns, fields: list[str], layout: ColumnLayout, path, line_no: int
):
    """Build ``record_type`` from ``fields`` column by column, naming the first bad one."""
    values = {}
    for field, attr, name, kind in columns:
        index = getattr(layout, attr)
        raw = fields[index].strip() if index < len(fields) else ""
        if not raw:
            if kind not in _EMPTY_VALUES:
                raise ParseError(f"missing {name} column", path, line_no)
            values[field] = _EMPTY_VALUES[kind]
            continue
        try:
            value = float(raw) if kind == "quantity" else int(raw)
        except ValueError:
            raise ParseError(f"malformed {name} {raw!r}", path, line_no) from None
        if kind == "id" and value <= 0:
            raise ParseError(f"{name} must be positive, got {value}", path, line_no)
        # one chained comparison rejects negatives, infinities and NaN alike
        if kind == "quantity" and not 0.0 <= value < math.inf:
            if value < 0:
                raise ParseError(f"{name} must be nonnegative, got {value}", path, line_no)
            raise ParseError(f"{name} must be finite, got {value}", path, line_no)
        values[field] = value
    return record_type(**values)


# Building a record with tuple.__new__ skips the argument binding of the
# named tuple's generated constructor, about a fifth of a well-formed line's cost.
_new_record = tuple.__new__


def _activity_record(line: str, layout: ColumnLayout, path, line_no: int) -> ActivityRecord:
    fields = line.split(layout.delimiter)
    # Fast path: int() and float() strip surrounding whitespace themselves,
    # and an empty quantity column reads 0.  A line they raise on, or that
    # fails the range check, is re-read by _checked_record, which owns every
    # validation rule and error message.
    try:
        cell_id = int(fields[layout.square_id])
        timestamp = int(fields[layout.time])
        country = fields[layout.country_code]
        country = int(country) if country else 0
        sms_in = fields[layout.sms_in]
        sms_in = float(sms_in) if sms_in else 0.0
        sms_out = fields[layout.sms_out]
        sms_out = float(sms_out) if sms_out else 0.0
        call_in = fields[layout.call_in]
        call_in = float(call_in) if call_in else 0.0
        call_out = fields[layout.call_out]
        call_out = float(call_out) if call_out else 0.0
        internet = fields[layout.internet]
        internet = float(internet) if internet else 0.0
    except (ValueError, IndexError):
        return _checked_record(ActivityRecord, ACTIVITY_COLUMNS, fields, layout, path, line_no)
    if (
        cell_id > 0
        and 0.0 <= sms_in < math.inf
        and 0.0 <= sms_out < math.inf
        and 0.0 <= call_in < math.inf
        and 0.0 <= call_out < math.inf
        and 0.0 <= internet < math.inf
    ):
        return _new_record(
            ActivityRecord,
            (cell_id, timestamp, sms_in, sms_out, call_in, call_out, internet, country),
        )
    return _checked_record(ActivityRecord, ACTIVITY_COLUMNS, fields, layout, path, line_no)


def _interaction_record(line: str, layout: ColumnLayout, path, line_no: int) -> InteractionRecord:
    fields = line.split(layout.delimiter)
    # the same fast path as _activity_record
    try:
        src = int(fields[layout.src_id])
        dst = int(fields[layout.dst_id])
        timestamp = int(fields[layout.interaction_time])
        strength = fields[layout.strength]
        strength = float(strength) if strength else 0.0
    except (ValueError, IndexError):
        return _checked_record(InteractionRecord, INTERACTION_COLUMNS, fields, layout, path, line_no)
    if src > 0 and dst > 0 and 0.0 <= strength < math.inf:
        return _new_record(InteractionRecord, (src, dst, timestamp, strength))
    return _checked_record(InteractionRecord, INTERACTION_COLUMNS, fields, layout, path, line_no)


def _parse_lines(
    path, record_fn, layout: ColumnLayout, on_malformed: str, stats: ParseStats | None
) -> Iterator:
    """Yield ``record_fn(line, layout, path, line_no)`` for each line of ``path``.

    Owns the malformed-line policy and the :class:`ParseStats` counting
    shared by :func:`parse_activity` and :func:`parse_interactions`.
    """
    _check_policy(on_malformed)
    if stats is None:
        stats = ParseStats()
    with open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            stats.lines += 1
            try:
                record = record_fn(line.rstrip("\r\n"), layout, path, line_no)
            except ParseError:
                if on_malformed == "abort":
                    raise
                stats.skipped += 1
                continue
            stats.parsed += 1
            yield record


def parse_activity(
    path,
    layout: ColumnLayout = DEFAULT_LAYOUT,
    on_malformed: str = "abort",
    stats: ParseStats | None = None,
) -> Iterator[ActivityRecord]:
    """Yield one :class:`ActivityRecord` per line of an activity file.

    Args:
        path: delimited text file, optionally gzip-compressed.
        layout: column positions and delimiter.
        on_malformed: ``"abort"`` raises :class:`ParseError` on the first bad
            line; ``"skip"`` drops bad lines and counts them in ``stats``.
        stats: optional :class:`ParseStats` to fill with line counters.
    """
    return _parse_lines(path, _activity_record, layout, on_malformed, stats)


def parse_interactions(
    path,
    layout: ColumnLayout = DEFAULT_LAYOUT,
    on_malformed: str = "abort",
    stats: ParseStats | None = None,
) -> Iterator[InteractionRecord]:
    """Yield one :class:`InteractionRecord` per line of an interaction file.

    Same arguments and malformed-line policy as :func:`parse_activity`.
    """
    return _parse_lines(path, _interaction_record, layout, on_malformed, stats)


def _fmt(value: float) -> str:
    # repr round-trips exactly through float(), keeping re-parsed records identical
    return repr(float(value))


def format_activity_line(record: ActivityRecord, layout: ColumnLayout = DEFAULT_LAYOUT) -> str:
    """Render a record as one input line (inverse of :func:`parse_activity`)."""
    width = 1 + max(
        layout.square_id,
        layout.time,
        layout.country_code,
        layout.sms_in,
        layout.sms_out,
        layout.call_in,
        layout.call_out,
        layout.internet,
    )
    fields = [""] * width
    fields[layout.square_id] = str(record.cell_id)
    fields[layout.time] = str(record.timestamp)
    fields[layout.country_code] = str(record.country_code)
    fields[layout.sms_in] = _fmt(record.sms_in)
    fields[layout.sms_out] = _fmt(record.sms_out)
    fields[layout.call_in] = _fmt(record.call_in)
    fields[layout.call_out] = _fmt(record.call_out)
    fields[layout.internet] = _fmt(record.internet)
    return layout.delimiter.join(fields)


def format_interaction_line(record: InteractionRecord, layout: ColumnLayout = DEFAULT_LAYOUT) -> str:
    """Render a record as one input line (inverse of :func:`parse_interactions`)."""
    width = 1 + max(layout.src_id, layout.dst_id, layout.interaction_time, layout.strength)
    fields = [""] * width
    fields[layout.src_id] = str(record.src_id)
    fields[layout.dst_id] = str(record.dst_id)
    fields[layout.interaction_time] = str(record.timestamp)
    fields[layout.strength] = _fmt(record.strength)
    return layout.delimiter.join(fields)


_CELL_ID_KEYS = ("cell_id", "cellId", "id")


def _json_object(value, what: str, path) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(value).__name__}", path)
    return value


def _feature_cell_id(feature: dict, index: int, path) -> int:
    properties = _json_object(feature.get("properties") or {}, f"feature {index} properties", path)
    raw = None
    for key in _CELL_ID_KEYS:
        if key in properties:
            raw = properties[key]
            break
    else:
        if "id" in feature:
            raw = feature["id"]
    if raw is None:
        raise ParseError(f"feature {index} has no cell id property", path)
    try:
        cell_id = int(raw)
    except (TypeError, ValueError):
        raise ParseError(f"feature {index} has malformed cell id {raw!r}", path) from None
    if cell_id <= 0:
        raise ParseError(f"feature {index} cell id must be positive, got {cell_id}", path)
    return cell_id


def parse_grid(path) -> list[GridCell]:
    """Read a GeoJSON FeatureCollection of cell polygons.

    Each feature must carry a Polygon geometry and a cell id under one of
    the property keys ``cell_id`` / ``cellId`` / ``id`` (or a feature-level
    ``id``).  Duplicate ids, open rings, non-polygon geometries and values
    of the wrong JSON type are rejected.
    """
    with open_text(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid GeoJSON: {exc}", path) from None
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError("expected a GeoJSON FeatureCollection", path)
    cells: list[GridCell] = []
    seen: set[int] = set()
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise ParseError(f"features must be a JSON array, got {type(features).__name__}", path)
    for index, feature in enumerate(features):
        feature = _json_object(feature, f"feature {index}", path)
        geometry = _json_object(feature.get("geometry") or {}, f"feature {index} geometry", path)
        gtype = geometry.get("type")
        if gtype != "Polygon":
            raise UnsupportedGeometryError(
                f"unsupported geometry type {gtype!r} in feature {index}", path
            )
        rings = geometry.get("coordinates") or []
        if not rings:
            raise ParseError(f"feature {index} polygon has no rings", path)
        try:
            ring = tuple((float(lon), float(lat)) for lon, lat in rings[0])
        except (TypeError, ValueError, KeyError):
            raise ParseError(f"feature {index} has malformed coordinates", path) from None
        if len(ring) < 4 or ring[0] != ring[-1]:
            raise ParseError(
                f"feature {index} ring must be closed with at least 4 points", path
            )
        cell_id = _feature_cell_id(feature, index, path)
        if cell_id in seen:
            raise ParseError(f"duplicate cell id {cell_id}", path)
        seen.add(cell_id)
        cells.append(GridCell(cell_id=cell_id, polygon=ring))
    return cells


def aggregate_traffic(records: Iterable[ActivityRecord], window: TimeWindow) -> TrafficAggregate:
    """Sum per-cell activity over in-window records.

    The per-cell intensity is the equal-weight sum of all five activity
    quantities.  Summation uses ``math.fsum`` so the result is identical
    under any permutation of the input stream.  Cells with no in-window
    records are absent from the map.
    """
    start, end = window.start, window.end
    parts: defaultdict[int, list[float]] = defaultdict(list)
    for cell_id, timestamp, sms_in, sms_out, call_in, call_out, internet, _ in records:
        if start <= timestamp < end:
            # added in the order of ActivityRecord.total(), so bit for bit equal
            parts[cell_id].append(sms_in + sms_out + call_in + call_out + internet)
    intensities = {cell: math.fsum(values) for cell, values in sorted(parts.items())}
    in_window = sum(map(len, parts.values()))
    return TrafficAggregate(window=window, intensities=intensities, in_window=in_window)


def aggregate_interactions(
    records: Iterable[InteractionRecord], window: TimeWindow
) -> InteractionAggregate:
    """Sum directional strength per ordered (src, dst) pair over in-window records.

    Pairs whose strengths sum to zero are omitted.  Order-independent for
    the same reason as :func:`aggregate_traffic`.
    """
    start, end = window.start, window.end
    parts: defaultdict[tuple[int, int], list[float]] = defaultdict(list)
    for src, dst, timestamp, strength in records:
        if start <= timestamp < end:
            parts[src, dst].append(strength)
    strengths = {}
    for pair, values in sorted(parts.items()):
        total = math.fsum(values)
        if total > 0.0:
            strengths[pair] = total
    in_window = sum(map(len, parts.values()))
    return InteractionAggregate(window=window, strengths=strengths, in_window=in_window)


_DELIMITER_NAMES = {"tab": "\t", "comma": ",", "semicolon": ";", "space": " "}

_LAYOUT_KEYS = {f.name for f in dataclasses.fields(ColumnLayout)} - {"delimiter"}


def read_key_values(path) -> list[tuple[int, str, str]]:
    """Read a plain ``key = value`` file into ``(line_no, key, value)`` triples.

    ``#`` starts a comment; blank lines are ignored.  A line without ``=``
    raises :class:`ParseError` with its line number.
    """
    entries = []
    with open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ParseError("expected `key = value`", path, line_no)
            key, _, value = text.partition("=")
            entries.append((line_no, key.strip(), value.strip()))
    return entries


def load_ingest_config(path) -> IngestConfig:
    """Read a plain ``key = value`` ingest configuration file.

    Recognized keys: ``delimiter`` (``tab``/``comma``/``semicolon``/``space``
    or a literal character), ``on_malformed`` (``abort``/``skip``) and any
    column name of :class:`ColumnLayout` with an integer index.  ``#``
    starts a comment.
    """
    overrides: dict[str, object] = {}
    on_malformed = "abort"
    for line_no, key, value in read_key_values(path):
        if key == "delimiter":
            overrides["delimiter"] = _DELIMITER_NAMES.get(value, value)
            if len(overrides["delimiter"]) != 1:
                raise ParseError(f"delimiter must be a single character, got {value!r}", path, line_no)
        elif key == "on_malformed":
            if value not in MALFORMED_POLICIES:
                raise ParseError(
                    f"on_malformed must be one of {MALFORMED_POLICIES}, got {value!r}",
                    path,
                    line_no,
                )
            on_malformed = value
        elif key in _LAYOUT_KEYS:
            try:
                index = int(value)
            except ValueError:
                raise ParseError(f"column index for {key} must be an integer", path, line_no) from None
            if index < 0:
                raise ParseError(f"column index for {key} must be nonnegative", path, line_no)
            overrides[key] = index
        else:
            raise ParseError(f"unknown config key {key!r}", path, line_no)
    return IngestConfig(layout=dataclasses.replace(DEFAULT_LAYOUT, **overrides), on_malformed=on_malformed)
