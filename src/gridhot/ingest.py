"""Parsing and aggregation of gridded telecom activity datasets.

Three inputs are handled: per-cell activity files (SMS / call / internet
quantities), cell-to-cell interaction files (directional strengths), and a
GeoJSON grid file with one polygon per cell.  Activity and interaction
files are delimited text, optionally gzip-compressed (detected by magic
bytes).  Records are filtered to a half-open time window and reduced to
per-cell traffic intensities and directed pairwise interaction strengths.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
from array import array
from collections import defaultdict
from functools import partial
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

# the window and configuration types, which gridhot.config holds so that a
# command that reads no record need not import this module, re-exported here
from .config import (
    DEFAULT_LAYOUT,
    MALFORMED_POLICIES,
    ColumnLayout,
    IngestConfig,
    TimeWindow,
    load_ingest_config,
    parse_epoch_ms,
    read_key_values,
)
from .errors import DomainError, ParseError, UnreadableInputError, UnsupportedGeometryError
from .fileio import _READ_ERRORS, open_text

if TYPE_CHECKING:
    from .workers import Workers


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


class GridCell(NamedTuple):
    """A grid cell with its WGS84 polygon ring (closed, first == last)."""

    cell_id: int
    polygon: tuple[tuple[float, float], ...]


class TrafficAggregate(NamedTuple):
    """Per-cell summed communication intensity over one window."""

    window: TimeWindow
    intensities: dict[int, float]
    # records summed into the map; 0 for an aggregate built by hand
    in_window: int = 0


class InteractionAggregate(NamedTuple):
    """Summed directional strength per ordered cell pair over one window.

    ``strengths`` holds every pair whose sum is above 0, or only those
    between members when :func:`aggregate_interactions` was given a member
    set.
    """

    window: TimeWindow
    strengths: dict[tuple[int, int], float]
    # in-window records, zero-sum and unkept pairs included; 0 when built by hand
    in_window: int = 0


class ParseStats(SimpleNamespace):
    """Mutable line counters, filled in by the parsers when supplied."""

    def __init__(self, lines: int = 0, parsed: int = 0, skipped: int = 0):
        super().__init__(lines=lines, parsed=parsed, skipped=skipped)


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
# named tuple's generated constructor, about a fifth of a converted line's cost.
_new_record = tuple.__new__


# Lines converted in one pass by _block_records; a module constant, not a knob.
_BLOCK_LINES = 1024

# maps an empty field to "0", which converts to its _EMPTY_VALUES value, and
# any other field to itself
_EMPTY_AS_ZERO = {"": "0"}.get


def _converted_column(raw: list[str], kind: str) -> list | None:
    """A column of fields of ``kind`` converted as :func:`_checked_record`
    converts one field, or None when one does not convert or a value fails
    the range check of its kind."""
    convert = float if kind == "quantity" else int
    try:
        column = list(map(convert, raw))
    except ValueError:
        if kind not in _EMPTY_VALUES:
            return None
        try:
            column = list(map(convert, map(_EMPTY_AS_ZERO, raw, raw)))
        except ValueError:
            return None
    if kind == "id":
        return column if min(column) > 0 else None
    if kind == "quantity":
        # min can pass over a nan, but a sum holding nan or inf is not below inf
        return column if min(column) >= 0.0 and sum(column) < math.inf else None
    return column


def _block_records(record_type, columns, layout: ColumnLayout):
    """A converter of a block of lines into an iterator of ``record_type``
    records, built a column at a time at C speed; it gives None for a block
    it refuses.

    Every record equals the one :func:`_checked_record` gives for its line.
    A block is refused unless its lines all end in a newline and have the
    same number of fields, enough for ``layout``, and unless every column
    converts and passes the range check of its kind.
    """
    delimiter = layout.delimiter
    where = {field: (getattr(layout, attr), kind) for field, attr, _, kind in columns}
    plan = [where[field] for field in record_type._fields]
    width = max(index for index, _ in plan) + 1
    record_types = itertools.repeat(record_type)

    def convert(lines: list[str]):
        counts = set(map(str.count, lines, itertools.repeat(delimiter)))
        if len(counts) != 1 or delimiter == "\n" or not lines[-1].endswith("\n"):
            return None
        step = counts.pop() + 1
        if step < width:
            return None
        stop = len(lines) * step
        # the fields of line i are flat[i * step:(i + 1) * step]
        flat = "".join(lines).replace("\n", delimiter).split(delimiter)
        values = []
        for index, kind in plan:
            column = _converted_column(flat[index:stop:step], kind)
            if column is None:
                return None
            values.append(column)
        return map(_new_record, record_types, zip(*values))

    return convert


def _parse_lines(
    path, record_type, columns, layout: ColumnLayout, on_malformed: str,
    stats: ParseStats | None, share: tuple[int, int] = (0, 1),
) -> Iterator:
    """Yield a ``record_type`` record for each line of ``path``.

    Owns the malformed-line policy and the :class:`ParseStats` counting
    shared by :func:`parse_activity` and :func:`parse_interactions`.  With
    ``share`` ``(k, count)`` only the lines k + 1, k + 1 + count, ... are
    parsed, under the file's own line numbers; the others are read past.
    The lines are read ``_BLOCK_LINES`` at a time and each block is
    converted by :func:`_block_records`.  A block it refuses is parsed a
    line at a time by :func:`_checked_record`, which names the first bad
    line.  When reading a block fails, the lines read before the failure
    are parsed before the error is raised, so the first error is the one a
    line-by-line read meets.
    """
    _check_policy(on_malformed)
    if stats is None:
        stats = ParseStats()
    convert = _block_records(record_type, columns, layout)
    delimiter = layout.delimiter
    k, count = share
    first = k + 1  # the line number of the block's first line
    with open_text(path) as handle:
        lines = itertools.islice(handle, k, None, count)
        while True:
            block: list[str] = []
            error = None
            try:
                block.extend(itertools.islice(lines, _BLOCK_LINES))
            except _READ_ERRORS as exc:
                error = exc
            records = convert(block) if block else None
            if records is not None:
                stats.lines += len(block)
                stats.parsed += len(block)
                yield from records
            else:
                for line_no, line in zip(itertools.count(first, count), block):
                    stats.lines += 1
                    fields = line.rstrip("\r\n").split(delimiter)
                    try:
                        record = _checked_record(
                            record_type, columns, fields, layout, path, line_no
                        )
                    except ParseError:
                        if on_malformed == "abort":
                            raise
                        stats.skipped += 1
                        continue
                    stats.parsed += 1
                    yield record
            if error is not None:
                raise error
            if len(block) < _BLOCK_LINES:
                return
            first += _BLOCK_LINES * count


def parse_activity(
    path,
    layout: ColumnLayout = DEFAULT_LAYOUT,
    on_malformed: str = "abort",
    stats: ParseStats | None = None,
    share: tuple[int, int] = (0, 1),
) -> Iterator[ActivityRecord]:
    """Yield one :class:`ActivityRecord` per line of an activity file.

    Args:
        path: delimited text file, optionally gzip-compressed.
        layout: column positions and delimiter.
        on_malformed: ``"abort"`` raises :class:`ParseError` on the first bad
            line; ``"skip"`` drops bad lines and counts them in ``stats``.
        stats: optional :class:`ParseStats` to fill with line counters.
        share: ``(k, count)`` parses only every count-th line from line
            k + 1 on; errors give the file's own line numbers.
    """
    return _parse_lines(
        path, ActivityRecord, ACTIVITY_COLUMNS, layout, on_malformed, stats, share
    )


def parse_interactions(
    path,
    layout: ColumnLayout = DEFAULT_LAYOUT,
    on_malformed: str = "abort",
    stats: ParseStats | None = None,
) -> Iterator[InteractionRecord]:
    """Yield one :class:`InteractionRecord` per line of an interaction file.

    Same arguments and malformed-line policy as :func:`parse_activity`.
    """
    return _parse_lines(path, InteractionRecord, INTERACTION_COLUMNS, layout, on_malformed, stats)


def _fmt(value: float) -> str:
    # repr round-trips exactly through float(), keeping re-parsed records identical
    return repr(float(value))


def format_activity_line(record: ActivityRecord) -> str:
    """Render a record as one line of the default layout (inverse of :func:`parse_activity`)."""
    quantities = "\t".join(map(_fmt, record[2:7]))
    return f"{record.cell_id}\t{record.timestamp}\t{record.country_code}\t{quantities}"


def format_interaction_line(record: InteractionRecord) -> str:
    """Render a record as one line of the default layout (inverse of :func:`parse_interactions`)."""
    return f"{record.src_id}\t{record.dst_id}\t{record.timestamp}\t{_fmt(record.strength)}"


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
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"feature {index} has malformed cell id {raw!r}", path) from None
    if cell_id <= 0:
        raise ParseError(f"feature {index} cell id must be positive, got {cell_id}", path)
    return cell_id


def parse_grid(path) -> list[GridCell]:
    """Read a GeoJSON FeatureCollection of cell polygons.

    Each feature must carry a Polygon geometry and a cell id under one of
    the property keys ``cell_id`` / ``cellId`` / ``id`` (or a feature-level
    ``id``).  Duplicate ids, open rings, non-finite coordinates,
    non-polygon geometries and values of the wrong JSON type are rejected.
    """
    with open_text(path) as handle:
        try:
            doc = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
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
        # json.load reads the non-standard NaN and Infinity literals as floats
        if not all(map(math.isfinite, itertools.chain.from_iterable(ring))):
            raise ParseError(f"feature {index} has non-finite coordinates", path)
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


_FEATURE_TEXT = """
    {
      "geometry": {
        "coordinates": [
          [
%s
          ]
        ],
        "type": "Polygon"
      },
      "properties": %s,
      "type": "Feature"
    }"""
_POINT_TEXT = """            [
              %r,
              %r
            ]"""


def _json_scalar(value) -> str:
    # json.dumps(value) of a bool, an int, a finite float or a str; numbers skip its cost
    if value is True or value is False or isinstance(value, str):
        return json.dumps(value)
    return repr(value)


def _json_members(pairs, indent: str) -> str:
    """A JSON object of one or more ``(key, value)`` pairs in key order, keys unescaped."""
    body = ",\n".join([f'{indent}  "{key}": {_json_scalar(value)}' for key, value in pairs])
    return "{\n" + body + "\n" + indent + "}"


def format_grid(features, properties=()) -> Iterator[str]:
    """A Polygon FeatureCollection as text chunks (inverse of :func:`parse_grid`).

    ``features`` yields ``(ring, feature_properties)``: a ring of ``(lon, lat)``
    float tuples and ``(key, value)`` pairs in key order, one or more of each,
    the values bools, ints, finite floats or strs.  ``properties``, given the
    same way, are the collection's own.  The chunks, a header, one per
    feature and a tail, join to ``json.dumps(doc, sort_keys=True, indent=2)``
    of the whole document plus a newline; the document is never built.
    """
    yield '{\n  "features": ['
    separator = ""
    for ring, feature_properties in features:
        yield separator + _FEATURE_TEXT % (
            ",\n".join([_POINT_TEXT % point for point in ring]),
            _json_members(feature_properties, "      "),
        )
        separator = ","
    tail = "\n  ]" if separator else "]"
    if properties:
        tail += ',\n  "properties": ' + _json_members(properties, "  ")
    yield tail + ',\n  "type": "FeatureCollection"\n}\n'


def _activity_terms(records: Iterable[ActivityRecord]):
    # added in the order of ActivityRecord.total(), so bit for bit equal
    return ((cell, t, a + b + c + d + e) for cell, t, a, b, c, d, e, _ in records)


def _interaction_terms(records: Iterable[InteractionRecord]):
    return (((src, dst), t, strength) for src, dst, t, strength in records)


_float_array = partial(array, "d")


def _window_values(terms, window: TimeWindow, keep=None) -> tuple[defaultdict, int]:
    """The values of in-window ``(key, timestamp, value)`` terms, per key.

    The one reducer behind both aggregates, in this process and in the
    workers of :func:`load_aggregate`.  Each key's values go to one
    ``array('d')``, at 8 bytes a value.  With ``keep``, a predicate on
    keys, only the keys it accepts have their values stored.  Returns the
    arrays and the number of in-window terms, stored or not.
    """
    start, end = window.start, window.end
    values: defaultdict = defaultdict(_float_array)
    dropped = 0
    for key, timestamp, value in terms:
        if start <= timestamp < end:
            if keep is None or keep(key):
                values[key].append(value)
            else:
                dropped += 1
    return values, dropped + sum(map(len, values.values()))


def _exact_partials(values: Sequence[float]) -> list[float]:
    """Floats whose exact sum is the exact sum of ``values``.

    The first is ``fsum(values)`` and each next one the correctly rounded
    rest of the exact sum after those before it, until nothing is left: a
    nonoverlapping expansion, like the partials of Shewchuk (1997) that
    ``math.fsum`` keeps, found by C-speed ``fsum`` calls.  ``fsum`` over
    the partials of disjoint lists therefore equals ``fsum`` over all their
    values, bit for bit.  A sum that is not finite, because it overflows or
    a value is infinite, gives ``[nan]``, which makes the merged sum nan.
    """
    try:
        partials = [math.fsum(values)]
        if not math.isfinite(partials[0]):
            return [math.nan]
        while rest := math.fsum(itertools.chain(values, map(operator.neg, partials))):
            partials.append(rest)
    except OverflowError:
        return [math.nan]
    return partials


def _window_sums(terms, window: TimeWindow, ranges, name, keep=None) -> tuple[dict, int]:
    """``math.fsum`` per key of the in-window terms and of ``ranges``, in key order.

    ``ranges`` holds ``(partials, in_window)`` pairs from other parts of the
    same inputs, with per-key :func:`_exact_partials`.  ``keep`` is that of
    :func:`_window_values`: the keys it rejects are counted, never summed.
    ``name(key)`` names the first summed key, in key order, whose sum is
    not finite in the :class:`DomainError` raised for it.  Returns the sums
    and the number of in-window terms.  Each key's values are freed as soon
    as they are summed.
    """
    values, in_window = _window_values(terms, window, keep)
    for partials, count in ranges:
        in_window += count
        for key, more in partials.items():
            values[key].extend(more)
    sums = {}
    for key in sorted(values):
        try:
            total = math.fsum(values.pop(key))
        except OverflowError:
            total = math.inf
        if not total < math.inf:
            raise DomainError(f"in-window {name(key)} sums past the largest float")
        sums[key] = total
    return sums, in_window


def aggregate_traffic(
    records: Iterable[ActivityRecord], window: TimeWindow, ranges=()
) -> TrafficAggregate:
    """Sum per-cell activity over in-window records.

    The per-cell intensity is the equal-weight sum of all five activity
    quantities.  Summation uses ``math.fsum`` so the result is identical
    under any permutation of the input stream.  Cells with no in-window
    records are absent from the map.  ``ranges`` holds the exact partial
    sums of other parts of the same inputs (see :func:`load_aggregate`).
    A cell whose sum overflows raises :class:`DomainError`.  Each cell's
    values are held as 8-byte doubles until they are summed.
    """
    intensities, in_window = _window_sums(
        _activity_terms(records), window, ranges, lambda cell: f"activity of cell {cell}"
    )
    return TrafficAggregate(window=window, intensities=intensities, in_window=in_window)


def aggregate_interactions(
    records: Iterable[InteractionRecord],
    window: TimeWindow,
    members: Iterable[int] | None = None,
) -> InteractionAggregate:
    """Sum directional strength per ordered (src, dst) pair over in-window records.

    Pairs whose strengths sum to zero are omitted.  Order-independent and
    overflow-checked like :func:`aggregate_traffic`.  With ``members``, a
    set of cell ids, only the pairs whose two ends are members are summed,
    checked and kept, so memory grows with those pairs alone; the records
    of every other pair are counted in ``in_window`` and dropped.
    """
    keep = None if members is None else frozenset(members).issuperset
    strengths, in_window = _window_sums(
        _interaction_terms(records), window, (),
        lambda pair: f"strength of pair {pair[0]} -> {pair[1]}", keep,
    )
    # the sums at or below 0 leave the summed dict, which is not copied
    for pair in [pair for pair, total in strengths.items() if total <= 0.0]:
        del strengths[pair]
    return InteractionAggregate(window=window, strengths=strengths, in_window=in_window)


# Smaller activity inputs are read in this process.  On a 2-core host a
# forked read takes 0.63-0.85 of the one-process time from 2.5 MB up while
# the other core is free, and 1.1-1.6 times as long up to 5 MB while
# another process keeps it busy; below 2 MiB a free core saves no more
# than a busy one costs.  The table is in README.md.  Interaction files are
# always read in this process: with one record per pair, as in every file
# measured, the merge costs as much as the parse saves.
PARALLEL_MIN_BYTES = 1 << 21

# the kinds read on every CPU, with the (key, timestamp, value) terms of a record
_TERMS = {"activity": _activity_terms}


def _worker_count() -> int:
    # the workers module is loaded only for inputs large enough to fork for
    from .workers import worker_count

    return worker_count()


def _share_count(kind: str, paths) -> int:
    """One share per CPU for activity inputs of ``PARALLEL_MIN_BYTES`` or
    more in all, else one: for smaller inputs, for other kinds and for
    inputs that cannot be sized, so that those raise their one-process error."""
    if kind not in _TERMS:
        return 1
    try:
        if sum(map(os.path.getsize, paths)) < PARALLEL_MIN_BYTES:
            return 1
    except OSError:
        return 1
    return _worker_count()


def _records(parse, paths, cfg: IngestConfig, stats: ParseStats):
    """The records ``parse`` reads from every file in ``paths``, in input order."""
    return itertools.chain.from_iterable(
        parse(path, cfg.layout, cfg.on_malformed, stats) for path in paths
    )


def _reduce_share(terms, parse, paths, window: TimeWindow, cfg: IngestConfig):
    """A worker's report on its share of ``paths``, read by ``parse``: its
    counters and exact per-key partials, or None if it met an error."""
    stats = ParseStats()
    records = _records(parse, paths, cfg, stats)
    try:
        values, in_window = _window_values(terms(records), window)
    except (ParseError, UnreadableInputError):
        return None
    partials = {key: _exact_partials(key_values) for key, key_values in values.items()}
    return (stats.lines, stats.parsed, stats.skipped), partials, in_window


class _ShareFailed(Exception):
    """A worker met an error in its share."""


def _received(workers: Workers, paths, stats: ParseStats):
    """The workers' ``(partials, in_window)`` in share order, their counters
    added to ``stats``."""
    names = ", ".join(map(str, paths))
    for j in range(workers.count):
        report = workers.receive(j, f"sending its sums of {names}")
        if report is None:
            raise _ShareFailed
        (lines, parsed, skipped), partials, in_window = report
        stats.lines += lines
        stats.parsed += parsed
        stats.skipped += skipped
        yield partials, in_window


def load_aggregate(kind: str, parse, aggregate, paths, window: TimeWindow, cfg: IngestConfig):
    """Aggregate the in-window records of every file in ``paths``.

    ``kind`` is ``"activity"`` or ``"interaction"``, and ``parse`` and
    ``aggregate`` are its reader and aggregate, :func:`parse_activity` and
    :func:`aggregate_traffic` or :func:`parse_interactions` and
    :func:`aggregate_interactions`, or wrappers of them: they are taken
    from the caller so that its wrappers, such as the benchmark's tracing
    spans, see the calls made in this process.  Activity inputs of
    ``PARALLEL_MIN_BYTES`` or more, gzip or plain, are read on every CPU:
    with W CPUs, this process parses lines 1, 1 + W, 1 + 2W, ... of every
    file (``parse(..., share=(0, W))``) while forked worker j parses share
    ``(j + 1, W)`` and reduces it to exact per-key partial sums, and
    ``aggregate`` merges those with one ``math.fsum`` per key.  If any
    share meets an input error, the workers are closed and every input is
    read again in this process, so the aggregate, the :class:`ParseStats`
    returned with it and the error raised, text included, are those of a
    one-process read for any number of CPUs.
    """
    _check_policy(cfg.on_malformed)
    count = _share_count(kind, paths)
    if count > 1:
        from .workers import Workers

        terms = _TERMS[kind]

        def reduce_share(j, send):
            send(_reduce_share(terms, partial(parse, share=(j + 1, count)), paths, window, cfg))

        stats = ParseStats()
        try:
            with Workers("ingest", count - 1, reduce_share) as workers:
                own = _records(partial(parse, share=(0, count)), paths, cfg, stats)
                return aggregate(own, window, _received(workers, paths, stats)), stats
        except (ParseError, UnreadableInputError, _ShareFailed):
            pass  # what the one-process read below gives is what is reported
    stats = ParseStats()
    return aggregate(_records(parse, paths, cfg, stats), window), stats
