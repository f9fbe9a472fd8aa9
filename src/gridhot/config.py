"""What a command reads before any record: its time window and ingest configuration.

Kept apart from :mod:`gridhot.ingest`, which re-exports every name here,
so that a command which reads no record, such as ``compare``, never
imports the record readers.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import NamedTuple

from .errors import Checked, DomainError, ParseError
from .fileio import open_text

MALFORMED_POLICIES = ("abort", "skip")


class ColumnLayout(NamedTuple):
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


class IngestConfig(NamedTuple):
    layout: ColumnLayout = DEFAULT_LAYOUT
    on_malformed: str = "abort"


class _TimeWindow(NamedTuple):
    start: int
    end: int


class TimeWindow(Checked, _TimeWindow):
    """Half-open interval [start, end) in epoch milliseconds (UTC)."""

    __slots__ = ()

    def _check(self):
        if self.start >= self.end:
            raise DomainError(
                f"window start must precede end, got [{self.start}, {self.end})"
            )


# The canonical ISO forms, with each ASCII digit written as 0.
_ISO_FORMS = ("0000-00-00", "0000-00-00T00:00", "0000-00-00T00:00:00")
_DIGITS_AS_ZERO = str.maketrans("123456789", "000000000")


def parse_epoch_ms(text: str) -> int:
    """Parse a window bound: epoch milliseconds, or an ISO date/datetime (UTC).

    Accepted forms: ``1383260400000``, ``2013-11-18``, ``2013-11-18T06:30``.
    The canonical forms, zero-padded with an upper-case ``T``, are read
    from their fields; any other text goes through ``strptime``, which
    also reads ``2013-1-8``, ``2013-11- 8`` and a lower-case ``t``.
    """
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    if text.translate(_DIGITS_AS_ZERO) in _ISO_FORMS:
        year, month, day = int(text[:4]), int(text[5:7]), int(text[8:10])
        time = [int(text[i:i + 2]) for i in range(11, len(text), 3)]
        try:
            dt = datetime(year, month, day, *time, tzinfo=timezone.utc)
        except ValueError:
            raise DomainError(f"cannot parse time bound {text!r}") from None
        return int(dt.timestamp() * 1000)
    for fmt in ("%Y-%m-%d", "%Y-%m-%dT%H:%M", "%Y-%m-%dT%H:%M:%S"):
        try:
            dt = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
            return int(dt.timestamp() * 1000)
        except ValueError:
            continue
    raise DomainError(f"cannot parse time bound {text!r}")


_DELIMITER_NAMES = {"tab": "\t", "comma": ",", "semicolon": ";", "space": " "}

_LAYOUT_KEYS = set(ColumnLayout._fields) - {"delimiter"}


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
    return IngestConfig(layout=DEFAULT_LAYOUT._replace(**overrides), on_malformed=on_malformed)
