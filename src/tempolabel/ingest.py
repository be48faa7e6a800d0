"""File ingestion and report emission.

Everything is plain CSV or JSON. Timestamps are "YYYY-MM-DD HH:MM" at minute
precision and are carried internally as whole minutes since 1970-01-01,
which keeps grid arithmetic exact. One grammar reads every time: a diary's
`date`, `start` and `end` with `_DATE_FORMAT` and `_TIME_FORMAT` alone, a
label or sensor stamp with the two joined by a space. Label and sensor CSVs
label each slot by its start minute, one row per consecutive minute.
`_day_prefix` and the `_HHMM` table are the one source of canonical stamp
text: the writer renders rows from them, and the readers match each stamp
against `_day_stamps`, and each diary time against `_HHMM`'s inverse, parsing
only a text that differs. A row that is not the minute after the previous
row's is reported with its file line. A label or sensor CSV laid out as the
writer lays it out (no quote, carriage return or NUL, and no '#' from the
header on, then one full row per line) is read in bulk: one decode, one
NumPy scan of its ',' and line-break bytes that checks each row's field
count, and one compare of its stamp column against the canonical stamps.
Every other file, and every file with a problem, is read row by row; that
row reader is the one source of parse errors, so the two paths accept the
same files, values and errors. A CSV line that starts a record and
whose first non-space character is '#' is a comment, and still counts as a
file line; inside a quoted field such a line is data. Output files embed the
effective configuration as '#' header comments so a result can always be
traced back to its inputs. Every file is read as UTF-8, a leading byte
order mark skipped. Every file is written by `_write_text`: its whole text
is built and encoded as UTF-8, without a byte order mark and with `\n` line
ends whatever the platform, before the file is opened, then written with one
`os.open`, `os.write` and `os.close`. So a text that cannot be encoded leaves
no file behind, and a label file costs three system calls. JSON is written as
`json.dumps(indent=2, sort_keys=True)` writes it: by `write_json`, or for
the `infer-habit` report by `write_habit_report`, which renders each
annotator's entry for a minute once and reuses it for every annotation at
that minute.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import os
import struct
from datetime import date, datetime, timedelta
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .catalog import MINUTES_PER_DAY, MINUTES_PER_HOUR
from .errors import InputError, ParseError
from .hmm import SensorSeries
from .labels import LabelSeries

_EPOCH = date(1970, 1, 1)
_LAST_DAY = (date.max - _EPOCH).days  # 9999-12-31
_DATE_FORMAT = "%Y-%m-%d"
_TIME_FORMAT = "%H:%M"

ANNOTATION_COLUMNS = ("annotator_id", "date", "event_kind", "start", "end")

_HHMM = [f"{hh:02d}:{mm:02d}" for hh in range(24) for mm in range(60)]  # by minute of day
_MINUTE_OF_DAY = {text: minute for minute, text in enumerate(_HHMM)}


def parse_timestamp(text: str) -> int:
    """'YYYY-MM-DD HH:MM' -> absolute minute."""
    try:
        dt = datetime.strptime(text.strip(), f"{_DATE_FORMAT} {_TIME_FORMAT}")
    except ValueError as exc:
        raise InputError(f"bad timestamp {text!r}: {exc}") from exc
    return _absolute_minute(dt)


def _absolute_minute(dt: datetime) -> int:
    """Whole minutes from 1970-01-01 00:00 to `dt`; a date parsed alone is
    its day's start."""
    days = dt.toordinal() - _EPOCH.toordinal()
    return days * MINUTES_PER_DAY + dt.hour * MINUTES_PER_HOUR + dt.minute


def format_timestamp(minute: int) -> str:
    day, minute_of_day = divmod(int(minute), MINUTES_PER_DAY)
    return _day_prefix(day, minute_of_day) + _HHMM[minute_of_day]


def _day_prefix(day: int, minute_of_day: int) -> str:
    """"YYYY-MM-DD " of the day `day` days after 1970-01-01; InputError
    naming minute day * MINUTES_PER_DAY + minute_of_day for a day outside
    the years 1-9999."""
    try:
        return _date_prefix(day)
    except OverflowError:
        minute = day * MINUTES_PER_DAY + minute_of_day
        raise InputError(f"minute {minute} lies outside the years 1-9999") from None


# Label and sensor files of one run share few days; lru_cache keeps no
# exception, so every out-of-range day raises afresh.
@lru_cache(maxsize=1024)
def _date_prefix(day: int) -> str:
    d = _EPOCH + timedelta(days=day)
    # %Y leaves years before 1000 unpadded on some platforms
    return f"{d.year:04d}-{d.month:02d}-{d.day:02d} "


def _diary_time(text: str, line_no: int) -> int:
    """Minute of day of a diary `HH:MM` field."""
    minute = _MINUTE_OF_DAY.get(text)
    if minute is None:
        try:
            t = datetime.strptime(text.strip(), _TIME_FORMAT)
        except ValueError:
            raise ParseError(f"bad time {text!r}, expected HH:MM", line_no) from None
        minute = _absolute_minute(t) % MINUTES_PER_DAY  # t lies on 1900-01-01
    return minute


class AnnotationRecord(NamedTuple):
    """One diary row: an annotator's reported event with absolute minutes."""

    annotator_id: str
    date: str
    event_kind: str
    start: int
    end: int


def read_annotations_csv(path) -> list[AnnotationRecord]:
    """Parse a diary CSV; every problem is reported with its line number."""
    rows = _csv_rows(path)
    header_line, header = next(rows, (None, None))
    if header is None:
        raise ParseError("file is empty")
    missing = [c for c in ANNOTATION_COLUMNS if c not in header]
    if missing:
        raise ParseError(f"missing columns: {', '.join(missing)}", header_line)
    columns = {name: i for i, name in enumerate(header)}
    pick = itemgetter(*(columns[c] for c in ANNOTATION_COLUMNS))
    records = []
    day_bases: dict[str, int] = {}
    for line_no, fields in rows:
        if len(fields) != len(header):
            _check_width(fields, header, line_no, ANNOTATION_COLUMNS)
        annotator_id, day_text, event_kind, start_text, end_text = pick(fields)
        base = day_bases.get(day_text)
        if base is None:
            try:
                day = datetime.strptime(day_text.strip(), _DATE_FORMAT)
            except ValueError:
                raise ParseError(f"bad date {day_text!r}, expected YYYY-MM-DD", line_no)
            base = day_bases[day_text] = _absolute_minute(day)
        start = base + _diary_time(start_text, line_no)
        end = base + _diary_time(end_text, line_no)
        if end <= start:
            raise ParseError(f"end {end_text!r} must be after start {start_text!r}", line_no)
        records.append(
            AnnotationRecord(annotator_id.strip(), day_text.strip(), event_kind.strip(), start, end)
        )
    if not records:
        raise ParseError("no annotation rows found")
    return records


def _csv_rows(path):
    """(file line, fields) of each non-blank record of a CSV, header first.

    A line that starts a record and whose first non-space character is '#'
    is a comment; inside a quoted field such a line is data. csv.reader
    pulls one line at a time and reads no further than the end of a
    record, so a line starts a record exactly when the lines read so far
    ended one. A comment reaches the parser as a blank line, which is
    skipped but still counted, so the file line of a record is its last
    line. Undecodable bytes and records the csv module rejects (a field
    over its size limit) raise ParseError.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        end = 0  # file line that ended the last record

        def lines():
            for line in handle:
                yield "\n" if line.lstrip().startswith("#") and reader.line_num == end else line

        reader = csv.reader(lines())
        try:
            for fields in reader:
                end = reader.line_num
                if fields:
                    yield end, fields
        except csv.Error as exc:
            raise ParseError(str(exc), reader.line_num) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"file is not {exc.encoding} text: {exc.reason}") from exc


def _check_width(row: list[str], header: list[str], line_no: int, needed) -> None:
    """ParseError, with the row's file line, for a row that lacks one of the
    `needed` columns or has more fields than the header. A short row that
    holds every needed column passes. A repeated column name stands for its
    last column, as csv.DictReader keys it."""
    columns = {name: i for i, name in enumerate(header)}
    absent = [c for c in needed if columns[c] >= len(row)]
    if absent:
        raise ParseError(f"row is missing fields: {', '.join(absent)}", line_no)
    if len(row) > len(header):
        raise ParseError(f"row has {len(row) - len(header)} extra field(s)", line_no)


def config_header(config: dict) -> str:
    """Deterministic '#'-comment block embedding the effective config.

    Backslashes and line breaks in values are written as \\\\, \\n and \\r, so
    each entry stays on its own comment line. A lone surrogate, which is how
    Python decodes a file name that is not UTF-8, is written as its \\udcXX
    escape, so that the header encodes.
    """
    lines = [_config_line(format(key), format(config[key])) for key in sorted(config)]
    return "\n".join(lines) + "\n" if lines else ""


# soft-labels writes one header per event from a few distinct values. Keyed
# by formatted texts, never by values: True, 1 and 1.0 hash alike but format
# differently.
@lru_cache(maxsize=1024)
def _config_line(key: str, text: str) -> str:
    text = text.replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")
    if not text.isascii():  # only a surrogate fails to encode, and backslashreplace escapes it
        text = text.encode("utf-8", "backslashreplace").decode("utf-8")
    return f"# {key}={text}"


# O_BINARY keeps Windows from translating line ends
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _write_text(path, text: str) -> None:
    """Replace the file at `path` by `text` as UTF-8, without a byte order
    mark and with its line ends as they are. The text is encoded before the
    file is opened, and the file is created with mode 0o666 less the umask,
    as `open(path, "w")` creates it."""
    rest = memoryview(text.encode("utf-8"))
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        while rest:  # os.write may write less than it is given
            rest = rest[os.write(fd, rest) :]
    finally:
        os.close(fd)


def write_label_csv(path, series: LabelSeries, config: dict | None = None):
    """One "timestamp,value" row per slot, values formatted with `.12g`."""
    body = _label_body(series.window_start, series.values)
    _write_text(path, (config_header(config) if config else "") + "timestamp,value\n" + body)


def _label_body(window_start: int, values: np.ndarray) -> str:
    """The "stamp,value" rows of a float64 series from `window_start`.

    InputError names the first minute, in order, that lies outside the
    years 1-9999, as `_day_stamps` does.
    """
    bits = values.view(np.int64).tolist()
    parts = [""] * (3 * len(bits))
    parts[2::3] = map(_value_cell, bits)
    row = 0
    for prefix, hhmms in _day_stamps(window_start, len(bits)):
        end = row + len(hhmms)
        parts[3 * row : 3 * end : 3] = [prefix] * len(hhmms)
        parts[3 * row + 1 : 3 * end : 3] = hhmms
        row = end
    return "".join(parts)


def _day_stamps(minute: int, count: int):
    """(date prefix, HH:MM texts) of each day that the `count` consecutive
    minutes from `minute` touch, in order. InputError names the first
    minute, in order, that lies outside the years 1-9999."""
    day, first = divmod(int(minute), MINUTES_PER_DAY)
    while count > 0:
        hhmms = _HHMM[first : first + count]
        yield _day_prefix(day, first), hhmms
        count, day, first = count - len(hhmms), day + 1, 0


# Label series share few distinct values (ramp steps, 0 and 1), so each is
# formatted once. Keyed by its bits, so that -0.0 keeps its own text.
@lru_cache(maxsize=1024)
def _value_cell(bits: int) -> str:
    (value,) = struct.unpack("<d", struct.pack("<q", bits))
    return f",{_format_cell(value)}\n"


def _read_grid_csv(path, value_col: str | None, what: str) -> tuple[int, np.ndarray]:
    """Start minute and values of a timestamped CSV whose rows are
    consecutive minutes, each problem with its file line.

    `value_col` None takes the first column other than 'timestamp'. A plain
    file (see `_read_grid_bulk`), such as any file `write_label_csv`
    writes, is read in bulk. Every other file, and every file with a problem,
    goes to the row reader `_read_grid_rows`, the one source of parse
    errors; for a file both read, they give the same start and value bits.
    """
    grid = _read_grid_bulk(path, value_col)
    return grid if grid is not None else _read_grid_rows(path, value_col, what)


def _grid_columns(header: list[str] | None, value_col: str | None, what: str) -> tuple[int, int]:
    """Positions of 'timestamp' and the value column in a grid CSV's
    `header`; ParseError for a header without them. A repeated name stands
    for its last column, as csv.DictReader keys it."""
    if value_col is None:
        if header is None or "timestamp" not in header:
            raise ParseError(f"{what} CSV needs 'timestamp' and a value column")
        value_col = next((c for c in header if c != "timestamp"), None)
        if value_col is None:
            raise ParseError(f"{what} CSV needs a value column next to 'timestamp'")
    elif header is None or "timestamp" not in header or value_col not in header:
        raise ParseError(f"{what} CSV needs 'timestamp' and {value_col!r} columns")
    columns = {name: i for i, name in enumerate(header)}
    return columns["timestamp"], columns[value_col]


def _read_grid_bulk(path, value_col: str | None) -> tuple[int, np.ndarray] | None:
    """`_read_grid_rows`' result for a plain grid CSV, checked column by
    column; None for any file this cannot prove the row reader accepts.

    A plain file decodes, holds no quote (which can open a multi-line
    field), carriage return (a line break to csv) or NUL (which csv rejects
    before Python 3.11), and no '#' from the header on, so that only the
    lines before its header can be comments. From the header on, one scan
    of its UTF-8 bytes (`_grid_rows`) checks that each line holds the
    header's field count, so that no line is blank, and that no field is
    longer than csv's field size limit. Its first stamp parses, each later
    stamp is the canonical text of the minute after the previous row's,
    and each value parses with `float`, as in the row reader.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:  # the row reader may report an earlier bad row
        return None
    if '"' in text or "\r" in text or "\0" in text:
        return None
    header_at = 0  # the header's offset in `text`, after the comment lines
    while True:
        end = text.find("\n", header_at)
        line = text[header_at:] if end == -1 else text[header_at:end]
        if not line.lstrip().startswith("#"):
            break
        if end == -1:
            return None  # comments and no header
        header_at = end + 1
    if text.find("#", header_at) != -1:  # the writer puts no '#' after the header
        return None
    header = line.split(",")
    try:
        at_stamp, at_value = _grid_columns(header, value_col, "")
    except ParseError:
        return None
    width = len(header)
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    body = np.frombuffer(data, np.uint8)[bom + len(text[:header_at].encode("utf-8")) :]
    n_rows = _grid_rows(body, width)
    del data, body
    if n_rows is None:
        return None
    # the header and rows as one list of cells: the text from the header,
    # less the final line break, split at every separator
    cells = text[header_at : len(text) - text.endswith("\n")].replace("\n", ",").split(",")
    del text
    try:
        start = parse_timestamp(cells[width + at_stamp])
        canonical = "\n".join(
            prefix + ("\n" + prefix).join(hhmms)
            for prefix, hhmms in _day_stamps(start + 1, n_rows - 1)
        )
        # no cell holds a line break, so equal texts mean equal stamp lists
        if "\n".join(cells[2 * width + at_stamp :: width]) != canonical:
            return None
        return start, np.fromiter(map(float, cells[width + at_value :: width]), float, n_rows)
    except (InputError, ValueError):
        return None


_COMMA, _LINE_BREAK = ord(","), ord("\n")


def _grid_rows(body: np.ndarray, width: int) -> int | None:
    """The row count of `body`, the UTF-8 bytes of a CSV from its header
    line on, if it has a row, every line holds `width` fields and no field
    is longer than csv's field size limit; else None. A last line without
    a line break counts.

    The ',' and '\\n' bytes must come as `width` - 1 commas, then one line
    break, line after line. A field's byte count bounds its character
    count from above, so a non-ASCII field can make this decline a file
    that csv reads, never accept one that csv rejects.
    """
    seps = np.flatnonzero((body == _COMMA) | (body == _LINE_BREAK))
    kinds = body[seps]
    if body[-1] != _LINE_BREAK:
        seps, kinds = np.append(seps, body.size), np.append(kinds, np.uint8(_LINE_BREAK))
    n_lines, rest = divmod(kinds.size, width)
    line = np.full(width, _COMMA, np.uint8)
    line[-1] = _LINE_BREAK
    if rest or n_lines < 2 or not (kinds.reshape(n_lines, width) == line).all():
        return None
    # a field's bytes lie between two separators, or from the start to the first
    if np.diff(seps, prepend=-1).max() - 1 > csv.field_size_limit():
        return None
    return n_lines - 1


def _read_grid_rows(path, value_col: str | None, what: str) -> tuple[int, np.ndarray]:
    """`_read_grid_csv` one row at a time, for any file.

    A row whose stamp is the canonical text of the minute after the
    previous row's is taken as is; any other stamp is parsed, and must
    parse to that minute unless it is the first row's.
    """
    rows = _csv_rows(path)
    _, header = next(rows, (None, None))
    at_stamp, at_value = _grid_columns(header, value_col, what)
    needed = ("timestamp", header[at_value])
    start = None
    values: list[float] = []
    stamps = iter(())  # canonical text of each next row's minute
    for line_no, row in rows:
        if len(row) != len(header):
            _check_width(row, header, line_no, needed)
        text, value = row[at_stamp], row[at_value]
        if text != next(stamps, None):
            try:
                minute = parse_timestamp(text)
            except InputError as exc:
                raise ParseError(str(exc), line_no) from exc
            if start is None:  # the stamps of the later minutes up to 9999-12-31 23:59
                days = _day_stamps(minute + 1, (_LAST_DAY + 1) * MINUTES_PER_DAY - minute - 1)
                start, stamps = minute, (prefix + hhmm for prefix, hhmms in days for hhmm in hhmms)
            elif minute != start + len(values):
                raise ParseError(
                    f"timestamp {text!r} is not one minute after the previous row's", line_no
                )
        try:
            values.append(float(value))
        except ValueError:
            raise ParseError(f"bad value {value!r}", line_no)
    if start is None:
        raise ParseError(f"{what} CSV has no rows")
    return start, np.array(values)


def read_label_csv(path) -> LabelSeries:
    return LabelSeries(*_read_grid_csv(path, "value", "label"))


def read_sensor_csv(path) -> SensorSeries:
    return SensorSeries(*_read_grid_csv(path, None, "sensor"))


def write_table_csv(path, rows: list[dict], config: dict | None = None):
    """Experiment table as CSV with stable column order and float formatting."""
    if not rows:
        raise InputError("refusing to write an empty table")
    columns = list(rows[0].keys())
    text = io.StringIO()
    if config:
        text.write(config_header(config))
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row[c]) for c in columns])
    _write_text(path, text.getvalue())


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_json(path, payload: dict):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


_PAD = "  "  # one level of json.dumps(indent=2)


def write_habit_report(path, config: dict, annotators) -> None:
    """The `infer-habit` report of `config` and, per (annotator_id,
    HabitPosterior, CategoryPosterior) in `annotators`, in order, the habit
    block and one entry per annotation.

    The bytes are those `write_json` writes for the report built from the
    posteriors' `to_dict`: {"annotators": [{"annotations", "annotator_id",
    "habit", "n_annotations"}, ...], "config": config}. An annotation's
    entry depends only on its index and its minute, so each annotator's
    entry text for a minute is rendered once, and every annotation at that
    minute reuses it after its own "index" line. `json` renders the rest.
    """
    blocks = [_annotator_block(*annotator) for annotator in annotators]
    text = _with_first_key("annotators", _json_list(blocks, 1), {"config": config}, 0)
    _write_text(path, text + "\n")


def _annotator_block(annotator_id: str, habit, rows) -> str:
    """One annotator's report object, rendered at depth 2."""
    periods, probs = rows.catalog.periods, rows.table.tolist()
    tails = {m: _entry_tail(periods[rows.map_index[m]], m, probs[m]) for m in set(rows.minutes)}
    entries = [f'{{\n{_PAD * 5}"index": {i},{tails[m]}' for i, m in enumerate(rows.minutes)]
    rest = {"annotator_id": annotator_id, "habit": habit.to_dict(), "n_annotations": len(rows)}
    return _with_first_key("annotations", _json_list(entries, 3), rest, 2)


def _entry_tail(period: int, minute: int, probs: list[float]) -> str:
    """The text after `"index": i,` of an annotation entry at depth 4, laid
    out as `_json_at` would lay it out. The probabilities are finite, which
    json writes with float.__repr__."""
    key, item = "\n" + _PAD * 5, "\n" + _PAD * 6
    return (
        f'{key}"map_period": {period},{key}"minute": {minute},{key}"probs": [{item}'
        + ("," + item).join(map(float.__repr__, probs))
        + f"{key}]\n{_PAD * 4}}}"
    )


def _json_at(value, depth: int) -> str:
    """json.dumps(value, indent=2, sort_keys=True) as it reads nested at `depth`.

    json escapes line breaks inside strings, so every newline in its output
    starts an indented line."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + _PAD * depth)


def _json_list(items: list[str], depth: int) -> str:
    """An indent-2 JSON list at `depth` of items already rendered at depth + 1."""
    if not items:
        return "[]"
    inner = "\n" + _PAD * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + _PAD * depth + "]"


def _with_first_key(key: str, value_text: str, rest: dict, depth: int) -> str:
    """The indent-2, key-sorted JSON object at `depth` of `rest` plus `key`,
    whose value is already rendered at `depth + 1`; `key` sorts before every
    key of the non-empty `rest`."""
    head = "{\n" + _PAD * (depth + 1) + json.dumps(key) + ": " + value_text
    return head + "," + _json_at(rest, depth)[1:]


def read_json(path) -> dict:
    with open(path, encoding="utf-8-sig") as handle:
        try:
            return json.load(handle)
        # ValueError covers syntax errors, undecodable bytes and integers
        # past Python's digit limit; RecursionError, nesting too deep
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
