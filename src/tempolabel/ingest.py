"""File ingestion and report emission.

Everything is plain CSV or JSON. Timestamps are "YYYY-MM-DD HH:MM" at minute
precision and are carried internally as whole minutes since 1970-01-01,
which keeps grid arithmetic exact. Label and sensor CSVs label each slot by
its start minute. Output files embed the effective configuration as '#'
header comments so a result can always be traced back to its inputs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np

from .errors import InputError, ParseError
from .hmm import SensorSeries
from .labels import EventAnnotation, LabelSeries

_EPOCH = date(1970, 1, 1)

ANNOTATION_COLUMNS = ("annotator_id", "date", "event_kind", "start", "end")


def parse_timestamp(text: str) -> int:
    """'YYYY-MM-DD HH:MM' -> absolute minute."""
    try:
        dt = datetime.strptime(text.strip(), "%Y-%m-%d %H:%M")
    except ValueError as exc:
        raise InputError(f"bad timestamp {text!r}: {exc}") from exc
    return (dt.date() - _EPOCH).days * 1440 + dt.hour * 60 + dt.minute


def format_timestamp(minute: int) -> str:
    days, rem = divmod(int(minute), 1440)
    hh, mm = divmod(rem, 60)
    return f"{_EPOCH + timedelta(days=days):%Y-%m-%d} {hh:02d}:{mm:02d}"


def _parse_hhmm(text: str, line_no: int) -> int:
    parts = text.strip().split(":")
    if len(parts) != 2:
        raise ParseError(f"bad time {text!r}, expected HH:MM", line_no)
    try:
        hh, mm = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"bad time {text!r}, expected HH:MM", line_no)
    if not (0 <= hh <= 23 and 0 <= mm <= 59):
        raise ParseError(f"time {text!r} out of range", line_no)
    return hh * 60 + mm


@dataclass(frozen=True)
class AnnotationRecord:
    """One diary row: an annotator's reported event with absolute minutes."""

    annotator_id: str
    date: str
    event_kind: str
    start: int
    end: int

    def to_event(self) -> EventAnnotation:
        return EventAnnotation(
            start=self.start,
            end=self.end,
            annotator_id=self.annotator_id,
            event_kind=self.event_kind,
        )


def read_annotations_csv(path) -> list[AnnotationRecord]:
    """Parse a diary CSV; every problem is reported with its line number."""
    with open(path, newline="") as handle:
        reader = _CommentedCsv(handle)
        if reader.fieldnames is None:
            raise ParseError("file is empty")
        missing = [c for c in ANNOTATION_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ParseError(f"missing columns: {', '.join(missing)}", reader.line_num)
        records = []
        for row in reader:
            line_no = reader.line_num
            absent = [c for c in ANNOTATION_COLUMNS if row[c] is None]
            if absent:
                raise ParseError(f"row is missing fields: {', '.join(absent)}", line_no)
            if None in row:
                raise ParseError(f"row has {len(row[None])} extra field(s)", line_no)
            try:
                day = datetime.strptime(row["date"].strip(), "%Y-%m-%d").date()
            except ValueError:
                raise ParseError(f"bad date {row['date']!r}, expected YYYY-MM-DD", line_no)
            base = (day - _EPOCH).days * 1440
            start = base + _parse_hhmm(row["start"], line_no)
            end = base + _parse_hhmm(row["end"], line_no)
            if end <= start:
                raise ParseError(
                    f"end {row['end']!r} must be after start {row['start']!r}", line_no
                )
            records.append(
                AnnotationRecord(
                    annotator_id=row["annotator_id"].strip(),
                    date=row["date"].strip(),
                    event_kind=row["event_kind"].strip(),
                    start=start,
                    end=end,
                )
            )
    if not records:
        raise ParseError("no annotation rows found")
    return records


class _CommentedCsv(csv.DictReader):
    """DictReader over a CSV that may hold '#' comment lines anywhere.

    Each comment line reaches the parser as a blank line, which is skipped
    but still counted, so `line_num` is the file line of the row just
    returned (or of the header, before the first row).
    """

    def __init__(self, handle):
        super().__init__("\n" if line.lstrip().startswith("#") else line for line in handle)
        self.fieldnames = next((row for row in self.reader if row), None)

    def __next__(self) -> dict:
        row = super().__next__()
        # DictReader takes line_num before it skips blank lines
        self.line_num = self.reader.line_num
        return row


def config_header(config: dict) -> str:
    """Deterministic '#'-comment block embedding the effective config."""
    lines = [f"# {key}={config[key]}" for key in sorted(config)]
    return "\n".join(lines) + "\n" if lines else ""


def write_label_csv(path, series: LabelSeries, config: dict | None = None):
    with open(path, "w", newline="") as handle:
        if config:
            handle.write(config_header(config))
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["timestamp", "value"])
        for minute, value in zip(series.slot_starts(), series.values):
            writer.writerow([format_timestamp(minute), f"{value:.12g}"])


def read_label_csv(path) -> LabelSeries:
    minutes: list[int] = []
    values: list[float] = []
    with open(path, newline="") as handle:
        reader = _CommentedCsv(handle)
        if reader.fieldnames is None or "timestamp" not in reader.fieldnames or "value" not in reader.fieldnames:
            raise ParseError("label CSV needs 'timestamp' and 'value' columns")
        for row in reader:
            line_no = reader.line_num
            minutes.append(parse_timestamp(row["timestamp"]))
            try:
                values.append(float(row["value"]))
            except ValueError:
                raise ParseError(f"bad value {row['value']!r}", line_no)
    if not minutes:
        raise ParseError("label CSV has no rows")
    if len(minutes) > 1 and np.any(np.diff(minutes) != 1):
        raise InputError("label CSV must cover a contiguous 1-minute grid")
    return LabelSeries(window_start=minutes[0], values=np.array(values))


def read_sensor_csv(path) -> SensorSeries:
    minutes: list[int] = []
    values: list[float] = []
    with open(path, newline="") as handle:
        reader = _CommentedCsv(handle)
        if reader.fieldnames is None or "timestamp" not in reader.fieldnames:
            raise ParseError("sensor CSV needs 'timestamp' and a value column")
        value_col = next((c for c in reader.fieldnames if c != "timestamp"), None)
        if value_col is None:
            raise ParseError("sensor CSV needs a value column next to 'timestamp'")
        for row in reader:
            line_no = reader.line_num
            minutes.append(parse_timestamp(row["timestamp"]))
            try:
                values.append(float(row[value_col]))
            except ValueError:
                raise ParseError(f"bad value {row[value_col]!r}", line_no)
    if not minutes:
        raise ParseError("sensor CSV has no rows")
    return SensorSeries.from_timestamps(minutes, values)


def write_table_csv(path, rows: list[dict], config: dict | None = None):
    """Experiment table as CSV with stable column order and float formatting."""
    if not rows:
        raise InputError("refusing to write an empty table")
    columns = list(rows[0].keys())
    with open(path, "w", newline="") as handle:
        if config:
            handle.write(config_header(config))
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_json(path, payload: dict):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json(path) -> dict:
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
