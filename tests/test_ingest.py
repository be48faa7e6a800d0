import csv
import os
import sys
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempolabel import ingest
from tempolabel.cli import main
from tempolabel.errors import InputError
from tempolabel.hmm import SensorSeries
from tempolabel.ingest import (
    ANNOTATION_COLUMNS,
    ParseError,
    config_header,
    format_timestamp,
    parse_timestamp,
    read_annotations_csv,
    read_json,
    read_label_csv,
    read_sensor_csv,
    write_label_csv,
    write_table_csv,
)
from tempolabel.labels import LabelSeries

from .oracles import reference_write_label_csv

_NEW_YEAR_2024 = parse_timestamp("2024-01-01 00:00")
# -0.0 next to 0.0, which one text per distinct float would write alike
_AWKWARD = np.array([5e-324, 1e-300, 0.1 + 0.2, 1 - 2**-53, 2 / 3, 1e-5, 0.5, -0.0, 0.0])

_window_starts = st.one_of(
    st.integers(-(10**8), -1),  # before 1970
    st.integers(0, 3000).map(lambda k: 20_000 * 1440 - k),  # ends past a midnight
    st.integers(0, 3000).map(lambda k: _NEW_YEAR_2024 - k),  # ends past a new year
    st.integers(-(10**7), 10**7),
    st.integers(parse_timestamp("0001-01-01 00:00"), parse_timestamp("1000-01-01 00:00")),
)


def _values(rng, n, kinds):
    pools = {
        "binary": lambda: rng.integers(0, 2, n).astype(float),
        "ramp": lambda: rng.integers(0, 31, n) / 30.0,
        "random": lambda: rng.random(n),
        "awkward": lambda: rng.choice(_AWKWARD, n),
    }
    drawn = np.stack([pools[kind]() for kind in kinds])
    return drawn[rng.integers(0, len(kinds), n), np.arange(n)]


@settings(max_examples=60, deadline=None)
@given(
    window_start=_window_starts,
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["binary", "ramp", "random", "awkward"]), min_size=1, unique=True),
    with_config=st.booleans(),
)
def test_label_writer_matches_row_by_row_oracle(tmp_path_factory, window_start, n, seed, kinds, with_config):
    series = LabelSeries(window_start, _values(np.random.default_rng(seed), n, kinds))
    config = {"annotator_id": "p01", "delta": 0.1} if with_config else None
    tmp = tmp_path_factory.mktemp("codec")
    write_label_csv(tmp / "fast.csv", series, config)
    reference_write_label_csv(tmp / "slow.csv", series, config_header(config) if config else "")
    assert (tmp / "fast.csv").read_bytes() == (tmp / "slow.csv").read_bytes()
    # the written file, and a sensor file laid out alike, read back in bulk
    (tmp / "sensor.csv").write_text(
        (config_header(config) if config else "")
        + "timestamp,humidity\n"
        + ingest._label_body(window_start, -series.values)
    )
    row_reader = mock.patch.object(ingest, "_read_grid_rows", side_effect=AssertionError)
    with row_reader:
        label, sensor = read_label_csv(tmp / "fast.csv"), read_sensor_csv(tmp / "sensor.csv")
    assert label.window_start == sensor.start_minute == window_start
    assert _bits(label.values) == _bits([float(f"{v:.12g}") for v in series.values])
    assert _bits(sensor.values) == _bits([float(f"{-v:.12g}") for v in series.values])


def test_bulk_reader_counts_bytes_from_the_header(tmp_path):
    # a byte order mark and non-ASCII comments put the header's byte offset
    # past its character offset; the last row has no line break
    path = tmp_path / "labels.csv"
    path.write_bytes(
        "\ufeff# who=Zoë\n # où,là\ntimestamp,value\n2024-03-01 23:59,0.5\n2024-03-02 00:00,1".encode()
    )
    with mock.patch.object(ingest, "_read_grid_rows", side_effect=AssertionError):
        series = read_label_csv(path)
    assert series.window_start == parse_timestamp("2024-03-01 23:59")
    assert series.values.tolist() == [0.5, 1.0]


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


_LAST = parse_timestamp("9999-12-31 23:59")
_YEAR_1 = parse_timestamp("0001-01-01 00:00")


@pytest.mark.parametrize(
    "start, n, minute",
    [(_LAST + 5, 2, _LAST + 5), (_YEAR_1 - 3, 5, _YEAR_1 - 3)],
    ids=["starts-past-9999", "starts-before-year-1"],
)
def test_label_writer_outside_years_1_9999_names_minute(tmp_path, start, n, minute):
    with pytest.raises(InputError, match=f"^minute {minute} lies outside the years 1-9999$"):
        write_label_csv(tmp_path / "labels.csv", LabelSeries(start, np.full(n, 0.5)))
    assert not list(tmp_path.iterdir())  # the rows are rendered before the file is opened


_GRID_ERROR = "is not one minute after the previous row's"


def _read_outcome(path, prime, text):
    """What read_label_csv makes of a file whose rows are `prime`, `text`
    and the canonical stamp of the minute after `text`'s."""
    try:
        after = format_timestamp(parse_timestamp(text) + 1)
    except InputError:  # never read: the case row fails first
        after = "2024-03-01 12:34"
    path.write_text(f"timestamp,value\n{prime},0\n{text},0.5\n{after},1\n")
    try:
        series = read_label_csv(path)
    except InputError as exc:
        return type(exc), str(exc)
    return series.window_start, series.values.tolist()


def _expected_outcome(prime, text):
    """The same from parse_timestamp alone; the case row is line 3."""
    start = parse_timestamp(prime)
    try:
        minute = parse_timestamp(text)
    except InputError as exc:
        return ParseError, f"line 3: {exc}"
    if minute != start + 1:
        return ParseError, f"line 3: timestamp {text!r} {_GRID_ERROR}"
    return start, [0.0, 0.5, 1.0]


@pytest.mark.parametrize(
    "text",
    [
        "2024-03-01 00:00",
        "2024-03-01 10:07",
        "2024-03-01 23:59",
        "2024-03-02 00:00",
        "1969-12-31 23:59",
        "2024-1-5 3:07",
        "2024-03-01 3:07",
        " 2024-03-01 10:00",
        "2024-03-01 10:00 ",
        "2024-03-01  9:00",
        "2024-02-30 10:00",
        "2024-03-01 24:00",
        "2024-03-01 10:60",
        "2024-03-01 1:000",
        "2024-03-01T10:00",
        "2024-03-01 -1:00",
        "２０２４-03-01 10:00",
        "2024-03-01 １０:００",
        "2024-03-01 10:0",
        "",
    ],
)
def test_day_cache_matches_parse_timestamp(tmp_path, text):
    # most cases share the primed date; the second prime is the minute
    # before the case's, so a valid case is read and the row after it must
    # match the stamp sequence again
    primes = ["2024-03-01 12:00"]
    try:
        primes.append(format_timestamp(parse_timestamp(text) - 1))
    except InputError:
        pass
    for prime in primes:
        assert _read_outcome(tmp_path / "labels.csv", prime, text) == _expected_outcome(prime, text)


@settings(max_examples=200, deadline=None)
@given(
    prime=st.sampled_from(["2024-03-01 12:00", " 2024-3-1  12:00", "0999-12-31 23:59"]),
    tail=st.text(alphabet="0123456789: １", min_size=0, max_size=6),
)
def test_day_cache_matches_parse_timestamp_on_mangled_times(tmp_path_factory, prime, tail):
    path = tmp_path_factory.mktemp("stamps") / "labels.csv"
    text = prime[:11] + tail
    assert _read_outcome(path, prime, text) == _expected_outcome(prime, text)


def _diary_outcome(path, start, end):
    """What read_annotations_csv makes of a one-row diary on 2024-03-01."""
    row = f"p,2024-03-01,shower,{start},{end}"
    path.write_text(f"annotator_id,date,event_kind,start,end\n{row}\n", encoding="utf-8")
    try:
        (record,) = read_annotations_csv(path)
    except ParseError as exc:
        return str(exc)
    return record.start, record.end


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="0123456789: +_１", max_size=7))
def test_diary_times_follow_the_timestamp_grammar(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("diary") / "diary.csv"
    try:
        parse_timestamp("2024-03-01 " + text)
        valid = True
    except InputError:
        valid = False
    # the text as the start of an event ending 23:59, then as the end of one
    # starting 00:00
    for start, end in ((text, "23:59"), ("00:00", text)):
        outcome = _diary_outcome(path, start, end)
        if not valid:
            assert outcome == f"line 2: bad time {text!r}, expected HH:MM"
            continue
        bounds = tuple(parse_timestamp("2024-03-01 " + t) for t in (start, end))
        if bounds[1] <= bounds[0]:
            assert outcome == f"line 2: end {end!r} must be after start {start!r}"
        else:
            assert outcome == bounds


def test_label_read_uses_file_line_for_bad_timestamp(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "# a comment\n"
        "timestamp,value\n"
        "2024-03-01 10:00,0\n"
        "# another\n"
        "2024-03-01 25:00,1\n"
    )
    with pytest.raises(ParseError, match=r"^line 5: bad timestamp '2024-03-01 25:00'"):
        read_label_csv(path)


def test_sensor_read_reports_missing_value_field(tmp_path):
    path = tmp_path / "sensor.csv"
    path.write_text("timestamp,humidity\n2024-03-01 10:00,40\n2024-03-01 10:01\n")
    with pytest.raises(ParseError, match=r"^line 3: row is missing fields: humidity"):
        read_sensor_csv(path)


def test_label_rows_cross_days_and_keep_values(tmp_path):
    start = parse_timestamp("2023-12-31 23:58")
    series = LabelSeries(start, np.array([0.0, 0.25, 1.0, 0.25]))
    path = tmp_path / "labels.csv"
    write_label_csv(path, series)
    assert path.read_text() == (
        "timestamp,value\n"
        "2023-12-31 23:58,0\n"
        "2023-12-31 23:59,0.25\n"
        "2024-01-01 00:00,1\n"
        "2024-01-01 00:01,0.25\n"
    )
    again = read_label_csv(path)
    assert again.window_start == start
    np.testing.assert_array_equal(again.values, series.values)


def test_config_header_escapes_line_breaks():
    header = config_header({"annotator_id": "a\nb\\c\rd", "delta": 0.1})
    assert header == "# annotator_id=a\\nb\\\\c\\rd\n# delta=0.1\n"


def test_config_header_escapes_lone_surrogates():
    # "\udcff" is how Python decodes the byte 0xff of a file name that is not
    # UTF-8; other non-ASCII text, and the same escape typed out, stay apart
    header = config_header({"params": "x/\udcff.json", "who": "Zoë \\udcff"})
    assert header == "# params=x/\\udcff.json\n# who=Zoë \\\\udcff\n"
    header.encode("utf-8")


def test_config_header_formats_equal_values_apart():
    # True == 1 == 1.0, and each header line is rendered once per text
    configs = [{"k": True}, {"k": 1}, {"k": 1.0}, {True: 0}, {1: 0}]
    headers = ["# k=True\n", "# k=1\n", "# k=1.0\n", "# True=0\n", "# 1=0\n"]
    assert [config_header(config) for config in configs] == headers


def test_label_writer_replaces_a_longer_file(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("x" * 10_000)
    write_label_csv(path, LabelSeries(0, np.array([0.0, 0.5])))
    assert path.read_bytes() == b"timestamp,value\n1970-01-01 00:00,0\n1970-01-01 00:01,0.5\n"


def test_written_file_mode_is_that_of_open(tmp_path):
    umask = os.umask(0o027)
    try:
        with open(tmp_path / "by_open.csv", "w"):
            pass
        write_label_csv(tmp_path / "by_writer.csv", LabelSeries(0, np.array([1.0])))
    finally:
        os.umask(umask)
    assert (tmp_path / "by_writer.csv").stat().st_mode == (tmp_path / "by_open.csv").stat().st_mode


def test_writer_finishes_short_writes(tmp_path):
    write = os.write
    series = LabelSeries(0, np.linspace(0.0, 1.0, 50))
    write_label_csv(tmp_path / "whole.csv", series, {"delta": 0.1})
    with mock.patch.object(ingest.os, "write", lambda fd, data: write(fd, bytes(data[:7]))):
        write_label_csv(tmp_path / "short.csv", series, {"delta": 0.1})
    assert (tmp_path / "short.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_unencodable_text_leaves_no_file(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(UnicodeEncodeError):
        write_table_csv(path, [{"annotator_id": "\udcff"}])
    assert not path.exists()


def test_minutes_past_year_9999_are_input_errors(tmp_path):
    last = parse_timestamp("9999-12-31 23:59")
    assert format_timestamp(last) == "9999-12-31 23:59"
    with pytest.raises(InputError, match="outside the years 1-9999"):
        format_timestamp(last + 1)
    # a series may end on the last minute, but not one slot later
    path = tmp_path / "labels.csv"
    write_label_csv(path, LabelSeries(last - 2, np.array([0.0, 0.5, 1.0])))
    assert path.read_text().endswith("9999-12-31 23:58,0.5\n9999-12-31 23:59,1\n")
    assert read_label_csv(path).window_start == last - 2
    with pytest.raises(InputError, match=f"minute {last + 1} lies outside the years 1-9999"):
        write_label_csv(path, LabelSeries(last - 2, np.array([0.0, 0.5, 1.0, 1.0])))


def test_undecodable_bytes_are_parse_errors(tmp_path):
    path = tmp_path / "diary.csv"
    path.write_bytes(b"annotator_id,date,event_kind,start,end\np\xff,2024-03-01,shower,08:00,08:30\n")
    with pytest.raises(ParseError, match="not utf-8 text"):
        read_annotations_csv(path)


def test_annotation_records_are_read_only_rows_in_column_order(tmp_path):
    path = tmp_path / "diary.csv"
    # columns out of order, a padded id and a day's last minute
    path.write_text(
        "end,start,event_kind,date,annotator_id\n"
        "08:30,08:00,shower,2024-03-01, p01 \n"
        "23:59,23:40,cook,2024-03-02,q\n"
    )
    records = read_annotations_csv(path)
    assert records == read_annotations_csv(path)
    assert ingest.AnnotationRecord._fields == ANNOTATION_COLUMNS
    day = parse_timestamp("2024-03-02 00:00")
    assert [tuple(record) for record in records] == [
        ("p01", "2024-03-01", "shower", day - 960, day - 930),
        ("q", "2024-03-02", "cook", day + 1420, day + 1439),
    ]
    assert all(type(r.start) is int and type(r.end) is int for r in records)
    with pytest.raises(AttributeError):
        records[0].start = 0
    assert records[0].start == day - 960


_BOM = "\ufeff".encode("utf-8")


def test_diary_with_byte_order_mark_reads_as_without(tmp_path):
    text = "annotator_id,date,event_kind,start,end\nJosé,2024-03-01,ducha,08:00,08:30\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(_BOM + text.encode("utf-8"))
    assert read_annotations_csv(marked) == read_annotations_csv(plain)
    assert read_annotations_csv(marked)[0].annotator_id == "José"


@pytest.mark.parametrize("head", ["", "# a comment\n"])
def test_label_csv_with_byte_order_mark_reads_as_without(tmp_path, head):
    path = tmp_path / "labels.csv"
    path.write_bytes(_BOM + f"{head}timestamp,value\n2024-03-01 10:00,0.5\n".encode("utf-8"))
    series = read_label_csv(path)
    assert series.window_start == parse_timestamp("2024-03-01 10:00")
    assert series.values.tolist() == [0.5]


def test_json_with_byte_order_mark_reads_as_without(tmp_path):
    path = tmp_path / "params.json"
    path.write_bytes(_BOM + b'{"means": [1.0]}')
    assert read_json(path) == {"means": [1.0]}


def test_hash_line_inside_a_quoted_field_is_data(tmp_path):
    diary = tmp_path / "diary.csv"
    diary.write_text(
        'annotator_id,date,event_kind,start,end\n"x\n#y",2024-05-01,s,08:00,09:00\n'
    )
    assert [record.annotator_id for record in read_annotations_csv(diary)] == ["x\n#y"]
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["infer-habit", str(diary), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert '"annotator_id": "x\\n#y"' in out.read_text()
    labels = tmp_path / "labels.csv"
    labels.write_text('timestamp,value\n2024-03-01 10:00,"0.5\n#"\n')
    with pytest.raises(ParseError, match=r"^line 3: bad value '0\.5\\n#'$"):
        read_label_csv(labels)


def test_hash_line_opening_a_record_is_a_comment(tmp_path):
    path = tmp_path / "diary.csv"
    path.write_text(
        '# say ,"hi\n'  # as data, this line would open a quoted field
        "annotator_id,date,event_kind,start,end\n"
        "p,2024-05-01,s,08:00,09:00\n"
        "  # indented\n"
        '\t#x",\n'
        "p,2024-05-02,s,08:00,09:00\n"
        "p,2024-05-03,s,25:00,26:00\n"
    )
    with pytest.raises(ParseError, match=r"^line 7: bad time '25:00'"):
        read_annotations_csv(path)


# a '#' in a field is data, which the bulk reader leaves to the row reader
_HASH_IN_FIELD = b"note,timestamp,value\na#b,2024-03-01 10:00,1\nc,2024-03-01 10:01,0\n"


def test_hash_inside_a_field_goes_to_the_row_reader(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_bytes(_HASH_IN_FIELD)
    assert ingest._read_grid_bulk(path, "value") is None
    series = read_label_csv(path)
    assert series.window_start == parse_timestamp("2024-03-01 10:00")
    assert series.values.tolist() == [1.0, 0.0]


def test_oversized_field_is_parse_error(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text('timestamp,value\n"' + "x" * 200_000 + "\n")
    with pytest.raises(ParseError, match="field larger than field limit"):
        read_label_csv(path)
    # unquoted, and a value that float() parses
    path.write_text("timestamp,value\n2024-03-01 10:00," + "0" * 199_999 + "1\n")
    with pytest.raises(ParseError, match="^line 2: field larger than field limit"):
        read_label_csv(path)


def test_nul_in_a_value_reads_as_the_csv_module_reads_it(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("timestamp,value\n2024-03-01 10:00,0\x00\n")
    # csv rejects NUL before Python 3.11 and reads it as data since
    expected = "line contains NUL" if sys.version_info < (3, 11) else r"^line 2: bad value '0\\x00'$"
    with pytest.raises(ParseError, match=expected):
        read_label_csv(path)


# Grid files for the bulk reader to take or decline: a written-style file,
# then a few edits, each something the row reader treats in its own way.
_GRID_HEADERS = [
    ("timestamp", "value"),
    ("value", "timestamp"),
    ("timestamp", "humidity", "value"),
    ("note", "timestamp", "value"),
    ("timestamp", "value", "value"),  # a repeated name stands for its last column
    ("timestamp", "timestamp", "value"),
    ("note", "timestamp", "value", "memo"),  # the label reader reads neither end
]
# every one parses with float(); "\x85" is white space to it, not a line break
_ODD_CELLS = ["nan", "-nan", "inf", "-Infinity", "1_0", "-0.0", " 0.5", "0.5 ", "1\x85"]
_BAD_CELLS = ["", "x", "#1", " #", "1e", "1__0"]
_COMMENTS = ["# c", "  # c,d", "\t#x,y", "\x0c#,", "\x1c#", " # a,b", "#2024-03-01 10:00,1"]
_ROW_EDITS = [
    "gap", "repeat", "extra", "missing", "space", "loose stamp", "quote", "quote across", "bad cell",
    "past end",
]
_LINE_EDITS = ["comment before", "blank before", "comment after", "comment out", "blank after"]
_TEXT_EDITS = ["crlf", "lone cr", "nul", "no final newline", "bom", "bad byte"]


def _loose_stamp(stamp: str) -> str:
    """A canonical `stamp` as another text of the same minute."""
    year, month, day, hh, mm = stamp.replace(" ", "-").replace(":", "-").split("-")
    return f" {year}-{int(month)}-{int(day)}  {int(hh)}:{mm}"


@st.composite
def _grid_files(draw):
    """(file bytes, csv field size limit or None) of a mutated grid CSV."""
    n = draw(st.integers(1, 12))
    window = draw(st.sampled_from(["midnight", "year 9999", "any"]))
    if window == "midnight":
        start = 20_000 * 1440 - draw(st.integers(0, n))
    elif window == "year 9999":
        start = _LAST - n + 1
    else:
        start = draw(st.integers(_YEAR_1, _LAST - n + 1))
    header = list(draw(st.sampled_from(_GRID_HEADERS)))
    stamp_col = len(header) - 1 - header[::-1].index("timestamp")
    cells = st.one_of(st.floats().map(repr), st.sampled_from(_ODD_CELLS))
    rows = [
        [format_timestamp(start + i) if c == "timestamp" else draw(cells) for c in header]
        for i in range(n)
    ]
    edits = draw(st.lists(st.sampled_from(_ROW_EDITS + _LINE_EDITS + _TEXT_EDITS), max_size=3))
    for edit in (e for e in edits if e in _ROW_EDITS):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(header) - 1))
        if edit == "gap" and len(rows) > 1:
            del rows[i]
        elif edit == "repeat":
            rows.insert(i, list(rows[i]))
        elif edit == "extra":
            rows[i].append("0.5")
        elif edit == "missing" and rows[i]:
            rows[i].pop()
        elif edit == "space" and j < len(rows[i]):
            rows[i][j] = draw(st.sampled_from([" {}", "{} ", " {} "])).format(rows[i][j])
        elif edit == "loose stamp" and stamp_col < len(rows[i]):
            rows[i][stamp_col] = _loose_stamp(format_timestamp(start + min(i, n - 1)))
        elif edit == "quote" and j < len(rows[i]):
            rows[i][j] = draw(st.sampled_from(['"{}"', '{}"x', '"{}\n#"'])).format(rows[i][j])
        elif edit == "quote across" and i + 1 < len(rows) and rows[i] and rows[i + 1]:
            # one quoted field from the end of a row to the start of the next
            rows[i][-1], rows[i + 1][0] = '"' + rows[i][-1], rows[i + 1][0] + '"'
        elif edit == "bad cell" and j < len(rows[i]):
            rows[i][j] = draw(st.sampled_from(_BAD_CELLS))
        elif edit == "past end":
            rows.append(["10000-01-01 00:00" if c == "timestamp" else "1" for c in header])
    before, body = [], [",".join(row) for row in rows]
    for edit in (e for e in edits if e in _LINE_EDITS):
        lines = before if edit.endswith("before") else body
        if edit == "comment out":
            k = draw(st.integers(0, len(body) - 1))
            body[k] = draw(st.sampled_from(["#", " #", "\x1c#"])) + body[k]
        else:
            line = draw(st.sampled_from(_COMMENTS)) if edit.startswith("comment") else ""
            lines.insert(draw(st.integers(0, len(lines))), line)
    text = "".join(line + "\n" for line in before + [",".join(header)] + body)
    for edit in (e for e in edits if e in _TEXT_EDITS):
        at = draw(st.integers(0, len(text)))
        if edit == "crlf":
            text = text.replace("\n", "\r\n") if draw(st.booleans()) else text[:at] + "\r\n" + text[at:]
        elif edit == "lone cr":
            text = text[:at] + "\r" + text[at:]
        elif edit == "nul":
            text = text[:at] + "\0" + text[at:]
        elif edit == "no final newline":
            text = text.rstrip("\n")
        elif edit == "bom":
            text = "\ufeff" + text
    data = text.encode("utf-8")
    if "bad byte" in edits:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, draw(st.one_of(st.none(), st.integers(16, 48)))


_REALIGNED = b"2024-03-01 10:00,0,x,1\n2024-03-01 10:01,0\n2024-03-01 10:02,0,2024-03-01 10:02,1,1,1\n"


def _outcome(read, *args):
    """(start, value bits) of a read, or the type and text of what it raised."""
    try:
        start, values = read(*args)
    except Exception as exc:  # every failure is compared, whatever its type
        return type(exc), str(exc)
    return start, _bits(values)


@settings(max_examples=200, deadline=None)
@given(grid=_grid_files())
# one quoted field across two lines, each of which has the header's width
@example(grid=(b'note,timestamp,value,memo\na,2024-03-01 10:00,1,"b\nc",2024-03-01 10:01,0,d\n', None))
# a carriage return, which ends a record for csv, inside a value float() reads
@example(grid=(b"note,timestamp,value,memo\na,2024-03-01 10:00,1\r,b\n", None))
# a short row and a long one that together hold the header's field count
@example(grid=(b"timestamp,value,a,b\n" + _REALIGNED, None))
# a row whose first, unread field opens with '#'
@example(grid=(b"note,timestamp,value\n#a,2024-03-01 10:00,1\nb,2024-03-01 10:01,0\n", None))
# a field within the field size limit in characters, over it in bytes
@example(grid=("note,timestamp,value\n\xe9\xe9\xe9\xe9\xe9\xe9\xe9\xe9\xe9,2024-03-01 10:00,1\n".encode(), 16))
# the short and long rows again, with no final line break
@example(grid=(b"timestamp,value,a,b\n" + _REALIGNED[:-1], None))
# comments, then a header, then no rows
@example(grid=(b"# c\n  # d,e\nnote,timestamp,value\n", None))
# a '#' inside a field, which is data
@example(grid=(_HASH_IN_FIELD, None))
# an indented comment between two rows
@example(grid=(b"timestamp,value\n2024-03-01 10:00,1\n  # c\n2024-03-01 10:01,0\n", None))
def test_grid_reads_match_the_row_reader(tmp_path_factory, grid):
    data, limit = grid
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    path.write_bytes(data)
    rows = ingest._read_grid_rows
    old_limit = csv.field_size_limit(limit) if limit else None
    try:
        for value_col, what in (("value", "label"), (None, "sensor")):
            assert _outcome(ingest._read_grid_csv, path, value_col, what) == _outcome(
                rows, path, value_col, what
            )
        assert _outcome(lambda: astuple(read_label_csv(path))) == _outcome(
            lambda: astuple(LabelSeries(*rows(path, "value", "label")))
        )
        assert _outcome(lambda: astuple(read_sensor_csv(path))) == _outcome(
            lambda: astuple(SensorSeries(*rows(path, None, "sensor")))
        )
    finally:
        if old_limit is not None:
            csv.field_size_limit(old_limit)
