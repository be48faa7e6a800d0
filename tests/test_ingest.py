import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from tempolabel.cli import main
from tempolabel.errors import InputError
from tempolabel.ingest import (
    ParseError,
    config_header,
    format_timestamp,
    parse_timestamp,
    read_annotations_csv,
    read_json,
    read_label_csv,
    read_sensor_csv,
    write_label_csv,
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


def test_oversized_field_is_parse_error(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text('timestamp,value\n"' + "x" * 200_000 + "\n")
    with pytest.raises(ParseError, match="field larger than field limit"):
        read_label_csv(path)
