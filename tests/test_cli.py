import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from tempolabel import hmm
from tempolabel.catalog import DEFAULT_PERIODS, CategoryCatalog
from tempolabel.cli import main
from tempolabel.inference import SwitchModel
from tempolabel.ingest import (
    ParseError,
    format_timestamp,
    parse_timestamp,
    read_annotations_csv,
    read_label_csv,
    read_sensor_csv,
    write_label_csv,
)
from tempolabel.labels import LabelSeries

from .oracles import reference_habit_report


@pytest.fixture()
def runner():
    return CliRunner()


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_timestamp_roundtrip():
    minute = parse_timestamp("2024-03-01 08:07")
    assert format_timestamp(minute) == "2024-03-01 08:07"
    assert parse_timestamp("1970-01-01 00:00") == 0


@pytest.mark.parametrize("text", ["0001-01-01 00:00", "0999-03-01 07:30", "1000-12-31 23:59"])
def test_timestamp_roundtrip_keeps_four_digit_years(text):
    assert format_timestamp(parse_timestamp(text)) == text


def test_soft_labels_before_year_1000_evaluate(runner, tmp_path):
    diary = _write(
        tmp_path / "diary.csv",
        "annotator_id,date,event_kind,start,end\np01,0999-03-01,shower,07:30,08:00\n",
    )
    out_dir = tmp_path / "labels"
    result = runner.invoke(main, ["soft-labels", diary, "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    (labels,) = out_dir.glob("*.csv")
    assert "\n0999-03-01 07:30," in labels.read_text()
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--labels", str(labels),
            "--predictions", str(labels),
            "--out", str(tmp_path / "metrics.json"),
        ],
    )
    assert result.exit_code == 0, result.output


def test_read_annotations_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "annotator_id,date,event_kind,start,end\n"
        "p01,2024-03-01,shower,08:00,08:30\n"
        "p01,2024-03-02,shower,25:00,26:00\n"
    )
    with pytest.raises(ParseError) as err:
        read_annotations_csv(path)
    assert "line 3" in str(err.value)


def test_label_csv_roundtrip(tmp_path):
    series = LabelSeries(window_start=480, values=np.array([0.0, 0.25, 1.0, 0.5]))
    path = tmp_path / "series.csv"
    write_label_csv(path, series, {"delta": 0.1})
    again = read_label_csv(path)
    assert again.window_start == 480
    np.testing.assert_allclose(again.values, series.values, atol=1e-12)
    assert path.read_text().startswith("# delta=0.1\n")


_SRC = Path(__file__).resolve().parents[1] / "src"
# a C locale whose preferred encoding stays ASCII: no coercion, no UTF-8 mode
_ASCII_ENV = {"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONUTF8": "0"}


def _python(args, env, cwd):
    """`python args` in a fresh interpreter with the package on its path
    and `env` added to the environment."""
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, cwd=cwd)


@pytest.mark.parametrize("command, out", [("infer-habit", "report.json"), ("soft-labels", "labels")])
def test_non_ascii_diary_reads_and_writes_the_same_under_an_ascii_locale(tmp_path, command, out):
    probe = ["-c", "import locale; print(locale.getpreferredencoding(False))"]
    encoding = _python(probe, _ASCII_ENV, tmp_path).stdout.decode().strip()
    assert encoding.lower().replace("-", "") != "utf8"
    (tmp_path / "diary.csv").write_bytes(
        "annotator_id,date,event_kind,start,end\n"
        "José,2024-03-01,ducha,08:00,08:30\n"
        "José,2024-03-02,ducha,07:12,07:41\n".encode("utf-8")
    )
    written = {}
    for name, env in (("utf8", {"PYTHONUTF8": "1"}), ("ascii", _ASCII_ENV)):
        (tmp_path / name).mkdir()
        target = tmp_path / name / out
        args = ["-m", "tempolabel", command, "diary.csv", "--out", str(target)]
        result = _python(args, env, tmp_path)
        assert result.returncode == 0, result.stderr.decode()
        files = sorted(target.rglob("*")) if target.is_dir() else [target]
        written[name] = [(f.name, f.read_bytes()) for f in files]
    assert written["ascii"] == written["utf8"]


_ZOE_ARGS = ["infer-habit", "diary.csv", "--annotator", "Zoë", "--out", "r.json"]


# from the command line, and as text passed to `main` in-process
@pytest.mark.parametrize(
    "args",
    [
        ["-m", "tempolabel", *_ZOE_ARGS],
        ["-c", f"from tempolabel.cli import main; main({_ZOE_ARGS!a})"],
    ],
    ids=["argv", "in-process"],
)
def test_non_ascii_annotator_option_matches_under_an_ascii_locale(tmp_path, args):
    (tmp_path / "diary.csv").write_bytes(
        "annotator_id,date,event_kind,start,end\nZoë,2024-03-01,ducha,08:00,08:30\n".encode("utf-8")
    )
    result = _python(args, _ASCII_ENV, tmp_path)
    assert result.returncode == 0, result.stderr.decode()
    assert b"warning" not in result.stderr
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert [a["annotator_id"] for a in report["annotators"]] == ["Zoë"]


def test_infer_habit_cmd(runner, annotations_csv, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main, ["infer-habit", str(annotations_csv), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    by_id = {a["annotator_id"]: a for a in report["annotators"]}
    assert set(by_id) == {"p01", "p02"}
    assert by_id["p01"]["habit"]["map_period"] == 30
    assert by_id["p02"]["habit"]["map_period"] == 1
    assert by_id["p01"]["n_annotations"] == len(by_id["p01"]["annotations"]) == 8
    table = by_id["p01"]["table"]
    assert set(table) == {str(m) for m in by_id["p01"]["annotations"]}
    for entry in table.values():
        assert entry["map_period"] == 30


def test_infer_habit_two_annotators_independent(runner, annotations_csv, tmp_path):
    full = tmp_path / "full.json"
    only = tmp_path / "only.json"
    assert runner.invoke(main, ["infer-habit", str(annotations_csv), "--out", str(full)]).exit_code == 0
    assert (
        runner.invoke(
            main,
            ["infer-habit", str(annotations_csv), "--annotator", "p02", "--out", str(only)],
        ).exit_code
        == 0
    )
    full_p02 = next(
        a for a in json.loads(full.read_text())["annotators"] if a["annotator_id"] == "p02"
    )
    only_p02 = json.loads(only.read_text())["annotators"][0]
    assert full_p02 == only_p02


def test_infer_habit_rerun_is_byte_identical(runner, annotations_csv, tmp_path):
    paths = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert runner.invoke(main, ["infer-habit", str(annotations_csv), "--out", str(out)]).exit_code == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_infer_habit_unknown_annotator_warns(runner, annotations_csv, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["infer-habit", str(annotations_csv), "--annotator", "nobody", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert "warning" in result.output
    assert json.loads(out.read_text())["annotators"] == []


def _diary_text(rows) -> str:
    """A diary CSV of (annotator_id, date, start, end) rows, every field quoted."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(["annotator_id", "date", "event_kind", "start", "end"])
    writer.writerows((a, d, "shower", s, e) for a, d, s, e in rows)
    return buffer.getvalue()


def _assert_report_matches_reference(runner, tmp_path, diary, options=(), annotator=None):
    """`infer-habit` on `diary` writes the bytes json's indent encoder
    writes for the report built from `to_dict`; returns the file's text."""
    path = tmp_path / "diary.csv"
    path.write_text(diary, encoding="utf-8", newline="")
    out = tmp_path / "report.json"
    args = ["infer-habit", str(path), *options, "--out", str(out)]
    if annotator is not None:
        args[2:2] = ["--annotator", annotator]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    opts = dict(zip(options[::2], options[1::2]))
    periods = opts["--catalog"].split(",") if "--catalog" in opts else DEFAULT_PERIODS
    model = SwitchModel(float(opts.get("--delta", SwitchModel.delta)))
    expected = reference_habit_report(
        read_annotations_csv(path), CategoryCatalog.from_periods(periods), model, annotator
    )
    assert out.read_bytes() == expected.encode("utf-8")
    return out.read_text(encoding="utf-8")


# ids the report must escape: quotes, backslashes, line breaks and other
# control characters, non-ASCII text, one that is empty once stripped, and
# one whose quoted line break is followed by '#'
_HOSTILE_ID = st.one_of(
    st.sampled_from(
        ['"q"', "b\\s", "x\ny", "x\n#y", "r\rz", "\t\x01\x1f\x7f", "Zoë", "日本", "😀", "  "]
    ),
    st.text(max_size=6).map(lambda text: text.replace("\x00", "")),
)


def _hhmm(minute: int) -> str:
    return f"{minute // 60:02d}:{minute % 60:02d}"


@st.composite
def _small_diary(draw):
    rows = []
    for annotator_id in draw(st.lists(_HOSTILE_ID, min_size=1, max_size=4)):
        for day in range(draw(st.integers(1, 5))):
            start = draw(st.integers(0, 1438))
            end = draw(st.integers(start + 1, 1439))
            rows.append((annotator_id, f"2024-05-{1 + day:02d}", _hhmm(start), _hhmm(end)))
    return _diary_text(rows)


@settings(deadline=None, max_examples=60)
@given(
    diary=_small_diary(),
    options=st.sampled_from(
        [
            (),
            ("--catalog", "1", "--delta", "0"),
            ("--catalog", "60,20,4,1", "--delta", "0.37"),
            ("--delta", "1"),
        ]
    ),
)
def test_infer_habit_report_matches_indent_encoder(tmp_path_factory, diary, options):
    tmp_path = tmp_path_factory.mktemp("report")
    _assert_report_matches_reference(CliRunner(), tmp_path, diary, options)


_HOSTILE_DIARY = _diary_text(
    [
        ('say "hi"\\', "2024-03-01", "08:00", "08:30"),
        ("line\nbreak\t\x07", "2024-03-02", "07:12", "07:41"),
        ("Zoë 日本", "2024-03-03", "23:58", "23:59"),
        ("  ", "2024-03-04", "10:30", "11:00"),
        ('say "hi"\\', "2024-03-05", "09:00", "09:17"),
    ]
)


@pytest.mark.parametrize(
    "options, annotator",
    [
        (("--catalog", "1", "--delta", "0"), None),  # one-element probs lists
        ((), "nobody"),  # "annotators": []
        (("--delta", "1"), None),
        ((), "Zoë 日本"),
    ],
)
def test_infer_habit_report_edge_cases_match_indent_encoder(runner, tmp_path, options, annotator):
    text = _assert_report_matches_reference(runner, tmp_path, _HOSTILE_DIARY, options, annotator)
    if annotator == "nobody":
        assert '"annotators": [],' in text
    if options[:2] == ("--catalog", "1"):
        assert '"probs": [\n            1.0\n          ]' in text


def test_infer_habit_report_round_trips_through_json(runner, tmp_path):
    rng = np.random.default_rng(20)
    rows = []
    for k in range(300):
        start = int(rng.integers(0, 1380))
        start -= start % int(rng.choice([1, 5, 15, 30]))
        end = start + int(rng.integers(1, 60))
        date = f"2024-{1 + k // 28 % 12:02d}-{1 + k % 28:02d}"
        rows.append((f"p{k % 7}", date, _hhmm(start), _hhmm(end)))
    text = _assert_report_matches_reference(runner, tmp_path, _diary_text(rows))
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert len(json.loads(text)["annotators"]) == 7


def test_infer_habit_empty_file_exits_2(runner, tmp_path):
    path = _write(tmp_path / "empty.csv", "annotator_id,date,event_kind,start,end\n")
    result = runner.invoke(main, ["infer-habit", path, "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2


def test_infer_habit_bad_row_exits_2(runner, tmp_path):
    path = _write(
        tmp_path / "bad.csv",
        "annotator_id,date,event_kind,start,end\np01,2024-03-01,shower,09:00,08:00\n",
    )
    result = runner.invoke(main, ["infer-habit", path, "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert "line 2" in result.output


@pytest.mark.parametrize("time", ["+8:00", "0_8:00", "8 : 00", "08: 00"])
def test_infer_habit_time_no_timestamp_accepts_exits_2(runner, tmp_path, time):
    path = _write(
        tmp_path / "diary.csv",
        f"annotator_id,date,event_kind,start,end\np01,2024-03-01,shower,{time},08:30\n",
    )
    result = runner.invoke(main, ["infer-habit", path, "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert f"error: line 2: bad time '{time}', expected HH:MM" in result.output


def test_infer_habit_missing_fields_exits_2(runner, tmp_path):
    path = _write(
        tmp_path / "short.csv",
        "annotator_id,date,event_kind,start,end\n"
        "p01,2024-03-01,shower,08:00,08:30\n"
        "p01,2024-03-02,shower\n",
    )
    result = runner.invoke(main, ["infer-habit", path, "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert "line 3" in result.output and "start, end" in result.output
    assert "Traceback" not in result.output


def test_comment_lines_keep_file_line_numbers(runner, tmp_path):
    path = _write(
        tmp_path / "commented.csv",
        "# exported 2024-03-03\n"
        "# two comment lines\n"
        "annotator_id,date,event_kind,start,end\n"
        "p01,2024-03-01,shower,08:00,08:30\n"
        "p01,2024-03-02,shower,25:00,26:00\n",
    )
    result = runner.invoke(main, ["infer-habit", path, "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert "line 5" in result.output


def test_infer_habit_extra_fields_exits_2(runner, tmp_path):
    path = _write(
        tmp_path / "long.csv",
        "annotator_id,date,event_kind,start,end\n"
        "p01,2024-03-01,shower,08:00,08:30\n"
        "p01,2024-03-02,shower,08:00,08:30,09:00\n",
    )
    result = runner.invoke(main, ["infer-habit", path, "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert "line 3" in result.output and "extra field" in result.output
    assert "Traceback" not in result.output


def test_infer_habit_unwritable_out_exits_2(runner, annotations_csv, tmp_path):
    out = tmp_path / "no_such_dir" / "x.json"
    result = runner.invoke(main, ["infer-habit", str(annotations_csv), "--out", str(out)])
    assert result.exit_code == 2
    assert result.output.startswith("error:") and "no_such_dir" in result.output
    assert not isinstance(result.exception, OSError)


def test_soft_labels_cmd(runner, annotations_csv, tmp_path):
    out_dir = tmp_path / "labels"
    result = runner.invoke(main, ["soft-labels", str(annotations_csv), "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    files = sorted(out_dir.glob("*.csv"))
    assert len(files) == 7
    series = read_label_csv(files[0])
    assert np.all((series.values >= 0) & (series.values <= 1))
    # p01 rounds to the half hour, so its first event 08:00-08:30 gets 15-minute ramps
    text = files[0].read_text()
    assert "# start_period=30" in text and "# end_period=30" in text
    mid = series.values[parse_timestamp("2024-03-01 08:00") - series.window_start]
    assert mid == pytest.approx(0.5166666666666667)


def test_soft_labels_escape_annotator_id(runner, tmp_path):
    path = _write(
        tmp_path / "slash.csv",
        "annotator_id,date,event_kind,start,end\n"
        "a/b,2024-03-01,shower,08:00,08:30\n",
    )
    out_dir = tmp_path / "labels"
    result = runner.invoke(main, ["soft-labels", path, "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    assert [p.name for p in out_dir.iterdir()] == ["softlabel_a%2Fb_000.csv"]


def test_soft_labels_escape_line_breaks_in_header(runner, tmp_path):
    path = _write(
        tmp_path / "newline.csv",
        'annotator_id,date,event_kind,start,end\n"a\nb",2024-03-01,shower,08:00,08:30\n',
    )
    out_dir = tmp_path / "labels"
    result = runner.invoke(main, ["soft-labels", path, "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    (label_file,) = out_dir.iterdir()
    assert "# annotator_id=a\\nb\n" in label_file.read_text()
    assert len(read_label_csv(label_file)) > 30


def test_soft_labels_past_year_9999_exits_2(runner, tmp_path):
    path = _write(
        tmp_path / "late.csv",
        "annotator_id,date,event_kind,start,end\np01,9999-12-31,shower,23:10,23:50\n",
    )
    result = runner.invoke(main, ["soft-labels", path, "--out", str(tmp_path / "labels")])
    assert result.exit_code == 2
    assert "outside the years 1-9999" in result.output


def test_soft_labels_past_year_9999_keeps_earlier_files(runner, tmp_path):
    path = _write(
        tmp_path / "late.csv",
        "annotator_id,date,event_kind,start,end\n"
        "p02,2024-03-01,shower,08:00,08:30\n"
        "p01,2024-03-01,shower,08:00,08:30\n"
        "p01,2024-03-02,shower,08:00,08:30\n"
        "p01,9999-12-31,shower,23:10,23:50\n"
        "p00,2024-03-01,shower,08:00,08:30\n",
    )
    out_dir = tmp_path / "labels"
    result = runner.invoke(main, ["soft-labels", path, "--out", str(out_dir)])
    assert result.exit_code == 2
    assert re.search(r"minute \d+ lies outside the years 1-9999", result.output)
    # each event's file is written in turn, in annotator then file order: the
    # files before the bad event stay, though p00's and p02's events share its
    # grid, and p02, which sorts after it, gets none
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "softlabel_p00_000.csv",
        "softlabel_p01_000.csv",
        "softlabel_p01_001.csv",
    ]


# A diary whose MAP categories cover all five default periods, with events
# near midnight, an id that needs percent-escaping and one holding a newline.
GOLDEN_DIARY = (
    "annotator_id,date,event_kind,start,end\n"
    "a/b c%,2024-03-01,shower,08:00,08:30\n"
    "a/b c%,2024-03-01,cook,12:15,12:45\n"
    "a/b c%,2024-03-02,shower,07:10,07:20\n"
    "a/b c%,2024-03-02,cook,23:35,23:55\n"
    "a/b c%,2024-03-03,shower,00:07,00:43\n"
    '"x\ny",2024-03-01,shower,06:10,06:20\n'
    '"x\ny",2024-03-02,shower,06:40,07:50\n'
    '"x\ny",2024-03-03,shower,23:20,23:50\n'
    "p1,1970-01-01,sleep,00:03,00:58\n"
    "p1,2024-02-29,sleep,23:01,23:59\n"
    "p1,2024-03-01,sleep,00:00,00:17\n"
    "q,2024-03-01,walk,09:15,09:45\n"
    "q,2024-03-01,walk,10:45,11:15\n"
    "q,2024-12-31,walk,23:45,23:59\n"
    "r,2024-03-05,nap,08:00,08:30\n"
    "r,2024-03-05,nap,13:30,14:00\n"
    "r,2024-03-06,nap,11:00,12:30\n"
)

# SHA-256 of the files `soft-labels` wrote for GOLDEN_DIARY (default options)
# when it built each event's series with `soft_label`.
GOLDEN_SOFT_LABELS_SHA256 = {
    "softlabel_a%2Fb%20c%25_000.csv": "ec23cd66666c405bfaa5805573c2e7996301134dd1f1970553ebfe81813813d6",
    "softlabel_a%2Fb%20c%25_001.csv": "44936f36662fbfd6312905eb44a25bcfcc903833c288e37c1c6f56491512d587",
    "softlabel_a%2Fb%20c%25_002.csv": "0788d665a1e2a85565d90162d1abb4a6c515058ffd9ac8bb52191b4101d188be",
    "softlabel_a%2Fb%20c%25_003.csv": "82277080c7438a1696dbdd79ca905756f80b14c6242908b85c85d8c942dac77b",
    "softlabel_a%2Fb%20c%25_004.csv": "976ec8106a6762582686524e217247f53e0ac53d3ccf5979e49132b891a3906e",
    "softlabel_p1_000.csv": "9763ed1991d61819614edab4e08b15541411fd0e5a73d68ee6080309a7ec9fae",
    "softlabel_p1_001.csv": "e401ed1dae25229f3dae212476bfb7730784803c87d6d73b71e71a59ea5d4edb",
    "softlabel_p1_002.csv": "08ac3259b3a75b9368567497fbae79f84e5cab9cb3ed161cb04113b182492392",
    "softlabel_q_000.csv": "c6b9809fbff72529f6b4fd0dbb5def7fbd071cb9e5750b5ffdabf734a4907e87",
    "softlabel_q_001.csv": "cc825cf6a145a820d45a766ebbe193b15c9b8c3f7f6d019fd23f4b4c169a7cca",
    "softlabel_q_002.csv": "a6ebb032972434fa0c3560edd737c46f88ee37d7b42f7ac66a8f86c2f819948e",
    "softlabel_r_000.csv": "228780f5e76f5239432bba4772fa012217147b339ab94b9bbaf8070bdb7ff6f7",
    "softlabel_r_001.csv": "2e28d1d3e45f8a6caa6d3bed6d39d87e001ba1ac1b49c2f06481558b149af6a9",
    "softlabel_r_002.csv": "a59470b9fb9bdd9402e4670d2ed616242fa9798c765ffa21e2c117896356141a",
    "softlabel_x%0Ay_000.csv": "b7a19edb4494669c2c913de4c67cf071d680f7dee8a10fd773617da67dd73c1f",
    "softlabel_x%0Ay_001.csv": "87eb93f6f434292a3720b05ed1315a023bc2e0f36d91fcfbb911e6f381142e5b",
    "softlabel_x%0Ay_002.csv": "1d56ab52b28c3fd8113855e61f6d17ed70562a521154e62fc98089454f49f9cc",
}


# SHA-256 of the `infer-habit` JSON and the `histogram` CSV for GOLDEN_DIARY
# (default options). The histogram digest was captured before the MAP lookup
# and the histogram were rebuilt on the per-minute tables; the infer-habit
# digest when the report took one minute table per annotator. Its posteriors
# come from minute classes, whose sums are fixed-order folds that no BLAS
# kernel or SIMD target reorders.
GOLDEN_INFER_HABIT_SHA256 = "353b5205c011d70e319b3155761123982e667671d43210f2e95b2eb207b719e3"
GOLDEN_HISTOGRAM_SHA256 = "dbbf002e86e2f48d961db6d55c4f4d8120423efdf11f6e13ca38b3c3811d0d70"


@pytest.mark.parametrize(
    "command, digest",
    [("infer-habit", GOLDEN_INFER_HABIT_SHA256), ("histogram", GOLDEN_HISTOGRAM_SHA256)],
)
def test_diary_reports_match_golden_digests(runner, tmp_path, command, digest):
    path = _write(tmp_path / "diary.csv", GOLDEN_DIARY)
    out = tmp_path / "out"
    result = runner.invoke(main, [command, path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _numpy_avx512_targets() -> str | None:
    """NumPy's AVX-512 dispatch targets that this machine runs, as the
    value of NPY_DISABLE_CPU_FEATURES, or None if /proc/cpuinfo lists no
    AVX-512 feature. NumPy accepts only its own target names there (such as
    X86_V4 or AVX512_SKX), not the kernel's flags (such as avx512f)."""
    try:
        flags = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return None
    if not any(flag.startswith("avx512") for flag in flags):
        return None
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    targets = [
        name
        for name in umath.__cpu_dispatch__
        if ("AVX512" in name or name == "X86_V4") and umath.__cpu_features__.get(name)
    ]
    return " ".join(targets) or None


def test_infer_habit_report_does_not_depend_on_the_cpu_kernels(tmp_path):
    # OpenBLAS's kernel for a CPU without AVX or AVX-512, and NumPy without
    # its AVX-512 loops: the report keeps the golden bytes
    path = _write(tmp_path / "diary.csv", GOLDEN_DIARY)
    env = {"OPENBLAS_CORETYPE": "Prescott"}
    targets = _numpy_avx512_targets()
    if targets:
        env["NPY_DISABLE_CPU_FEATURES"] = targets
    args = ["-m", "tempolabel", "infer-habit", str(path), "--out", "report.json"]
    result = _python(args, env, tmp_path)
    assert result.returncode == 0, result.stderr.decode()
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_INFER_HABIT_SHA256


def test_soft_labels_match_golden_digests(runner, tmp_path):
    path = _write(tmp_path / "diary.csv", GOLDEN_DIARY)
    out_dir = tmp_path / "labels"
    result = runner.invoke(main, ["soft-labels", path, "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    texts = [p.read_text() for p in out_dir.iterdir()]
    for period in (30, 15, 10, 5, 1):
        assert any(f"# start_period={period}\n" in text for text in texts), period
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert digests == GOLDEN_SOFT_LABELS_SHA256


def _block_diary() -> str:
    """A diary whose first annotator has 140 events, so its labels span three
    64-record grids, mostly on the quarter hour with a few odd minutes, and
    whose second annotator has three events."""
    rows = ["annotator_id,date,event_kind,start,end"]
    for i in range(140):
        start = 360 + 15 * (i % 40) + (i % 13 if i % 7 == 3 else 0)
        end = start + 15 * (1 + i % 4) + (2 if i % 11 == 5 else 0)
        date = f"2024-{1 + i // 28:02d}-{1 + i % 28:02d}"
        start_text, end_text = (f"{t // 60:02d}:{t % 60:02d}" for t in (start, end))
        rows.append(f"big,{date},shower,{start_text},{end_text}")
    rows += [
        "s,2024-03-01,walk,09:10,09:40",
        "s,2024-03-02,walk,17:05,17:25",
        "s,2024-03-03,walk,23:50,23:59",
    ]
    return "\n".join(rows) + "\n"


# SHA-256 over the sorted names and bytes of the files `soft-labels` wrote
# for `_block_diary()` (default options), captured before the flat-grid
# layout and the validation helpers were each given one definition.
BLOCK_SOFT_LABELS_SHA256 = "a2a850d9c1bdcee097b758fceb9e930e014d3935f6bb1bedc13e28653e121eac"


def test_soft_labels_across_grid_blocks_match_golden_digest(runner, tmp_path):
    path = _write(tmp_path / "diary.csv", _block_diary())
    out_dir = tmp_path / "labels"
    result = runner.invoke(main, ["soft-labels", path, "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    files = sorted(out_dir.iterdir())
    assert len(files) == 143
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    assert digest.hexdigest() == BLOCK_SOFT_LABELS_SHA256


def _shared_grid_diary() -> str:
    """A diary of 40 annotators with three events each, rows interleaved
    across annotators and ids out of sorted order, so that one 64-record grid
    holds the events of many annotators. Most annotators keep one rounding
    habit (quarter hour, five minutes or the odd minute); some events lie
    near midnight and one id needs percent-escaping."""
    ids = [f"p{(7 * i) % 40:02d}" for i in range(40)]
    ids[5] = "m/n 7%"
    rows = ["annotator_id,date,event_kind,start,end"]
    for j in range(3):
        for i, annotator_id in enumerate(ids):
            step = (15, 5, 1)[i % 3]
            start = 1380 + 10 * j if i % 8 == 2 else 300 + (step * (7 * i + 11 * j)) % 1080
            end = min(start + step * (2 + (i + j) % 5), 1439)
            if i % 8 == 6:
                start, end = 2 + j, 35 + 4 * j
            date = f"2024-{1 + i % 12:02d}-{1 + (3 * i + j) % 28:02d}"
            start_text, end_text = (f"{t // 60:02d}:{t % 60:02d}" for t in (start, end))
            rows.append(f"{annotator_id},{date},cook,{start_text},{end_text}")
    return "\n".join(rows) + "\n"


# SHA-256 over the sorted names and bytes of the files `soft-labels` wrote
# for `_shared_grid_diary()` (default options), captured while each
# annotator's events still had label grids of their own.
SHARED_GRID_SOFT_LABELS_SHA256 = "b95c0ca3ec810c79d52ae2922232a8f8340e522ba929cad40808c1338258d7d1"


def test_soft_labels_sharing_grids_across_annotators_match_golden_digest(runner, tmp_path):
    path = _write(tmp_path / "diary.csv", _shared_grid_diary())
    out_dir = tmp_path / "labels"
    result = runner.invoke(main, ["soft-labels", path, "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    files = sorted(out_dir.iterdir())
    assert len(files) == 120
    texts = [p.read_text() for p in files]
    for period in (15, 5, 1):
        assert any(f"# start_period={period}\n" in text for text in texts), period
    assert any(p.name.startswith("softlabel_m%2Fn%207%25_") for p in files)
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    assert digest.hexdigest() == SHARED_GRID_SOFT_LABELS_SHA256


def test_soft_labels_config_error_leaves_no_out_dir(runner, annotations_csv, tmp_path):
    out_dir = tmp_path / "labels"
    result = runner.invoke(
        main, ["soft-labels", str(annotations_csv), "--catalog", "1", "--out", str(out_dir)]
    )
    assert result.exit_code == 2, result.output
    assert "switch probability undefined for a single-category catalogue" in result.output
    assert not out_dir.exists()


@pytest.mark.parametrize("pad", ["-1", "1441", str(10**20)])
def test_soft_labels_pad_out_of_range_exits_2(runner, annotations_csv, tmp_path, pad):
    out_dir = tmp_path / "labels"
    result = runner.invoke(
        main, ["soft-labels", str(annotations_csv), "--pad", pad, "--out", str(out_dir)]
    )
    assert result.exit_code == 2
    assert f"error: pad must lie in [0, 1440] minutes, got {pad}" in result.output
    assert not out_dir.exists()


def test_histogram_cmd(runner, tmp_path):
    path = _write(
        tmp_path / "ann.csv",
        "annotator_id,date,event_kind,start,end\n"
        "p01,2024-03-01,shower,08:00,08:30\n"  # minutes 0 and 30 -> both 30-bucket
        "p02,2024-03-01,shower,08:15,08:45\n"  # minutes 15 and 45 -> both 15-bucket
        "p03,2024-03-01,shower,08:07,08:30\n",  # 7 -> 1-bucket, 30 -> 30-bucket
    )
    out = tmp_path / "hist.csv"
    assert runner.invoke(main, ["histogram", path, "--out", str(out)]).exit_code == 0
    with open(out) as handle:
        rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
    counts = {(r["annotator_id"], int(r["period_minutes"])): int(r["count"]) for r in rows}
    assert counts[("p01", 30)] == 2 and counts[("p01", 15)] == 0
    assert counts[("p02", 15)] == 2 and counts[("p02", 30)] == 0
    assert counts[("p03", 1)] == 1 and counts[("p03", 30)] == 1


def _detect_fixture(tmp_path, length=240, on=(100, 150)):
    rng = np.random.default_rng(17)
    truth = np.zeros(length, dtype=int)
    truth[on[0] : on[1]] = 1
    humidity = np.where(truth == 1, rng.normal(80, 4, length), rng.normal(45, 3, length))
    base = parse_timestamp("2024-05-01 06:00")
    sensor = tmp_path / "sensor.csv"
    with open(sensor, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "humidity"])
        for i, v in enumerate(humidity):
            writer.writerow([format_timestamp(base + i), f"{v:.4f}"])
    truth_csv = tmp_path / "truth.csv"
    write_label_csv(truth_csv, LabelSeries(base, truth.astype(float)))
    params = tmp_path / "hmm.json"
    params.write_text(
        json.dumps(
            {
                "initial": [0.95, 0.05],
                "transition": [[0.97, 0.03], [0.08, 0.92]],
                "means": [45.0, 80.0],
                "variances": [9.0, 16.0],
            }
        )
    )
    return sensor, truth_csv, params


def test_detect_and_evaluate_pipeline(runner, tmp_path):
    sensor, truth_csv, params = _detect_fixture(tmp_path)
    pred = tmp_path / "pred.csv"
    result = runner.invoke(
        main, ["detect", str(sensor), "--params", str(params), "--out", str(pred)]
    )
    assert result.exit_code == 0, result.output
    decoded = read_label_csv(pred)
    assert decoded.is_binary()

    metrics = tmp_path / "metrics.json"
    flat = tmp_path / "metrics.csv"
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--labels", str(truth_csv),
            "--predictions", str(pred),
            "--out", str(metrics),
            "--csv", str(flat),
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(metrics.read_text())
    assert payload["hard"]["f1"] > 0.9
    assert payload["soft"]["confusion"]["tp"] == payload["hard"]["confusion"]["tp"]
    assert "mse_boundary" in payload
    with open(flat) as handle:
        rows = list(csv.DictReader(handle))
    assert {"metric", "value"} <= set(rows[0])


def test_detect_fit_flag(runner, tmp_path):
    sensor, _, params = _detect_fixture(tmp_path)
    rough = tmp_path / "rough.json"
    rough.write_text(
        json.dumps(
            {
                "initial": [0.5, 0.5],
                "transition": [[0.9, 0.1], [0.1, 0.9]],
                "means": [50.0, 70.0],
                "variances": [30.0, 30.0],
            }
        )
    )
    pred = tmp_path / "pred.csv"
    result = runner.invoke(
        main, ["detect", str(sensor), "--params", str(rough), "--fit", "--out", str(pred)]
    )
    assert result.exit_code == 0, result.output
    assert "did not converge" not in result.output
    assert read_label_csv(pred).values.sum() == 50.0


def test_detect_fit_warns_when_not_converged(runner, tmp_path, monkeypatch):
    sensor, _, params = _detect_fixture(tmp_path)
    monkeypatch.setattr(hmm, "_MAX_ITER", 2)
    series = read_sensor_csv(sensor)
    fit = hmm.fit_emissions(series, hmm.HmmParams.from_dict(json.loads(params.read_text())))
    assert not fit.converged and fit.n_iterations == 2
    pred = tmp_path / "pred.csv"
    result = runner.invoke(
        main, ["detect", str(sensor), "--params", str(params), "--fit", "--out", str(pred)]
    )
    assert result.exit_code == 0, result.output
    assert "warning: fit did not converge in 2 iterations; decoding anyway" in result.output
    # the unconverged parameters are still the ones decoded
    np.testing.assert_array_equal(read_label_csv(pred).values, hmm.viterbi(fit.params, series).values)


def test_detect_degenerate_exits_3(runner, tmp_path):
    sensor, _, _ = _detect_fixture(tmp_path)
    params = tmp_path / "narrow.json"
    params.write_text(
        json.dumps(
            {
                "initial": [1.0, 0.0],
                "transition": [[1.0, 0.0], [0.0, 1.0]],
                "means": [0.0, 1.0],
                "variances": [1e-6, 1e-6],
            }
        )
    )
    pred = tmp_path / "pred.csv"
    result = runner.invoke(
        main, ["detect", str(sensor), "--params", str(params), "--fit", "--out", str(pred)]
    )
    assert result.exit_code == 3


def test_detect_fit_survives_a_spike(runner, tmp_path):
    rng = np.random.default_rng(4)
    values = rng.normal(40.0, 1.0, 300)
    values[150] = 200.0
    sensor = tmp_path / "spike.csv"
    base = parse_timestamp("2024-05-01 06:00")
    sensor.write_text(
        "timestamp,humidity\n"
        + "".join(f"{format_timestamp(base + i)},{v:.4f}\n" for i, v in enumerate(values))
    )
    params = tmp_path / "hmm.json"
    params.write_text(
        json.dumps(
            {
                "initial": [0.5, 0.5],
                "transition": [[0.9, 0.1], [0.1, 0.9]],
                "means": [39.0, 41.0],
                "variances": [1.0, 1.0],
            }
        )
    )
    pred = tmp_path / "pred.csv"
    result = runner.invoke(
        main, ["detect", str(sensor), "--params", str(params), "--fit", "--out", str(pred)]
    )
    assert result.exit_code == 0, result.output
    assert "Traceback" not in result.output
    assert len(read_label_csv(pred)) == 300


@pytest.mark.parametrize(
    "reading, code, message",
    [("45.0", 0, "wrote"), ("1e200", 3, "all states impossible at the first observation")],
)
def test_detect_one_row_series(runner, tmp_path, reading, code, message):
    _, _, params = _detect_fixture(tmp_path)
    sensor = tmp_path / "one.csv"
    sensor.write_text(f"timestamp,humidity\n2024-05-01 06:00,{reading}\n")
    pred = tmp_path / "pred.csv"
    result = runner.invoke(main, ["detect", str(sensor), "--params", str(params), "--out", str(pred)])
    assert result.exit_code == code, result.output
    assert message in result.output and "Traceback" not in result.output
    if code == 0:
        decoded = read_label_csv(pred)
        assert decoded.window_start == parse_timestamp("2024-05-01 06:00")
        assert decoded.values.tolist() == [0.0]


def test_evaluate_zero_boundary_window_exits_2(runner, tmp_path):
    labels = tmp_path / "a.csv"
    write_label_csv(labels, LabelSeries(0, np.array([0.0, 1.0, 1.0])))
    result = runner.invoke(
        main,
        [
            "evaluate", "--labels", str(labels), "--predictions", str(labels),
            "--boundary-window", "0", "--out", str(tmp_path / "m.json"),
        ],
    )
    assert result.exit_code == 2
    assert "boundary window" in result.output


def test_evaluate_misaligned_exits_2(runner, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_label_csv(a, LabelSeries(0, np.array([0.0, 1.0, 1.0])))
    write_label_csv(b, LabelSeries(5, np.array([0.0, 1.0, 1.0])))
    result = runner.invoke(
        main,
        ["evaluate", "--labels", str(a), "--predictions", str(b), "--out", str(tmp_path / "m.json")],
    )
    assert result.exit_code == 2


def test_evaluate_bad_timestamp_reports_file_line(runner, tmp_path):
    labels = tmp_path / "a.csv"
    write_label_csv(labels, LabelSeries(0, np.array([0.0, 1.0, 1.0])), {"delta": 0.1})
    bad = _write(
        tmp_path / "b.csv",
        "# predictions\ntimestamp,value\n1970-01-01 00:00,0\n# gap\n1970-01-01 24:01,1\n",
    )
    result = runner.invoke(
        main,
        ["evaluate", "--labels", str(labels), "--predictions", bad, "--out", str(tmp_path / "m.json")],
    )
    assert result.exit_code == 2
    assert "error: line 5: bad timestamp '1970-01-01 24:01'" in result.output


def test_detect_bad_timestamp_reports_file_line(runner, tmp_path):
    sensor, _, params = _detect_fixture(tmp_path)
    lines = sensor.read_text().splitlines(keepends=True)
    lines[100] = "2024-05-01 07:99,45.0\n"
    sensor.write_text("# humidity export\n" + "".join(lines))
    result = runner.invoke(
        main, ["detect", str(sensor), "--params", str(params), "--out", str(tmp_path / "p.csv")]
    )
    assert result.exit_code == 2
    assert "error: line 102: bad timestamp '2024-05-01 07:99'" in result.output


@pytest.mark.parametrize(
    "payload, message",
    [
        ([1, 2], "must hold an object, got list"),
        (
            {
                "initial": "ab",
                "transition": [[0.9, 0.1], [0.1, 0.9]],
                "means": [45.0, 80.0],
                "variances": [9.0, 16.0],
            },
            "'initial' is not an array of numbers",
        ),
    ],
)
def test_detect_malformed_params_exits_2(runner, tmp_path, payload, message):
    sensor, _, _ = _detect_fixture(tmp_path)
    params = tmp_path / "bad.json"
    params.write_text(json.dumps(payload))
    result = runner.invoke(
        main, ["detect", str(sensor), "--params", str(params), "--out", str(tmp_path / "p.csv")]
    )
    assert result.exit_code == 2
    assert "error:" in result.output and message in result.output
    assert "Traceback" not in result.output


# consistent parameter sets whose state count is not the detector's two
_OTHER_STATE_COUNTS = {
    1: {"initial": [1.0], "transition": [[1.0]], "means": [45.0], "variances": [9.0]},
    3: {
        "initial": [0.5, 0.25, 0.25],
        "transition": [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]],
        "means": [45.0, 80.0, 60.0],
        "variances": [9.0, 16.0, 25.0],
    },
}


@pytest.mark.parametrize("fit", [False, True])
@pytest.mark.parametrize("n_states", sorted(_OTHER_STATE_COUNTS))
def test_detect_needs_two_states(runner, tmp_path, n_states, fit):
    sensor, _, _ = _detect_fixture(tmp_path)
    params = tmp_path / "states.json"
    params.write_text(json.dumps(_OTHER_STATE_COUNTS[n_states]))
    args = ["detect", str(sensor), "--params", str(params), "--out", str(tmp_path / "p.csv")]
    result = runner.invoke(main, args + (["--fit"] if fit else []))
    assert result.exit_code == 2, result.output
    assert f"error: the HMM must have 2 states (off, on), got {n_states}" in result.output
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe{}", b'{"initial": 1' + b"0" * 5000 + b"}", b"[" * 100_000, b'{"a": '],
    ids=["undecodable", "huge-int", "deep", "truncated"],
)
def test_detect_unreadable_params_exits_2(runner, tmp_path, raw):
    sensor, _, _ = _detect_fixture(tmp_path)
    params = tmp_path / "bad.json"
    params.write_bytes(raw)
    result = runner.invoke(
        main, ["detect", str(sensor), "--params", str(params), "--out", str(tmp_path / "p.csv")]
    )
    assert result.exit_code == 2
    assert "error: bad JSON" in result.output


def test_detect_params_name_not_utf8_is_escaped_in_header(runner, tmp_path):
    sensor, _, params = _detect_fixture(tmp_path)
    try:  # argv bytes that are not UTF-8 decode to lone surrogates
        odd = params.rename(tmp_path / os.fsdecode(b"\xff.json"))
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    out = tmp_path / "p.csv"
    result = runner.invoke(main, ["detect", str(sensor), "--params", str(odd), "--out", str(out)])
    assert result.exit_code == 0, result.output
    (params_line,) = [line for line in out.read_text().splitlines() if line.startswith("# params=")]
    assert params_line.endswith("\\udcff.json")
    assert len(read_label_csv(out)) == 240


def _soft_labels_onto_a_directory(tmp_path, annotations_csv):
    out_dir = tmp_path / "labels"
    target = out_dir / "softlabel_p01_000.csv"
    target.mkdir(parents=True)
    return ["soft-labels", str(annotations_csv), "--out", str(out_dir)], target


def _detect_into_a_missing_directory(tmp_path, annotations_csv):
    sensor, _, params = _detect_fixture(tmp_path)
    target = tmp_path / "missing" / "p.csv"
    return ["detect", str(sensor), "--params", str(params), "--out", str(target)], target


def _evaluate_into_a_missing_directory(tmp_path, annotations_csv):
    _, truth, _ = _detect_fixture(tmp_path)
    target = tmp_path / "missing" / "m.json"
    args = ["evaluate", "--labels", str(truth), "--predictions", str(truth), "--out", str(target)]
    return args, target


def _histogram_into_a_missing_directory(tmp_path, annotations_csv):
    target = tmp_path / "missing" / "h.csv"
    return ["histogram", str(annotations_csv), "--out", str(target)], target


@pytest.mark.parametrize(
    "case",
    [
        _soft_labels_onto_a_directory,
        _detect_into_a_missing_directory,
        _evaluate_into_a_missing_directory,
        _histogram_into_a_missing_directory,
    ],
)
def test_unwritable_output_exits_2_naming_the_file(runner, annotations_csv, tmp_path, case):
    args, target = case(tmp_path, annotations_csv)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    named = re.escape(repr(str(target)))
    assert re.fullmatch(rf"error: \[Errno \d+\] [^\n]+: {named}\n", result.output)


def test_evaluate_label_row_with_extra_field_exits_2(runner, tmp_path):
    labels = tmp_path / "a.csv"
    write_label_csv(labels, LabelSeries(0, np.array([0.0, 1.0, 1.0])))
    bad = _write(
        tmp_path / "b.csv",
        "# predictions\ntimestamp,value\n1970-01-01 00:00,0\n1970-01-01 00:01,0.5,junk\n",
    )
    result = runner.invoke(
        main,
        ["evaluate", "--labels", str(labels), "--predictions", bad, "--out", str(tmp_path / "m.json")],
    )
    assert result.exit_code == 2
    assert "error: line 4: row has 1 extra field(s)" in result.output


def test_detect_sensor_row_with_extra_field_exits_2(runner, tmp_path):
    sensor, _, params = _detect_fixture(tmp_path)
    lines = sensor.read_text().splitlines(keepends=True)
    lines[50] = lines[50].rstrip("\r\n") + ",1,2\n"
    sensor.write_text("".join(lines))
    result = runner.invoke(
        main, ["detect", str(sensor), "--params", str(params), "--out", str(tmp_path / "p.csv")]
    )
    assert result.exit_code == 2
    assert "error: line 51: row has 2 extra field(s)" in result.output


_NOT_NEXT = "is not one minute after the previous row's"


@pytest.mark.parametrize(
    "first, bad, message",
    [
        ("2024-03-01 10:00", "2024-03-01 10:03", f"timestamp '2024-03-01 10:03' {_NOT_NEXT}"),
        ("2024-03-01 10:00", "2024-03-01 10:01", f"timestamp '2024-03-01 10:01' {_NOT_NEXT}"),
        ("2024-03-01 10:00", "2024-03-01 09:59", f"timestamp '2024-03-01 09:59' {_NOT_NEXT}"),
        ("9999-12-31 23:58", "10000-01-01 00:00", "bad timestamp '10000-01-01 00:00'"),
    ],
    ids=["gap", "repeat", "step-back", "past-9999"],
)
@pytest.mark.parametrize("command", ["evaluate", "detect"])
def test_grid_break_reports_file_line(runner, tmp_path, command, first, bad, message):
    _, _, params = _detect_fixture(tmp_path)
    second = format_timestamp(parse_timestamp(first) + 1)
    header = "timestamp,value" if command == "evaluate" else "timestamp,humidity"
    # the row after the break has a bad value: the break is reported first
    path = _write(
        tmp_path / "grid.csv",
        f"# export\n{header}\n{first},0\n{second},1\n# resumed\n{bad},0\n{second},x\n",
    )
    if command == "evaluate":
        args = ["evaluate", "--labels", path, "--predictions", path]
    else:
        args = ["detect", path, "--params", str(params)]
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"error: line 6: {message}" in result.output
    assert "Traceback" not in result.output


def test_simulate_cmd_writes_tables(runner, tmp_path):
    out = tmp_path / "sim"
    result = runner.invoke(
        main,
        [
            "simulate",
            "--seed", "1",
            "--events", "20",
            "--trials", "10",
            "--resolutions", "1,30",
            "--n-sweep", "1,5",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert (out / "mse.csv").exists()
    assert (out / "f1.csv").exists()
    assert (out / "error_rate.csv").exists()
    header = (out / "mse.csv").read_text().splitlines()[:6]
    assert any(line.startswith("# seed=1") for line in header)


def test_simulate_experiment_subselection(runner, tmp_path):
    out = tmp_path / "sim"
    result = runner.invoke(
        main,
        [
            "simulate",
            "--experiment", "mse",
            "--events", "15",
            "--resolutions", "30",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert (out / "mse.csv").exists()
    assert not (out / "f1.csv").exists()
    assert not (out / "error_rate.csv").exists()


def test_simulate_f1_on_a_catalog_coarser_than_30_minutes(runner, tmp_path):
    # the debiased 60-minute ramps reach further below the annotation than
    # the placement margin, so each window widens to cover them
    out = tmp_path / "sim"
    result = runner.invoke(
        main,
        [
            "simulate",
            "--experiment", "f1",
            "--catalog", "60,1",
            "--resolutions", "60",
            "--biases", "0.5",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    with open(out / "f1.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [(r["resolution_minutes"], r["bias_fraction"]) for r in rows] == [("60", "0.5")]


def test_simulate_bad_catalog_exits_2(runner, tmp_path):
    result = runner.invoke(
        main,
        ["simulate", "--catalog", "15,30,1", "--out", str(tmp_path / "sim")],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["--seed", "-1"], "seed must be non-negative, got -1"),
        (["--experiment", "error-rate", "--n-sweep", "-1"], "annotation counts must be positive"),
        (["--experiment", "error-rate", "--n-sweep", "0"], "annotation counts must be positive"),
        (["--experiment", "f1", "--resolutions", "-1"], "resolution must divide 60, got -1"),
        (["--experiment", "mse", "--resolutions", "-1"], "resolution must divide 60, got -1"),
    ],
)
def test_simulate_bad_options_exit_2(runner, tmp_path, args, message):
    result = runner.invoke(
        main,
        ["simulate", *args, "--events", "5", "--trials", "2", "--out", str(tmp_path / "sim")],
    )
    assert result.exit_code == 2, result.output
    assert f"error: {message}" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n-sweep", "0"], "annotation counts must be positive"),
        (["--trials", "0"], "trials must be positive, got 0"),
        (["--biases", "1.5"], "bias fraction must be in [0, 1), got 1.5"),
        (["--biases="], "expected a comma-separated list of numbers, got ''"),
        (["--resolutions", " , "], "expected a comma-separated list of integers, got ' , '"),
        (["--n-sweep", ""], "expected a comma-separated list of integers, got ''"),
        (["--events", "0"], "n_events must be positive, got 0"),
    ],
)
def test_simulate_invalid_options_leave_no_out_dir(runner, tmp_path, args, message):
    out = tmp_path / "sim"
    result = runner.invoke(
        main, ["simulate", "--events", "5", "--trials", "2", *args, "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert f"error: {message}" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError(), "not enough memory"),
        (MemoryError("Unable to allocate 1.46 TiB"), "Unable to allocate 1.46 TiB"),
    ],
)
def test_simulate_out_of_memory_exits_2(runner, tmp_path, monkeypatch, exc, message):
    def run_error_rate_experiment(*args):
        raise exc

    monkeypatch.setattr("tempolabel.cli.run_error_rate_experiment", run_error_rate_experiment)
    out = tmp_path / "sim"
    args = ["--experiment", "error-rate", "--trials", "2", "--n-sweep", "100000000000"]
    result = runner.invoke(main, ["simulate", *args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, table",
    [
        (["--experiment", "error-rate", "--events", "0"], "error_rate.csv"),
        (["--experiment", "mse", "--trials", "0"], "mse.csv"),
        (["--experiment", "f1", "--n-sweep", "x"], "f1.csv"),
    ],
)
def test_simulate_checks_only_the_options_its_experiment_reads(runner, tmp_path, args, table):
    out = tmp_path / "sim"
    result = runner.invoke(
        main, ["simulate", "--events", "5", "--trials", "2", *args, "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert [p.name for p in out.iterdir()] == [table]


# SHA-256 of the tables written by `simulate --seed 42 --trials 30` (CLI
# defaults otherwise). The tables embed tool_version, so a version bump
# changes these digests too. All three depend on NumPy's `Generator.integers`
# streams, which NEP 19 does not promise to keep across NumPy versions.
GOLDEN_SIMULATE_SHA256 = {
    "error_rate.csv": "9682e59db7baec5cdc251ac292eed033f580c7fabc776819f1124392b45353c1",
    "f1.csv": "77e18926a12357213314ab173ce9ca0b2bc08b2b1e9396e260cb119d2dbdb2a7",
    "mse.csv": "ca51acd372eabba0da79f52eb2e688793bb37d851f62597e5ed997a8a3398009",
}


def test_simulate_tables_match_golden_digests(runner, tmp_path):
    out = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "--seed", "42", "--trials", "30", "--out", str(out)])
    assert result.exit_code == 0, result.output
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert digests == GOLDEN_SIMULATE_SHA256


def _label_text(values):
    base = parse_timestamp("2024-03-01 06:00")
    rows = "".join(f"{format_timestamp(base + i)},{v!r}\n" for i, v in enumerate(values))
    return "timestamp,value\n" + rows


# 120 slots. The binary reference's events [0, 10) and [110, 120) touch the
# ends of the series, and the ±15-minute boundary windows of [40, 50) and
# [60, 75) overlap. The soft reference is a trapezoid, so it has no
# `mse_boundary`.
_EVENTS = ((0, 10), (40, 50), (60, 75), (110, 120))
_BINARY_REFERENCE = [float(any(a <= i < b for a, b in _EVENTS)) for i in range(120)]
_SOFT_REFERENCE = [min(1.0, max(0.0, (i - 20) / 30), max(0.0, (100 - i) / 20)) for i in range(120)]
_FRACTIONAL = [(i * 37 % 101) / 100 for i in range(120)]
_BLOCK = [float(30 <= i < 90) for i in range(120)]

# SHA-256 of the `evaluate` JSON and `--csv` table, captured before
# `boundary_mse` and `soft_confusion` scored through the segment functions.
GOLDEN_EVALUATE_SHA256 = {
    "binary": (
        _BINARY_REFERENCE, _FRACTIONAL, "15",
        "83934b08e8663a68246b33060fdd0133f3f9616ba313e7f23801666a9f78399d",
        "4bb0af399eb757460ed027881edd953e49cb0f2c738a397a0483beb0fb56259a",
    ),
    "binary-wide": (
        _BINARY_REFERENCE, _FRACTIONAL, str(10**20),
        "6b4df9a6e37c477d0c094ab0a21e97150bd5e84dc19a078c0b9fb61e38c7ff98",
        "12cb26b9110757aa96687323fd16d5a91f297e7cdcc6a0486229eb5342c61d59",
    ),
    "soft": (
        _SOFT_REFERENCE, _BLOCK, "15",
        "e2610ae2362f8d08549f364718e1fd19a2eee2a504f2e65e4332e7b6755fc4ae",
        "94596498c22e0ac5d81d4a3a68c2c593f5741c1d2477cf0ac8dc721c00b2ac06",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_EVALUATE_SHA256))
def test_evaluate_matches_golden_digests(runner, tmp_path, monkeypatch, case):
    reference, prediction, window, json_digest, csv_digest = GOLDEN_EVALUATE_SHA256[case]
    # the report embeds its input paths, so they are relative to tmp_path
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "labels.csv", _label_text(reference))
    _write(tmp_path / "pred.csv", _label_text(prediction))
    args = ["--labels", "labels.csv", "--predictions", "pred.csv", "--boundary-window", window]
    result = runner.invoke(main, ["evaluate", *args, "--out", "m.json", "--csv", "m.csv"])
    assert result.exit_code == 0, result.output
    assert ("mse_boundary" in json.loads((tmp_path / "m.json").read_text())) == (case != "soft")
    digests = [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ("m.json", "m.csv")]
    assert digests == [json_digest, csv_digest]


def _golden_sensor_text():
    """240 humidity readings from 2023-12-31 22:30, with an on block that
    spans the new year and one stamp in a valid non-canonical form."""
    base = parse_timestamp("2023-12-31 22:30")
    rows = []
    for i in range(240):
        if 80 <= i < 130:
            value = 80 + (i * 37 % 11) / 2 - 2.5
        else:
            value = 45 + (i * 53 % 13) / 4 - 1.5
        stamp = "2024-1-1 0:05" if i == 95 else format_timestamp(base + i)
        rows.append(f"{stamp},{value}\n")
    rows.insert(120, "# sensor reconnected\n")
    return "# humidity export\ntimestamp,humidity\n" + "".join(rows)


# SHA-256 of the `detect` output without and with `--fit` for
# _golden_sensor_text(), captured before the label and sensor readers
# matched stamps against the writer's sequence.
GOLDEN_DETECT_SHA256 = {
    False: "d2a557a5cab400a795e54517deecbf2aa555ef07cc72b3f6dfdae809d8c11cef",
    True: "71ee08308daa42a3da5e3316ab010f5a7519bc4e0e29e76b69016a358df47236",
}


@pytest.mark.parametrize("fit", [False, True])
def test_detect_matches_golden_digests(runner, tmp_path, monkeypatch, fit):
    # the output embeds the params path, so it is relative to tmp_path
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "sensor.csv", _golden_sensor_text())
    _write(
        tmp_path / "hmm.json",
        json.dumps(
            {
                "initial": [0.5, 0.5],
                "transition": [[0.9, 0.1], [0.1, 0.9]],
                "means": [50.0, 70.0],
                "variances": [30.0, 30.0],
            }
        ),
    )
    args = ["detect", "sensor.csv", "--params", "hmm.json", "--out", "p.csv"]
    result = runner.invoke(main, args + (["--fit"] if fit else []))
    assert result.exit_code == 0, result.output
    assert read_label_csv(tmp_path / "p.csv").values.sum() == 50.0
    assert hashlib.sha256((tmp_path / "p.csv").read_bytes()).hexdigest() == GOLDEN_DETECT_SHA256[fit]


_JUNK_LINE = st.text(alphabet='0123456789-:,. "#\r\n\tabeinfx+', max_size=24)
_IDS = ["p1", "p2", '"a\nb"', ""]
_DATES = ["2024-03-01", "2024-02-29", "0001-01-01", "9999-12-31", "2024-3-1"]
_GRID_STARTS = ["2024-02-28 23:50", "1969-12-31 23:55", "0001-01-01 00:00", "9999-12-31 23:30"]
_VALUES = ["0", "1", "0.25", "-0", "0.5", "40.5", "1e200", "1e400", "nan", "-inf", "2", "x", ""]


_DIARY_COMMANDS = ("soft-labels", "infer-habit", "histogram")


@st.composite
def _hostile_input(draw):
    """A command and the text of a CSV for it: valid rows, then damage."""
    kind = draw(st.sampled_from([*_DIARY_COMMANDS, "evaluate", "detect"]))
    if kind in _DIARY_COMMANDS:
        n = draw(st.integers(0, 6))
        header = "annotator_id,date,event_kind,start,end"
        rows = []
        for _ in range(n):
            start = draw(st.integers(0, 1438))
            end = min(start + draw(st.integers(1, 120)), 1439)
            rows.append(
                f"{draw(st.sampled_from(_IDS))},{draw(st.sampled_from(_DATES))},"
                f"shower,{start // 60:02d}:{start % 60:02d},{end // 60:02d}:{end % 60:02d}"
            )
    else:
        n = draw(st.integers(0, 25))
        header = "timestamp,value" if kind == "evaluate" else "timestamp,humidity"
        base = parse_timestamp(draw(st.sampled_from(_GRID_STARTS)))
        pool = _VALUES[:5] if kind == "evaluate" else _VALUES[5:7]
        rows = [f"{format_timestamp(base + i)},{draw(st.sampled_from(pool))}" for i in range(n)]
    lines = [header, *rows]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        damage = draw(st.one_of(_JUNK_LINE, st.sampled_from(_VALUES)))
        if draw(st.booleans()) and at < len(lines):
            lines[at] = lines[at][: draw(st.integers(0, len(lines[at])))] + damage
        else:
            lines.insert(at, damage)
    text = "\n".join(lines).encode()
    if draw(st.booleans()):
        text += draw(st.binary(max_size=4))
    return kind, text, draw(st.booleans())


@settings(max_examples=40, deadline=None)
@given(case=_hostile_input())
def test_cli_survives_hostile_csv(tmp_path_factory, case):
    kind, text, fit = case
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "input.csv"
    path.write_bytes(text)
    if kind in _DIARY_COMMANDS:
        args = [kind, str(path), "--out", str(tmp / "out")]
    elif kind == "evaluate":
        args = ["evaluate", "--labels", str(path), "--predictions", str(path)]
        args += ["--out", str(tmp / "m.json")]
    else:
        params = tmp / "hmm.json"
        params.write_text(
            json.dumps(
                {
                    "initial": [0.5, 0.5],
                    "transition": [[0.9, 0.1], [0.1, 0.9]],
                    "means": [40.0, 41.0],
                    "variances": [1.0, 1.0],
                }
            )
        )
        args = ["detect", str(path), "--params", str(params), "--out", str(tmp / "p.csv")]
        args += ["--fit"] if fit else []
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception


_GOOD_PARAMS = {
    "initial": [0.5, 0.5],
    "transition": [[0.9, 0.1], [0.1, 0.9]],
    "means": [40.0, 41.0],
    "variances": [1.0, 1.0],
}
_JUNK_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(alphabet="ab0.1-e", max_size=4),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(list(_GOOD_PARAMS)), inner)
    ),
    max_leaves=8,
)


@st.composite
def _hostile_params(draw):
    """A parsed-JSON value for `detect --params`: consistent parameters for
    one, two or three states with some entries replaced, dropped or
    reshaped, or something else entirely."""
    if draw(st.booleans()):
        return draw(_JUNK_JSON)
    params = dict(draw(st.sampled_from([_GOOD_PARAMS, *_OTHER_STATE_COUNTS.values()])))
    for key in draw(st.lists(st.sampled_from(list(_GOOD_PARAMS)), max_size=3)):
        params[key] = draw(
            st.one_of(
                _JUNK_JSON,
                st.just(np.ravel(_GOOD_PARAMS[key]).tolist()),
                st.just([_GOOD_PARAMS[key]]),
            )
        )
    for key in draw(st.lists(st.sampled_from(list(_GOOD_PARAMS)), max_size=1)):
        params.pop(key, None)
    return params


@settings(max_examples=40, deadline=None)
@given(params=_hostile_params(), fit=st.booleans())
def test_cli_survives_hostile_params(tmp_path_factory, params, fit):
    tmp = tmp_path_factory.mktemp("fuzz")
    sensor = tmp / "sensor.csv"
    base = parse_timestamp("2024-05-01 06:00")
    sensor.write_text(
        "timestamp,humidity\n"
        + "".join(f"{format_timestamp(base + i)},{40 + (i // 5) % 2}\n" for i in range(30))
    )
    path = tmp / "hmm.json"
    path.write_text(json.dumps(params))  # NaN and Infinity as Python's json writes them
    args = ["detect", str(sensor), "--params", str(path), "--out", str(tmp / "p.csv")]
    result = CliRunner().invoke(main, args + (["--fit"] if fit else []))
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception


def _joined(values, min_size=0):
    return st.lists(st.sampled_from(values), min_size=min_size, max_size=3).map(",".join)


# per `simulate` option: a strategy for valid values and one for hostile ones
_SIM_OPTIONS = {
    "--seed": (
        st.one_of(st.integers(0, 50), st.sampled_from([2**32, 2**70])).map(str),
        st.sampled_from(["-1", "-3", str(-(2**70)), "1.5", "x"]),
    ),
    "--events": (st.integers(1, 5).map(str), st.sampled_from(["-1", "0", "x"])),
    "--trials": (st.integers(1, 3).map(str), st.sampled_from(["-1", "0", "x"])),
    "--n-sweep": (
        _joined(["1", "2", "5", "7"], min_size=1),
        st.one_of(_joined(["-1", "0", "1.5", "x", ""]), st.text("0123456789,-", max_size=5)),
    ),
    "--resolutions": (
        _joined(["1", "5", "10", "12", "15", "20", "30", "60"], min_size=1),
        _joined(["-1", "0", "7", "90", "2.5", "x", "", "30"]),
    ),
    "--biases": (
        _joined(["0", "0.25", "0.5", "0.9", "0.99"], min_size=1),
        _joined(["1", "-0.1", "1.5", "nan", "inf", "x", "", "0"]),
    ),
    "--delta": (
        st.sampled_from(["0", "0.1", "0.5", "1"]),
        st.sampled_from(["-0.5", "1.5", "nan", "inf", "x", ""]),
    ),
    "--catalog": (
        st.sampled_from(["30,15,10,5,1", "60,30,15,5,1", "60,20,1", "12,4,1", "30"]),
        st.sampled_from(["15,30,1", "7,1", "0", "-30,1", "", "60,60", "x"]),
    ),
}


@st.composite
def _hostile_simulate_args(draw):
    """`simulate` options at small sizes, up to two of them hostile."""
    hostile = draw(st.sets(st.sampled_from(list(_SIM_OPTIONS)), max_size=2))
    args = ["--experiment", draw(st.sampled_from(["all", "mse", "f1", "error-rate"]))]
    for option, (valid, bad) in _SIM_OPTIONS.items():
        args += [option, draw(bad if option in hostile else valid)]
    return args


@settings(max_examples=40, deadline=None)
@given(args=_hostile_simulate_args())
def test_cli_survives_hostile_simulate_options(tmp_path_factory, args):
    out = tmp_path_factory.mktemp("fuzz") / "sim"
    result = CliRunner().invoke(main, ["simulate", *args, "--out", str(out)])
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 0 or not out.exists(), result.output
