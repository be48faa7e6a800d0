"""The three workloads: inputs, command sequences, output checks and digests.

Every command runs with paths relative to the workload's directory, because
`detect` and `evaluate` embed their input paths in their outputs and the
digest must not depend on where the checkout lives.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

SIM_RESOLUTIONS = (1, 5, 10, 15, 30)
SIM_BIASES = (0.0, 0.5)
SIM_N_SWEEP = (1, 2, 5, 10, 20, 50, 100)
SIM_PERIODS = 5  # categories in the default catalogue; one error-rate block each


@dataclass(frozen=True)
class Sizes:
    # sizes that keep each workload's pass near 2.5 s, so that a run holds
    # ten passes or more
    diary_rows: int = 2_500
    diary_annotators: int = 100
    sensor_days: int = 8
    simulate_events: int = 100
    simulate_trials: int = 150


TINY = Sizes(
    diary_rows=240,
    diary_annotators=12,
    sensor_days=2,
    simulate_events=10,
    simulate_trials=3,
)


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]  # files or directories the command writes
    check: Callable[[], list[str]]  # problems found in its outputs


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    items: int  # input size that items_per_s divides by
    item_unit: str
    summary: dict


def _data_lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def _csv_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(_data_lines(path)))


def _check_infer_habit(path: Path, truth: inputs.DiaryTruth) -> list[str]:
    report = json.loads(path.read_text())
    entries = report["annotators"]
    problems = []
    if sorted(e["annotator_id"] for e in entries) != sorted(truth.rows_per_annotator):
        problems.append("report does not list exactly the diary's annotators")
    for entry in entries:
        aid = entry["annotator_id"]
        expected = 2 * truth.rows_per_annotator.get(aid, -1)
        if not math.isclose(sum(entry["habit"]["probs"]), 1.0, abs_tol=1e-9):
            problems.append(f"{aid}: habit probabilities do not sum to 1")
        if entry["n_annotations"] != expected or len(entry["annotations"]) != expected:
            problems.append(f"{aid}: expected {expected} annotations")
    return problems


def _check_soft_labels(directory: Path, truth: inputs.DiaryTruth) -> list[str]:
    expected = {
        f"softlabel_{aid}_{k:03d}.csv"
        for aid, rows in truth.rows_per_annotator.items()
        for k in range(rows)
    }
    found = {p.name for p in directory.iterdir()}
    problems = []
    if found != expected:
        problems.append(f"expected {len(expected)} label files, found {len(found)}")
    for name in sorted(found & expected):
        lines = _data_lines(directory / name)
        if lines[0] != "timestamp,value" or len(lines) < 2:
            problems.append(f"{name}: no label rows")
            continue
        values = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        if not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"{name}: value outside [0, 1]")
    return problems


def _check_histogram(path: Path, truth: inputs.DiaryTruth) -> list[str]:
    total = sum(int(row["count"]) for row in _csv_rows(path))
    if total != 2 * truth.rows:
        return [f"histogram counts sum to {total}, expected {2 * truth.rows}"]
    return []


def _check_simulate(directory: Path) -> list[str]:
    expected = {
        "mse.csv": len(SIM_RESOLUTIONS),
        "f1.csv": len(SIM_RESOLUTIONS) * len(SIM_BIASES),
        "error_rate.csv": SIM_PERIODS * len(SIM_N_SWEEP),
    }
    problems = []
    for name, count in expected.items():
        path = directory / name
        rows = _csv_rows(path) if path.is_file() else []
        if len(rows) != count:
            problems.append(f"{name}: {len(rows)} rows, expected {count}")
    return problems


def _check_detect(path: Path, slots: int) -> list[str]:
    values = [row["value"] for row in _csv_rows(path)]
    problems = []
    if len(values) != slots:
        problems.append(f"{len(values)} decoded slots, expected {slots}")
    if not set(values) <= {"0", "1"}:
        problems.append("decoded output is not binary")
    return problems


def _check_evaluate(path: Path) -> list[str]:
    payload = json.loads(path.read_text())
    problems = [
        f"{kind} F1 {payload[kind]['f1']} outside [0, 1]"
        for kind in ("hard", "soft")
        if not 0.0 <= payload[kind]["f1"] <= 1.0
    ]
    if "mse_boundary" not in payload:
        problems.append("mse_boundary missing")
    return problems


def _join(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def prepare(name: str, seed: int, directory: Path, sizes: Sizes) -> Workload:
    """Write the workload's inputs into `directory` and describe its pass.

    Command paths are relative to `directory`, which must be the current
    directory whenever the commands or checks run.
    """
    out = Path("out")
    if name == "diary":
        truth = inputs.write_diary(directory, seed, sizes.diary_rows, sizes.diary_annotators)
        report, labels, hist = out / "report.json", out / "labels", out / "hist.csv"
        commands = (
            Command("infer-habit", ("infer-habit", "diary.csv", "--out", str(report)),
                    (str(report),), lambda: _check_infer_habit(report, truth)),
            Command("soft-labels", ("soft-labels", "diary.csv", "--out", str(labels)),
                    (str(labels),), lambda: _check_soft_labels(labels, truth)),
            Command("histogram", ("histogram", "diary.csv", "--out", str(hist)),
                    (str(hist),), lambda: _check_histogram(hist, truth)),
        )
        summary = {"rows": truth.rows, "annotators": len(truth.rows_per_annotator),
                   "largest_annotator_rows": max(truth.rows_per_annotator.values())}
        return Workload(name, commands, truth.rows, "diary rows", summary)
    if name == "simulate":
        sim = out / "sim"
        args = (
            "simulate", "--seed", str(seed), "--out", str(sim),
            "--events", str(sizes.simulate_events), "--trials", str(sizes.simulate_trials),
            "--resolutions", _join(SIM_RESOLUTIONS), "--biases", _join(SIM_BIASES),
            "--n-sweep", _join(SIM_N_SWEEP),
        )
        events = sizes.simulate_events * len(SIM_RESOLUTIONS) * (1 + len(SIM_BIASES))
        trials = sizes.simulate_trials * SIM_PERIODS * len(SIM_N_SWEEP)
        commands = (Command("simulate", args, (str(sim),), lambda: _check_simulate(sim)),)
        summary = {"simulated_events": events, "error_rate_trials": trials}
        return Workload(name, commands, events + trials, "events + trials", summary)
    if name == "sensor":
        truth = inputs.write_sensor(directory, seed, sizes.sensor_days)
        pred, metrics = out / "pred.csv", out / "metrics.json"
        commands = (
            Command("detect",
                    ("detect", "sensor.csv", "--params", "hmm.json", "--fit", "--out", str(pred)),
                    (str(pred),), lambda: _check_detect(pred, truth.slots)),
            Command("evaluate",
                    ("evaluate", "--labels", "truth.csv", "--predictions", str(pred),
                     "--out", str(metrics)),
                    (str(metrics),), lambda: _check_evaluate(metrics)),
        )
        summary = {"slots": truth.slots, "events": truth.events}
        return Workload(name, commands, truth.slots, "sensor slots", summary)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("diary", "simulate", "sensor")


def check(command: Command) -> list[str]:
    """Problems in a command's outputs; a crash while reading counts as one."""
    try:
        return command.check()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def digest(commands) -> str:
    """SHA-256 over every output file of a pass, by path then content."""
    h = hashlib.sha256()
    for command in commands:
        for output in command.outputs:
            root = Path(output)
            files = sorted(root.rglob("*")) if root.is_dir() else [root]
            for path in files:
                if path.is_file():
                    h.update(str(path).encode() + b"\0")
                    h.update(path.read_bytes())
    return h.hexdigest()
