"""Seeded input generators for the `diary` and `sensor` workloads.

Inputs depend only on the seed and the requested size, and are written with
the benchmark's own formatting code, so a change to the package never changes
the bytes the package is fed. Each generator also writes its ground truth:
true habits per annotator for the diary, true binary labels for the sensor.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

PERIODS = (30, 15, 10, 5, 1)
EVENT_KINDS = ("shower", "sleep", "cook", "commute", "exercise", "read")
DIARY_FIRST_DAY = date(2024, 1, 1)
DIARY_DAYS = 90
SENSOR_START = datetime(2024, 1, 1)
OFF_HABIT = 0.1
BIG_ANNOTATOR_SHARE = 0.2
DURATION_RANGE = (10, 60)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


@dataclass(frozen=True)
class DiaryTruth:
    rows: int
    habits: dict[str, int]
    rows_per_annotator: dict[str, int]


@dataclass(frozen=True)
class SensorTruth:
    slots: int
    events: int


def annotator_sizes(rows: int, annotators: int) -> list[int]:
    """Rows per annotator: one holds a fixed large share, the rest are Zipf.

    Sizes do not depend on the seed, so every seed does the same amount of
    work per annotator; only which minutes are reported changes.
    """
    big = round(rows * BIG_ANNOTATOR_SHARE)
    rest = rows - big
    weights = 1.0 / np.arange(1, annotators)
    raw = weights / weights.sum() * rest
    sizes = np.maximum(np.floor(raw).astype(int), 1)
    shortfall = rest - int(sizes.sum())
    order = np.argsort(-(raw - np.floor(raw)), kind="stable")
    for i in order[: max(shortfall, 0)]:
        sizes[i] += 1
    return [big, *sizes.tolist()]


def _round(minute: np.ndarray, period: np.ndarray) -> np.ndarray:
    """Nearest multiple of the period; exact midpoints round up."""
    return np.floor(minute / period + 0.5).astype(int) * period


def write_diary(directory: Path, seed: int, rows: int, annotators: int) -> DiaryTruth:
    """Write `diary.csv` and `diary_truth.json`; return the ground truth.

    Every annotator has a habitual period; habits cycle through all five
    default periods in a fixed order. With the fixed annotator sizes, the
    seed then changes which times are reported but not how much work they
    make: a coarser category pads a soft label's window more. A row keeps the
    habit with probability 0.9 and otherwise uses one of the other periods;
    both true times are rounded to the nearest multiple of the row's period.
    Events last 10 to 60 minutes and never cross midnight.
    """
    rng = _rng(seed, 1)
    sizes = annotator_sizes(rows, annotators)
    rows = sum(sizes)  # exceeds the request only if some annotator was rounded up to 1
    ids = [f"p{i:03d}" for i in range(annotators)]
    habits = {aid: PERIODS[i % len(PERIODS)] for i, aid in enumerate(ids)}

    owner = np.repeat(np.arange(annotators), sizes)
    habit = np.array([habits[ids[a]] for a in owner])
    day = rng.integers(0, DIARY_DAYS, size=rows)
    kind = rng.integers(0, len(EVENT_KINDS), size=rows)
    duration = rng.integers(DURATION_RANGE[0], DURATION_RANGE[1] + 1, size=rows)
    start = rng.integers(60, 1440 - 60 - duration + 1)
    end = start + duration

    # about one row in ten is off-habit: both its ends use one of the other
    # four periods, picked uniformly
    off = rng.random(rows) < OFF_HABIT
    shift = rng.integers(1, len(PERIODS), size=rows)
    habit_pos = np.array([PERIODS.index(p) for p in habit])
    period = np.array(PERIODS)[np.where(off, (habit_pos + shift) % len(PERIODS), habit_pos)]
    start_rep = _round(start, period)
    # an event that rounds to zero length is reported one period long
    end_rep = np.maximum(_round(end, period), start_rep + period)

    order = np.lexsort((owner, start_rep, day))
    lines = ["annotator_id,date,event_kind,start,end"]
    for i in order:
        d = DIARY_FIRST_DAY + timedelta(days=int(day[i]))
        s, e = int(start_rep[i]), int(end_rep[i])
        lines.append(
            f"{ids[owner[i]]},{d:%Y-%m-%d},{EVENT_KINDS[kind[i]]},"
            f"{s // 60:02d}:{s % 60:02d},{e // 60:02d}:{e % 60:02d}"
        )
    (directory / "diary.csv").write_text("\n".join(lines) + "\n")
    truth = DiaryTruth(rows=rows, habits=habits, rows_per_annotator=dict(zip(ids, sizes)))
    (directory / "diary_truth.json").write_text(json.dumps(asdict(truth), indent=1) + "\n")
    return truth


# Emission means 5 noise standard deviations apart and a deliberately off
# initial guess: on eight days Baum-Welch then needs 8 or 9 iterations on
# every seed from 1 to 20. Closer means make the count depend on the seed (at
# 3.5 standard deviations on fourteen days most seeds need 10, one needs 27),
# and with it the workload's wall time.
SENSOR_NOISE_SD = 1.0
SENSOR_ON_SHIFT = 5.0
SENSOR_MEAN_GAP = 15 * 60
SENSOR_INITIAL_GUESS = {
    "initial": [0.5, 0.5],
    "transition": [[0.9, 0.1], [0.2, 0.8]],
    "means": [0.5, 1.5],
    "variances": [2.0, 2.0],
}


def _minute_stamp(minute: int) -> str:
    return f"{SENSOR_START + timedelta(minutes=minute):%Y-%m-%d %H:%M}"


def write_sensor(directory: Path, seed: int, days: int) -> SensorTruth:
    """Write `sensor.csv`, `truth.csv` and `hmm.json`; return the truth summary.

    A two-state generator on a 1-minute grid: events last 10 to 60 minutes
    and start every 5 to 25 hours; readings are the state's mean plus plain
    Gaussian noise.
    """
    rng = _rng(seed, 2)
    slots = days * 1440
    # Stratified schedule: gaps and durations are evenly spread over their
    # ranges and only their order is drawn, so every seed has the same event
    # count and on-time and Baum-Welch does the same number of iterations.
    events = slots // SENSOR_MEAN_GAP
    gaps = rng.permutation(np.linspace(5 * 60, 25 * 60, events).round().astype(int))
    durations = rng.permutation(np.linspace(10, 60, events).round().astype(int))
    labels = np.zeros(slots, dtype=int)
    t = int(rng.integers(0, 5 * 60))
    for gap, duration in zip(gaps, durations):
        labels[t : t + duration] = 1
        t += gap
    values = labels * SENSOR_ON_SHIFT + rng.normal(0.0, SENSOR_NOISE_SD, size=slots)

    stamps = [_minute_stamp(m) for m in range(slots)]
    (directory / "sensor.csv").write_text(
        "timestamp,humidity\n"
        + "".join(f"{s},{v:.6f}\n" for s, v in zip(stamps, values))
    )
    (directory / "truth.csv").write_text(
        "timestamp,value\n" + "".join(f"{s},{v}\n" for s, v in zip(stamps, labels))
    )
    (directory / "hmm.json").write_text(json.dumps(SENSOR_INITIAL_GUESS, indent=2) + "\n")
    return SensorTruth(slots=slots, events=events)
