"""Soft and hard label series on a one-minute grid.

A label series covers a window of whole-minute slots; slot k spans
[k, k+1) and its value is the label function sampled at the slot midpoint
k + 0.5. Hard labels are 1 exactly on the slots between the annotated start
and end. Soft labels model each boundary as a uniform distribution centered
on the annotated time with half-width of half the category period: the
probability the event has started rises linearly across the start ramp, the
probability it has not yet ended falls linearly across the end ramp, and the
soft value is their product (boundaries treated as independent).

Sampling at midpoints keeps the finest category exact: a width-1 ramp puts
its 0-to-1 transition entirely between two midpoints, so the soft series of
a 1-minute category equals the hard series slot for slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import ResolutionCategory
from .errors import InputError


@dataclass(frozen=True)
class TimeWindow:
    """Half-open span of whole minutes [start, end) on the absolute axis."""

    start: int
    end: int

    def __post_init__(self):
        if self.end <= self.start:
            raise InputError(f"window end must exceed start, got [{self.start}, {self.end})")

    @property
    def n_slots(self) -> int:
        return self.end - self.start

    def slot_starts(self) -> np.ndarray:
        return np.arange(self.start, self.end)

    def midpoints(self) -> np.ndarray:
        return np.arange(self.start, self.end) + 0.5


@dataclass(frozen=True)
class EventAnnotation:
    """One annotated event instance: a start and end at minute precision."""

    start: int
    end: int
    annotator_id: str = ""
    event_kind: str = ""

    def __post_init__(self):
        if self.end <= self.start:
            raise InputError(
                f"event end must be after start, got start={self.start} end={self.end}"
            )


@dataclass(frozen=True)
class BoundaryDistribution:
    """Uniform distribution over the true time of one annotated boundary."""

    center: float
    half_width: float

    def __post_init__(self):
        if self.half_width < 0.5:
            raise InputError(
                f"half-width below 0.5 is finer than the 1-minute grid, got {self.half_width}"
            )

    @classmethod
    def for_category(
        cls, annotated_minute: float, category: ResolutionCategory
    ) -> "BoundaryDistribution":
        return cls(center=float(annotated_minute), half_width=category.period_minutes / 2.0)

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width


@dataclass(frozen=True)
class LabelSeries:
    """Per-slot label values in [0, 1] over a window of 1-minute slots."""

    window_start: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("label series must be a non-empty 1-d vector")
        if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
            raise InputError("label values must lie in [0, 1]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def window(self) -> TimeWindow:
        return TimeWindow(self.window_start, self.window_start + len(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def slot_starts(self) -> np.ndarray:
        return self.window.slot_starts()

    def is_binary(self) -> bool:
        return bool(np.all((self.values == 0.0) | (self.values == 1.0)))

    def aligned_with(self, other: "LabelSeries") -> bool:
        return self.window_start == other.window_start and len(self) == len(other)

    def to_dict(self) -> dict:
        return {
            "window_start": self.window_start,
            "slot_minutes": 1,
            "values": [float(v) for v in self.values],
        }


def ramp(t, lo, half_width) -> np.ndarray:
    """Uniform-boundary CDF: 0 up to `lo`, rising linearly to 1 at
    `lo + 2 * half_width`. Arguments broadcast element-wise."""
    return np.clip((t - lo) / (2.0 * half_width), 0.0, 1.0)


def indicator(t, start, end) -> np.ndarray:
    """1.0 where start <= t < end, else 0.0. Arguments broadcast element-wise."""
    return ((t >= start) & (t < end)).astype(float)


def start_probability(dist: BoundaryDistribution, t) -> float | np.ndarray:
    """P(true start <= t): linear ramp from 0 at lo to 1 at hi."""
    out = ramp(np.asarray(t, dtype=float), dist.lo, dist.half_width)
    return float(out) if out.ndim == 0 else out


def end_probability(dist: BoundaryDistribution, t) -> float | np.ndarray:
    """P(true end > t): complement ramp, 1 at lo falling to 0 at hi."""
    out = 1.0 - ramp(np.asarray(t, dtype=float), dist.lo, dist.half_width)
    return float(out) if out.ndim == 0 else out


def soft_value(start_dist: BoundaryDistribution, end_dist: BoundaryDistribution, t):
    """The soft label function itself: started and not yet ended at time t."""
    return start_probability(start_dist, t) * end_probability(end_dist, t)


def soft_series(
    start_dist: BoundaryDistribution,
    end_dist: BoundaryDistribution,
    window: TimeWindow,
) -> LabelSeries:
    """Sample the soft label function at every slot midpoint in the window.

    The window must contain both ramps entirely; truncating a ramp would
    silently discard probability mass.
    """
    if window.start > start_dist.lo or window.end < end_dist.hi:
        raise InputError(
            f"window [{window.start}, {window.end}) too small for ramps "
            f"[{start_dist.lo}, {start_dist.hi}] and [{end_dist.lo}, {end_dist.hi}]"
        )
    mid = window.midpoints()
    values = start_probability(start_dist, mid) * end_probability(end_dist, mid)
    return LabelSeries(window_start=window.start, values=values)


def soft_label(
    event: EventAnnotation,
    cat_start: ResolutionCategory,
    cat_end: ResolutionCategory,
    window: TimeWindow,
) -> LabelSeries:
    """Soft series for an event, ramps centered on the annotated boundaries."""
    return soft_series(
        BoundaryDistribution.for_category(event.start, cat_start),
        BoundaryDistribution.for_category(event.end, cat_end),
        window,
    )


def hard_series(start: int, end: int, window: TimeWindow) -> LabelSeries:
    """Binary series: 1 on slots whose midpoint lies in [start, end).

    Accepts end == start (an annotation collapsed by coarse rounding), which
    yields an all-zero series.
    """
    if end < start:
        raise InputError(f"end must not precede start, got start={start} end={end}")
    if start < window.start or end > window.end:
        raise InputError(
            f"window [{window.start}, {window.end}) does not cover [{start}, {end})"
        )
    return LabelSeries(window_start=window.start, values=indicator(window.midpoints(), start, end))


def hard_label(event: EventAnnotation, window: TimeWindow) -> LabelSeries:
    return hard_series(event.start, event.end, window)


def padded_window(
    event: EventAnnotation,
    cat_start: ResolutionCategory,
    cat_end: ResolutionCategory,
    pad: int = 15,
) -> TimeWindow:
    """Smallest whole-minute window covering the event, its ramps and `pad`."""
    half_s = cat_start.period_minutes / 2.0
    half_e = cat_end.period_minutes / 2.0
    lo = math.floor(event.start - half_s) - pad
    hi = math.ceil(event.end + half_e) + pad
    return TimeWindow(lo, hi)
