"""Soft and hard label series on a one-minute grid.

A label series covers a window of whole-minute slots; slot k spans [k, k+1)
and its value is the label function sampled at the slot midpoint k + 0.5.
Hard labels are 1 exactly on the slots between the annotated start and end.
Soft labels model each boundary as a uniform distribution centered on the
annotated time with half-width of half its period, and only this module
halves a period: `soft_label` takes categories, and `padded_bounds` and
`label_grids` the MAP periods of `inference.boundary_periods`. The
probability the event has started rises linearly across the start ramp, the
probability it has not yet ended falls linearly across the end ramp, and
the soft value is their product (boundaries treated as independent).

Sampling at midpoints keeps the finest category exact: a width-1 ramp puts
its 0-to-1 transition entirely between two midpoints, so the soft series of
a 1-minute category equals the hard series slot for slot.

The soft label function has one definition, `soft_values`, and the hard
one `indicator`; the per-record `soft_series` and `hard_series` and the
batched grid all sample them. `label_grids`, the grid of `soft-labels` and
the simulate sweeps, lays records' windows end to end with `_flat_grid`
(the layout `evaluation` scores by), `_GRID_RECORDS` records at a time.
Each record's ramp starts, half-widths and hard span ends reach its slots
through `np.repeat` over the window lengths, as contiguous rows, and
`ramp` and `soft_values` write their later steps over arrays they made
themselves instead of allocating new ones. A record the grid rejects is
rebuilt through the per-record functions, so each error message lives in
them alone. A grid checks its soft values once, with `LabelSeries`' own
check, and freezes them; `LabelGrid.soft_labels` then hands out each
record's series as a read-only view of them, not a re-checked copy.
`LabelSeries` and `hmm`'s sensor series share one shape check,
`_series_values`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import ResolutionCategory, _frozen_array
from .errors import InputError


@dataclass(frozen=True)
class TimeWindow:
    """Half-open span of whole minutes [start, end) on the absolute axis."""

    start: int
    end: int

    def __post_init__(self):
        if self.end <= self.start:
            raise InputError(f"window end must exceed start, got [{self.start}, {self.end})")

    def midpoints(self) -> np.ndarray:
        return np.arange(self.start, self.end) + 0.5


@dataclass(frozen=True)
class EventAnnotation:
    """One annotated event instance: a start and end at minute precision."""

    start: int
    end: int

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

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width


def _series_values(values, what: str) -> np.ndarray:
    """`_frozen_array`'s copy of `values`, checked to be a non-empty 1-d vector."""
    arr = _frozen_array(values)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{what} must be a non-empty 1-d vector")
    return arr


def _check_label_values(values: np.ndarray) -> None:
    """InputError unless every value lies in [0, 1]."""
    if not ((values >= 0.0) & (values <= 1.0)).all():  # NaN fails both comparisons
        raise InputError("label values must lie in [0, 1]")


@dataclass(frozen=True)
class LabelSeries:
    """Per-slot label values in [0, 1] over a window of 1-minute slots."""

    window_start: int
    values: np.ndarray

    def __post_init__(self):
        arr = _series_values(self.values, "label series")
        _check_label_values(arr)
        object.__setattr__(self, "values", arr)

    @classmethod
    def _view(cls, window_start: int, values: np.ndarray) -> "LabelSeries":
        """The series of `values` as given, neither copied nor checked: a
        read-only, non-empty 1-d float array that `_check_label_values` passed."""
        series = object.__new__(cls)
        object.__setattr__(series, "window_start", window_start)
        object.__setattr__(series, "values", values)
        return series

    def __len__(self) -> int:
        return len(self.values)

    def is_binary(self) -> bool:
        return bool(np.all((self.values == 0.0) | (self.values == 1.0)))


def ramp(t, lo, half_width) -> np.ndarray:
    """Uniform-boundary CDF: 0 up to `lo`, rising linearly to 1 at
    `lo + 2 * half_width`. Arguments broadcast element-wise."""
    rise = (t - lo) / (2.0 * half_width)
    # clipped in place, where the quotient is an array: a scalar has no buffer
    return np.clip(rise, 0.0, 1.0, out=rise if isinstance(rise, np.ndarray) else None)


def indicator(t, start, end) -> np.ndarray:
    """1.0 where start <= t < end, else 0.0. Arguments broadcast element-wise."""
    return ((t >= start) & (t < end)).astype(float)


def soft_values(t, lo_start, half_start, lo_end, half_end) -> np.ndarray:
    """The soft label function, P(started) * P(not yet ended) at time t, of
    ramps from `lo_start` and `lo_end` with half-widths `half_start` and
    `half_end`. Arguments broadcast element-wise."""
    started = ramp(t, lo_start, half_start)
    ended = ramp(t, lo_end, half_end)
    if not isinstance(ended, np.ndarray):
        # scalar arithmetic, which may keep another NaN's sign than a ufunc
        return started * (1.0 - ended)
    not_ended = np.subtract(1.0, ended, out=ended)
    # the product overwrites `started` only where it has the product's shape and type
    same = (
        isinstance(started, np.ndarray)
        and started.shape == not_ended.shape
        and started.dtype == not_ended.dtype
    )
    return np.multiply(started, not_ended, out=started if same else None)


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
    values = soft_values(
        window.midpoints(), start_dist.lo, start_dist.half_width, end_dist.lo, end_dist.half_width
    )
    return LabelSeries(window_start=window.start, values=values)


def soft_label(
    event: EventAnnotation,
    cat_start: ResolutionCategory,
    cat_end: ResolutionCategory,
    window: TimeWindow,
) -> LabelSeries:
    """Soft series for an event, ramps centered on the annotated boundaries."""
    return soft_series(
        BoundaryDistribution(float(event.start), cat_start.period_minutes / 2.0),
        BoundaryDistribution(float(event.end), cat_end.period_minutes / 2.0),
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


def padded_bounds(start, end, period_start, period_end, pad: int):
    """Start and end minute of the smallest whole-minute windows covering
    events from `start` to `end`, the ramps of boundaries with periods
    `period_start` and `period_end`, and `pad` more minutes on each side.
    Arguments broadcast element-wise."""
    lo = np.floor(np.subtract(start, np.divide(period_start, 2.0))).astype(np.int64) - pad
    hi = np.ceil(np.add(end, np.divide(period_end, 2.0))).astype(np.int64) + pad
    return lo, hi


def _flat_grid(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and slot start minutes of windows [lo[k], hi[k]) laid end to
    end on one flat grid, window k owning slots offsets[k]:offsets[k + 1]."""
    lengths = hi - lo
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    return offsets, np.arange(offsets[-1]) + np.repeat(lo - offsets[:-1], lengths)


# Records per label grid. A record's window is about 100-200 slots, so this
# keeps each flat array of a grid near 100 kB however many records there are.
_GRID_RECORDS = 64


@dataclass(frozen=True)
class LabelGrid:
    """Soft and hard labels of consecutive records on one flat minute grid.

    The k-th record of `records` owns slots offsets[k]:offsets[k + 1], its
    window of whole minutes; `minutes` holds each slot's start. `soft` is
    read-only and lies in [0, 1].
    """

    records: range
    offsets: np.ndarray
    minutes: np.ndarray
    soft: np.ndarray
    hard: tuple[np.ndarray, ...]  # one per hard span

    def segments(self):
        return zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())

    def soft_labels(self):
        """Each record's soft label, in order, as a read-only view of `soft`."""
        starts = self.minutes[self.offsets[:-1]].tolist()
        for start, (a, b) in zip(starts, self.segments()):
            yield LabelSeries._view(start, self.soft[a:b])


def label_grids(lo, hi, centers, periods, spans=()):
    """Yield the labels of records 0 to N - 1, `_GRID_RECORDS` at a time.

    Record i's window is [lo[i], hi[i]). Its soft label has start and end
    ramps centered on centers[i] with half-widths periods[i] / 2, both
    (N, 2), and each (N, 2) array of start and end minutes in `spans` gives
    it one hard label. Values are those `soft_series` and `hard_series`
    sample on that window, slot for slot.

    Their checks run on all records at once, before any grid is built. The
    first record that fails one is rebuilt through `TimeWindow`,
    `hard_series`, `BoundaryDistribution` and `soft_series` once the records
    before it have been yielded, so it raises exactly their error.
    """
    half_widths = periods / 2.0
    ramp_lo, ramp_hi = centers - half_widths, centers + half_widths
    # the comparisons those functions make, so that NaN passes them here too
    bad = (hi <= lo) | (half_widths < 0.5).any(axis=1)
    bad |= (lo > ramp_lo[:, 0]) | (hi < ramp_hi[:, 1])
    # and the NaN soft values `LabelSeries` rejects: a ramp from a NaN centre,
    # or over a period that is not finite (an infinite centre alone gives 0 or 1)
    bad |= (np.isnan(centers) | ~np.isfinite(periods)).any(axis=1)
    for span in spans:
        bad |= (span[:, 1] < span[:, 0]) | (span[:, 0] < lo) | (span[:, 1] > hi)
    stop = int(np.argmax(bad)) if bad.any() else len(lo)
    for first in range(0, stop, _GRID_RECORDS):
        records = range(first, min(first + _GRID_RECORDS, stop))
        yield _label_grid(records, lo, hi, ramp_lo, half_widths, spans)
    if stop < len(lo):
        window = TimeWindow(lo[stop].item(), hi[stop].item())
        for span in spans:
            hard_series(*span[stop].tolist(), window)
        (center_s, center_e), (half_s, half_e) = centers[stop].tolist(), half_widths[stop].tolist()
        soft_series(
            BoundaryDistribution(center_s, half_s), BoundaryDistribution(center_e, half_e), window
        )
        raise AssertionError(f"record {stop} fails a grid check but no per-record one")


def _label_grid(records: range, lo, hi, ramp_lo, half_widths, spans) -> LabelGrid:
    """The grid of `records`. Each record's ramp starts and half-widths, and
    the ends of each of its hard spans, reach its slots through `np.repeat`
    over the window lengths, as contiguous rows, not through a gather by
    each slot's record."""
    batch = slice(records.start, records.stop)
    offsets, minutes = _flat_grid(lo[batch], hi[batch])
    lengths = np.diff(offsets)
    mid = minutes + 0.5
    (lo_start, lo_end), (half_start, half_end) = (
        np.repeat(values[batch].T, lengths, axis=1) for values in (ramp_lo, half_widths)
    )
    soft = soft_values(mid, lo_start, half_start, lo_end, half_end)
    _check_label_values(soft)
    soft.flags.writeable = False
    hard = tuple(indicator(mid, *np.repeat(span[batch].T, lengths, axis=1)) for span in spans)
    return LabelGrid(records, offsets, minutes, soft, hard)
