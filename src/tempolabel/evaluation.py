"""Scoring of label series against each other.

Two families of metrics:

* squared error (MSE), either over the full window or restricted to slots
  near true event boundaries;
* a soft confusion matrix whose cells are slot-wise products of reference
  and prediction values, so fractional counts appear as soon as either side
  is strictly soft. On binary series it reduces exactly to the classical
  confusion matrix. Reports follow the rows-are-labels, columns-are-
  predictions orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .labels import LabelSeries

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class SoftConfusionMatrix:
    """Fractional confusion counts; reference is "label", other axis "prediction"."""

    tp: float
    fp: float
    fn: float
    tn: float

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            v = getattr(self, name)
            if v < -_MASS_TOL or not np.isfinite(v):
                raise InputError(f"confusion entry {name} must be nonnegative, got {v}")

    @property
    def total(self) -> float:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def degenerate(self) -> bool:
        """True when no positive mass exists anywhere, so F1 is undefined."""
        return (2 * self.tp + self.fp + self.fn) == 0.0

    def __add__(self, other: "SoftConfusionMatrix") -> "SoftConfusionMatrix":
        return SoftConfusionMatrix(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
            tn=self.tn + other.tn,
        )

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
            "degenerate": self.degenerate,
        }

    def as_table(self) -> list[list[float]]:
        """[[label-no/pred-no, label-no/pred-yes], [label-yes/pred-no, label-yes/pred-yes]]"""
        return [[self.tn, self.fp], [self.fn, self.tp]]


def _require_aligned(a: LabelSeries, b: LabelSeries):
    if not a.aligned_with(b):
        raise InputError(
            f"series grids misaligned: [{a.window_start}, +{len(a)}) vs "
            f"[{b.window_start}, +{len(b)})"
        )


def boundary_slot_mask(series: LabelSeries, boundaries, halfwidth: int = 15) -> np.ndarray:
    """Slots whose start minute is within ±halfwidth of any boundary (union)."""
    starts = series.slot_starts()
    mask = np.zeros(len(series), dtype=bool)
    for b in boundaries:
        mask |= np.abs(starts - b) <= halfwidth
    return mask


def mse(reference: LabelSeries, prediction: LabelSeries, slots=None) -> float:
    """Mean squared difference over the selected slots (all by default)."""
    _require_aligned(reference, prediction)
    diff = reference.values - prediction.values
    if slots is not None:
        mask = np.asarray(slots, dtype=bool)
        if mask.shape != diff.shape:
            raise InputError("slot mask length does not match the series")
        if not mask.any():
            raise InputError("slot selection is empty")
        diff = diff[mask]
    return float(np.mean(diff * diff))


def boundary_mse(
    reference: LabelSeries,
    prediction: LabelSeries,
    events,
    halfwidth: int = 15,
) -> float:
    """MSE around true boundaries, one value per event, averaged uniformly.

    `events` is an iterable of (start, end) pairs (or objects with .start
    and .end); each event selects the union of slots within ±halfwidth of
    its own start and end.
    """
    events = list(events)
    if not events:
        raise InputError("boundary MSE needs at least one event")
    per_event = []
    for ev in events:
        start = getattr(ev, "start", None)
        end = getattr(ev, "end", None)
        if start is None:
            start, end = ev
        mask = boundary_slot_mask(reference, (start, end), halfwidth)
        per_event.append(mse(reference, prediction, slots=mask))
    return float(np.mean(per_event))


def soft_confusion(reference: LabelSeries, prediction: LabelSeries) -> SoftConfusionMatrix:
    """Slot-wise product confusion; entries sum to the slot count."""
    _require_aligned(reference, prediction)
    r = reference.values
    p = prediction.values
    return SoftConfusionMatrix(
        tp=float(np.sum(r * p)),
        fp=float(np.sum((1.0 - r) * p)),
        fn=float(np.sum(r * (1.0 - p))),
        tn=float(np.sum((1.0 - r) * (1.0 - p))),
    )


def precision(matrix: SoftConfusionMatrix) -> float:
    denom = matrix.tp + matrix.fp
    return matrix.tp / denom if denom > 0 else 0.0


def recall(matrix: SoftConfusionMatrix) -> float:
    denom = matrix.tp + matrix.fn
    return matrix.tp / denom if denom > 0 else 0.0


def f1(matrix: SoftConfusionMatrix) -> float:
    denom = 2 * matrix.tp + matrix.fp + matrix.fn
    return 2 * matrix.tp / denom if denom > 0 else 0.0


def metrics_report(matrix: SoftConfusionMatrix) -> dict:
    return {
        "confusion": matrix.to_dict(),
        "precision": precision(matrix),
        "recall": recall(matrix),
        "f1": f1(matrix),
        "degenerate": matrix.degenerate,
    }
