"""Scoring of label series against each other.

Two families of metrics:

* squared error (MSE), either over the full window or restricted to slots
  near true event boundaries;
* a soft confusion matrix whose cells are slot-wise products of reference
  and prediction values, so fractional counts appear as soon as either side
  is strictly soft. On binary series it reduces exactly to the classical
  confusion matrix.

Both are summed once, here, per segment of a flat grid (windows laid end to
end by `labels._flat_grid`, window k owning slots offsets[k]:offsets[k + 1]):
`evaluate` scores a series as one segment per event or one in all, the
simulate sweeps one per simulated event. A segment is summed as one
C-contiguous row slice with `np.add.reduce`, NumPy's pairwise sum, exactly
as `np.sum` and `np.mean` sum a single series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .labels import LabelSeries, _flat_grid

_MASS_TOL = 1e-9
# minutes either side of a true boundary that a boundary MSE scores
BOUNDARY_HALFWIDTH = 15


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
    def degenerate(self) -> bool:
        """True when no positive mass exists anywhere, so F1 is undefined."""
        return (2 * self.tp + self.fp + self.fn) == 0.0

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
            "degenerate": self.degenerate,
        }


def _require_aligned(a: LabelSeries, b: LabelSeries):
    if not a.aligned_with(b):
        raise InputError(
            f"series grids misaligned: [{a.window_start}, +{len(a)}) vs "
            f"[{b.window_start}, +{len(b)})"
        )


def _near(minutes, boundary, halfwidth) -> np.ndarray:
    """Slots whose start minute is within ±halfwidth of `boundary`."""
    return np.abs(minutes - boundary) <= halfwidth


def _segment_sums(rows: np.ndarray, offsets) -> np.ndarray:
    """(R, K) sums of each of the R rows over each of the K segments."""
    offsets = np.asarray(offsets).tolist()
    # rows C-contiguous (both callers stack them), so that reducing a slice
    # along axis 1 runs the pairwise sum np.sum runs over one series
    sums = [np.add.reduce(rows[:, a:b], axis=1) for a, b in zip(offsets[:-1], offsets[1:])]
    return np.stack(sums, axis=1)


def boundary_slot_mask(
    series: LabelSeries, boundaries, halfwidth: int = BOUNDARY_HALFWIDTH
) -> np.ndarray:
    """Slots whose start minute is within ±halfwidth of any boundary (union)."""
    starts = np.arange(series.window_start, series.window_start + len(series))
    mask = np.zeros(len(series), dtype=bool)
    for b in boundaries:
        mask |= _near(starts, b, halfwidth)
    return mask


def mse(reference: LabelSeries, prediction: LabelSeries) -> float:
    """Mean squared difference over all slots."""
    _require_aligned(reference, prediction)
    diff = reference.values - prediction.values
    return float(np.mean(diff * diff))


def segment_boundary_mse(minutes, offsets, events, differences, halfwidth) -> np.ndarray:
    """(len(differences), K) MSE of each difference array over each segment's
    slots whose start minute (in `minutes`) is within ±halfwidth of the
    start or end of that segment's (start, end) pair in `events`."""
    starts, ends = np.repeat(events, np.diff(offsets), axis=0).T
    near = _near(minutes, starts, halfwidth) | _near(minutes, ends, halfwidth)
    selected = np.searchsorted(np.flatnonzero(near), offsets)  # near slots before each segment
    counts = np.diff(selected)
    if not np.all(counts):
        raise InputError("slot selection is empty")
    squares = np.stack([(d * d)[near] for d in differences])
    return _segment_sums(squares, selected) / counts


def boundary_mse(
    reference: LabelSeries,
    prediction: LabelSeries,
    events,
    halfwidth: int = BOUNDARY_HALFWIDTH,
) -> float:
    """MSE around true boundaries, one value per event, averaged uniformly.

    `events` is a sequence of whole-minute (start, end) pairs; each event
    selects the union of slots within ±halfwidth of its own start and end,
    scored as one segment: its window [min - halfwidth, max + halfwidth]
    clipped to the series.
    """
    if not len(events):
        raise InputError("boundary MSE needs at least one event")
    _require_aligned(reference, prediction)
    n = len(reference)
    bounds = np.asarray(events) - reference.window_start
    # past the series length plus the farthest boundary a reach selects every
    # slot, and below 0 none: capping keeps the window arithmetic in int64
    reach = max(-1, min(halfwidth, n + int(np.abs(bounds).max())))
    lo = np.clip(bounds.min(axis=1) - reach, 0, n)
    offsets, slots = _flat_grid(lo, np.clip(bounds.max(axis=1) + reach + 1, lo, n))
    diff = reference.values[slots] - prediction.values[slots]
    per_event = segment_boundary_mse(slots, offsets, bounds, (diff,), reach)
    return float(np.mean(per_event[0]))


def segment_confusion(reference, prediction, offsets) -> np.ndarray:
    """Per segment of two flat value arrays, the slot-wise product confusion
    counts: a (4, K) array of tp, fp, fn and tn."""
    r, p = reference, prediction
    cells = np.stack([r * p, (1.0 - r) * p, r * (1.0 - p), (1.0 - r) * (1.0 - p)])
    return _segment_sums(cells, offsets)


def soft_confusion(reference: LabelSeries, prediction: LabelSeries) -> SoftConfusionMatrix:
    """Slot-wise product confusion; entries sum to the slot count."""
    _require_aligned(reference, prediction)
    cells = segment_confusion(reference.values, prediction.values, [0, len(reference)])
    return SoftConfusionMatrix(*cells[:, 0].tolist())


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
