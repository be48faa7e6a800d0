"""Synthetic benchmarks: generate events, round them like an annotator would,
and score the resulting hard and soft labels against the known ground truth.

The traffic is fixed: one true event per day, 20 to 90 minutes long, kept
46 minutes from either midnight, so that the widest ramp (30 minutes) and
the ±15-minute boundary band fit inside its day. `generate_events` draws a
sweep point's true events and `annotate` rounds them.

Three experiments:

* MSE sweep: per annotation resolution, mean squared label error within
  ±15 minutes of the true boundaries, hard vs soft, for an unbiased annotator.
* F1 sweep: per resolution and bias, micro-averaged F1 of hard and soft
  labels against the true hard labels, all biases of a resolution annotating
  the same true events. When a bias was injected, the soft boundary ramps
  are re-centered by that known offset before sampling — the experiment
  knows the offset it applied, and the hard labels keep the raw biased
  annotations, which is exactly the contrast being measured.
* Category error rate: per true category, how often the per-annotation MAP
  category is wrong as the number of annotations grows.

Every experiment infers categories through the inference module rather than
reusing the resolution it simulated with, so the full pipeline is exercised.
Like the posteriors, each takes a `CategoryCatalog` and a `SwitchModel`,
defaulting to the default catalogue and `SwitchModel()`, and each checks
only the arguments it reads. Each sweep point draws from one generator:
`_rng(seed, 10, resolution)` for an MSE point, `_rng(seed, 20, resolution)`
for the true events of an F1 resolution, `_rng(seed, 30, period, n)` for an
error-rate point. So no point's draws depend on which other points are
swept, and rerunning any experiment with the same seed reproduces it bit
for bit.

The MSE and F1 sweeps score their points in batches of consecutive whole
points, up to `_BATCH_EVENTS` events a batch; a larger point is a batch of
its own. A batch makes one `boundary_periods` call, in which each point is
one annotator, and one window pass over all its events, and builds their
labels with `labels.label_grids`, the flat label grid that `soft-labels`
uses too, so a grid may hold the events of two points. This module only
chooses each event's window and bias-shifted ramp centers, and `labels`
halves the MAP periods. Each event is scored as one segment of that grid by
`evaluation.segment_boundary_mse` and `evaluation.segment_confusion`, where
the summation rule lives, and the scores are split back into their points,
so the tables are exactly those of scoring each point alone, event by
event. The F1 sweep's hard counts are the exception: integers, they come
from the true and annotated spans and the window lengths through
`evaluation.span_confusion`, so its grids hold the truth and soft labels
only.

The error-rate sweep runs the posterior core once per distinct class-count
row of a true category; its trials repeat rows often, and a row's bits do
not depend on the batch it is scored in.
"""

from __future__ import annotations

import itertools

import numpy as np

from .catalog import (
    DEFAULT_PERIODS,
    MINUTES_PER_DAY,
    MINUTES_PER_HOUR,
    CategoryCatalog,
    _is_integer,
)
from .errors import ConfigError
from .evaluation import (
    BOUNDARY_HALFWIDTH,
    SoftConfusionMatrix,
    f1,
    segment_boundary_mse,
    segment_confusion,
    span_confusion,
)
from .inference import (
    SwitchModel,
    _category_tables,
    _habit_probs,
    _minute_model,
    boundary_periods,
)
from .labels import _GRID_RECORDS, label_grids, padded_bounds

# The defaults of the experiments and of the `simulate` command alike.
DEFAULT_EVENTS = 200
DEFAULT_TRIALS = 300
DEFAULT_RESOLUTIONS = (1, 5, 10, 15, 30)
DEFAULT_BIASES = (0.0, 0.5)
DEFAULT_N_SWEEP = (1, 2, 5, 10, 20, 50, 100)


# The simulated traffic: one event a day, 20 to 90 minutes long, at least
# PLACEMENT_MARGIN minutes from midnight: room for the widest ramp (the
# coarsest default period), the ±BOUNDARY_HALFWIDTH-minute band the MSE
# sweep scores, and one slot. The margin also pads each event's label window.
DURATION_RANGE = (20, 90)
PLACEMENT_MARGIN = DEFAULT_PERIODS[0] + BOUNDARY_HALFWIDTH + 1


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def _check_sweep(seed: int, count: int, count_name: str, resolutions=()) -> None:
    """Reject a seed that is not a non-negative integer, a count that is not
    a positive integer, and a resolution that is not an integer dividing the
    hour, each before anything is drawn."""
    if not _is_integer(seed):
        raise ConfigError(f"seed must be an integer, got {seed}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if not _is_integer(count):
        raise ConfigError(f"{count_name} must be an integer, got {count}")
    if count < 1:
        raise ConfigError(f"{count_name} must be positive, got {count}")
    for res in resolutions:
        if not _is_integer(res):
            raise ConfigError(f"resolution must be an integer, got {res}")
        if res < 1 or MINUTES_PER_HOUR % res != 0:
            raise ConfigError(f"resolution must divide 60, got {res}")


def annotate(true_time, resolution: int, bias_minutes: float = 0.0):
    """The annotator's recalled time: offset by `bias_minutes`, then rounded
    to the nearest multiple of `resolution`, exact midpoints up. Arrays round
    element-wise to int64; a scalar gives an int."""
    out = np.floor(np.divide(np.add(true_time, bias_minutes), resolution) + 0.5)
    out = out.astype(np.int64) * resolution
    return int(out) if out.ndim == 0 else out


def generate_events(rng: np.random.Generator, n_events: int) -> np.ndarray:
    """Draw one true event per day from `rng`.

    Returns an (n_events, 2) int64 array of absolute start and end minutes.
    Event i falls on day i. All durations are drawn first, from
    DURATION_RANGE, then all starts, each so that its event keeps
    PLACEMENT_MARGIN minutes from either midnight.
    """
    dmin, dmax = DURATION_RANGE
    durations = rng.integers(dmin, dmax + 1, size=n_events)
    starts = rng.integers(PLACEMENT_MARGIN, MINUTES_PER_DAY - PLACEMENT_MARGIN - durations + 1)
    starts += MINUTES_PER_DAY * np.arange(n_events)
    return np.column_stack((starts, starts + durations))


# Events per batch of sweep points. A batch holds whole points, so a point of
# more events than this is a batch of its own. The bound keeps a batch's
# spans, windows and scores to a few label grids' worth however many points
# are swept: as one batch, the F1 sweep of 20,000-event points peaked at 75
# MiB RSS, against 42 MiB one point at a time.
_BATCH_EVENTS = 16 * _GRID_RECORDS


def _batches(points, n_events: int):
    """`points` in order, in lists of consecutive whole points, as many as
    fit in `_BATCH_EVENTS` events at `n_events` each, and at least one."""
    points = iter(points)
    size = max(1, _BATCH_EVENTS // n_events)
    while batch := list(itertools.islice(points, size)):
        yield batch


def _windows(batch, catalog: CategoryCatalog, model: SwitchModel):
    """Annotate the true events of a batch of sweep points, each a (truth,
    resolution, bias_fraction) triple of (N, 2) true spans, N the same for
    every point, the resolution and a bias of that fraction of it. Returns
    the batch's true and annotated spans, point after point, and the windows
    and soft ramps `labels.label_grids` takes: lo, hi, centers and periods.

    Each point is one annotator: the MAP periods of its annotations come
    from its own evidence, through one `boundary_periods` call for the batch.
    Event i's window is [min(true, annotated) start - pad, max(true,
    annotated) end + pad), pad being PLACEMENT_MARGIN, widened where needed
    to the whole minutes its soft ramps cover. Soft ramps are centered on
    the annotation minus the injected bias: the simulator knows the offset
    it added, and removing it restores the zero-mean rounding the soft
    label's uniform ramp is built to cover; the ramps' MAP periods go on as is.
    """
    truths, resolution, bias_fraction = zip(*batch)
    # (points, events, 2), each point's resolution and bias broadcast over
    # its events. A lone point, as every large one is, is not copied, and is
    # `boundary_periods`' default of one annotator, so it needs no owners
    if len(batch) == 1:
        truth, owners = truths[0][None], None
    else:
        truth, owners = np.stack(truths), np.repeat(np.arange(len(batch)), len(truths[0]))
    resolution = np.array(resolution)[:, None, None]
    bias_minutes = np.array(bias_fraction, dtype=float)[:, None, None] * resolution
    annotated = annotate(truth, resolution, bias_minutes)
    periods = boundary_periods(annotated.reshape(-1, 2), catalog, model, owners)
    centers = (annotated - bias_minutes).reshape(-1, 2)
    truth, annotated = truth.reshape(-1, 2), annotated.reshape(-1, 2)
    ramp_lo, ramp_hi = padded_bounds(*centers.T, *periods.T, 0)
    lo = np.minimum(np.minimum(truth[:, 0], annotated[:, 0]) - PLACEMENT_MARGIN, ramp_lo)
    hi = np.maximum(np.maximum(truth[:, 1], annotated[:, 1]) + PLACEMENT_MARGIN, ramp_hi)
    return truth, annotated, (lo, hi, centers, periods)


def run_mse_experiment(
    seed: int = 0,
    n_events: int = DEFAULT_EVENTS,
    resolutions=DEFAULT_RESOLUTIONS,
    catalog: CategoryCatalog = CategoryCatalog.default(),
    model: SwitchModel = SwitchModel(),
) -> list[dict]:
    """Boundary-window MSE of hard and soft labels vs truth, per resolution,
    for an unbiased annotator. Resolution r's events are drawn from
    `_rng(seed, 10, r)`."""
    _check_sweep(seed, n_events, "n_events", resolutions)
    points = ((generate_events(_rng(seed, 10, res), n_events), res, 0.0) for res in resolutions)
    rows = []
    for batch in _batches(points, n_events):
        truth, annotated, windows = _windows(batch, catalog, model)
        scores = []
        for grid in label_grids(*windows, (truth, annotated)):
            r, p = grid.hard  # truth, annotation
            differences = (r - p, r - grid.soft)
            scores.append(
                segment_boundary_mse(
                    grid.minutes, grid.offsets, truth[grid.records], differences, BOUNDARY_HALFWIDTH
                )
            )
        # (hard and soft, points, events)
        scores = np.concatenate(scores, axis=1).reshape(2, len(batch), n_events)
        rows += [
            {
                "resolution_minutes": res,
                "bias_fraction": 0.0,
                "n_events": n_events,
                "mse_hard": float(np.mean(hard_scores)),
                "mse_soft": float(np.mean(soft_scores)),
            }
            for (_, res, _), hard_scores, soft_scores in zip(batch, *scores)
        ]
    return rows


def run_f1_experiment(
    seed: int = 0,
    n_events: int = DEFAULT_EVENTS,
    resolutions=DEFAULT_RESOLUTIONS,
    bias_fractions=DEFAULT_BIASES,
    catalog: CategoryCatalog = CategoryCatalog.default(),
    model: SwitchModel = SwitchModel(),
) -> list[dict]:
    """Micro-averaged F1 of hard and soft labels vs truth, per resolution and bias.

    Resolution r's true events are drawn once, from `_rng(seed, 20, r)`, and
    annotated once per bias, so bias is the only thing that changes between
    those rows. Soft confusion counts are added event by event, in event
    order; hard ones are integers, whose sum is exact in any order.
    """
    _check_sweep(seed, n_events, "n_events", resolutions)
    for bias in bias_fractions:
        if not 0.0 <= bias < 1.0:
            raise ConfigError(f"bias fraction must be in [0, 1), got {bias}")
    points = (
        (truth, res, bias)
        for res in resolutions
        for truth in [generate_events(_rng(seed, 20, res), n_events)]
        for bias in bias_fractions
    )
    rows = []
    for batch in _batches(points, n_events):
        truth, annotated, windows = _windows(batch, catalog, model)
        lo, hi = windows[:2]
        # (cells, points, events) -> per point, its (4,) summed counts
        shape = (4, len(batch), n_events)
        hard = span_confusion(truth, annotated, hi - lo).reshape(shape).sum(axis=2).T.tolist()
        cells = np.hstack(
            [
                segment_confusion(grid.hard[0], grid.soft, grid.offsets)
                for grid in label_grids(*windows, (truth,))
            ]
        )
        # a running sum within each point, not a pairwise one: its counts add
        # up one event at a time
        soft = np.cumsum(cells.reshape(shape), axis=2)[:, :, -1].T.tolist()
        rows += [
            {
                "resolution_minutes": res,
                "bias_fraction": bias,
                "n_events": n_events,
                "f1_hard": f1(SoftConfusionMatrix(*point_hard)),
                "f1_soft": f1(SoftConfusionMatrix(*point_soft)),
            }
            for (_, res, bias), point_hard, point_soft in zip(batch, hard, soft)
        ]
    return rows


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D integer array, in lexicographic order, and
    the index of each row among them. One sort over the columns and a compare
    of neighbours, without packing a row into one integer that could overflow."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)  # the first of each run of equal rows
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def run_error_rate_experiment(
    seed: int = 0,
    n_values=DEFAULT_N_SWEEP,
    trials: int = DEFAULT_TRIALS,
    catalog: CategoryCatalog = CategoryCatalog.default(),
    model: SwitchModel = SwitchModel(),
) -> list[dict]:
    """MAP category error rate vs number of annotations, per catalogue category.

    Each trial draws annotation minutes uniformly from the true category's
    member set, runs the posterior, and counts per-annotation MAP mistakes.
    Every (period, n) point draws its trials from one generator,
    `_rng(seed, 30, period, n)`, trial t being row t of its (trials, n)
    draws, so a point's rows do not depend on what else is swept, and fewer
    trials draw the first rows of more. A trial is its counts per minute
    class, into which its draws are counted straight away, and every
    annotation in class k has the MAP category of class table row k. All
    trials of all points of one true category share one core call, made on
    their distinct rows only; its rows have the bits of one call per trial.
    """
    _check_sweep(seed, trials, "trials")
    if not all(map(_is_integer, n_values)):
        raise ConfigError(f"annotation counts must be integers, got {tuple(n_values)}")
    if any(n < 1 for n in n_values):
        raise ConfigError(f"annotation counts must be positive, got {tuple(n_values)}")
    minute_class = _minute_model(catalog, model)[0]
    n_classes = int(minute_class.max()) + 1
    first_slot = n_classes * np.arange(trials)[:, None]
    rows = []
    for index, true_cat in enumerate(catalog):
        period = true_cat.period_minutes
        member_class = minute_class[sorted(true_cat.members)]
        counts = []  # per sweep point, its trials' class counts, trial-major
        for n in n_values:
            draws = _rng(seed, 30, period, n).integers(0, len(member_class), size=(trials, n))
            slots = member_class[draws] + first_slot
            counts.append(np.bincount(slots.ravel(), minlength=trials * n_classes))
        counts = np.reshape(counts, (-1, n_classes))
        distinct, inverse = _distinct_rows(counts)
        _, map_index = _category_tables(_habit_probs(distinct, catalog, model), catalog, model)
        map_index = map_index[inverse]
        errors = (counts * (map_index != index)).reshape(len(n_values), -1).sum(axis=1)
        rows += [
            {
                "category_period": period,
                "n_annotations": n,
                "trials": trials,
                "error_rate": wrong / (trials * n),
            }
            for n, wrong in zip(n_values, errors.tolist())
        ]
    return rows
