"""Synthetic benchmarks: generate events, round them like an annotator would,
and score the resulting hard and soft labels against the known ground truth.

Three experiments:

* MSE sweep: per annotation resolution, mean squared label error within
  ±15 minutes of the true boundaries, hard vs soft.
* F1 sweep: per resolution and bias, micro-averaged F1 of hard and soft
  labels against the true hard labels. When a bias was injected, the soft
  boundary ramps are re-centered by that known offset before sampling — the
  experiment knows the offset it applied, and the hard labels keep the raw
  biased annotations, which is exactly the contrast being measured.
* Category error rate: per true category, how often the per-annotation MAP
  category is wrong as the number of annotations grows.

Every experiment infers categories through the inference module rather than
reusing the resolution it simulated with, so the full pipeline is exercised.
All randomness flows from per-run derived seeds (never a shared stream), so
rerunning any experiment with the same seed reproduces it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .catalog import CategoryCatalog
from .errors import ConfigError
from .evaluation import SoftConfusionMatrix, boundary_slot_mask, f1, mse, soft_confusion
from .inference import (
    MINUTES_PER_HOUR,
    AnnotationSet,
    SwitchModel,
    _category_tables,
    _habit_probs,
    category_posterior,
    habit_posterior,
)
from .labels import BoundaryDistribution, TimeWindow, hard_series, soft_series

MINUTES_PER_DAY = 1440

DEFAULT_RESOLUTIONS = (1, 5, 10, 15, 30)
DEFAULT_N_SWEEP = (1, 2, 5, 10, 20, 50, 100)


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    n_events: int = 500
    day_window: tuple[int, int] = (0, MINUTES_PER_DAY)
    duration_range: tuple[int, int] = (20, 90)
    resolution_minutes: int = 30
    bias_fraction: float = 0.0
    events_per_day: int = 1
    delta: float = 0.1
    boundary_halfwidth: int = 15

    def __post_init__(self):
        w0, w1 = self.day_window
        if not 0 <= w0 < w1 <= MINUTES_PER_DAY:
            raise ConfigError(f"day window must lie within one day, got {self.day_window}")
        dmin, dmax = self.duration_range
        if not 1 <= dmin <= dmax:
            raise ConfigError(f"bad duration range {self.duration_range}")
        if self.n_events < 1 or self.events_per_day < 1:
            raise ConfigError("n_events and events_per_day must be positive")
        if not 0.0 <= self.bias_fraction < 1.0:
            raise ConfigError(f"bias fraction must be in [0, 1), got {self.bias_fraction}")
        if self.resolution_minutes < 1 or 60 % self.resolution_minutes != 0:
            raise ConfigError(f"resolution must divide 60, got {self.resolution_minutes}")

    @property
    def bias_minutes(self) -> float:
        return self.bias_fraction * self.resolution_minutes


@dataclass(frozen=True)
class SimRecord:
    """One simulated event and its rounded (possibly biased) annotation."""

    true_start: int
    true_end: int
    annotated_start: int
    annotated_end: int
    resolution_minutes: int
    bias_minutes: float


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def round_to_resolution(t: float, resolution: int) -> int:
    """Nearest multiple of `resolution`; exact midpoints round up."""
    return int(math.floor(t / resolution + 0.5)) * resolution


def annotate(true_time: int, resolution: int, bias_minutes: float = 0.0) -> int:
    """Apply the offset first, then round — the annotator's recalled time."""
    return round_to_resolution(true_time + bias_minutes, resolution)


def _placement_margin(config: SimConfig) -> int:
    # room for the widest ramp plus the boundary evaluation band
    return 30 + config.boundary_halfwidth + 1


def generate_events(config: SimConfig) -> list[SimRecord]:
    """Draw non-overlapping true events and their rounded annotations.

    Events fill successive days, `events_per_day` per day, each kept far
    enough from the window edges that label ramps and boundary bands fit.
    """
    rng = _rng(config.seed, 1)
    w0, w1 = config.day_window
    dmin, dmax = config.duration_range
    margin = _placement_margin(config)
    if (w1 - w0) < config.events_per_day * (dmax + 2 * margin):
        raise ConfigError(
            f"day window of {w1 - w0} minutes cannot hold {config.events_per_day} "
            f"events of up to {dmax} minutes with {margin}-minute margins"
        )
    records: list[SimRecord] = []
    day = 0
    while len(records) < config.n_events:
        placed: list[tuple[int, int]] = []
        base = day * MINUTES_PER_DAY
        target = min(config.events_per_day, config.n_events - len(records))
        attempts = 0
        while len(placed) < target:
            if attempts > 200 * config.events_per_day:
                raise ConfigError("could not place events without overlap; widen the day window")
            attempts += 1
            dur = int(rng.integers(dmin, dmax + 1))
            start = int(rng.integers(w0 + margin, w1 - margin - dur + 1))
            if any(start < e and start + dur > s for s, e in placed):
                continue
            placed.append((start, start + dur))
        for start, end in sorted(placed):
            records.append(
                SimRecord(
                    true_start=base + start,
                    true_end=base + end,
                    annotated_start=annotate(
                        base + start, config.resolution_minutes, config.bias_minutes
                    ),
                    annotated_end=annotate(
                        base + end, config.resolution_minutes, config.bias_minutes
                    ),
                    resolution_minutes=config.resolution_minutes,
                    bias_minutes=config.bias_minutes,
                )
            )
        day += 1
    return records


def _infer_boundary_categories(records, catalog, model):
    """MAP category per annotated boundary, via the full inference pipeline.

    Evidence order is [start_0, end_0, start_1, end_1, ...], so record i's
    boundaries map to rows 2i and 2i+1.
    """
    stamps: list[int] = []
    for rec in records:
        stamps.append(rec.annotated_start)
        stamps.append(rec.annotated_end)
    evidence = AnnotationSet.from_timestamps("simulated", stamps)
    habit = habit_posterior(evidence, catalog, model)
    rows = category_posterior(evidence, catalog, model, habit=habit)
    cats = rows.map_categories()
    return [(cats[2 * i], cats[2 * i + 1]) for i in range(len(records))], habit


def _event_window(rec: SimRecord, config: SimConfig) -> TimeWindow:
    pad = _placement_margin(config)
    lo = min(rec.true_start, rec.annotated_start) - pad
    hi = max(rec.true_end, rec.annotated_end) + pad
    return TimeWindow(lo, hi)


def _event_series(rec: SimRecord, cat_s, cat_e, config: SimConfig):
    """Truth, hard and soft series for one record on its own grid.

    Soft ramps are centered on the annotation minus the injected bias: the
    simulator knows the offset it added, and removing it restores the
    zero-mean rounding the soft label's uniform ramp is built to cover.
    """
    window = _event_window(rec, config)
    truth = hard_series(rec.true_start, rec.true_end, window)
    hard = hard_series(rec.annotated_start, rec.annotated_end, window)
    soft = soft_series(
        BoundaryDistribution(
            center=rec.annotated_start - rec.bias_minutes,
            half_width=cat_s.period_minutes / 2.0,
        ),
        BoundaryDistribution(
            center=rec.annotated_end - rec.bias_minutes,
            half_width=cat_e.period_minutes / 2.0,
        ),
        window,
    )
    return truth, hard, soft


def run_mse_experiment(
    base: SimConfig,
    resolutions=DEFAULT_RESOLUTIONS,
    catalog: CategoryCatalog | None = None,
) -> list[dict]:
    """Boundary-window MSE of hard and soft labels vs truth, per resolution."""
    catalog = catalog or CategoryCatalog.default()
    model = SwitchModel(delta=base.delta)
    rows = []
    for res in resolutions:
        config = replace(base, resolution_minutes=res, seed=_derived_seed(base.seed, 10, res))
        records = generate_events(config)
        cats, _ = _infer_boundary_categories(records, catalog, model)
        hard_scores = []
        soft_scores = []
        for rec, (cat_s, cat_e) in zip(records, cats):
            truth, hard, soft = _event_series(rec, cat_s, cat_e, config)
            mask = boundary_slot_mask(
                truth, (rec.true_start, rec.true_end), config.boundary_halfwidth
            )
            hard_scores.append(mse(truth, hard, slots=mask))
            soft_scores.append(mse(truth, soft, slots=mask))
        rows.append(
            {
                "resolution_minutes": res,
                "bias_fraction": config.bias_fraction,
                "n_events": len(records),
                "mse_hard": float(np.mean(hard_scores)),
                "mse_soft": float(np.mean(soft_scores)),
            }
        )
    return rows


def run_f1_experiment(
    base: SimConfig,
    resolutions=DEFAULT_RESOLUTIONS,
    bias_fractions=(0.0, 0.5),
    catalog: CategoryCatalog | None = None,
) -> list[dict]:
    """Micro-averaged F1 of hard and soft labels vs truth, per resolution and bias.

    The same true events are reused across bias settings of one resolution,
    so bias is the only thing that changes between those rows.
    """
    catalog = catalog or CategoryCatalog.default()
    model = SwitchModel(delta=base.delta)
    rows = []
    for res in resolutions:
        for bias in bias_fractions:
            config = replace(
                base,
                resolution_minutes=res,
                bias_fraction=bias,
                seed=_derived_seed(base.seed, 20, res),
            )
            records = generate_events(config)
            cats, _ = _infer_boundary_categories(records, catalog, model)
            total_hard = SoftConfusionMatrix(0.0, 0.0, 0.0, 0.0)
            total_soft = SoftConfusionMatrix(0.0, 0.0, 0.0, 0.0)
            for rec, (cat_s, cat_e) in zip(records, cats):
                truth, hard, soft = _event_series(rec, cat_s, cat_e, config)
                total_hard = total_hard + soft_confusion(truth, hard)
                total_soft = total_soft + soft_confusion(truth, soft)
            rows.append(
                {
                    "resolution_minutes": res,
                    "bias_fraction": bias,
                    "n_events": len(records),
                    "f1_hard": f1(total_hard),
                    "f1_soft": f1(total_soft),
                }
            )
    return rows


def run_error_rate_experiment(
    seed: int = 0,
    n_values=DEFAULT_N_SWEEP,
    trials: int = 1000,
    delta: float = 0.1,
    catalog: CategoryCatalog | None = None,
    periods=None,
) -> list[dict]:
    """MAP category error rate vs number of annotations, per true category.

    Each trial draws annotation minutes uniformly from the true category's
    member set, runs the posterior, and counts per-annotation MAP mistakes.
    Trials use independently derived seeds, so order never matters. The
    trials of one (period, n) point share one batched posterior call: a
    trial is its minute histogram, and every annotation at minute m has the
    MAP category of table row m.
    """
    catalog = catalog or CategoryCatalog.default()
    model = SwitchModel(delta=delta)
    periods = tuple(periods) if periods is not None else catalog.periods
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    rows = []
    for period in periods:
        true_cat = catalog.by_period(period)
        members = np.array(sorted(true_cat.members))
        for n in n_values:
            counts = np.zeros((trials, MINUTES_PER_HOUR), dtype=np.int64)
            for trial in range(trials):
                rng = _rng(seed, 30, period, n, trial)
                minutes = members[rng.integers(0, len(members), size=n)]
                counts[trial] = np.bincount(minutes, minlength=MINUTES_PER_HOUR)
            habit = _habit_probs(counts, catalog, model)
            _, map_index = _category_tables(habit, catalog, model)
            wrong = map_index != true_cat.index - 1
            errors = int((counts * wrong).sum())
            rows.append(
                {
                    "category_period": period,
                    "n_annotations": n,
                    "trials": trials,
                    "error_rate": errors / (trials * n),
                }
            )
    return rows


def _derived_seed(base_seed: int, experiment_tag: int, *tags: int) -> int:
    """Stable 63-bit seed for one run, independent of sweep order."""
    ss = np.random.SeedSequence([int(base_seed), int(experiment_tag), *map(int, tags)])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)
