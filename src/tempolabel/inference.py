"""Exact Bayesian inference of annotation time resolutions.

Generative model, per annotator: a latent habit picks one catalogue category;
each annotation independently either keeps the habitual category (probability
1 - delta) or switches to one of the other categories (delta split evenly).
Given the category, the observed minute-of-hour is uniform over the
category's admissible minutes — so the likelihood of a minute is 1/|members|
when admissible and 0 otherwise.

Both posteriors are exact, and both depend on an annotator's evidence only
through its 60-bin minute-of-hour histogram:

* habit: log(1/C) + counts @ log E, a uniform prior over the C habits, where
  E[h, m] = sum_c S[c, h] L[c, m] is the probability of minute m under
  habit h; a final softmax over habits replaces the normalizing constant,
  so long evidence sets cannot underflow.
* per-annotation category: a posterior row depends only on its minute, so
  the posterior is a (60, C) table whose row m is the Bayes inversion
  P(category | m, habit) mixed over the habit posterior, plus a (60,) MAP
  index: the position of each row's MAP category. Every per-annotation MAP
  answer (`CategoryPosterior.map_category`, `map_periods`,
  `boundary_periods`) reads that index.

The core works on a batch of histograms at once, so many annotators or
simulated trials share one call. Both posteriors check their rows with
`catalog._is_distribution`, as `hmm` checks its parameters.

A MAP category is the first maximum in catalogue order, so exact ties go
to the coarsest category, consistent with the model's preference for coarse
explanations. Only the two posteriors answer it; there is no free
`map_category` of a bare row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .catalog import (
    MINUTES_PER_HOUR,
    CategoryCatalog,
    ResolutionCategory,
    _check_minute,
    _frozen_array,
    _is_distribution,
    _is_integer,
)
from .errors import ConfigError, InputError


def _integers(values, what: str) -> np.ndarray:
    """`values` as a 1-d array, checked as a whole to hold only Python or
    NumPy integers (no bools); otherwise InputError names the first entry
    that is not one."""
    if isinstance(values, np.ndarray):
        typed = values.dtype.kind in "iu" and values.ndim == 1
    else:
        values = list(values)
        kinds = set(map(type, values))
        typed = all(issubclass(t, (int, np.integer)) and t is not bool for t in kinds)
    if typed:
        return np.asarray(values)
    bad = next((v for v in values if not _is_integer(v)), values)
    raise InputError(f"{what} must be an integer, got {bad!r}")


@dataclass(frozen=True)
class AnnotationSet:
    """One annotator's evidence: the minute-of-hour of every annotated time.

    Both the start and the end timestamp of every event contribute one entry
    each; entry order is preserved so downstream consumers can map rows back
    to event boundaries.
    """

    minutes: tuple[int, ...]

    def __post_init__(self):
        minutes = _integers(self.minutes, "minute")
        if not np.all((minutes >= 0) & (minutes <= 59)):
            for m in minutes.tolist():  # raises at the first minute out of range
                _check_minute(m)
        object.__setattr__(self, "minutes", tuple(minutes.astype(np.int64).tolist()))

    @classmethod
    def from_timestamps(cls, timestamps_minutes) -> "AnnotationSet":
        """Build from absolute minute timestamps; the hour is ignored."""
        stamps = _integers(timestamps_minutes, "timestamp")
        return cls((stamps % MINUTES_PER_HOUR).astype(np.int64))

    def __len__(self) -> int:
        return len(self.minutes)

    def histogram(self) -> np.ndarray:
        """Annotation count per minute-of-hour, shape (60,)."""
        return np.bincount(
            np.asarray(self.minutes, dtype=np.intp), minlength=MINUTES_PER_HOUR
        )


@dataclass(frozen=True)
class SwitchModel:
    """Probability of departing from the habitual category per annotation."""

    delta: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigError(f"delta must be in [0, 1], got {self.delta}")


@dataclass(frozen=True)
class HabitPosterior:
    """Posterior over the annotator's habitual category."""

    catalog: CategoryCatalog
    probs: np.ndarray

    def __post_init__(self):
        probs = _frozen_array(self.probs)
        if probs.shape != (len(self.catalog),):
            raise InputError(
                f"expected {len(self.catalog)} probabilities, got shape {probs.shape}"
            )
        if not _is_distribution(probs):
            raise InputError("habit posterior must be a probability vector")
        object.__setattr__(self, "probs", probs)

    def map_category(self) -> ResolutionCategory:
        # argmax returns the first maximum; the catalogue is ordered coarsest first
        return self.catalog[int(np.argmax(self.probs))]

    def to_dict(self) -> dict:
        return {
            "periods": list(self.catalog.periods),
            "probs": [float(p) for p in self.probs],
            "map_period": self.map_category().period_minutes,
        }


@dataclass(frozen=True)
class CategoryPosterior:
    """Per-annotation posterior rows over categories.

    `table` holds one row per minute-of-hour, shape (60, n_categories); an
    annotation's row is the table row of its minute. `map_index` holds, per
    minute, the catalogue position of that row's MAP category. Only rows of
    annotated minutes are checked to be distributions: a minute the habit
    posterior rules out has an all-zero row.
    """

    catalog: CategoryCatalog
    minutes: tuple[int, ...]
    table: np.ndarray
    map_index: np.ndarray

    def __post_init__(self):
        table = _frozen_array(self.table)
        map_index = _frozen_array(self.map_index, dtype=np.intp)
        if table.shape != (MINUTES_PER_HOUR, len(self.catalog)):
            raise InputError(
                f"table shape {table.shape} does not match "
                f"{MINUTES_PER_HOUR} minutes x {len(self.catalog)} categories"
            )
        if map_index.shape != (MINUTES_PER_HOUR,):
            raise InputError(f"MAP index shape {map_index.shape} is not ({MINUTES_PER_HOUR},)")
        if not _is_distribution(table[sorted(set(self.minutes))]):
            raise InputError("every category posterior row must sum to 1")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "map_index", map_index)

    def __len__(self) -> int:
        return len(self.minutes)

    def map_category(self, i: int) -> ResolutionCategory:
        """The MAP category of annotation i."""
        return self.catalog[int(self.map_index[self.minutes[i]])]

    def map_periods(self) -> np.ndarray:
        """(n_annotations,) periods of the MAP categories, in annotation order."""
        periods = np.array(self.catalog.periods)
        return periods[self.map_index[list(self.minutes)]]

    def to_dict(self) -> dict:
        probs = self.table.tolist()
        return {
            "periods": list(self.catalog.periods),
            "annotations": [
                {
                    "index": i,
                    "minute": m,
                    "map_period": period,
                    "probs": list(probs[m]),
                }
                for i, (m, period) in enumerate(zip(self.minutes, self.map_periods().tolist()))
            ],
        }


def likelihood(category: ResolutionCategory, minute: int) -> float:
    """P(observed minute | category): uniform over members, zero outside."""
    if category.contains(minute):
        return 1.0 / category.size
    return 0.0


def switch_prob(
    model: SwitchModel,
    category: ResolutionCategory,
    habit: ResolutionCategory,
    n_categories: int,
) -> float:
    """P(annotation category | habit) under the switch model.

    A single-category catalogue leaves nowhere to switch to, so only the
    no-switch model (delta = 0) is defined on it.
    """
    if n_categories == 1 and (model.delta > 0 or category != habit):
        raise ConfigError("switch probability undefined for a single-category catalogue")
    if category == habit:
        return 1.0 - model.delta
    return model.delta / (n_categories - 1)


@lru_cache(maxsize=None)
def _minute_model(catalog: CategoryCatalog, model: SwitchModel):
    """Per-minute quantities both posteriors are built from.

    Returns three read-only arrays:

    * log_evidence (60, H): log P(minute | habit), and 0 where that
      probability is 0, so that unannotated minutes add exactly 0;
    * impossible (60, H): True where P(minute | habit) is 0;
    * cond (H, 60 * C): P(category | minute, habit), minute-major, 0 where
      the minute is impossible under the habit.
    """
    n = len(catalog)
    # L[c, m] = P(minute m | category c), S[c, h] = P(category c | habit h)
    lik = np.array([[likelihood(cat, m) for m in range(MINUTES_PER_HOUR)] for cat in catalog])
    switch = np.array([[switch_prob(model, c, h, n) for h in catalog] for c in catalog])
    evidence = switch.T @ lik  # (H, 60)
    possible = evidence > 0.0
    log_evidence = np.log(evidence, out=np.zeros_like(evidence), where=possible)
    joint = switch.T[:, None, :] * lik.T[None, :, :]  # (H, 60, C)
    cond = np.divide(
        joint, evidence[:, :, None], out=np.zeros_like(joint), where=possible[:, :, None]
    )
    return (
        _frozen_array(log_evidence.T),
        _frozen_array(~possible.T, dtype=bool),
        _frozen_array(cond.reshape(n, -1)),
    )


def _habit_probs(counts: np.ndarray, catalog: CategoryCatalog, model: SwitchModel) -> np.ndarray:
    """(B, 60) minute histograms -> (B, H) habit posteriors, one row each,
    under a uniform prior over the habits. Some habit always has mass: period
    1 admits every minute, and its own habit keeps it unless delta = 1, while
    every habit can switch to it when delta > 0."""
    counts = np.asarray(counts)
    if np.any(counts.sum(axis=1) == 0):
        raise InputError("cannot infer a habit from an empty annotation set")
    log_evidence, impossible, _ = _minute_model(catalog, model)
    scores = np.log(np.full(len(catalog), 1.0 / len(catalog))) + counts @ log_evidence
    scores[(counts > 0) @ impossible] = -np.inf
    scores -= scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _category_tables(
    habit_probs: np.ndarray, catalog: CategoryCatalog, model: SwitchModel
) -> tuple[np.ndarray, np.ndarray]:
    """(B, H) habit posteriors -> (B, 60, C) rows by minute and (B, 60) MAP index.

    The MAP index is the first maximum of each row, which is the coarsest
    category among exact ties.
    """
    _, _, cond = _minute_model(catalog, model)
    table = (habit_probs @ cond).reshape(len(habit_probs), MINUTES_PER_HOUR, len(catalog))
    return table, np.argmax(table, axis=2)


def habit_posterior(
    annotations: AnnotationSet, catalog: CategoryCatalog, model: SwitchModel
) -> HabitPosterior:
    """Posterior over the annotator's habit given all annotated minutes."""
    probs = _habit_probs(annotations.histogram()[None, :], catalog, model)
    return HabitPosterior(catalog=catalog, probs=probs[0])


def category_posterior(
    annotations: AnnotationSet,
    catalog: CategoryCatalog,
    model: SwitchModel,
    habit: HabitPosterior | None = None,
) -> CategoryPosterior:
    """Per-annotation category posteriors, mixing over the habit posterior.

    Row i, entry c is the Bayes-inverted probability that annotation i used
    category c, averaged over habits weighted by the habit posterior.
    Categories whose member set excludes the annotated minute get exactly 0.
    """
    if habit is None:
        habit = habit_posterior(annotations, catalog, model)
    table, map_index = _category_tables(habit.probs[None, :], catalog, model)
    return CategoryPosterior(
        catalog=catalog, minutes=annotations.minutes, table=table[0], map_index=map_index[0]
    )


def boundary_periods(stamps, catalog: CategoryCatalog, model: SwitchModel) -> np.ndarray:
    """(events, 2) start and end minutes -> (events, 2) periods of their MAP
    categories, inferred from the events as one annotator's evidence
    [start_0, end_0, start_1, end_1, ...]."""
    evidence = AnnotationSet.from_timestamps(np.ravel(stamps))
    habit = habit_posterior(evidence, catalog, model)
    return category_posterior(evidence, catalog, model, habit=habit).map_periods().reshape(-1, 2)
