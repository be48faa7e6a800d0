"""Exact Bayesian inference of annotation time resolutions.

Generative model, per annotator: a latent habit picks one catalogue category;
each annotation independently either keeps the habitual category (probability
1 - delta) or switches to one of the other categories (delta split evenly).
Given the category, the observed minute-of-hour is uniform over the
category's admissible minutes — so the likelihood of a minute is 1/|members|
when admissible and 0 otherwise.

The model sees an annotated minute only through its class: the set of
catalogue categories that admit it. The default catalogue has 5 classes, of
2, 2, 4, 4 and 48 minutes. Both posteriors are exact, and both depend on an
annotator's evidence only through its class counts, the (K,) sums of its
60-bin minute-of-hour histogram over each class:

* habit: the log joint `_habit_log_joint`, log(1/C) + sum_k counts[k] log E[k]
  for a uniform prior over the C habits, where E[k, h] = sum_c S[c, h] L[c, k]
  is the probability of a given minute of class k under habit h. Its logsumexp
  over habits is the log marginal; its softmax is the posterior, which
  never forms the normalizing constant, so long evidence sets cannot
  underflow.
* per-annotation category: a posterior row depends only on its minute's
  class, so the posterior is a (K, C) table whose row k is the Bayes
  inversion P(category | class k, habit) mixed over the habit posterior,
  plus a (K,) MAP index: the position of each row's MAP category. It is
  spread to a (60, C) table only where per-minute rows are reported
  (`CategoryPosterior`). Every per-annotation MAP answer
  (`CategoryPosterior.map_category`, `map_periods`, `boundary_periods`)
  reads that index.

The core works on a batch of class counts at once: `annotator_posteriors`
and `boundary_periods` make one call for all annotators of a diary, the
`simulate` MSE and F1 sweeps one per batch of sweep points, and its
error-rate sweep one per catalogue category. Both posteriors
check their rows with `catalog._is_distribution`, as `hmm` checks its
parameters. A row's bits do not depend on the batch it is computed in, on
the BLAS library or on NumPy's SIMD target. Every sum over classes,
categories and habits is a left fold of elementwise NumPy products and
sums, one term per class, category or habit in a fixed order, rather than a
matmul that BLAS sums in a kernel-dependent order or a reduction whose
order NumPy picks by shape. Each exp and log that reaches a result is
`math.exp` or `math.log`, not NumPy's SIMD loops, whose last bits vary with
the CPU. The MAP index is C - 1 running `>` compares, which keep
`np.argmax`'s first maximum. The NumPy reductions left are exact in any
order (a max, and integer or boolean sums such as the class counts), or
reach no output (`_is_distribution`'s check).

A MAP category is the first maximum in catalogue order, so exact ties go
to the coarsest category, consistent with the model's preference for coarse
explanations. Only the two posteriors answer it; there is no free
`map_category` of a bare row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

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


def _fold(terms):
    """The sum of `terms`, added one at a time in order: a left fold, so
    every element sees the same roundings whatever the array shapes."""
    return reduce(operator.add, terms)


@lru_cache(maxsize=None)
def _minute_model(catalog: CategoryCatalog, model: SwitchModel):
    """Per-class quantities both posteriors are built from.

    A minute's class is the set of categories that admit it; classes are
    numbered in order of their first minute, so class 0 holds minute 0,
    which every category admits. Returns four read-only arrays:

    * minute_class (60,): each minute's class;
    * log_evidence (K, H): log P(a given minute of class k | habit), and 0
      where that probability is 0, so that classes nobody annotated add
      exactly 0; taken from logs where it is below the smallest float;
    * impossible (K, H): True where P(a minute of class k | habit) is 0;
    * cond (H, K, C): P(category | class, habit), 0 where the class is
      impossible under the habit.
    """
    n = len(catalog)
    admits = [tuple(cat.contains(m) for cat in catalog) for m in range(MINUTES_PER_HOUR)]
    first = {}  # each class's set of admitting categories -> its first minute
    for minute, cats in enumerate(admits):
        first.setdefault(cats, minute)
    number = {cats: k for k, cats in enumerate(first)}
    # L[c, k] = P(a given minute of class k | category c), S[c, h] = P(category c | habit h)
    lik = np.array([[likelihood(cat, m) for m in first.values()] for cat in catalog])
    switch = np.array([[switch_prob(model, c, h, n) for h in catalog] for c in catalog])
    joint = switch.T[:, None, :] * lik.T[None, :, :]  # (H, K, C)
    evidence = _fold(joint[:, :, c] for c in range(n))  # (H, K)
    possible = evidence > 0.0
    log_evidence = [[math.log(e) if e > 0.0 else 0.0 for e in row] for row in evidence.T.tolist()]
    cond = np.divide(
        joint, evidence[:, :, None], out=np.zeros_like(joint), where=possible[:, :, None]
    )
    # a switch so unlikely that delta / (C - 1) / |members| rounds to 0 still
    # explains every class some category admits: there the log evidence is
    # log delta + log(sum_c L[c, k] / (C - 1)), the habit's own category
    # admitting no such class, and delta cancels from P(category | class)
    if 0.0 < model.delta < 1.0:
        admitted = lik.sum(axis=0)
        for h, k in zip(*np.nonzero(~possible & (admitted > 0.0))):
            log_evidence[k][h] = math.log(model.delta) + math.log(admitted[k] / (n - 1))
            cond[h, k] = lik[:, k] / admitted[k]
            possible[h, k] = True
    return (
        _frozen_array([number[cats] for cats in admits], dtype=np.intp),
        _frozen_array(log_evidence),
        _frozen_array(~possible.T, dtype=bool),
        _frozen_array(cond),
    )


def _class_counts(histograms, catalog: CategoryCatalog, model: SwitchModel) -> np.ndarray:
    """(B, 60) minute histograms -> (B, K) annotation counts per minute
    class, by an integer product, so exactly."""
    minute_class = _minute_model(catalog, model)[0]
    return np.asarray(histograms) @ (minute_class[:, None] == np.arange(minute_class.max() + 1))


def _habit_log_joint(
    counts: np.ndarray, catalog: CategoryCatalog, model: SwitchModel
) -> np.ndarray:
    """(B, K) class counts -> (B, H) log P(habit, annotated minutes) under a
    uniform prior over the habits, -inf where an annotated minute is
    impossible under the habit. Each row's logsumexp is that annotator's log
    marginal, the log evidence the model assigns to its minutes. The result
    is a view of an (H, B) array, so that each product runs over the batch."""
    _, log_evidence, impossible, _ = _minute_model(catalog, model)
    by_class = np.ascontiguousarray(np.asarray(counts).T)  # (K, B)
    terms = (row[:, None] * by_class[k] for k, row in enumerate(log_evidence))
    scores = math.log(1.0 / len(catalog)) + _fold(terms)
    scores[impossible.T @ (by_class > 0)] = -np.inf
    return scores.T


def _habit_probs(counts: np.ndarray, catalog: CategoryCatalog, model: SwitchModel) -> np.ndarray:
    """(B, K) class counts -> (B, H) habit posteriors, one row each: the row
    softmax of `_habit_log_joint`, a view of an (H, B) array. Some habit
    always has mass: period 1 admits every minute, and its own habit keeps
    it unless delta = 1, while every habit can switch to it when delta > 0."""
    counts = np.asarray(counts)
    if np.any(counts.sum(axis=1) == 0):
        raise InputError("cannot infer a habit from an empty annotation set")
    scores = _habit_log_joint(counts, catalog, model).T
    scores = scores - scores.max(axis=0)
    probs = np.fromiter(map(math.exp, scores.ravel().tolist()), float, scores.size)
    probs = probs.reshape(scores.shape)
    return (probs / _fold(probs)).T


def _category_tables(
    habit_probs: np.ndarray, catalog: CategoryCatalog, model: SwitchModel
) -> tuple[np.ndarray, np.ndarray]:
    """(B, H) habit posteriors -> (B, K, C) rows by class and (B, K) MAP
    index, views of (K, C, B) and (K, B) arrays.

    The MAP index is the first maximum of each row, which is the coarsest
    category among exact ties.
    """
    cond = _minute_model(catalog, model)[3]
    by_habit = np.ascontiguousarray(np.asarray(habit_probs).T)  # (H, B)
    table = _fold(plane[:, :, None] * by_habit[h] for h, plane in enumerate(cond))
    best, map_index = table[:, 0], np.zeros((table.shape[0], table.shape[2]), dtype=np.intp)
    for c in range(1, len(catalog)):
        better = table[:, c] > best
        best = np.where(better, table[:, c], best)
        map_index[better] = c
    return table.transpose(2, 0, 1), map_index.T


def _minute_tables(
    habit_probs: np.ndarray, catalog: CategoryCatalog, model: SwitchModel
) -> tuple[np.ndarray, np.ndarray]:
    """`_category_tables` spread to minutes: (B, 60, C) rows and (B, 60) MAP index."""
    minute_class = _minute_model(catalog, model)[0]
    table, map_index = _category_tables(habit_probs, catalog, model)
    return table[:, minute_class], map_index[:, minute_class]


def habit_posterior(
    annotations: AnnotationSet, catalog: CategoryCatalog, model: SwitchModel
) -> HabitPosterior:
    """Posterior over the annotator's habit given all annotated minutes."""
    counts = _class_counts(annotations.histogram()[None, :], catalog, model)
    return HabitPosterior(catalog=catalog, probs=_habit_probs(counts, catalog, model)[0])


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
    table, map_index = _minute_tables(habit.probs[None, :], catalog, model)
    return CategoryPosterior(
        catalog=catalog, minutes=annotations.minutes, table=table[0], map_index=map_index[0]
    )


def annotator_posteriors(
    evidence, catalog: CategoryCatalog, model: SwitchModel
) -> list[tuple[HabitPosterior, CategoryPosterior]]:
    """`habit_posterior` and `category_posterior` of each AnnotationSet in
    `evidence`, in order, from one core call on their stacked histograms.
    Each pair has the bits of its own two calls."""
    histograms = np.array([ann.histogram() for ann in evidence]).reshape(-1, MINUTES_PER_HOUR)
    habits = _habit_probs(_class_counts(histograms, catalog, model), catalog, model)
    tables, map_index = _minute_tables(habits, catalog, model)
    return [
        (HabitPosterior(catalog, probs), CategoryPosterior(catalog, ann.minutes, table, index))
        for ann, probs, table, index in zip(evidence, habits, tables, map_index)
    ]


def boundary_periods(
    stamps, catalog: CategoryCatalog, model: SwitchModel, annotators=None
) -> np.ndarray:
    """(events, 2) start and end minutes -> (events, 2) periods of their MAP
    categories. The events of one annotator are its evidence [start_0,
    end_0, start_1, end_1, ...]. `annotators`, an (events,) array of
    integers 0..A-1 each naming at least one event, says whose each event
    is; by default every event is one annotator's. All annotators share one
    core call, and each gets the periods of its own call."""
    minute_class = _minute_model(catalog, model)[0]
    n_classes = minute_class.max() + 1
    classes = minute_class[list(AnnotationSet.from_timestamps(np.ravel(stamps)).minutes)]
    owners = np.zeros(len(classes) // 2, dtype=np.intp) if annotators is None else annotators
    owners = np.repeat(owners, 2)
    size = n_classes * (owners.max(initial=0) + 1)
    counts = np.bincount(owners * n_classes + classes, minlength=size)
    habits = _habit_probs(counts.reshape(-1, n_classes), catalog, model)
    _, map_index = _category_tables(habits, catalog, model)
    return np.array(catalog.periods)[map_index[owners, classes]].reshape(-1, 2)
