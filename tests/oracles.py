"""Independent reference implementations the tests check the library against.

Nothing here shares code with the package's fast paths: joint probabilities
and posteriors come from exhaustive enumeration of the model, boundary
probabilities from midpoint quadrature of the uniform density, state paths
from trying every possible path or from one NumPy max-plus step per slot,
state posteriors from every path or from Rabiner's scaled recursion, label CSV
bytes from formatting row by row, the `infer-habit` report from `to_dict` and
json's indent encoder, masked MSE from boolean indexing, the MSE and F1 sweeps
from one label series per simulated record, and the error-rate sweep from one
NumPy draw and one category posterior per trial.
"""

import csv
import itertools
import json
import math
from datetime import date, timedelta
from typing import NamedTuple

import numpy as np

from tempolabel.catalog import CategoryCatalog
from tempolabel.errors import DegenerateModelError, InputError
from tempolabel.evaluation import BOUNDARY_HALFWIDTH, SoftConfusionMatrix, boundary_slot_mask, f1
from tempolabel.inference import (
    AnnotationSet,
    SwitchModel,
    category_posterior,
    habit_posterior,
)
from tempolabel.labels import BoundaryDistribution, TimeWindow, hard_series, soft_series
from tempolabel.simulate import (
    DEFAULT_EVENTS,
    DEFAULT_N_SWEEP,
    DEFAULT_RESOLUTIONS,
    DEFAULT_TRIALS,
    PLACEMENT_MARGIN,
    _rng,
    annotate,
    generate_events,
)


def enumerate_posteriors(minutes, periods=(30, 15, 10, 5, 1), delta=0.1):
    """Exact habit and per-annotation category posteriors by brute force:
    `enumerate_joint`'s sums, each divided by their total."""
    habit, rows = enumerate_joint(minutes, periods, delta)
    total = habit.sum()
    if total == 0:
        raise ZeroDivisionError("no assignment explains the annotations")
    return habit / total, rows / total


def enumerate_joint(minutes, periods=(30, 15, 10, 5, 1), delta=0.1):
    """P(habit, minutes) for each habit, (H,), and P(annotation i used
    category c, minutes), (n, C), by brute force; the first sums to the
    marginal probability of the minutes.

    Sums the joint probability over every (habit, category-assignment)
    combination; feasible for a handful of annotations only.
    """
    members = [set(range(0, 60, p)) for p in periods]
    n_cat = len(periods)
    n = len(minutes)

    def lik(c, d):
        return 1.0 / len(members[c]) if d in members[c] else 0.0

    def switch(c, h):
        return (1.0 - delta) if c == h else delta / (n_cat - 1)

    habit = np.zeros(n_cat)
    rows = np.zeros((n, n_cat))
    for h in range(n_cat):
        for assign in itertools.product(range(n_cat), repeat=n):
            p = 1.0 / n_cat
            for i, c in enumerate(assign):
                p *= switch(c, h) * lik(c, minutes[i])
            habit[h] += p
            for i, c in enumerate(assign):
                rows[i, c] += p
    return habit, rows


def quadrature_started_prob(center, half_width, t, n_steps=200_000):
    """P(true boundary <= t) by midpoint Riemann sum over the uniform density."""
    lo = center - half_width
    width = 2.0 * half_width
    step = width / n_steps
    xs = lo + (np.arange(n_steps) + 0.5) * step
    return float(np.sum(xs <= t) * step / width)


def exhaustive_state_path(initial, transition, means, variances, values):
    """Best binary state path by scoring all 2^T candidates (vectorized)."""
    t_max = len(values)
    paths = np.array(
        list(itertools.product((0, 1), repeat=t_max)), dtype=int
    )  # (2^T, T)
    with np.errstate(divide="ignore"):
        log_init = np.log(np.asarray(initial, dtype=float))
        log_trans = np.log(np.asarray(transition, dtype=float))
    logb = np.stack(
        [
            -0.5 * ((values - means[s]) ** 2 / variances[s] + math.log(2 * math.pi * variances[s]))
            for s in (0, 1)
        ],
        axis=1,
    )  # (T, 2)
    scores = log_init[paths[:, 0]] + logb[0, paths[:, 0]]
    for t in range(1, t_max):
        scores = scores + log_trans[paths[:, t - 1], paths[:, t]] + logb[t, paths[:, t]]
    # ties resolve to the lowest path index, i.e. the path with the most
    # leading zeros -- the same off-preference the decoder promises
    return paths[int(np.argmax(scores))]


def stepwise_viterbi(log_init, log_trans, logb):
    """Viterbi decoding with one NumPy broadcast, max and add per step, and
    one NumPy index per step to backtrack.

    Returns (scores, path): scores[t, j] is the best log-probability of a
    path ending in state j at step t. In place of the path comes the
    DegenerateModelError the decoder raises when a step has no reachable
    state.
    """
    t_max = len(logb)
    into = log_trans.T  # into[j, i]: log-probability of moving from i to j
    scores = np.empty_like(logb)
    scores[0] = log_init + logb[0]
    for t in range(1, t_max):
        scores[t] = (scores[t - 1] + into).max(axis=1) + logb[t]
    dead = ~np.isfinite(scores).any(axis=1)
    if dead.any():
        step = int(np.argmax(dead))
        if step == 0:
            return scores, DegenerateModelError("all states impossible at the first observation")
        return scores, DegenerateModelError(f"all paths have zero probability at step {step}")
    back = (scores[:-1, None, :] + into).argmax(axis=2)  # back[t - 1, j]
    path = np.zeros(t_max, dtype=int)
    path[-1] = int(np.argmax(scores[-1]))
    for t in range(t_max - 1, 0, -1):
        path[t - 1] = back[t - 1, path[t]]
    return scores, path


def exhaustive_forward_backward(initial, transition, means, variances, values):
    """Log-likelihood, state posteriors and expected transition counts by
    summing the joint probability of every one of the n^T state paths.

    Returns (log_likelihood, gamma (T, n), xi_sum (n, n)).
    """
    n, t_max = len(initial), len(values)
    paths = np.array(list(itertools.product(range(n), repeat=t_max)), dtype=int)  # (n^T, T)
    with np.errstate(divide="ignore"):
        log_init = np.log(np.asarray(initial, dtype=float))
        log_trans = np.log(np.asarray(transition, dtype=float))
    logb = np.stack(
        [
            -0.5 * ((values - means[s]) ** 2 / variances[s] + math.log(2 * math.pi * variances[s]))
            for s in range(n)
        ],
        axis=1,
    )  # (T, n)
    scores = log_init[paths[:, 0]] + logb[0, paths[:, 0]]
    for t in range(1, t_max):
        scores = scores + log_trans[paths[:, t - 1], paths[:, t]] + logb[t, paths[:, t]]
    top = scores.max()
    weights = np.exp(scores - top)
    total = weights.sum()
    gamma = np.zeros((t_max, n))
    xi_sum = np.zeros((n, n))
    for t in range(t_max):
        np.add.at(gamma[t], paths[:, t], weights)
        if t + 1 < t_max:
            np.add.at(xi_sum, (paths[:, t], paths[:, t + 1]), weights)
    return top + math.log(total), gamma / total, xi_sum / total


def stepwise_forward_backward(initial, transition, means, variances, values):
    """Rabiner's scaled forward-backward recursion in log space, one loop
    step per slot, on log-emissions shifted by each step's maximum as the
    library shifts them.

    alpha_t is normalised by its sum c_t at every step, beta_t is divided by
    the same c_{t+1}, so gamma_t = alpha_t beta_t and xi_t(i, j) = alpha_t(i)
    A(i, j) b_{t+1}(j) beta_{t+1}(j) / c_{t+1} need no further normalising.
    Returns (log_likelihood, gamma (T, 2), xi_sum (2, 2)); a step that no
    state can reach raises the DegenerateModelError the library raises.
    """
    t_max = len(values)
    with np.errstate(over="ignore"):
        logb = np.stack(
            [
                -0.5 * ((values - means[s]) ** 2 / variances[s] + math.log(2 * math.pi * variances[s]))
                for s in (0, 1)
            ],
            axis=1,
        )  # (T, 2)
    shift = logb.max(axis=1)
    shift[np.isneginf(shift)] = 0.0
    with np.errstate(divide="ignore"):
        logb = np.log(np.exp(logb - shift[:, None]))
        log_init = np.log(np.asarray(initial, dtype=float))
        log_trans = np.log(np.asarray(transition, dtype=float))
    log_alpha = np.empty((t_max, 2))
    log_c = np.empty(t_max)
    for t in range(t_max):
        if t == 0:
            unscaled = log_init + logb[0]
        else:
            unscaled = np.logaddexp.reduce(log_alpha[t - 1][:, None] + log_trans, axis=0) + logb[t]
        log_c[t] = np.logaddexp.reduce(unscaled)
        if log_c[t] == -np.inf:
            raise DegenerateModelError(f"zero-probability observation at step {t}")
        log_alpha[t] = unscaled - log_c[t]
    log_beta = np.zeros((t_max, 2))
    xi_sum = np.zeros((2, 2))
    for t in range(t_max - 2, -1, -1):
        ahead = log_trans + logb[t + 1] + log_beta[t + 1] - log_c[t + 1]  # [i, j]
        log_beta[t] = np.logaddexp.reduce(ahead, axis=1)
        xi_sum += np.exp(log_alpha[t][:, None] + ahead)
    gamma = np.exp(log_alpha + log_beta)
    return float(log_c.sum() + shift.sum()), gamma, xi_sum


def reference_masked_mse(reference, prediction, mask):
    """Mean squared difference of two aligned series over the slots where
    `mask` is true; InputError if the grids differ or `mask` selects none."""
    if reference.window_start != prediction.window_start or len(reference) != len(prediction):
        raise InputError(
            f"series grids misaligned: [{reference.window_start}, +{len(reference)}) vs "
            f"[{prediction.window_start}, +{len(prediction)})"
        )
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != reference.values.shape:
        raise InputError("slot mask length does not match the series")
    if not mask.any():
        raise InputError("slot selection is empty")
    diff = reference.values[mask] - prediction.values[mask]
    return float(np.mean(diff * diff))


def reference_write_label_csv(path, series, header=""):
    """Label CSV written one row at a time: a date and a strftime per row.

    `header` is the '#' comment block to put first.
    """
    epoch = date(1970, 1, 1)
    with open(path, "w", newline="") as handle:
        handle.write(header)
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["timestamp", "value"])
        for i, value in enumerate(series.values):
            days, rem = divmod(series.window_start + i, 1440)
            hh, mm = divmod(rem, 60)
            day = epoch + timedelta(days=days)
            stamp = f"{day.year:04d}-{day.month:02d}-{day.day:02d} {hh:02d}:{mm:02d}"
            writer.writerow([stamp, f"{value:.12g}"])


def reference_habit_report(records, catalog, model, annotator=None) -> str:
    """The `infer-habit` report text of diary `records`: a dict per
    annotation from `to_dict`, encoded by json's indent encoder. `annotator`
    keeps only that annotator's records."""
    stamps = {}
    for rec in records:
        if annotator is None or rec.annotator_id == annotator:
            stamps.setdefault(rec.annotator_id, []).extend((rec.start, rec.end))
    report = {"config": {"delta": model.delta, "catalog": list(catalog.periods)}, "annotators": []}
    for annotator_id in sorted(stamps):
        evidence = AnnotationSet.from_timestamps(stamps[annotator_id])
        habit = habit_posterior(evidence, catalog, model)
        rows = category_posterior(evidence, catalog, model, habit=habit)
        report["annotators"].append(
            {
                "annotator_id": annotator_id,
                "n_annotations": len(evidence),
                "habit": habit.to_dict(),
                "annotations": rows.to_dict()["annotations"],
            }
        )
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


class _SimulatedEvent(NamedTuple):
    true_start: int
    true_end: int
    annotated_start: int
    annotated_end: int


def _simulated_events(rng, n_events, resolution, bias_minutes):
    """The true spans `generate_events` draws from `rng` and their
    annotation, one record per event."""
    truth = generate_events(rng, n_events)
    annotated = annotate(truth, resolution, bias_minutes)
    return [_SimulatedEvent(*t, *a) for t, a in zip(truth.tolist(), annotated.tolist())]


def _infer_boundary_categories(records, catalog, model):
    """MAP category per annotated boundary, via the full inference pipeline.

    Evidence order is [start_0, end_0, start_1, end_1, ...], so record i's
    boundaries map to rows 2i and 2i+1.
    """
    stamps: list[int] = []
    for rec in records:
        stamps.append(rec.annotated_start)
        stamps.append(rec.annotated_end)
    evidence = AnnotationSet.from_timestamps(stamps)
    habit = habit_posterior(evidence, catalog, model)
    rows = category_posterior(evidence, catalog, model, habit=habit)
    cats = [rows.map_category(i) for i in range(len(rows))]
    return [(cats[2 * i], cats[2 * i + 1]) for i in range(len(records))]


def reference_event_series(rec, cat_s, cat_e, bias_minutes):
    """Truth, hard and soft series for one record on its own grid.

    Soft ramps are centered on the annotation minus the injected bias. The
    grid pads both events by PLACEMENT_MARGIN and reaches at least to the
    whole minutes the ramps cover.
    """
    pad = PLACEMENT_MARGIN
    start = BoundaryDistribution(
        center=rec.annotated_start - bias_minutes,
        half_width=cat_s.period_minutes / 2.0,
    )
    end = BoundaryDistribution(
        center=rec.annotated_end - bias_minutes,
        half_width=cat_e.period_minutes / 2.0,
    )
    lo = min(rec.true_start - pad, rec.annotated_start - pad, math.floor(start.lo))
    hi = max(rec.true_end + pad, rec.annotated_end + pad, math.ceil(end.hi))
    window = TimeWindow(lo, hi)
    truth = hard_series(rec.true_start, rec.true_end, window)
    hard = hard_series(rec.annotated_start, rec.annotated_end, window)
    soft = soft_series(start, end, window)
    return truth, hard, soft


def reference_run_mse_experiment(
    seed=0, n_events=DEFAULT_EVENTS, resolutions=DEFAULT_RESOLUTIONS, catalog=None, model=None
):
    """`run_mse_experiment` with one label series and one masked MSE per record."""
    catalog, model = catalog or CategoryCatalog.default(), model or SwitchModel()
    rows = []
    for res in resolutions:
        records = _simulated_events(_rng(seed, 10, res), n_events, res, 0.0)
        cats = _infer_boundary_categories(records, catalog, model)
        hard_scores = []
        soft_scores = []
        for rec, (cat_s, cat_e) in zip(records, cats):
            truth, hard, soft = reference_event_series(rec, cat_s, cat_e, 0.0)
            mask = boundary_slot_mask(truth, (rec.true_start, rec.true_end), BOUNDARY_HALFWIDTH)
            hard_scores.append(reference_masked_mse(truth, hard, mask))
            soft_scores.append(reference_masked_mse(truth, soft, mask))
        rows.append(
            {
                "resolution_minutes": res,
                "bias_fraction": 0.0,
                "n_events": len(records),
                "mse_hard": float(np.mean(hard_scores)),
                "mse_soft": float(np.mean(soft_scores)),
            }
        )
    return rows


def _confusion_cells(r, p):
    """tp, fp, fn and tn of one record's series, each summed with `np.sum`."""
    return np.array(
        [
            np.sum(r * p),
            np.sum((1.0 - r) * p),
            np.sum(r * (1.0 - p)),
            np.sum((1.0 - r) * (1.0 - p)),
        ]
    )


def reference_run_f1_experiment(
    seed=0,
    n_events=DEFAULT_EVENTS,
    resolutions=DEFAULT_RESOLUTIONS,
    bias_fractions=(0.0, 0.5),
    catalog=None,
    model=None,
):
    """`run_f1_experiment` with one label series per record and its confusion
    cells summed with `np.sum`, record by record. Each bias draws its
    resolution's true events again, from the same `_rng(seed, 20, res)`."""
    catalog, model = catalog or CategoryCatalog.default(), model or SwitchModel()
    rows = []
    for res in resolutions:
        for bias in bias_fractions:
            bias_minutes = bias * res
            records = _simulated_events(_rng(seed, 20, res), n_events, res, bias_minutes)
            cats = _infer_boundary_categories(records, catalog, model)
            total_hard = np.zeros(4)
            total_soft = np.zeros(4)
            for rec, (cat_s, cat_e) in zip(records, cats):
                truth, hard, soft = reference_event_series(rec, cat_s, cat_e, bias_minutes)
                total_hard += _confusion_cells(truth.values, hard.values)
                total_soft += _confusion_cells(truth.values, soft.values)
            rows.append(
                {
                    "resolution_minutes": res,
                    "bias_fraction": bias,
                    "n_events": len(records),
                    "f1_hard": f1(SoftConfusionMatrix(*total_hard.tolist())),
                    "f1_soft": f1(SoftConfusionMatrix(*total_soft.tolist())),
                }
            )
    return rows


def reference_run_error_rate_experiment(
    seed=0, n_values=DEFAULT_N_SWEEP, trials=DEFAULT_TRIALS, catalog=None, model=None
):
    """`run_error_rate_experiment` with the trials of each (period, n) point
    drawn one after another from its `_rng(seed, 30, period, n)` generator,
    each scored by its own `category_posterior` call."""
    catalog, model = catalog or CategoryCatalog.default(), model or SwitchModel()
    rows = []
    for category in catalog:
        period = category.period_minutes
        members = sorted(category.members)
        for n in n_values:
            errors = 0
            rng = _rng(seed, 30, period, n)
            for _ in range(trials):
                draws = rng.integers(0, len(members), size=n)
                evidence = AnnotationSet(tuple(members[i] for i in draws))
                post = category_posterior(evidence, catalog, model)
                errors += sum(post.map_category(i).period_minutes != period for i in range(n))
            rows.append(
                {
                    "category_period": period,
                    "n_annotations": n,
                    "trials": trials,
                    "error_rate": errors / (trials * n),
                }
            )
    return rows
