"""Independent reference implementations the tests check the library against.

Nothing here shares code with the package's fast paths: posteriors come from
exhaustive enumeration of the joint model, boundary probabilities from
midpoint quadrature of the uniform density, state paths from trying
every possible path, and label CSV bytes from formatting row by row.
"""

import csv
import itertools
import math
from datetime import date, timedelta

import numpy as np


def enumerate_posteriors(minutes, periods=(30, 15, 10, 5, 1), delta=0.1):
    """Exact habit and per-annotation category posteriors by brute force.

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
    total = habit.sum()
    if total == 0:
        raise ZeroDivisionError("no assignment explains the annotations")
    return habit / total, rows / total


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
            stamp = f"{epoch + timedelta(days=days):%Y-%m-%d} {hh:02d}:{mm:02d}"
            writer.writerow([stamp, f"{value:.12g}"])
