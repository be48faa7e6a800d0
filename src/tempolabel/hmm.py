"""Two-state Gaussian hidden Markov model for sensor event detection.

Maps a uniformly sampled sensor series (e.g. bathroom humidity) to per-slot
on/off predictions. Decoding is exact Viterbi in log space with ties broken
toward the off state. Parameters can be refined by Baum-Welch; the fit
reports its log-likelihood trace and flags degenerate outcomes (e.g. both
states collapsing onto one emission) instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError, InputError
from .labels import LabelSeries

_ROW_TOL = 1e-12
_VAR_FLOOR = 1e-10

STATE_OFF = 0
STATE_ON = 1


@dataclass(frozen=True)
class SensorSeries:
    """Sensor values on a uniform 1-minute grid."""

    start_minute: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("sensor series must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise InputError("sensor series contains non-finite values")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_timestamps(cls, minutes, values) -> "SensorSeries":
        minutes = np.asarray(minutes, dtype=int)
        if minutes.size == 0:
            raise InputError("empty sensor series")
        if minutes.size > 1:
            gaps = np.diff(minutes)
            if np.any(gaps <= 0):
                raise InputError("sensor timestamps must be strictly increasing")
            if np.any(gaps != 1):
                raise InputError("sensor timestamps must form a uniform 1-minute grid")
        return cls(start_minute=int(minutes[0]), values=values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class HmmParams:
    """Initial/transition distributions plus Gaussian emissions per state."""

    initial: np.ndarray
    transition: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        initial = np.asarray(self.initial, dtype=float)
        transition = np.asarray(self.transition, dtype=float)
        means = np.asarray(self.means, dtype=float)
        variances = np.asarray(self.variances, dtype=float)
        n = initial.shape[0]
        if not all(np.all(np.isfinite(a)) for a in (initial, transition, means, variances)):
            raise InputError("HMM parameters must be finite")
        if transition.shape != (n, n) or means.shape != (n,) or variances.shape != (n,):
            raise InputError("parameter shapes disagree on the number of states")
        if abs(initial.sum() - 1.0) > _ROW_TOL or np.any(initial < 0):
            raise InputError("initial distribution must sum to 1")
        if np.any(np.abs(transition.sum(axis=1) - 1.0) > _ROW_TOL) or np.any(transition < 0):
            raise InputError("transition rows must sum to 1")
        if np.any(variances <= 0):
            raise InputError("variances must be positive")
        for name, arr in (
            ("initial", initial),
            ("transition", transition),
            ("means", means),
            ("variances", variances),
        ):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_states(self) -> int:
        return len(self.initial)

    def to_dict(self) -> dict:
        return {
            "initial": self.initial.tolist(),
            "transition": self.transition.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HmmParams":
        try:
            return cls(
                initial=d["initial"],
                transition=d["transition"],
                means=d["means"],
                variances=d["variances"],
            )
        except KeyError as exc:
            raise InputError(f"HMM parameter file missing key {exc}") from exc


@dataclass(frozen=True)
class HmmFit:
    """Outcome of an EM run: refined params plus the likelihood trace."""

    params: HmmParams
    log_likelihoods: tuple[float, ...]
    converged: bool
    degenerate: bool

    @property
    def n_iterations(self) -> int:
        return len(self.log_likelihoods)


def _log_gaussian(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    return -0.5 * ((x - mean) ** 2 / var + math.log(2.0 * math.pi * var))


def _log_emissions(params: HmmParams, values: np.ndarray) -> np.ndarray:
    """(T, n_states) log emission densities."""
    return np.stack(
        [_log_gaussian(values, params.means[s], params.variances[s]) for s in range(params.n_states)],
        axis=1,
    )


def viterbi(params: HmmParams, series: SensorSeries) -> LabelSeries:
    """Most probable state path, returned as a binary label series.

    All argmax ties resolve to the lower state index, so a dead heat decodes
    as off.
    """
    logb = _log_emissions(params, series.values)
    with np.errstate(divide="ignore"):
        log_init = np.log(params.initial)
        log_trans = np.log(params.transition)
    n, t_max = params.n_states, len(series)
    score = log_init + logb[0]
    back = np.zeros((t_max, n), dtype=int)
    if not np.any(np.isfinite(score)):
        raise DegenerateModelError("all states impossible at the first observation")
    for t in range(1, t_max):
        cand = score[:, None] + log_trans  # cand[i, j]: from i to j
        back[t] = np.argmax(cand, axis=0)
        score = cand[back[t], np.arange(n)] + logb[t]
        if not np.any(np.isfinite(score)):
            raise DegenerateModelError(f"all paths have zero probability at step {t}")
    path = np.zeros(t_max, dtype=int)
    path[-1] = int(np.argmax(score))
    for t in range(t_max - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return LabelSeries(window_start=series.start_minute, values=path.astype(float))


def _forward_backward(params: HmmParams, values: np.ndarray):
    """Scaled forward-backward pass. Returns (gamma, xi_sum, log_likelihood)."""
    b = np.exp(_log_emissions(params, values))  # (T, n)
    n, t_max = params.n_states, len(values)
    alpha = np.zeros((t_max, n))
    scale = np.zeros(t_max)
    alpha[0] = params.initial * b[0]
    scale[0] = alpha[0].sum()
    if scale[0] <= 0:
        raise DegenerateModelError("zero-probability observation at step 0")
    alpha[0] /= scale[0]
    for t in range(1, t_max):
        alpha[t] = (alpha[t - 1] @ params.transition) * b[t]
        scale[t] = alpha[t].sum()
        if scale[t] <= 0:
            raise DegenerateModelError(f"zero-probability observation at step {t}")
        alpha[t] /= scale[t]
    beta = np.ones((t_max, n))
    for t in range(t_max - 2, -1, -1):
        beta[t] = (params.transition @ (b[t + 1] * beta[t + 1])) / scale[t + 1]
    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    xi_sum = np.zeros((n, n))
    for t in range(t_max - 1):
        xi = (
            alpha[t][:, None]
            * params.transition
            * (b[t + 1] * beta[t + 1])[None, :]
            / scale[t + 1]
        )
        xi_sum += xi
    return gamma, xi_sum, float(np.log(scale).sum())


def fit_emissions(
    series: SensorSeries,
    initial_guess: HmmParams,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> HmmFit:
    """Baum-Welch refinement until the log-likelihood gain drops below `tol`.

    The returned trace holds one log-likelihood per iteration, evaluated at
    the parameters entering that iteration; exact EM makes it nondecreasing.
    A fit is flagged degenerate when the states collapse (indistinguishable
    means, floored variance, or a starved state) — typical for constant
    input — rather than treated as an error.
    """
    if len(series) < 10:
        raise InputError(f"need at least 10 samples to fit, got {len(series)}")
    if max_iter < 1:
        raise InputError("max_iter must be at least 1")
    values = series.values
    params = initial_guess
    trace: list[float] = []
    converged = False
    var_floor = max(_VAR_FLOOR, 1e-6 * float(np.var(values)))
    occupancy = np.full(params.n_states, np.inf)
    for _ in range(max_iter):
        gamma, xi_sum, ll = _forward_backward(params, values)
        occupancy = gamma.sum(axis=0)  # (n,)
        if trace and ll - trace[-1] < tol:
            trace.append(ll)
            converged = True
            break
        trace.append(ll)
        # a state the data never visits has no statistics: it keeps its old
        # emission and the fit ends flagged degenerate
        starved = occupancy <= 0.0
        weight = np.where(starved, 1.0, occupancy)
        means = (gamma * values[:, None]).sum(axis=0) / weight
        variances = (gamma * (values[:, None] - means[None, :]) ** 2).sum(axis=0) / weight
        means = np.where(starved, params.means, means)
        variances = np.where(starved, params.variances, np.maximum(variances, var_floor))
        trans_denom = gamma[:-1].sum(axis=0)
        transition = np.where(
            trans_denom[:, None] > 1e-12,
            xi_sum / np.maximum(trans_denom[:, None], 1e-300),
            params.transition,
        )
        transition /= transition.sum(axis=1, keepdims=True)
        params = HmmParams(
            initial=gamma[0],
            transition=transition,
            means=means,
            variances=variances,
        )
    scale = max(1.0, float(np.abs(values).max()))
    degenerate = bool(
        np.any(params.variances <= var_floor)
        or np.min(np.abs(np.subtract.outer(params.means, params.means))[~np.eye(params.n_states, dtype=bool)])
        < 1e-6 * scale
        or np.any(occupancy < 1.0)
    )
    return HmmFit(
        params=params,
        log_likelihoods=tuple(trace),
        converged=converged,
        degenerate=degenerate,
    )
