"""Two-state Gaussian hidden Markov model for sensor event detection.

Maps a uniformly sampled sensor series (e.g. bathroom humidity) to per-slot
on/off predictions. Decoding is exact Viterbi in log space with ties broken
toward the off state. Parameters can be refined by Baum-Welch; the fit
reports its log-likelihood trace and flags degenerate outcomes (e.g. both
states collapsing onto one emission) instead of raising.

Baum-Welch's forward-backward pass shifts each step's log-emissions by their
maximum, so one outlying reading cannot underflow every state at once, and
computes the forward and backward passes as a prefix scan of the per-step
transfer matrices in log space, with no Python loop over the slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import _frozen_array, _is_distribution
from .errors import DegenerateModelError, InputError
from .labels import LabelSeries, _series_values

_VAR_FLOOR = 1e-10
_FIT_TOL = 1e-6  # log-likelihood gain below which Baum-Welch stops
_MAX_ITER = 100  # Baum-Welch iterations after which an unconverged fit stops
_PARAM_NAMES = ("initial", "transition", "means", "variances")


@dataclass(frozen=True)
class SensorSeries:
    """Sensor values on a uniform 1-minute grid."""

    start_minute: int
    values: np.ndarray

    def __post_init__(self):
        arr = _series_values(self.values, "sensor series")
        if not np.all(np.isfinite(arr)):
            raise InputError("sensor series contains non-finite values")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class HmmParams:
    """Initial/transition distributions plus Gaussian emissions for the two
    states, off (0) and on (1)."""

    initial: np.ndarray
    transition: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        initial, transition, means, variances = arrays = [
            _frozen_array(getattr(self, name)) for name in _PARAM_NAMES
        ]
        if initial.ndim != 1:
            raise InputError("initial distribution must be a 1-d vector")
        n = initial.shape[0]
        if n != 2:
            raise InputError(f"the HMM must have 2 states (off, on), got {n}")
        if not all(np.all(np.isfinite(a)) for a in (initial, transition, means, variances)):
            raise InputError("HMM parameters must be finite")
        if transition.shape != (n, n) or means.shape != (n,) or variances.shape != (n,):
            raise InputError("parameter shapes disagree on the number of states")
        if not _is_distribution(initial):
            raise InputError("initial distribution must sum to 1")
        if not _is_distribution(transition):
            raise InputError("transition rows must sum to 1")
        if np.any(variances <= 0):
            raise InputError("variances must be positive")
        for name, arr in zip(_PARAM_NAMES, arrays):
            object.__setattr__(self, name, arr)

    @property
    def n_states(self) -> int:
        return len(self.initial)

    @classmethod
    def from_dict(cls, d) -> "HmmParams":
        """Parameters from a parsed JSON object of numeric arrays."""
        if not isinstance(d, dict):
            raise InputError(f"HMM parameter file must hold an object, got {type(d).__name__}")
        arrays = {}
        for key in _PARAM_NAMES:
            if key not in d:
                raise InputError(f"HMM parameter file missing key {key!r}")
            try:
                arrays[key] = np.asarray(d[key], dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(
                    f"HMM parameter {key!r} is not an array of numbers: {exc}"
                ) from exc
        return cls(**arrays)


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
    # a squared distance that overflows gives a -inf density, which the
    # decoders report as DegenerateModelError
    with np.errstate(over="ignore"):
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
    t_max = len(series)
    into = log_trans.T  # into[j, i]: log-probability of moving from i to j
    scores = np.empty_like(logb)  # scores[t, j]: best log-probability of a path ending in j at t
    scores[0] = log_init + logb[0]
    for t in range(1, t_max):
        scores[t] = (scores[t - 1] + into).max(axis=1) + logb[t]
    dead = ~np.isfinite(scores).any(axis=1)
    if dead.any():
        step = int(np.argmax(dead))
        if step == 0:
            raise DegenerateModelError("all states impossible at the first observation")
        raise DegenerateModelError(f"all paths have zero probability at step {step}")
    # the sums the loop maximised, so argmax finds the predecessor it kept
    back = (scores[:-1, None, :] + into).argmax(axis=2)  # back[t - 1, j]
    path = np.zeros(t_max, dtype=int)
    path[-1] = int(np.argmax(scores[-1]))
    for t in range(t_max - 1, 0, -1):
        path[t - 1] = back[t - 1, path[t]]
    return LabelSeries(window_start=series.start_minute, values=path.astype(float))


def _log_sum(x: np.ndarray, axis) -> np.ndarray:
    """log(exp(x).sum(axis)), each sum taken relative to its largest term.

    A sum whose terms are all -inf is -inf.
    """
    peak = x.max(axis=axis, keepdims=True)
    peak[np.isneginf(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(x - peak).sum(axis=axis)) + np.squeeze(peak, axis)


def _log_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products exp(a[..., k]) @ exp(b[..., k]) in log space, shifted so that
    each product's largest entry is 0.

    Stacks of log-matrices run along the trailing axes, (n, n, ...), so every
    operation is elementwise over the stack. Every entry is summed relative to
    its own largest term, so no entry that is not exactly zero is lost.
    """
    prod = _log_sum(a[:, :, None] + b[None, :, :], axis=1)
    top = prod.max(axis=(0, 1))
    top[np.isneginf(top)] = 0.0  # an all-zero product stays all -inf
    return prod - top


def _log_prefix_products(mats: np.ndarray) -> np.ndarray:
    """Inclusive prefix products along the last axis of a stack of log-matrices.

    out[..., k] is the log of exp(mats[..., 0]) @ ... @ exp(mats[..., k]) up
    to an additive constant: every product is shifted so that its largest
    entry is 0, so none overflows or underflows however long the stack.
    Adjacent pairs are multiplied and their prefix products found
    recursively, which gives every odd-indexed prefix; one more product with
    the next matrix gives the even ones. That is about 2K batched products
    in 2 log2(K) steps, with no loop over K.
    """
    k = mats.shape[-1]
    if k == 1:
        return mats
    odd = _log_prefix_products(_log_matmul(mats[..., 0 : k - 1 : 2], mats[..., 1::2]))
    out = np.empty_like(mats)
    out[..., 0] = mats[..., 0]
    out[..., 1::2] = odd
    out[..., 2::2] = _log_matmul(odd[..., : (k - 1) // 2], mats[..., 2::2])
    return out


def _forward_backward(params: HmmParams, values: np.ndarray):
    """Forward-backward pass in log space. Returns (gamma, xi_sum, log_likelihood).

    Each step's log-emissions are shifted by their maximum before they are
    exponentiated, and the shifts are added back into the log-likelihood, so
    a reading far from every mean only moves its step's scale. A density that
    underflows next to its step's likeliest state counts as zero; a step
    where that leaves no reachable state raises DegenerateModelError.

    With M_t = A * b_t the transfer into step t and E_0 the matrix whose
    every row is alpha_0, alpha_t is each row of E_0 M_1 ... M_t, and beta_t
    each row of (M_{t+1} ... M_{T-1} J)^T, J all ones, a product of the
    reversed, transposed transfers. Both are prefix products, found by one
    scan over the two sequences side by side (`_log_prefix_products`), with
    no loop over t. The log-likelihood sums the per-step normalisers of
    alpha, as in Rabiner's scaled recursion.
    """
    logb = _log_emissions(params, values)  # (T, n)
    shift = logb.max(axis=1, keepdims=True)
    shift[np.isneginf(shift)] = 0.0
    with np.errstate(divide="ignore"):
        # a density that underflows next to its step's likeliest state is zero,
        # so a reading that no reachable state explains still fails below
        logb = np.log(np.exp(logb - shift))
        log_init = np.log(params.initial)
        log_trans = np.log(params.transition)
    n = params.n_states
    log_alpha0 = log_init + logb[0]
    trans = log_trans[:, :, None] + logb[1:].T[None, :, :]  # trans[i, j, t]: i -> j into step t + 1
    forward = np.concatenate([np.broadcast_to(log_alpha0[None, :, None], (n, n, 1)), trans], axis=2)
    backward = np.concatenate([np.zeros((n, n, 1)), trans[:, :, ::-1].transpose(1, 0, 2)], axis=2)
    prods = _log_prefix_products(np.stack([forward, backward], axis=2))
    log_alpha = prods[0, :, 0, :]  # (n, T), each column up to a constant
    log_beta = prods[0, :, 1, ::-1]
    dead = np.isneginf(log_alpha).all(axis=0)
    if dead.any():
        raise DegenerateModelError(f"zero-probability observation at step {int(np.argmax(dead))}")
    log_alpha = log_alpha - _log_sum(log_alpha, axis=0)

    # step[i, j, t]: log P(state i at t, state j at t + 1, y_{t+1} | y_0..t), less shift[t + 1]
    step = log_alpha[:, None, :-1] + trans
    log_likelihood = _log_sum(log_alpha0, axis=0) + _log_sum(step, axis=(0, 1)).sum() + shift.sum()
    log_gamma = log_alpha + log_beta
    gamma = np.exp(log_gamma - _log_sum(log_gamma, axis=0)).T
    log_xi = step + log_beta[None, :, 1:]
    xi_sum = np.exp(log_xi - _log_sum(log_xi, axis=(0, 1))).sum(axis=2)
    return gamma, xi_sum, float(log_likelihood)


def fit_emissions(series: SensorSeries, initial_guess: HmmParams) -> HmmFit:
    """Baum-Welch refinement until the log-likelihood gain drops below
    `_FIT_TOL`, for at most `_MAX_ITER` iterations.

    The returned trace holds one log-likelihood per iteration, evaluated at
    the parameters entering that iteration; exact EM makes it nondecreasing.
    A fit is flagged degenerate when the states collapse (indistinguishable
    means, floored variance, or a starved state) — typical for constant
    input — rather than treated as an error.
    """
    if len(series) < 10:
        raise InputError(f"need at least 10 samples to fit, got {len(series)}")
    values = series.values
    params = initial_guess
    trace: list[float] = []
    converged = False
    # a spread that overflows comes from readings whose emissions overflow
    # too, and forward-backward reports those as DegenerateModelError
    with np.errstate(over="ignore"):
        var_floor = max(_VAR_FLOOR, 1e-6 * float(np.var(values)))
    for _ in range(_MAX_ITER):
        gamma, xi_sum, ll = _forward_backward(params, values)
        occupancy = gamma.sum(axis=0)  # (n,)
        if trace and ll - trace[-1] < _FIT_TOL:
            trace.append(ll)
            converged = True
            break
        trace.append(ll)
        # a state the data never visits has no statistics: it keeps its old
        # emission and the fit ends flagged degenerate
        starved = occupancy <= 0.0
        weight = np.where(starved, 1.0, occupancy)
        means = (gamma * values[:, None]).sum(axis=0) / weight
        with np.errstate(over="ignore"):
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
        or abs(params.means[1] - params.means[0]) < 1e-6 * scale
        or np.any(occupancy < 1.0)
    )
    return HmmFit(
        params=params,
        log_likelihoods=tuple(trace),
        converged=converged,
        degenerate=degenerate,
    )
