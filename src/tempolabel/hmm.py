"""Two-state Gaussian hidden Markov model for sensor event detection.

Maps a uniformly sampled sensor series (e.g. bathroom humidity) to per-slot
on/off predictions. Decoding is exact Viterbi in log space: its forward
recursion is one loop over Python floats holding the two states' scores,
and each step's maximum is taken over the loop's own sums, so ties go to
the off state. Parameters can be refined by Baum-Welch, an E-step
(`_forward_backward`) and an M-step (`_m_step`) per iteration; the fit
reports its log-likelihood trace and flags degenerate outcomes (e.g. both
states collapsing onto one emission) instead of raising.

Baum-Welch's forward-backward pass shifts each step's log-emissions by their
maximum, so one outlying reading cannot underflow every state at once. It
is a scan in log space with no Python loop over the slots: pairs of per-step
transfers are multiplied as matrices, the forward and backward prefixes are
carried as vectors, and the sums over the two states are written out.
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
    """(T, 2) log emission densities."""
    pairs = zip(params.means, params.variances)
    return np.stack([_log_gaussian(values, mean, var) for mean, var in pairs], axis=1)


def _max_plus_scores(log_init: np.ndarray, log_trans: np.ndarray, logb: np.ndarray) -> np.ndarray:
    """scores[t, j]: best log-probability of a path ending in state j at step t.

    One loop over Python floats takes the IEEE sums of `(scores[t - 1] +
    log_trans.T).max(axis=1) + logb[t]` in the same order; no term is +inf,
    so no sum is NaN and `x if x >= y else y` is that max."""
    (i0, i1), ((a00, a01), (a10, a11)) = log_init.tolist(), log_trans.tolist()
    flat = logb.ravel().tolist()  # logb[t, j] at flat[2 t + j], overwritten by scores[t, j]
    s0 = flat[0] = i0 + flat[0]
    s1 = flat[1] = i1 + flat[1]
    for k in range(2, len(flat), 2):
        x, y, u, v = s0 + a00, s1 + a10, s0 + a01, s1 + a11
        s0 = flat[k] = (x if x >= y else y) + flat[k]
        s1 = flat[k + 1] = (u if u >= v else v) + flat[k + 1]
    return np.array(flat).reshape(-1, 2)


def viterbi(params: HmmParams, series: SensorSeries) -> LabelSeries:
    """Most probable state path, returned as a binary label series.

    The forward recursion is one loop over Python floats, and the backtrack
    compares that loop's own sums, keeping the first maximum, so every tie
    resolves to the lower state index and a dead heat decodes as off.
    """
    logb = _log_emissions(params, series.values)
    with np.errstate(divide="ignore"):
        log_init = np.log(params.initial)
        log_trans = np.log(params.transition)
    scores = _max_plus_scores(log_init, log_trans, logb)
    dead = ~np.isfinite(scores).any(axis=1)
    if dead.any():
        step = int(np.argmax(dead))
        if step == 0:
            raise DegenerateModelError("all states impossible at the first observation")
        raise DegenerateModelError(f"all paths have zero probability at step {step}")
    # the sums the loop maximised (log_trans.T[j, i] moves from i to j), so
    # the predecessor it kept is 1 only where that sum beats 0's, argmax's
    # first-maximum rule; no term is +inf, so no sum is NaN and the compare
    # sees every one. back[2 (t - 1) + j] precedes j at t
    sums = scores[:-1, None, :] + log_trans.T
    back = (sums[..., 1] > sums[..., 0]).astype(np.intp).ravel().tolist()
    state = int(np.argmax(scores[-1]))
    path = [state]
    for k in range(len(back) - 2, -1, -2):
        state = back[k + state]
        path.append(state)
    return LabelSeries(window_start=series.start_minute, values=np.array(path[::-1], dtype=float))


def _lse2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(exp(a) + exp(b)) elementwise, each sum taken relative to its larger
    term; two -inf terms give -inf. Both arguments are scratch: the result is
    written over `a` and returned, and `b` is overwritten."""
    peak = np.maximum(a, b)
    peak[peak == -np.inf] = 0.0  # two zero terms sum to -inf, not NaN
    a -= peak
    b -= peak
    np.exp(a, out=a)
    a += np.exp(b, out=b)
    with np.errstate(divide="ignore"):
        np.log(a, out=a)
    a += peak
    return a


def _log_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products exp(a[..., k]) @ exp(b[..., k]) in log space, each shifted so
    that its largest entry is 0. `b` stacks 2x2 log-matrices along the
    trailing axes, (2, 2, ...), and `a` 2x2 ones or row vectors held as 1x2
    matrices, so every operation is elementwise over the stack; no entry
    that is not exactly zero is lost."""
    prod = _lse2(a[:, 0, None] + b[0], a[:, 1, None] + b[1])
    row_peak = np.maximum(prod[:, 0], prod[:, 1])
    top = np.maximum(row_peak[0], row_peak[-1])  # a row vector has one row
    top[top == -np.inf] = 0.0  # an all-zero product stays all -inf
    prod -= top
    return prod


def _log_prefix_scan(start: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """out[..., k]: row vectors `start`, held as 1x2 matrices (1, 2, ...),
    times the first k of K 2x2 matrices (2, 2, ..., K), in log space up to a
    constant. Adjacent pairs of matrices are multiplied and the pairs'
    prefixes found recursively, which gives every even k, and one vector
    product each gives the odd ones: about K matrix and K vector products in
    2 log2(K) batched steps, with no loop over K."""
    k = mats.shape[-1]
    if k == 0:
        return start[..., None]
    even = _log_prefix_scan(start, _log_matmul(mats[..., 0 : k - 1 : 2], mats[..., 1::2]))
    out = np.empty(start.shape + (k + 1,))
    out[..., 0::2] = even
    out[..., 1::2] = _log_matmul(even[..., : (k + 1) // 2], mats[..., 0::2])
    return out


def _forward_backward(params: HmmParams, values: np.ndarray):
    """Forward-backward pass in log space. Returns (gamma, xi_sum, log_likelihood).

    Each step's log-emissions are shifted by their maximum before they are
    exponentiated, and the shifts are added back into the log-likelihood, so
    a reading far from every mean only moves its step's scale. A density that
    underflows next to its step's likeliest state counts as zero; a step
    where that leaves no reachable state raises DegenerateModelError.

    With M_t = A * b_t the transfer into step t, alpha_t is alpha_0 M_1 ...
    M_t and beta_t^T is 1^T M_{T-1}^T ... M_{t+1}^T: both are prefixes of a
    row vector times a run of matrices, found side by side by one scan
    (`_log_prefix_scan`) with no loop over t. The log-likelihood sums the
    per-step normalisers of alpha, as in Rabiner's scaled recursion.
    """
    logb = _log_emissions(params, values)  # (T, 2)
    shift = np.maximum(logb[:, 0], logb[:, 1])
    shift[shift == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        # a density that underflows next to its step's likeliest state is zero,
        # so a reading that no reachable state explains still fails below
        logb = np.log(np.exp(logb - shift[:, None]))
        log_init = np.log(params.initial)
        log_trans = np.log(params.transition)
    # mats[i, j, 0, t]: i -> j into step t + 1; mats[:, :, 1, t] is M_{T-1-t}^T
    mats = np.empty((2, 2, 2, len(values) - 1))
    trans = np.add(log_trans[:, :, None], logb[1:].T[None, :, :], out=mats[:, :, 0])
    np.add(log_trans.T[:, :, None], logb[:0:-1].T[:, None, :], out=mats[:, :, 1])
    prods = _log_prefix_scan(np.stack([log_init + logb[0], np.zeros(2)], axis=1)[None], mats)
    log_alpha, log_beta = prods[0, :, 0], prods[0, :, 1, ::-1]  # (2, T), columns up to a constant
    log_z = _lse2(*log_alpha.copy())  # log_z[0] normalises alpha_0, which the scan leaves as is
    dead = np.isneginf(log_z)
    if dead.any():
        raise DegenerateModelError(f"zero-probability observation at step {int(np.argmax(dead))}")
    log_alpha = log_alpha - log_z

    # step[i, j, t]: log P(state i at t, state j at t + 1, y_{t+1} | y_0..t), less shift[t + 1]
    step = log_alpha[:, None, :-1] + trans
    log_xi = step + log_beta[None, :, 1:]
    log_c = _lse2(*_lse2(*step))
    log_likelihood = log_z[0] + log_c.sum() + shift.sum()
    log_zg = _lse2(*(log_alpha + log_beta))
    gamma = np.exp(log_alpha + log_beta - log_zg).T
    # sum_i alpha_t(i) M_{t+1}(i, j) = c_t alpha_{t+1}(j), so xi's normaliser is c_t times gamma's
    log_xi -= log_c + log_zg[1:]
    return gamma, np.exp(log_xi, out=log_xi).sum(axis=2), float(log_likelihood)


def _m_step(
    values: np.ndarray, gamma: np.ndarray, xi_sum: np.ndarray, params: HmmParams, var_floor: float
) -> HmmParams:
    """Baum-Welch's M-step (Rabiner 1989) from the slot occupancies `gamma`
    (T, 2) and the summed transition posteriors `xi_sum` (2, 2), variances
    floored at `var_floor`. A state the data never visits has no statistics
    and keeps its emission from `params`; one never left before the last
    slot keeps its transition row."""
    occupancy = gamma.sum(axis=0)
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
    return HmmParams(initial=gamma[0], transition=transition, means=means, variances=variances)


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
    # a spread that overflows comes from readings whose emissions overflow
    # too, and forward-backward reports those as DegenerateModelError
    with np.errstate(over="ignore"):
        var_floor = max(_VAR_FLOOR, 1e-6 * float(np.var(values)))
    for _ in range(_MAX_ITER):
        gamma, xi_sum, ll = _forward_backward(params, values)
        converged = bool(trace) and ll - trace[-1] < _FIT_TOL
        trace.append(ll)
        if converged:
            break
        params = _m_step(values, gamma, xi_sum, params, var_floor)
    scale = max(1.0, float(np.abs(values).max()))
    degenerate = bool(
        np.any(params.variances <= var_floor)
        or abs(params.means[1] - params.means[0]) < 1e-6 * scale
        or np.any(gamma.sum(axis=0) < 1.0)  # the last E-step's occupancy
    )
    return HmmFit(
        params=params,
        log_likelihoods=tuple(trace),
        converged=converged,
        degenerate=degenerate,
    )
