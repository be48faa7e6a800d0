import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from tempolabel import (
    DegenerateModelError,
    HmmParams,
    InputError,
    SensorSeries,
    fit_emissions,
    viterbi,
)

from tempolabel.cli import main
from tempolabel.hmm import _forward_backward, _log_emissions, _m_step, _max_plus_scores
from tempolabel.ingest import format_timestamp
from tempolabel.labels import LabelSeries

from .oracles import (
    exhaustive_forward_backward,
    exhaustive_state_path,
    stepwise_forward_backward,
    stepwise_viterbi,
)


def _as_dict(params):
    """`params` as the JSON object `HmmParams.from_dict` reads."""
    return {k: getattr(params, k).tolist() for k in ("initial", "transition", "means", "variances")}


def _shower_params():
    return HmmParams(
        initial=[0.95, 0.05],
        transition=[[0.97, 0.03], [0.08, 0.92]],
        means=[45.0, 80.0],
        variances=[9.0, 16.0],
    )


def test_series_and_params_copy_the_callers_arrays():
    labels, sensor = np.array([0.0, 0.5, 1.0]), np.array([40.0, 41.5, 80.0])
    arrays = {k: np.array(v) for k, v in _as_dict(_shower_params()).items()}
    params = HmmParams(**arrays)
    pairs = [(labels, LabelSeries(0, labels).values), (sensor, SensorSeries(0, sensor).values)]
    pairs += [(mine, getattr(params, k)) for k, mine in arrays.items()]
    for mine, theirs in pairs:
        assert mine.flags.writeable and not theirs.flags.writeable
        assert not np.shares_memory(mine, theirs)


def _synthetic_humidity(seed, length=240, on_spans=((100, 141),)):
    rng = np.random.default_rng(seed)
    truth = np.zeros(length, dtype=int)
    for lo, hi in on_spans:
        truth[lo:hi] = 1
    values = np.where(truth == 1, rng.normal(80, 4, length), rng.normal(45, 3, length))
    return SensorSeries(start_minute=0, values=values), truth


def test_params_validation():
    with pytest.raises(InputError):
        HmmParams(initial=[0.7, 0.2], transition=[[1, 0], [0, 1]], means=[0, 1], variances=[1, 1])
    with pytest.raises(InputError):
        HmmParams(initial=[0.5, 0.5], transition=[[0.5, 0.5], [0.9, 0.2]], means=[0, 1], variances=[1, 1])
    with pytest.raises(InputError):
        HmmParams(initial=[0.5, 0.5], transition=[[0.5, 0.5], [0.5, 0.5]], means=[0, 1], variances=[1, 0])


def test_params_json_roundtrip():
    params = _shower_params()
    again = HmmParams.from_dict(_as_dict(params))
    np.testing.assert_array_equal(params.transition, again.transition)
    with pytest.raises(InputError):
        HmmParams.from_dict({"initial": [1, 0]})


def test_constant_low_humidity_decodes_all_off():
    series = SensorSeries(0, np.full(60, 45.0))
    decoded = viterbi(_shower_params(), series)
    assert decoded.values.sum() == 0.0


def test_step_plateau_decodes_single_segment():
    series, truth = _synthetic_humidity(seed=5)
    decoded = viterbi(_shower_params(), series)
    on = decoded.values.astype(int)
    np.testing.assert_array_equal(on, truth)
    # contiguity: exactly one rising and one falling edge
    edges = np.diff(np.concatenate(([0], on, [0])))
    assert np.sum(edges == 1) == 1 and np.sum(edges == -1) == 1


def test_state_permutation_permutes_path():
    series, _ = _synthetic_humidity(seed=6)
    params = _shower_params()
    flipped = HmmParams(
        initial=params.initial[::-1],
        transition=params.transition[::-1, ::-1],
        means=params.means[::-1],
        variances=params.variances[::-1],
    )
    a = viterbi(params, series).values
    b = viterbi(flipped, series).values
    np.testing.assert_array_equal(a, 1.0 - b)


def test_viterbi_matches_exhaustive_on_short_series():
    params = _shower_params()
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 13))
        values = rng.uniform(40, 90, n)
        series = SensorSeries(0, values)
        decoded = viterbi(params, series).values.astype(int)
        oracle = exhaustive_state_path(
            params.initial, params.transition, params.means, params.variances, values
        )
        np.testing.assert_array_equal(decoded, oracle)


def test_fit_recovers_separated_means():
    series, _ = _synthetic_humidity(seed=7, length=400, on_spans=((90, 160), (260, 330)))
    guess = HmmParams(
        initial=[0.5, 0.5],
        transition=[[0.9, 0.1], [0.1, 0.9]],
        means=[50.0, 70.0],
        variances=[25.0, 25.0],
    )
    fit = fit_emissions(series, guess)
    assert not fit.degenerate
    assert fit.params.means[0] == pytest.approx(45.0, rel=0.05)
    assert fit.params.means[1] == pytest.approx(80.0, rel=0.05)


def test_fit_loglik_nondecreasing():
    series, _ = _synthetic_humidity(seed=8, length=300)
    guess = HmmParams(
        initial=[0.5, 0.5],
        transition=[[0.8, 0.2], [0.2, 0.8]],
        means=[50.0, 75.0],
        variances=[30.0, 30.0],
    )
    fit = fit_emissions(series, guess)
    diffs = np.diff(fit.log_likelihoods)
    assert np.all(diffs >= -1e-9)


def _sample_from_hmm(params, length, seed):
    rng = np.random.default_rng(seed)
    states = np.zeros(length, dtype=int)
    states[0] = rng.choice(len(params.initial), p=params.initial)
    for t in range(1, length):
        states[t] = rng.choice(len(params.initial), p=params.transition[states[t - 1]])
    values = rng.normal(params.means[states], np.sqrt(params.variances[states]))
    return SensorSeries(0, values), states


def test_fit_fixed_point_near_truth():
    truth = _shower_params()
    series, _ = _sample_from_hmm(truth, length=4000, seed=9)
    fit = fit_emissions(series, truth)
    assert fit.converged
    np.testing.assert_allclose(fit.params.means, truth.means, rtol=0.05)
    np.testing.assert_allclose(np.diag(fit.params.transition), np.diag(truth.transition), atol=0.05)


def test_constant_series_flags_degenerate():
    fit = fit_emissions(SensorSeries(0, np.full(80, 42.0)), _shower_params())
    assert fit.degenerate


def test_short_series_rejected():
    with pytest.raises(InputError):
        fit_emissions(SensorSeries(0, np.arange(5, dtype=float)), _shower_params())


def test_forward_underflow_is_degeneracy_error():
    params = HmmParams(
        initial=[1.0, 0.0],
        transition=[[1.0, 0.0], [0.0, 1.0]],
        means=[0.0, 1.0],
        variances=[1e-6, 1e-6],
    )
    series = SensorSeries(0, np.concatenate([np.zeros(20), [1000.0], np.zeros(20)]))
    with pytest.raises(DegenerateModelError):
        fit_emissions(series, params)


@pytest.mark.parametrize("field", ["initial", "transition", "means", "variances"])
def test_params_reject_non_finite(field):
    values = {
        "initial": [0.5, 0.5],
        "transition": [[0.5, 0.5], [0.5, 0.5]],
        "means": [0.0, 1.0],
        "variances": [1.0, 1.0],
    }
    bad = np.array(values[field], dtype=float)
    bad.flat[-1] = np.nan
    with pytest.raises(InputError, match="^HMM parameters must be finite$"):
        HmmParams(**{**values, field: bad})
    with pytest.raises(InputError):
        HmmParams(**{**values, "means": [0.0, np.inf]})


def test_starved_state_keeps_params_and_flags_degenerate():
    # the initial guess never reaches state 1, so EM has no data for it
    series, _ = _synthetic_humidity(3)
    guess = HmmParams(
        initial=[1.0, 0.0],
        transition=[[1.0, 0.0], [0.0, 1.0]],
        means=[45.0, 80.0],
        variances=[9.0, 16.0],
    )
    fit = fit_emissions(series, guess)
    assert fit.degenerate
    for arr in (fit.params.initial, fit.params.transition, fit.params.means, fit.params.variances):
        assert np.all(np.isfinite(arr))
    assert fit.params.means[1] == 80.0
    assert fit.params.variances[1] == 16.0
    assert np.all(np.isfinite(fit.log_likelihoods))


def _label_statistics(w):
    """The E-step outputs that hard labels `w` stand for: gamma = [1 - w, w]
    and the sum of neighbouring slots' products."""
    gamma = np.stack([1.0 - w, w], axis=1)
    return gamma, gamma[:-1].T @ gamma[1:]


def test_m_step_on_hard_labels_is_the_closed_form_fit():
    rng = np.random.default_rng(4)
    values = rng.normal(50.0, 5.0, 200)
    w = (rng.random(200) < 0.3).astype(float)
    w[:2] = [1.0, 0.0]  # the first slot's label differs from the next one's
    gamma, xi_sum = _label_statistics(w)
    params = _m_step(values, gamma, xi_sum, _shower_params(), 1e-10)
    off, on = values[w == 0], values[w == 1]
    np.testing.assert_allclose(params.means, [off.mean(), on.mean()], rtol=1e-12)
    np.testing.assert_allclose(params.variances, [off.var(), on.var()], rtol=1e-12)
    counts = np.zeros((2, 2))
    np.add.at(counts, (w[:-1].astype(int), w[1:].astype(int)), 1.0)
    assert counts.min() > 0
    np.testing.assert_allclose(
        params.transition, counts / counts.sum(axis=1, keepdims=True), rtol=1e-12
    )
    np.testing.assert_array_equal(params.initial, [0.0, 1.0])


def test_m_step_starved_state_keeps_its_emission_and_transition_row():
    values = np.random.default_rng(5).normal(45.0, 3.0, 60)
    guess = _shower_params()
    params = _m_step(values, *_label_statistics(np.zeros(60)), guess, 1e-10)
    assert params.means[1] == guess.means[1]
    assert params.variances[1] == guess.variances[1]
    np.testing.assert_array_equal(params.transition[1], guess.transition[1])
    np.testing.assert_allclose(params.means[0], values.mean(), rtol=1e-12)
    np.testing.assert_allclose(params.variances[0], values.var(), rtol=1e-12)
    np.testing.assert_array_equal(params.transition[0], [1.0, 0.0])
    np.testing.assert_array_equal(params.initial, [1.0, 0.0])


def _random_case(rng, n_slots=None, kind=None):
    """A random 2-state model and series of `n_slots` (1-10 if not given).
    `kind` (random if not given) 1 is sticky, 2 has a zero transition row and
    3 a zero initial entry."""
    initial = rng.dirichlet([1.0, 1.0])
    transition = rng.dirichlet([1.0, 1.0], size=2)
    kind = rng.integers(4) if kind is None else kind
    if kind == 1:
        transition = np.array([[0.999, 0.001], [0.001, 0.999]])
    elif kind == 2:
        transition[rng.integers(2)] = [1.0, 0.0] if rng.integers(2) else [0.0, 1.0]
    elif kind == 3:
        initial = np.array([1.0, 0.0]) if rng.integers(2) else np.array([0.0, 1.0])
    params = HmmParams(
        initial=initial,
        transition=transition,
        means=rng.uniform(0.0, 5.0, 2),
        variances=rng.uniform(0.5, 4.0, 2),
    )
    return params, rng.uniform(-1.0, 6.0, n_slots or int(rng.integers(1, 11)))


def test_forward_backward_matches_exhaustive():
    rng = np.random.default_rng(2)
    for _ in range(50):
        params, values = _random_case(rng)
        gamma, xi_sum, ll = _forward_backward(params, values)
        ll_o, gamma_o, xi_o = exhaustive_forward_backward(
            params.initial, params.transition, params.means, params.variances, values
        )
        assert ll == pytest.approx(ll_o, rel=0, abs=1e-10)
        np.testing.assert_allclose(gamma, gamma_o, rtol=0, atol=1e-10)
        np.testing.assert_allclose(xi_sum, xi_o, rtol=0, atol=1e-10)


def test_forward_backward_matches_stepwise_recursion():
    # lengths on both sides of the scan's powers of two, each with every kind
    # of _random_case; at the benchmark's length a sticky model and a
    # realistic series, and one spike series
    rng = np.random.default_rng(23)
    lengths = (11, 12, 63, 64, 65, 1_000)
    cases = [_random_case(rng, n_slots, kind) for n_slots in lengths for kind in range(4)]
    cases += [_random_case(rng, 11_520, kind=1), (_spike_guess(), _spike_series().values)]
    series, _ = _synthetic_humidity(19, length=11_520, on_spans=((100, 141), (5_000, 5_300)))
    cases.append((_shower_params(), series.values))
    for params, values in cases:
        gamma, xi_sum, ll = _forward_backward(params, values)
        ll_o, gamma_o, xi_o = stepwise_forward_backward(
            params.initial, params.transition, params.means, params.variances, values
        )
        # both sides sum T terms in different orders; over these cases the
        # worst differences are 2e-16 (log-likelihood, relative), 3e-13
        # (gamma) and 1.5e-13 (xi_sum, relative), well inside the tolerances
        assert ll == pytest.approx(ll_o, rel=1e-12, abs=0)
        np.testing.assert_allclose(gamma, gamma_o, rtol=0, atol=1e-11)
        np.testing.assert_allclose(xi_sum, xi_o, rtol=1e-11, atol=0)


def test_viterbi_matches_stepwise_oracle_bit_for_bit():
    rng = np.random.default_rng(19)
    cases = [_random_case(rng, n_slots) for n_slots in range(1, 51)]
    # two identical states tie at every step, so the whole path is off
    twin = HmmParams(
        initial=[0.5, 0.5], transition=[[0.9, 0.1], [0.1, 0.9]], means=[1.0, 1.0], variances=[2.0, 2.0]
    )
    cases.append((twin, rng.uniform(-1.0, 3.0, 50)))
    locked_on = HmmParams(
        initial=[0.0, 1.0], transition=[[1.0, 0.0], [0.2, 0.8]], means=[0.0, 3.0], variances=[1.0, 1.0]
    )
    cases.append((locked_on, rng.uniform(-1.0, 4.0, 40)))
    # a reading no state can emit, first at step 0, then at step 7; and a
    # step 5 that only the state a zero transition has locked out can emit
    for step in (0, 7):
        values = np.full(20, 40.0)
        values[step] = 1e200
        cases.append((_spike_guess(), values))
    locked_off = HmmParams(
        initial=[1.0, 0.0], transition=[[1.0, 0.0], [0.0, 1.0]], means=[0.0, 1e200], variances=[1.0, 1.0]
    )
    cases.append((locked_off, np.where(np.arange(20) == 5, 1e200, 0.0)))
    series, _ = _synthetic_humidity(19, length=11_520, on_spans=((100, 141), (5_000, 5_300)))
    cases.append((_shower_params(), series.values))

    paths, messages = [], []
    for params, values in cases:
        logb = _log_emissions(params, values)
        with np.errstate(divide="ignore"):
            logs = np.log(params.initial), np.log(params.transition)
        want_scores, want = stepwise_viterbi(*logs, logb)
        # bit patterns, so even the sign of a zero must agree
        np.testing.assert_array_equal(
            _max_plus_scores(*logs, logb).view(np.int64), want_scores.view(np.int64)
        )
        if isinstance(want, DegenerateModelError):
            with pytest.raises(DegenerateModelError) as err:
                viterbi(params, SensorSeries(0, values))
            assert str(err.value) == str(want)
            messages.append(str(want))
        else:
            got = viterbi(params, SensorSeries(0, values)).values
            np.testing.assert_array_equal(got, want)
            paths.append(got)
    assert messages == [
        "all states impossible at the first observation",
        "all paths have zero probability at step 7",
        "all paths have zero probability at step 5",
    ]
    assert not paths[50].any()
    assert len(paths[-1]) == 11_520 and paths[-1].sum() == 341


def _spike_series():
    rng = np.random.default_rng(4)
    values = rng.normal(40.0, 1.0, 300)
    values[150] = 200.0
    return SensorSeries(0, values)


def _spike_guess():
    return HmmParams(
        initial=[0.5, 0.5],
        transition=[[0.9, 0.1], [0.1, 0.9]],
        means=[39.0, 41.0],
        variances=[1.0, 1.0],
    )


def test_single_spike_fits():
    # the spike's densities underflow in linear space in every state at once
    fit = fit_emissions(_spike_series(), _spike_guess())
    for arr in (fit.params.initial, fit.params.transition, fit.params.means, fit.params.variances):
        assert np.all(np.isfinite(arr))
    assert np.all(np.isfinite(fit.log_likelihoods))
    assert np.all(np.diff(fit.log_likelihoods) >= -1e-9)


def test_unrepresentable_reading_is_degeneracy_error(tmp_path):
    # the squared distance to every mean overflows, so no state can emit it;
    # the steps fall on both the even and the odd prefixes of every level of
    # the forward-backward scan
    params = tmp_path / "hmm.json"
    params.write_text(json.dumps(_as_dict(_spike_guess())))
    sensor = tmp_path / "sensor.csv"
    for step in (1, 2, 7, 8, 64, 65, 5_000):
        values = np.full(11_520, 40.0)
        values[step] = 1e200
        sensor.write_text(
            "timestamp,humidity\n"
            + "".join(f"{format_timestamp(i)},{v!r}\n" for i, v in enumerate(values.tolist()))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is reported once, as the error
            with pytest.raises(DegenerateModelError) as err:
                fit_emissions(SensorSeries(0, values), _spike_guess())
            assert str(err.value) == f"zero-probability observation at step {step}"
            with pytest.raises(DegenerateModelError) as err:
                viterbi(_spike_guess(), SensorSeries(0, values))
            assert str(err.value) == f"all paths have zero probability at step {step}"
            result = CliRunner().invoke(
                main,
                ["detect", str(sensor), "--params", str(params), "--fit", "--out", str(tmp_path / "p.csv")],
            )
        assert result.exit_code == 3, result.output
        assert f"zero-probability observation at step {step}" in result.output
