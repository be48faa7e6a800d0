"""Acceptance suite: one test per release criterion, each printing a PASS
line with the measured numbers (run with -s to see them). Tolerances are
pinned here and nowhere else.
"""

import itertools
import subprocess
import sys
import time

import numpy as np

from tempolabel import (
    AnnotationSet,
    EventAnnotation,
    HmmParams,
    LabelSeries,
    SensorSeries,
    TimeWindow,
    category_posterior,
    fit_emissions,
    habit_posterior,
    hard_series,
    likelihood,
    run_error_rate_experiment,
    run_f1_experiment,
    run_mse_experiment,
    soft_confusion,
    soft_label,
    viterbi,
)
from tempolabel.labels import BoundaryDistribution, ramp

from .oracles import enumerate_posteriors, exhaustive_state_path


def _passed(criterion: int, detail: str):
    print(f"[criterion {criterion}] PASS  {detail}")


def test_criterion_1_likelihood_table_exact(catalog):
    started = time.time()
    assert likelihood(catalog[0], 30) == 0.5
    for cat in catalog:
        for minute in range(60):
            expected = 1.0 / len(cat.members) if minute in cat.members else 0.0
            assert likelihood(cat, minute) == expected
    elapsed = time.time() - started
    assert elapsed < 1.0
    _passed(1, f"5x60 likelihood table exact, {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence(catalog, model):
    started = time.time()
    pool = (0, 7, 15, 30)
    checked = 0
    worst = 0.0
    for size in (1, 2, 3):
        for minutes in itertools.product(pool, repeat=size):
            expected_habit, expected_rows = enumerate_posteriors(minutes)
            ann = AnnotationSet(minutes)
            habit = habit_posterior(ann, catalog, model)
            rows = category_posterior(ann, catalog, model, habit=habit)
            worst = max(
                worst,
                float(np.max(np.abs(habit.probs - expected_habit))),
                float(np.max(np.abs(rows.table[list(minutes)] - expected_rows))),
            )
            checked += 1
    elapsed = time.time() - started
    assert worst <= 1e-10
    assert checked == 4 + 16 + 64
    assert elapsed < 10.0
    _passed(2, f"{checked} annotation sets, max |diff|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_error_rate_curves():
    started = time.time()
    trials = 1000
    # every (period, n) point has its own stream, so each row is the same as
    # in a sweep of its period or its n alone
    rows = run_error_rate_experiment(seed=101, n_values=(1, 2, 5, 10, 100), trials=trials)
    coarse = [r for r in rows if r["category_period"] == 30]
    assert len(coarse) == 5 and all(r["error_rate"] == 0.0 for r in coarse)
    gains = {}
    for period in (15, 10, 5, 1):
        err = {r["n_annotations"]: r["error_rate"] for r in rows if r["category_period"] == period}
        assert err[100] < err[1], f"period {period}: {err}"
        gains[period] = (err[1], err[100])
    elapsed = time.time() - started
    assert elapsed < 120.0
    _passed(3, f"30-min exact zero; N=1 -> N=100 error {gains}, {elapsed:.1f}s")


def test_criterion_4_mse_trend():
    started = time.time()
    rows = run_mse_experiment(seed=202, n_events=500)
    by_res = {r["resolution_minutes"]: r for r in rows}
    assert by_res[1]["mse_hard"] <= 1e-12
    assert by_res[1]["mse_soft"] <= 1e-12
    for res in (5, 10, 15, 30):
        assert by_res[res]["mse_soft"] < by_res[res]["mse_hard"], by_res[res]
    hard_curve = [by_res[r]["mse_hard"] for r in (1, 5, 10, 15, 30)]
    assert all(b >= a for a, b in zip(hard_curve, hard_curve[1:]))
    elapsed = time.time() - started
    assert elapsed < 120.0
    summary = {r: (round(by_res[r]["mse_hard"], 4), round(by_res[r]["mse_soft"], 4)) for r in by_res}
    _passed(4, f"res -> (hard, soft): {summary}, {elapsed:.1f}s")


def test_criterion_5_f1_trend():
    started = time.time()
    rows = run_f1_experiment(seed=303, n_events=500)
    table = {(r["resolution_minutes"], r["bias_fraction"]): r for r in rows}
    for res in (1, 5, 10, 15, 30):
        unbiased = table[(res, 0.0)]
        assert unbiased["f1_hard"] >= unbiased["f1_soft"], unbiased
    for res in (10, 15, 30):
        biased = table[(res, 0.5)]
        assert biased["f1_soft"] >= biased["f1_hard"], biased
    drifts = {}
    for res in (1, 5, 10, 15, 30):
        drift = abs(table[(res, 0.5)]["f1_soft"] - table[(res, 0.0)]["f1_soft"])
        assert drift <= 0.02, (res, drift)
        drifts[res] = round(drift, 4)
    elapsed = time.time() - started
    assert elapsed < 120.0
    _passed(5, f"soft-F1 drift under bias per resolution: {drifts}, {elapsed:.1f}s")


def test_criterion_6_soft_confusion_algebra(catalog):
    rng = np.random.default_rng(42)
    # binary reduction is exact
    for _ in range(20):
        n = int(rng.integers(1, 200))
        ref_bits = rng.integers(0, 2, n).astype(float)
        pred_bits = rng.integers(0, 2, n).astype(float)
        m = soft_confusion(LabelSeries(0, ref_bits), LabelSeries(0, pred_bits))
        assert m.tp == float(np.sum((ref_bits == 1) & (pred_bits == 1)))
        assert m.fp == float(np.sum((ref_bits == 0) & (pred_bits == 1)))
        assert m.fn == float(np.sum((ref_bits == 1) & (pred_bits == 0)))
        assert m.tn == float(np.sum((ref_bits == 0) & (pred_bits == 0)))
        assert abs(m.tp + m.fp + m.fn + m.tn - n) <= 1e-9
    # mass conservation on arbitrary soft series
    for _ in range(20):
        n = int(rng.integers(1, 500))
        m = soft_confusion(
            LabelSeries(0, rng.uniform(0, 1, n)), LabelSeries(0, rng.uniform(0, 1, n))
        )
        assert abs(m.tp + m.fp + m.fn + m.tn - n) <= 1e-9
    # strictly soft reference yields fractional cells
    event = EventAnnotation(start=480, end=510)
    window = TimeWindow(440, 560)
    soft_ref = soft_label(event, catalog[0], catalog[0], window)
    hard_pred = hard_series(480, 510, window)
    m = soft_confusion(soft_ref, hard_pred)
    fractional = [v for v in (m.tp, m.fp, m.fn, m.tn) if abs(v - round(v)) > 1e-9]
    assert fractional, "expected fractional confusion entries from a soft reference"
    _passed(6, f"binary-exact, mass-conserving, fractional example tp={m.tp:.4f}")


def test_criterion_7_soft_label_shape_suite(catalog):
    # ramp values at center and endpoints
    dist = BoundaryDistribution(center=480.0, half_width=15.0)
    started = ramp(np.array([480.0, 465.0, 495.0]), dist.lo, dist.half_width)
    assert abs(started[0] - 0.5) <= 1e-12
    assert abs(started[1] - 0.0) <= 1e-12
    assert abs(started[2] - 1.0) <= 1e-12
    assert abs((1.0 - started[0]) - 0.5) <= 1e-12
    assert abs((1.0 - started[1]) - 1.0) <= 1e-12
    assert abs((1.0 - started[2]) - 0.0) <= 1e-12
    # values stay in [0, 1] across category combinations
    event = EventAnnotation(start=480, end=533)
    window = TimeWindow(420, 600)
    for cat_s in catalog:
        for cat_e in catalog:
            series = soft_label(event, cat_s, cat_e, window)
            assert np.all((series.values >= 0.0) & (series.values <= 1.0))
    # finest category reproduces the hard label slotwise
    fine = soft_label(event, catalog[4], catalog[4], window)
    np.testing.assert_array_equal(fine.values, hard_series(event.start, event.end, window).values)
    # translation equivariance is bit-exact
    base = soft_label(event, catalog[0], catalog[1], window)
    for shift in (1, 60, 1440, 99_999):
        moved = soft_label(
            EventAnnotation(start=event.start + shift, end=event.end + shift),
            catalog[0],
            catalog[1],
            TimeWindow(window.start + shift, window.end + shift),
        )
        np.testing.assert_array_equal(base.values, moved.values)
    _passed(7, "ramp anchors, range, finest==hard, translation all exact")


def test_criterion_8_viterbi_oracle_and_em():
    started = time.time()
    rng = np.random.default_rng(777)
    for case in range(100):
        n = int(rng.integers(2, 13))
        means = np.sort(rng.uniform(0, 100, 2))
        params = HmmParams(
            initial=rng.dirichlet((1.0, 1.0)),
            transition=np.stack([rng.dirichlet((2.0, 1.0)), rng.dirichlet((1.0, 2.0))]),
            means=means,
            variances=rng.uniform(1.0, 50.0, 2),
        )
        values = rng.uniform(-10, 110, n)
        decoded = viterbi(params, SensorSeries(0, values)).values.astype(int)
        oracle = exhaustive_state_path(
            params.initial, params.transition, params.means, params.variances, values
        )
        np.testing.assert_array_equal(decoded, oracle, err_msg=f"case {case}")
    for seed in range(20):
        fit_rng = np.random.default_rng(9000 + seed)
        truth = (fit_rng.uniform(0, 1, 300) < 0.3).astype(int)
        values = np.where(
            truth == 1, fit_rng.normal(75, 5, 300), fit_rng.normal(40, 4, 300)
        )
        guess = HmmParams(
            initial=[0.5, 0.5],
            transition=[[0.8, 0.2], [0.2, 0.8]],
            means=[45.0, 70.0],
            variances=[30.0, 30.0],
        )
        fit = fit_emissions(SensorSeries(0, values), guess)
        diffs = np.diff(fit.log_likelihoods)
        assert np.all(diffs >= -1e-9), f"seed {seed}: LL decreased by {diffs.min()}"
    elapsed = time.time() - started
    assert elapsed < 60.0
    _passed(8, f"100 exhaustive decodes equal, 20 monotone EM fits, {elapsed:.1f}s")


def test_criterion_9_simulate_cli_determinism(tmp_path):
    # two fresh interpreter processes, so per-process hash randomization and
    # interpreter state cannot mask nondeterminism
    outputs = []
    for name in ("run_a", "run_b"):
        out_dir = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "tempolabel", "simulate", "--seed", "42", "--out", str(out_dir)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))})
    assert outputs[0] and outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    _passed(9, f"two seed-42 runs byte-identical across {sorted(outputs[0])}")
