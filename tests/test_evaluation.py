from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempolabel import (
    EventAnnotation,
    InputError,
    LabelSeries,
    SoftConfusionMatrix,
    TimeWindow,
    boundary_mse,
    boundary_slot_mask,
    f1,
    hard_series,
    mse,
    precision,
    recall,
    soft_confusion,
    soft_label,
)
from tempolabel import labels
from tempolabel.evaluation import segment_confusion, span_confusion

from .oracles import reference_masked_mse


def _series(values, start=0):
    return LabelSeries(window_start=start, values=np.asarray(values, dtype=float))


def test_mse_identical_is_zero():
    a = _series([0, 1, 1, 0.5, 0])
    assert mse(a, a) == 0.0


def test_mse_exact_annotation_is_zero():
    window = TimeWindow(460, 540)
    truth = hard_series(487, 520, window)
    annotated = hard_series(487, 520, window)  # resolution 1: rounding is identity
    assert mse(truth, annotated) == 0.0


def test_boundary_window_mse_example():
    # truth starts 08:07, annotation rounded to 08:00; ±15 around the start
    # boundary selects the 31 slots 07:52..08:22, seven of which disagree
    window = TimeWindow(430, 560)
    truth = hard_series(487, 535, window)
    annotated = hard_series(480, 535, window)
    mask = boundary_slot_mask(truth, (487,), halfwidth=15)
    assert mask.sum() == 31
    assert reference_masked_mse(truth, annotated, mask) == pytest.approx(7.0 / 31.0, abs=1e-15)
    assert boundary_mse(truth, annotated, [(487, 487)]) == pytest.approx(7.0 / 31.0, abs=1e-15)


def test_boundary_mse_averages_per_event():
    window = TimeWindow(0, 200)
    truth = hard_series(50, 120, window)
    pred = hard_series(53, 120, window)
    events = [(50, 120)]
    per_event = boundary_mse(truth, pred, events, halfwidth=15)
    start_mask = boundary_slot_mask(truth, (50, 120), halfwidth=15)
    assert per_event == pytest.approx(reference_masked_mse(truth, pred, start_mask))


def test_mse_misaligned_grids_rejected():
    with pytest.raises(InputError, match=r"^series grids misaligned: \[0, \+2\) vs \[5, \+2\)$"):
        mse(_series([0, 1]), _series([0, 1], start=5))
    with pytest.raises(InputError, match=r"^series grids misaligned: \[0, \+2\) vs \[0, \+3\)$"):
        mse(_series([0, 1]), _series([0, 1, 1]))


def test_empty_slot_selection_rejected():
    a = _series([0, 1, 1])
    with pytest.raises(InputError, match="^slot selection is empty$"):
        boundary_mse(a, a, [(0, 1)], halfwidth=-1)


def test_soft_confusion_binary_identity():
    ref = _series([1, 1, 0, 0, 1, 0])
    m = soft_confusion(ref, ref)
    assert (m.tp, m.tn, m.fp, m.fn) == (3.0, 3.0, 0.0, 0.0)
    assert f1(m) == 1.0 and precision(m) == 1.0 and recall(m) == 1.0


def test_soft_confusion_half_reference():
    ref = _series([0.5] * 8)
    pred = _series([1.0] * 8)
    m = soft_confusion(ref, pred)
    assert m.tp == pytest.approx(4.0)
    assert m.fp == pytest.approx(4.0)
    assert m.fn == 0.0 and m.tn == 0.0


def test_soft_confusion_against_own_hard(catalog):
    event = EventAnnotation(start=480, end=510)
    window = TimeWindow(440, 550)
    soft = soft_label(event, catalog[0], catalog[0], window)
    hard = hard_series(480, 510, window)
    m = soft_confusion(soft, hard)
    # oracle: explicit slot-by-slot accumulation
    tp = fp = fn = tn = 0.0
    for r, p in zip(soft.values, hard.values):
        tp += r * p
        fp += (1 - r) * p
        fn += r * (1 - p)
        tn += (1 - r) * (1 - p)
    assert m.tp == pytest.approx(tp, abs=1e-12)
    assert m.fp == pytest.approx(fp, abs=1e-12)
    assert m.fn == pytest.approx(fn, abs=1e-12)
    assert m.tn == pytest.approx(tn, abs=1e-12)
    assert m.tp + m.fp + m.fn + m.tn == pytest.approx(len(soft), abs=1e-9)


def test_confusion_mass_conservation(catalog):
    rng = np.random.default_rng(3)
    ref = _series(rng.uniform(0, 1, 500))
    pred = _series(rng.uniform(0, 1, 500))
    m = soft_confusion(ref, pred)
    assert m.tp + m.fp + m.fn + m.tn == pytest.approx(500.0, abs=1e-9)


def test_case_study_style_f1_value():
    # fractional confusion counts
    m = SoftConfusionMatrix(tp=63.5, fp=41.86, fn=69.50, tn=3185.14)
    assert f1(m) == pytest.approx(127.0 / 238.36, abs=1e-12)
    assert f1(m) == pytest.approx(0.5327, abs=2e-4)


def test_degenerate_scores_flagged():
    m = SoftConfusionMatrix(tp=0.0, fp=0.0, fn=0.0, tn=12.0)
    assert m.degenerate
    assert f1(m) == 0.0 and precision(m) == 0.0 and recall(m) == 0.0
    m2 = SoftConfusionMatrix(tp=0.0, fp=3.0, fn=0.0, tn=9.0)
    assert precision(m2) == 0.0
    assert not m2.degenerate


def test_ambiguity_penalty(catalog):
    # same hard prediction; a strictly-soft reference with the same plateau
    # must score strictly below the hard reference
    event = EventAnnotation(start=480, end=540)
    window = TimeWindow(440, 580)
    hard = hard_series(480, 540, window)
    soft = soft_label(event, catalog[0], catalog[0], window)
    assert f1(soft_confusion(hard, hard)) == 1.0
    assert f1(soft_confusion(soft, hard)) < 1.0


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 200), st.integers(0, 10_000))
def test_confusion_swap_symmetry(n, seed):
    rng = np.random.default_rng(seed)
    ref = _series(rng.uniform(0, 1, n))
    pred = _series(rng.uniform(0, 1, n))
    m = soft_confusion(ref, pred)
    swapped = soft_confusion(pred, ref)
    assert swapped.tp == pytest.approx(m.tp, abs=1e-9)
    assert swapped.tn == pytest.approx(m.tn, abs=1e-9)
    assert swapped.fp == pytest.approx(m.fn, abs=1e-9)
    assert swapped.fn == pytest.approx(m.fp, abs=1e-9)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 100), st.integers(0, 10_000))
def test_binary_reduction_matches_classical_counts(n, seed):
    rng = np.random.default_rng(seed)
    ref_bits = rng.integers(0, 2, n)
    pred_bits = rng.integers(0, 2, n)
    m = soft_confusion(_series(ref_bits), _series(pred_bits))
    assert m.tp == float(np.sum((ref_bits == 1) & (pred_bits == 1)))
    assert m.fp == float(np.sum((ref_bits == 0) & (pred_bits == 1)))
    assert m.fn == float(np.sum((ref_bits == 1) & (pred_bits == 0)))
    assert m.tn == float(np.sum((ref_bits == 0) & (pred_bits == 0)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return InputError, str(exc)


def _per_event_boundary_mse(reference, prediction, events, halfwidth):
    values = [
        reference_masked_mse(reference, prediction, boundary_slot_mask(reference, event, halfwidth))
        for event in events
    ]
    return float(np.mean(values))


@st.composite
def _scoring_case(draw):
    """Two aligned series, binary or soft, cut into segments; events
    overlapping each other or reaching partly or wholly outside the window;
    and a half-width."""
    n = draw(st.integers(1, 400))
    start = draw(st.integers(-10**6, 10**6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    binary = draw(st.booleans())

    def values():
        if binary:
            return rng.integers(0, 2, n).astype(float)
        # exact 0, 1 and sevenths among arbitrary fractions
        return np.where(rng.random(n) < 0.3, rng.integers(0, 8, n) / 7, rng.uniform(0, 1, n))

    reference, prediction = LabelSeries(start, values()), LabelSeries(start, values())
    event_start = st.integers(start - n - 10, start + 2 * n + 10)
    events = draw(
        st.lists(
            st.tuples(event_start, st.integers(0, n + 10)).map(lambda e: (e[0], e[0] + e[1])),
            min_size=1,
            max_size=4,
        )
    )
    halfwidth = draw(
        st.sampled_from([-(10**20), 0, 10**20])
        | st.integers(-40, -1)
        | st.integers(1, n)
        | st.integers(n, 10**9)
    )
    offsets = sorted({0, n} | draw(st.sets(st.integers(0, n), max_size=6)))
    return reference, prediction, offsets, events, halfwidth


@settings(deadline=None, max_examples=300)
@given(case=_scoring_case())
def test_segment_scorers_match_per_series_references(case):
    reference, prediction, offsets, events, halfwidth = case
    got = _outcome(boundary_mse, reference, prediction, events, halfwidth)
    assert got == _outcome(_per_event_boundary_mse, reference, prediction, events, halfwidth)
    m = soft_confusion(reference, prediction)
    cells = segment_confusion(reference.values, prediction.values, offsets)
    segments = [(0, len(reference)), *zip(offsets[:-1], offsets[1:])]
    for sums, (a, b) in zip([[m.tp, m.fp, m.fn, m.tn], *cells.T.tolist()], segments):
        r, p = reference.values[a:b], prediction.values[a:b]
        assert sums == [
            float(np.sum(r * p)),
            float(np.sum((1.0 - r) * p)),
            float(np.sum(r * (1.0 - p))),
            float(np.sum((1.0 - r) * (1.0 - p))),
        ]


@st.composite
def _span_window(draw):
    """A window (start, length) and two whole-minute spans inside it, each
    an (a, b) pair of offsets into the window with a <= b."""
    length = draw(st.integers(1, 300))
    truth, annotated = (
        tuple(sorted(draw(st.lists(st.integers(0, length), min_size=2, max_size=2))))
        for _ in range(2)
    )
    return draw(st.integers(-(10**6), 10**6)), length, truth, annotated


@settings(deadline=None, max_examples=200)
@given(
    windows=st.lists(_span_window(), min_size=1, max_size=9),
    block=st.sampled_from([1, 3, labels._GRID_RECORDS]),
)
# an empty annotation, disjoint spans, nested spans, and spans on the window
# edges, each in a grid of its own
@example(
    windows=[(0, 10, (2, 5), (3, 3)), (100, 10, (0, 4), (6, 10)), (-50, 20, (0, 20), (5, 8)),
             (7, 1, (0, 1), (0, 0)), (30, 12, (4, 6), (0, 12))],
    block=1,
)
def test_span_confusion_equals_summed_hard_labels(windows, block):
    start, lengths, truth, annotated = (np.array(column) for column in zip(*windows))
    truth, annotated = truth + start[:, None], annotated + start[:, None]
    # the narrowest soft ramps, on each window's first minute
    centers, periods = np.full((len(start), 2), 0.5) + start[:, None], np.ones((len(start), 2))
    with mock.patch.object(labels, "_GRID_RECORDS", block):
        grids = labels.label_grids(start, start + lengths, centers, periods, (truth, annotated))
        summed = np.hstack([segment_confusion(*grid.hard, grid.offsets) for grid in grids])
    got = span_confusion(truth, annotated, lengths)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, summed)
