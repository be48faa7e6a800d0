from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempolabel import (
    BoundaryDistribution,
    EventAnnotation,
    InputError,
    TimeWindow,
    hard_series,
    soft_label,
    soft_series,
)
from tempolabel import labels
from tempolabel.catalog import CategoryCatalog, ResolutionCategory
from tempolabel.labels import padded_bounds, ramp, soft_values

from .oracles import quadrature_started_prob
from .test_simulate import _CATALOGS

EIGHT_AM = 8 * 60  # absolute minute within day zero


def _started(dist, t):
    """P(true boundary <= t) for `dist`, through the ramp the soft label uses."""
    return float(ramp(float(t), dist.lo, dist.half_width))


def test_start_probability_ramp():
    dist = BoundaryDistribution(center=EIGHT_AM, half_width=15)
    assert _started(dist, EIGHT_AM) == 0.5
    assert _started(dist, EIGHT_AM - 15) == 0.0
    assert _started(dist, EIGHT_AM + 15) == 1.0
    assert _started(dist, EIGHT_AM + 6) == pytest.approx(0.7, abs=1e-15)


def test_end_probability_ramp():
    dist = BoundaryDistribution(center=EIGHT_AM + 30, half_width=15)
    assert 1.0 - _started(dist, EIGHT_AM + 30) == 0.5
    assert 1.0 - _started(dist, EIGHT_AM + 45) == 0.0
    assert 1.0 - _started(dist, EIGHT_AM + 15) == 1.0
    assert 1.0 - _started(dist, EIGHT_AM + 24) == pytest.approx(0.7, abs=1e-15)


def test_ramp_matches_quadrature_oracle():
    dist = BoundaryDistribution(center=EIGHT_AM, half_width=15)
    for t in (EIGHT_AM - 9, EIGHT_AM + 6, EIGHT_AM + 11):
        assert _started(dist, t) == pytest.approx(
            quadrature_started_prob(EIGHT_AM, 15, t), abs=1e-4
        )
        # the end factor of the soft label, once the start ramp has saturated
        assert soft_values(t, EIGHT_AM - 100, 15, dist.lo, 15) == pytest.approx(
            1.0 - quadrature_started_prob(EIGHT_AM, 15, t), abs=1e-4
        )


def test_half_width_floor():
    with pytest.raises(InputError):
        BoundaryDistribution(center=0, half_width=0.4)


def test_soft_value_function_examples(catalog):
    half = catalog[0].period_minutes / 2.0
    lo_s, lo_e = EIGHT_AM - half, EIGHT_AM + 30 - half
    assert soft_values(EIGHT_AM + 15, lo_s, half, lo_e, half) == 1.0
    assert soft_values(EIGHT_AM - 16, lo_s, half, lo_e, half) == 0.0
    assert soft_values(EIGHT_AM, lo_s, half, lo_e, half) == 0.5


def _slot_starts(series):
    return np.arange(series.window_start, series.window_start + len(series))


def test_hard_label_slots():
    series = hard_series(EIGHT_AM, EIGHT_AM + 30, TimeWindow(EIGHT_AM - 30, EIGHT_AM + 60))
    starts = _slot_starts(series)
    assert series.values[starts == EIGHT_AM + 15][0] == 1.0
    assert series.values[starts == EIGHT_AM - 1][0] == 0.0
    assert int(series.values.sum()) == 30


def test_soft_series_plateau_and_support(catalog):
    event = EventAnnotation(start=EIGHT_AM, end=EIGHT_AM + 60)
    window = TimeWindow(EIGHT_AM - 40, EIGHT_AM + 100)
    series = soft_label(event, catalog[0], catalog[0], window)
    starts = _slot_starts(series)
    # saturated strictly between the ramps: [8:15, 8:45) slot starts
    plateau = (starts >= EIGHT_AM + 15) & (starts < EIGHT_AM + 45)
    assert np.all(series.values[plateau] == 1.0)
    # zero outside both ramps
    assert np.all(series.values[starts < EIGHT_AM - 16] == 0.0)
    assert np.all(series.values[starts > EIGHT_AM + 75] == 0.0)
    assert np.all((series.values >= 0.0) & (series.values <= 1.0))


def test_soft_series_unimodal_plateau(catalog):
    event = EventAnnotation(start=EIGHT_AM, end=EIGHT_AM + 60)
    window = TimeWindow(EIGHT_AM - 40, EIGHT_AM + 100)
    series = soft_label(event, catalog[0], catalog[1], window)
    diffs = np.diff(series.values)
    peak = int(np.argmax(series.values))
    assert np.all(diffs[:peak] >= -1e-15)
    assert np.all(diffs[peak:] <= 1e-15)


def test_finest_category_equals_hard(catalog):
    event = EventAnnotation(start=EIGHT_AM + 7, end=EIGHT_AM + 41)
    window = TimeWindow(EIGHT_AM - 20, EIGHT_AM + 70)
    soft = soft_label(event, catalog[4], catalog[4], window)
    hard = hard_series(event.start, event.end, window)
    np.testing.assert_array_equal(soft.values, hard.values)


def test_translation_equivariance_bit_exact(catalog):
    event = EventAnnotation(start=EIGHT_AM, end=EIGHT_AM + 30)
    window = TimeWindow(EIGHT_AM - 40, EIGHT_AM + 70)
    base = soft_label(event, catalog[0], catalog[1], window)
    for shift in (1, 17, 1440, -333):
        moved = soft_label(
            EventAnnotation(start=event.start + shift, end=event.end + shift),
            catalog[0],
            catalog[1],
            TimeWindow(window.start + shift, window.end + shift),
        )
        np.testing.assert_array_equal(base.values, moved.values)


def test_window_too_small_rejected(catalog):
    event = EventAnnotation(start=EIGHT_AM, end=EIGHT_AM + 30)
    with pytest.raises(InputError):
        soft_label(event, catalog[0], catalog[0], TimeWindow(EIGHT_AM - 10, EIGHT_AM + 60))
    with pytest.raises(InputError):
        hard_series(EIGHT_AM, EIGHT_AM + 30, TimeWindow(EIGHT_AM + 5, EIGHT_AM + 20))


def _padded_window(event, cat_start, cat_end, pad):
    """`padded_bounds` of one event, as a window."""
    lo, hi = padded_bounds(
        event.start, event.end, cat_start.period_minutes, cat_end.period_minutes, pad
    )
    return TimeWindow(int(lo), int(hi))


def test_padded_window_covers_ramps(catalog):
    event = EventAnnotation(start=EIGHT_AM, end=EIGHT_AM + 30)
    window = _padded_window(event, catalog[0], catalog[0], pad=15)
    assert (window.start, window.end) == (EIGHT_AM - 15 - 15, EIGHT_AM + 30 + 15 + 15)
    series = soft_label(event, catalog[0], catalog[0], window)  # must not raise
    assert series.values[0] == 0.0 and series.values[-1] == 0.0


def test_event_annotation_validation():
    with pytest.raises(InputError):
        EventAnnotation(start=100, end=100)


def test_collapsed_hard_series_is_empty():
    series = hard_series(500, 500, TimeWindow(480, 520))
    assert series.values.sum() == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, 1 + 2**-52])
def test_label_values_outside_unit_interval_rejected(bad):
    with pytest.raises(InputError, match=r"^label values must lie in \[0, 1\]$"):
        labels.LabelSeries(0, np.array([0.5, bad]))


def test_label_values_at_unit_interval_ends_accepted():
    series = labels.LabelSeries(0, np.array([-0.0, 0, 1]))
    assert series.values.tolist() == [0.0, 0.0, 1.0]


@settings(deadline=None, max_examples=50)
@given(
    st.integers(0, 2000),
    st.integers(1, 300),
    st.sampled_from([30, 15, 10, 5, 1]),
    st.sampled_from([30, 15, 10, 5, 1]),
)
def test_product_bound_property(start, duration, period_s, period_e):
    event = EventAnnotation(start=start, end=start + duration)
    cat_s, cat_e = ResolutionCategory(period_s), ResolutionCategory(period_e)
    window = _padded_window(event, cat_s, cat_e, pad=5)
    series = soft_label(event, cat_s, cat_e, window)
    mids = window.midpoints()
    half_s, half_e = cat_s.period_minutes / 2.0, cat_e.period_minutes / 2.0
    up = ramp(mids, event.start - half_s, half_s)
    down = 1.0 - ramp(mids, event.end - half_e, half_e)
    assert np.all(series.values <= np.minimum(up, down) + 1e-15)


@settings(deadline=None, max_examples=60)
@given(
    events=st.lists(
        # day, start minute relative to its midnight, duration, and the
        # start and end categories' positions in the catalogue
        st.tuples(
            st.integers(-2, 2),
            st.integers(-90, 90),
            st.integers(1, 300),
            st.integers(0, 4),
            st.integers(0, 4),
        ),
        min_size=1,
        max_size=80,
    ),
    periods=st.sampled_from(_CATALOGS),
    # a negative pad can cut a ramp, which both paths must reject alike
    pad=st.one_of(st.integers(0, 60), st.integers(-3, -1)),
    block=st.sampled_from([1, 3, labels._GRID_RECORDS]),
)
def test_label_grids_match_soft_label(events, periods, pad, block):
    catalog = CategoryCatalog.from_periods(periods)
    cases = []
    for day, offset, duration, i, j in events:
        start = day * 1440 + offset
        event = EventAnnotation(start=start, end=start + duration)
        cases.append((event, catalog[i % len(catalog)], catalog[j % len(catalog)]))
    stamps = np.array([(event.start, event.end) for event, _, _ in cases])
    periods = np.array([(s.period_minutes, e.period_minutes) for _, s, e in cases])
    lo, hi = labels.padded_bounds(*stamps.T, *periods.T, pad)
    # per event, its window start and value bytes; then the error, if any
    got = []
    with mock.patch.object(labels, "_GRID_RECORDS", block):
        try:
            for grid in labels.label_grids(lo, hi, stamps, periods):
                for k, (a, b), view in zip(grid.records, grid.segments(), grid.soft_labels()):
                    assert k == len(got)
                    # the view is the series a copy of the grid's slice makes
                    copy = labels.LabelSeries(lo[k].item(), grid.soft[a:b])
                    assert type(view.window_start) is int and view.window_start == copy.window_start
                    assert view.values.dtype == copy.values.dtype
                    assert view.values.tobytes() == copy.values.tobytes()
                    got.append((view.window_start, view.values.tobytes()))
        except InputError as exc:
            got.append(str(exc))
    expected = []
    for event, cat_s, cat_e in cases:
        try:
            series = soft_label(event, cat_s, cat_e, _padded_window(event, cat_s, cat_e, pad))
        except InputError as exc:
            expected.append(str(exc))
            break
        expected.append((series.window_start, series.values.tobytes()))
    assert got == expected


# Record 2 of the four in `test_label_grids_errors_match_per_record` spans
# minutes [2980, 3180), its ramps [3015, 3045] and [3115, 3145] (period 30),
# and its hard span [3040, 3120). Each corruption breaks one check.


def _span_starts_before_window(lo, hi, periods, span):
    span[2, 0] = lo[2] - 10


def _span_ends_before_start(lo, hi, periods, span):
    span[2] = span[2, ::-1]


def _span_ends_after_window(lo, hi, periods, span):
    span[2, 1] = hi[2] + 10


def _window_is_empty(lo, hi, periods, span):
    hi[2] = lo[2]


def _window_cuts_start_ramp(lo, hi, periods, span):
    lo[2] += 40


def _window_cuts_end_ramp(lo, hi, periods, span):
    hi[2] -= 40


def _start_period_below_one_minute(lo, hi, periods, span):
    periods[2, 0] = 0.9


def _soft_per_record(centers, periods, k, window):
    """Record k's soft series through the per-record functions, with ramps
    of half its periods."""
    (center_s, center_e), (period_s, period_e) = centers[k].tolist(), periods[k].tolist()
    return soft_series(
        BoundaryDistribution(center_s, period_s / 2),
        BoundaryDistribution(center_e, period_e / 2),
        window,
    )


def _per_record(lo, hi, centers, periods, span, k):
    """Record k's soft and hard values, through the per-record functions in
    the order `label_grids` rebuilds a failing record with."""
    window = TimeWindow(lo[k].item(), hi[k].item())
    hard = hard_series(*span[k].tolist(), window)
    soft = _soft_per_record(centers, periods, k, window)
    return soft.values.tobytes(), hard.values.tobytes()


_RAMPS = "ramps [3015.0, 3045.0] and [3115.0, 3145.0]"


@pytest.mark.parametrize("block", [1, labels._GRID_RECORDS])
@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(
            _span_starts_before_window,
            "window [2980, 3180) does not cover [2970, 3120)",
            id="does not cover",
        ),
        pytest.param(
            _span_ends_before_start,
            "end must not precede start, got start=3120 end=3040",
            id="end before start",
        ),
        pytest.param(
            _span_ends_after_window,
            "window [2980, 3180) does not cover [3040, 3190)",
            id="span ends after window",
        ),
        pytest.param(
            _window_is_empty,
            "window end must exceed start, got [2980, 2980)",
            id="window end must exceed",
        ),
        pytest.param(
            _window_cuts_start_ramp,
            f"window [3020, 3180) too small for {_RAMPS}",
            id="window cuts start ramp",
        ),
        pytest.param(
            _window_cuts_end_ramp,
            f"window [2980, 3140) too small for {_RAMPS}",
            id="window cuts end ramp",
        ),
        pytest.param(
            _start_period_below_one_minute,
            "half-width below 0.5 is finer than the 1-minute grid, got 0.45",
            id="start period below one minute",
        ),
    ],
)
def test_label_grids_errors_match_per_record(corrupt, message, block):
    # four records a day apart; the third is corrupted
    lo = np.arange(4) * 1440 + 100
    hi = lo + 200
    centers = np.stack([lo + 50, lo + 150], axis=1) + 0.0
    periods = np.full((4, 2), 30.0)
    span = np.stack([lo + 60, lo + 140], axis=1)
    corrupt(lo, hi, periods, span)
    got = []
    with mock.patch.object(labels, "_GRID_RECORDS", block):
        with pytest.raises(InputError) as raised:
            for grid in labels.label_grids(lo, hi, centers, periods, (span,)):
                for k, (a, b) in zip(grid.records, grid.segments()):
                    got.append((k, grid.soft[a:b].tobytes(), grid.hard[0][a:b].tobytes()))
    assert got == [(k, *_per_record(lo, hi, centers, periods, span, k)) for k in range(2)]
    with pytest.raises(InputError) as per_record:
        _per_record(lo, hi, centers, periods, span, 2)
    assert str(raised.value) == str(per_record.value) == message


_NAN_VALUES = "label values must lie in [0, 1]"


@pytest.mark.parametrize("block", [1, labels._GRID_RECORDS])
@pytest.mark.parametrize(
    "center, period, error",
    [
        pytest.param((np.nan, 150.0), (30.0, 30.0), _NAN_VALUES, id="nan centre"),
        pytest.param((50.0, 150.0), (30.0, np.nan), _NAN_VALUES, id="nan half-width"),
        # an infinite centre alone leaves the ramp at 0 or 1: no error
        pytest.param((np.inf, 150.0), (30.0, 30.0), None, id="inf start centre"),
        pytest.param((50.0, -np.inf), (30.0, 30.0), None, id="-inf end centre"),
        # an infinite period spreads a ramp over all time, past any window ...
        pytest.param(
            (50.0, -1e308),
            (30.0, np.inf),
            "window [2980, 3180) too small for ramps [3015.0, 3045.0] and [-inf, inf]",
            id="overflowing end ramp",
        ),
        # ... or, where the bound the window is checked against is inf - inf,
        # NaN at every slot
        pytest.param((50.0, -np.inf), (30.0, np.inf), _NAN_VALUES, id="-inf centre, inf period"),
        pytest.param(
            (np.inf, 150.0), (np.inf, 30.0), _NAN_VALUES, id="inf centre, overflowing width"
        ),
    ],
)
def test_label_grids_non_finite_ramps_match_per_record(center, period, error, block):
    # four records a day apart; the third has the given ramps
    lo = np.arange(4) * 1440 + 100
    hi = lo + 200
    centers = np.stack([lo + 50, lo + 150], axis=1) + 0.0
    periods = np.full((4, 2), 30.0)
    centers[2] = lo[2] + np.array(center)
    periods[2] = period
    got = []
    with mock.patch.object(labels, "_GRID_RECORDS", block), np.errstate(all="ignore"):
        try:
            for grid in labels.label_grids(lo, hi, centers, periods):
                for k, (a, b) in zip(grid.records, grid.segments()):
                    got.append((k, grid.soft[a:b].tobytes()))
        except InputError as exc:
            got.append(str(exc))
        expected = []
        for k in range(4):
            try:
                soft = _soft_per_record(centers, periods, k, TimeWindow(lo[k].item(), hi[k].item()))
            except InputError as exc:
                expected.append(str(exc))
                break
            expected.append((k, soft.values.tobytes()))
    assert got == expected
    assert len(got) == (4 if error is None else 3)
    if error is not None:
        assert got[-1] == error


def _one_grid(n=3):
    """The single grid of `n` records a day apart."""
    lo = np.arange(n) * 1440 + 100
    centers = np.stack([lo + 50, lo + 150], axis=1) + 0.0
    (grid,) = labels.label_grids(lo, lo + 200, centers, np.full((n, 2), 30.0))
    return grid


def test_grid_soft_labels_are_read_only_views():
    grid = _one_grid()
    for series in grid.soft_labels():
        assert np.shares_memory(series.values, grid.soft)
        with pytest.raises(ValueError, match="read-only"):
            series.values[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        grid.soft[0] = 0.5


@pytest.mark.parametrize("bad", [np.nan, -1e-300, 1 + 2**-52])
def test_grid_soft_values_outside_unit_interval_raise_the_series_error(bad):
    def leaving(*args):
        values = soft_values(*args)
        values[len(values) // 2] = bad
        return values

    with pytest.raises(InputError) as per_series:
        labels.LabelSeries(0, np.array([0.5, bad]))
    with mock.patch.object(labels, "soft_values", leaving), pytest.raises(InputError) as grid:
        _one_grid()
    assert str(grid.value) == str(per_series.value) == "label values must lie in [0, 1]"
