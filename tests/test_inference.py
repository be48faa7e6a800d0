import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempolabel import (
    AnnotationSet,
    CategoryCatalog,
    CategoryPosterior,
    ConfigError,
    HabitPosterior,
    InputError,
    SwitchModel,
    boundary_periods,
    category_posterior,
    habit_posterior,
    likelihood,
    switch_prob,
)
from tempolabel.inference import (
    _class_counts,
    _habit_log_joint,
    _habit_probs,
    _minute_model,
    _minute_tables,
    annotator_posteriors,
)

from .oracles import enumerate_joint, enumerate_posteriors

# habit posterior for a single annotation at minute 0, default catalogue and
# delta=0.1; frozen from the enumeration oracle
SINGLE_ZERO_HABIT = (
    0.4553278688524590,
    0.2401639344262295,
    0.1684426229508197,
    0.0967213114754098,
    0.0393442622950820,
)


def test_likelihood_values(catalog):
    assert likelihood(catalog[0], 30) == 0.5
    assert likelihood(catalog[3], 25) == 1.0 / 12.0
    assert likelihood(catalog[1], 20) == 0.0


def test_switch_prob_values(catalog, model):
    assert switch_prob(model, catalog[0], catalog[0], 5) == pytest.approx(0.9)
    assert switch_prob(model, catalog[0], catalog[1], 5) == pytest.approx(0.025)
    assert switch_prob(SwitchModel(0.0), catalog[0], catalog[1], 5) == 0.0


def test_switch_prob_single_category_catalogue(catalog, model):
    with pytest.raises(ConfigError):
        switch_prob(model, catalog[0], catalog[1], 1)


def test_delta_validation():
    with pytest.raises(ConfigError):
        SwitchModel(delta=1.5)
    with pytest.raises(ConfigError):
        SwitchModel(delta=-0.1)


def test_annotation_set_validation():
    with pytest.raises(InputError):
        AnnotationSet((60,))
    ann = AnnotationSet.from_timestamps((480, 510, 1445))
    assert ann.minutes == (0, 30, 5)


@pytest.mark.parametrize(
    "minutes, bad",
    [
        ((7.9, 30.2), "7.9"),
        ((7, 30.0), "30.0"),
        ((True,), "True"),
        ((7, np.True_), "np.True_"),
        (("7",), "'7'"),
        ((7, None), "None"),
        ((7, (1, 2)), "(1, 2)"),
        (np.array([7.0, 30.0]), "np.float64(7.0)"),
        (np.array([True]), "np.True_"),
    ],
)
def test_annotation_set_rejects_non_integer_minutes(minutes, bad):
    with pytest.raises(InputError, match=rf"^minute must be an integer, got {re.escape(bad)}$"):
        AnnotationSet(minutes)


@pytest.mark.parametrize(
    "minutes, bad", [((7, 60, -1), "60"), ((np.int8(-1),), "-1"), (iter([7, 60]), "60")]
)
def test_annotation_set_names_first_minute_out_of_range(minutes, bad):
    with pytest.raises(InputError, match=rf"^minute must be in 0\.\.59, got {bad}$"):
        AnnotationSet(minutes)


def test_annotation_set_accepts_numpy_integers():
    ann = AnnotationSet((np.int64(7), 30, np.uint8(59), np.int32(0)))
    assert ann.minutes == (7, 30, 59, 0)
    assert all(type(m) is int for m in ann.minutes)
    assert AnnotationSet(np.array([7, 30], dtype=np.uint16)).minutes == (7, 30)
    assert AnnotationSet(()).minutes == ()
    assert AnnotationSet.from_timestamps(np.array([61, 1439])).minutes == (1, 59)
    assert AnnotationSet.from_timestamps([]).minutes == ()
    assert AnnotationSet.from_timestamps((t for t in (61, 125))).minutes == (1, 5)


@pytest.mark.parametrize("stamps, bad", [((480, 510.5), "510.5"), ((True, 480), "True")])
def test_from_timestamps_rejects_non_integer_stamps(stamps, bad):
    with pytest.raises(InputError, match=rf"^timestamp must be an integer, got {re.escape(bad)}$"):
        AnnotationSet.from_timestamps(stamps)


def test_likelihood_and_contains_take_numpy_integers(catalog):
    assert likelihood(catalog[0], np.int64(30)) == 0.5
    assert catalog[0].contains(np.int64(30)) is True
    assert catalog[1].contains(np.uint8(17)) is False
    for bad in (True, np.True_, 30.0, "30"):
        with pytest.raises(InputError, match="minute must be an integer"):
            likelihood(catalog[0], bad)
        with pytest.raises(InputError, match="minute must be an integer"):
            catalog[0].contains(bad)


def test_empty_annotation_set_rejected(catalog, model):
    with pytest.raises(InputError):
        habit_posterior(AnnotationSet(()), catalog, model)


def test_single_annotation_habit_frozen_vector(catalog, model):
    hab = habit_posterior(AnnotationSet((0,)), catalog, model)
    np.testing.assert_allclose(hab.probs, SINGLE_ZERO_HABIT, atol=1e-12)
    assert hab.map_category().period_minutes == 30


def test_posteriors_copy_the_callers_arrays(catalog, model):
    post = category_posterior(AnnotationSet((0, 7)), catalog, model)
    probs = habit_posterior(AnnotationSet((0, 7)), catalog, model).probs.copy()
    table, map_index = post.table.copy(), post.map_index.copy()
    habit = HabitPosterior(catalog, probs)
    rows = CategoryPosterior(catalog, (0, 7), table, map_index)
    for mine, theirs in ((probs, habit.probs), (table, rows.table), (map_index, rows.map_index)):
        assert mine.flags.writeable and not theirs.flags.writeable
        assert not np.shares_memory(mine, theirs)


@pytest.mark.parametrize(
    "probs", [[np.nan] * 5, [0.5, 0.5, 0.0, 0.0, np.nan]], ids=["all-nan", "one-nan"]
)
def test_habit_posterior_rejects_nan(catalog, probs):
    with pytest.raises(InputError, match="^habit posterior must be a probability vector$"):
        HabitPosterior(catalog, probs)


def test_category_posterior_rejects_nan_row_at_annotated_minute(catalog, model):
    post = category_posterior(AnnotationSet((0, 7)), catalog, model)
    table = post.table.copy()
    table[7] = np.nan
    # an unannotated minute's row is not checked
    CategoryPosterior(catalog, (0,), table, post.map_index)
    with pytest.raises(InputError, match="^every category posterior row must sum to 1$"):
        CategoryPosterior(catalog, (0, 7), table, post.map_index)


def test_category_posterior_to_dict_is_one_entry_per_distinct_minute(catalog, model):
    minutes = (0, 7, 30, 7, 45, 13, 0, 59, 7)
    rows = category_posterior(AnnotationSet(minutes), catalog, model)
    report = rows.to_dict()
    assert set(report) == {"annotations", "table"}
    assert report["annotations"] == list(minutes)
    table = report["table"]
    assert set(table) == {str(m) for m in minutes}
    for i, m in enumerate(minutes):
        entry = table[str(m)]
        assert entry["probs"] == rows.table[m].tolist()
        assert math.isclose(sum(entry["probs"]), 1.0, abs_tol=1e-12)
        assert entry["map_period"] == rows.map_category(i).period_minutes


def test_twenty_half_hour_annotations_give_confident_habit(catalog, model):
    hab = habit_posterior(AnnotationSet((0, 30) * 10), catalog, model)
    assert hab.map_category().period_minutes == 30
    assert hab.probs[0] > 0.99


def test_no_switch_model_forces_compatible_habit(catalog):
    hab = habit_posterior(AnnotationSet((0, 16)), catalog, SwitchModel(0.0))
    np.testing.assert_array_equal(hab.probs, [0.0, 0.0, 0.0, 0.0, 1.0])


def test_habit_matches_oracle_single(catalog, model):
    expected, _ = enumerate_posteriors((0,))
    hab = habit_posterior(AnnotationSet((0,)), catalog, model)
    np.testing.assert_allclose(hab.probs, expected, atol=1e-12)


def test_category_rows_match_oracle(catalog, model):
    minutes = (0, 15, 7)
    ann = AnnotationSet(minutes)
    _, expected_rows = enumerate_posteriors(minutes)
    rows = category_posterior(ann, catalog, model)
    np.testing.assert_allclose(rows.table[list(minutes)], expected_rows, atol=1e-10)


def test_minute30_outlier_still_maps_finest(catalog, model):
    minutes = (7, 13, 22, 9, 41, 53, 1, 2, 3, 4, 6, 8, 11, 12, 14, 16, 17, 18, 19, 30)
    rows = category_posterior(AnnotationSet(minutes), catalog, model)
    assert rows.minutes[-1] == 30
    assert rows.map_category(19).period_minutes == 1


def test_confident_fine_habit_dominates_coarse_minutes(catalog, model):
    # an annotator established as 1-minute: entries landing on the coarse
    # grid still decode as 1-minute (0.9/60 beats 0.025/2)
    minutes = tuple(range(60))
    rows = category_posterior(AnnotationSet(minutes), catalog, model)
    for i, minute in enumerate(minutes):
        assert rows.map_category(i).period_minutes == 1, f"minute {minute}"


def test_zero_likelihood_exclusion(catalog, model):
    rows = category_posterior(AnnotationSet((7, 20, 45)), catalog, model)
    for i, minute in enumerate(rows.minutes):
        for ci, cat in enumerate(catalog):
            if not cat.contains(minute):
                assert rows.table[minute, ci] == 0.0


def test_rows_and_habit_sum_to_one(catalog, model):
    ann = AnnotationSet(tuple(range(0, 60, 3)))
    hab = habit_posterior(ann, catalog, model)
    rows = category_posterior(ann, catalog, model, habit=hab)
    assert abs(hab.probs.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(rows.table[list(ann.minutes)].sum(axis=1), 1.0, atol=1e-12)


def test_map_category_tie_breaks_coarse(catalog):
    def map_period(probs):
        return HabitPosterior(catalog, probs).map_category().period_minutes

    assert map_period((0.6, 0.2, 0.1, 0.05, 0.05)) == 30
    assert map_period((0.4, 0.4, 0.1, 0.05, 0.05)) == 30
    assert map_period((0.05, 0.05, 0.1, 0.4, 0.4)) == 5
    assert map_period((0.0, 0.0, 0.0, 1.0, 0.0)) == 5


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 59), min_size=1, max_size=40), st.randoms())
def test_habit_permutation_invariance(minutes, rnd):
    catalog = CategoryCatalog.default()
    model = SwitchModel()
    shuffled = list(minutes)
    rnd.shuffle(shuffled)
    a = habit_posterior(AnnotationSet(tuple(minutes)), catalog, model)
    b = habit_posterior(AnnotationSet(tuple(shuffled)), catalog, model)
    np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 59), min_size=1, max_size=20))
def test_duplicating_evidence_never_weakens_argmax(minutes):
    catalog = CategoryCatalog.default()
    model = SwitchModel()
    once = habit_posterior(AnnotationSet(tuple(minutes)), catalog, model)
    twice = habit_posterior(AnnotationSet(tuple(minutes) * 2), catalog, model)
    top = int(np.argmax(once.probs))
    assert twice.probs[top] >= once.probs[top] - 1e-12


def _counts(sets, catalog, model):
    """(B, K) class counts of the minute tuples in `sets`."""
    histograms = np.stack([AnnotationSet(minutes).histogram() for minutes in sets])
    return _class_counts(histograms, catalog, model)


def test_batched_tables_match_oracle(catalog, model):
    # the annotation sets acceptance criterion 2 enumerates, in one batch
    sets = [m for size in (1, 2, 3) for m in itertools.product((0, 7, 15, 30), repeat=size)]
    habit = _habit_probs(_counts(sets, catalog, model), catalog, model)
    table, map_index = _minute_tables(habit, catalog, model)
    assert table.shape == (len(sets), 60, len(catalog))
    assert map_index.shape == (len(sets), 60)
    for b, minutes in enumerate(sets):
        expected_habit, expected_rows = enumerate_posteriors(minutes)
        np.testing.assert_allclose(habit[b], expected_habit, rtol=0, atol=1e-10)
        np.testing.assert_allclose(table[b, list(minutes)], expected_rows, rtol=0, atol=1e-10)


@pytest.mark.parametrize("delta", [0.1, 0.3, 0.0])
def test_habit_log_joint_matches_enumerated_joint(catalog, delta):
    # at delta 0, a habit whose members miss an annotated minute has joint 0;
    # no whole row is 0, since the period-1 habit explains every minute set
    sets = [(), (0,), (7,), (0, 30), (15, 45, 0), (0, 7, 30), (1, 2, 3, 59)]
    model = SwitchModel(delta)
    scores = _habit_log_joint(_counts(sets, catalog, model), catalog, model)
    for b, minutes in enumerate(sets):
        joint, _ = enumerate_joint(minutes, delta=delta)
        with np.errstate(divide="ignore"):
            np.testing.assert_allclose(scores[b], np.log(joint), rtol=0, atol=1e-12)
        marginal = np.logaddexp.reduce(scores[b])
        assert marginal == pytest.approx(np.log(joint.sum()), rel=0, abs=1e-12)
    assert np.isneginf(scores).any() == (delta == 0)


def _exact_log_joint(minutes, catalog, delta):
    """log P(habit, minutes) per habit, from exact rationals: the joint is a
    `Fraction`, and its log is that of its numerator minus its denominator's."""
    delta, n = Fraction(delta), len(catalog)
    logs = []
    for habit in catalog:
        joint = Fraction(1, n)
        for minute in minutes:
            joint *= sum(
                ((1 - delta) if cat == habit else delta / (n - 1)) * Fraction(1, cat.size)
                for cat in catalog
                if cat.contains(minute)
            )
        logs.append(math.log(joint.numerator) - math.log(joint.denominator))
    return np.array(logs)


def test_habit_log_joint_stays_finite_at_a_subnormal_delta(catalog):
    # delta / 4 / 60 rounds to 0 at delta 5e-324, yet minutes 1, 2 and 3 stay
    # possible under every habit: the coarse ones switch to period 1
    model = SwitchModel(5e-324)
    scores = _habit_log_joint(_counts([(1, 2, 3)], catalog, model), catalog, model)[0]
    assert np.isfinite(scores).all()
    np.testing.assert_allclose(scores, _exact_log_joint((1, 2, 3), catalog, 5e-324), rtol=1e-9)
    assert scores[0] == pytest.approx(-2251.37157, abs=1e-5)


# sha256 of the (5, 5) little-endian habit posteriors of _PINNED_SETS, frozen
# before the log evidence of an underflowing switch was taken from logs
_PINNED_SETS = [(1, 2, 3), (0,), (0, 30), (15, 45, 0), (10, 20, 40, 50)]
_PINNED_HABITS = {
    5e-324: "40fa9ce9f1b8022fc5808f290035a9dda46ff50ccb2b61bcdd15107a21fb1851",
    1e-300: "40fa9ce9f1b8022fc5808f290035a9dda46ff50ccb2b61bcdd15107a21fb1851",
    0.1: "7ada6b54c0d5f4301ca5717760c5242c5e8664719976a85c7baa2d908cebb283",
}


@pytest.mark.parametrize("delta", sorted(_PINNED_HABITS))
def test_habit_posteriors_keep_their_bits_around_a_subnormal_delta(catalog, delta):
    model = SwitchModel(delta)
    probs = _habit_probs(_counts(_PINNED_SETS, catalog, model), catalog, model)
    data = np.ascontiguousarray(probs, dtype="<f8").tobytes()
    assert hashlib.sha256(data).hexdigest() == _PINNED_HABITS[delta]


def test_subnormal_habit_posteriors_match_exact_ones(catalog):
    # minutes 0 and 30 favour the coarse habits, which explain minute 7 only
    # by a switch: their posteriors are subnormal, not 0
    model = SwitchModel(5e-324)
    probs = _habit_probs(_counts([(0, 7, 30)], catalog, model), catalog, model)[0]
    exact = _exact_log_joint((0, 7, 30), catalog, 5e-324)
    expected = np.exp(exact - np.logaddexp.reduce(exact))
    assert np.all(probs[:4] > 0.0)
    np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-323)


def test_batch_equals_single_calls(catalog, model):
    # every sum is a fixed-order fold, so a batch row has its single call's bits
    rng = np.random.default_rng(5)
    sets = []
    for period in catalog.periods:
        for n in (1, 2, 7, 40, 100):
            sets.append(tuple(int(m) for m in rng.integers(0, 60 // period, size=n) * period))
    sets.append(tuple(range(60)))
    habit = _habit_probs(_counts(sets, catalog, model), catalog, model)
    table, map_index = _minute_tables(habit, catalog, model)
    pairs = annotator_posteriors([AnnotationSet(minutes) for minutes in sets], catalog, model)
    for b, (minutes, (batch_habit, batch_rows)) in enumerate(zip(sets, pairs)):
        ann = AnnotationSet(minutes)
        single_habit = habit_posterior(ann, catalog, model)
        single = category_posterior(ann, catalog, model, habit=single_habit)
        np.testing.assert_array_equal(habit[b], single_habit.probs)
        np.testing.assert_array_equal(table[b], single.table)
        np.testing.assert_array_equal(map_index[b], single.map_index)
        np.testing.assert_array_equal(batch_habit.probs, single_habit.probs)
        np.testing.assert_array_equal(batch_rows.table, single.table)
        np.testing.assert_array_equal(batch_rows.map_index, single.map_index)
        assert batch_rows.minutes == single.minutes
        assert [catalog[i] for i in map_index[b, list(minutes)]] == [
            single.map_category(i) for i in range(len(minutes))
        ]


def test_boundary_periods_of_many_annotators_equal_single_calls(catalog, model):
    rng = np.random.default_rng(7)
    sizes = (1, 4, 9, 2)
    groups = [np.sort(rng.integers(0, 5000, size=(n, 2)), axis=1) for n in sizes]
    groups[2][:, 0] -= groups[2][:, 0] % 15  # a quarter-hour starter
    owners = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))  # events interleaved
    stamps = np.empty((len(owners), 2), dtype=np.int64)
    for g, group in enumerate(groups):
        stamps[owners == g] = group
    periods = boundary_periods(stamps, catalog, model, owners)
    for g, group in enumerate(groups):
        np.testing.assert_array_equal(periods[owners == g], boundary_periods(group, catalog, model))


def test_unannotated_impossible_minutes_add_nothing(catalog):
    # with delta=0 most habits cannot produce most minutes; the minutes
    # nobody annotated must leave the habit scores untouched, not NaN
    minutes = (0, 30, 0, 15)
    hab = habit_posterior(AnnotationSet(minutes), catalog, SwitchModel(0.0))
    expected_habit, expected_rows = enumerate_posteriors(minutes, delta=0.0)
    np.testing.assert_allclose(hab.probs, expected_habit, rtol=0, atol=1e-12)
    rows = category_posterior(AnnotationSet(minutes), catalog, SwitchModel(0.0), habit=hab)
    np.testing.assert_allclose(rows.table[list(minutes)], expected_rows, rtol=0, atol=1e-12)


def test_rows_gather_the_minute_table(catalog, model):
    ann = AnnotationSet((7, 0, 7, 45, 30))
    post = category_posterior(ann, catalog, model)
    assert post.table.shape == (60, len(catalog))
    rows = post.table[list(ann.minutes)]  # one posterior row per annotation
    np.testing.assert_array_equal(post.map_index[list(ann.minutes)], np.argmax(rows, axis=1))
    assert post.map_category(0) is post.map_category(2)


def test_boundary_periods_match_per_annotation_map(catalog, model):
    stamps = np.array([[480, 510], [727, 745], [1440 + 15, 1440 + 52], [3000, 3007]])
    evidence = AnnotationSet.from_timestamps(stamps.ravel())
    post = category_posterior(evidence, catalog, model)
    expected = [post.map_category(i).period_minutes for i in range(len(evidence))]
    periods = boundary_periods(stamps, catalog, model)
    assert periods.shape == (4, 2)
    assert periods.ravel().tolist() == expected


def test_empty_histogram_in_batch_rejected(catalog, model):
    counts = np.zeros((2, 60), dtype=int)
    counts[0, 0] = 1
    with pytest.raises(InputError):
        _habit_probs(_class_counts(counts, catalog, model), catalog, model)


def test_single_category_catalogue_needs_no_switch_model():
    single = CategoryCatalog.from_periods((1,))
    ann = AnnotationSet((7, 30))
    assert habit_posterior(ann, single, SwitchModel(0.0)).probs.tolist() == [1.0]
    post = category_posterior(ann, single, SwitchModel(0.0))
    np.testing.assert_array_equal(post.table[list(ann.minutes)], 1.0)
    with pytest.raises(ConfigError):
        habit_posterior(ann, single, SwitchModel(0.1))


@st.composite
def _habit_case(draw):
    """A catalogue ending in period 1, a delta it admits and a non-empty
    minute histogram, as one annotator's minutes."""
    coarse = draw(st.sets(st.sampled_from((60, 30, 20, 15, 12, 10, 6, 5, 4, 3, 2)), max_size=5))
    catalog = CategoryCatalog.from_periods((*sorted(coarse, reverse=True), 1))
    delta = draw(st.floats(0.0, 1.0)) if len(catalog) > 1 else 0.0
    counts = draw(st.dictionaries(st.integers(0, 59), st.integers(1, 2000), min_size=1))
    minutes = np.repeat(list(counts), list(counts.values()))
    return catalog, SwitchModel(delta), AnnotationSet.from_timestamps(minutes)


@settings(deadline=None, max_examples=150)
@given(case=_habit_case())
def test_some_habit_always_explains_the_evidence(case):
    # period 1 admits every minute: with delta < 1 its own habit keeps it,
    # and with delta > 0 every other habit can switch to it
    catalog, model, evidence = case
    counts = _class_counts(evidence.histogram()[None, :], catalog, model)
    probs = _habit_probs(counts, catalog, model)[0]
    assert np.isfinite(probs).all()
    assert abs(probs.sum() - 1.0) < 1e-12
    rows = category_posterior(evidence, catalog, model)
    observed = rows.table[sorted(set(evidence.minutes))]
    np.testing.assert_allclose(observed.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@st.composite
def _class_case(draw):
    """A catalogue ending in period 1, nested (each period divides the one
    before) or not, a delta it admits, and one to three annotated minutes."""
    coarse = sorted(draw(st.sets(st.sampled_from((60, 30, 20, 15, 12, 10, 6, 5, 4, 3, 2)))))
    if draw(st.booleans()):
        nested = []
        for period in reversed(coarse):
            if not nested or nested[-1] % period == 0:
                nested.append(period)
        coarse = nested
    catalog = CategoryCatalog.from_periods((*sorted(coarse, reverse=True)[:5], 1))
    delta = draw(st.floats(0.0, 1.0)) if len(catalog) > 1 else 0.0
    minutes = tuple(draw(st.lists(st.integers(0, 59), min_size=1, max_size=3)))
    return catalog, delta, minutes


# deltas whose joint for habit 60 underflows in the oracle's linear space
@settings(deadline=None, max_examples=80)
@given(case=_class_case())
@example(case=(CategoryCatalog.from_periods((60, 1)), 2.0449917838814744e-243, (1, 1)))
@example(case=(CategoryCatalog.from_periods((60, 1)), 1.554721234286851e-279, (1, 1)))
@example(case=(CategoryCatalog.from_periods((60, 1)), 1.2668191722128486e-305, (1, 1)))
@example(case=(CategoryCatalog.from_periods((60, 1)), 1.1125369292536007e-308, (1, 1)))
def test_class_core_matches_minute_oracles_on_any_catalogue(case):
    catalog, delta, minutes = case
    model = SwitchModel(delta)
    minute_class = _minute_model(catalog, model)[0]
    columns = [tuple(likelihood(cat, m) for cat in catalog) for m in range(60)]
    # the minutes of a class have identical likelihood columns, and no two
    # classes share one
    for k in range(minute_class.max() + 1):
        assert len({columns[m] for m in np.flatnonzero(minute_class == k)}) == 1
    assert len(set(columns)) == minute_class.max() + 1
    counts = _counts([minutes], catalog, model)
    joint, _ = enumerate_joint(minutes, catalog.periods, delta)
    log_joint = _habit_log_joint(counts, catalog, model)[0]
    # the oracle sums in linear space, so below the smallest normal float its
    # joint has lost digits or underflowed to 0, while the core sums logs:
    # there the core's log joint need only lie below that bound too
    tiny = np.finfo(float).tiny
    normal = joint >= tiny
    np.testing.assert_allclose(log_joint[normal], np.log(joint[normal]), rtol=0, atol=1e-12)
    assert np.all(log_joint[~normal] < np.log(tiny))
    expected_habit, expected_rows = enumerate_posteriors(minutes, catalog.periods, delta)
    habit = _habit_probs(counts, catalog, model)
    table, _ = _minute_tables(habit, catalog, model)
    np.testing.assert_allclose(habit[0], expected_habit, rtol=0, atol=1e-10)
    np.testing.assert_allclose(table[0, list(minutes)], expected_rows, rtol=0, atol=1e-10)
