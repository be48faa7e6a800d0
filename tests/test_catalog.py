import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempolabel import CategoryCatalog, ConfigError, InputError, ResolutionCategory

DIVISORS_OF_60 = [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]


def test_default_catalog_shape(catalog):
    assert catalog.periods == (30, 15, 10, 5, 1)
    assert len(catalog) == 5
    assert catalog[0].members == frozenset({0, 30})
    assert catalog[1].members == frozenset({0, 15, 30, 45})
    assert catalog[2].members == frozenset({0, 10, 20, 30, 40, 50})
    assert catalog[3].size == 12
    assert catalog[4].members == frozenset(range(60))


def test_member_formula():
    for period in DIVISORS_OF_60:
        if period == 60:
            continue
        cat = ResolutionCategory(period_minutes=period)
        assert cat.members == frozenset(k * period for k in range(60 // period))
        assert cat.size == 60 // period


def test_contains_examples(catalog):
    assert catalog[0].contains(30) is True
    assert catalog[1].contains(17) is False
    assert catalog[4].contains(59) is True


def test_contains_rejects_bad_minute(catalog):
    with pytest.raises(InputError):
        catalog[0].contains(60)
    with pytest.raises(InputError):
        catalog[0].contains(-1)


def test_coarsest_containing_examples(catalog):
    assert catalog.coarsest_containing(30).period_minutes == 30
    assert catalog.coarsest_containing(45).period_minutes == 15
    assert catalog.coarsest_containing(7).period_minutes == 1


def test_coarsest_containing_is_maximal(catalog):
    for minute in range(60):
        hit = catalog.coarsest_containing(minute)
        assert hit.contains(minute)
        for cat in catalog:
            if cat.period_minutes > hit.period_minutes:
                assert not cat.contains(minute)


@given(
    st.sampled_from(DIVISORS_OF_60[:-1]),
    st.sampled_from(DIVISORS_OF_60[:-1]),
)
def test_members_nested_by_divisibility(p_a, p_b):
    a = ResolutionCategory(period_minutes=p_a)
    b = ResolutionCategory(period_minutes=p_b)
    if p_b % p_a == 0:
        assert b.members <= a.members


def test_invalid_periods_rejected():
    with pytest.raises(ConfigError):
        ResolutionCategory(period_minutes=7)
    with pytest.raises(ConfigError):
        ResolutionCategory(period_minutes=0)


def test_catalog_construction_rules():
    with pytest.raises(ConfigError):
        CategoryCatalog.from_periods((15, 30, 1))  # not decreasing
    with pytest.raises(ConfigError):
        CategoryCatalog.from_periods((30, 15))  # finest does not cover all minutes
    with pytest.raises(ConfigError):
        CategoryCatalog.from_periods(())
    custom = CategoryCatalog.from_periods((20, 5, 1))
    assert custom.periods == (20, 5, 1)


def test_catalog_is_hashable_and_iterable(catalog):
    assert len({catalog, CategoryCatalog.default()}) == 1
    assert [c.period_minutes for c in catalog] == [30, 15, 10, 5, 1]
