"""Annotation time-resolution categories.

A category describes the granularity an annotator rounds reported times to:
a period in minutes (which must divide 60) and the set of minutes-of-hour
that period admits. The default catalogue covers 30, 15, 10, 5 and 1 minute
periods, ordered coarsest first. The finest category must admit every minute
so that no observation is impossible under every category.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError

DEFAULT_PERIODS = (30, 15, 10, 5, 1)
MINUTES_PER_HOUR = 60
MINUTES_PER_DAY = 24 * MINUTES_PER_HOUR


def _is_integer(value) -> bool:
    """True for a Python or NumPy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only copy of `values`; the caller's array stays writable."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _check_minute(minute) -> int:
    if not _is_integer(minute):
        raise InputError(f"minute must be an integer, got {minute!r}")
    if not 0 <= minute <= 59:
        raise InputError(f"minute must be in 0..59, got {minute}")
    return int(minute)


@dataclass(frozen=True)
class ResolutionCategory:
    """One granularity level: a period and its admissible minutes-of-hour."""

    period_minutes: int
    members: frozenset[int] = field(init=False)

    def __post_init__(self):
        if self.period_minutes < 1 or MINUTES_PER_HOUR % self.period_minutes != 0:
            raise ConfigError(
                f"period must be a divisor of 60, got {self.period_minutes}"
            )
        members = frozenset(range(0, MINUTES_PER_HOUR, self.period_minutes))
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        """Number of admissible minutes-of-hour."""
        return len(self.members)

    def contains(self, minute: int) -> bool:
        """True iff `minute` is one of this category's admissible values."""
        return _check_minute(minute) in self.members


@dataclass(frozen=True)
class CategoryCatalog:
    """Ordered set of categories, strictly coarsest to finest.

    Construction enforces that periods strictly decrease and that the finest
    category admits every minute of the hour; otherwise some observed minute
    would have zero likelihood under every category and posteriors would be
    undefined.
    """

    categories: tuple[ResolutionCategory, ...]

    def __post_init__(self):
        if not self.categories:
            raise ConfigError("catalogue must contain at least one category")
        periods = [c.period_minutes for c in self.categories]
        if any(nxt >= prev for prev, nxt in zip(periods, periods[1:])):
            raise ConfigError(
                f"periods must be strictly decreasing (coarsest first), got {periods}"
            )
        if self.categories[-1].period_minutes != 1:
            raise ConfigError(
                "finest category must admit every minute (period 1), "
                f"got period {self.categories[-1].period_minutes}"
            )

    @classmethod
    def from_periods(cls, periods) -> "CategoryCatalog":
        return cls(categories=tuple(ResolutionCategory(int(p)) for p in periods))

    @classmethod
    def default(cls) -> "CategoryCatalog":
        return cls.from_periods(DEFAULT_PERIODS)

    def __len__(self) -> int:
        return len(self.categories)

    def __iter__(self):
        return iter(self.categories)

    def __getitem__(self, pos: int) -> ResolutionCategory:
        return self.categories[pos]

    @property
    def periods(self) -> tuple[int, ...]:
        return tuple(c.period_minutes for c in self.categories)

    def coarsest_containing(self, minute: int) -> ResolutionCategory:
        """The largest-period category admitting `minute`.

        Always resolves: the finest category admits every minute.
        """
        minute = _check_minute(minute)
        for cat in self.categories:
            if minute in cat.members:
                return cat
        raise AssertionError("unreachable: finest category admits all minutes")
