"""Synthetic benchmarks: generate events, round them like an annotator would,
and score the resulting hard and soft labels against the known ground truth.

The traffic is fixed: one true event per day, 20 to 90 minutes long, kept
46 minutes from either midnight, so that the widest ramp (30 minutes) and
the ±15-minute boundary band fit inside its day. `generate_events` returns
a sweep point's true and annotated events as two (events, 2) arrays.

Three experiments:

* MSE sweep: per annotation resolution, mean squared label error within
  ±15 minutes of the true boundaries, hard vs soft.
* F1 sweep: per resolution and bias, micro-averaged F1 of hard and soft
  labels against the true hard labels. When a bias was injected, the soft
  boundary ramps are re-centered by that known offset before sampling — the
  experiment knows the offset it applied, and the hard labels keep the raw
  biased annotations, which is exactly the contrast being measured.
* Category error rate: per true category, how often the per-annotation MAP
  category is wrong as the number of annotations grows.

Every experiment infers categories through the inference module rather than
reusing the resolution it simulated with, so the full pipeline is exercised.
Like the posteriors, each takes a `CategoryCatalog` and a `SwitchModel`,
defaulting to the default catalogue and `SwitchModel()`.
All randomness flows from per-run derived seeds (never a shared stream), so
rerunning any experiment with the same seed reproduces it bit for bit.

The MSE and F1 sweeps build the truth, hard and soft labels of a sweep
point with `labels.label_grids`, the flat label grid that `soft-labels`
uses too; this module only chooses each event's window and bias-shifted
ramp centers. Each event is scored as one segment of that grid by
`evaluation.segment_boundary_mse` and `evaluation.segment_confusion`, where
the summation rule lives, so the tables are exactly those of scoring event
by event. The error-rate sweep seeds every trial from
(seed, 30, period, n, trial), as uint32 words, and each trial draws exactly
what its own `SeedSequence`-seeded NumPy generator would. Those draws are
computed for all trials of one annotation count at once, with NumPy's
seeding, PCG64 and bounded-integer steps written as array arithmetic, and
a trial whose draw NumPy would reject and redraw is drawn by NumPy itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .catalog import DEFAULT_PERIODS, MINUTES_PER_DAY, MINUTES_PER_HOUR, CategoryCatalog
from .errors import ConfigError
from .evaluation import (
    BOUNDARY_HALFWIDTH,
    SoftConfusionMatrix,
    f1,
    segment_boundary_mse,
    segment_confusion,
)
from .inference import SwitchModel, _category_tables, _habit_probs, boundary_periods
from .labels import label_grids

# The defaults of the experiments and of the `simulate` command alike.
DEFAULT_EVENTS = 200
DEFAULT_TRIALS = 300
DEFAULT_RESOLUTIONS = (1, 5, 10, 15, 30)
DEFAULT_BIASES = (0.0, 0.5)
DEFAULT_N_SWEEP = (1, 2, 5, 10, 20, 50, 100)


# The simulated traffic: one event a day, 20 to 90 minutes long, at least
# PLACEMENT_MARGIN minutes from midnight: room for the widest ramp (the
# coarsest default period), the ±BOUNDARY_HALFWIDTH-minute band the MSE
# sweep scores, and one slot. The margin also pads each event's label window.
DURATION_RANGE = (20, 90)
PLACEMENT_MARGIN = DEFAULT_PERIODS[0] + BOUNDARY_HALFWIDTH + 1


@dataclass(frozen=True)
class SimConfig:
    """One sweep point: the seed and number of events to draw, and how the
    annotator rounds them (resolution, and bias as a fraction of it)."""

    seed: int = 0
    n_events: int = DEFAULT_EVENTS
    resolution_minutes: int = 30
    bias_fraction: float = 0.0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.n_events < 1:
            raise ConfigError(f"n_events must be positive, got {self.n_events}")
        if not 0.0 <= self.bias_fraction < 1.0:
            raise ConfigError(f"bias fraction must be in [0, 1), got {self.bias_fraction}")
        if self.resolution_minutes < 1 or MINUTES_PER_HOUR % self.resolution_minutes != 0:
            raise ConfigError(f"resolution must divide 60, got {self.resolution_minutes}")

    @property
    def bias_minutes(self) -> float:
        return self.bias_fraction * self.resolution_minutes


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def _seed_words(*values: int) -> np.ndarray:
    """The uint32 entropy `np.random.SeedSequence` makes of a list of ints:
    each int in little-endian 32-bit words, 0 as one zero word."""
    words = []
    for value in map(int, values):
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64
# multiplier (numpy/random/src/pcg64), whose bit streams NEP 19 keeps stable.
# Constants are Python ints below 2**64: mixed with a uint32 or uint64 array
# they keep the array's dtype, which wraps silently, as the C code does.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _hash_keys(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pairs of `count` successive SeedSequence hashes:
    each xors with the running constant, advances it, then multiplies."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return list(zip(consts, consts[1:]))


def _hashed(value: np.ndarray, key: tuple[int, int]) -> np.ndarray:
    """SeedSequence's `hashmix` of uint32 words with one hash's key."""
    xor, mult = key
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's `mix` of two uint32 word arrays."""
    value = x * _MIX_MULT_L - y * _MIX_MULT_R
    return value ^ (value >> 16)


def _seeded_integers(words: np.ndarray, high: np.ndarray, n: int) -> np.ndarray:
    """Row r is `np.random.default_rng(np.random.SeedSequence(words[r]))
    .integers(0, high[r], size=n)`, for (rows, width) uint32 `words` and
    (rows,) bounds of at least 1.

    SeedSequence's pool and `generate_state(4, uint64)`, PCG64's seeding and
    XSL-RR output, and Generator.integers' Lemire draw on each 32-bit half
    of an output (low half first) run as array arithmetic, one output at a
    time, with the 128-bit LCG state held as (hi, lo) uint64 halves. A row
    in which Lemire would reject a draw (every row whose bound exceeds
    2**32) is drawn by NumPy itself, so every row is exact.
    """
    rows, width = words.shape
    high = np.asarray(high, dtype=np.uint64)

    # SeedSequence(row).pool: the first words, then every pool word mixed
    # into every other, then each further word into every pool word
    keys = iter(_hash_keys(_INIT_A, _MULT_A, _POOL_SIZE * max(_POOL_SIZE, width)))
    zero = np.zeros(rows, dtype=np.uint32)
    pool = [_hashed(words[:, i] if i < width else zero, next(keys)) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mixed(pool[dst], _hashed(pool[src], next(keys)))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mixed(pool[dst], _hashed(words[:, src], next(keys)))

    # generate_state(4, uint64): eight hashed pool words, paired little-endian
    state = [
        _hashed(pool[i % _POOL_SIZE], key).astype(np.uint64)
        for i, key in enumerate(_hash_keys(_INIT_B, _MULT_B, 8))
    ]
    seed_hi, seed_lo, inc_hi, inc_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc_hi, inc_lo = inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1

    m0, m1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32

    def step(hi, lo):
        """state * multiplier + increment mod 2**128; the high word of
        lo * _PCG_MULT_LO comes from its four 32-bit partial products."""
        a0, a1 = lo & _MASK32, lo >> 32
        p01, p10 = a0 * m1, a1 * m0
        mid = (a0 * m0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
        carry = a1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
        new_lo = lo * _PCG_MULT_LO + inc_lo
        new_hi = carry + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi + (new_lo < inc_lo)
        return new_hi, new_lo

    # seeding: the state starts at the increment, adds the seed, then steps
    lo = inc_lo + seed_lo
    hi, lo = step(inc_hi + seed_hi + (lo < inc_lo), lo)

    # Lemire rejects a draw whose low word is below 2**32 % high; past 2**32
    # that is 2**32, so every such row is rejected and left to NumPy's
    # 64-bit draw
    threshold = (1 << 32) % high
    rejected = np.zeros(rows, dtype=bool)
    out = np.empty((rows, n), dtype=np.int64)
    for col in range(0, n, 2):
        hi, lo = step(hi, lo)
        bits, rot = hi ^ lo, hi >> 58
        bits = bits >> rot | bits << (64 - rot & 63)
        for j, half in ((col, bits & _MASK32), (col + 1, bits >> 32)):
            if j < n:
                scaled = half * high
                rejected |= (scaled & _MASK32) < threshold
                out[:, j] = scaled >> 32
    for r in np.flatnonzero(rejected):
        rng = np.random.default_rng(np.random.SeedSequence(words[r]))
        out[r] = rng.integers(0, int(high[r]), size=n)
    return out


def round_to_resolution(t, resolution: int):
    """Nearest multiple of `resolution`; exact midpoints round up. Arrays
    round element-wise to int64; a scalar gives an int."""
    out = np.floor(np.divide(t, resolution) + 0.5).astype(np.int64) * resolution
    return int(out) if out.ndim == 0 else out


def annotate(true_time, resolution: int, bias_minutes: float = 0.0):
    """Apply the offset first, then round — the annotator's recalled time.
    Broadcasts like `round_to_resolution`."""
    return round_to_resolution(np.add(true_time, bias_minutes), resolution)


def generate_events(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Draw one true event per day and round it like an annotator would.

    Returns two (n_events, 2) int64 arrays of absolute start and end
    minutes: `truth`, then `annotated`. Event i falls on day i, its duration
    drawn from DURATION_RANGE, then its start so that it keeps
    PLACEMENT_MARGIN minutes from either midnight.
    """
    rng = _rng(config.seed, 1)
    dmin, dmax = DURATION_RANGE
    truth = np.empty((config.n_events, 2), dtype=np.int64)
    for day in range(config.n_events):
        dur = int(rng.integers(dmin, dmax + 1))
        start = int(rng.integers(PLACEMENT_MARGIN, MINUTES_PER_DAY - PLACEMENT_MARGIN - dur + 1))
        start += day * MINUTES_PER_DAY
        truth[day] = start, start + dur
    return truth, annotate(truth, config.resolution_minutes, config.bias_minutes)


def _label_grids(config: SimConfig, tag: int, catalog: CategoryCatalog, model: SwitchModel):
    """One sweep point's true events, seeded from (config.seed, `tag`,
    resolution), and their label grids, with the truth, then the annotation,
    as hard labels.

    Event i's window is [min(true, annotated) start - pad, max(true,
    annotated) end + pad), pad being PLACEMENT_MARGIN. Soft ramps are
    centered on the annotation minus the injected bias: the simulator knows
    the offset it added, and removing it restores the zero-mean rounding the
    soft label's uniform ramp is built to cover.
    """
    seed = _derived_seed(config.seed, tag, config.resolution_minutes)
    truth, annotated = generate_events(replace(config, seed=seed))
    half_widths = boundary_periods(annotated, catalog, model) / 2.0
    lo = np.minimum(truth[:, 0], annotated[:, 0]) - PLACEMENT_MARGIN
    hi = np.maximum(truth[:, 1], annotated[:, 1]) + PLACEMENT_MARGIN
    centers = annotated - config.bias_minutes
    return truth, label_grids(lo, hi, centers, half_widths, (truth, annotated))


def run_mse_experiment(
    base: SimConfig,
    resolutions=DEFAULT_RESOLUTIONS,
    catalog: CategoryCatalog | None = None,
    model: SwitchModel | None = None,
) -> list[dict]:
    """Boundary-window MSE of hard and soft labels vs truth, per resolution."""
    catalog, model = catalog or CategoryCatalog.default(), model or SwitchModel()
    rows = []
    for res in resolutions:
        config = replace(base, resolution_minutes=res)  # checks res before it seeds
        truth, grids = _label_grids(config, 10, catalog, model)
        scores = []
        for grid in grids:
            r, p = grid.hard  # truth, annotation
            differences = (r - p, r - grid.soft)
            scores.append(
                segment_boundary_mse(
                    grid.minutes, grid.offsets, truth[grid.records], differences, BOUNDARY_HALFWIDTH
                )
            )
        hard_scores, soft_scores = np.concatenate(scores, axis=1)
        rows.append(
            {
                "resolution_minutes": res,
                "bias_fraction": config.bias_fraction,
                "n_events": config.n_events,
                "mse_hard": float(np.mean(hard_scores)),
                "mse_soft": float(np.mean(soft_scores)),
            }
        )
    return rows


def run_f1_experiment(
    base: SimConfig,
    resolutions=DEFAULT_RESOLUTIONS,
    bias_fractions=DEFAULT_BIASES,
    catalog: CategoryCatalog | None = None,
    model: SwitchModel | None = None,
) -> list[dict]:
    """Micro-averaged F1 of hard and soft labels vs truth, per resolution and bias.

    The same true events are reused across bias settings of one resolution,
    so bias is the only thing that changes between those rows. Confusion
    counts are added event by event, in event order.
    """
    catalog, model = catalog or CategoryCatalog.default(), model or SwitchModel()
    rows = []
    for res in resolutions:
        for bias in bias_fractions:
            config = replace(base, resolution_minutes=res, bias_fraction=bias)
            truth, grids = _label_grids(config, 20, catalog, model)
            cells = []
            for grid in grids:
                r, p = grid.hard  # truth, annotation
                cells += [segment_confusion(r, x, grid.offsets) for x in (p, grid.soft)]
            # a running sum, not a pairwise one: counts add up one event at a time
            hard, soft = (np.cumsum(np.hstack(cells[i::2]), axis=1)[:, -1] for i in (0, 1))
            rows.append(
                {
                    "resolution_minutes": res,
                    "bias_fraction": bias,
                    "n_events": config.n_events,
                    "f1_hard": f1(SoftConfusionMatrix(*hard.tolist())),
                    "f1_soft": f1(SoftConfusionMatrix(*soft.tolist())),
                }
            )
    return rows


def run_error_rate_experiment(
    seed: int = 0,
    n_values=DEFAULT_N_SWEEP,
    trials: int = DEFAULT_TRIALS,
    catalog: CategoryCatalog | None = None,
    model: SwitchModel | None = None,
) -> list[dict]:
    """MAP category error rate vs number of annotations, per catalogue category.

    Each trial draws annotation minutes uniformly from the true category's
    member set, runs the posterior, and counts per-annotation MAP mistakes.
    Trial t of a point draws from `_rng(seed, 30, period, n, t)`, so order
    never matters; its seed words are the point's words with t appended.
    The draws of every trial of every category for one n are computed in
    one `_seeded_integers` pass, which gives each trial exactly what its own
    generator would. The trials of one (period, n) point share one batched
    posterior call: a trial is its minute histogram, and every annotation at
    minute m has the MAP category of table row m.
    """
    catalog, model = catalog or CategoryCatalog.default(), model or SwitchModel()
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    if any(n < 1 for n in n_values):
        raise ConfigError(f"annotation counts must be positive, got {tuple(n_values)}")
    members = [np.array(sorted(cat.members)) for cat in catalog]
    bounds = np.repeat([len(m) for m in members], trials)
    first_slot = MINUTES_PER_HOUR * np.arange(trials)[:, None]
    errors = {}
    for n in n_values:
        # category i's trials are rows i * trials to (i + 1) * trials - 1
        points = [_seed_words(seed, 30, cat.period_minutes, n) for cat in catalog]
        words = np.empty((len(bounds), len(points[0]) + 1), dtype=np.uint32)
        words[:, :-1] = np.repeat(points, trials, axis=0)
        words[:, -1] = np.tile(np.arange(trials), len(catalog))
        draws = np.split(_seeded_integers(words, bounds, n), len(catalog))
        for index, (cat_members, cat_draws) in enumerate(zip(members, draws)):
            slots = cat_members[cat_draws] + first_slot
            counts = np.bincount(slots.ravel(), minlength=trials * MINUTES_PER_HOUR)
            counts = counts.reshape(trials, MINUTES_PER_HOUR)
            habit = _habit_probs(counts, catalog, model)
            _, map_index = _category_tables(habit, catalog, model)
            errors[index, n] = int((counts * (map_index != index)).sum())
    return [
        {
            "category_period": cat.period_minutes,
            "n_annotations": n,
            "trials": trials,
            "error_rate": errors[index, n] / (trials * n),
        }
        for index, cat in enumerate(catalog)
        for n in n_values
    ]


def _derived_seed(base_seed: int, experiment_tag: int, *tags: int) -> int:
    """Stable 63-bit seed for one run, independent of sweep order."""
    ss = np.random.SeedSequence([int(base_seed), int(experiment_tag), *map(int, tags)])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)
