"""Annotator time-resolution inference and soft labels for time-series events.

The package turns hard start/end annotations of events into probabilistic
per-minute soft labels by inferring, per annotator, which time resolution
their reported minutes were rounded to. It also ships the evaluation
machinery (soft confusion matrices, boundary-window MSE), a seeded synthetic
benchmark suite, and a small Gaussian HMM detector used by the case-study
evaluation.
"""

from .catalog import DEFAULT_PERIODS, CategoryCatalog, ResolutionCategory
from .errors import (
    ConfigError,
    DegenerateModelError,
    InputError,
    ParseError,
    TempolabelError,
)
from .evaluation import (
    SoftConfusionMatrix,
    boundary_mse,
    boundary_slot_mask,
    f1,
    metrics_report,
    mse,
    precision,
    recall,
    soft_confusion,
)
from .hmm import HmmFit, HmmParams, SensorSeries, fit_emissions, viterbi
from .inference import (
    AnnotationSet,
    CategoryPosterior,
    HabitPosterior,
    SwitchModel,
    boundary_periods,
    category_posterior,
    habit_posterior,
    likelihood,
    switch_prob,
)
from .labels import (
    BoundaryDistribution,
    EventAnnotation,
    LabelSeries,
    TimeWindow,
    hard_series,
    soft_label,
    soft_series,
)
from .simulate import (
    annotate,
    generate_events,
    run_error_rate_experiment,
    run_f1_experiment,
    run_mse_experiment,
)

__version__ = "0.1.0"
