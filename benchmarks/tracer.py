"""Span tracing around the package's public functions, from outside the package.

A `Tracer` wraps each target function and rebinds every module attribute that
refers to it: the defining module, each `from ... import` site inside the
package (including the package root), the class attribute for methods, and
the callback of each CLI command. Spans (name, start, end, parent) are kept in
memory while a pass runs; self time is a span's duration minus the time its
direct children cover. `restore()` puts every original binding back.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _category_posterior_counts(args, kwargs, result):
    n_categories = len(result.catalog)
    return {
        "annotations": len(result),
        # size of the float64 (C, H, N) joint tensor the function builds,
        # computed from the shapes rather than measured
        "bytes_computed": n_categories * n_categories * len(result) * 8,
    }


@dataclass(frozen=True)
class Target:
    """A public function to wrap, and the counters it reports per call."""

    name: str  # metric prefix: layer, then the attribute path
    module: str  # defining module
    path: str  # attribute path in the defining module
    counters: tuple[str, ...] = ()
    count: Callable | None = None  # (args, kwargs, result) -> {counter: value}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _slots(args, kwargs, result):
    return {"slots": len(result)}


TARGETS = (
    Target("ingest.read_annotations_csv", "tempolabel.ingest", "read_annotations_csv",
           ("rows",), _rows),
    Target("ingest.read_sensor_csv", "tempolabel.ingest", "read_sensor_csv", ("rows",), _rows),
    Target("ingest.read_label_csv", "tempolabel.ingest", "read_label_csv", ("rows",), _rows),
    Target("ingest.write_label_csv", "tempolabel.ingest", "write_label_csv", ("rows",),
           lambda a, k, r: {"rows": len(_arg(a, k, 1, "series"))}),
    Target("ingest.write_json", "tempolabel.ingest", "write_json", ("bytes",),
           lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    Target("ingest.write_table_csv", "tempolabel.ingest", "write_table_csv"),
    Target("inference.habit_posterior", "tempolabel.inference", "habit_posterior",
           ("annotations",),
           lambda a, k, r: {"annotations": len(_arg(a, k, 0, "annotations"))}),
    Target("inference.category_posterior", "tempolabel.inference", "category_posterior",
           ("annotations", "bytes_computed"), _category_posterior_counts),
    Target("inference.CategoryPosterior.map_category", "tempolabel.inference",
           "CategoryPosterior.map_category"),
    Target("inference.CategoryPosterior.to_dict", "tempolabel.inference",
           "CategoryPosterior.to_dict"),
    Target("catalog.CategoryCatalog.coarsest_containing", "tempolabel.catalog",
           "CategoryCatalog.coarsest_containing"),
    Target("labels.soft_label", "tempolabel.labels", "soft_label"),
    Target("labels.soft_series", "tempolabel.labels", "soft_series", ("slots",), _slots),
    Target("labels.hard_series", "tempolabel.labels", "hard_series", ("slots",), _slots),
    Target("evaluation.soft_confusion", "tempolabel.evaluation", "soft_confusion", ("slots",),
           lambda a, k, r: {"slots": len(_arg(a, k, 0, "reference"))}),
    Target("evaluation.mse", "tempolabel.evaluation", "mse"),
    Target("evaluation.boundary_mse", "tempolabel.evaluation", "boundary_mse", ("events",),
           lambda a, k, r: {"events": len(_arg(a, k, 2, "events"))}),
    Target("evaluation.boundary_slot_mask", "tempolabel.evaluation", "boundary_slot_mask"),
    Target("hmm.fit_emissions", "tempolabel.hmm", "fit_emissions", ("iterations",),
           lambda a, k, r: {"iterations": r.n_iterations}),
    Target("hmm.viterbi", "tempolabel.hmm", "viterbi", ("slots",), _slots),
    Target("simulate.run_error_rate_experiment", "tempolabel.simulate",
           "run_error_rate_experiment"),
    Target("simulate.run_f1_experiment", "tempolabel.simulate", "run_f1_experiment"),
    Target("simulate.run_mse_experiment", "tempolabel.simulate", "run_mse_experiment"),
    Target("simulate.generate_events", "tempolabel.simulate", "generate_events"),
)

COUNTER_UNITS = {"bytes": "B", "bytes_computed": "B"}

CLI_COMMANDS = ("infer-habit", "soft-labels", "histogram", "simulate", "detect", "evaluate")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced pass yields, with its unit."""
    units = {}
    spans = [(t.name, t.counters) for t in TARGETS] + [(f"cli.{c}", ()) for c in CLI_COMMANDS]
    for name, counters in spans:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
        for counter in counters:
            units[f"{name}.{counter}"] = COUNTER_UNITS.get(counter, "count")
    units["hmm.fit_emissions.s_per_iter"] = "s"
    return units


# A span is a list [name, start, end, parent index or -1, counts or None]:
# cheaper to build than an object, which matters at ~300k spans per pass.
NAME, START, END, PARENT, COUNTS = range(5)


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=lambda: [-1])
    _restore: list = field(default_factory=list)

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target; call `restore()` to undo."""
        package = [m for n, m in list(sys.modules.items())
                   if n == "tempolabel" or n.startswith("tempolabel.")]
        for target in TARGETS:
            owner = sys.modules[target.module]
            *class_path, attr = target.path.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            traced = self._wrap(target.name, original, target.count)
            if class_path:
                self._rebind(owner, attr, traced)
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, traced)
        commands = sys.modules["tempolabel.cli"].main.commands
        for command in CLI_COMMANDS:
            cmd = commands[command]
            self._rebind(cmd, "callback", self._wrap(f"cli.{command}", cmd.callback, None))

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def clear(self):
        self.spans.clear()


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def aggregate(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced pass: self time, calls and counters."""
    units = layer_metric_units()
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        totals[f"{name}.self_s"] += own
        totals[f"{name}.calls"] += 1
        for key, value in (span[COUNTS] or {}).items():
            totals[f"{name}.{key}"] += value
    out = {name: totals.get(name, 0.0) for name in units}
    for name, unit in units.items():
        if unit != "s":
            out[name] = int(out[name])
    iterations = out["hmm.fit_emissions.iterations"]
    out["hmm.fit_emissions.s_per_iter"] = (
        out["hmm.fit_emissions.self_s"] / iterations if iterations else 0.0
    )
    return out


def command_accounting(spans: list) -> dict[str, dict[str, float]]:
    """Per CLI command span: its duration and the self times of its subtree.

    Self times telescope, so the subtree sum equals the span up to rounding;
    a gap would mean a span was left open or mis-parented.
    """
    own = self_times(spans)
    root_of = []
    for i, span in enumerate(spans):
        root_of.append(i if span[PARENT] < 0 else root_of[span[PARENT]])
    subtree = defaultdict(float)
    for i, value in enumerate(own):
        subtree[root_of[i]] += value
    out = {}
    for i, span in enumerate(spans):
        if span[PARENT] < 0 and span[NAME].startswith("cli."):
            out[span[NAME][4:]] = {
                "span_s": span[END] - span[START],
                "self_sum_s": subtree[i],
                "cli_self_s": own[i],
            }
    return out


def write_spans(path, spans: list):
    """Spans as CSV, times in seconds from the first span's start."""
    origin = spans[0][START] if spans else 0.0
    with open(path, "w") as handle:
        handle.write("index,name,start_s,end_s,parent\n")
        for i, s in enumerate(spans):
            handle.write(
                f"{i},{s[NAME]},{s[START] - origin:.9f},{s[END] - origin:.9f},{s[PARENT]}\n"
            )
