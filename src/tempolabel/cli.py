"""Command-line surface tying the modules together.

Subcommands: infer-habit, soft-labels, evaluate, simulate, detect,
histogram. Everything reads CSV/JSON and writes CSV/JSON; outputs embed the
effective configuration so reruns are traceable. Exit codes: 0 success,
2 usage or parse error, 3 numeric degeneracy.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from pathlib import Path
from urllib.parse import quote

import click
import numpy as np

from . import __version__
from .catalog import DEFAULT_PERIODS, MINUTES_PER_DAY, CategoryCatalog
from .errors import ConfigError, DegenerateModelError, InputError
from .evaluation import BOUNDARY_HALFWIDTH, boundary_mse, metrics_report, mse, soft_confusion
from .hmm import HmmParams, fit_emissions, viterbi
from .inference import (
    AnnotationSet,
    SwitchModel,
    boundary_periods,
    category_posterior,
    habit_posterior,
)
from .ingest import (
    read_annotations_csv,
    read_json,
    read_label_csv,
    read_sensor_csv,
    write_habit_report,
    write_json,
    write_label_csv,
    write_table_csv,
)
from .labels import LabelSeries, label_grids, padded_bounds
from .simulate import (
    DEFAULT_BIASES,
    DEFAULT_EVENTS,
    DEFAULT_N_SWEEP,
    DEFAULT_RESOLUTIONS,
    DEFAULT_TRIALS,
    run_error_rate_experiment,
    run_f1_experiment,
    run_mse_experiment,
)

EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InputError, ConfigError) as exc:  # ParseError subclasses InputError
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_USAGE)
        except DegenerateModelError as exc:
            click.echo(f"numeric degeneracy: {exc}", err=True)
            sys.exit(EXIT_DEGENERATE)
        except OSError as exc:  # unreadable input or unwritable output path
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_USAGE)
        except MemoryError as exc:  # a size option too large to allocate
            click.echo(f"error: {str(exc) or 'not enough memory'}", err=True)
            sys.exit(EXIT_USAGE)

    return wrapper


def _parse_list(text: str, kind) -> tuple:
    """The non-empty comma-separated list of `kind` (int or float) values in `text`."""
    try:
        values = tuple(kind(p.strip()) for p in text.split(",") if p.strip())
    except ValueError:
        values = ()
    if not values:
        what = "integers" if kind is int else "numbers"
        raise ConfigError(f"expected a comma-separated list of {what}, got {text!r}")
    return values


def _list_text(values) -> str:
    """`values` as the comma-separated text `_parse_list` reads."""
    return ",".join(str(p) for p in values)


def _catalog_from(text: str) -> CategoryCatalog:
    return CategoryCatalog.from_periods(_parse_list(text, int))


_CATALOG_OPT = click.option(
    "--catalog",
    "catalog_spec",
    default=_list_text(DEFAULT_PERIODS),
    show_default=True,
    help="Category periods in minutes, coarsest first.",
)
_DELTA_OPT = click.option(
    "--delta", default=SwitchModel.delta, show_default=True, help="Habit switch probability."
)


def _group_by_annotator(records) -> dict[str, tuple[list, np.ndarray]]:
    """Per annotator: its records in file order and their (events, 2) start
    and end minutes."""
    grouped: dict[str, list] = defaultdict(list)
    for rec in records:
        grouped[rec.annotator_id].append(rec)
    return {
        annotator_id: (recs, np.array([(rec.start, rec.end) for rec in recs]))
        for annotator_id, recs in grouped.items()
    }


@click.group()
@click.version_option(version=__version__, prog_name="tempolabel")
def main():
    """Annotation time-resolution inference, soft labels, and evaluation."""


@main.command("infer-habit")
@click.argument("annotations_csv", type=click.Path(exists=True, dir_okay=False))
@_DELTA_OPT
@_CATALOG_OPT
@click.option("--annotator", default=None, help="Only report this annotator.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guard
def infer_habit_cmd(annotations_csv, delta, catalog_spec, annotator, out):
    """Infer each annotator's habitual time resolution from a diary CSV."""
    catalog, model = _catalog_from(catalog_spec), SwitchModel(delta=delta)
    records = read_annotations_csv(annotations_csv)
    evidence = _group_by_annotator(records)
    if annotator is not None:
        try:  # argv arrives decoded in the locale's encoding, the diary as UTF-8
            annotator = os.fsencode(annotator).decode("utf-8", "surrogateescape")
        except UnicodeEncodeError:  # text the locale cannot encode is not from argv
            pass
        evidence = {k: v for k, v in evidence.items() if k == annotator}
        if not evidence:
            click.echo(f"warning: no rows for annotator {annotator!r}", err=True)
    posteriors = []
    for annotator_id in sorted(evidence):
        _, stamps = evidence[annotator_id]
        ann_set = AnnotationSet.from_timestamps(stamps.ravel())
        habit = habit_posterior(ann_set, catalog, model)
        posteriors.append(
            (annotator_id, habit, category_posterior(ann_set, catalog, model, habit=habit))
        )
    config = {"delta": model.delta, "catalog": list(catalog.periods)}
    write_habit_report(out, config, posteriors)
    click.echo(f"wrote {out} ({len(posteriors)} annotators)")


@main.command("soft-labels")
@click.argument("annotations_csv", type=click.Path(exists=True, dir_okay=False))
@_DELTA_OPT
@_CATALOG_OPT
@click.option("--pad", default=15, show_default=True, help="Extra minutes of window padding.")
@click.option("--out", type=click.Path(file_okay=False), required=True)
@_guard
def soft_labels_cmd(annotations_csv, delta, catalog_spec, pad, out):
    """Write one soft-label series CSV per annotated event."""
    if not 0 <= pad <= MINUTES_PER_DAY:
        raise ConfigError(f"pad must lie in [0, {MINUTES_PER_DAY}] minutes, got {pad}")
    catalog, model = _catalog_from(catalog_spec), SwitchModel(delta=delta)
    records = read_annotations_csv(annotations_csv)
    annotators = sorted(_group_by_annotator(records).items())
    # every annotator's MAP periods come first, so a config error leaves no --out
    map_periods = [boundary_periods(stamps, catalog, model) for _, (_, stamps) in annotators]
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    catalog_text = _list_text(catalog.periods)
    for (annotator_id, (recs, stamps)), periods in zip(annotators, map_periods):
        half_widths = periods / 2.0
        lo, hi = padded_bounds(*stamps.T, *half_widths.T, pad)
        # percent-escaped, so any id names files inside out_dir
        stem = str(out_dir / f"softlabel_{quote(annotator_id, safe='')}_")
        for grid in label_grids(lo, hi, stamps, half_widths):
            for k, (a, b) in zip(grid.records, grid.segments()):
                rec = recs[k]
                start_period, end_period = periods[k].tolist()
                config = {
                    "annotator_id": annotator_id,
                    "date": rec.date,
                    "event_kind": rec.event_kind,
                    "delta": model.delta,
                    "catalog": catalog_text,
                    "start_period": start_period,
                    "end_period": end_period,
                }
                series = LabelSeries(lo[k].item(), grid.soft[a:b])
                write_label_csv(f"{stem}{k:03d}.csv", series, config)
    click.echo(f"wrote {len(records)} label series to {out_dir}")


def _binary_boundaries(series: LabelSeries) -> list[tuple[int, int]]:
    """(start, end) pairs of the 1-runs of a binary series."""
    vals = series.values.astype(int)
    edges = np.diff(np.concatenate(([0], vals, [0])))
    starts = np.flatnonzero(edges == 1) + series.window_start
    ends = np.flatnonzero(edges == -1) + series.window_start
    return list(zip(starts.tolist(), ends.tolist()))


@main.command("evaluate")
@click.option("--labels", "labels_csv", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option(
    "--predictions", "predictions_csv", type=click.Path(exists=True, dir_okay=False), required=True
)
@click.option(
    "--boundary-window",
    default=BOUNDARY_HALFWIDTH,
    show_default=True,
    help="Half-width in minutes.",
)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--csv", "csv_out", type=click.Path(dir_okay=False), default=None)
@_guard
def evaluate_cmd(labels_csv, predictions_csv, boundary_window, out, csv_out):
    """Score a prediction series against a (possibly soft) label series."""
    if boundary_window <= 0:
        raise ConfigError("boundary window must be positive")
    reference = read_label_csv(labels_csv)
    prediction = read_label_csv(predictions_csv)
    hard_ref = LabelSeries(reference.window_start, (reference.values >= 0.5).astype(float))
    hard_pred = LabelSeries(prediction.window_start, (prediction.values >= 0.5).astype(float))
    payload = {
        "config": {
            "labels": str(labels_csv),
            "predictions": str(predictions_csv),
            "boundary_window": boundary_window,
            "n_slots": len(reference),
        },
        "hard": metrics_report(soft_confusion(hard_ref, hard_pred)),
        "soft": metrics_report(soft_confusion(reference, prediction)),
        "mse_full": mse(reference, prediction),
    }
    if reference.is_binary():
        events = _binary_boundaries(reference)
        if events:
            payload["mse_boundary"] = boundary_mse(
                reference,
                prediction,
                events,
                halfwidth=boundary_window,
            )
    write_json(out, payload)
    if csv_out:
        rows = _flatten_metrics(payload)
        write_table_csv(csv_out, rows)
    click.echo(f"wrote {out}")


def _flatten_metrics(payload: dict) -> list[dict]:
    rows = []
    config = {"boundary_window": payload["config"]["boundary_window"]}
    for kind in ("hard", "soft"):
        block = payload[kind]
        for entry, value in block["confusion"].items():
            if entry == "degenerate":
                continue
            rows.append({"metric": f"{kind}_{entry}", "value": float(value), **config})
        for metric in ("precision", "recall", "f1"):
            rows.append({"metric": f"{kind}_{metric}", "value": float(block[metric]), **config})
    rows.append({"metric": "mse_full", "value": float(payload["mse_full"]), **config})
    if "mse_boundary" in payload:
        rows.append({"metric": "mse_boundary", "value": float(payload["mse_boundary"]), **config})
    return rows


@main.command("simulate")
@click.option("--seed", default=0, show_default=True)
@click.option("--events", default=DEFAULT_EVENTS, show_default=True, help="Events per sweep point.")
@click.option(
    "--trials", default=DEFAULT_TRIALS, show_default=True, help="Trials per error-rate point."
)
@click.option(
    "--resolutions",
    default=_list_text(DEFAULT_RESOLUTIONS),
    show_default=True,
)
@click.option("--biases", default=",".join(f"{b:g}" for b in DEFAULT_BIASES), show_default=True)
@click.option(
    "--n-sweep",
    default=_list_text(DEFAULT_N_SWEEP),
    show_default=True,
    help="Annotation counts for the error-rate experiment.",
)
@_DELTA_OPT
@_CATALOG_OPT
@click.option(
    "--experiment",
    type=click.Choice(["all", "mse", "f1", "error-rate"]),
    default="all",
    show_default=True,
)
@click.option("--out", type=click.Path(file_okay=False), required=True)
@_guard
def simulate_cmd(
    seed, events, trials, resolutions, biases, n_sweep, delta, catalog_spec, experiment, out
):
    """Run the synthetic experiments and write their tables as CSV.

    Every requested table is computed before `--out` is created, so an
    invalid option exits 2 without leaving a partial result. Only the
    options the requested experiments read are checked.
    """
    catalog, model = _catalog_from(catalog_spec), SwitchModel(delta=delta)
    shared = {
        "seed": seed,
        "delta": model.delta,
        "catalog": _list_text(catalog.periods),
        "tool_version": __version__,
    }
    tables = {}  # file name -> rows and header config
    if experiment in ("all", "mse"):
        table = run_mse_experiment(seed, events, _parse_list(resolutions, int), catalog, model)
        tables["mse.csv"] = table, {**shared, "n_events": events}
    if experiment in ("all", "f1"):
        res_list, bias_list = _parse_list(resolutions, int), _parse_list(biases, float)
        table = run_f1_experiment(seed, events, res_list, bias_list, catalog, model)
        tables["f1.csv"] = table, {**shared, "n_events": events}
    if experiment in ("all", "error-rate"):
        table = run_error_rate_experiment(seed, _parse_list(n_sweep, int), trials, catalog, model)
        tables["error_rate.csv"] = table, {**shared, "trials": trials}
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (table, config) in tables.items():
        write_table_csv(out_dir / name, table, config)
        click.echo(f"wrote {out_dir / name}")


@main.command("detect")
@click.argument("sensor_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--params", "params_json", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--fit", "fit_first", is_flag=True, help="Refine parameters by EM before decoding.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guard
def detect_cmd(sensor_csv, params_json, fit_first, out):
    """Decode on/off event predictions from a sensor series with an HMM."""
    series = read_sensor_csv(sensor_csv)
    params = HmmParams.from_dict(read_json(params_json))
    if fit_first:
        fit = fit_emissions(series, params)
        if fit.degenerate:
            click.echo("warning: degenerate fit (states collapsed); decoding anyway", err=True)
        params = fit.params
    decoded = viterbi(params, series)
    write_label_csv(
        out,
        decoded,
        {"params": str(params_json), "fit": fit_first, "n_slots": len(decoded)},
    )
    click.echo(f"wrote {out}")


@main.command("histogram")
@click.argument("annotations_csv", type=click.Path(exists=True, dir_okay=False))
@_CATALOG_OPT
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guard
def histogram_cmd(annotations_csv, catalog_spec, out):
    """Per-annotator counts of the coarsest category containing each minute."""
    catalog = _catalog_from(catalog_spec)
    records = read_annotations_csv(annotations_csv)
    # coarsest[m, c] is 1 where category c is the coarsest containing minute m
    coarsest = np.array(
        [[catalog.coarsest_containing(m) is cat for cat in catalog] for m in range(60)],
        dtype=np.int64,
    )
    rows = []
    for annotator_id, (_, stamps) in sorted(_group_by_annotator(records).items()):
        counts = AnnotationSet.from_timestamps(stamps.ravel()).histogram() @ coarsest
        rows += [
            {"annotator_id": annotator_id, "period_minutes": period, "count": count}
            for period, count in zip(catalog.periods, counts.tolist())
        ]
    write_table_csv(out, rows, {"catalog": _list_text(catalog.periods)})
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
