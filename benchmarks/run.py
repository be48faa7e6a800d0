"""tempolabel benchmark: seeded workloads driven through the real CLI.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {diary,simulate,sensor} --seed N \
        --seconds S --trace {0,1}

Workloads (closed loop, one client, commands run one after another in this
process through click's CliRunner, inputs generated before timing starts):

* diary:    infer-habit, soft-labels, histogram on a 2,500-row diary CSV;
* simulate: the paper's three synthetic experiments with 100 events and 150
            trials (half the CLI defaults), default resolutions and sweeps;
* sensor:   detect --fit on eight days of 1-minute sensor data, then evaluate
            the decoded series against the generator's true labels.

With --trace 0 the run makes one pass in a fresh child for `peak_rss_mb`,
then repeats untraced passes in this process for about --seconds, each
followed by one fresh-interpreter `python -m tempolabel --version` for
`setup_s`. Each timing is the mean over those passes or starts without the
fastest and the slowest one (the median below five samples). Pass and
command times are in reference seconds: each pass's measured seconds scaled
by how fast a fixed reference kernel ran right around it, timed before every
command and after the last one (see reference.py); raw seconds and each
pass's factor are kept in the report. `setup_s` stays in measured seconds:
start-up is mostly loading files and extension modules, which the compute
kernel does not track, and scaling it widened its spread between runs.
With --trace 1 it alternates untraced and traced passes and reports per-layer
self times and counters from spans recorded around the package's public
functions. Every pass's outputs are checked and digested. A readable report
goes to standard output and to .bench_work/<workload>/results.json; the last
line of standard output is the summary JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import reference
import tracer
import workloads
from one_pass import run_commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MiB",
}
CMD_METRICS = {f"cmd.{c}_s": c for c in tracer.CLI_COMMANDS}


def per_layer_units() -> dict[str, str]:
    return {
        **{name: "s" for name in CMD_METRICS},
        **tracer.layer_metric_units(),
        "trace.overhead_s": "s",
    }


def _import_package():
    """Import tempolabel from this checkout's source tree, and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tempolabel
    from tempolabel.cli import main as cli

    found = Path(tempolabel.__file__).resolve().parent
    if found != (SRC / "tempolabel").resolve():
        raise RuntimeError(f"tempolabel imported from {found}, expected {SRC / 'tempolabel'}")
    return cli


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _empty_outputs():
    """Empty every output file of the previous pass, keeping the file.

    Outputs are overwritten in place, never deleted: on ext4, creating files
    in the half minute after many were deleted is up to ten times slower, so
    deleting soft-labels' thousands of files made the next passes' times
    depend on the one before. An output a pass fails to rewrite stays empty,
    and its check fails.
    """
    out = Path("out")
    out.mkdir(exist_ok=True)
    for path in out.rglob("*"):
        if path.is_file():
            os.truncate(path, 0)


def _finish_pass(workload, exit_codes, errors, times, traced, reference_s) -> dict:
    problems = {}
    for command, code, error in zip(workload.commands, exit_codes, errors):
        found = [f"exit code {code}: {error}"] if code != 0 else workloads.check(command)
        if found:
            problems[command.name] = found
    return {
        "traced": traced,
        "wall_s": sum(times),
        "cmd_s": {c.name: t for c, t in zip(workload.commands, times)},
        "reference_s": reference_s,
        "speed_factor": speed_factor(reference_s) if reference_s else None,
        "failed": len(problems),
        "problems": problems,
        "digest": workloads.digest(workload.commands),
    }


def run_pass(workload, runner, cli, trace=None) -> dict:
    """One pass of the workload's commands in this process, then its checks.

    The reference kernel is timed, untraced, before each command and after
    the last one.
    """
    _empty_outputs()
    gc.collect()
    reference_s = []
    if trace is not None:
        trace.clear()
        trace.install()
    try:
        exit_codes, times, errors = run_commands(
            runner,
            cli,
            [c.args for c in workload.commands],
            lambda: reference_s.append(reference.time_kernel()),
        )
    finally:
        if trace is not None:
            trace.restore()
    return _finish_pass(workload, exit_codes, errors, times, trace is not None, reference_s)


def child_pass(workload, env) -> dict:
    """One pass in a fresh interpreter: a timed record plus its peak RSS in MiB."""
    _empty_outputs()
    Path("pass.json").write_text(json.dumps({"commands": [c.args for c in workload.commands]}))
    proc = subprocess.run(
        [sys.executable, str(HERE / "one_pass.py"), "pass.json"],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    n = len(workload.commands)
    if proc.returncode != 0:
        error = f"child exited {proc.returncode}: {proc.stderr[-2000:]}"
        record = _finish_pass(workload, [proc.returncode] * n, [error] * n, [0.0] * n, False, [])
        return {**record, "peak_rss_mb": 0.0, "fresh_child": True}
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = [proc.stderr[-2000:]] * n
    record = _finish_pass(workload, result["exit_codes"], errors, result["times"], False, [])
    return {**record, "peak_rss_mb": result["max_rss_kib"] / 1024.0, "fresh_child": True}


def time_setup(env, problems: list[str]) -> float | None:
    """Wall time of one `python -m tempolabel --version` in a fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tempolabel", "--version"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or "version" not in proc.stdout:
        problems.append(f"--version exited {proc.returncode}: {proc.stderr[-500:]}")
        return None
    return elapsed


def _fs_type(path: Path) -> str:
    best, fs = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fs = mount, fields[2]
    except OSError:
        pass
    return fs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(directory: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "platform": platform.platform(),
        "output_fs_type": _fs_type(directory),
    }


def _metric(value, unit, samples) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _typical(values) -> float:
    """Mean of the samples without the lowest and the highest one.

    With each pass scaled by its own speed factor, pass times vary little and
    symmetrically, and a mean uses them better than a median: over eight runs
    per workload on a 2-vCPU VM, the spread of wall_s between runs was 5-7%
    with this and 7-11% with the median. Dropping the two extremes keeps one
    stalled pass from moving it. Below five samples, the median.
    """
    if len(values) < 5:
        return _median(values)
    return statistics.fmean(sorted(values)[1:-1])


def repeat_for(seconds: float, next_pass, min_passes: int) -> list[dict]:
    """Call `next_pass(i)` until `seconds` are used, and at least `min_passes` times.

    A pass is not started when it would likely end more than half a pass
    after the deadline, so slow machines do not overrun by a whole pass.
    """
    records, durations = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        records.append(next_pass(len(records)))
        durations.append(time.perf_counter() - begun)
        elapsed = time.perf_counter() - start
        if len(records) >= min_passes and elapsed + _median(durations) / 2 >= seconds:
            return records


def speed_factor(reference_s: list[float]) -> float:
    """Factor from measured to reference seconds (see reference.py).

    `reference_s` are the kernel times taken around the work it scales.
    """
    return reference.REFERENCE_S / statistics.fmean(reference_s)


def _command_samples(passes) -> dict[str, list[float]]:
    return {
        metric: [p["cmd_s"][c] * p["speed_factor"] for p in passes if c in p["cmd_s"]]
        for metric, c in CMD_METRICS.items()
    }


def _walls(passes) -> list[float]:
    return [p["wall_s"] * p["speed_factor"] for p in passes]


def per_layer_metrics(timed, layer_passes) -> tuple[dict, dict]:
    """Values and sample counts of every per-layer metric.

    Self times are typical values (see _typical) over traced passes;
    counters come from the last traced pass (they repeat exactly); command
    times come from the untraced passes of the same run. Times are in
    reference seconds, each pass scaled by its own speed factor.
    """
    untraced = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]
    commands = _command_samples(untraced)
    values = {m: _typical(s) for m, s in commands.items()}
    samples = {m: len(s) for m, s in commands.items()}
    for metric, unit in tracer.layer_metric_units().items():
        if unit == "s":
            values[metric] = _typical(
                [lp[metric] * p["speed_factor"] for p, lp in zip(traced, layer_passes)]
            )
        else:
            values[metric] = layer_passes[-1][metric]
        samples[metric] = len(layer_passes)
    values["trace.overhead_s"] = _typical(_walls(traced)) - _typical(_walls(untraced))
    samples["trace.overhead_s"] = len(traced)
    return values, samples


def end_to_end_metrics(workload, timed, setup_times, rss_mb) -> tuple[dict, dict]:
    walls = _walls(timed)
    wall = _typical(walls)
    values = {
        "setup_s": _typical(setup_times),
        "wall_s": wall,
        "items_per_s": workload.items / wall if wall > 0 else 0.0,
        "peak_rss_mb": rss_mb,
    }
    samples = {"setup_s": len(setup_times), "wall_s": len(walls),
               "items_per_s": len(walls), "peak_rss_mb": 1}
    return values, samples


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_root: Path,
    sizes: workloads.Sizes = workloads.Sizes(),
) -> tuple[dict, dict]:
    """Run one workload; return (summary line, full report)."""
    from click.testing import CliRunner

    cli = _import_package()
    directory = work_root / name
    # the directory and its output files outlive the run (see
    # _empty_outputs); they are removed only when the sizes change
    stamp, wanted = directory / "sizes.json", json.dumps(dataclasses.asdict(sizes))
    if not stamp.is_file() or stamp.read_text() != wanted:
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        stamp.write_text(wanted)
    workload = workloads.prepare(name, seed, directory, sizes)
    env = _child_env()
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_info(directory),
        "inputs": {**workload.summary, "items": workload.items, "item_unit": workload.item_unit},
    }
    old_cwd = os.getcwd()
    os.chdir(directory)
    try:
        runner, setup_problems = CliRunner(), []
        if trace:
            spans, layer_passes, accounting = tracer.Tracer(), [], {}

            def next_pass(i):
                # untraced and traced passes alternate, untraced first
                if i % 2 == 0:
                    return run_pass(workload, runner, cli)
                record = run_pass(workload, runner, cli, spans)
                layer_passes.append(tracer.aggregate(spans.spans))
                accounting.clear()
                accounting.update(tracer.command_accounting(spans.spans))
                for command, entry in accounting.items():
                    entry["invoke_s"] = record["cmd_s"][command]
                return record

            timed = repeat_for(seconds, next_pass, 2)
            units = per_layer_units()
            values, samples = per_layer_metrics(timed, layer_passes)
            tracer.write_spans("spans.csv", spans.spans)
            report["accounting"] = accounting
            report["counts_identical_across_traced_passes"] = all(
                lp[m] == layer_passes[-1][m]
                for lp in layer_passes
                for m, u in tracer.layer_metric_units().items()
                if u != "s"
            )
            report["spans_file"] = str(directory / "spans.csv")
            checked = timed
        else:
            # an unrecorded first start writes the bytecode cache, which a
            # user pays once per install, not once per command
            time_setup(env, setup_problems)
            # a pass in a fresh child gives peak RSS only: its cold start
            # would skew the timings, which come from passes in this process
            rss_pass = child_pass(workload, env)
            setup_times = []

            def next_pass(i):
                record = run_pass(workload, runner, cli)
                # one set-up sample after each pass spreads them over the
                # run, so a slow stretch of the machine cannot hold them all
                setup = time_setup(env, setup_problems)
                if setup is not None:
                    setup_times.append(setup)
                return record

            timed = repeat_for(seconds, next_pass, 3)
            units = END_TO_END_UNITS
            values, samples = end_to_end_metrics(
                workload, timed, setup_times, rss_pass["peak_rss_mb"]
            )
            checked = [rss_pass, *timed]
            report["commands"] = {
                m: _metric(_typical(s), "s", len(s))
                for m, s in _command_samples(timed).items()
                if s
            }
            report["setup_times"] = setup_times
        attempted = len(workload.commands) * len(checked)
        failed = sum(p["failed"] for p in checked)
        digests = sorted({p["digest"] for p in checked})
        correct = failed == 0 and len(digests) == 1 and not setup_problems
        report.update(
            metrics={m: _metric(values[m], units[m], samples[m]) for m in units},
            fail_ratio={"value": failed / attempted, "unit": "ratio",
                        "failed": failed, "attempted": attempted},
            setup_problems=setup_problems,
            output_digest=digests[0] if len(digests) == 1 else digests,
            digests_identical=len(digests) == 1,
            passes=checked,
            correct=correct,
        )
        Path("results.json").write_text(json.dumps(report, indent=1) + "\n")
        summary = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        }
        return summary, report
    finally:
        os.chdir(old_cwd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tempolabel" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'tempolabel'}", file=sys.stderr)
        return 2
    summary, report = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".bench_work"
    )
    print(json.dumps(report, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
