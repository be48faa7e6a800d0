"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout: python -m pytest benchmarks
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import run
import workloads


def _tiny(tmp_path, name, trace):
    return run.run_benchmark(name, 7, 0, trace, tmp_path, sizes=workloads.TINY)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_named_metric_is_reported(tmp_path, name, trace):
    summary, report = _tiny(tmp_path, name, trace)
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(v["value"]) for v in summary["metrics"].values())
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    assert report["digests_identical"]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    in_process = [p for p in report["passes"] if not p.get("fresh_child")]
    # the reference kernel brackets every command of every in-process pass
    assert all(len(p["reference_s"]) == len(p["cmd_s"]) + 1 for p in in_process)
    assert all(p["speed_factor"] > 0 for p in in_process)
    if not trace:
        assert all(v["value"] > 0 for v in summary["metrics"].values())
        assert report["fail_ratio"]["failed"] == 0
        assert report["fail_ratio"]["attempted"] == summary["attempted"]
        assert report["commands"]
        assert all(m["samples"] > 0 for m in report["commands"].values())


def test_tracing_restores_every_binding(tmp_path):
    import tempolabel
    import tempolabel.cli
    import tempolabel.inference

    before = (
        tempolabel.habit_posterior,
        tempolabel.cli.habit_posterior,
        tempolabel.inference.CategoryPosterior.map_category,
        tempolabel.cli.main.commands["histogram"].callback,
    )
    summary, _ = _tiny(tmp_path, "diary", True)
    assert summary["metrics"]["catalog.CategoryCatalog.coarsest_containing.calls"]["value"] > 0
    after = (
        tempolabel.habit_posterior,
        tempolabel.cli.habit_posterior,
        tempolabel.inference.CategoryPosterior.map_category,
        tempolabel.cli.main.commands["histogram"].callback,
    )
    assert all(a is b for a, b in zip(before, after))


def test_traced_self_times_account_for_each_command(tmp_path):
    _, report = _tiny(tmp_path, "sensor", True)
    for entry in report["accounting"].values():
        assert entry["self_sum_s"] == pytest.approx(entry["span_s"], abs=1e-9)
        assert entry["span_s"] <= entry["invoke_s"]


def test_corrupted_soft_label_is_a_failed_operation(tmp_path, monkeypatch):
    import tempolabel.cli

    write = tempolabel.cli.write_label_csv

    def corrupted(path, series, config=None):
        write(path, series, config)
        lines = Path(path).read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",1.5"
        Path(path).write_text("\n".join(lines) + "\n")

    monkeypatch.setattr(tempolabel.cli, "write_label_csv", corrupted)
    summary, report = _tiny(tmp_path, "diary", False)
    # the fresh child pass is unpatched; each in-process soft-labels fails
    child, *in_process = report["passes"]
    assert not summary["correct"]
    assert child["fresh_child"] and child["failed"] == 0
    assert summary["failed"] == len(in_process) >= 2
    assert report["fail_ratio"]["value"] == pytest.approx(len(in_process) / summary["attempted"])
    assert all(list(p["problems"]) == ["soft-labels"] for p in in_process)
