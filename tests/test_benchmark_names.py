"""The package names the benchmark harness reaches into must keep existing.

`benchmarks/tracer.py` wraps every function in its `TARGETS` by module and
attribute path, and `benchmarks/test_selftest.py` reads a few more names
directly. A rename in the package would break the benchmark only when it is
run; these tests catch it with the rest of the suite. The tracer is loaded
from its file, and nothing under `benchmarks/` is written.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import tempolabel
import tempolabel.cli
import tempolabel.inference

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracer):
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        owner = importlib.import_module(target.module)
        *class_path, attr = target.path.split(".")
        for part in class_path:
            owner = getattr(owner, part)
        # the tracer rebinds the attribute where it is defined, not inherited
        assert callable(vars(owner).get(attr)), target.name
    commands = tempolabel.cli.main.commands
    assert set(tracer.CLI_COMMANDS) <= set(commands)


def test_tracer_installs_and_restores(tracer):
    before = tempolabel.inference.CategoryPosterior.map_category
    t = tracer.Tracer()
    t.install()
    try:
        assert tempolabel.inference.CategoryPosterior.map_category is not before
    finally:
        t.restore()
    assert tempolabel.inference.CategoryPosterior.map_category is before


def test_names_the_benchmark_self_test_reads():
    assert callable(tempolabel.habit_posterior)
    assert tempolabel.cli.habit_posterior is tempolabel.inference.habit_posterior
    assert callable(tempolabel.inference.CategoryPosterior.map_category)
    assert callable(tempolabel.cli.main.commands["histogram"].callback)
    assert callable(tempolabel.cli.write_label_csv)
