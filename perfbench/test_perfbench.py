"""The benchmark's own tests: the self-time fold, entry-point wrapping, the
guards of ``run.py``, and a minimum-size run of every workload.

Run with ``python -m pytest perfbench``.  The minimum-size runs start
``run.py`` in a subprocess with the checking flags removed from its
environment, because the run refuses to time while they are set.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import run
from layers import LayerTracer, Span, fold_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, *, cwd=ROOT, env=None, script=HERE / "run.py"):
    if env is None:
        env = {k: v for k, v in os.environ.items() if k not in run.CHECK_FLAGS}
    return subprocess.run([sys.executable, str(script), *args], cwd=str(cwd), env=env,
                          capture_output=True, text=True, timeout=170)


# --------------------------------------------------------------------- fold
def test_fold_nested_and_reentrant_spans():
    spans = [
        Span("a", -1, 0.0, 10.0),         # root
        Span("b", 0, 1.0, 4.0),           # child of a
        Span("c", 1, 2.0, 3.0),           # grandchild
        Span("a", 0, 5.0, 9.0, "again"),  # a re-entered inside a
        Span("b", 3, 6.0, 7.0),           # b under the re-entrant a
        Span("c", -1, 11.0, 12.5),        # a second root
    ]
    fold = fold_spans(spans)
    assert fold.self_seconds == pytest.approx({"a": 3.0 + 3.0, "b": 2.0 + 1.0, "c": 1.0 + 1.5})
    # Self times add up to the roots' durations.
    assert fold.covered_seconds == pytest.approx(10.0 + 1.5)
    # Inclusive time skips a span nested inside one of its own bucket.
    assert fold.inclusive_seconds == pytest.approx({"a": 10.0, "b": 3.0 + 1.0, "c": 2.5})
    assert fold.tag_self_seconds[("a", "again")] == pytest.approx(3.0)
    assert fold.tag_self_seconds[("a", "")] == pytest.approx(3.0)


def test_fold_of_no_spans_is_empty():
    fold = fold_spans([])
    assert fold.covered_seconds == 0.0
    assert fold.inclusive_seconds == {}


# ------------------------------------------------------------------ wrapping
def test_install_rebinds_names_bound_by_value_and_reports_missing(monkeypatch):
    probe = types.ModuleType("repro.perfbench_probe")

    def entry(x):
        return x + 1

    class Session:
        def solve(self, phase="solve"):
            return probe.entry(1)  # a call through the module attribute

    probe.entry, probe.Session = entry, Session
    probe.TABLE = {"entry": entry}
    probe.CHAIN = [entry]
    caller = types.ModuleType("caller")
    caller.entry = entry  # as after ``from repro.perfbench_probe import entry``
    monkeypatch.setitem(sys.modules, "repro.perfbench_probe", probe)
    monkeypatch.setattr(layers, "ENTRY_POINTS", (
        ("outer", "repro.perfbench_probe:Session.solve"),
        ("inner", "repro.perfbench_probe:entry"),
        ("gone", "repro.perfbench_probe:removed_entry"),
        ("gone", "repro.no_such_module:entry"),
    ))
    monkeypatch.setattr(layers, "CLAUSE_SINKS", ())

    tracer = LayerTracer()
    tracer.install(callers=[caller])
    assert tracer.missing == ["repro.perfbench_probe:removed_entry", "repro.no_such_module:entry"]
    assert caller.entry(1) == probe.TABLE["entry"](1) == probe.CHAIN[0](1) == 2
    assert Session().solve() == 2
    assert [span.bucket for span in tracer.spans] == ["inner"] * 3 + ["outer", "inner"]
    assert tracer.spans[-1].parent == 3


# ------------------------------------------------------------------ run.py
def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        layers.PER_LAYER)


def test_refuses_to_time_with_a_checking_flag_set():
    env = {k: v for k, v in os.environ.items() if k not in run.CHECK_FLAGS}
    env["REPRO_CHECK_KERNELS"] = "1"
    done = _run(["--workload", "overhead-removal", "--size", "min"], env=env)
    assert done.returncode != 0
    assert "REPRO_CHECK_KERNELS" in done.stderr
    assert done.stdout.strip() == ""


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "overhead-removal", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_minimum_size_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", "min"])
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
        assert result["metrics"]["sat.limited"]["value"] == 0
    else:
        assert result["metrics"]["pass_ratio"]["value"] == 1.0
