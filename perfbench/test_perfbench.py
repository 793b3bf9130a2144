"""Smoke-scale tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.  Each
workload runs at a small scale; the tests check the correctness checks,
the outcome fingerprints (same seed -> same fingerprint, traced ==
untraced, a second seed runs clean), the layer accounting and the
contract that ties ``BENCHMARK.json`` to the metrics the runner prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

from scenarios import SMOKE, WORKLOADS  # noqa: E402


def test_smoke_covers_every_workload():
    assert set(SMOKE) == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_is_correct_and_repeatable(workload):
    first = run.run_once(workload, 1, SMOKE[workload])
    again = run.run_once(workload, 1, SMOKE[workload])
    assert first["checks"] == []
    assert first["outcome"]["attempted"] > 0
    assert first["fingerprint"] == again["fingerprint"]


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_traced_run_matches_untraced(workload):
    result = run.measure_traced(workload, 1, SMOKE[workload])
    assert result["checks"] == []
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    assert abs(metrics["trace.unattributed_share"]) <= run.MAX_UNATTRIBUTED
    assert metrics["engine.events"] > 0 and metrics["engine.self_s"] > 0


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_second_seed_runs_clean(workload):
    result = run.run_once(workload, 2, SMOKE[workload])
    assert result["checks"] == []


def test_checks_catch_an_unfinished_upgrade():
    params = dict(SMOKE["rolling_upgrade"], horizon=120.0)
    result = run.run_once("rolling_upgrade", 1, params)
    assert any("upgrade did not finish" in check
               for check in result["checks"])


def test_benchmark_json_matches_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        dict(run.PER_LAYER)


def test_cli_fails_without_program_sources(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "skew_scatter",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
