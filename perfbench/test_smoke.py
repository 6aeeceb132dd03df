"""Smoke test: every workload at its smallest size, untraced and traced.

Run with ``python3 -m pytest perfbench/test_smoke.py -q`` (about 30 s).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARKED = ("sim-dense", "regret-sweep", "oracle-tiny")

END_TO_END = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "success_rate": "ratio", "fail_rate": "ratio", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "topology.generate_s": "s",
    "resource_manager.dsp_s": "s", "resource_manager.dsp_cells": "count",
    "resource_manager.dsp_spilled_cells": "count", "resource_manager.handled_ratio": "ratio",
    "resource_manager.ssp_s": "s", "resource_manager.place_server": "count",
    "resource_manager.place_rack": "count", "resource_manager.place_split": "count",
    "resource_manager.place_failures": "count", "resource_manager.vms": "count",
    "resource_manager.check_s": "s", "resource_manager.violations": "count",
    "orchestration.rules_s": "s", "orchestration.rules_total": "count",
    "orchestration.rules_max_switch": "count", "orchestration.tag_pools_s": "s",
    "orchestration.tags": "count", "orchestration.pins_s": "s", "orchestration.pins": "count",
    "adaptation.adversary_s": "s", "adaptation.estimate_s": "s", "adaptation.loss_s": "s",
    "adaptation.loss_calls": "count", "adaptation.regret_s": "s", "adaptation.hindsight_s": "s",
    "oracle.exact_s": "s", "oracle.search_nodes": "count", "oracle.greedy_s": "s",
    "oracle.gap_p50": "ratio", "oracle.gap_p90": "ratio", "oracle.gap_max": "ratio",
    "oracle.gap_over_10pct": "count", "oracle.handled_equal": "count",
    "oracle.instances": "count", "simulate.other_s": "s", "trace_overhead_s": "s",
}
# Layers each workload must exercise (a nonzero value in the traced run).
EXERCISED = {
    "sim-dense": ("topology.generate_s", "resource_manager.dsp_s", "resource_manager.ssp_s",
                  "resource_manager.check_s", "orchestration.rules_s",
                  "orchestration.tag_pools_s", "adaptation.estimate_s", "simulate.other_s"),
    "sim-surge": ("topology.generate_s", "resource_manager.place_server",
                  "orchestration.rules_total", "adaptation.loss_calls"),
    "regret-sweep": ("adaptation.adversary_s", "adaptation.estimate_s", "adaptation.loss_s",
                     "adaptation.regret_s", "adaptation.hindsight_s"),
    "oracle-tiny": ("oracle.exact_s", "oracle.greedy_s", "oracle.instances",
                    "oracle.handled_equal"),
}


def run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", "1", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(metrics: dict, workload: str, trace: int, expected: dict) -> None:
    for name, unit in expected.items():
        metric = metrics.get(name)
        assert metric is not None, f"{workload} lacks {name}"
        assert metric["unit"] == unit, f"{workload} {name}: {metric['unit']} != {unit}"
        assert isinstance(metric["value"], (int, float))
    if trace:
        for name in EXERCISED[workload]:
            assert metrics[name]["value"] > 0, (workload, name)
    else:
        assert metrics["success_rate"]["value"] == 1.0


@pytest.mark.parametrize("trace, expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_every_metric_present_and_checks_pass(trace, expected):
    result = run("--trace", str(trace))
    assert result["correct"] is True
    assert result["attempted"] >= 1
    for workload in BENCHMARKED:
        prefix = f"{workload}/"
        metrics = {k[len(prefix):]: m for k, m in result["metrics"].items()
                   if k.startswith(prefix)}
        check_workload(metrics, workload, trace, expected)


@pytest.mark.parametrize("trace, expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_sim_surge_runs_on_demand(trace, expected):
    result = run("--workload", "sim-surge", "--trace", str(trace))
    assert result["correct"] is True
    expected = {k: u for k, u in expected.items() if k != "fail_rate"}
    check_workload(result["metrics"], "sim-surge", trace, expected)


def test_fails_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (RUN.parent.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "sim-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
