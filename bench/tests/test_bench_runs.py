"""Tiny-size runs of every workload through the entry point, the seed
contract, the refusal to run without the ntfusion sources, and the tally of
a failed untimed step."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from worker import Runner
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, seed, trace, cwd=ROOT, bench=BENCH):
    cmd = [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    return result


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(workload):
    metrics = _result(_run(workload, 1, trace=0))["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    metrics = _result(_run(workload, 1, trace=1))["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in metrics.items()}
    assert metrics["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_another_seed_gives_other_inputs_and_the_same_metric_names(workload, tmp_path):
    def flat(inputs):
        if isinstance(inputs, tuple):
            return np.concatenate([flat(x) for x in inputs])
        if isinstance(inputs, dict):
            return np.concatenate([flat(v) for _, v in sorted(inputs.items())])
        if isinstance(inputs, list):
            return np.concatenate([flat(x) for x in inputs])
        if hasattr(inputs, "features"):
            return np.concatenate([inputs.features.ravel(), inputs.labels.ravel()])
        return np.concatenate([v.ravel() for p in inputs.params for v in p.values()])

    a = flat(WORKLOADS[workload](1, "tiny", tmp_path).inputs())
    b = flat(WORKLOADS[workload](2, "tiny", tmp_path).inputs())
    again = flat(WORKLOADS[workload](1, "tiny", tmp_path).inputs())
    assert np.array_equal(a, again)
    assert a.shape == b.shape and not np.array_equal(a, b)
    names = [set(_result(_run(workload, seed, trace=0))["metrics"]) for seed in (1, 2)]
    assert names[0] == names[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("fuse-cli", 1, trace=0, cwd=tmp_path, bench=tmp_path / "bench")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_a_failing_untimed_step_counts_as_a_failed_operation(tmp_path):
    class Failing:
        def after_pass(self):
            raise RuntimeError("fusion timing failed")

    runner = Runner(Failing())
    runner.after_pass()
    assert (runner.attempted, runner.failed) == (1, 1)

    fuse_cli = WORKLOADS["fuse-cli"](1, "tiny", tmp_path)
    fuse_cli.failed_commands = {("mlp", "nt")}
    fuse_cli.after_pass()  # no fused file to recover from, so no recovery runs
    assert fuse_cli.recoveries == []
