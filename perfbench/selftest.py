"""The benchmark's own tests, at the tiny input size.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's default test collection:
each case starts benchmark processes, which the tier-1 suite need not pay
for.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Time metrics of the layers each workload exercises: never 0 there.
EXERCISED = {
    "plan-models": ("core.plan_s", "core.infer_s", "runtime.deploy_s"),
    "replay-diurnal": (
        "serving.arrivals_s",
        "serving.serve_s.fpga",
        "serving.serve_s.cpu",
        "cluster.route_s",
        "cluster.replica_serve_s",
        "telemetry.ingest_s",
    ),
    "elastic-tiered": (
        "memory.tiers_s",
        "autoscale.run_s",
        "autoscale.serve_s",
        "telemetry.ingest_s",
    ),
}

_RUNS: dict[tuple[str, int, int, int], tuple[list[str], dict]] = {}


def bench(
    workload: str, seed: int, trace: int = 0, attempt: int = 0
) -> tuple[list[str], dict]:
    """Run the benchmark at the tiny size; (report lines, result)."""
    key = (workload, seed, trace, attempt)
    if key not in _RUNS:
        done = subprocess.run(
            [
                sys.executable,
                os.path.join(HERE, "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", "1",
                "--trace", str(trace),
                "--size", "tiny",
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=170,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        _RUNS[key] = (lines[:-1], json.loads(lines[-1]))
    return _RUNS[key]


def sim_lines(lines: list[str]) -> list[str]:
    return [line for line in lines if line.lstrip().startswith("sim ")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload):
    _, result = bench(workload, seed=5)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    _, result = bench(workload, seed=5, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
    spans = os.path.join(HERE, "out", f"{workload}-seed5.spans.json")
    with open(spans, encoding="utf-8") as fh:
        assert {s["phase"] for s in json.load(fh)} >= {"setup", "timed"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sim_metrics_and_fingerprint_repeat_at_one_seed(workload):
    first, _ = bench(workload, seed=5)
    second, _ = bench(workload, seed=5, attempt=1)
    assert sim_lines(first) and sim_lines(first) == sim_lines(second)


def test_seed_reaches_replay_inputs():
    fingerprint = [
        line
        for seed in (5, 6)
        for line in bench("replay-diurnal", seed)[0]
        if "fingerprint" in line
    ]
    assert len(fingerprint) == 2 and fingerprint[0] != fingerprint[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", WORKLOADS[0],
            "--seed", "1",
            "--seconds", "1",
            "--trace", "0",
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
