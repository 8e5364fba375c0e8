"""Smoke tests of the benchmark itself, at reduced length.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from workloads import KNOWN_FAILURES, WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TABLE_METRICS = ("setup_s", "ops_per_s", "latency_p50_s", "latency_p90_s", "fail_ratio",
                 "peak_rss_mib")


def _run(workload: str, trace: int, cwd=ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_smoke_prints_every_end_to_end_metric(name):
    proc = _run(name, 0)
    result = _result(proc)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric in TABLE_METRICS:
        assert f"  {metric} " in proc.stdout
    doc = json.loads((BENCH / "out" / f"{name}-seed3-trace0.json").read_text())
    failing = {f[0] for f in doc["failures"]}
    assert failing == {op for op in KNOWN_FAILURES if op in doc["ops"]}
    assert result["failed"] == len(failing) * doc["cycles"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_partitions_op_time(name):
    result = _result(_run(name, 1))
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.op_s"]["value"], rel=1e-9)


def test_op_lists_equal_across_seeds_while_inputs_differ(tmp_path):
    lib = run.load_blocklab()
    for name, cls in WORKLOADS.items():
        a, b = cls(), cls()
        a.setup(lib, 1, str(tmp_path))
        b.setup(lib, 2, str(tmp_path))
        assert a.op_names == b.op_names
        if name == "battery":
            assert a.seed != b.seed
            continue
        assert a.inputs
        for key, value in a.inputs.items():
            assert not np.array_equal(value, b.inputs[key]), key


def test_same_seed_gives_same_inputs(tmp_path):
    lib = run.load_blocklab()
    a, b = WORKLOADS["cli_mix"](), WORKLOADS["cli_mix"]()
    a.setup(lib, 5, str(tmp_path))
    b.setup(lib, 5, str(tmp_path))
    assert all(np.array_equal(v, b.inputs[k]) for k, v in a.inputs.items())


def test_latency_percentiles_read_each_ops_fastest_run():
    from workloads import OpResult

    results = [OpResult(name, t, True) for name, t in
               (("a", 3.0), ("b", 1.0), ("a", 2.0), ("b", 5.0), ("c", 4.0))]
    assert run.fastest_per_op(results) == [2.0, 1.0, 4.0]
    metrics = run.end_to_end(results, 10.0, 0.5, 100.0)
    assert metrics["latency_p50_s"] == (2.0, "s")
    assert metrics["ops_per_s"] == (0.5, "1/s")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run("cli_mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_declared_workloads_match_the_runner():
    assert [w["name"] for w in DECLARED["workloads"]] == ["cli_mix", "walk_dense", "battery"]
    assert set(WORKLOADS) == {w["name"] for w in DECLARED["workloads"]}
