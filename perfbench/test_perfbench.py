"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest perfbench/test_perfbench.py

The smoke pass runs every workload of BENCHMARK.json once in each mode (about
a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert f"metric {name} " in proc.stdout and proc.stdout.count(f" {unit}") > 0
    assert "metric fail_frac 0.0 frac" in proc.stdout
    assert "machine " in proc.stdout


def test_perturbed_reference_drives_fail_frac_above_zero(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["workloads"]["entropy_general"]["1"]["runs"][0]["V_end"] *= 1.0 + 1e-6
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    proc = bench("--workload", "entropy_general", "--seed", "1", "--seconds", "1", "--reference", str(path))
    assert proc.returncode == 1
    result = last_json(proc.stdout)
    assert not result["correct"] and result["failed"] > 0
    assert "metric fail_frac 0.0 " not in proc.stdout
    assert "V_end" in proc.stderr


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "smooth_l1", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
