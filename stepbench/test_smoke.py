"""Smoke test of the step benchmark: a few steps of every workload.

Each workload runs untraced and traced for three steps per repetition.
The test checks that both runs pass the correctness gate, print exactly
the metrics ``BENCHMARK.json`` names for their mode with the listed units,
and write byte-identical outputs across repetitions and processes; and
that the benchmark refuses to run where the program's sources are absent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, steps=3):
    cmd = [sys.executable, "stepbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    if steps is not None:
        cmd += ["--steps", str(steps)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload):
    hashes = set()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], proc.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
        if kind == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())
        report = json.loads((HERE / "out" / f"{workload}-seed3-trace{trace}.json").read_text())
        hashes |= {json.dumps(r["sha256"]) for r in report["repetitions"]
                   if r["kind"] != "warmup"}
    assert len(hashes) == 1


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "stepbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("ramp", 0, cwd=tmp_path, steps=None)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
