"""Smoke test: every workload at a tiny size, untraced and traced.

Run from the repository root:

    python -m pytest -q perfbench/test_smoke.py

Each run must finish with no failed command and print exactly the metric
names BENCHMARK.json lists for its mode. The input generator must give the
same digests for the same seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    return json.loads(info_line), json.loads(result_line)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_clean_and_emits_listed_metrics(workload, trace):
    info, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert info["fail_rate"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_same_input_digests():
    first, _ = run("check", 0, seed=11)
    again, _ = run("check", 0, seed=11)
    other, _ = run("check", 0, seed=12)
    assert first["params"]["sha256"] == again["params"]["sha256"]
    assert first["params"]["sha256"] != other["params"]["sha256"]


def test_refuses_to_run_without_sources():
    # perfbench/ has no src/declarekit beneath it, like a bare benchmark copy.
    proc = subprocess.run(
        [sys.executable, "run.py", "--workload", "check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT / "perfbench", capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
