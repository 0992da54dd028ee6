"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

It lives beside the benchmark, outside the `tests/` directory that the main
suite collects, so the main suite neither imports nor runs it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_same_seed_gives_same_relations_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    cap = workloads.load_cap()
    first = workloads.Relations(cap, 5, "tiny")
    second = workloads.Relations(cap, 5, "tiny")
    assert [p[1:] for p in first.pairs] == [p[1:] for p in second.pairs]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run("--workload", "programs", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
