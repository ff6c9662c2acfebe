"""Smoke check of the benchmark itself, in about 30 seconds.

Every workload runs at a tiny size, untraced and traced, and must report
every metric that ``BENCHMARK.json`` names, with its unit.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRAIN_ONLY = ("nnet.bwd_ms", "nnet.sgd_ms", "losses.wce_ms", "losses.lovasz_ms", "losses.wdcd_ms")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3"]
    argv += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reports_every_named_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload != "train-wdcd":
        assert all(values[name] == 0 for name in TRAIN_ONLY)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_ops_that_all_raise_still_give_a_result(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    def boom(self, tracer):
        raise RuntimeError("op failed")

    monkeypatch.setattr(workloads.Stream, "run_op", boom)
    argv = ["--workload", "stream-130k", "--seed", "3", "--seconds", "0.2", "--tiny"]
    for trace in ("0", "1"):
        assert run.main([*argv, "--trace", trace]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert not result["correct"] and result["failed"] == result["attempted"] >= 1
        assert "latency_ms_p50" not in result["metrics"]
