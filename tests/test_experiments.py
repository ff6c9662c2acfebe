import os
import subprocess
import sys
from pathlib import Path

import pytest

from mosdistill import experiments
from mosdistill.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "distill_benchmark.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_no_seeds_raise_config_error():
    with pytest.raises(ConfigError, match="at least one seed"):
        experiments.run_distill_benchmark(seeds=range(0))


@pytest.mark.parametrize(
    "args, message",
    [(["--seeds", "0"], "argument --seeds"), (["--epochs", "-2"], "argument --epochs")],
)
def test_script_rejects_counts_below_one(args, message):
    result = run_script(*args)
    assert result.returncode != 0
    assert message in result.stderr
    assert "expected an integer >= 1" in result.stderr
    assert "verdict" not in result.stdout
