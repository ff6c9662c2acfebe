import os

# One BLAS thread, as perfbench/run.py pins it: criterion 9 times a
# single-threaded projection, and OpenBLAS threads on a small shared host
# make its frame rate swing across the gate.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import threading

import numpy as np
import pytest

from mosdistill.config import RunConfig
from mosdistill.synthbench import export_kitti_sequence

# small-but-not-trivial settings shared by pipeline/CLI tests; grid dims
# must be divisible by 4 (two stride-2 stages, two x2 upsamplers)
TINY_OVERRIDES = {
    "bev.n_radial": "16",
    "bev.n_angular": "36",
    "bev.window": "4",
    "bev.split": "2",
    "net.base_width": "8",
    "train.batch_size": "2",
    "scene.n_frames": "7",
    "scene.n_static": "400",
    "scene.points_per_disc": "30",
}


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail any test that leaves a new live thread behind, such as a
    frame or training pool that was never shut down."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left alive: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_config():
    cfg = RunConfig.defaults()
    for key, value in TINY_OVERRIDES.items():
        cfg.set(key, value)
    return cfg


@pytest.fixture
def tiny_scene(tiny_config):
    return tiny_config.scene()


@pytest.fixture
def seq_dir(tmp_path, tiny_scene):
    """A small synthetic sequence written in the KITTI layout."""
    d = tmp_path / "sequences" / "00"
    export_kitti_sequence(tiny_scene, d)
    return d


def tiny_cli_args(extra=()):
    """--set overrides matching tiny_config, for CLI invocations."""
    args = []
    for key, value in TINY_OVERRIDES.items():
        args += ["--set", f"{key}={value}"]
    return args + list(extra)
