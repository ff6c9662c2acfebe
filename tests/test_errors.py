"""Every file reader and writer turns an OSError into IoFailure (exit 1),
naming the kind of file and its path."""

import numpy as np
import pytest

from mosdistill import bev, kitti_io, metrics, nnet, teacher
from mosdistill.config import RunConfig
from mosdistill.errors import IoFailure
from mosdistill.losses import LogitGrid

CALIB = kitti_io.Pose.identity()
CLOUD = kitti_io.PointCloud(points=np.zeros((2, 4), dtype=np.float32))
GRID = LogitGrid(scores=np.zeros((2, 3, 4)), valid=np.ones((2, 3), dtype=bool))

READERS = {
    "scan": kitti_io.read_scan,
    "labels": lambda path: kitti_io.read_labels(path, 2),
    "poses": lambda path: kitti_io.read_poses(path, CALIB),
    "calib": kitti_io.read_calib,
    "logits": teacher.read_logits,
    "checkpoint": nnet.load_checkpoint,
    "metrics": metrics.read_metrics,
    "config": RunConfig.from_file,
}

WRITERS = {
    "scan": lambda path: kitti_io.write_scan(CLOUD, path),
    "labels": lambda path: kitti_io.write_labels(kitti_io.classes_to_raw_labels([1, 3]), path),
    "poses": lambda path: kitti_io.write_poses([kitti_io.Pose.identity()], path, CALIB),
    "calib": lambda path: kitti_io.write_calib(CALIB, path),
    "logits": lambda path: teacher.write_logits(GRID, path),
    "checkpoint": lambda path: nnet.save_checkpoint(
        path, nnet.build_network("student:base=8", seed=0)
    ),
    "metrics": lambda path: metrics.write_metrics({"moving_iou": 0.5}, path),
    "render": lambda path: bev.write_pgm(np.zeros((2, 3)), path),
}


@pytest.mark.parametrize(
    "verb, kind, call",
    [("read", k, f) for k, f in READERS.items()] + [("write", k, f) for k, f in WRITERS.items()],
    ids=[f"read-{k}" for k in READERS] + [f"write-{k}" for k in WRITERS],
)
def test_os_error_becomes_io_failure(tmp_path, verb, kind, call):
    path = tmp_path / "missing-dir" / f"file.{kind}"
    with pytest.raises(IoFailure) as info:
        call(path)
    assert info.value.exit_code == 1
    assert str(info.value).startswith(f"cannot {verb} {kind} {path}: ")
    assert isinstance(info.value.__cause__, OSError)
