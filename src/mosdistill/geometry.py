"""Rigid transforms and alignment of past frames into the current viewpoint.

Point coordinates are carried in float64 once transformed so that
round-trip and alignment tolerances hold regardless of the float32
storage format of raw scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange
from .kitti_io import PointCloud, Pose


@dataclass(frozen=True)
class AlignedFrame:
    """A frame expressed in the current frame's coordinates."""

    cloud: PointCloud
    time_step: int  # integer frame offset into the past; 0 = current


@dataclass(frozen=True)
class AlignedSequence:
    """Frames of one temporal window, all in the current frame's coordinates.

    Ordered by time_step ascending (current frame first).
    """

    frames: list[AlignedFrame]

    def __post_init__(self) -> None:
        steps = [f.time_step for f in self.frames]
        if any(t < 0 for t in steps):
            raise ValueError("time steps must be non-negative")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("time steps must be strictly increasing into the past")

    def __len__(self) -> int:
        return len(self.frames)


def transform_points(cloud: PointCloud, pose: Pose) -> PointCloud:
    """Apply a rigid transform to every point (homogeneous multiply, w = 1)."""
    r = pose.matrix[:3, :3]
    t = pose.matrix[:3, 3]
    pts = cloud.points.astype(np.float64)  # contiguous copy, intensity kept
    xyz = pts[:, :3] @ r.T
    xyz += t
    pts[:, :3] = xyz
    return PointCloud(points=pts, frame_id=cloud.frame_id)


def align_to_current(
    frames: list[PointCloud], poses: list[Pose], current: int
) -> AlignedSequence:
    """Express frames[0..current] in the viewpoint of ``frames[current]``.

    Frame k is mapped through T_rel = T_current^-1 . T_k and tagged with
    time_step = current - k.  The current frame passes through untouched.
    Frames newer than ``current`` are excluded (their time step would be
    negative).
    """
    if len(frames) != len(poses):
        raise IndexOutOfRange(
            f"{len(frames)} frames but {len(poses)} poses"
        )
    if not 0 <= current < len(frames):
        raise IndexOutOfRange(f"current index {current} outside [0, {len(frames)})")
    inv_current = poses[current].inverse()
    aligned = []
    for k in range(current, -1, -1):
        if k == current:
            cloud = frames[k]
        else:
            cloud = transform_points(frames[k], inv_current @ poses[k])
        aligned.append(AlignedFrame(cloud=cloud, time_step=current - k))
    return AlignedSequence(frames=aligned)
