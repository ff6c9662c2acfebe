"""Rigid transforms and alignment of past frames into the current viewpoint.

Point coordinates are carried in float64 once transformed so that
round-trip and alignment tolerances hold regardless of the float32
storage format of raw scans.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange
from .kitti_io import PointCloud, Pose


def transform_points(cloud: PointCloud, pose: Pose) -> PointCloud:
    """Apply a rigid transform to every point (homogeneous multiply, w = 1).

    The result is (N, 4) float64 with intensity kept, stored column-major:
    the transpose of one (4, N) buffer, so each coordinate column is
    contiguous for the per-column ufuncs of the projection.
    """
    r = pose.matrix[:3, :3]
    t = pose.matrix[:3, 3]
    pts = cloud.points
    # float64 coordinates, one contiguous row per axis: copying column by
    # column is faster than converting the transposed strided view
    xyz = np.empty((3, len(cloud)))
    for k in range(3):
        xyz[k] = pts[:, k]
    buf = np.empty((4, len(cloud)))
    np.matmul(r, xyz, out=buf[:3])
    buf[:3] += t[:, None]
    buf[3] = pts[:, 3]
    return PointCloud(points=buf.T, frame_id=cloud.frame_id)


def align_to_current(
    frames: list[PointCloud], poses: list[Pose], current: int
) -> list[PointCloud]:
    """Express frames[0..current] in the viewpoint of ``frames[current]``.

    Frame k is mapped through T_rel = T_current^-1 . T_k.  The result is
    ordered current-first: entry j is the frame j steps back, and entry 0
    is ``frames[current]`` untouched.  Frames newer than ``current`` are
    excluded.
    """
    if len(frames) != len(poses):
        raise IndexOutOfRange(
            f"{len(frames)} frames but {len(poses)} poses"
        )
    if not 0 <= current < len(frames):
        raise IndexOutOfRange(f"current index {current} outside [0, {len(frames)})")
    inv_current = poses[current].inverse()
    return [frames[current]] + [
        transform_points(frames[k], inv_current @ poses[k]) for k in range(current - 1, -1, -1)
    ]
