"""Bit-exact SemanticKITTI readers and writers plus the 4-class remap.

Directory layout of one sequence::

    sequences/{NN}/velodyne/{FFFFFF}.bin   consecutive float32 LE (x, y, z, intensity)
    sequences/{NN}/labels/{FFFFFF}.label   uint32 LE; low 16 bits semantic id, high 16 instance id
    sequences/{NN}/poses.txt               12 whitespace-separated floats per line (row-major 3x4,
                                           camera frame)
    sequences/{NN}/calib.txt               the line starting with ``Tr:`` holds the 12 floats of the
                                           camera-to-LiDAR extrinsic

All binary values are little-endian.  Parsing is total: well-formed input
always succeeds, malformed input raises a typed error from
:mod:`mosdistill.errors`, never a bare exception.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    LabelCountMismatch,
    MalformedCalib,
    MalformedLabel,
    MalformedPoseLine,
    MalformedScan,
    file_errors,
    read_file,
    write_file,
)

#: bound on each translation entry of a pose or ``Tr``, in meters: far beyond
#: any LiDAR sequence, and small enough that no product of poses overflows
MAX_TRANSLATION_M = 1e9

#: class ids used everywhere downstream
CLASS_UNLABELED = 0
CLASS_STATIC = 1
CLASS_MOVABLE = 2
CLASS_MOVING = 3
NUM_CLASSES = 4
CLASS_NAMES = ("unlabeled", "static", "movable", "moving")

#: total map from 16-bit semantic ids to the 4 task classes, in the
#: SemanticKITTI-MOS convention: moving = 252..259, movable = the
#: vehicle/person ids, 0/1 unlabeled, the rest static
CLASS_TABLE = np.full(65536, CLASS_STATIC, dtype=np.uint8)
CLASS_TABLE[[0, 1]] = CLASS_UNLABELED
CLASS_TABLE[[10, 11, 13, 15, 18, 20, 30, 31, 32]] = CLASS_MOVABLE
CLASS_TABLE[252:260] = CLASS_MOVING
CLASS_TABLE.flags.writeable = False

#: inverse of ``CLASS_TABLE``: one raw label per class id (unlabeled, road,
#: car, moving car), written out by the synthetic-sequence exporter
RAW_LABEL = np.array([0, 40, 10, 252], dtype=np.uint32)
RAW_LABEL.flags.writeable = False


@dataclass(frozen=True)
class PointCloud:
    """One LiDAR frame: an (N, 4) array of (x, y, z, intensity)."""

    points: np.ndarray
    frame_id: int = 0

    def __post_init__(self) -> None:
        pts = np.asarray(self.points)
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"points must be (N, 4), got {pts.shape}")
        if self.frame_id < 0:
            raise ValueError("frame_id must be non-negative")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]


@dataclass(frozen=True)
class Pose:
    """4x4 transform (row-major, meters): a pose, or the camera-to-LiDAR
    extrinsic ``Tr`` of a KITTI odometry calib file.  Not a finite 4x4 with
    bottom row [0, 0, 0, 1] raises ValueError; rigidity is checked where a
    pose is read (``_parse_pose``), and never by ``inverse`` or ``@``."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"must be 4x4, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("contains non-finite entries")
        if not np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0]):
            raise ValueError("bottom row must be [0,0,0,1]")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(4))

    @classmethod
    def from_rt(cls, rotation: np.ndarray, translation: np.ndarray) -> "Pose":
        m = np.eye(4)
        m[:3, :3] = rotation
        m[:3, 3] = translation
        return cls(m)

    def inverse(self) -> "Pose":
        r = self.matrix[:3, :3]
        t = self.matrix[:3, 3]
        m = np.eye(4)
        m[:3, :3] = r.T
        m[:3, 3] = -r.T @ t
        return Pose(m)

    def __matmul__(self, other: "Pose") -> "Pose":
        return Pose(self.matrix @ other.matrix)


def _read_records(path: Path, what: str, dtype: np.dtype, error: type[Exception]) -> np.ndarray:
    """``path`` read straight into a new array of whole ``dtype`` records: a
    partial record or a short read raises ``error``, an OSError IoFailure
    naming ``what``."""
    record = dtype.itemsize
    with file_errors("read", what, path), open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size % record != 0:
            raise error(f"{path}: size {size} is not a multiple of {record}")
        out = np.empty(size // record, dtype=dtype)
        got = f.readinto(out)
    if got != size:
        raise error(f"{path}: read {got} of {size} bytes")
    return out


def read_scan(path: str | Path) -> PointCloud:
    """Parse a ``.bin`` scan into a PointCloud.

    Point count is file_size / 16; coordinates must be finite.  The file is
    read straight into the returned (N, 4) float32 array; the coordinate
    columns are checked on their own only when some value is not finite.
    """
    path = Path(path)
    pts = _read_records(path, "scan", np.dtype(("<f4", 4)), MalformedScan)
    if not np.isfinite(pts).all() and not np.isfinite(pts[:, :3]).all():
        raise MalformedScan(f"{path}: non-finite coordinate")
    return PointCloud(points=pts, frame_id=_frame_id_from_name(path))


def write_scan(cloud: PointCloud, path: str | Path) -> None:
    """Inverse of :func:`read_scan`; float32 LE records, from the array's buffer."""
    write_file(path, memoryview(np.ascontiguousarray(cloud.points, dtype="<f4")), "scan")


def read_labels(path: str | Path, expected_count: int) -> np.ndarray:
    """Parse a ``.label`` file into (N,) uint32 raw labels and check N
    against the scan."""
    raw = _read_records(Path(path), "labels", np.dtype("<u4"), MalformedLabel)
    if raw.shape[0] != expected_count:
        raise LabelCountMismatch(
            f"{path}: {raw.shape[0]} labels for {expected_count} points"
        )
    return raw


def write_labels(labels: np.ndarray, path: str | Path) -> None:
    """Inverse of :func:`read_labels`: raw labels as uint32 LE records."""
    write_file(path, memoryview(np.ascontiguousarray(labels, dtype="<u4")), "labels")


def remap_labels(labels: np.ndarray) -> np.ndarray:
    """Map (N,) raw labels to class ids in {0..3} through ``CLASS_TABLE``;
    only the low 16 bits, the semantic id, are consulted."""
    return CLASS_TABLE[(labels & np.uint32(0xFFFF)).astype(np.uint16)]


def _frame_id_from_name(path: Path) -> int:
    stem = path.stem
    return int(stem) if stem.isdigit() else 0


def _parse_pose(tokens: list[str], error: type[Exception], where: str) -> Pose:
    """12 floats of a rigid 3x4 transform lifted to a Pose: finite, with a
    rotation block orthonormal within 1e-6 that is not a reflection, and
    translations within ``MAX_TRANSLATION_M``.  Anything else raises
    ``error`` with a message prefixed by ``where``."""
    if len(tokens) != 12:
        raise error(f"{where}: expected 12 values, got {len(tokens)}")
    m = np.eye(4)
    try:
        m[:3, :] = np.array([float(tok) for tok in tokens]).reshape(3, 4)
        pose = Pose(m)
        r = m[:3, :3]
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-6:
            raise ValueError("rotation block is not orthonormal within 1e-6")
        if np.linalg.det(r) < 0.0:
            raise ValueError("rotation block is a reflection")
        if np.abs(m[:3, 3]).max() > MAX_TRANSLATION_M:
            raise ValueError(f"translation exceeds {MAX_TRANSLATION_M:g} m")
    except ValueError as exc:
        raise error(f"{where}: {exc}") from exc
    return pose


def read_poses(path: str | Path, calib: Pose) -> list[Pose]:
    """Read camera-frame poses and convert them to the LiDAR frame.

    Each line is checked by ``_parse_pose``, then conjugated by the
    extrinsic, unchecked: T_velo = Tr^-1 . T_cam . Tr.
    """
    path = Path(path)
    text = read_file(path, "poses", text=True)
    tr = calib.matrix
    tr_inv = calib.inverse().matrix
    poses = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        t_cam = _parse_pose(line.split(), MalformedPoseLine, f"{path}:{lineno}")
        poses.append(Pose(tr_inv @ t_cam.matrix @ tr))
    return poses


def write_poses(poses: list[Pose], path: str | Path, calib: Pose) -> None:
    """Inverse of :func:`read_poses`: LiDAR-frame poses back to camera-frame lines."""
    tr = calib.matrix
    tr_inv = calib.inverse().matrix
    lines = []
    for pose in poses:
        t_cam = tr @ pose.matrix @ tr_inv
        lines.append(" ".join(f"{v:.17g}" for v in t_cam[:3, :].ravel()))
    write_file(path, "\n".join(lines) + "\n", "poses")


def read_calib(path: str | Path) -> Pose:
    """Extract the ``Tr:`` extrinsic from a KITTI odometry calib file."""
    path = Path(path)
    for line in read_file(path, "calib", text=True).splitlines():
        if line.startswith("Tr:"):
            return _parse_pose(line.split()[1:], MalformedCalib, f"{path}: Tr")
    raise MalformedCalib(f"{path}: no line starting with 'Tr:'")


def write_calib(calib: Pose, path: str | Path) -> None:
    line = "Tr: " + " ".join(f"{v:.17g}" for v in calib.matrix[:3, :].ravel())
    write_file(path, line + "\n", "calib")


def classes_to_raw_labels(classes: np.ndarray) -> np.ndarray:
    """Encode class ids as (N,) uint32 raw labels through ``RAW_LABEL``."""
    return RAW_LABEL[np.asarray(classes)]
