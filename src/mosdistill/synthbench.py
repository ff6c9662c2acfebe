"""Deterministic synthetic LiDAR sequences with exact ground truth.

Scenes are flat arenas of background scatter plus point-sprinkled discs:
moving discs translate at constant velocity, movable discs stand still,
and the ego sensor may drift at its own constant velocity.  Everything is
closed-form, so alignment and displacement oracles are exact, and every
draw comes from one seeded generator, so identical seeds give bit-identical
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, make_dirs
from .kitti_io import (
    CLASS_MOVABLE,
    CLASS_MOVING,
    CLASS_STATIC,
    PointCloud,
    Pose,
    classes_to_raw_labels,
    write_calib,
    write_labels,
    write_poses,
    write_scan,
)

# z bands (inside the BEV z range): low flat scatter, taller discs
_BACKGROUND_Z = (-1.8, -1.2)
_DISC_Z = (-1.2, 0.8)
_PLACEMENT_MARGIN = 0.5
_MAX_PLACEMENT_TRIES = 1000


@dataclass(frozen=True)
class SceneConfig:
    n_frames: int = 8
    n_moving: int = 2
    n_static_movable: int = 3
    n_static: int = 2000  # background scatter points
    radius_range: tuple[float, float] = (1.0, 3.0)
    speed_range: tuple[float, float] = (0.5, 1.5)  # meters per frame
    points_per_disc: int = 50
    ego_velocity: tuple[float, float] = (0.5, 0.0)  # meters per frame
    arena_radius: float = 40.0
    seed: int = 0


@dataclass(frozen=True)
class DiscTruth:
    center: np.ndarray        # (2,) at frame 0, world coordinates
    velocity: np.ndarray      # (2,) meters per frame, zero for static discs
    radius: float
    class_id: int
    point_range: tuple[int, int]  # slice of the per-frame point arrays

    def center_at(self, frame: int) -> np.ndarray:
        return self.center + self.velocity * frame


@dataclass(frozen=True)
class SceneTruth:
    discs: list[DiscTruth]


def gen_scene(
    cfg: SceneConfig,
) -> tuple[list[PointCloud], list[np.ndarray], list[Pose], SceneTruth]:
    """Generate frames, per-point class labels, poses, and ground truth.

    Point order per frame is fixed: moving discs, movable discs, then
    background; labels and clouds are parallel.  Poses map each frame's
    sensor coordinates into the world (frame 0) coordinates.
    """
    rng = np.random.default_rng(cfg.seed)
    ego = np.array(cfg.ego_velocity, dtype=np.float64)
    horizon = max(cfg.n_frames - 1, 0)

    discs: list[DiscTruth] = []
    placed: list[tuple[np.ndarray, float]] = []
    offset = 0
    specs = [(CLASS_MOVING, True)] * cfg.n_moving + [
        (CLASS_MOVABLE, False)
    ] * cfg.n_static_movable
    for class_id, moves in specs:
        disc = _place_disc(rng, cfg, placed, moves, horizon, class_id, offset)
        placed.append((disc.center, disc.radius))
        discs.append(disc)
        offset += cfg.points_per_disc

    # per-disc local sprinkles and static background, sampled once in world space
    disc_points = []
    for disc in discs:
        r = disc.radius * np.sqrt(rng.uniform(size=cfg.points_per_disc))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=cfg.points_per_disc)
        z = rng.uniform(*_DISC_Z, size=cfg.points_per_disc)
        local = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
        disc_points.append(local)
    bg_r = cfg.arena_radius * np.sqrt(rng.uniform(size=cfg.n_static))
    bg_theta = rng.uniform(0.0, 2.0 * np.pi, size=cfg.n_static)
    bg_z = rng.uniform(*_BACKGROUND_Z, size=cfg.n_static)
    bg_xy = (bg_r * np.cos(bg_theta), bg_r * np.sin(bg_theta))
    n_points = len(discs) * cfg.points_per_disc + cfg.n_static
    intensity = rng.uniform(size=n_points).astype(np.float32)

    classes = np.concatenate(
        [np.full(cfg.points_per_disc, d.class_id, dtype=np.uint8) for d in discs]
        + [np.full(cfg.n_static, CLASS_STATIC, dtype=np.uint8)]
    ) if n_points else np.zeros(0, dtype=np.uint8)

    frames: list[PointCloud] = []
    labels: list[np.ndarray] = []
    poses: list[Pose] = []
    for f in range(cfg.n_frames):
        # sensor = world - f * ego, in float64, written straight into the float32 frame
        shift = f * ego
        pts = np.empty((n_points, 4), dtype=np.float32)
        for disc, local in zip(discs, disc_points):
            lo, hi = disc.point_range
            pts[lo:hi, :2] = (local[:, :2] + disc.center_at(f)) - shift
            pts[lo:hi, 2] = local[:, 2]
        bg = pts[len(pts) - cfg.n_static :]
        for axis in range(2):
            np.subtract(bg_xy[axis], shift[axis], out=bg[:, axis], casting="same_kind")
        bg[:, 2] = bg_z
        pts[:, 3] = intensity
        frames.append(PointCloud(points=pts, frame_id=f))
        labels.append(classes.copy())
        poses.append(Pose.from_rt(np.eye(3), np.array([f * ego[0], f * ego[1], 0.0])))
    truth = SceneTruth(discs=discs)
    return frames, labels, poses, truth


def gen_sequence(
    cfg: SceneConfig,
) -> tuple[list[PointCloud], list[np.ndarray], list[Pose]]:
    frames, labels, poses, _ = gen_scene(cfg)
    return frames, labels, poses


def _place_disc(
    rng: np.random.Generator,
    cfg: SceneConfig,
    placed: list[tuple[np.ndarray, float]],
    moves: bool,
    horizon: int,
    class_id: int,
    offset: int,
) -> DiscTruth:
    """Rejection-sample a disc that stays in the arena and avoids overlaps."""
    for _ in range(_MAX_PLACEMENT_TRIES):
        radius = rng.uniform(*cfg.radius_range)
        c_r = (cfg.arena_radius - radius) * np.sqrt(rng.uniform())
        c_t = rng.uniform(0.0, 2.0 * np.pi)
        center = np.array([c_r * np.cos(c_t), c_r * np.sin(c_t)])
        if moves:
            speed = rng.uniform(*cfg.speed_range)
            direction = rng.uniform(0.0, 2.0 * np.pi)
            velocity = speed * np.array([np.cos(direction), np.sin(direction)])
        else:
            velocity = np.zeros(2)
        end = center + velocity * horizon
        if np.linalg.norm(end) + radius > cfg.arena_radius:
            continue
        if any(
            np.linalg.norm(center - oc) < radius + orad + _PLACEMENT_MARGIN
            for oc, orad in placed
        ):
            continue
        return DiscTruth(
            center=center,
            velocity=velocity,
            radius=float(radius),
            class_id=class_id,
            point_range=(offset, offset + cfg.points_per_disc),
        )
    raise ConfigError(
        f"could not place a disc after {_MAX_PLACEMENT_TRIES} attempts; "
        "arena too crowded for the configured radii and speeds"
    )


def export_kitti_sequence(cfg: SceneConfig, seq_dir: str | Path) -> int:
    """Write a generated scene in the SemanticKITTI sequence layout.

    Returns the number of frames written.  The directory becomes
    ``{seq_dir}/velodyne/*.bin``, ``labels/*.label``, ``poses.txt``,
    ``calib.txt`` (an identity ``Tr``) and runs through the standard
    readers unmodified.
    """
    frames, labels, poses = gen_sequence(cfg)
    seq_dir = Path(seq_dir)
    make_dirs(seq_dir / "velodyne", "sequence directory")
    make_dirs(seq_dir / "labels", "sequence directory")
    calib = Pose.identity()
    for cloud, classes in zip(frames, labels):
        write_scan(cloud, seq_dir / "velodyne" / f"{cloud.frame_id:06d}.bin")
        write_labels(
            classes_to_raw_labels(classes),
            seq_dir / "labels" / f"{cloud.frame_id:06d}.label",
        )
    write_poses(poses, seq_dir / "poses.txt", calib)
    write_calib(calib, seq_dir / "calib.txt")
    return len(frames)
