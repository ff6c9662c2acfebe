"""Sequence-to-sample plumbing, the training loop, and evaluation.

A training sample is one temporal window ending at frame i: the window's
frames are aligned into frame i's viewpoint, projected, pooled into the
motion tensor, and paired with frame i's cell labels (and, when
distilling, a teacher logit grid).  Projection of independent frames may
run thread-parallel; results are collected in frame order so outputs are
identical at any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bev, geometry, losses, metrics, nnet, teacher
from .config import RunConfig
from .errors import ConfigError, EmptyFrame, NonFiniteLoss, ShapeMismatch
from .kitti_io import (
    NUM_CLASSES,
    ClassMap,
    PointCloud,
    Pose,
    read_calib,
    read_labels,
    read_poses,
    read_scan,
    remap_labels,
)


@dataclass
class FrameSample:
    frame_id: int
    motion: bev.MotionTensor
    labels: bev.CellLabelGrid
    cells: bev.CellIndexMap        # current frame's assignment, for back-projection
    point_classes: np.ndarray      # current frame's per-point truth
    height: bev.HeightImage        # current frame's height image
    teacher_logits: losses.LogitGrid | None = None


def load_sequence(
    seq_dir: str | Path, class_map: ClassMap | None = None
) -> tuple[list[PointCloud], list[np.ndarray], list[Pose]]:
    """Read every scan, its remapped classes, and LiDAR-frame poses."""
    seq_dir = Path(seq_dir)
    calib = read_calib(seq_dir / "calib.txt")
    poses = read_poses(seq_dir / "poses.txt", calib)
    scan_paths = sorted((seq_dir / "velodyne").glob("*.bin"))
    clouds = []
    classes = []
    for path in scan_paths:
        cloud = read_scan(path)
        label_path = seq_dir / "labels" / (path.stem + ".label")
        labels = read_labels(label_path, len(cloud))
        clouds.append(cloud)
        classes.append(remap_labels(labels, class_map))
    if len(poses) < len(clouds):
        raise ConfigError(
            f"{seq_dir}: {len(poses)} poses for {len(clouds)} scans"
        )
    return clouds, classes, poses[: len(clouds)]


def usable_frames(n_frames: int, window: int) -> list[int]:
    """Frames with a full history window: window-1 .. n_frames-1."""
    return list(range(window - 1, n_frames))


def build_sample(
    clouds: list[PointCloud],
    classes: list[np.ndarray],
    poses: list[Pose],
    index: int,
    grid: bev.BevGrid,
    window: int,
    split: int,
    aggregate: str = "max",
    per_frame_residuals: bool = False,
    appearance: bool = False,
) -> FrameSample:
    """Project the window ending at ``index`` into one training sample."""
    first = index - window + 1
    if first < 0:
        raise ConfigError(f"frame {index} lacks a full window of {window}")
    aligned = geometry.align_to_current(
        clouds[first : index + 1], poses[first : index + 1], window - 1
    )
    # aligned frames are ordered current-first; height images newest-first
    images = []
    current_cells = None
    for frame in aligned.frames:
        cells = bev.project_to_cells(frame.cloud, grid)
        if frame.time_step == 0:
            current_cells = cells
        images.append(bev.height_image(cells, frame.cloud, grid))
    q1 = images[:split]
    q2 = images[split:]
    motion = bev.motion_residuals(q1, q2, aggregate, per_frame_residuals)
    if appearance:
        motion = bev.append_appearance(motion, images)
    labels = bev.cell_labels(current_cells, classes[index], grid)
    return FrameSample(
        frame_id=clouds[index].frame_id,
        motion=motion,
        labels=labels,
        cells=current_cells,
        point_classes=classes[index],
        height=images[0],
    )


def build_samples(
    clouds: list[PointCloud],
    classes: list[np.ndarray],
    poses: list[Pose],
    cfg: RunConfig,
    threads: int = 1,
) -> list[FrameSample]:
    grid = cfg.bev_grid()
    window, split = cfg.window()
    idxs = usable_frames(len(clouds), window)
    if not idxs:
        raise ConfigError(f"{len(clouds)} frames, too short for a window of {window}")

    def make(i: int) -> FrameSample:
        return build_sample(
            clouds,
            classes,
            poses,
            i,
            grid,
            window,
            split,
            cfg.get_str("bev.aggregate"),
            cfg.get_bool("bev.per_frame_residuals"),
            cfg.get_bool("bev.appearance_channels"),
        )

    if threads > 1 and len(idxs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(make, idxs))
    return [make(i) for i in idxs]


def attach_synth_teacher(
    samples: list[FrameSample], kappa: float, sigma: float, seed: int
) -> None:
    """Give each sample a label-conditioned teacher grid; per-frame seeds."""
    for sample in samples:
        sample.teacher_logits = teacher.synth_teacher(
            sample.labels, kappa, sigma, seed=seed * 100003 + sample.frame_id
        )


def attach_file_teacher(samples: list[FrameSample], logits_dir: str | Path) -> None:
    """Read each sample's teacher grid; it must match the sample's label grid."""
    logits_dir = Path(logits_dir)
    for sample in samples:
        path = logits_dir / teacher.logits_filename(sample.frame_id)
        grid = teacher.read_logits(path)
        expected = (*sample.labels.labels.shape, NUM_CLASSES)
        if grid.shape != expected:
            raise ShapeMismatch(
                f"{path}: teacher grid {grid.shape} does not match the label grid "
                f"{expected} of frame {sample.frame_id}"
            )
        if not np.array_equal(grid.valid, sample.labels.valid):
            raise ShapeMismatch(
                f"{path}: teacher validity mask differs from the label grid "
                f"of frame {sample.frame_id}"
            )
        sample.teacher_logits = grid


def input_channels(cfg: RunConfig) -> int:
    window, _ = cfg.window()
    return window * 2 if cfg.get_bool("bev.appearance_channels") else window


def student_descriptor(cfg: RunConfig) -> str:
    return f"student:in={input_channels(cfg)},base={cfg.get_int('net.base_width')}"


def teacher_descriptor(cfg: RunConfig) -> str:
    return f"teacher:in={input_channels(cfg)},base={2 * cfg.get_int('net.base_width')}"


def student_forward(
    net: nnet.Network, sample: FrameSample
) -> tuple[losses.LogitGrid, list]:
    """Run the network on one sample; validity follows the label grid."""
    y, caches = net.forward(sample.motion.channels)
    if not np.isfinite(y).all():
        raise NonFiniteLoss(
            f"non-finite logits at frame {sample.frame_id}", frame_id=sample.frame_id
        )
    grid = losses.LogitGrid(
        scores=np.transpose(y, (1, 2, 0)), valid=sample.labels.valid.copy()
    )
    return grid, caches


def predict_logits(net: nnet.Network, sample: FrameSample) -> losses.LogitGrid:
    grid, _ = student_forward(net, sample)
    return grid


@dataclass
class EpochLog:
    epoch: int
    lr: float
    wce: float
    lovasz: float
    wdcd: float
    total: float
    heldout_moving_iou: float

    def format(self) -> str:
        return (
            f"epoch={self.epoch} lr={self.lr:.6g} wce={self.wce:.6g} "
            f"lovasz={self.lovasz:.6g} wdcd={self.wdcd:.6g} total={self.total:.6g} "
            f"heldout_moving_iou={self.heldout_moving_iou:.6g}"
        )


def train_student(
    net: nnet.Network,
    train: list[FrameSample],
    heldout: list[FrameSample],
    cfg: RunConfig,
    epochs: int,
    progress=None,
) -> list[EpochLog]:
    """SGD training with the composed loss; deterministic per seed.

    Raises NonFiniteLoss (with the offending frame id) the moment a loss
    stops being finite, and EmptyFrame naming the frame that has no valid
    cell.
    """
    if not train:
        raise ConfigError("no training samples")
    dcfg = cfg.distill()
    class_weights = cfg.class_weights()
    lovasz_classes = cfg.lovasz_classes()
    state = nnet.SgdState(
        lr=cfg.get_float("opt.lr"),
        momentum=cfg.get_float("opt.momentum"),
        weight_decay=cfg.get_float("opt.weight_decay"),
        lr_decay=cfg.get_float("opt.lr_decay"),
    )
    batch_size = max(1, cfg.get_int("train.batch_size"))
    rng = np.random.default_rng(cfg.get_int("train.seed") + 1)
    params = net.parameters()
    logs: list[EpochLog] = []
    for epoch in range(epochs):
        order = rng.permutation(len(train))
        sums = {"wce": 0.0, "lovasz": 0.0, "wdcd": 0.0, "total": 0.0}
        for start in range(0, len(order), batch_size):
            batch = [train[i] for i in order[start : start + batch_size]]
            grads = {name: np.zeros_like(p) for name, p in params.items()}
            for sample in batch:
                logits, caches = student_forward(net, sample)
                try:
                    result = losses.total_loss(
                        logits,
                        sample.teacher_logits,
                        sample.labels,
                        dcfg,
                        class_weights,
                        lovasz_classes,
                    )
                except EmptyFrame as exc:
                    raise EmptyFrame(f"no valid cells in frame {sample.frame_id}") from exc
                if not np.isfinite(result.value):
                    raise NonFiniteLoss(
                        f"non-finite loss at frame {sample.frame_id}",
                        frame_id=sample.frame_id,
                    )
                _, pgrads = net.backward(
                    np.transpose(result.grad, (2, 0, 1)), caches
                )
                for name in grads:
                    grads[name] += pgrads[name] / len(batch)
                for key in ("wce", "lovasz", "wdcd"):
                    sums[key] += result.parts[key]
                sums["total"] += result.value
            state.step(params, grads)
        lr_logged = state.lr
        state.end_epoch()
        hiou = evaluate(net, heldout)["point_iou_moving"] if heldout else float("nan")
        log = EpochLog(
            epoch=epoch,
            lr=lr_logged,
            wce=sums["wce"] / len(train),
            lovasz=sums["lovasz"] / len(train),
            wdcd=sums["wdcd"] / len(train),
            total=sums["total"] / len(train),
            heldout_moving_iou=hiou,
        )
        logs.append(log)
        if progress is not None:
            progress(log.format())
    return logs


def evaluate(
    net: nnet.Network, samples: list[FrameSample], threads: int = 1
) -> dict[str, object]:
    """Cell-level and point-level IoU report over the given samples."""
    cell_cm = metrics.ConfusionMatrix()
    point_cm = metrics.ConfusionMatrix()

    def predict(sample: FrameSample) -> np.ndarray:
        grid, _ = student_forward(net, sample)
        return np.argmax(grid.scores, axis=2)

    if threads > 1 and len(samples) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            preds = list(pool.map(predict, samples))
    else:
        preds = [predict(s) for s in samples]
    for sample, cell_pred in zip(samples, preds):
        valid = sample.labels.valid
        metrics.accumulate(cell_cm, cell_pred[valid], sample.labels.labels[valid])
        point_pred = bev.back_project(cell_pred.astype(np.uint8), sample.cells)
        metrics.accumulate(point_cm, point_pred, sample.point_classes)
    return metrics.metrics_report(cell_cm, point_cm)


def split_train_heldout(
    samples: list[FrameSample], val_fraction: float
) -> tuple[list[FrameSample], list[FrameSample]]:
    """Temporal split: the trailing fraction is held out."""
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigError("train.val_fraction must be in [0, 1)")
    n_val = int(round(len(samples) * val_fraction))
    if n_val == 0:
        return samples, []
    if n_val >= len(samples):
        n_val = len(samples) - 1
    return samples[:-n_val], samples[-n_val:]
