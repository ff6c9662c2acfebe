"""Sequence-to-sample plumbing, the training loop, and evaluation.

A training sample is one temporal window ending at frame i: the window's
frames are taken in blocks of ``BLOCK`` points into frame i's viewpoint
and projected, so no aligned frame is ever held whole, and pooled frame by
frame into the motion tensor, paired with frame i's cell labels (and, when
distilling, a teacher logit grid).  Independent frames (projection,
inference) may run on a thread pool through ``map_frames``; results are
collected in frame order so outputs are identical at any thread count.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bev, geometry, losses, metrics, nnet, teacher
from .config import RunConfig
from .errors import ConfigError, EmptyFrame, LengthMismatch, NonFiniteLoss, ShapeMismatch
from .kitti_io import (
    CLASS_UNLABELED,
    NUM_CLASSES,
    PointCloud,
    Pose,
    read_calib,
    read_labels,
    read_poses,
    read_scan,
    remap_labels,
)

# points per projection block: a 130k-point frame is four blocks, so a window
# makes a quarter of the numpy calls it made at 16,384, and two pool threads
# build windows faster; 65,536 slowed the one-thread build (see ROADMAP)
BLOCK = 32_768


@dataclass
class FrameSample:
    frame_id: int
    motion: bev.MotionTensor
    labels: bev.CellLabelGrid
    cells: bev.CellIndexMap        # current frame's assignment, for back-projection
    point_classes: np.ndarray      # current frame's per-point truth
    height: np.ndarray             # current frame's height image
    teacher_logits: losses.LogitGrid | None = None


def load_sequence(
    seq_dir: str | Path,
) -> tuple[list[PointCloud], list[np.ndarray], list[Pose]]:
    """Read every scan, its remapped classes, and LiDAR-frame poses.

    A sequence without a ``labels/`` directory (the layout of the
    SemanticKITTI test sequences) gives every point ``CLASS_UNLABELED``.
    ``poses.txt`` pairs with scans by position, so a scan whose file-name
    number is not its position, or fewer poses than scans, raise
    LengthMismatch before any scan is read.
    """
    seq_dir = Path(seq_dir)
    calib = read_calib(seq_dir / "calib.txt")
    poses = read_poses(seq_dir / "poses.txt", calib)
    scan_paths = sorted((seq_dir / "velodyne").glob("*.bin"))
    for pos, path in enumerate(scan_paths):
        if not path.stem.isdigit() or int(path.stem) != pos:
            raise LengthMismatch(f"{path}: at position {pos}, a gap would shift every later pose")
    if len(poses) < len(scan_paths):
        raise LengthMismatch(
            f"{seq_dir / 'poses.txt'}: {len(poses)} poses for {len(scan_paths)} scans"
        )
    labels_dir = seq_dir / "labels"
    labeled = labels_dir.is_dir()
    clouds = []
    classes = []
    for path in scan_paths:
        cloud = read_scan(path)
        clouds.append(cloud)
        if labeled:
            labels = read_labels(labels_dir / (path.stem + ".label"), len(cloud))
            classes.append(remap_labels(labels))
        else:
            classes.append(np.full(len(cloud), CLASS_UNLABELED, dtype=np.uint8))
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
) -> FrameSample:
    """Project the window ending at ``index`` into one training sample.

    Every frame, newest first, runs through one loop over blocks of at most
    ``BLOCK`` points: a past frame's block is moved into the current view
    (``geometry.transform_points``), each block is binned
    (``bev.project_to_cells``) and its z values are folded into the frame's
    per-cell max and min (``bev.fold_heights``).  Its height image goes at
    once into its half's running max (the newer half: the first ``split``
    frames).  No aligned cloud or frame image outlives its frame, and the
    sample is, bit for bit, that of the whole frames of
    ``geometry.align_to_current``.
    """
    first = index - window + 1
    if first < 0:
        raise ConfigError(f"frame {index} lacks a full window of {window}")
    inv_current = poses[index].inverse()
    pooled = np.zeros((2, *grid.shape))  # spans are >= 0, and 0 where unoccupied
    for k in range(index, first - 1, -1):
        cloud = clouds[k]
        flats = []  # the current frame's block cell maps, dropped at the next frame
        pose = None if k == index else inv_current @ poses[k]  # T_current^-1 . T_k
        bounds = None
        for start in range(0, len(cloud) or 1, BLOCK):  # an empty frame is one empty block
            block = PointCloud(cloud.points[start : start + BLOCK], cloud.frame_id)
            if pose is not None:
                block = geometry.transform_points(block, pose)
            cells = bev.project_to_cells(block, grid)
            bounds = bev.fold_heights(cells, block, bounds)
            if pose is None:
                flats.append(cells.flat)
        height = bev.height_image(bounds)
        half = pooled[0 if index - k < split else 1]
        np.maximum(half, height, out=half)
        if pose is None:  # labelled first: the peak does not grow with the window
            current_height = height
            current_cells = bev.CellIndexMap(shape=grid.shape, flat=np.concatenate(flats))
            labels = bev.cell_labels(current_cells, classes[index], grid)
    return FrameSample(
        frame_id=clouds[index].frame_id,
        motion=bev.motion_residuals(pooled[0], pooled[1], split, window - split),
        labels=labels,
        cells=current_cells,
        point_classes=classes[index],
        height=current_height,
    )


def map_frames(fn: Callable, items: Sequence, threads: int) -> list:
    """``[fn(item) for item in items]``, on ``threads`` pool workers when
    ``threads > 1``.  Results come back in item order; the first item (in
    that order) whose call raised re-raises its exception, and items not
    yet started are cancelled."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def windows(
    clouds: list[PointCloud],
    classes: list[np.ndarray],
    poses: list[Pose],
    cfg: RunConfig,
) -> tuple[list[int], Callable[[int], FrameSample]]:
    """The frames with a full window, and the builder of a frame's sample.

    Raises ConfigError when the sequence is shorter than the window, before
    any sample is built.
    """
    grid = cfg.bev_grid()
    window, split = cfg.window()
    idxs = usable_frames(len(clouds), window)
    if not idxs:
        raise ConfigError(f"{len(clouds)} frames, too short for a window of {window}")

    def build(i: int) -> FrameSample:
        return build_sample(clouds, classes, poses, i, grid, window, split)

    return idxs, build


def map_windows(
    clouds: list[PointCloud],
    classes: list[np.ndarray],
    poses: list[Pose],
    cfg: RunConfig,
    fn: Callable[[FrameSample], object],
    threads: int = 1,
) -> list:
    """``fn(sample)`` for the sample of every full window, in frame order.

    Building a sample and consuming it is one ``map_frames`` task, so a
    consumer that keeps only a small result (project, eval, export) never
    holds every sample at once.
    """
    idxs, build = windows(clouds, classes, poses, cfg)
    return map_frames(lambda i: fn(build(i)), idxs, threads)


def build_samples(
    clouds: list[PointCloud],
    classes: list[np.ndarray],
    poses: list[Pose],
    cfg: RunConfig,
    threads: int = 1,
) -> list[FrameSample]:
    return map_windows(clouds, classes, poses, cfg, lambda sample: sample, threads)


def attach_synth_teacher(
    samples: list[FrameSample], kappa: float, sigma: float, seed: int
) -> None:
    """Give each sample a label-conditioned teacher grid; per-frame seeds."""
    for sample in samples:
        sample.teacher_logits = teacher.synth_teacher(
            sample.labels, kappa, sigma, seed=seed * 100003 + sample.frame_id
        )


def input_channels(cfg: RunConfig) -> int:
    """One motion channel per frame of the window."""
    return cfg.get("bev.window")


def student_descriptor(cfg: RunConfig) -> str:
    return f"student:in={input_channels(cfg)},base={cfg.get('net.base_width')}"


def teacher_descriptor(cfg: RunConfig) -> str:
    return f"teacher:in={input_channels(cfg)},base={2 * cfg.get('net.base_width')}"


def _check_grid(h: int, w: int) -> None:
    """ConfigError unless both sides of an h x w grid are multiples of 4:
    the networks downsample twice by 2, so their output would not match
    the label grid."""
    if h % 4 or w % 4:
        raise ConfigError(
            "bev.n_radial and bev.n_angular must be multiples of 4 (the networks "
            f"downsample twice by 2), got a {h}x{w} grid"
        )


def check_network(net: nnet.Network, cfg: RunConfig, ckpt: str | Path | None = None) -> None:
    """Check that ``net`` can run on the samples of ``cfg``, before any scan
    is read: the grid rule of ``_check_grid``, and for a network loaded from
    the checkpoint ``ckpt``, ShapeMismatch naming the file unless it takes
    one input channel per frame of the window."""
    _check_grid(cfg.get("bev.n_radial"), cfg.get("bev.n_angular"))
    if ckpt is None:
        return
    _, c_in, _ = nnet.parse_descriptor(net.descriptor)
    if c_in != input_channels(cfg):
        raise ShapeMismatch(
            f"{ckpt}: the network takes {c_in} input channels, but "
            f"bev.window={cfg.values['bev.window']} gives {input_channels(cfg)}"
        )


def student_forward(
    net: nnet.Network, sample: FrameSample, train: bool = True
) -> tuple[losses.LogitGrid, list]:
    """Run the network on one sample; validity follows the label grid.

    The motion channels are cast to float32 once, so training and inference
    compute in float32; the scores upcast exactly into the float64 grid.
    ``train=True`` keeps the layer caches for ``backward``, ``train=False``
    keeps none.  A non-finite activation or logit raises NonFiniteLoss
    naming the frame; a grid that breaks the rule of ``_check_grid`` raises
    its ConfigError.
    """
    _check_grid(*sample.labels.valid.shape)
    fid = sample.frame_id
    try:
        y, caches = net.forward(sample.motion.channels.astype(np.float32), train=train)
    except NonFiniteLoss as exc:
        raise NonFiniteLoss(f"non-finite activations at frame {fid}: {exc}") from exc
    if not np.isfinite(y).all():
        raise NonFiniteLoss(f"non-finite logits at frame {fid}")
    grid = losses.LogitGrid(
        scores=np.transpose(y, (1, 2, 0)), valid=sample.labels.valid.copy()
    )
    return grid, caches


def predict_logits(net: nnet.Network, sample: FrameSample) -> losses.LogitGrid:
    """Inference: one cache-free float32 forward; safe to call from several
    threads.  The float32 scores upcast exactly into the float64 grid, so a
    ``.logits`` file stores them unchanged."""
    grid, _ = student_forward(net, sample, train=False)
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

    Within a mini-batch the samples are independent given the weights, so
    each sample's forward, loss and backward is one task on a two-worker
    pool.  Gradients and loss parts are summed on the calling thread in
    sample order, and parameters change only at the optimizer step after
    the whole batch, so the results are those of the serial loop, bit for
    bit.  The first failing sample of a batch, in sample order, raises its
    error before that batch's optimizer step.

    Run it with BLAS on one thread, since BLAS threads on top of the two
    workers oversubscribe the cores: import ``mosdistill`` before numpy, so
    its pin of ``OPENBLAS_NUM_THREADS`` and friends takes effect.

    Raises ConfigError when ``epochs`` is below 1 (zero epochs would leave
    the weights untrained), NonFiniteLoss naming the offending frame the
    moment a loss stops being finite, and EmptyFrame naming the frame that
    has no valid cell.
    """
    if epochs < 1:
        raise ConfigError(f"train.epochs must be >= 1, got {epochs}")
    if not train:
        raise ConfigError("no training samples")
    dcfg = cfg.distill()
    class_weights = cfg.class_weights()
    lovasz_classes = cfg.get("train.lovasz_classes")
    state = cfg.sgd()
    batch_size = cfg.get("train.batch_size")
    rng = np.random.default_rng(cfg.get("train.seed") + 1)
    params = net.parameters()
    logs: list[EpochLog] = []

    def sample_step(sample: FrameSample) -> tuple[dict[str, float], dict[str, np.ndarray]]:
        """Forward, loss and backward of one sample: its loss parts (with
        the composed value as ``total``) and its parameter gradients."""
        logits, caches = student_forward(net, sample)
        try:
            result = losses.total_loss(
                logits, sample.teacher_logits, sample.labels, dcfg, class_weights, lovasz_classes
            )
        except EmptyFrame as exc:
            raise EmptyFrame(f"no valid cells in frame {sample.frame_id}") from exc
        if not np.isfinite(result.value):
            raise NonFiniteLoss(f"non-finite loss at frame {sample.frame_id}")
        _, pgrads = net.backward(np.transpose(result.grad, (2, 0, 1)), caches)
        return {**result.parts, "total": result.value}, pgrads

    with ThreadPoolExecutor(max_workers=2) as pool:
        for epoch in range(epochs):
            order = rng.permutation(len(train))
            sums = {"wce": 0.0, "lovasz": 0.0, "wdcd": 0.0, "total": 0.0}
            for start in range(0, len(order), batch_size):
                batch = [train[i] for i in order[start : start + batch_size]]
                grads = {name: np.zeros_like(p) for name, p in params.items()}
                for parts, pgrads in pool.map(sample_step, batch):
                    for name in grads:
                        grads[name] += pgrads[name] / len(batch)
                    for key in sums:
                        sums[key] += parts[key]
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


def frame_confusion(net: nnet.Network, sample: FrameSample) -> np.ndarray:
    """Predict one sample; its (2, C, C) cell-level and point-level
    confusion counts."""
    cell_pred = np.argmax(predict_logits(net, sample).scores, axis=2)
    point_pred = bev.back_project(cell_pred.astype(np.uint8), sample.cells)
    valid = sample.labels.valid
    counts = np.zeros((2, NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    metrics.accumulate(counts[0], cell_pred[valid], sample.labels.labels[valid])
    metrics.accumulate(counts[1], point_pred, sample.point_classes)
    return counts


def confusion_report(counts: list[np.ndarray]) -> dict[str, object]:
    """The IoU report of the summed per-frame counts; integer sums, so the
    report depends on neither the frame order nor the thread count."""
    total = sum(counts, np.zeros((2, NUM_CLASSES, NUM_CLASSES), dtype=np.int64))
    return metrics.metrics_report(*total)


def evaluate(net: nnet.Network, samples: list[FrameSample]) -> dict[str, object]:
    """Cell-level and point-level IoU report over the given samples,
    predicted one after another on the calling thread."""
    return confusion_report([frame_confusion(net, s) for s in samples])


def split_train_heldout(samples: list, val_fraction: float) -> tuple[list, list]:
    """Temporal split: the trailing fraction (in [0, 1)) is held out, but
    always at least one sample stays for training."""
    n_val = min(int(round(len(samples) * val_fraction)), len(samples) - 1)
    if n_val <= 0:
        return samples, []
    return samples[:-n_val], samples[-n_val:]
