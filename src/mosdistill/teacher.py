"""Frozen-teacher logits exchange and a label-conditioned synthetic teacher.

Any external teacher feeds distillation through per-frame ``.logits``
files (one per scan, named ``{frame:06d}.logits``).  The container is
bit-exact under round-trip:

    magic   4 bytes  ``KDTL``
    version u16 LE
    classes u16 LE   (4)
    height  u32 LE
    width   u32 LE
    payload H*W*C float32 LE, cell-major (row, then column), class-fastest
    bitmap  ceil(H*W/8) bytes, validity bits row-major, LSB-first

The synthetic teacher turns ground-truth cell labels into confident,
optionally noisy logits; it gives controlled experiments a teacher of
dialable quality without training one.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .bev import CellLabelGrid
from .errors import FormatError, read_file, write_file
from .kitti_io import NUM_CLASSES
from .losses import LogitGrid

LOGITS_MAGIC = b"KDTL"
LOGITS_VERSION = 1


def logits_filename(frame_id: int) -> str:
    return f"{frame_id:06d}.logits"


def write_logits(grid: LogitGrid, path: str | Path) -> None:
    """Serialize a LogitGrid; ``read_logits`` restores it bit-exactly."""
    h, w, c = grid.shape
    header = LOGITS_MAGIC + struct.pack("<HHII", LOGITS_VERSION, c, h, w)
    payload = np.ascontiguousarray(grid.scores, dtype="<f4").tobytes()
    bitmap = np.packbits(grid.valid.ravel(), bitorder="little").tobytes()
    write_file(path, header + payload + bitmap, "logits")


def read_logits(path: str | Path) -> LogitGrid:
    data = read_file(path, "logits")
    if len(data) < 16:
        raise FormatError(f"{path}: file shorter than the header")
    if data[:4] != LOGITS_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    version, c, h, w = struct.unpack("<HHII", data[4:16])
    if version != LOGITS_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    n_cells = h * w
    payload_bytes = n_cells * c * 4
    bitmap_bytes = (n_cells + 7) // 8
    if len(data) != 16 + payload_bytes + bitmap_bytes:
        raise FormatError(
            f"{path}: size {len(data)} does not match {h}x{w}x{c} plus bitmap"
        )
    scores = (
        np.frombuffer(data, dtype="<f4", count=n_cells * c, offset=16)
        .reshape(h, w, c)
        .astype(np.float64)
    )
    if not np.isfinite(scores).all():
        raise FormatError(f"{path}: non-finite logit value")
    bits = np.frombuffer(data, dtype=np.uint8, offset=16 + payload_bytes)
    valid = np.unpackbits(bits, count=n_cells, bitorder="little").astype(bool)
    return LogitGrid(scores=scores, valid=valid.reshape(h, w))


def synth_teacher(
    labels: CellLabelGrid,
    confidence: float = 10.0,
    noise: float = 0.0,
    seed: int = 0,
) -> LogitGrid:
    """Label-conditioned teacher: kappa on the true class plus gaussian noise.

    Invalid cells get all-zero logits.  Deterministic per seed.
    """
    if confidence <= 0:
        raise ValueError("confidence must be positive")
    if noise < 0:
        raise ValueError("noise must be non-negative")
    rng = np.random.default_rng(seed)
    h, w = labels.labels.shape
    scores = np.zeros((h, w, NUM_CLASSES))
    onehot = np.eye(NUM_CLASSES)[labels.labels.astype(np.int64)]
    scores += confidence * onehot
    if noise > 0:
        scores += rng.normal(0.0, noise, size=scores.shape)
    scores[~labels.valid] = 0.0
    return LogitGrid(scores=scores, valid=labels.valid.copy())
