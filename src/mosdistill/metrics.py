"""Confusion-matrix accumulation and per-class IoU.

The headline number is the moving-class IoU at point level; cell-level
values are reported alongside.  Absent classes (no ground truth and no
predictions) score 1.0 so synthetic frames without a class do not read as
failures; reports carry a flag for the convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IndexOutOfRange, LengthMismatch, read_file, write_file
from .kitti_io import CLASS_NAMES, CLASS_UNLABELED, NUM_CLASSES

DEFAULT_IGNORE = frozenset({CLASS_UNLABELED})


@dataclass
class ConfusionMatrix:
    """Rows are ground truth, columns are predictions."""

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    )


def accumulate(
    cm: ConfusionMatrix,
    preds: np.ndarray,
    truth: np.ndarray,
    ignore: frozenset[int] = DEFAULT_IGNORE,
) -> ConfusionMatrix:
    """Count (truth, pred) pairs into cm, skipping ignored truth classes."""
    preds = np.asarray(preds).ravel()
    truth = np.asarray(truth).ravel()
    if preds.shape != truth.shape:
        raise LengthMismatch(
            f"{preds.shape[0]} predictions vs {truth.shape[0]} truths"
        )
    keep = np.ones(truth.shape, dtype=bool)
    for c in ignore:
        keep &= truth != c
    t = truth[keep].astype(np.int64)
    p = preds[keep].astype(np.int64)
    if t.size and (min(t.min(), p.min()) < 0 or max(t.max(), p.max()) >= NUM_CLASSES):
        raise IndexOutOfRange(f"class ids outside [0, {NUM_CLASSES})")
    cm.counts += np.bincount(
        t * NUM_CLASSES + p, minlength=NUM_CLASSES * NUM_CLASSES
    ).reshape(NUM_CLASSES, NUM_CLASSES)
    return cm


def iou(cm: ConfusionMatrix, c: int) -> float:
    """TP / (TP + FP + FN); 1.0 when the class never occurs at all."""
    tp = int(cm.counts[c, c])
    fp = int(cm.counts[:, c].sum()) - tp
    fn = int(cm.counts[c, :].sum()) - tp
    denom = tp + fp + fn
    if denom == 0:
        return 1.0
    return tp / denom


def all_ious(cm: ConfusionMatrix) -> dict[str, float]:
    return {CLASS_NAMES[c]: iou(cm, c) for c in range(NUM_CLASSES)}


def write_metrics(metrics: dict[str, object], path: str | Path) -> None:
    """Machine-readable key=value lines, keys sorted."""
    lines = []
    for key in sorted(metrics):
        value = metrics[key]
        if isinstance(value, float):
            lines.append(f"{key}={value:.10g}")
        else:
            lines.append(f"{key}={value}")
    write_file(path, "\n".join(lines) + "\n", "metrics")


def read_metrics(path: str | Path) -> dict[str, str]:
    text = read_file(path, "metrics", text=True)
    out: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        out[key] = value
    return out


def metrics_report(
    cell_cm: ConfusionMatrix, point_cm: ConfusionMatrix
) -> dict[str, object]:
    """Flatten both confusion matrices and IoUs into a report dict."""
    report: dict[str, object] = {"absent_class_iou": 1.0}
    for level, cm in (("cell", cell_cm), ("point", point_cm)):
        for name, value in all_ious(cm).items():
            report[f"{level}_iou_{name}"] = value
        for c in range(NUM_CLASSES):
            row = " ".join(str(int(v)) for v in cm.counts[c])
            report[f"{level}_cm_{CLASS_NAMES[c]}"] = row
    report["moving_iou"] = report["point_iou_moving"]
    return report
