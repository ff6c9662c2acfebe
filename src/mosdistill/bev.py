"""Polar bird's-eye-view projection and residual motion features.

A scan is binned into an H x W polar grid (H radial rings, W angular
sectors).  Each occupied cell of a frame carries the span max z - min z
of its in-range points, and a temporal window pools its frames to their
per-cell max.  The one motion channel is the residual I1 - I2 of the
newer and the older pooled image, so a cell occupied in the newer window
alone is positive and one occupied in the older window alone negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IndexOutOfRange, ShapeMismatch, write_file
from .kitti_io import CLASS_UNLABELED, NUM_CLASSES, PointCloud


@dataclass(frozen=True)
class BevGrid:
    """Polar grid geometry; the z range is exclusive on both ends."""

    n_radial: int = 32
    n_angular: int = 360
    r_max: float = 50.0
    z_min: float = -4.0
    z_max: float = 2.0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_radial, self.n_angular)


@dataclass(frozen=True)
class CellIndexMap:
    """Point-to-cell assignment for one projected cloud.

    ``flat`` holds u * W + v per point, or -1 for points outside the radial
    or z range.
    """

    shape: tuple[int, int]
    flat: np.ndarray  # (N,) int64

    @property
    def assigned(self) -> np.ndarray:
        return self.flat >= 0


@dataclass(frozen=True)
class MotionTensor:
    """The network input: one channel, the residual I1 - I2."""

    channels: np.ndarray  # (1, H, W) float64


@dataclass(frozen=True)
class CellLabelGrid:
    """Majority class per occupied cell; invalid (empty) cells are 0."""

    labels: np.ndarray  # (H, W) uint8
    valid: np.ndarray   # (H, W) bool


def project_to_cells(cloud: PointCloud, grid: BevGrid) -> CellIndexMap:
    """Assign each point a grid cell, or none if out of range.

    u = floor(r / r_max * n_radial) with r = np.hypot(x, y),
    v = floor((atan2(y, x) + pi) / 2pi * n_angular) with the +pi edge
    clamped into the last sector.  Points with r >= r_max or z outside
    (z_min, z_max) stay unassigned.

    r is computed as sqrt(x*x + y*y), which is within a few ulps of
    np.hypot (about 1e-15 relative) and several times faster.  Where that
    error could change a result, r is recomputed with np.hypot: where
    r / r_max * n_radial lies within 1e-9 * (1 + n_radial) of an integer
    (a ring edge; r_max is the last one) or is not finite (NaN or inf
    coordinates, overflowing squares), and where r <= 1e-140, below which
    the squares may be subnormal.  So u and the range test are exactly
    those of np.hypot.  A block with no such point skips the re-gather.
    The key u * W + v is formed in float64, exact for grid-sized integers,
    and unassigned points are set to -1 before its one int64 cast, so no
    NaN or out-of-range value is ever cast.
    """
    xyz = np.asfortranarray(cloud.xyz, dtype=np.float64)  # contiguous columns
    x, y, z = xyz.T
    # squares and far points' keys may overflow, inf coordinates give NaN; none is kept
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        r = x * x
        f = y * y
        r += f
        np.sqrt(r, out=r)
        np.divide(r, grid.r_max, out=f)
        f *= grid.n_radial
        u = np.floor(f)
        f -= u
        f -= 0.5
        np.abs(f, out=f)  # 0.5 - distance to the nearest ring edge; NaN fails <=
        fast = (f <= 0.5 - 1e-9 * (1 + grid.n_radial)) & (r > 1e-140)
        if not fast.all():
            redo = np.flatnonzero(~fast)
            r[redo] = np.hypot(x[redo], y[redo])
            u[redo] = np.floor(r[redo] / grid.r_max * grid.n_radial)
        in_range = r < grid.r_max
        a = np.arctan2(y, x, out=r)
        a += np.pi
        a /= 2.0 * np.pi
        a *= grid.n_angular
        np.floor(a, out=a)
        np.minimum(a, grid.n_angular - 1, out=a)
        u *= grid.n_angular  # exact in float64 for grid-sized integers
        u += a
    in_range &= z > grid.z_min
    in_range &= z < grid.z_max
    u[~in_range] = -1  # no NaN or huge value reaches the cast
    flat = u.astype(np.int64)
    return CellIndexMap(shape=grid.shape, flat=flat)


def fold_heights(cells: CellIndexMap, cloud: PointCloud, bounds=None) -> np.ndarray:
    """Fold the z values of the cloud's assigned points into ``bounds``, the
    running (2, H, W) float64 per-cell max z and min z of one frame, and
    return it; ``None`` starts from empty cells (-inf and +inf).  Folding a
    frame's blocks in point order gives the bounds of the whole frame."""
    if cells.flat.shape[0] != len(cloud):
        raise ShapeMismatch("cell map and cloud disagree in point count")
    if bounds is None:
        bounds = np.stack([np.full(cells.shape, -np.inf), np.full(cells.shape, np.inf)])
    zmax, zmin = bounds.reshape(2, -1)
    mask = cells.assigned
    flat = cells.flat[mask]
    zc = cloud.xyz[:, 2][mask].astype(np.float64, copy=False)
    np.maximum.at(zmax, flat, zc)
    np.minimum.at(zmin, flat, zc)
    return bounds


def height_image(bounds: np.ndarray) -> np.ndarray:
    """The (H, W) float64 height image of folded ``bounds``: per occupied
    cell the span max z - min z of its assigned points, >= 0; zero where
    unoccupied.  A whole frame is ``height_image(fold_heights(cells, cloud))``."""
    zmax, zmin = bounds
    occupied = np.isfinite(zmax)
    values = np.zeros(zmax.shape)
    values[occupied] = zmax[occupied] - zmin[occupied]
    return values


def motion_residuals(i1: np.ndarray, i2: np.ndarray) -> MotionTensor:
    """The motion channel I1 - I2 of two pooled window images.

    ``i1`` and ``i2`` are the newer and the older window's per-cell max
    height span over their frames, 0 where no frame occupies the cell.
    """
    return MotionTensor(channels=(i1 - i2)[np.newaxis])


def cell_labels(
    cells: CellIndexMap, point_classes: np.ndarray, grid: BevGrid
) -> CellLabelGrid:
    """Majority class per occupied cell.

    Count ties break by priority moving > movable > static > unlabeled.
    Empty cells get label 0 and valid=False.
    """
    point_classes = np.asarray(point_classes)
    if point_classes.shape[0] != cells.flat.shape[0]:
        raise ShapeMismatch("point classes and cell map disagree in length")
    h, w = grid.shape
    mask = cells.assigned
    cls = point_classes[mask]
    if cls.size and (cls.min() < 0 or cls.max() >= NUM_CLASSES):
        raise IndexOutOfRange(f"point class ids outside [0, {NUM_CLASSES})")
    counts = np.bincount(
        cells.flat[mask] * NUM_CLASSES + cls, minlength=h * w * NUM_CLASSES
    ).reshape(h * w, NUM_CLASSES)
    # argmax over reversed class order = highest class id among tied maxima
    labels = (NUM_CLASSES - 1 - np.argmax(counts[:, ::-1], axis=1)).astype(np.uint8)
    valid = counts.sum(axis=1) > 0
    labels[~valid] = CLASS_UNLABELED
    return CellLabelGrid(labels=labels.reshape(h, w), valid=valid.reshape(h, w))


def back_project(cell_preds: np.ndarray, cells: CellIndexMap) -> np.ndarray:
    """Give every assigned point its cell's predicted class; unassigned get 0."""
    cell_preds = np.asarray(cell_preds)
    if cell_preds.shape != cells.shape:
        raise ShapeMismatch(
            f"prediction grid {cell_preds.shape} vs cell map {cells.shape}"
        )
    out = np.zeros(cells.flat.shape[0], dtype=cell_preds.dtype)
    mask = cells.assigned
    out[mask] = cell_preds.ravel()[cells.flat[mask]]
    return out


def write_pgm(values: np.ndarray, path: str | Path) -> None:
    """Export a 2D array as an 8-bit grayscale PGM (P5).

    Linear min-max normalization; the range used is recorded in a
    ``<path>.norm`` sidecar so the image is invertible.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("render input must be 2D")
    lo = float(values.min()) if values.size else 0.0
    hi = float(values.max()) if values.size else 0.0
    if hi > lo:
        scaled = (values - lo) / (hi - lo) * 255.0
    else:
        scaled = np.zeros_like(values)
    data = np.round(scaled).astype(np.uint8)
    h, w = values.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    write_file(path, header + data.tobytes(), "render")
    write_file(f"{path}.norm", f"min={lo:.17g}\nmax={hi:.17g}\n", "render")
