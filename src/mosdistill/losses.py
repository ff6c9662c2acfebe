"""Distillation and segmentation losses with analytic logit gradients.

The distillation side decomposes plain KL knowledge distillation into a
binary target-class term (TCKD) and a renormalized non-target term (NCKD):

    KD = KL(p_T || p_S) = TCKD + (1 - p_t_T) * NCKD

Decoupled class distillation (DCD) keeps both terms only for the moving
class and the NCKD term alone elsewhere; the weighted variant (WDCD)
divides each cell's DCD by the frame-level frequency of its label, which
up-weights the rare moving cells.  The student's own loss is weighted
cross-entropy plus Lovasz-softmax.

All math runs in float64.  ``total_loss`` is the only frame-level loss
and the only place that masks: it checks the grids, gathers the valid
cells into (M, C) rows once, and scatters the summed row gradient back,
zero at invalid cells.  Each term (``weighted_cross_entropy``,
``lovasz_softmax``, ``wdcd_frame``) takes rows and returns its value and
the exact gradient with respect to those rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bev import CellLabelGrid
from .errors import EmptyFrame, ShapeMismatch
from .kitti_io import CLASS_MOVING, NUM_CLASSES

TCKD_SCOPES = ("moving", "all")
#: floor of the student probabilities inside every log
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LogitGrid:
    """Unnormalized per-cell class scores with a validity mask."""

    scores: np.ndarray  # (H, W, C) float64
    valid: np.ndarray   # (H, W) bool

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        if scores.ndim != 3:
            raise ValueError("scores must be (H, W, C)")
        if valid.shape != scores.shape[:2]:
            raise ValueError("valid mask must match the grid shape")
        if not np.isfinite(scores).all():
            raise ValueError("logits must be finite")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "valid", valid)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.scores.shape


@dataclass(frozen=True)
class DistillConfig:
    """Every knob of the distillation loss family.

    ``weight_floor=None`` means 1 / (number of valid cells), resolved per
    frame.  ``tckd_scope`` selects which labels receive the binary
    target-class term: only the moving class (the decoupled default) or
    every class (plain decoupled KD).
    """

    temperature: float = 1.0
    beta: float = 1.0
    gamma: float = 0.25
    weight_floor: float | None = None
    tckd_scope: str = "moving"


@dataclass(frozen=True)
class LossResult:
    value: float
    grad: np.ndarray  # (M, C) rows from a term; the (H, W, C) grid from total_loss
    parts: dict[str, float] = field(default_factory=dict)


def softmax_probs(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-shifted for stability."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _kl_terms(q: np.ndarray, p_floored: np.ndarray) -> np.ndarray:
    """q * log(q / p_floored) elementwise, with the q = 0 limit exactly 0."""
    logq = np.zeros_like(q)
    np.log(q, out=logq, where=q > 0.0)
    return q * (logq - np.log(p_floored))


@dataclass(frozen=True)
class KdSplit:
    """Per-cell terms of KD = TCKD + (1 - q_t) * NCKD for M cells.

    Besides the two terms and the teacher's target probability, it keeps
    the student probabilities the WDCD gradient reuses.  The non-target
    distributions are zero in the target column.
    """

    tckd: np.ndarray    # (M,)
    nckd: np.ndarray    # (M,)
    q_t: np.ndarray     # (M,) teacher probability of the target class
    p: np.ndarray       # (M, C) student softmax
    p_t: np.ndarray     # (M,) student probability of the target class
    q_hat: np.ndarray   # (M, C) teacher softmax over the non-target classes
    p_hat: np.ndarray   # (M, C) student softmax over the non-target classes


def kd_split(zt: np.ndarray, zs: np.ndarray, t: np.ndarray) -> KdSplit:
    """Decompose KD between temperature-scaled (M, C) teacher and student
    logits with per-cell targets t.

    TCKD is the binary KL over (target, rest); NCKD the KL over the
    renormalized non-target distributions.  Only the student side of each
    log is floored at ``PROB_FLOOR``.
    """
    rows = np.arange(t.shape[0])
    q = softmax_probs(zt)            # teacher, full
    p = softmax_probs(zs)            # student, full
    qt = q[rows, t]
    pt = p[rows, t]

    # non-target renormalized distributions: the target logit masked to
    # -inf gets exactly zero probability
    zt_masked = zt.copy()
    zt_masked[rows, t] = -np.inf
    zs_masked = zs.copy()
    zs_masked[rows, t] = -np.inf
    qh = softmax_probs(zt_masked)
    ph = softmax_probs(zs_masked)

    ph_f = np.maximum(ph, PROB_FLOOR)
    nckd_cells = _kl_terms(qh, ph_f).sum(axis=1)

    pt_f = np.maximum(pt, PROB_FLOOR)
    pn_f = np.maximum(1.0 - pt, PROB_FLOOR)
    tckd_cells = _kl_terms(qt, pt_f) + _kl_terms(1.0 - qt, pn_f)
    return KdSplit(tckd_cells, nckd_cells, qt, p, pt, qh, ph)


def _tckd_applies(t: np.ndarray, cfg: DistillConfig) -> np.ndarray:
    if cfg.tckd_scope == "all":
        return np.ones(t.shape, dtype=bool)
    return t == CLASS_MOVING


def frame_weights(t: np.ndarray, cfg: DistillConfig) -> np.ndarray:
    """(C,) share of the valid cells' labels t per class, floored at
    cfg.weight_floor."""
    total = t.size
    counts = np.bincount(t, minlength=NUM_CLASSES)
    floor = cfg.weight_floor if cfg.weight_floor is not None else 1.0 / total
    return np.maximum(counts / total, floor)


def _check_pair(a: LogitGrid, b: LogitGrid | None, labels: CellLabelGrid) -> None:
    if a.scores.shape[:2] != labels.labels.shape:
        raise ShapeMismatch("logit grid and label grid disagree in shape")
    if not np.array_equal(a.valid, labels.valid):
        raise ShapeMismatch("logit and label validity masks differ")
    if b is not None:
        if b.scores.shape != a.scores.shape:
            raise ShapeMismatch("teacher and student logit shapes differ")
        if not np.array_equal(b.valid, a.valid):
            raise ShapeMismatch("teacher and student validity masks differ")


def wdcd_frame(
    zt_rows: np.ndarray, zs_rows: np.ndarray, t: np.ndarray, cfg: DistillConfig
) -> LossResult:
    """Weighted decoupled class distillation over a frame's valid cells,
    given as (M, C) raw teacher and student logits with labels t.

    value = mean over cells of DCD(cell) / w[label(cell)], scaled by
    temperature^2 so gradient magnitudes stay comparable across
    temperatures.  The gradient with respect to the student rows is
    analytic.
    """
    m = t.shape[0]
    tau = cfg.temperature
    zt = zt_rows / tau
    zs = zs_rows / tau
    rows = np.arange(m)
    kd = kd_split(zt, zs, t)
    use_tckd = _tckd_applies(t, cfg)

    dcd_cells = cfg.beta * kd.nckd + np.where(use_tckd, kd.tckd, 0.0)
    w = frame_weights(t, cfg)
    cell_scale = 1.0 / w[t]
    scale = tau * tau
    value = float((dcd_cells * cell_scale).mean() * scale)

    # gradient, per cell, with respect to the raw student logits
    floor = PROB_FLOOR
    qt, pt, qh, ph = kd.q_t, kd.p_t, kd.q_hat, kd.p_hat
    # NCKD: d/dzs_j = (1/tau) (ph_j - qh_j) away from the prob floor
    live = ph > floor
    s = (qh * live).sum(axis=1, keepdims=True)
    g = (ph * s - qh * live) / tau * cfg.beta
    # TCKD depends on zs only through pt
    pt_f = np.maximum(pt, floor)
    pn_f = np.maximum(1.0 - pt, floor)
    dtckd_dpt = -qt / pt_f * (pt > floor) + (1.0 - qt) / pn_f * ((1.0 - pt) > floor)
    coef = np.where(use_tckd, dtckd_dpt, 0.0) * pt / tau
    g -= coef[:, None] * kd.p
    g[rows, t] += coef
    g *= (cell_scale * scale / m)[:, None]
    return LossResult(value=value, grad=g)


def weighted_cross_entropy(
    p: np.ndarray, t: np.ndarray, class_weights: np.ndarray
) -> LossResult:
    """Mean over the (M, C) student probabilities p of
    -class_weights[t] * log p_t."""
    m = t.shape[0]
    rows = np.arange(m)
    pt = p[rows, t]
    cw = class_weights[t]
    pt_f = np.maximum(pt, PROB_FLOOR)
    value = float(-(cw * np.log(pt_f)).mean())

    live = (pt > PROB_FLOOR) * cw / m
    g = p * live[:, None]
    g[rows, t] -= live
    return LossResult(value=value, grad=g)


def lovasz_softmax(
    p: np.ndarray, t: np.ndarray, classes: tuple[int, ...] | None = None
) -> LossResult:
    """Lovasz extension of the per-class Jaccard loss over the (M, C)
    student probabilities p with labels t.

    For each class c present in t (optionally restricted to ``classes``):
    errors m_i = 1 - p_c where the label is c, else p_c; sorted descending
    (stable); the extension weights are the successive differences of
    1 - intersection/union over error prefixes.  The loss is the mean over
    included classes, and the gradient scatters the prefix weights back
    through the sort.
    """
    m = t.shape[0]
    present = np.unique(t)
    if classes is not None:
        present = np.array([c for c in present if c in classes], dtype=np.int64)
    if present.size == 0:
        return LossResult(value=0.0, grad=np.zeros_like(p))

    total = 0.0
    gp = np.zeros_like(p)  # gradient in probability space
    for c in present:
        pc = p[:, c]
        gt = (t == c).astype(np.float64)
        errors = np.where(gt > 0.5, 1.0 - pc, pc)
        order = np.argsort(-errors, kind="stable")
        e_sorted = errors[order]
        g_sorted = gt[order]
        gts = g_sorted.sum()
        intersection = gts - np.cumsum(g_sorted)
        union = gts + np.cumsum(1.0 - g_sorted)
        jaccard = 1.0 - intersection / union
        delta = np.diff(jaccard, prepend=0.0)
        total += float(e_sorted @ delta)
        sign = np.where(g_sorted > 0.5, -1.0, 1.0)
        gp_c = np.zeros(m)
        gp_c[order] = sign * delta
        gp[:, c] = gp_c
    k = present.size
    value = total / k
    gp /= k

    # chain through the softmax: dL/dz_j = p_j * (gp_j - sum_c gp_c p_c)
    inner = (gp * p).sum(axis=1, keepdims=True)
    return LossResult(value=value, grad=p * (gp - inner))


def total_loss(
    z_student: LogitGrid,
    z_teacher: LogitGrid | None,
    labels: CellLabelGrid,
    cfg: DistillConfig,
    class_weights: np.ndarray,
    lovasz_classes: tuple[int, ...] | None = None,
) -> LossResult:
    """Student loss (wce + lovasz) plus gamma-weighted distillation.

    The one frame-level loss: it checks the grids, gathers the valid cells
    once, runs each term on those rows, and scatters the summed row
    gradient back into the grid, zero at invalid cells.  With gamma = 0
    (or no teacher) this reduces exactly to the student loss; gradients of
    the parts sum linearly.
    """
    if z_teacher is None and cfg.gamma != 0.0:
        raise ValueError("a teacher grid is required when gamma > 0")
    valid = labels.valid
    if not valid.any():
        raise EmptyFrame("no valid cells in frame")
    teacher = z_teacher if cfg.gamma != 0.0 else None
    _check_pair(z_student, teacher, labels)
    class_weights = np.asarray(class_weights, dtype=np.float64)
    if class_weights.shape != (NUM_CLASSES,):
        raise ShapeMismatch("class_weights must have one entry per class")
    z = z_student.scores[valid]
    t = labels.labels[valid].astype(np.int64)
    p = softmax_probs(z)
    wce = weighted_cross_entropy(p, t, class_weights)
    ls = lovasz_softmax(p, t, lovasz_classes)
    value = wce.value + ls.value
    g = wce.grad + ls.grad
    parts = {"wce": wce.value, "lovasz": ls.value, "wdcd": 0.0}
    if teacher is not None:
        kd = wdcd_frame(teacher.scores[valid], z, t, cfg)
        value += cfg.gamma * kd.value
        g += cfg.gamma * kd.grad
        parts["wdcd"] = kd.value
    grad = np.zeros_like(z_student.scores)
    grad[valid] = g
    return LossResult(value=value, grad=grad, parts=parts)
