"""Seeded verification suites shared by the CLI and the test suite.

Four suites, each reporting its maximum observed error against a pinned
threshold:

* identity:  KD = TCKD + (1 - p_t_teacher) * NCKD over random draws
* gradcheck: analytic gradients vs central finite differences for every
  loss and every network layer
* dysample:  zero-offset dynamic sampling vs the separable bilinear
  reference
* lovasz:    the sorted-cumsum implementation vs a brute-force Lovasz
  extension computed from the Jaccard set function over error prefixes

Finite differences use h = 1e-5 in float64.  The error metric is
max |a - n| / max(|a|, |n|, 1e-3 * scale) with scale the largest gradient
magnitude, so near-zero components are judged on an absolute floor tied
to the gradient's own scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import losses, nnet
from .bev import CellLabelGrid
from .kitti_io import NUM_CLASSES
from .losses import DistillConfig, LogitGrid

FD_STEP = 1e-5
GRAD_TOL = 1e-4
IDENTITY_TOL = 1e-9
DYSAMPLE_TOL = 1e-6
LOVASZ_ORACLE_TOL = 1e-12
#: smallest gap between sorted Lovasz errors in a tie-free draw, and
#: between a DySample position and a kink in a kink-free one
KINK_MARGIN = 1e-4


@dataclass
class SuiteResult:
    name: str
    max_err: float
    threshold: float
    details: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_err < self.threshold

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"suite={self.name} max_err={self.max_err:.3e} "
            f"threshold={self.threshold:.0e} status={status}"
        )


def finite_difference(f: Callable[[], float], x: np.ndarray) -> np.ndarray:
    """Central differences of f() with respect to the in-place mutated x."""
    g = np.zeros(x.shape)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = f()
        flat[i] = orig - FD_STEP
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * FD_STEP)
    return g


def grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1e-12)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3 * scale)
    return float((np.abs(a - n) / denom).max())


# ---------------------------------------------------------------------------
# identity suite


def decomposition_residual(
    z_teacher: np.ndarray, z_student: np.ndarray, t: np.ndarray, tau: float
) -> np.ndarray:
    """Per-row |KD - (TCKD + (1 - q_t) * NCKD)| for (M, C) logits.

    KD is the full-softmax KL; the split comes from ``losses.kd_split``,
    the helper ``wdcd_frame`` trains with.
    """
    zt = z_teacher / tau
    zs = z_student / tau
    q = losses.softmax_probs(zt)
    p = losses.softmax_probs(zs)
    kd = (q * (np.log(q) - np.log(p))).sum(axis=1)
    split = losses.kd_split(zt, zs, t)
    return np.abs(kd - (split.tckd + (1.0 - split.q_t) * split.nckd))


def suite_identity() -> SuiteResult:
    rng = np.random.default_rng(11)
    zt = rng.normal(0.0, 2.0, size=(1000, NUM_CLASSES))
    zs = rng.normal(0.0, 2.0, size=(1000, NUM_CLASSES))
    t = rng.integers(NUM_CLASSES, size=1000)
    worst = max(
        float(decomposition_residual(zt, zs, t, tau).max()) for tau in (1.0, 2.0, 4.0)
    )
    return SuiteResult("identity", worst, IDENTITY_TOL)


# ---------------------------------------------------------------------------
# gradcheck suite


def _random_grid_case(rng: np.random.Generator, tie_free: bool = False):
    """Random 3x4 logit pair + labels with a few invalid cells.  With
    ``tie_free`` the draw repeats while any per-class Lovasz error vector
    has near-ties: the extension is piecewise linear and FD is undefined
    across a tie."""
    for _ in range(200):
        valid = rng.uniform(size=(3, 4)) > 0.2
        if not valid.any():
            valid[0, 0] = True
        labels = rng.integers(NUM_CLASSES, size=(3, 4)).astype(np.uint8)
        labels[~valid] = 0
        lab = CellLabelGrid(labels=labels, valid=valid)
        zt = rng.normal(0.0, 2.0, size=(3, 4, NUM_CLASSES))
        zs = rng.normal(0.0, 2.0, size=(3, 4, NUM_CLASSES))
        if not tie_free or _lovasz_gap(zs, lab):
            return zt, zs, lab
    raise RuntimeError("could not draw a tie-free instance")


def _lovasz_gap(zs: np.ndarray, lab: CellLabelGrid) -> bool:
    """True when every per-class error vector is free of near-ties."""
    z = zs[lab.valid]
    t = lab.labels[lab.valid].astype(np.int64)
    p = losses.softmax_probs(z)
    for c in np.unique(t):
        pc = p[:, c]
        m = np.sort(np.where(t == c, 1.0 - pc, pc))
        if m.size > 1 and np.diff(m).min() < KINK_MARGIN:
            return False
    return True


def _loss_grad_error(loss: Callable[[np.ndarray], losses.LossResult], z: np.ndarray) -> float:
    """FD check of ``loss`` with respect to the student logits ``z``."""
    analytic = loss(z.copy()).grad
    numeric = finite_difference(lambda: loss(z.copy()).value, z)
    return grad_error(analytic, numeric)


def _random_rows_case(rng: np.random.Generator, tie_free: bool = False):
    """The valid cells of ``_random_grid_case`` as (M, C) teacher and
    student rows and their labels."""
    zt, zs, lab = _random_grid_case(rng, tie_free)
    return zt[lab.valid], zs[lab.valid], lab.labels[lab.valid].astype(np.int64)


def check_wdcd_grad(rng: np.random.Generator, cfg: DistillConfig) -> float:
    zt, zs, t = _random_rows_case(rng)
    return _loss_grad_error(lambda s: losses.wdcd_frame(zt, s, t, cfg), zs)


def check_wce_grad(rng: np.random.Generator) -> float:
    _, zs, t = _random_rows_case(rng)
    weights = rng.uniform(0.2, 2.0, size=NUM_CLASSES)
    return _loss_grad_error(
        lambda s: losses.weighted_cross_entropy(losses.softmax_probs(s), t, weights), zs
    )


def check_lovasz_grad(rng: np.random.Generator) -> float:
    _, zs, t = _random_rows_case(rng, tie_free=True)
    return _loss_grad_error(lambda s: losses.lovasz_softmax(losses.softmax_probs(s), t), zs)


def check_total_grad(rng: np.random.Generator, cfg: DistillConfig) -> float:
    """FD check at grid level, invalid cells included, so the scatter of
    the row gradient is checked too."""
    zt, zs, lab = _random_grid_case(rng, tie_free=True)
    tgrid = LogitGrid(scores=zt, valid=lab.valid)
    weights = rng.uniform(0.2, 2.0, size=NUM_CLASSES)
    return _loss_grad_error(
        lambda s: losses.total_loss(LogitGrid(s, lab.valid), tgrid, lab, cfg, weights), zs
    )


def _layer_fd(layer, x: np.ndarray, rng: np.random.Generator) -> float:
    """FD check of one layer: loss = sum(forward(x) * R)."""
    y0, _ = layer.forward(x)
    r = rng.normal(size=y0.shape)

    def value() -> float:
        y, _ = layer.forward(x)
        return float((y * r).sum())

    _, cache = layer.forward(x)
    gx, pgrads = layer.backward(r, cache)
    worst = grad_error(gx, finite_difference(value, x))
    for name, arr in layer.params.items():
        worst = max(worst, grad_error(pgrads[name], finite_difference(value, arr)))
    return worst


def check_conv_grad(
    rng: np.random.Generator, stride: int, kernel: int, shape: tuple[int, int] | None = None
) -> float:
    """FD check of one conv on a (2, h, w) input; ``shape`` defaults to
    4x6 at stride 2 and 5x6 at stride 1."""
    layer = nnet.Conv2d(2, 3, kernel=kernel, stride=stride, rng=rng)
    h, w = shape or ((4, 6) if stride == 2 else (5, 6))
    x = rng.normal(size=(2, h, w))
    return _layer_fd(layer, x, rng)


def check_relu_grad(rng: np.random.Generator) -> float:
    layer = nnet.ReLU()
    # keep activations away from the kink at zero
    x = rng.uniform(0.1, 1.0, size=(3, 4, 5)) * rng.choice([-1.0, 1.0], size=(3, 4, 5))
    return _layer_fd(layer, x, rng)


def _dysample_positions_ok(layer: nnet.DySample, x: np.ndarray) -> bool:
    _, _, free_y, free_x, raw_y, raw_x = layer._positions(x)
    h, w = x.shape[1:]
    for raw, free, n in ((raw_y, free_y, h), (raw_x, free_x, w)):
        # the gradient has kinks at the clamp boundaries ...
        if (np.minimum(np.abs(raw - 0.5), np.abs(raw - (n - 0.5))) < KINK_MARGIN).any():
            return False
        # ... and, for unclamped positions, at integer grid coordinates
        frac = (raw - 0.5) - np.floor(raw - 0.5)
        near_int = (frac < KINK_MARGIN) | (frac > 1.0 - KINK_MARGIN)
        if (near_int & free).any():
            return False
    return True


def check_dysample_grad(rng: np.random.Generator) -> float:
    # regenerate when a sampling position lands within 1e-4 of an integer
    # grid coordinate or a clamp boundary (bilinear kinks)
    for _ in range(200):
        layer = nnet.DySample(2, scale=2)
        layer.params["linear_w"] = rng.normal(0.0, 0.05, size=(8, 2))
        layer.params["linear_b"] = rng.normal(0.0, 0.05, size=8)
        x = rng.normal(size=(2, 4, 5))
        if _dysample_positions_ok(layer, x):
            break
    else:
        raise RuntimeError("could not draw a kink-free dysample instance")
    return _layer_fd(layer, x, rng)


def suite_gradcheck() -> SuiteResult:
    rng = np.random.default_rng(23)
    cfg = DistillConfig()
    cfg_all = DistillConfig(tckd_scope="all")
    cfg_tau = DistillConfig(temperature=2.0, beta=1.5)
    details = []
    worst = 0.0

    def run(name: str, fn: Callable[[], float]) -> None:
        nonlocal worst
        local = max(fn() for _ in range(20))
        details.append(f"{name}: max rel err {local:.3e}")
        worst = max(worst, local)

    run("wdcd", lambda: check_wdcd_grad(rng, cfg))
    run("wdcd_scope_all", lambda: check_wdcd_grad(rng, cfg_all))
    run("wdcd_tau2", lambda: check_wdcd_grad(rng, cfg_tau))
    run("wce", lambda: check_wce_grad(rng))
    run("lovasz", lambda: check_lovasz_grad(rng))
    run("total", lambda: check_total_grad(rng, cfg))
    run("conv3x3_s1", lambda: check_conv_grad(rng, 1, 3))
    run("conv3x3_s2", lambda: check_conv_grad(rng, 2, 3))
    run("conv3x3_s2_odd", lambda: check_conv_grad(rng, 2, 3, (5, 7)))
    run("conv1x1", lambda: check_conv_grad(rng, 1, 1))
    run("relu", lambda: check_relu_grad(rng))
    run("dysample", lambda: check_dysample_grad(rng))
    return SuiteResult("gradcheck", worst, GRAD_TOL, details)


# ---------------------------------------------------------------------------
# dysample degeneracy suite


def suite_dysample() -> SuiteResult:
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(2, 7))
        w = int(rng.integers(2, 7))
        s = int(rng.choice([2, 3]))
        x = rng.normal(size=(c, h, w))
        layer = nnet.DySample(c, scale=s)  # zero-initialized offsets
        y, _ = layer.forward(x)
        ref = nnet.bilinear_upsample(x, s)
        worst = max(worst, float(np.abs(y - ref).max()))
    return SuiteResult("dysample", worst, DYSAMPLE_TOL)


# ---------------------------------------------------------------------------
# lovasz oracle suite


def lovasz_class_loss_bruteforce(pc: np.ndarray, gt: np.ndarray) -> float:
    """Lovasz extension of the Jaccard distance, evaluated from raw sets.

    Errors are sorted descending (stable); the k-th weight is the increase
    in Jaccard distance when the top-k errors flip from correct to wrong,
    computed directly from the mispredicted set.
    """
    errors = np.where(gt > 0.5, 1.0 - pc, pc)
    order = np.argsort(-errors, kind="stable")
    truth = {int(i) for i in np.nonzero(gt > 0.5)[0]}

    def jaccard_distance(mispredicted: set[int]) -> float:
        predicted = (truth - mispredicted) | (mispredicted - truth)
        inter = len(predicted & truth)
        union = len(predicted | truth)
        if union == 0:
            return 0.0
        return 1.0 - inter / union

    loss = 0.0
    prev = jaccard_distance(set())
    taken: set[int] = set()
    for idx in order:
        taken.add(int(idx))
        cur = jaccard_distance(taken)
        loss += float(errors[idx]) * (cur - prev)
        prev = cur
    return loss


def lovasz_value_bruteforce(z: np.ndarray, t: np.ndarray) -> float:
    p = losses.softmax_probs(z)
    present = np.unique(t)
    total = 0.0
    for c in present:
        total += lovasz_class_loss_bruteforce(p[:, c], (t == c).astype(np.float64))
    return total / present.size


def suite_lovasz() -> SuiteResult:
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 13))
        z = rng.normal(0.0, 2.0, size=(n, NUM_CLASSES))
        t = rng.integers(NUM_CLASSES, size=n)
        ours = losses.lovasz_softmax(losses.softmax_probs(z), t).value
        ref = lovasz_value_bruteforce(z, t)
        worst = max(worst, abs(ours - ref))
    return SuiteResult("lovasz", worst, LOVASZ_ORACLE_TOL)


ALL_SUITES = {
    "identity": suite_identity,
    "gradcheck": suite_gradcheck,
    "dysample": suite_dysample,
    "lovasz": suite_lovasz,
}
