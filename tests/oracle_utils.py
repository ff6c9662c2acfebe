"""Naive reference implementations used as independent oracles in tests.

These deliberately avoid the production code paths: plain Python loops,
dict accumulation, nested convolution loops.  They share only numpy's
scalar arithmetic with the implementations under test.
"""

import numpy as np


def project_oracle(cloud, grid):
    """Per-point loop version of the polar projection; returns flat cell ids."""
    flat = np.full(len(cloud), -1, dtype=np.int64)
    for i in range(len(cloud)):
        x, y, z = (np.float64(v) for v in cloud.xyz[i])
        r = np.hypot(x, y)
        if not (r < grid.r_max and grid.z_min < z < grid.z_max):  # NaN is out
            continue
        u = int(np.floor(r / grid.r_max * grid.n_radial))
        v = int(np.floor((np.arctan2(y, x) + np.pi) / (2.0 * np.pi) * grid.n_angular))
        v = min(v, grid.n_angular - 1)
        flat[i] = u * grid.n_angular + v
    return flat


def height_oracle(cloud, grid):
    """Dict-of-lists height image: per occupied cell, max z - min z."""
    flat = project_oracle(cloud, grid)
    zs = {}
    for i, cell in enumerate(flat):
        if cell >= 0:
            zs.setdefault(int(cell), []).append(np.float64(cloud.xyz[i, 2]))
    values = np.zeros(grid.shape)
    occupancy = np.zeros(grid.shape, dtype=bool)
    for cell, zlist in zs.items():
        u, v = divmod(cell, grid.n_angular)
        values[u, v] = max(zlist) - min(zlist)
        occupancy[u, v] = True
    return values, occupancy


def conv_oracle(x, weights, bias, stride, padding):
    """Six-loop cross-correlation."""
    c_out, c_in, k, _ = weights.shape
    _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    y = np.zeros((c_out, ho, wo))
    for co in range(c_out):
        for i in range(ho):
            for j in range(wo):
                acc = bias[co]
                for ci in range(c_in):
                    for di in range(k):
                        for dj in range(k):
                            acc += weights[co, ci, di, dj] * xp[ci, i * stride + di, j * stride + dj]
                y[co, i, j] = acc
    return y


def _dysample_taps(x, linear_w, linear_b, scale, offset_factor):
    """Per output pixel (i, j), in row-major order: the four bilinear taps
    ((row, col, weight) for corners 00, 01, 10, 11), ty, tx, whether each
    coordinate escaped the clamp, and the (row, col) offset channels and
    input pixel the position came from."""
    _, h, w = x.shape
    s = scale
    taps = {}
    for i in range(h * s):
        for j in range(w * s):
            hh, di = i // s, i % s
            ww, dj = j // s, j % s
            feat = x[:, hh, ww]
            ky = di * s + dj
            kx = s * s + ky
            py = (i + 0.5) / s + offset_factor * (linear_w[ky] @ feat + linear_b[ky])
            px = (j + 0.5) / s + offset_factor * (linear_w[kx] @ feat + linear_b[kx])
            free_y, free_x = 0.5 < py < h - 0.5, 0.5 < px < w - 0.5
            fy = min(max(py, 0.5), h - 0.5) - 0.5
            fx = min(max(px, 0.5), w - 0.5) - 0.5
            r0 = int(min(max(np.floor(fy), 0), max(h - 2, 0)))
            c0 = int(min(max(np.floor(fx), 0), max(w - 2, 0)))
            ty, tx = fy - r0, fx - c0
            r1, c1 = min(r0 + 1, h - 1), min(c0 + 1, w - 1)
            corners = (
                (r0, c0, (1 - ty) * (1 - tx)),
                (r0, c1, (1 - ty) * tx),
                (r1, c0, ty * (1 - tx)),
                (r1, c1, ty * tx),
            )
            taps[i, j] = (corners, ty, tx, free_y, free_x, ky, kx, hh, ww)
    return taps


def dysample_oracle(x, linear_w, linear_b, scale, offset_factor):
    """Scalar per-output-pixel version of the dynamic upsampler."""
    c, h, w = x.shape
    y = np.zeros((c, h * scale, w * scale))
    for (i, j), tap in _dysample_taps(x, linear_w, linear_b, scale, offset_factor).items():
        ((r0, c0, _), (_, c1, _), (r1, _, _), _), ty, tx = tap[:3]
        for ch in range(c):
            top = x[ch, r0, c0] * (1 - tx) + x[ch, r0, c1] * tx
            bot = x[ch, r1, c0] * (1 - tx) + x[ch, r1, c1] * tx
            y[ch, i, j] = top * (1 - ty) + bot * ty
    return y


def dysample_input_grad_oracle(x, linear_w, linear_b, scale, offset_factor, gout):
    """Loop version of the dynamic upsampler's input gradient.

    The sampling term is scattered corner-major (00, 01, 10, 11), then
    pixel-major in row-major output order; the offset branch's term is
    added after all four corners.
    """
    c, h, w = x.shape
    taps = _dysample_taps(x, linear_w, linear_b, scale, offset_factor)
    gx = np.zeros((c, h, w))
    for k in range(4):
        for (i, j), tap in taps.items():
            r, col, wgt = tap[0][k]
            for ch in range(c):
                gx[ch, r, col] += gout[ch, i, j] * wgt
    g_raw = np.zeros((2 * scale * scale, h, w))
    for (i, j), tap in taps.items():
        ((r0, c0, _), (_, c1, _), (r1, _, _), _), ty, tx, free_y, free_x, ky, kx, hh, ww = tap
        for ch in range(c):
            dy = (x[ch, r1, c0] - x[ch, r0, c0]) * (1 - tx) + (x[ch, r1, c1] - x[ch, r0, c1]) * tx
            dx = (x[ch, r0, c1] - x[ch, r0, c0]) * (1 - ty) + (x[ch, r1, c1] - x[ch, r1, c0]) * ty
            g_raw[ky, hh, ww] += offset_factor * gout[ch, i, j] * dy * free_y
            g_raw[kx, hh, ww] += offset_factor * gout[ch, i, j] * dx * free_x
    for ci in range(c):
        for hh in range(h):
            for ww in range(w):
                gx[ci, hh, ww] += linear_w[:, ci] @ g_raw[:, hh, ww]
    return gx


def _softmax(z):
    e = [np.exp(v - max(z)) for v in z]
    total = sum(e)
    return [v / total for v in e]


def _kl(q, p, prob_floor):
    """KL(q || p) as a Python sum; only p is floored, q = 0 terms are 0."""
    return sum(qi * np.log(qi / max(pi, prob_floor)) for qi, pi in zip(q, p) if qi > 0)


def kd_kl(z_teacher, z_student, temperature=1.0, prob_floor=1e-12):
    """KL between the full softened teacher and student distributions."""
    q = _softmax([v / temperature for v in z_teacher])
    p = _softmax([v / temperature for v in z_student])
    return _kl(q, p, prob_floor)


def tckd(z_teacher, z_student, t, temperature=1.0, prob_floor=1e-12):
    """Binary KL over the (target, non-target) probability split."""
    qt = _softmax([v / temperature for v in z_teacher])[t]
    pt = _softmax([v / temperature for v in z_student])[t]
    return _kl([qt, 1.0 - qt], [pt, 1.0 - pt], prob_floor)


def nckd(z_teacher, z_student, t, temperature=1.0, prob_floor=1e-12):
    """KL over the softmaxes of the logits with the target class deleted."""
    rest_t = [v / temperature for k, v in enumerate(z_teacher) if k != t]
    rest_s = [v / temperature for k, v in enumerate(z_student) if k != t]
    return _kl(_softmax(rest_t), _softmax(rest_s), prob_floor)


def dcd(z_teacher, z_student, t, cfg):
    """Decoupled class distillation for one cell: beta * NCKD, plus TCKD
    where cfg.tckd_scope applies it (the moving class, all, or none)."""
    tau, floor = cfg.temperature, cfg.prob_floor
    value = cfg.beta * nckd(z_teacher, z_student, t, tau, floor)
    if cfg.tckd_scope == "all" or (cfg.tckd_scope == "moving" and t == cfg.moving_class):
        value += tckd(z_teacher, z_student, t, tau, floor)
    return value
