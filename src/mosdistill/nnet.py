"""Hand-differentiated BEV segmentation networks.

No autograd: every layer implements forward and backward explicitly and is
validated against central finite differences.  Tensors are plain numpy
arrays shaped (C, H, W).

Every forward computes in its input's dtype.  Parameters are held in
float64 and cast to that dtype on each call (no copy when it is float64),
so an in-place SGD update is seen by the next forward of either width.
Training, its backward and the gradient checks run in float64; inference
(``pipeline.predict_logits``) runs in float32.

Convolutions are flat-shift convolutions (see ``Conv2d``): each tap is one
GEMM on a contiguous window of the padded input, with no per-tap copy.
Their summation order differs from the per-tap ``tensordot`` of earlier
builds, so checkpoints, exported logits and metrics are a new baseline
that differs from those builds by rounding (about 5e-13 in float64, 1e-6
in float32); reruns of one build are bit-identical.

The decoder upsampling is a dynamic-sampling module: a per-pixel linear
layer predicts bounded coordinate offsets which are pixel-shuffled to the
output resolution and added to a regular base grid before bilinear
resampling.  With its linear branch at zero it degenerates to plain
bilinear upsampling, which is also how it is initialized.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, NonFiniteLoss, ShapeMismatch, read_file, write_file

CKPT_MAGIC = b"KDCK"
CKPT_VERSION = 1


# ---------------------------------------------------------------------------
# layers


class Conv2d:
    """Cross-correlation with square kernel, zero padding (k-1)//2.

    Flat-shift lowering, one code path for every kernel and stride.  The
    zero-padded input is split once into its s*s stride phases (one phase
    at stride 1), each flattened row-major at the phase width ``wq`` with a
    zero tail of (k-1)//s elements.  Tap (di, dj) then reads one contiguous
    window of phase (di % s, dj % s) starting at ``(di//s)*wq + dj//s``,
    and the output is accumulated in padded-width layout ``(c_out, ho*wq)``
    with one GEMM per tap; the ``wq - wo`` junk columns that close each
    output row are dropped at the end.  Backward reads the same windows:
    a tap's weight gradient is ``g @ window.T`` with ``g`` zero in the junk
    columns, and the input gradient is accumulated into phase buffers that
    are interleaved back.  Every GEMM operand is a view that BLAS reads in
    place; no tap copies its input.
    """

    def __init__(
        self,
        c_in: int,
        c_out: int,
        kernel: int = 3,
        stride: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        if stride not in (1, 2):
            raise ValueError("stride must be 1 or 2")
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride = kernel, stride
        self.padding = (kernel - 1) // 2
        bound = np.sqrt(6.0 / (c_in * kernel * kernel))
        if rng is None:
            w = np.zeros((c_out, c_in, kernel, kernel))
        else:
            w = rng.uniform(-bound, bound, size=(c_out, c_in, kernel, kernel))
        self.params = {"w": w, "b": np.zeros(c_out)}

    def out_shape(self, h: int, w: int) -> tuple[int, int]:
        k, s, p = self.kernel, self.stride, self.padding
        return ((h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)

    def _phase_shape(self, h: int, w: int) -> tuple[int, int]:
        s, p = self.stride, self.padding
        return -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)

    def _taps(self, wq: int) -> list[tuple[int, int, int, int]]:
        """(di, dj, phase, offset) per tap: the phase it reads and where its
        window starts in that phase's flat buffer."""
        k, s = self.kernel, self.stride
        return [
            (di, dj, (di % s) * s + dj % s, (di // s) * wq + dj // s)
            for di in range(k)
            for dj in range(k)
        ]

    def _phase_views(self, buf: np.ndarray, h: int, w: int):
        """(input slice, phase view) pairs that together cover the input once."""
        s, p = self.stride, self.padding
        hq, wq = self._phase_shape(h, w)
        images = buf[:, :, : hq * wq].reshape(s * s, -1, hq, wq)
        for a in range(s):
            rows, in_rows = _phase_axis(h, s, p, a)
            for b in range(s):
                cols, in_cols = _phase_axis(w, s, p, b)
                yield np.s_[:, in_rows, in_cols], images[a * s + b][:, rows, cols]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        if x.shape[0] != self.c_in:
            raise ShapeMismatch(f"expected {self.c_in} input channels, got {x.shape[0]}")
        k, s = self.kernel, self.stride
        h, w = x.shape[1:]
        ho, wo = self.out_shape(h, w)
        hq, wq = self._phase_shape(h, w)
        buf = np.zeros((s * s, self.c_in, hq * wq + (k - 1) // s), dtype=x.dtype)
        for src, phase in self._phase_views(buf, h, w):
            phase[...] = x[src]
        wk = _kernel_major(self.params["w"], x.dtype)
        n = ho * wq
        y = np.empty((self.c_out, n), dtype=x.dtype)
        tmp = np.empty_like(y)
        for t, (di, dj, ph, off) in enumerate(self._taps(wq)):
            np.matmul(wk[di, dj], buf[ph, :, off : off + n], out=tmp if t else y)
            if t:
                y += tmp
        del tmp  # freed before the output is allocated, to lower the peak
        b = self.params["b"].astype(x.dtype, copy=False)
        out = y.reshape(self.c_out, ho, wq)[:, :, :wo] + b[:, None, None]
        return out, (buf, h, w)

    def backward(self, gout: np.ndarray, cache: tuple) -> tuple[np.ndarray, dict]:
        buf, h, w = cache
        ho, wo = gout.shape[1:]
        _, wq = self._phase_shape(h, w)
        n = ho * wq
        g = np.zeros((self.c_out, ho, wq), dtype=buf.dtype)
        g[:, :, :wo] = gout
        g = g.reshape(self.c_out, n)
        wk = _kernel_major(self.params["w"], buf.dtype)
        gwk = np.empty_like(wk)
        gbuf = np.zeros_like(buf)
        tmp = np.empty((self.c_in, n), dtype=buf.dtype)
        for di, dj, ph, off in self._taps(wq):
            window = buf[ph, :, off : off + n]
            np.matmul(g, window.T, out=gwk[di, dj])
            np.matmul(wk[di, dj].T, g, out=tmp)
            gbuf[ph, :, off : off + n] += tmp
        gx = np.empty((self.c_in, h, w), dtype=buf.dtype)
        for src, phase in self._phase_views(gbuf, h, w):
            gx[src] = phase
        gw = np.ascontiguousarray(gwk.transpose(2, 3, 0, 1))
        return gx, {"w": gw, "b": gout.sum(axis=(1, 2))}


def _kernel_major(w: np.ndarray, dtype) -> np.ndarray:
    """(c_out, c_in, k, k) weights as (k, k, c_out, c_in), so that every
    tap's (c_out, c_in) matrix is contiguous."""
    return np.ascontiguousarray(w.transpose(2, 3, 0, 1), dtype=dtype)


def _phase_axis(n: int, s: int, p: int, a: int) -> tuple[slice, slice]:
    """One axis of stride phase ``a``: phase index i holds padded position
    s*i + a, which is input position s*i + a - p.  Returns the phase
    indices that land inside the n input positions, and those positions."""
    first = -((a - p) // s)  # ceil((p - a) / s)
    start = s * first + a - p
    count = len(range(start, n, s))
    return slice(first, first + count), slice(start, None, s)


class ReLU:
    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mask = x > 0
        return x * mask, mask

    def backward(self, gout: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, dict]:
        return gout * mask, {}


def bilinear_upsample(x: np.ndarray, scale: int) -> np.ndarray:
    """Plain bilinear upsample, separable reference implementation.

    Pixel centers sit at integer + 0.5; output pixel (i, j) samples the
    input at ((i + 0.5)/scale, (j + 0.5)/scale), clamped to the span of
    the input pixel centers (border replication).
    """
    _, h, w = x.shape
    rows = _axis_weights(h, scale)
    cols = _axis_weights(w, scale)
    i0, i1, ti = rows
    out = x[:, i0, :] * (1.0 - ti)[None, :, None] + x[:, i1, :] * ti[None, :, None]
    j0, j1, tj = cols
    out = out[:, :, j0] * (1.0 - tj)[None, None, :] + out[:, :, j1] * tj[None, None, :]
    return out


def _axis_weights(n: int, scale: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pos = (np.arange(n * scale) + 0.5) / scale
    pos = np.clip(pos, 0.5, n - 0.5)
    f = pos - 0.5
    lo = np.clip(np.floor(f), 0, max(n - 2, 0)).astype(np.int64)
    t = f - lo
    hi = np.minimum(lo + 1, n - 1)
    return lo, hi, t


class DySample:
    """Content-aware upsampler: offset-shifted bilinear resampling.

    A linear layer maps the C input channels to 2*s^2 offset channels,
    scaled by ``offset_factor`` and pixel-shuffled to two (row, col)
    offset maps at the output resolution.  Sampling positions are the
    regular base grid plus these offsets, clamped to the input's pixel
    center span.  Zero linear weights reproduce bilinear upsampling
    exactly, which is the initial state.

    Backward scatters the sampling gradient with one ``np.bincount`` per
    channel over the flat corner indices ``row * W + col``, corner-major
    (00, 01, 10, 11), then in row-major output order.  Each input pixel
    sums its terms in that fixed order, which keeps gradients bit-exact.
    """

    def __init__(self, c_in: int, scale: int = 2, offset_factor: float = 0.25) -> None:
        if scale < 2:
            raise ValueError("scale must be >= 2")
        if offset_factor < 0:
            raise ValueError("offset factor must be non-negative")
        self.c_in, self.scale, self.offset_factor = c_in, scale, offset_factor
        self.params = {
            "linear_w": np.zeros((2 * scale * scale, c_in)),
            "linear_b": np.zeros(2 * scale * scale),
        }

    def _positions(self, x: np.ndarray):
        s = self.scale
        _, h, w = x.shape
        raw = (
            np.tensordot(self.params["linear_w"].astype(x.dtype, copy=False), x, axes=1)
            + self.params["linear_b"].astype(x.dtype, copy=False)[:, None, None]
        )
        offsets = _pixel_shuffle(self.offset_factor * raw, s)  # (2, sH, sW)
        base_y = ((np.arange(h * s, dtype=x.dtype) + 0.5) / s)[:, None]
        base_x = ((np.arange(w * s, dtype=x.dtype) + 0.5) / s)[None, :]
        raw_y = base_y + offsets[0]
        raw_x = base_x + offsets[1]
        free_y = (raw_y > 0.5) & (raw_y < h - 0.5)
        free_x = (raw_x > 0.5) & (raw_x < w - 0.5)
        pos_y = np.clip(raw_y, 0.5, h - 0.5)
        pos_x = np.clip(raw_x, 0.5, w - 0.5)
        return raw, pos_y, pos_x, free_y, free_x, raw_y, raw_x

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Bilinear resampling of ``x`` at the offset positions.

        Each output element is ``(v00*(1-tx) + v01*tx)*(1-ty) +
        (v10*(1-tx) + v11*tx)*ty`` with its operations in exactly that
        order, so the result is bit-exact against a per-pixel scalar loop.
        The corners are gathered one at a time into three (C, sH, sW)
        buffers: ``top``, ``bot`` and one scratch.
        """
        if x.shape[0] != self.c_in:
            raise ShapeMismatch(f"expected {self.c_in} input channels, got {x.shape[0]}")
        c, h, w = x.shape
        _, pos_y, pos_x, free_y, free_x, _, _ = self._positions(x)
        if np.isnan(pos_y).any() or np.isnan(pos_x).any():
            # a NaN position has no pixel to gather from
            raise NonFiniteLoss("non-finite DySample sampling positions")
        fy = pos_y - 0.5
        fx = pos_x - 0.5
        r0 = np.clip(np.floor(fy), 0, max(h - 2, 0)).astype(np.int64)
        c0 = np.clip(np.floor(fx), 0, max(w - 2, 0)).astype(np.int64)
        # subtract the corners in the input's dtype: int64 corners would
        # promote the float32 interpolation weights to float64
        ty = fy - r0.astype(fy.dtype)
        tx = fx - c0.astype(fx.dtype)
        r1 = np.minimum(r0 + 1, h - 1)
        c1 = np.minimum(c0 + 1, w - 1)
        idx = np.stack([r0 * w + c0, r0 * w + c1, r1 * w + c0, r1 * w + c1])
        flat = x.reshape(c, -1)
        ux = 1.0 - tx
        top = np.take(flat, idx[0], axis=1)
        top *= ux
        scratch = np.take(flat, idx[1], axis=1)
        scratch *= tx
        top += scratch
        bot = np.take(flat, idx[2], axis=1)
        bot *= ux
        # every index is in range: mode="clip" lets take write into scratch
        # directly, where the default mode buffers a full-size copy
        np.take(flat, idx[3], axis=1, out=scratch, mode="clip")
        scratch *= tx
        bot += scratch
        top *= 1.0 - ty
        bot *= ty
        top += bot
        cache = (x, idx, ty, tx, free_y, free_x)
        return top, cache

    def backward(self, gout: np.ndarray, cache: tuple) -> tuple[np.ndarray, dict]:
        x, idx, ty, tx, free_y, free_x = cache
        c, h, w = x.shape
        s = self.scale

        uy = 1.0 - ty
        ux = 1.0 - tx
        wgt = np.stack([uy * ux, uy * tx, ty * ux, ty * tx])
        keys = idx.ravel()
        gx = np.empty_like(x)
        for ch in range(c):
            gx[ch] = np.bincount(
                keys, (gout[ch] * wgt).ravel(), minlength=h * w
            ).reshape(h, w)

        v00, v01, v10, v11 = _corners(x, idx)
        # derivative of the bilinear value wrt the sampling position, in place:
        # dy = (v10 - v00)*(1-tx) + (v11 - v01)*tx, dx = (v01 - v00)*(1-ty) + (v11 - v10)*ty
        dx = v01 - v00
        dy = np.subtract(v10, v00, out=v00)
        np.subtract(v11, v10, out=v10)
        np.subtract(v11, v01, out=v11)
        dy *= ux
        v11 *= tx
        dy += v11
        dx *= uy
        v10 *= ty
        dx += v10
        dy *= gout
        dx *= gout
        g_pos_y = dy.sum(axis=0) * free_y
        g_pos_x = dx.sum(axis=0) * free_x

        g_offsets = np.stack([g_pos_y, g_pos_x])
        g_raw = self.offset_factor * _pixel_unshuffle(g_offsets, s)
        gw = np.tensordot(g_raw, x, axes=([1, 2], [1, 2]))
        gb = g_raw.sum(axis=(1, 2))
        gx += np.tensordot(self.params["linear_w"].T, g_raw, axes=1)
        return gx, {"linear_w": gw, "linear_b": gb}


def _corners(x: np.ndarray, idx: np.ndarray) -> list[np.ndarray]:
    """The four (C, sH, sW) corner values at flat pixel indices idx[k]."""
    flat = x.reshape(x.shape[0], -1)
    return [np.take(flat, i, axis=1) for i in idx]


def _pixel_shuffle(x: np.ndarray, s: int) -> np.ndarray:
    """(G*s*s, H, W) -> (G, s*H, s*W); channel g*s*s + di*s + dj lands at
    output pixel (h*s + di, w*s + dj)."""
    gs2, h, w = x.shape
    g = gs2 // (s * s)
    return (
        x.reshape(g, s, s, h, w).transpose(0, 3, 1, 4, 2).reshape(g, h * s, w * s)
    )


def _pixel_unshuffle(y: np.ndarray, s: int) -> np.ndarray:
    g, hs, ws = y.shape
    h, w = hs // s, ws // s
    return (
        y.reshape(g, h, s, w, s).transpose(0, 2, 4, 1, 3).reshape(g * s * s, h, w)
    )


# ---------------------------------------------------------------------------
# network assembly


@dataclass
class Network:
    """Ordered stack of layers with flat, name-addressed parameters."""

    descriptor: str
    layers: list[tuple[str, object]]

    def parameters(self) -> dict[str, np.ndarray]:
        out = {}
        for name, layer in self.layers:
            for pname, arr in layer.params.items():
                out[f"{name}.{pname}"] = arr
        return out

    def load_parameters(self, params: dict[str, np.ndarray]) -> None:
        own = self.parameters()
        if set(params) != set(own):
            raise ShapeMismatch("parameter names do not match the architecture")
        for name, layer in self.layers:
            for pname in layer.params:
                src = np.asarray(params[f"{name}.{pname}"], dtype=np.float64)
                if src.shape != layer.params[pname].shape:
                    raise ShapeMismatch(f"bad shape for parameter {name}.{pname}")
                layer.params[pname] = src.copy()

    def forward(self, x: np.ndarray, train: bool = True) -> tuple[np.ndarray, list]:
        """Run every layer in order; return the output and the layer caches.

        ``train=True`` keeps each layer's cache for ``backward``.  With
        ``train=False`` (inference) each cache is dropped as soon as its
        layer returns and the cache list is empty, so a forward holds only
        the live activations; the output is bit-identical either way.
        """
        caches = []
        for _, layer in self.layers:
            x, cache = layer.forward(x)
            if train:
                caches.append(cache)
            del cache
        return x, caches

    def backward(self, gout: np.ndarray, caches: list) -> tuple[np.ndarray, dict]:
        grads: dict[str, np.ndarray] = {}
        for (name, layer), cache in zip(reversed(self.layers), reversed(caches)):
            gout, pgrads = layer.backward(gout, cache)
            for pname, g in pgrads.items():
                grads[f"{name}.{pname}"] = g
        return gout, grads


def parse_descriptor(descriptor: str) -> tuple[str, int, int]:
    """Parse ``student:in=8,base=16`` / ``teacher:in=8,base=32``."""
    try:
        kind, rest = descriptor.split(":", 1)
        fields = dict(item.split("=") for item in rest.split(","))
        c_in = int(fields["in"])
        base = int(fields["base"])
    except (ValueError, KeyError) as exc:
        raise FormatError(f"bad architecture descriptor {descriptor!r}") from exc
    if kind not in ("student", "teacher") or c_in < 1 or base < 1:
        raise FormatError(f"bad architecture descriptor {descriptor!r}")
    return kind, c_in, base


def build_network(descriptor: str, seed: int = 0) -> Network:
    """Instantiate a network from its descriptor string.

    The student encodes at three resolutions and upsamples back with two
    dynamic-sampling stages; the teacher doubles every width and adds one
    stride-1 encoder stage, giving it a genuine capacity margin.
    """
    kind, c_in, b = parse_descriptor(descriptor)
    rng = np.random.default_rng(seed)
    layers: list[tuple[str, object]] = []

    def conv(name, ci, co, k=3, s=1):
        layers.append((name, Conv2d(ci, co, kernel=k, stride=s, rng=rng)))
        if name != "head":
            layers.append((name + "_relu", ReLU()))

    conv("enc0", c_in, b)
    if kind == "teacher":
        conv("enc0b", b, b)
    conv("enc1", b, 2 * b, s=2)
    conv("enc2", 2 * b, 4 * b, s=2)
    layers.append(("up0", DySample(4 * b, scale=2)))
    conv("dec0", 4 * b, 2 * b)
    layers.append(("up1", DySample(2 * b, scale=2)))
    conv("dec1", 2 * b, b)
    conv("head", b, 4, k=1)
    return Network(descriptor=descriptor, layers=layers)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class SgdState:
    """SGD with classic momentum, coupled weight decay, per-epoch lr decay."""

    lr: float = 0.005
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_decay: float = 0.99
    velocity: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError("lr must be positive")

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeMismatch(f"gradient shape mismatch for {name}")
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(p)
            v = self.momentum * v + g + self.weight_decay * p
            self.velocity[name] = v
            p -= self.lr * v

    def end_epoch(self) -> None:
        self.lr *= self.lr_decay


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str | Path, net: Network) -> None:
    """Versioned binary container; parameters stored float32 LE.

    Layout: magic ``KDCK``, u16 version, u32 descriptor length, descriptor
    utf-8, u32 parameter count, then per parameter u32 name length, name,
    u32 rank, u32 dims, raw float32 data.  All integers little-endian.
    """
    chunks = [CKPT_MAGIC, struct.pack("<H", CKPT_VERSION)]
    desc = net.descriptor.encode("utf-8")
    chunks.append(struct.pack("<I", len(desc)))
    chunks.append(desc)
    params = net.parameters()
    chunks.append(struct.pack("<I", len(params)))
    for name, arr in params.items():
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    write_file(path, b"".join(chunks), "checkpoint")


def load_checkpoint(path: str | Path) -> Network:
    data = read_file(path, "checkpoint")
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise FormatError(f"{path}: truncated checkpoint")
        out = data[off : off + n]
        off += n
        return out

    if take(4) != CKPT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    (version,) = struct.unpack("<H", take(2))
    if version != CKPT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (dlen,) = struct.unpack("<I", take(4))
    descriptor = take(dlen).decode("utf-8")
    (n_params,) = struct.unpack("<I", take(4))
    params: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (nlen,) = struct.unpack("<I", take(4))
        name = take(nlen).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        arr = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape)
        params[name] = arr
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes")
    net = build_network(descriptor)
    net.load_parameters(params)
    return net
