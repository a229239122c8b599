"""Float32 array primitives: matmul, 2-D convolution, row norms, seeded RNG.

Arrays are plain C-contiguous ``numpy.float32`` ndarrays (row-major flat
storage). Public ops validate shapes, run with a fixed reduction order for a
given build, and reject non-finite results at the boundary so downstream
modules can assume clean values.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidArg, NonFiniteTensor, ShapeMismatch

Array = np.ndarray


def as_f32(x) -> Array:
    """Coerce array-like input to a C-contiguous float32 array."""
    return np.ascontiguousarray(x, dtype=np.float32)


def _checked(out: Array, op: str) -> Array:
    if not np.isfinite(out).all():
        raise NonFiniteTensor(f"{op} produced non-finite values")
    return out


def matmul(a, b) -> Array:
    """Matrix product of two 2-D float32 arrays."""
    a = as_f32(a)
    b = as_f32(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"inner dimensions differ: {a.shape} x {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # _checked rejects non-finite
        return _checked(a @ b, "matmul")


def _im2col(x: Array, kh: int, kw: int, stride: int, padding: int) -> Array:
    """Unfold padded input into (batch, in_ch*kh*kw, out_h*out_w) patches."""
    b, c, h, w = x.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((b, c, kh, kw, out_h, out_w), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
    return cols.reshape(b, c * kh * kw, out_h * out_w)


def _col2im(cols: Array, x_shape: tuple, kh: int, kw: int, stride: int, padding: int) -> Array:
    """Scatter-add patch gradients back onto the (padded) input grid."""
    b, c, h, w = x_shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    cols = cols.reshape(b, c, kh, kw, out_h, out_w)
    grad = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            grad[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols[:, :, i, j]
    if padding:
        grad = grad[:, :, padding:-padding, padding:-padding]
    return np.ascontiguousarray(grad)


def conv2d(x, kernel, stride: int = 1, padding: int = 0) -> Array:
    """Batched 2-D cross-correlation with zero padding.

    ``x`` has shape (batch, in_ch, H, W) and ``kernel`` (out_ch, in_ch, kh, kw);
    the output spatial size is floor((H + 2*padding - kh) / stride) + 1.
    """
    return _conv2d_cols(x, kernel, stride, padding)[0]


def _conv2d_cols(x, kernel, stride: int, padding: int) -> tuple[Array, Array]:
    """conv2d that also returns the im2col columns it multiplied, for a
    backward pass to reuse."""
    x = as_f32(x)
    k = as_f32(kernel)
    if x.ndim != 4 or k.ndim != 4:
        raise ShapeMismatch(f"conv2d needs 4-D operands, got {x.shape} and {k.shape}")
    if x.shape[1] != k.shape[1]:
        raise ShapeMismatch(f"channel disagreement: input {x.shape[1]}, kernel {k.shape[1]}")
    if stride < 1:
        raise InvalidArg("stride must be >= 1")
    if padding < 0:
        raise InvalidArg("padding must be >= 0")
    b, _, h, w = x.shape
    o, _, kh, kw = k.shape
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeMismatch(f"kernel {kh}x{kw} exceeds padded input {h + 2 * padding}x{w + 2 * padding}")
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    cols = _im2col(x, kh, kw, stride, padding)
    with np.errstate(over="ignore", invalid="ignore"):  # _checked rejects non-finite
        out = np.matmul(k.reshape(o, -1), cols)
    return _checked(np.ascontiguousarray(out.reshape(b, o, out_h, out_w)), "conv2d"), cols


def row_l2_norms(w, bias=None) -> Array:
    """Per-row L2 norms, with the bias if given; conv filters count as flat rows."""
    w = as_f32(w)
    if w.ndim < 2:
        raise ShapeMismatch(f"row_l2_norms needs >= 2-D input, got shape {w.shape}")
    flat = w.reshape(w.shape[0], -1)
    sq = np.einsum("ij,ij->i", flat, flat)
    if bias is not None:
        b = as_f32(bias)
        if b.shape != (w.shape[0],):
            raise ShapeMismatch(f"bias length {b.shape} does not match {w.shape[0]} rows")
        sq = sq + b * b
    return _checked(np.sqrt(sq), "row_l2_norms")


def _philox_key(seed: int, stream_id: str) -> Array:
    digest = hashlib.sha256(f"{seed}\x1f{stream_id}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)  # Philox-4x64 takes a 128-bit key


class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Distinct stream ids give statistically independent streams, and any
    (seed, stream_id) pair replays the identical draw sequence. Keys are
    derived by hashing, so splitting is cheap and order-independent.
    """

    def __init__(self, seed: int, stream_id: str = "root") -> None:
        self.seed = int(seed)
        self.stream_id = stream_id
        self._gen = np.random.Generator(np.random.Philox(key=_philox_key(self.seed, stream_id)))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id!r})"

    def split(self, label: str) -> "RngStream":
        """Derive an independent child stream."""
        return RngStream(self.seed, f"{self.stream_id}/{label}")

    def normal(self, shape, std: float = 1.0) -> Array:
        return self._gen.standard_normal(shape, dtype=np.float32) * np.float32(std)

    def uniform(self, shape, low: float = -1.0, high: float = 1.0) -> Array:
        r = self._gen.random(shape, dtype=np.float32)
        return r * np.float32(high - low) + np.float32(low)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> Array:
        return self._gen.permutation(n)
