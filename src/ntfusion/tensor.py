"""Float32 array primitives: matmul, 2-D convolution, row norms, seeded RNG.

Arrays are plain ``numpy.float32`` ndarrays. Ops return C-contiguous
(row-major) arrays; `matmul` also reads F-contiguous operands, such as the
transpose of a C-contiguous array, in place. Public ops validate shapes, run
with a fixed reduction order for a given build and input layout, and reject
non-finite results at the boundary so downstream modules can assume clean
values.
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


def _blas_operand(x) -> Array:
    """x itself if it is a C- or F-contiguous float32 array, else as_f32(x)."""
    if isinstance(x, np.ndarray) and x.dtype == np.float32 and (
            x.flags.c_contiguous or x.flags.f_contiguous):
        return x
    return as_f32(x)


def matmul(a, b) -> Array:
    """Matrix product of two 2-D float32 arrays.

    A C- or F-contiguous float32 operand goes to sgemm as it is: the
    transpose of a C-contiguous array runs as a transpose flag, not a copy.
    Any other operand (another dtype, a list, a strided view) is first copied
    to a C-contiguous float32 array. The transpose flag changes the kernel's
    summation order, so a product with a transposed view agrees with the
    product of its C-contiguous copy within rel_error <= 1e-5 (the max
    absolute difference over the larger of the two results' max magnitudes,
    as in tests/oracles.py), not bit for bit. For one build and one operand
    layout the result is deterministic.
    """
    a = _blas_operand(a)
    b = _blas_operand(b)
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
        xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=np.float32)
        xp[:, :, padding : padding + h, padding : padding + w] = x
        x = xp
    cols = np.empty((b, c, kh, kw, out_h, out_w), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
    return cols.reshape(b, c * kh * kw, out_h * out_w)


def _col2im(cols: Array, x_shape: tuple, kh: int, kw: int, stride: int, padding: int) -> Array:
    """Scatter-add patch gradients back onto the input grid.

    `cols` is (batch, in_ch*kh*kw, (out_h - 1)*wp + out_w) in the
    padded-width layout, wp being the padded input width: output row y
    starts at column y*wp, its out_w real columns are followed by zeros up
    to the next row, and the last row ends after its real columns. For
    kernel offset (i, j), column t of that layout belongs to padded-grid
    element i*wp + j + stride*t in flat order, so each offset is one add
    over a strided flat range of about out_h*wp elements instead of out_h
    runs of out_w. The zero columns (±0.0) land on grid elements that
    offset does not otherwise reach.

    Each grid element still receives its addends in (i, j) order, in a sum
    that starts at +0.0 and so is never -0.0; adding ±0.0 to it leaves its
    bits unchanged, so the result is bit-identical to adding only the real
    columns.
    """
    b, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    run = cols.shape[-1]
    cols = cols.reshape(b, c, kh * kw, run)
    grad = np.zeros((b, c, hp * wp), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            start = i * wp + j
            grad[:, :, start : start + stride * (run - 1) + 1 : stride] += cols[:, :, i * kw + j]
    grad = grad.reshape(b, c, hp, wp)[:, :, padding : padding + h, padding : padding + w]
    return np.ascontiguousarray(grad)


# Batch rows per im2col slice in `conv2d`.
_CONV_ROWS = 64


def conv2d(x, kernel, stride: int = 1, padding: int = 0) -> Array:
    """Batched 2-D cross-correlation with zero padding.

    ``x`` has shape (batch, in_ch, H, W) and ``kernel`` (out_ch, in_ch, kh, kw);
    the output spatial size is floor((H + 2*padding - kh) / stride) + 1.

    The im2col columns and the GEMM run _CONV_ROWS batch rows at a time, each
    slice written into one preallocated output, so the columns never exist for
    more than one slice. The batched GEMM computes each row on its own, so the
    result is bit-identical to `_conv2d_cols`'s, which unfolds the whole batch.
    """
    x, k, out_h, out_w = _conv_args(x, kernel, stride, padding)
    b, o = x.shape[0], k.shape[0]
    out = np.empty((b, o, out_h * out_w), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):  # _checked rejects non-finite
        for s in range(0, b, _CONV_ROWS):
            rows = slice(s, s + _CONV_ROWS)
            # The slice's columns are freed before the next slice's are built.
            np.matmul(k.reshape(o, -1), _im2col(x[rows], *k.shape[2:], stride, padding),
                      out=out[rows])
    return _checked(out.reshape(b, o, out_h, out_w), "conv2d")


def _conv_args(x, kernel, stride: int, padding: int) -> tuple[Array, Array, int, int]:
    """(x, kernel, out_h, out_w) of a conv, both operands as float32, after
    every shape and argument check."""
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
    h, w = x.shape[2:]
    kh, kw = k.shape[2:]
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeMismatch(f"kernel {kh}x{kw} exceeds padded input {h + 2 * padding}x{w + 2 * padding}")
    return x, k, (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


def _conv2d_cols(x, kernel, stride: int, padding: int) -> tuple[Array, Array]:
    """conv2d that also returns the im2col columns of the whole batch, for a
    backward pass to reuse."""
    x, k, out_h, out_w = _conv_args(x, kernel, stride, padding)
    o = k.shape[0]
    cols = _im2col(x, *k.shape[2:], stride, padding)
    with np.errstate(over="ignore", invalid="ignore"):  # _checked rejects non-finite
        out = np.matmul(k.reshape(o, -1), cols)
    return _checked(out.reshape(x.shape[0], o, out_h, out_w), "conv2d"), cols


def row_l2_norms(w, bias=None) -> Array:
    """Per-row L2 norms, with the bias if given; conv filters count as flat rows."""
    w = as_f32(w)
    if w.ndim < 2:
        raise ShapeMismatch(f"row_l2_norms needs >= 2-D input, got shape {w.shape}")
    return _block_norms([w], bias)


def _block_norms(blocks, bias=None) -> Array:
    """Row L2 norms of float32 column blocks laid side by side: each block's
    row sums of squares, added in block order, plus the bias squared."""
    flats = [w.reshape(w.shape[0], -1) for w in blocks]
    sq = sum(np.einsum("ij,ij->i", f, f) for f in flats)  # 0 + the first block is exact
    if bias is not None:
        b = as_f32(bias)
        if b.shape != sq.shape:
            raise ShapeMismatch(f"bias length {b.shape} does not match {len(sq)} rows")
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
