"""Per-layer forward/backward kernels on raw float32 arrays.

Each forward returns (out, cache) where the cache holds exactly what the
matching backward needs: conv keeps the im2col columns its forward
multiplied, so the backward does not rebuild them; maxpool keeps
(x, window, out) and routes each gradient to the first max of its window;
relu keeps its output, which the next layer's cache usually holds already,
since out > 0 exactly where x > 0. Layer sequencing, parameter storage, and
dispatch live in the network module.

Kernels read their arguments and return new arrays, with four
exceptions. Train-mode bn_forward updates the running buffers in place.
bn_forward and relu_forward write their output into x's buffer when called
with overwrite_x=True; the cacheless network.forward does so for every
activation it allocated itself, never for the caller's batch. bn_backward
and relu_backward write their input gradient into dout's buffer when called
with overwrite_dout=True; network.backprop does so for every gradient it
allocated itself, which is all but the logits gradient. conv_backward and
linear_backward skip the input gradient when called with input_grad=False,
as backprop does for the first layer with parameters, whose input gradient
nothing reads.

conv_backward builds its input gradient in the padded-width layout of
tensor._col2im, which adds each kernel offset's columns in one long run;
the addends reach each input element in the same order as before, so the
sums are unchanged. The conv, batchnorm, relu and maxpool kernels and
network.backprop match the slow paths kept in tests/oracles.py bit for bit
on finite input. Non-finite input is out of scope: the next conv or linear
rejects it through tensor._checked.

linear_forward and linear_backward hand tensor.matmul the transposed views
w.T and dout.T, which BLAS reads in place instead of a C-contiguous copy.
Their outputs and gradients agree with the copying kernels kept in
tests/oracles.py within rel_error <= 1e-5, not bit for bit (7.3e-7 at
worst over the 324 shapes of tests/test_layers.py::TestLinear), and are
deterministic per build.
"""

from __future__ import annotations

import numpy as np

# conv2d is not called here; it stays importable as layers.conv2d.
from .tensor import Array, _col2im, _conv2d_cols, conv2d, matmul  # noqa: F401

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def linear_forward(x: Array, w: Array, b: Array):
    """Affine map x @ w.T + b with w of shape (out_features, in_features)."""
    out = matmul(x, w.T) + b
    return out, (x, w)


def linear_backward(dout: Array, cache, *, input_grad: bool = True):
    x, w = cache
    dx = matmul(dout, w) if input_grad else None
    dw = matmul(dout.T, x)
    db = dout.sum(axis=0)
    return dx, dw, db


def conv_forward(x: Array, w: Array, b: Array, stride: int, padding: int):
    out, cols = _conv2d_cols(x, w, stride, padding)
    out += b.reshape(1, -1, 1, 1)
    return out, (cols, x.shape, w, stride, padding)


def _widen(a: Array, out_h: int, out_w: int, wp: int) -> Array:
    """(b, n, out_h*out_w) -> (b, n, (out_h - 1)*wp + out_w): each row of
    out_w values starts wp columns after the previous one, zeros between."""
    b, n = a.shape[:2]
    wide = np.zeros((b, n, out_h * wp), dtype=np.float32)
    wide.reshape(b, n, out_h, wp)[..., :out_w] = a.reshape(b, n, out_h, out_w)
    return wide[..., : (out_h - 1) * wp + out_w]


def conv_backward(dout: Array, cache, *, input_grad: bool = True):
    """(dx, dw, db) of a conv; dx is None when `input_grad` is false.

    dx needs w.T @ dout in the padded-width layout that `tensor._col2im`
    adds in long runs: rows wp (the padded input width) columns apart. The
    GEMM writes that layout itself from dout widened the same way. On the
    tested OpenBLAS build a gemm's element bits do not depend on its column
    count, but a gemv's do; so when w.T has one row or the product one
    column (numpy's gemv cases), the GEMM runs on dout as it is and its
    result is widened instead.
    """
    cols, x_shape, w, stride, padding = cache
    o, _, kh, kw = w.shape
    batch, _, out_h, out_w = dout.shape
    dout2 = dout.reshape(batch, o, -1)
    dw = np.tensordot(dout2, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
    # When the caller handed the cache over, the columns go before dx's are built.
    del cache, cols
    db = dout.sum(axis=(0, 2, 3))
    dx = None
    if input_grad:
        wt = w.reshape(o, -1).T
        wp = x_shape[3] + 2 * padding
        if wt.shape[0] > 1 and out_h * out_w > 1:
            dcols = np.matmul(wt, _widen(dout2, out_h, out_w, wp))
        else:
            dcols = _widen(np.matmul(wt, dout2), out_h, out_w, wp)
        dx = _col2im(dcols, x_shape, kh, kw, stride, padding)
    return dx, dw.astype(np.float32, copy=False), db


def bn_forward(x: Array, weight: Array, bias: Array, running_mean: Array,
               running_var: Array, mode: str, *, overwrite_x: bool = False):
    """Per-channel batch norm over a (batch, ch, H, W) tensor.

    Train mode normalizes with biased batch statistics and updates the
    running buffers in place (unbiased variance, momentum 0.1). Eval mode
    uses the frozen running statistics and mutates nothing. With
    `overwrite_x`, the output is written into x's buffer, which in eval mode
    also held the normalized input; the cache is then None, as nothing runs
    a backward through it.
    """
    if mode == "train":
        n = x.shape[0] * x.shape[2] * x.shape[3]
        mu = x.mean(axis=(0, 2, 3))
        xhat = x - mu.reshape(1, -1, 1, 1)
        # The same reduction np.var runs on the centred input, so the
        # variance is bit-identical to x.var(axis=(0, 2, 3)). The squares'
        # buffer is reused for the output.
        out = np.square(xhat, out=x if overwrite_x else None)
        var = out.sum(axis=(0, 2, 3)) / n
        inv = 1.0 / np.sqrt(var + np.float32(BN_EPS))
        xhat *= inv.reshape(1, -1, 1, 1)
        unbiased = var * (n / (n - 1)) if n > 1 else var
        running_mean *= np.float32(1.0 - BN_MOMENTUM)
        running_mean += np.float32(BN_MOMENTUM) * mu
        running_var *= np.float32(1.0 - BN_MOMENTUM)
        running_var += np.float32(BN_MOMENTUM) * unbiased
    else:
        inv = 1.0 / np.sqrt(running_var + np.float32(BN_EPS))
        xhat = np.subtract(x, running_mean.reshape(1, -1, 1, 1), out=x if overwrite_x else None)
        xhat *= inv.reshape(1, -1, 1, 1)
        out = xhat if overwrite_x else np.empty_like(xhat)
    np.multiply(weight.reshape(1, -1, 1, 1), xhat, out=out)
    out += bias.reshape(1, -1, 1, 1)
    return out, None if overwrite_x else (xhat, weight, inv, mode)


def bn_backward(dout: Array, cache, *, overwrite_dout: bool = False):
    """(dx, dweight, dbias) of a batch norm; with `overwrite_dout`, dx is
    written into dout's buffer."""
    xhat, weight, inv, mode = cache
    scratch = dout * xhat
    dweight = scratch.sum(axis=(0, 2, 3))
    dbias = dout.sum(axis=(0, 2, 3))
    # dxhat, turned into dx in place
    dx = np.multiply(dout, weight.reshape(1, -1, 1, 1), out=dout if overwrite_dout else None)
    if mode == "train":
        # (inv / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
        # evaluated in that order in two reused buffers.
        n = np.float32(dout.shape[0] * dout.shape[2] * dout.shape[3])
        sum_dxhat = dx.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        np.multiply(dx, xhat, out=scratch)
        sum_dxhat_xhat = scratch.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        dx *= n
        dx -= sum_dxhat
        np.multiply(xhat, sum_dxhat_xhat, out=scratch)
        dx -= scratch
        dx *= inv.reshape(1, -1, 1, 1) / n
    else:
        dx *= inv.reshape(1, -1, 1, 1)
    return dx, dweight, dbias


def _pool_views(x: Array, window: int):
    """The window*window strided views of x, one per offset in row-major
    window order; view (i, j) holds element (i, j) of every window."""
    oh, ow = x.shape[2] // window, x.shape[3] // window
    for i in range(window):
        for j in range(window):
            yield x[:, :, i : oh * window : window, j : ow * window : window]


def maxpool_forward(x: Array, window: int):
    """Max pooling with stride equal to the window; trailing rows/cols that
    do not fill a window are cropped (their gradient is zero).

    The cache is (x, window, out). When several elements of a window tie for
    the max, the first in row-major window order wins, as with np.argmax:
    np.maximum keeps its second operand on a tie (+0.0 against -0.0), so the
    running max is passed second.
    """
    views = _pool_views(x, window)
    out = next(views).copy()
    for view in views:
        np.maximum(view, out, out=out)
    return out, (x, window, out)


def maxpool_backward(dout: Array, cache):
    """Route each output gradient to the first element of its window equal
    to the max (the forward's tie rule); every other element gets zero."""
    x, window, out = cache
    dx = np.zeros_like(x)
    dout_bits = dout.view(np.uint32)
    unrouted = np.ones(out.shape, dtype=bool)
    for view, dview in zip(_pool_views(x, window), _pool_views(dx, window)):
        hit = view == out
        hit &= unrouted
        # The raw bits times the 0/1 mask copy dout where hit and write +0.0
        # elsewhere (a float multiply would write -0.0 for negative dout).
        np.multiply(dout_bits, hit, out=dview.view(np.uint32))
        unrouted ^= hit
    return dx


def flatten_forward(x: Array):
    return np.ascontiguousarray(x.reshape(x.shape[0], -1)), x.shape


def flatten_backward(dout: Array, cache):
    return dout.reshape(cache)


def relu_forward(x: Array, *, overwrite_x: bool = False):
    """max(x, 0), cached as it is; with `overwrite_x`, written into x's buffer."""
    out = np.maximum(x, np.float32(0.0), out=x if overwrite_x else None)
    return out, out


def relu_backward(dout: Array, cache, *, overwrite_dout: bool = False):
    """dout where the forward output was positive, else ±0.0 (dout times the
    0/1 mask); with `overwrite_dout`, written into dout's buffer."""
    return np.multiply(dout, cache > 0, out=dout if overwrite_dout else None)
