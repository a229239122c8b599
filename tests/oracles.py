"""Independent brute-force oracles shared by the test suite.

Everything here is deliberately naive (scalar loops, finite differences) and
must stay independent of the library code paths it checks. The layer kernels
at the end are the slow paths the fast kernels in `ntfusion.layers` replaced.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

import math

from ntfusion import layers, losses, network, training
from ntfusion.errors import EmptyLayer, InvalidArg, ShapeMismatch
from ntfusion.fusion import EnsembleBundle, vanilla_average
from ntfusion.layers import BN_EPS, BN_MOMENTUM
from ntfusion.losses import log_softmax
from ntfusion.network import (
    LayerCoupling,
    LayerKind,
    LayerSpec,
    Network,
    UNIT_KINDS,
    check_specs,
    hidden_couplings,
)
from ntfusion.pruning import KeepPolicy
from ntfusion.tensor import Array, _im2col, conv2d, matmul, row_l2_norms


def rel_error(a, b):
    """Max absolute difference relative to the larger operand's scale."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return float(np.abs(a - b).max() / scale)


def matmul_oracle(a, b):
    """Naive triple loop with ascending-index accumulation."""
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += float(a[i, l]) * float(b[l, j])
            out[i, j] = acc
    return out


def conv2d_oracle(x, kernel, stride, padding):
    """Direct six-nested-loop cross-correlation with zero padding."""
    b, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    out = np.zeros((b, o, oh, ow), dtype=np.float64)
    for bi in range(b):
        for oi in range(o):
            for yi in range(oh):
                for xi in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += float(xp[bi, ci, yi * stride + ki, xi * stride + kj]) * \
                                    float(kernel[oi, ci, ki, kj])
                    out[bi, oi, yi, xi] = acc
    return out


def loss_fn(y, loss="cross_entropy", teacher_logits=None, kd_cfg=None):
    """The `network.backward` loss hook that `loss` names, bound to `y`."""
    if loss == "cross_entropy":
        return lambda logits: losses.cross_entropy(logits, y)
    return lambda logits: losses.kd(logits, teacher_logits, y, kd_cfg.temperature,
                                    kd_cfg.soft_weight)


def loss_of(net, x, y, loss="cross_entropy", teacher_logits=None, kd_cfg=None):
    return loss_fn(y, loss, teacher_logits, kd_cfg)(network.forward(net, x, "train"))[0]


def fd_gradients(net, x, y, eps=1e-3, loss="cross_entropy", teacher_logits=None,
                 kd_cfg=None):
    """Central finite differences through the full forward+loss path.

    Perturbs each float32 parameter in place and uses the actually stored
    values for the step size, so rounding of orig +/- eps cancels out.
    """
    grads = []
    for params in net.params:
        g = {}
        for key in ("weight", "bias"):
            if key not in params:
                continue
            arr = params[key]
            flat = arr.reshape(-1)
            out = np.zeros(flat.size, dtype=np.float64)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + np.float32(eps)
                hi_x = float(flat[idx])
                hi = loss_of(net, x, y, loss, teacher_logits, kd_cfg)
                flat[idx] = orig - np.float32(eps)
                lo_x = float(flat[idx])
                lo = loss_of(net, x, y, loss, teacher_logits, kd_cfg)
                flat[idx] = orig
                out[idx] = (hi - lo) / (hi_x - lo_x)
            g[key] = out.reshape(arr.shape)
        grads.append(g)
    return grads


def check_gradients(net, x, y, tol=1e-3, eps=1e-3, loss="cross_entropy",
                    teacher_logits=None, kd_cfg=None):
    """Assert analytic gradients match finite differences per tensor.

    Tensors whose gradient is structurally zero (e.g. a conv bias feeding a
    BatchNorm, which cancels any per-channel shift) carry only FD noise on
    both sides; they are required to sit below a dead-zone threshold instead
    of passing a meaningless relative comparison.
    """
    _, analytic = network.backward(net, x, loss_fn(y, loss, teacher_logits, kd_cfg))
    numeric = fd_gradients(net, x, y, eps, loss, teacher_logits, kd_cfg)
    global_scale = max(
        (float(np.abs(n[key]).max()) for n in numeric for key in n), default=0.0)
    dead = max(0.01 * global_scale, 1e-12)
    worst = 0.0
    for li, (a, n) in enumerate(zip(analytic, numeric)):
        for key in n:
            scale = max(float(np.abs(a[key]).max()), float(np.abs(n[key]).max()))
            if scale <= dead:
                continue
            err = rel_error(a[key], n[key])
            assert err <= tol, f"layer {li} {key}: rel error {err:.2e} > {tol}"
            worst = max(worst, err)
    return worst


# Slow-path layer kernels, kept verbatim from before the fast paths in
# `ntfusion.layers` replaced them. The fast paths must match these bit for
# bit on finite input: conv rebuilds its im2col columns in the backward and
# scatter-adds them with `_col2im` in out_h runs of out_w elements,
# batchnorm takes np.var and fresh buffers, relu multiplies into a new
# array, maxpool routes through argmax (first index wins ties) with
# take_along_axis / put_along_axis, and `backprop` computes every layer's
# input gradient, the first layer's included. The linear kernels are the
# exception: they copy w.T and dout.T to C order before the GEMM, and the
# fast kernels, which pass the transposed views, match them within
# rel_error <= 1e-5.


def linear_forward(x: Array, w: Array, b: Array):
    out = matmul(x, np.ascontiguousarray(w.T)) + b
    return out, (x, w)


def linear_backward(dout: Array, cache):
    x, w = cache
    dx = matmul(dout, w)
    dw = matmul(np.ascontiguousarray(dout.T), x)
    db = dout.sum(axis=0)
    return dx, dw, db


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


def conv_forward(x: Array, w: Array, b: Array, stride: int, padding: int):
    out = conv2d(x, w, stride, padding)
    out += b.reshape(1, -1, 1, 1)
    return out, (x, w, stride, padding)


def conv_backward(dout: Array, cache):
    x, w, stride, padding = cache
    o, _, kh, kw = w.shape
    batch = dout.shape[0]
    dout2 = dout.reshape(batch, o, -1)
    cols = _im2col(x, kh, kw, stride, padding)
    dw = np.tensordot(dout2, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
    db = dout.sum(axis=(0, 2, 3))
    dcols = np.matmul(w.reshape(o, -1).T, dout2)
    dx = _col2im(dcols, x.shape, kh, kw, stride, padding)
    return dx, dw.astype(np.float32, copy=False), db


def bn_forward(x: Array, weight: Array, bias: Array, running_mean: Array,
               running_var: Array, mode: str, *, overwrite_x: bool = False):
    """Per-channel batch norm over a (batch, ch, H, W) tensor.

    Train mode normalizes with biased batch statistics and updates the
    running buffers in place (unbiased variance, momentum 0.1). Eval mode
    uses the frozen running statistics and mutates nothing. `overwrite_x`
    only permits reusing x's buffer: this slow path allocates every array.
    """
    if mode == "train":
        n = x.shape[0] * x.shape[2] * x.shape[3]
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        inv = 1.0 / np.sqrt(var + np.float32(BN_EPS))
        xhat = (x - mu.reshape(1, -1, 1, 1)) * inv.reshape(1, -1, 1, 1)
        unbiased = var * (n / (n - 1)) if n > 1 else var
        running_mean *= np.float32(1.0 - BN_MOMENTUM)
        running_mean += np.float32(BN_MOMENTUM) * mu
        running_var *= np.float32(1.0 - BN_MOMENTUM)
        running_var += np.float32(BN_MOMENTUM) * unbiased
    else:
        inv = 1.0 / np.sqrt(running_var + np.float32(BN_EPS))
        xhat = (x - running_mean.reshape(1, -1, 1, 1)) * inv.reshape(1, -1, 1, 1)
    out = weight.reshape(1, -1, 1, 1) * xhat + bias.reshape(1, -1, 1, 1)
    return out, (xhat, weight, inv, mode)


def bn_backward(dout: Array, cache):
    xhat, weight, inv, mode = cache
    dweight = (dout * xhat).sum(axis=(0, 2, 3))
    dbias = dout.sum(axis=(0, 2, 3))
    dxhat = dout * weight.reshape(1, -1, 1, 1)
    if mode == "train":
        n = np.float32(dout.shape[0] * dout.shape[2] * dout.shape[3])
        sum_dxhat = dxhat.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        dx = (inv.reshape(1, -1, 1, 1) / n) * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    else:
        dx = dxhat * inv.reshape(1, -1, 1, 1)
    return dx, dweight, dbias


def maxpool_forward(x: Array, window: int):
    """Max pooling with stride equal to the window; trailing rows/cols that
    do not fill a window are cropped (their gradient is zero)."""
    b, c, h, w = x.shape
    oh, ow = h // window, w // window
    xc = x[:, :, : oh * window, : ow * window]
    win = xc.reshape(b, c, oh, window, ow, window).transpose(0, 1, 2, 4, 3, 5)
    win = np.ascontiguousarray(win).reshape(b, c, oh, ow, window * window)
    idx = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), (x.shape, window, idx)


def maxpool_backward(dout: Array, cache):
    x_shape, window, idx = cache
    b, c, h, w = x_shape
    oh, ow = h // window, w // window
    dwin = np.zeros((b, c, oh, ow, window * window), dtype=np.float32)
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
    dwin = dwin.reshape(b, c, oh, ow, window, window).transpose(0, 1, 2, 4, 3, 5)
    dx = np.zeros(x_shape, dtype=np.float32)
    dx[:, :, : oh * window, : ow * window] = dwin.reshape(b, c, oh * window, ow * window)
    return dx


def relu_backward(dout: Array, cache):
    return dout * (cache > 0)


def backprop(net: Network, caches: list, dlogits: Array) -> list[dict[str, Array]]:
    """Chain-rule pass from a logits gradient down to per-parameter grads."""
    grads: list[dict[str, Array]] = [{} for _ in net.specs]
    dx = dlogits
    for i in range(len(net.specs) - 1, -1, -1):
        k = net.specs[i].kind
        if k is LayerKind.LINEAR:
            dx, dw, db = layers.linear_backward(dx, caches[i])
            grads[i] = {"weight": dw, "bias": db}
        elif k is LayerKind.CONV2D:
            dx, dw, db = layers.conv_backward(dx, caches[i])
            grads[i] = {"weight": dw, "bias": db}
        elif k is LayerKind.BATCHNORM2D:
            dx, dw, db = layers.bn_backward(dx, caches[i])
            grads[i] = {"weight": dw, "bias": db}
        elif k is LayerKind.MAXPOOL2D:
            dx = layers.maxpool_backward(dx, caches[i])
        elif k is LayerKind.FLATTEN:
            dx = layers.flatten_backward(dx, caches[i])
        else:
            dx = layers.relu_backward(dx, caches[i])
    return grads


# The losses as they were before each computed one log_softmax per operand:
# cross_entropy took the softmax for its gradient from a second log_softmax,
# and kd took both softmax(teacher / T) and log_softmax(teacher / T). The
# losses in `ntfusion.losses` must match these bit for bit.


def _softmax(logits):
    return np.exp(log_softmax(logits))


def cross_entropy(logits, labels):
    logits = np.ascontiguousarray(logits, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    per = -log_softmax(logits)[np.arange(len(labels)), labels]
    loss = float(per.mean())
    grad = _softmax(logits)
    grad[np.arange(len(labels)), labels] -= 1.0
    grad /= len(labels)
    return loss, grad.astype(np.float32)


def kd(student_logits, teacher_logits, labels, temperature, soft_weight, hard_weight):
    student_logits = np.ascontiguousarray(student_logits, dtype=np.float32)
    teacher_logits = np.ascontiguousarray(teacher_logits, dtype=np.float32)
    hard_loss, hard_grad = cross_entropy(student_logits, labels)
    if soft_weight == 0.0:
        return hard_loss, hard_grad * np.float32(hard_weight)
    t = float(temperature)
    batch = student_logits.shape[0]
    p = _softmax(teacher_logits / np.float32(t))
    log_q = log_softmax(student_logits / np.float32(t))
    log_p = log_softmax(teacher_logits / np.float32(t))
    kl_per = (p * (log_p - log_q)).sum(axis=-1)
    soft_loss = t ** 2 * float(kl_per.mean())
    soft_grad = (t / batch) * (np.exp(log_q) - p)
    loss = soft_weight * soft_loss + hard_weight * hard_loss
    grad = (soft_weight * soft_grad).astype(np.float32) + np.float32(hard_weight) * hard_grad
    return loss, grad


# The layer-wise concatenation, structured pruning and pairwise NT as they
# were before the gather in `ntfusion.pruning` replaced them: build the
# concatenated network layer kind by layer kind, prune a copy of the whole
# network, and fuse pairs by building the concatenation and pruning it back.
# The gathered outputs must match these bit for bit, origins included.


def concat_fuse(bundle):
    """Concatenate non-output layers of all members; average the heads.

    Shapes per member layer kind, with k members:
      input-connected Linear (m x n)  -> (k*m x n), rows stacked
      interior Linear       (m x n)   -> (k*m x k*n), member blocks on the
                                         diagonal, cross weights zero
      output Linear         (m x n)   -> (m x k*n) = (1/k) * [W1 | ... | Wk],
                                         bias = mean of member biases
      Conv2D analogously over channels; BatchNorm2D parameters and running
      statistics are plain concatenations. Pool/Flatten/ReLU pass through.

    The result carries `origins` labelling every hidden unit with its member.
    """
    if bundle.k < 2:
        raise InvalidArg("fusion needs k >= 2 members")
    check_specs(bundle.members[0].specs)
    members = bundle.members
    k = bundle.k
    specs = members[0].specs
    param_idx = [i for i, s in enumerate(specs) if s.kind in UNIT_KINDS]
    head = param_idx[-1]
    first = param_idx[0]

    fused_specs = []
    fused_params = []
    origins = {}
    for i, spec in enumerate(specs):
        mats = [m.params[i] for m in members]
        if spec.kind is LayerKind.LINEAR:
            fin, fout = spec.dims
            if i == head:
                if i == first:
                    # Degenerate head-only chain: output averaging over the
                    # shared input is a plain parameter average.
                    w = mats[0]["weight"].copy()
                    for p in mats[1:]:
                        w += p["weight"]
                    w /= np.float32(k)
                    new_spec = LayerSpec(LayerKind.LINEAR, (fin, fout))
                else:
                    w = np.concatenate([p["weight"] for p in mats], axis=1) / np.float32(k)
                    new_spec = LayerSpec(LayerKind.LINEAR, (k * fin, fout))
                b = mats[0]["bias"].copy()
                for p in mats[1:]:
                    b += p["bias"]
                b /= np.float32(k)
            elif i == first:
                w = np.concatenate([p["weight"] for p in mats], axis=0)
                b = np.concatenate([p["bias"] for p in mats])
                new_spec = LayerSpec(LayerKind.LINEAR, (fin, k * fout))
                origins[i] = np.repeat(np.arange(k), fout)
            else:
                w = np.zeros((k * fout, k * fin), dtype=np.float32)
                for j, p in enumerate(mats):
                    w[j * fout : (j + 1) * fout, j * fin : (j + 1) * fin] = p["weight"]
                b = np.concatenate([p["bias"] for p in mats])
                new_spec = LayerSpec(LayerKind.LINEAR, (k * fin, k * fout))
                origins[i] = np.repeat(np.arange(k), fout)
            fused_params.append({"weight": np.ascontiguousarray(w), "bias": np.ascontiguousarray(b)})
            fused_specs.append(new_spec)
        elif spec.kind is LayerKind.CONV2D:
            cin, cout, kh, kw, stride, padding = spec.dims
            if i == first:
                w = np.concatenate([p["weight"] for p in mats], axis=0)
                new_spec = LayerSpec(LayerKind.CONV2D, (cin, k * cout, kh, kw, stride, padding))
            else:
                w = np.zeros((k * cout, k * cin, kh, kw), dtype=np.float32)
                for j, p in enumerate(mats):
                    w[j * cout : (j + 1) * cout, j * cin : (j + 1) * cin] = p["weight"]
                new_spec = LayerSpec(LayerKind.CONV2D, (k * cin, k * cout, kh, kw, stride, padding))
            b = np.concatenate([p["bias"] for p in mats])
            origins[i] = np.repeat(np.arange(k), cout)
            fused_params.append({"weight": np.ascontiguousarray(w), "bias": np.ascontiguousarray(b)})
            fused_specs.append(new_spec)
        elif spec.kind is LayerKind.BATCHNORM2D:
            fused_params.append(
                {key: np.concatenate([p[key] for p in mats]) for key in mats[0]})
            fused_specs.append(LayerSpec(LayerKind.BATCHNORM2D, (k * spec.dims[0],)))
        else:
            fused_params.append({})
            fused_specs.append(spec)
    fused = Network(fused_specs, fused_params, origins or None)
    check_specs(fused.specs)
    return fused


def _ranked_order(norms, origins):
    idx = np.arange(len(norms))
    member = origins if origins is not None else np.zeros(len(norms), dtype=np.int64)
    return np.lexsort((idx, member, -norms.astype(np.float64)))


def unit_norms(net, couplings, pos, include_bias=True):
    """The norm rule written out by hand: one float32 einsum over each member's
    block of the row (the columns or channels fed by the previous hidden
    layer's units of that origin label), the sums added in ascending member
    order, then the bias squared. The input layer and an unlabelled network
    take the full row."""
    c = couplings[pos]
    p = net.params[c.layer]
    w, b = p["weight"], p["bias"]
    labels = net.origins.get(couplings[pos - 1].layer) if pos and net.origins else None
    if labels is None:
        return row_l2_norms(w, b if include_bias else None)
    block = couplings[pos - 1].block
    sq = np.zeros(c.units, dtype=np.float32)
    for j in sorted(set(labels.tolist())):
        cols = [u * block + t for u in range(len(labels)) if labels[u] == j for t in range(block)]
        part = np.ascontiguousarray(w[:, cols]).reshape(c.units, -1)
        sq = sq + np.einsum("ij,ij->i", part, part)
    if include_bias:
        sq = sq + b * b
    return np.sqrt(sq)


def _resolve_keep(policy, couplings, net, include_bias):
    """Kept unit indices per hidden layer. A layer's member count k is its
    number of origin labels (1 without labels), and one member's width is
    its unit count // k: the default keeps that many jointly, `per_member`
    splits it evenly, the first width % k members keeping one more."""
    kept = []
    if policy.mode == "keep_counts" and len(policy.counts) != len(couplings):
        raise InvalidArg(f"need {len(couplings)} keep counts, got {len(policy.counts)}")
    for pos, c in enumerate(couplings):
        norms = unit_norms(net, couplings, pos, include_bias)
        origins = net.origins.get(c.layer) if net.origins else None
        k = int(origins.max()) + 1 if origins is not None else 1
        width = c.units // k
        if policy.mode == "per_member":
            if origins is None:
                raise InvalidArg("per-member pruning needs origin labels (fuse first)")
            members = [np.flatnonzero(origins == j) for j in range(k)]
            if len({len(mine) for mine in members}) != 1:
                raise InvalidArg(f"layer {c.layer}: members hold unequal unit counts")
            chosen = []
            for j, mine in enumerate(members):
                quota = width // k + (1 if j < width % k else 0)
                order = mine[np.lexsort((mine, -norms[mine].astype(np.float64)))]
                chosen.append(order[:quota])
            keep_idx = np.sort(np.concatenate(chosen))
        else:
            if policy.mode == "sparsity":
                keep = max(1, c.units - math.floor(policy.value * c.units))
            elif policy.mode == "keep_counts":
                keep = policy.counts[pos]
                if keep > c.units:
                    raise InvalidArg(f"keep count {keep} exceeds layer width {c.units}")
            else:
                keep = width
            if keep < 1:
                raise EmptyLayer(f"layer {c.layer} would keep {keep} units")
            keep_idx = np.sort(_ranked_order(norms, origins)[:keep])
        if len(keep_idx) < 1:
            raise EmptyLayer(f"layer {c.layer} would be emptied")
        kept.append(keep_idx)
    return kept


def magnitude_prune(net, policy, include_bias=True):
    couplings = hidden_couplings(net)
    kept = _resolve_keep(policy, couplings, net, include_bias)
    out = net.clone()
    for c, keep_idx in zip(couplings, kept):
        p = out.params[c.layer]
        p["weight"] = np.ascontiguousarray(p["weight"][keep_idx])
        p["bias"] = np.ascontiguousarray(p["bias"][keep_idx])
        spec = out.specs[c.layer]
        if spec.kind is LayerKind.LINEAR:
            out.specs[c.layer] = LayerSpec(spec.kind, (spec.dims[0], len(keep_idx)))
        else:
            d = spec.dims
            out.specs[c.layer] = LayerSpec(spec.kind, (d[0], len(keep_idx), *d[2:]))
        for bi in c.bn_layers:
            out.params[bi] = {k: np.ascontiguousarray(v[keep_idx])
                              for k, v in out.params[bi].items()}
            out.specs[bi] = LayerSpec(LayerKind.BATCHNORM2D, (len(keep_idx),))
        nxt = out.params[c.next_layer]
        nspec = out.specs[c.next_layer]
        if nspec.kind is LayerKind.LINEAR:
            cols = np.concatenate(
                [np.arange(u * c.block, (u + 1) * c.block) for u in keep_idx])
            nxt["weight"] = np.ascontiguousarray(nxt["weight"][:, cols])
            out.specs[c.next_layer] = LayerSpec(
                nspec.kind, (len(cols), nspec.dims[1]))
        else:
            nxt["weight"] = np.ascontiguousarray(nxt["weight"][:, keep_idx, :, :])
            d = nspec.dims
            out.specs[c.next_layer] = LayerSpec(nspec.kind, (len(keep_idx), *d[1:]))
        if out.origins is not None and c.layer in out.origins:
            out.origins[c.layer] = out.origins[c.layer][keep_idx]
    check_specs(out.specs)
    return out


def prune_to_architecture(big, reference):
    """Prune to the reference's hidden widths (shape checks left out)."""
    counts = [c.units for c in hidden_couplings(reference)]
    return magnitude_prune(big, KeepPolicy.keep_counts(counts))


def _pairwise_reduce(a, b, reference):
    big = concat_fuse(EnsembleBundle([a, b]))
    return prune_to_architecture(big, reference)


def fuse_iterative(members):
    reference = members[0]
    result = members[0]
    for nxt in members[1:]:
        result = _pairwise_reduce(result, nxt, reference)
    return result


def fuse_recursive(members):
    reference = members[0]

    def reduce(ms):
        if len(ms) == 1:
            return ms[0]
        mid = math.ceil(len(ms) / 2)
        return _pairwise_reduce(reduce(ms[:mid]), reduce(ms[mid:]), reference)

    return reduce(members)


def two_walk_couplings(net):
    """`hidden_couplings` as it was before `check_specs` built the couplings
    in its own walk: validate, then walk the chain again from each hidden
    unit layer to the next."""
    check_specs(net.specs)
    param_idx = [i for i, s in enumerate(net.specs) if s.kind in UNIT_KINDS]
    out = []
    for pos, li in enumerate(param_idx[:-1]):
        spec = net.specs[li]
        nxt = param_idx[pos + 1]
        bn: list[int] = []
        saw_flatten = False
        for j in range(li + 1, nxt):
            if net.specs[j].kind is LayerKind.BATCHNORM2D:
                bn.append(j)
            elif net.specs[j].kind is LayerKind.FLATTEN:
                saw_flatten = True
        units = spec.dims[1]
        nspec = net.specs[nxt]
        if nspec.kind is LayerKind.LINEAR:
            block = nspec.dims[0] // units if saw_flatten else 1
            if nspec.dims[0] != units * block:
                raise ShapeMismatch(
                    f"layer {nxt}: {nspec.dims[0]} columns not partitioned by {units} units")
            out.append(LayerCoupling(li, units, tuple(bn), nxt, block))
        else:
            if nspec.dims[0] != units:
                raise ShapeMismatch(f"layer {nxt}: conv wants {nspec.dims[0]} channels, gets {units}")
            out.append(LayerCoupling(li, units, tuple(bn), nxt, 1))
    return out


def permute_units(net, layer_index, order):
    """Reorder one hidden layer's units, so the network computes the same
    function: copy the network, then reindex the layer's rows, bias, BN
    channels, origin labels and the next layer's column blocks or channels by
    hand."""
    order = np.asarray(order, dtype=np.int64)
    matching = [c for c in hidden_couplings(net) if c.layer == layer_index]
    if not matching:
        raise InvalidArg(f"layer {layer_index} is not a hidden unit layer")
    c = matching[0]
    if sorted(order.tolist()) != list(range(c.units)):
        raise InvalidArg("order must be a permutation of the layer's units")
    out = net.clone()
    p = out.params[c.layer]
    p["weight"] = np.ascontiguousarray(p["weight"][order])
    p["bias"] = np.ascontiguousarray(p["bias"][order])
    for bi in c.bn_layers:
        out.params[bi] = {k: np.ascontiguousarray(v[order]) for k, v in out.params[bi].items()}
    np_ = out.params[c.next_layer]
    if net.specs[c.next_layer].kind is LayerKind.LINEAR:
        cols = np.concatenate([np.arange(u * c.block, (u + 1) * c.block) for u in order])
        np_["weight"] = np.ascontiguousarray(np_["weight"][:, cols])
    else:
        np_["weight"] = np.ascontiguousarray(np_["weight"][:, order, :, :])
    if out.origins is not None and layer_index in out.origins:
        out.origins[layer_index] = out.origins[layer_index][order]
    return out


def align_average(a, *others):
    """`align_average` as it was before it permuted once through the gather,
    with one anchor: permute each other network's layers one at a time toward
    `a`, reading each layer's rows from the network permuted so far, then
    average `a` and the aligned networks in member order."""
    members = [a]
    for aligned in others:
        for coupling in hidden_couplings(a):
            rows_a = a.params[coupling.layer]["weight"].reshape(coupling.units, -1)
            rows_b = aligned.params[coupling.layer]["weight"].reshape(coupling.units, -1)
            rows_a, rows_b = rows_a.astype(np.float64), rows_b.astype(np.float64)
            sq_a = (rows_a * rows_a).sum(axis=1)[:, None]
            sq_b = (rows_b * rows_b).sum(axis=1)[None, :]
            cost = sq_a + sq_b - 2.0 * rows_a @ rows_b.T
            _, order = linear_sum_assignment(cost)
            aligned = permute_units(aligned, coupling.layer, order)
        members.append(aligned)
    return vanilla_average(EnsembleBundle(members))


def transplant_fraction(recipient, donor, p):
    """`fusion.transplant_fraction` entry by entry. Per hidden layer the
    weakest round(p*N) recipient units are slots and the strongest round(p*N)
    donor units move in, both paired in ascending index order (stable sorts:
    ties by index). A weight whose row unit or input unit is a slot comes from
    the donor, at the donor unit placed in each slot and at the same position
    otherwise; every other weight is the recipient's. Biases and BN channels
    follow their slot."""
    couplings = hidden_couplings(recipient)
    place = {}  # unit layer -> {slot: donor unit}
    for c in couplings:
        t = int(round(p * c.units))
        norms_r = row_l2_norms(recipient.params[c.layer]["weight"],
                               recipient.params[c.layer]["bias"])
        norms_d = row_l2_norms(donor.params[c.layer]["weight"], donor.params[c.layer]["bias"])
        slots = sorted(np.argsort(norms_r, kind="stable")[:t].tolist())
        donors = sorted(np.argsort(-norms_d, kind="stable")[:t].tolist())
        place[c.layer] = dict(zip(slots, donors))
    fed_by = {c.next_layer: c for c in couplings}
    out = recipient.clone()
    out.origins = None
    for i, params in enumerate(out.params):
        if "weight" not in params or out.specs[i].kind is LayerKind.BATCHNORM2D:
            continue
        rows = place.get(i, {})
        feed = fed_by.get(i)
        cols = place[feed.layer] if feed is not None else {}
        block = feed.block if feed is not None else 1
        w, src = params["weight"], donor.params[i]["weight"]
        for r in range(w.shape[0]):
            for q in range(w.shape[1]):
                unit, offset = divmod(q, block)
                if unit in cols:
                    w[r, q] = src[rows.get(r, r), cols[unit] * block + offset]
                elif r in rows:
                    w[r, q] = src[rows[r], q]
        for r, d in rows.items():
            params["bias"][r] = donor.params[i]["bias"][d]
    for c in couplings:
        for bi in c.bn_layers:
            for key, v in out.params[bi].items():
                for slot, d in place[c.layer].items():
                    v[slot] = donor.params[bi][key][d]
    return out


def distill(student, teachers, train_ds, test_ds, cfg, kd):
    """`training.distill` with every teacher run on every batch of every
    epoch: the per-batch path the teacher-logit cache replaced."""
    members = list(teachers.members) if hasattr(teachers, "members") else list(teachers)

    def step(n, bx, by, rows):
        t_logits = training.average_logits(members, bx)
        return network.backward(n, bx, loss_fn(by, "kd", t_logits, kd))

    return training._fit(student, train_ds, test_ds, cfg, step)


def assert_same_network(got, want):
    """Specs, parameter dtypes, shapes and bytes, and origins all equal."""
    assert got.specs == want.specs
    assert len(got.params) == len(want.params)
    for i, (pg, pw) in enumerate(zip(got.params, want.params)):
        assert pg.keys() == pw.keys(), f"layer {i}"
        for key in pg:
            a, b = pg[key], pw[key]
            assert a.dtype == b.dtype and a.shape == b.shape, f"layer {i} {key}"
            assert a.tobytes() == b.tobytes(), f"layer {i} {key} differs"
    assert (got.origins is None) == (want.origins is None)
    if got.origins is not None:
        assert got.origins.keys() == want.origins.keys()
        for layer in got.origins:
            np.testing.assert_array_equal(got.origins[layer], want.origins[layer])
