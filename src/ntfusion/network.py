"""Sequential networks: layer specs, parameters, passes, and unit couplings.

A network is an ordered list of layer specs plus a parallel list of parameter
dicts. Supported layer kinds are Linear, Conv2D, BatchNorm2D, MaxPool2D,
Flatten, and ReLU, composed as a pure chain that ends in a Linear
classification head. Residual or branching graphs are rejected at
construction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Literal, Optional

import numpy as np

from . import layers
from .errors import ShapeMismatch, UnsupportedTopology, InvalidArg
from .tensor import Array, RngStream, conv2d

Mode = Literal["train", "eval"]


class LayerKind(str, Enum):
    LINEAR = "linear"
    CONV2D = "conv2d"
    BATCHNORM2D = "batchnorm2d"
    MAXPOOL2D = "maxpool2d"
    FLATTEN = "flatten"
    RELU = "relu"


# Layer kinds that own prunable units (rows / filters).
UNIT_KINDS = (LayerKind.LINEAR, LayerKind.CONV2D)
# Canonical parameter order, also the checkpoint payload order.
PARAM_ORDER = {
    LayerKind.LINEAR: ("weight", "bias"),
    LayerKind.CONV2D: ("weight", "bias"),
    LayerKind.BATCHNORM2D: ("weight", "bias", "running_mean", "running_var"),
}


@dataclass(frozen=True)
class LayerSpec:
    """One layer's kind plus its kind-specific integer extents.

    dims by kind:
      linear      (in_features, out_features)
      conv2d      (in_channels, out_channels, kernel_h, kernel_w, stride, padding)
      batchnorm2d (channels,)
      maxpool2d   (window,)
      flatten/relu ()
    """

    kind: LayerKind
    dims: tuple[int, ...] = ()

    def as_dict(self) -> dict:
        return {"kind": self.kind.value, "dims": list(self.dims)}

    @staticmethod
    def from_dict(d: dict) -> "LayerSpec":
        return LayerSpec(LayerKind(d["kind"]), tuple(int(v) for v in d["dims"]))


def linear(in_features: int, out_features: int) -> LayerSpec:
    return LayerSpec(LayerKind.LINEAR, (in_features, out_features))


def conv(in_channels: int, out_channels: int, kernel: int | tuple[int, int],
         stride: int = 1, padding: int = 0) -> LayerSpec:
    kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
    return LayerSpec(LayerKind.CONV2D, (in_channels, out_channels, kh, kw, stride, padding))


def batchnorm(channels: int) -> LayerSpec:
    return LayerSpec(LayerKind.BATCHNORM2D, (channels,))


def maxpool(window: int) -> LayerSpec:
    return LayerSpec(LayerKind.MAXPOOL2D, (window,))


def flatten() -> LayerSpec:
    return LayerSpec(LayerKind.FLATTEN, ())


def relu() -> LayerSpec:
    return LayerSpec(LayerKind.RELU, ())


@dataclass(frozen=True)
class LayerCoupling:
    """Structural links of one hidden unit layer, the parts that move together
    when a unit is transplanted, pruned or gathered: unit i owns row i of
    `layer`, channel i of each of `bn_layers`, and input columns
    [i*block, (i+1)*block) of `next_layer`. `block` > 1 only when a Flatten of
    a conv's channels sits in between; a Conv2D next layer gives block 1.
    """

    layer: int
    units: int
    bn_layers: tuple[int, ...]
    next_layer: int
    block: int


def check_specs(specs: list[LayerSpec]) -> list[LayerCoupling]:
    """Validate a sequential chain; raises on anything fusion cannot handle.

    Returns the chain's unit couplings, one per hidden (non-head)
    Linear/Conv2D layer in order, built in the same walk.
    """
    if not specs:
        raise UnsupportedTopology("empty layer list")
    for s in specs:
        if any(d < 0 for d in s.dims):
            raise InvalidArg(f"negative extent in {s}")
    param_idx = [i for i, s in enumerate(specs) if s.kind in UNIT_KINDS]
    if not param_idx:
        raise UnsupportedTopology("network has no parameterized layers")
    if specs[param_idx[-1]].kind is not LayerKind.LINEAR:
        raise UnsupportedTopology("last parameterized layer must be Linear")
    if param_idx[-1] != len(specs) - 1:
        raise UnsupportedTopology("layers after the Linear head are not supported")

    domain = "start"  # start -> channels (conv side) -> flat (after flatten / linear)
    channels = None
    features = None
    couplings: list[LayerCoupling] = []
    unit_layer, bn = None, []  # the open coupling
    for i, s in enumerate(specs):
        if s.kind is LayerKind.CONV2D:
            cin, cout, kh, kw, stride, padding = s.dims
            if min(cin, cout, kh, kw, stride) < 1:
                raise InvalidArg(f"bad conv dims {s.dims}")
            if domain == "flat":
                raise UnsupportedTopology("conv after flatten is not supported")
            if domain == "channels" and channels != cin:
                raise ShapeMismatch(f"layer {i}: conv expects {cin} channels, gets {channels}")
            channels, domain = cout, "channels"
        elif s.kind is LayerKind.BATCHNORM2D:
            if domain != "channels":
                raise UnsupportedTopology("batchnorm2d requires a preceding conv layer")
            if s.dims[0] != channels:
                raise ShapeMismatch(f"layer {i}: batchnorm on {s.dims[0]} channels, gets {channels}")
            bn.append(i)
        elif s.kind is LayerKind.MAXPOOL2D:
            if domain != "channels":
                raise UnsupportedTopology("maxpool2d requires channel-shaped input")
            if s.dims[0] < 1:
                raise InvalidArg("pool window must be >= 1")
        elif s.kind is LayerKind.FLATTEN:
            if domain == "channels":
                domain, features = "flat", None  # c*h*w, known only at forward time
            else:
                domain = "flat" if domain == "start" else domain
        elif s.kind is LayerKind.LINEAR:
            fin, fout = s.dims
            if min(fin, fout) < 1:
                raise InvalidArg(f"bad linear dims {s.dims}")
            if domain == "channels":
                raise UnsupportedTopology("linear after conv requires an explicit flatten")
            if domain == "flat" and features is not None and features != fin:
                raise ShapeMismatch(f"layer {i}: linear expects {fin} features, gets {features}")
            if domain == "flat" and features is None and channels is not None and fin % channels != 0:
                raise ShapeMismatch(
                    f"layer {i}: {fin} inputs not divisible by {channels} flattened channels")
            domain, features = "flat", fout
        if s.kind in UNIT_KINDS:
            if unit_layer is not None:
                # The checks above leave fan-in == units, or a multiple of the
                # units when a Flatten of conv channels came in between.
                units = specs[unit_layer].dims[1]
                couplings.append(LayerCoupling(unit_layer, units, tuple(bn), i, s.dims[0] // units))
            unit_layer, bn = i, []
    return couplings


@dataclass
class Network:
    """Layer specs plus parameters; `origins` optionally labels each hidden
    unit with the ensemble member it came from (set by fusion)."""

    specs: list[LayerSpec]
    params: list[dict[str, Array]]
    origins: Optional[dict[int, np.ndarray]] = field(default=None, repr=False)

    @property
    def arch_id(self) -> str:
        blob = json.dumps([s.as_dict() for s in self.specs], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def clone(self) -> "Network":
        origins = None
        if self.origins is not None:
            origins = {k: v.copy() for k, v in self.origins.items()}
        return Network(
            list(self.specs),
            [{k: v.copy() for k, v in p.items()} for p in self.params],
            origins,
        )

    def num_bytes(self) -> int:
        return sum(v.nbytes for p in self.params for v in p.values())


def param_shapes(spec: LayerSpec) -> list[tuple[str, tuple[int, ...]]]:
    """(key, shape) of each parameter of a layer, in `PARAM_ORDER`."""
    if spec.kind is LayerKind.LINEAR:
        fin, fout = spec.dims
        return [("weight", (fout, fin)), ("bias", (fout,))]
    if spec.kind is LayerKind.CONV2D:
        cin, cout, kh, kw, _, _ = spec.dims
        return [("weight", (cout, cin, kh, kw)), ("bias", (cout,))]
    return [(key, spec.dims[:1]) for key in PARAM_ORDER.get(spec.kind, ())]  # batchnorm: (c,)


# BatchNorm starts as the identity: unit scale and variance, zero shift and mean.
_BN_INIT = {"weight": 1.0, "bias": 0.0, "running_mean": 0.0, "running_var": 1.0}


def _init_layer(spec: LayerSpec, rng: RngStream) -> dict[str, Array]:
    """Weights then bias drawn uniform in +-1/sqrt(fan-in), in that order."""
    shapes = param_shapes(spec)
    if spec.kind is LayerKind.BATCHNORM2D:
        return {key: np.full(shape, _BN_INIT[key], dtype=np.float32) for key, shape in shapes}
    if not shapes:
        return {}
    bound = 1.0 / np.sqrt(np.prod(shapes[0][1][1:]))  # fan-in: every weight axis but the first
    return {key: rng.uniform(shape, -bound, bound) for key, shape in shapes}


def init_network(specs: list[LayerSpec], rng: RngStream) -> Network:
    """Build a network with fan-in-scaled uniform init, one child stream per layer."""
    check_specs(specs)
    params = [_init_layer(s, rng.split(f"layer-{i}")) for i, s in enumerate(specs)]
    return Network(list(specs), params)


def _layer_forward(spec: LayerSpec, p: dict[str, Array], x: Array, mode: Mode, *,
                   keep: bool = True, overwrite_x: bool = False):
    """(out, cache) of one layer. Without `keep` no backward follows, and a
    conv runs through `tensor.conv2d` with no cache; `overwrite_x` lets
    BatchNorm and ReLU write their output into x's buffer."""
    k = spec.kind
    if k is LayerKind.LINEAR:
        return layers.linear_forward(x, p["weight"], p["bias"])
    if k is LayerKind.CONV2D:
        if keep:
            return layers.conv_forward(x, p["weight"], p["bias"], spec.dims[4], spec.dims[5])
        out = conv2d(x, p["weight"], spec.dims[4], spec.dims[5])
        out += p["bias"].reshape(1, -1, 1, 1)
        return out, None
    if k is LayerKind.BATCHNORM2D:
        return layers.bn_forward(x, p["weight"], p["bias"], p["running_mean"],
                                 p["running_var"], mode, overwrite_x=overwrite_x)
    if k is LayerKind.MAXPOOL2D:
        return layers.maxpool_forward(x, spec.dims[0])
    if k is LayerKind.FLATTEN:
        return layers.flatten_forward(x)
    return layers.relu_forward(x, overwrite_x=overwrite_x)


def forward_cached(net: Network, batch: Array, mode: Mode = "eval"):
    """Run the chain and keep every layer's cache for `backprop`."""
    x = np.ascontiguousarray(batch, dtype=np.float32)
    caches = []
    for spec, p in zip(net.specs, net.params):
        x, cache = _layer_forward(spec, p, x, mode)
        caches.append(cache)
    return x, caches


def forward(net: Network, batch: Array, mode: Mode = "eval") -> Array:
    """Run the chain and return logits (batch_size x num_classes).

    No cache is kept, so each activation lives only until the next layer
    has read it. A conv unfolds its input a slice of rows at a time
    (`tensor.conv2d`), and BatchNorm and ReLU write their output into their
    input's buffer when this pass allocated it: never into `batch` or a
    view of it, such as a leading Flatten's output. The logits are
    bit-identical to `forward_cached`'s.
    """
    x = np.ascontiguousarray(batch, dtype=np.float32)
    owned = False
    for spec, p in zip(net.specs, net.params):
        x = _layer_forward(spec, p, x, mode, keep=False, overwrite_x=owned)[0]
        owned = owned or spec.kind is not LayerKind.FLATTEN
    return x


def backprop(net: Network, caches: list, dlogits: Array) -> list[dict[str, Array]]:
    """Chain-rule pass from a logits gradient down to per-parameter grads.

    The pass stops at the first layer with parameters: its input gradient
    is not computed, since no earlier layer reads it. Every gradient after
    `dlogits` is a buffer this pass allocated, so ReLU and BatchNorm write
    their input gradient into it instead of into a new one; `dlogits` itself
    is only read. Each layer's cache is popped off `caches` as its backward
    runs, so it is freed once used, and `caches` is left empty.
    """
    grads: list[dict[str, Array]] = [{} for _ in net.specs]
    first = min(i for i, s in enumerate(net.specs) if s.kind in PARAM_ORDER)
    dx = dlogits
    for i in range(len(net.specs) - 1, first - 1, -1):
        k = net.specs[i].kind
        owned = dx is not dlogits
        if k is LayerKind.LINEAR:
            dx, dw, db = layers.linear_backward(dx, caches.pop(), input_grad=i > first)
            grads[i] = {"weight": dw, "bias": db}
        elif k is LayerKind.CONV2D:
            dx, dw, db = layers.conv_backward(dx, caches.pop(), input_grad=i > first)
            grads[i] = {"weight": dw, "bias": db}
        elif k is LayerKind.BATCHNORM2D:
            dx, dw, db = layers.bn_backward(dx, caches.pop(), overwrite_dout=owned)
            grads[i] = {"weight": dw, "bias": db}
        elif k is LayerKind.MAXPOOL2D:
            dx = layers.maxpool_backward(dx, caches.pop())
        elif k is LayerKind.FLATTEN:
            dx = layers.flatten_backward(dx, caches.pop())
        else:
            dx = layers.relu_backward(dx, caches.pop(), overwrite_dout=owned)
    caches.clear()
    return grads


def backward(net: Network, batch: Array, loss, mode: Mode = "train"):
    """Forward + loss + backprop; returns (loss_value, per-layer grads).

    `loss(logits)` gives (value, dlogits): a loss of `losses` bound to the
    batch's targets. BN layers see batch statistics when mode is "train".
    """
    logits, caches = forward_cached(net, batch, mode)
    value, dlogits = loss(logits)
    return value, backprop(net, caches, dlogits)


def hidden_couplings(net: Network) -> list[LayerCoupling]:
    """One coupling per hidden (non-head) Linear/Conv2D layer, in order."""
    return check_specs(net.specs)
