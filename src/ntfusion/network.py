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

from . import layers, losses
from .errors import ShapeMismatch, UnsupportedTopology, InvalidArg
from .tensor import Array, RngStream

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


def check_specs(specs: list[LayerSpec]) -> None:
    """Validate a sequential chain; raises on anything fusion cannot handle."""
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


def _init_layer(spec: LayerSpec, rng: RngStream) -> dict[str, Array]:
    if spec.kind is LayerKind.LINEAR:
        fin, fout = spec.dims
        bound = 1.0 / np.sqrt(fin)
        return {"weight": rng.uniform((fout, fin), -bound, bound),
                "bias": rng.uniform((fout,), -bound, bound)}
    if spec.kind is LayerKind.CONV2D:
        cin, cout, kh, kw, _, _ = spec.dims
        bound = 1.0 / np.sqrt(cin * kh * kw)
        return {"weight": rng.uniform((cout, cin, kh, kw), -bound, bound),
                "bias": rng.uniform((cout,), -bound, bound)}
    if spec.kind is LayerKind.BATCHNORM2D:
        c = spec.dims[0]
        return {"weight": np.ones(c, dtype=np.float32),
                "bias": np.zeros(c, dtype=np.float32),
                "running_mean": np.zeros(c, dtype=np.float32),
                "running_var": np.ones(c, dtype=np.float32)}
    return {}


def init_network(specs: list[LayerSpec], rng: RngStream) -> Network:
    """Build a network with fan-in-scaled uniform init, one child stream per layer."""
    check_specs(specs)
    params = [_init_layer(s, rng.split(f"layer-{i}")) for i, s in enumerate(specs)]
    return Network(list(specs), params)


def _layer_forward(spec: LayerSpec, p: dict[str, Array], x: Array, mode: Mode):
    k = spec.kind
    if k is LayerKind.LINEAR:
        return layers.linear_forward(x, p["weight"], p["bias"])
    if k is LayerKind.CONV2D:
        return layers.conv_forward(x, p["weight"], p["bias"], spec.dims[4], spec.dims[5])
    if k is LayerKind.BATCHNORM2D:
        return layers.bn_forward(x, p["weight"], p["bias"], p["running_mean"],
                                 p["running_var"], mode)
    if k is LayerKind.MAXPOOL2D:
        return layers.maxpool_forward(x, spec.dims[0])
    if k is LayerKind.FLATTEN:
        return layers.flatten_forward(x)
    return layers.relu_forward(x)


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

    Each layer's cache is dropped as soon as the layer returns; only
    `forward_cached` keeps them.
    """
    x = np.ascontiguousarray(batch, dtype=np.float32)
    for spec, p in zip(net.specs, net.params):
        x = _layer_forward(spec, p, x, mode)[0]
    return x


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


def backward(net: Network, batch: Array, targets, loss: str = "cross_entropy",
             mode: Mode = "train", teacher_logits: Optional[Array] = None,
             kd_cfg=None):
    """Forward + loss + backprop; returns (loss_value, per-layer grads).

    `loss` is "cross_entropy" or "kd"; the KD variant needs teacher logits
    and a KdConfig. BN layers see batch statistics when mode is "train".
    """
    logits, caches = forward_cached(net, batch, mode)
    if loss == "cross_entropy":
        value, dlogits = losses.cross_entropy(logits, targets)
    elif loss == "kd":
        if teacher_logits is None or kd_cfg is None:
            raise InvalidArg("kd loss needs teacher_logits and kd_cfg")
        value, dlogits = losses.kd(logits, teacher_logits, targets,
                                   kd_cfg.temperature, kd_cfg.soft_weight,
                                   kd_cfg.hard_weight)
    else:
        raise InvalidArg(f"unknown loss {loss!r}")
    return value, backprop(net, caches, dlogits)


@dataclass(frozen=True)
class LayerCoupling:
    """Structural links of one hidden unit layer.

    mode "columns": next layer is Linear, each unit owns `block` consecutive
    input columns (block > 1 when a Flatten sits in between). mode "channel":
    next layer is Conv2D and each unit owns one input channel.
    """

    layer: int
    units: int
    bn_layers: tuple[int, ...]
    next_layer: int
    mode: str
    block: int


def hidden_couplings(net: Network) -> list[LayerCoupling]:
    """One coupling per hidden (non-head) Linear/Conv2D layer, in order."""
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
            out.append(LayerCoupling(li, units, tuple(bn), nxt, "columns", block))
        else:
            if nspec.dims[0] != units:
                raise ShapeMismatch(f"layer {nxt}: conv wants {nspec.dims[0]} channels, gets {units}")
            out.append(LayerCoupling(li, units, tuple(bn), nxt, "channel", 1))
    return out
