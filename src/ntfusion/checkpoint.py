"""Single-file binary checkpoints: magic, JSON header, little-endian f32 payload.

Layout: 8 magic bytes "NTCKPT<version>\\0", a little-endian uint32 header
length, the UTF-8 JSON header, then every parameter tensor in layer order
(canonical key order per kind) as raw little-endian float32. Round trips are
bit-exact regardless of host endianness. A fused network's origin labels ride
in the header as `"origins": {layer: [member id, ...]}`; files without the key
load with `origins=None`.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import BadMagic, CorruptHeader, PayloadLengthMismatch, VersionUnsupported
from .network import LayerKind, LayerSpec, Network, PARAM_ORDER, check_specs, hidden_couplings

MAGIC_PREFIX = b"NTCKPT"
VERSION = b"1"
MAGIC = MAGIC_PREFIX + VERSION + b"\x00"


def _param_shapes(spec: LayerSpec) -> list[tuple[str, tuple[int, ...]]]:
    if spec.kind is LayerKind.LINEAR:
        fin, fout = spec.dims
        return [("weight", (fout, fin)), ("bias", (fout,))]
    if spec.kind is LayerKind.CONV2D:
        cin, cout, kh, kw, _, _ = spec.dims
        return [("weight", (cout, cin, kh, kw)), ("bias", (cout,))]
    if spec.kind is LayerKind.BATCHNORM2D:
        c = spec.dims[0]
        return [(key, (c,)) for key in PARAM_ORDER[LayerKind.BATCHNORM2D]]
    return []


def save_checkpoint(net: Network, path, meta: dict | None = None) -> None:
    """Write the network plus optional metadata (seed, epoch, metrics...)."""
    header = {
        "arch": [s.as_dict() for s in net.specs],
        "arch_id": net.arch_id,
        "meta": meta or {},
    }
    if net.origins is not None:
        header["origins"] = {str(layer): labels.tolist() for layer, labels in net.origins.items()}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for spec, params in zip(net.specs, net.params):
            for key in PARAM_ORDER.get(spec.kind, ()):
                fh.write(np.ascontiguousarray(params[key], dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[Network, dict]:
    """Read a checkpoint; returns (network, header dict).

    The payload is read once, straight into one float32 array, and the
    parameters are views of it; sizes are checked against the file size
    before anything is allocated.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(len(MAGIC) + 4)
        if len(lead) < len(MAGIC) + 4 or not lead.startswith(MAGIC_PREFIX):
            raise BadMagic(f"{path}: not a checkpoint file")
        version = lead[len(MAGIC_PREFIX) : len(MAGIC)]
        if version != VERSION + b"\x00":
            raise VersionUnsupported(f"{path}: unsupported checkpoint version {version!r}")
        (header_len,) = struct.unpack("<I", lead[8:12])
        if size < 12 + header_len:
            raise PayloadLengthMismatch(f"{path}: header cut short")
        header_bytes = fh.read(header_len)
        try:
            header = json.loads(header_bytes.decode())
            specs = [LayerSpec.from_dict(d) for d in header["arch"]]
            arch_id = header["arch_id"]
            check_specs(specs)  # a dims list of the wrong length fails in here
        except (ValueError, KeyError, TypeError, IndexError) as exc:  # bad UTF-8 or JSON: ValueError
            raise CorruptHeader(f"{path}: unreadable checkpoint header ({exc!r})") from exc
        shapes = [_param_shapes(s) for s in specs]
        count = sum(int(np.prod(shape)) for layer in shapes for _, shape in layer)
        payload_len = size - 12 - header_len
        if payload_len != count * 4:
            raise PayloadLengthMismatch(
                f"{path}: payload {payload_len} bytes, architecture implies {count * 4}")
        flat = np.empty(count, dtype="<f4")
        if fh.readinto(flat) != count * 4:
            raise PayloadLengthMismatch(f"{path}: payload cut short while reading")
    flat = flat.astype(np.float32, copy=False)  # converts only on big-endian hosts

    params: list[dict] = []
    offset = 0
    for layer in shapes:
        p = {}
        for key, shape in layer:
            n = int(np.prod(shape))
            p[key] = flat[offset : offset + n].reshape(shape)
            offset += n
        params.append(p)
    net = Network(specs, params)
    if net.arch_id != arch_id:
        raise PayloadLengthMismatch(f"{path}: header arch_id does not match the layer list")
    if "origins" in header:
        net.origins = _read_origins(header["origins"], net, path)
    return net, header


def _read_origins(doc, net: Network, path) -> dict[int, np.ndarray]:
    """Header origins: per hidden unit layer, one member id in [0, 2**31) per unit."""
    if not isinstance(doc, dict):
        raise CorruptHeader(f"{path}: header origins must be an object")
    widths = {str(c.layer): c.units for c in hidden_couplings(net)}
    for layer, labels in doc.items():
        if (layer not in widths or not isinstance(labels, list) or len(labels) != widths[layer]
                or not all(type(v) is int and 0 <= v < 2**31 for v in labels)):
            raise CorruptHeader(f"{path}: origins of layer {layer!r} must be one member id "
                                "per unit of a hidden unit layer")
    return {int(layer): np.array(labels, dtype=np.int64) for layer, labels in doc.items()}
