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
from collections.abc import Sequence

import numpy as np

from .errors import BadMagic, CorruptHeader, PayloadLengthMismatch, VersionUnsupported
from .network import LayerSpec, Network, PARAM_ORDER, check_specs, hidden_couplings, param_shapes

MAGIC_PREFIX = b"NTCKPT"
VERSION = b"1"
MAGIC = MAGIC_PREFIX + VERSION + b"\x00"


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
                fh.write(np.ascontiguousarray(params[key], dtype="<f4").data)  # no copy


def _read_header(fh, path) -> tuple[dict, list[LayerSpec], list, int]:
    """Check an open checkpoint's magic, version, header and payload length
    and leave `fh` at the payload; returns (header, layer specs, each layer's
    parameter shapes, parameter count). No payload byte is read."""
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
    if Network(specs, []).arch_id != arch_id:  # the id depends on the layer list alone
        raise PayloadLengthMismatch(f"{path}: header arch_id does not match the layer list")
    shapes = [param_shapes(s) for s in specs]
    count = sum(int(np.prod(shape)) for layer in shapes for _, shape in layer)
    payload_len = size - 12 - header_len
    if payload_len != count * 4:
        raise PayloadLengthMismatch(
            f"{path}: payload {payload_len} bytes, architecture implies {count * 4}")
    return header, specs, shapes, count


def load_checkpoint(path) -> tuple[Network, dict]:
    """Read a checkpoint; returns (network, header dict).

    The header is checked first, sizes against the file size included, so
    nothing is allocated for a bad file. The payload is then read once,
    straight into one float32 array, and the parameters are views of it.
    """
    with open(path, "rb") as fh:
        header, specs, shapes, count = _read_header(fh, path)
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
    if "origins" in header:
        net.origins = _read_origins(header["origins"], net, path)
    return net, header


class CheckpointSequence(Sequence[Network]):
    """The networks of checkpoint files as a read-only sequence: reading an
    item loads its file, a slice is the sequence of fewer files, and nothing
    is cached, so a member lives only while its reader holds it."""

    def __init__(self, paths) -> None:
        self.paths = tuple(paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CheckpointSequence(self.paths[index])
        return load_checkpoint(self.paths[index])[0]

    def arch_ids(self) -> list[str]:
        """Each file's architecture id, from its header checked as
        `load_checkpoint` checks it; no payload is read."""
        ids = []
        for path in self.paths:
            with open(path, "rb") as fh:
                ids.append(_read_header(fh, path)[0]["arch_id"])
        return ids


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
