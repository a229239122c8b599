"""Dataset ingestion (IDX, CSV, synthetic blobs), splits, and seeded batching."""

from __future__ import annotations

import csv
import io
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadMagic, CountMismatch, InvalidArg, TruncatedFile
from .tensor import Array, RngStream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass
class Dataset:
    features: Array
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise CountMismatch(
                f"{self.features.shape[0]} samples vs {self.labels.shape[0]} labels")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise InvalidArg(f"labels outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(np.ascontiguousarray(self.features[idx]), self.labels[idx],
                       self.num_classes)


@dataclass(frozen=True)
class BatchPlan:
    batch_size: int
    shuffle_seed: int = 0
    drop_last: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise InvalidArg("batch_size must be >= 1")


def _read_idx_header(blob: bytes, path, expected_magic: int, ndims: int):
    if len(blob) < 4 * (1 + ndims):
        raise TruncatedFile(f"{path}: header cut short")
    magic = struct.unpack(">I", blob[:4])[0]
    if magic != expected_magic:
        raise BadMagic(f"{path}: magic 0x{magic:08X}, expected 0x{expected_magic:08X}")
    dims = struct.unpack(f">{ndims}I", blob[4 : 4 * (1 + ndims)])
    return dims, blob[4 * (1 + ndims) :]


def load_idx(images_path, labels_path, num_classes: int | None = None) -> Dataset:
    """Load a big-endian IDX image/label pair; pixels scaled to [0, 1]."""
    images_blob = Path(images_path).read_bytes()
    labels_blob = Path(labels_path).read_bytes()
    (n, rows, cols), body = _read_idx_header(images_blob, images_path, IDX_IMAGES_MAGIC, 3)
    if n == 0:
        raise InvalidArg(f"{images_path}: no images")
    if len(body) < n * rows * cols:
        raise TruncatedFile(f"{images_path}: want {n * rows * cols} pixels, have {len(body)}")
    pixels = np.frombuffer(body[: n * rows * cols], dtype=np.uint8)
    features = (pixels.astype(np.float32) / np.float32(255.0)).reshape(n, 1, rows, cols)
    (nl,), lbody = _read_idx_header(labels_blob, labels_path, IDX_LABELS_MAGIC, 1)
    if len(lbody) < nl:
        raise TruncatedFile(f"{labels_path}: want {nl} labels, have {len(lbody)}")
    if n != nl:
        raise CountMismatch(f"{n} images vs {nl} labels")
    labels = np.frombuffer(lbody[:nl], dtype=np.uint8).astype(np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return Dataset(features, labels, num_classes)


def load_csv(path, num_classes: int | None = None) -> Dataset:
    """CSV with an optional header row; the final column is the integer label.

    Text that is not UTF-8, a non-numeric cell, a value that is not a finite
    float32, a row whose width differs from the first data row's, or a
    label that is not a whole number in [0, 2**31) raises InvalidArg naming
    the path and line.
    """
    blob = Path(path).read_bytes()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise InvalidArg(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc
    features, labels = [], []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for i, row in enumerate(reader):
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if i == 0:
                try:
                    float(row[-1])
                except ValueError:
                    continue  # header row
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise InvalidArg(f"{where}: {exc}") from exc
            if not all(abs(v) <= _F32_MAX for v in values):  # NaN fails the test too
                raise InvalidArg(f"{where}: a value is not a finite float32")
            if features and len(values) != len(features[0]) + 1:
                raise InvalidArg(f"{where}: {len(values)} columns, the first data row has "
                                 f"{len(features[0]) + 1}")
            label = int(values[-1])
            if label != values[-1] or not 0 <= label < 2**31:
                raise InvalidArg(f"{where}: label {row[-1]!r} is not a class index")
            features.append(values[:-1])
            labels.append(label)
    except csv.Error as exc:
        raise InvalidArg(f"{path}:{reader.line_num}: {exc}") from exc
    if not features:
        raise InvalidArg(f"{path}: no data rows")
    features = np.array(features, dtype=np.float32)
    labels = np.array(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return Dataset(features, labels, num_classes)


def synth_blobs(n: int, classes: int, dim: int, spread: float, seed: int) -> Dataset:
    """Class-balanced Gaussian clusters around seeded random centers.

    Class counts differ by at most one; the sample order is a seeded
    permutation so naive prefix splits stay class-mixed.
    """
    if classes < 1 or n < classes:
        raise InvalidArg("need n >= classes >= 1")
    if dim < 1:
        raise InvalidArg("dim must be >= 1")
    if spread <= 0:
        raise InvalidArg("spread must be positive")
    rng = RngStream(seed, "synth_blobs")
    centers = rng.split("centers").normal((classes, dim))
    counts = [n // classes + (1 if c < n % classes else 0) for c in range(classes)]
    feats = []
    labels = []
    for c, count in enumerate(counts):
        noise = rng.split(f"class-{c}").normal((count, dim), std=spread)
        feats.append(centers[c] + noise)
        labels.append(np.full(count, c, dtype=np.int64))
    features = np.concatenate(feats).astype(np.float32)
    labels = np.concatenate(labels)
    order = rng.split("order").permutation(n)
    return Dataset(np.ascontiguousarray(features[order]), labels[order], classes)


def _glyph(kind: int, size: int) -> Array:
    """Binary glyph in a size x size box; ten distinct shape families."""
    g = np.zeros((size, size), dtype=np.float32)
    yy, xx = np.mgrid[0:size, 0:size]
    cy = cx = (size - 1) / 2.0
    r = size / 2.0
    dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    if kind == 0:  # square outline
        g[0, :] = g[-1, :] = g[:, 0] = g[:, -1] = 1.0
    elif kind == 1:  # filled disk
        g[dist <= r - 0.5] = 1.0
    elif kind == 2:  # plus
        g[int(cy), :] = 1.0
        g[:, int(cx)] = 1.0
    elif kind == 3:  # diagonal cross
        g[np.abs(yy - xx) <= 0.5] = 1.0
        g[np.abs(yy + xx - (size - 1)) <= 0.5] = 1.0
    elif kind == 4:  # horizontal stripes
        g[::2, :] = 1.0
    elif kind == 5:  # vertical stripes
        g[:, ::2] = 1.0
    elif kind == 6:  # lower triangle
        g[yy >= xx] = 1.0
    elif kind == 7:  # ring
        g[(dist <= r - 0.5) & (dist >= r / 2.0)] = 1.0
    elif kind == 8:  # center dot
        g[dist <= r / 2.5] = 1.0
    else:  # diamond outline
        g[np.abs(np.abs(yy - cy) + np.abs(xx - cx) - r / 1.4) <= 0.6] = 1.0
    return g


def synth_shapes(n: int, classes: int, image: int = 12, noise: float = 0.1,
                 seed: int = 0) -> Dataset:
    """Procedural glyph classification: each class is a shape family drawn at
    a random position and size with intensity jitter and pixel noise.

    An image-like stand-in for digit corpora: nonlinear, translation-variant,
    and hard enough that independently seeded models disagree.
    """
    if not 1 <= classes <= 10:
        raise InvalidArg("synth_shapes supports 1..10 classes")
    if n < classes:
        raise InvalidArg("need n >= classes")
    if image < 8:
        raise InvalidArg("image must be >= 8 pixels")
    rng = RngStream(seed, "synth_shapes")
    counts = [n // classes + (1 if c < n % classes else 0) for c in range(classes)]
    feats = np.zeros((n, 1, image, image), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    pos = 0
    for c, count in enumerate(counts):
        crng = rng.split(f"class-{c}")
        glyphs = {}  # size -> this class's glyph, drawn once
        for _ in range(count):
            size = int(crng.integers(max(5, image // 2 - 1), image - 1))
            oy = int(crng.integers(0, image - size + 1))
            ox = int(crng.integers(0, image - size + 1))
            intensity = float(crng.uniform((), 0.6, 1.0))
            if size not in glyphs:
                glyphs[size] = _glyph(c, size)
            img = np.zeros((image, image), dtype=np.float32)
            img[oy : oy + size, ox : ox + size] = glyphs[size] * np.float32(intensity)
            img += crng.normal((image, image), std=noise)
            feats[pos, 0] = np.clip(img, 0.0, 1.0)
            labels[pos] = c
            pos += 1
    order = rng.split("order").permutation(n)
    return Dataset(np.ascontiguousarray(feats[order]), labels[order], classes)


def train_test_split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    if not 0.0 < test_fraction < 1.0:
        raise InvalidArg("test_fraction must be in (0, 1)")
    n = len(ds)
    n_test = max(1, int(round(n * test_fraction)))
    order = RngStream(seed, "split").permutation(n)
    return ds.subset(order[n_test:]), ds.subset(order[:n_test])


def _batch_rows(n: int, plan: BatchPlan, epoch: int) -> Iterator[np.ndarray]:
    """Row indices of each batch of one epoch: a seeded shuffle of range(n)
    cut into batch_size slices, the last partial one kept unless drop_last."""
    order = RngStream(plan.shuffle_seed, f"shuffle/epoch-{epoch}").permutation(n)
    for start in range(0, n, plan.batch_size):
        idx = order[start : start + plan.batch_size]
        if plan.drop_last and len(idx) < plan.batch_size:
            return
        yield idx


def batches(ds: Dataset, plan: BatchPlan, epoch: int) -> Iterator[tuple[Array, np.ndarray]]:
    """Seeded per-epoch shuffle; every sample appears exactly once, the last
    partial batch is kept unless drop_last. Batches are gathered one at a
    time as the caller iterates."""
    for idx in _batch_rows(len(ds), plan, epoch):
        yield np.ascontiguousarray(ds.features[idx]), ds.labels[idx]
