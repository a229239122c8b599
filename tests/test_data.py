"""Dataset ingestion, synthetic generation, and batching tests."""

import hashlib
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntfusion.data import (
    BatchPlan,
    _batch_rows,
    batches,
    load_csv,
    load_idx,
    synth_blobs,
    synth_shapes,
    train_test_split,
)
from ntfusion.errors import BadMagic, CountMismatch, InvalidArg, NTError, TruncatedFile


def write_idx_pair(tmp_path, images, labels):
    """Hand-build IDX bytes for a (n, rows, cols) uint8 image stack."""
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols) +
                         images.astype(np.uint8).tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x00000801, n) +
                         np.asarray(labels, dtype=np.uint8).tobytes())
    return img_path, lab_path


class TestLoadIdx:
    def test_hand_built_pair(self, tmp_path):
        images = np.array([[[0, 255], [128, 64]], [[1, 2], [3, 4]]], dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [1, 0])
        ds = load_idx(img, lab)
        assert len(ds) == 2
        assert ds.features.shape == (2, 1, 2, 2)
        np.testing.assert_allclose(ds.features[0, 0], images[0] / 255.0, rtol=1e-6)
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_bad_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        img.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(BadMagic):
            load_idx(img, lab)

    def test_truncated_payload(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        img.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(TruncatedFile):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        lab = tmp_path / "short.idx"
        lab.write_bytes(struct.pack(">II", 0x00000801, 1) + b"\x00")
        with pytest.raises(CountMismatch):
            load_idx(img, lab)

    def test_zero_images_refused(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((0, 2, 2), np.uint8), [])
        with pytest.raises(InvalidArg, match="no images"):
            load_idx(img, lab)

    def test_round_trip_semantics(self, tmp_path):
        raw = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        img, lab = write_idx_pair(tmp_path, raw, [3, 7])
        ds = load_idx(img, lab)
        np.testing.assert_array_equal((ds.features[:, 0] * 255).round().astype(np.uint8), raw)

    # Bytes 0-15 are the images header (magic, n, rows, cols), 16-23 the
    # labels header (magic, n); pixels and labels past them may be any byte.
    @given(st.integers(0, 23), st.integers(0, 255))
    @settings(max_examples=300, deadline=None)
    def test_header_byte_fuzz_loads_or_raises_nterror(self, index, value):
        images = np.arange(3 * 2 * 2, dtype=np.uint8).reshape(3, 2, 2)
        with tempfile.TemporaryDirectory() as d:
            img, lab = write_idx_pair(Path(d), images, [0, 2, 1])
            target, at = (img, index) if index < 16 else (lab, index - 16)
            blob = bytearray(target.read_bytes())
            blob[at] = value
            target.write_bytes(bytes(blob))
            try:
                load_idx(img, lab)
            except NTError:
                pass

    def test_mnist_if_present(self):
        root = os.environ.get("NT_MNIST_DIR", "data/mnist")
        img = Path(root) / "t10k-images-idx3-ubyte"
        lab = Path(root) / "t10k-labels-idx1-ubyte"
        if not (img.exists() and lab.exists()):
            pytest.skip("MNIST test files not present")
        ds = load_idx(img, lab)
        assert len(ds) == 10000
        assert 0 <= ds.labels.min() and ds.labels.max() < 10


class TestSynthBlobs:
    def test_nearest_centroid_separable(self):
        ds = synth_blobs(100, 2, 2, 0.01, seed=1)
        centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(2)])
        d = ((ds.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        acc = (np.argmin(d, axis=1) == ds.labels).mean()
        assert acc >= 0.99

    def test_deterministic(self):
        a = synth_blobs(60, 3, 4, 0.5, seed=9)
        b = synth_blobs(60, 3, 4, 0.5, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_single_class(self):
        ds = synth_blobs(10, 1, 3, 1.0, seed=2)
        assert set(ds.labels.tolist()) == {0}

    @given(st.integers(2, 7), st.integers(10, 60))
    @settings(max_examples=20, deadline=None)
    def test_class_balance(self, classes, n):
        if n < classes:
            n = classes
        ds = synth_blobs(n, classes, 3, 1.0, seed=4)
        counts = np.bincount(ds.labels, minlength=classes)
        assert counts.max() - counts.min() <= 1

    def test_invalid_args(self):
        with pytest.raises(InvalidArg):
            synth_blobs(1, 2, 2, 1.0, seed=0)
        with pytest.raises(InvalidArg):
            synth_blobs(10, 2, 2, 0.0, seed=0)


class TestSynthShapes:
    def test_shapes_and_range(self):
        ds = synth_shapes(40, 8, image=12, noise=0.2, seed=3)
        assert ds.features.shape == (40, 1, 12, 12)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        assert ds.num_classes == 8

    def test_deterministic(self):
        a = synth_shapes(30, 5, image=10, noise=0.1, seed=11)
        b = synth_shapes(30, 5, image=10, noise=0.1, seed=11)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_fixed_call_digest(self):
        """The benchmark's dataset call, pinned byte for byte: each glyph is
        drawn once per call and reused, which must not move a pixel."""
        ds = synth_shapes(2000, 10, image=16, noise=0.1, seed=1)
        digest = hashlib.sha256(ds.features.tobytes() + ds.labels.tobytes()).hexdigest()
        assert digest[:16] == "ffc94838108a4ab8"

    def test_class_balance(self):
        ds = synth_shapes(43, 6, seed=4)
        counts = np.bincount(ds.labels, minlength=6)
        assert counts.max() - counts.min() <= 1

    def test_classes_learnable_by_template_matching(self):
        # Position/size jitter defeats exact templates by design, but the
        # nearest class-mean template must still beat chance (0.25) clearly.
        ds = synth_shapes(400, 4, image=12, noise=0.01, seed=7)
        flat = ds.features.reshape(len(ds), -1)
        means = np.stack([flat[ds.labels == c].mean(axis=0) for c in range(4)])
        d = ((flat[:, None] - means[None]) ** 2).sum(axis=2)
        assert (np.argmin(d, axis=1) == ds.labels).mean() >= 0.5

    def test_invalid_args(self):
        with pytest.raises(InvalidArg):
            synth_shapes(10, 11, seed=0)
        with pytest.raises(InvalidArg):
            synth_shapes(10, 2, image=4, seed=0)


class TestBatches:
    def setup_method(self):
        self.ds = synth_blobs(10, 2, 3, 1.0, seed=5)

    def test_sizes_keep_partial(self):
        plan = BatchPlan(batch_size=4, shuffle_seed=1)
        sizes = [len(b[1]) for b in batches(self.ds, plan, 0)]
        assert sizes == [4, 4, 2]

    def test_drop_last(self):
        plan = BatchPlan(batch_size=4, shuffle_seed=1, drop_last=True)
        sizes = [len(b[1]) for b in batches(self.ds, plan, 0)]
        assert sizes == [4, 4]

    def test_epochs_permute_but_cover(self):
        plan = BatchPlan(batch_size=4, shuffle_seed=1)
        flat = lambda epoch: np.concatenate(
            [b[0].reshape(len(b[1]), -1).sum(axis=1) for b in batches(self.ds, plan, epoch)])
        e0, e1 = flat(0), flat(1)
        assert not np.array_equal(e0, e1)
        np.testing.assert_allclose(np.sort(e0), np.sort(e1), rtol=1e-6)

    def test_replay_identical(self):
        plan = BatchPlan(batch_size=3, shuffle_seed=8)
        a = list(batches(self.ds, plan, 4))
        b = list(batches(self.ds, plan, 4))
        assert len(a) == len(b) == 4
        for (xa, ya), (xb, yb) in zip(a, b):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    @pytest.mark.parametrize("drop_last", [False, True])
    def test_batch_rows_index_the_batches(self, drop_last):
        plan = BatchPlan(batch_size=4, shuffle_seed=3, drop_last=drop_last)
        for epoch in range(3):
            pairs = list(batches(self.ds, plan, epoch))
            rows = list(_batch_rows(len(self.ds), plan, epoch))
            assert len(rows) == len(pairs) == (2 if drop_last else 3)
            for idx, (bx, by) in zip(rows, pairs):
                np.testing.assert_array_equal(bx, self.ds.features[idx])
                np.testing.assert_array_equal(by, self.ds.labels[idx])

    @given(st.integers(1, 12), st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_epoch_union_is_dataset(self, batch_size, epoch):
        plan = BatchPlan(batch_size=batch_size, shuffle_seed=2)
        labels = np.concatenate([b[1] for b in batches(self.ds, plan, epoch)])
        assert sorted(labels.tolist()) == sorted(self.ds.labels.tolist())


class TestCsvAndSplit:
    def test_csv_with_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,x2,label\n0.5,1.5,0\n-1.0,2.0,1\n", encoding="utf-8")
        ds = load_csv(p)
        assert len(ds) == 2
        np.testing.assert_allclose(ds.features, [[0.5, 1.5], [-1.0, 2.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_csv_without_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,1.5,0\n-1.0,2.0,1\n", encoding="utf-8")
        assert len(load_csv(p)) == 2

    @pytest.mark.parametrize("body,line,needle", [
        (b"x1,x2,label\n0.5,1.5,0\n0.5,abc,1\n", 3, "abc"),  # non-numeric cell
        (b"0.5,1.5,0\n-1.0,1\n", 2, "columns"),  # ragged row
        (b"0.5,1.5,0\n0.5,\xff,1\n", 2, "UTF-8"),  # not UTF-8
        (b"0.5,1.5,0\n0.5,1.5,nan\n", 2, "float32"),  # NaN label
        (b"0.5,1.5,inf\n", 1, "float32"),  # inf label
        (b"0.5,1.5,-1\n", 1, "class index"),  # negative label
        (b"1e300,1.5,0\n", 1, "float32"),  # feature beyond float32
        (b"0.5,1.5,1\n0.5,1.5,1.5\n", 2, "class index"),  # fractional label
        (b"0.5,1.5,-0.5\n", 1, "class index"),  # fractional label that truncates to 0
    ], ids=["non-numeric", "ragged", "not-utf8", "nan-label", "inf-label", "negative-label",
            "float32-overflow", "fractional-label", "negative-fractional-label"])
    def test_malformed_rows_name_path_and_line(self, tmp_path, body, line, needle):
        p = tmp_path / "d.csv"
        p.write_bytes(body)
        with pytest.raises(InvalidArg) as info:
            load_csv(p)
        assert f"{p}:{line}:" in str(info.value) and needle in str(info.value)

    @given(st.lists(st.lists(st.sampled_from(["0", "1", "2.5", "-3", "1e9", "1e40", "nan",
                                              "inf", "x", "", " 1", '"2"', "\xe9"]),
                             max_size=4), max_size=5),
           st.binary(max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_loads_or_raises_nterror(self, rows, junk):
        blob = "\n".join(",".join(r) for r in rows).encode("utf-8") + junk
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "x.csv"
            path.write_bytes(blob)
            try:
                ds = load_csv(path)
            except NTError:
                return
        assert ds.features.dtype == np.float32 and np.isfinite(ds.features).all()
        assert len(ds) == len(ds.labels) > 0

    def test_split_partitions(self):
        ds = synth_blobs(40, 2, 3, 1.0, seed=6)
        train, test = train_test_split(ds, 0.25, seed=3)
        assert len(train) == 30 and len(test) == 10
        merged = np.concatenate([train.features.sum(axis=1), test.features.sum(axis=1)])
        np.testing.assert_allclose(np.sort(merged), np.sort(ds.features.sum(axis=1)), rtol=1e-6)
