"""Checkpoint round-trip and corruption tests."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ntfusion import network as nw
from ntfusion.checkpoint import MAGIC, CheckpointSequence, load_checkpoint, save_checkpoint
from ntfusion.errors import (BadMagic, CorruptHeader, NTError, PayloadLengthMismatch,
                             VersionUnsupported)
from ntfusion.fusion import EnsembleBundle, concat_fuse, nt_fuse
from ntfusion.network import init_network
from ntfusion.pruning import KeepPolicy, magnitude_prune
from ntfusion.tensor import RngStream


def mixed_specs(seed):
    rng = RngStream(seed, "arch")
    if int(rng.integers(0, 2)) == 0:
        widths = [int(v) for v in rng.integers(2, 9, size=3)]
        return [nw.linear(widths[0], widths[1]), nw.relu(),
                nw.linear(widths[1], widths[2]), nw.relu(),
                nw.linear(widths[2], 3)]
    c = int(rng.integers(2, 5))
    return [nw.conv(1, c, 3, padding=1), nw.batchnorm(c), nw.relu(), nw.maxpool(2),
            nw.flatten(), nw.linear(c * 16, 4)]


def assert_nets_equal(a, b):
    assert a.specs == b.specs
    for pa, pb in zip(a.params, b.params):
        assert pa.keys() == pb.keys()
        for key in pa:
            np.testing.assert_array_equal(pa[key], pb[key])


class TestRoundTrip:
    def test_random_net(self, tmp_path):
        net = init_network(mixed_specs(1), RngStream(1, "net"))
        path = tmp_path / "a.ntckpt"
        save_checkpoint(net, path, {"seed": 1, "epoch": 5, "metrics": {"acc": 0.5}})
        loaded, header = load_checkpoint(path)
        assert_nets_equal(net, loaded)
        assert header["meta"]["seed"] == 1
        assert header["arch_id"] == net.arch_id

    def test_hundred_mixed_nets(self, tmp_path):
        for seed in range(100):
            net = init_network(mixed_specs(seed), RngStream(seed, "net"))
            path = tmp_path / f"{seed}.ntckpt"
            save_checkpoint(net, path)
            assert_nets_equal(net, load_checkpoint(path)[0])

    def test_bn_running_stats_preserved(self, tmp_path):
        net = init_network(mixed_specs(3), RngStream(7, "net"))
        bn = next((i for i, s in enumerate(net.specs)
                   if s.kind is nw.LayerKind.BATCHNORM2D), None)
        if bn is None:
            net = init_network(
                [nw.conv(1, 2, 3, padding=1), nw.batchnorm(2), nw.relu(),
                 nw.flatten(), nw.linear(2 * 36, 3)], RngStream(7, "net"))
            bn = 1
        net.params[bn]["running_mean"] += np.float32(0.25)
        path = tmp_path / "bn.ntckpt"
        save_checkpoint(net, path)
        assert_nets_equal(net, load_checkpoint(path)[0])


class TestLoadedTensors:
    def test_writable_contiguous_aligned_and_bit_exact(self, tmp_path):
        net = init_network(mixed_specs(2), RngStream(2, "net"))
        first = net.params[0]["weight"].reshape(-1)
        first[:4] = [np.float32(-0.0), np.float32(np.inf), np.float32(1e-45), np.float32(np.nan)]
        path = tmp_path / "t.ntckpt"
        save_checkpoint(net, path)
        loaded, _ = load_checkpoint(path)
        for want, got in zip(net.params, loaded.params):
            for key in want:
                arr = got[key]
                assert arr.dtype == np.float32 and arr.dtype.isnative
                assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.aligned
                assert arr.shape == want[key].shape
                assert arr.tobytes() == want[key].tobytes()
        loaded.params[0]["weight"][...] = 0.0  # writing one tensor leaves the others
        assert loaded.params[0]["bias"].tobytes() == net.params[0]["bias"].tobytes()

    def test_huge_declared_architecture_is_rejected_before_reading(self, tmp_path):
        header = json.dumps({"arch": [{"kind": "linear", "dims": [100000, 100000]}],
                             "arch_id": "x", "meta": {}}).encode()
        path = tmp_path / "huge.ntckpt"
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + b"\0" * 16)
        with pytest.raises(PayloadLengthMismatch):
            load_checkpoint(path)

    def test_header_length_past_end_of_file(self, tmp_path):
        path = tmp_path / "short.ntckpt"
        path.write_bytes(MAGIC + struct.pack("<I", 0xFFFFFFFF) + b"{}")
        with pytest.raises(PayloadLengthMismatch):
            load_checkpoint(path)


class TestCorruption:
    def make_ckpt(self, tmp_path):
        net = init_network([nw.linear(4, 5), nw.relu(), nw.linear(5, 3)],
                           RngStream(9, "net"))
        path = tmp_path / "c.ntckpt"
        save_checkpoint(net, path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make_ckpt(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(b"XXNOPEXX" + blob[8:])
        with pytest.raises(BadMagic):
            load_checkpoint(path)

    def test_unknown_version(self, tmp_path):
        path = self.make_ckpt(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(b"NTCKPT9\x00" + blob[8:])
        with pytest.raises(VersionUnsupported):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = self.make_ckpt(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(PayloadLengthMismatch):
            load_checkpoint(path)

    def test_header_arch_payload_mismatch(self, tmp_path):
        path = self.make_ckpt(tmp_path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + hlen].decode())
        # Widen the hidden layer consistently: arch stays valid, but the
        # payload no longer matches the implied parameter count.
        header["arch"][0]["dims"] = [4, 6]
        header["arch"][2]["dims"] = [6, 3]
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(MAGIC + struct.pack("<I", len(new_header)) + new_header +
                         blob[12 + hlen :])
        with pytest.raises(PayloadLengthMismatch):
            load_checkpoint(path)


def conv_ckpt_bytes():
    net = init_network([nw.conv(1, 3, 3, padding=1), nw.batchnorm(3), nw.relu(),
                        nw.maxpool(2), nw.flatten(), nw.linear(3 * 16, 3)],
                       RngStream(11, "net"))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "c.ntckpt"
        save_checkpoint(net, path, {"seed": 11})
        return path.read_bytes()


CONV_CKPT = conv_ckpt_bytes()
CONV_HEADER_END = 12 + struct.unpack("<I", CONV_CKPT[8:12])[0]


def load_bytes(blob):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.ntckpt"
        path.write_bytes(blob)
        return load_checkpoint(path)


class TestHeaderFuzz:
    # Payload bytes are raw floats, so any change there still loads; the
    # fuzz targets the magic, the header length and the JSON header.
    @given(st.integers(0, CONV_HEADER_END - 1), st.integers(0, 255))
    @settings(max_examples=400, deadline=None)
    def test_single_byte_corruption_loads_or_raises_nterror(self, index, value):
        blob = bytearray(CONV_CKPT)
        blob[index] = value
        try:
            load_bytes(bytes(blob))
        except NTError:
            pass

    @pytest.mark.parametrize("old,new", [
        (b'"conv2d"', b'"conv2\xff"'),  # not UTF-8
        (b'"arch_id"', b'"arch_iX"'),  # missing key
        (b'"relu"', b'"relU"'),  # unknown layer kind
        (b'"dims":[1,3,3,3,1,1]', b'"dims":[1.3,3,3,1,1]'),  # conv dims arity
        (b'"dims":[2]', b'"dims":[ ]'),  # maxpool without a window
        (b'{"arch"', b'["arch"'),  # header is not an object
    ])
    def test_schema_violations_raise_corrupt_header(self, old, new):
        assert len(old) == len(new) and CONV_CKPT.count(old) == 1
        with pytest.raises(CorruptHeader):
            load_bytes(CONV_CKPT.replace(old, new))


def conv_members(k, seed):
    specs = [nw.conv(1, 3, 3, padding=1), nw.batchnorm(3), nw.relu(), nw.maxpool(2),
             nw.flatten(), nw.linear(3 * 16, 5), nw.relu(), nw.linear(5, 3)]
    return [init_network(specs, RngStream(seed + j, "origins")) for j in range(k)]


def test_checkpoint_sequence_loads_each_item_on_read(tmp_path):
    nets = conv_members(3, 7)
    paths = [tmp_path / f"m{j}.ntckpt" for j in range(3)]
    for net, path in zip(nets, paths):
        save_checkpoint(net, path)
    seq = CheckpointSequence(paths)
    assert len(seq) == 3 and seq.arch_ids() == [net.arch_id for net in nets]
    assert isinstance(seq[1:], CheckpointSequence) and seq[1:].paths == tuple(paths[1:])
    for net, loaded in zip(nets, seq):
        assert_nets_equal(net, loaded)
    assert seq[-1] is not seq[-1]  # nothing is cached


def round_trip(net, tmp_path):
    path = tmp_path / "o.ntckpt"
    save_checkpoint(net, path)
    return load_checkpoint(path)[0]


def reversed_duplicate_concat():
    """Two copies of one MLP with odd widths, concatenated, every hidden
    layer's units reversed: each member's units now sit where the other's
    were, so only the origin labels tell ties apart."""
    member = init_network([nw.linear(4, 5), nw.relu(), nw.linear(5, 7), nw.relu(),
                           nw.linear(7, 3)], RngStream(3, "dup"))
    big = concat_fuse(EnsembleBundle([member, member.clone()]))
    for c in nw.hidden_couplings(big):
        big = oracles.permute_units(big, c.layer, np.arange(c.units)[::-1])
    return big


class TestOrigins:
    @pytest.mark.parametrize("fuse_fn", [nt_fuse, concat_fuse])
    @pytest.mark.parametrize("k", [2, 3])
    def test_fused_round_trip_keeps_origins(self, tmp_path, fuse_fn, k):
        fused = fuse_fn(EnsembleBundle(conv_members(k, 20)))
        assert fused.origins is not None
        oracles.assert_same_network(round_trip(fused, tmp_path), fused)

    def test_unfused_network_loads_without_origins(self, tmp_path):
        net = conv_members(1, 5)[0]
        assert round_trip(net, tmp_path).origins is None

    @pytest.mark.parametrize("policy", [KeepPolicy.sparsity(0.5), KeepPolicy.per_member()])
    def test_pruning_a_loaded_concat_matches_pruning_it_in_memory(self, tmp_path, policy):
        net = reversed_duplicate_concat()
        loaded = round_trip(net, tmp_path)
        oracles.assert_same_network(magnitude_prune(loaded, policy), magnitude_prune(net, policy))
        oracles.assert_same_network(loaded, net)

    @pytest.mark.parametrize("origins", [
        None,  # not an object
        [0, 1],
        {"1": [0, 0, 1, 1, 1, 0, 0]},  # the relu, not a unit layer
        {"4": [0, 1, 0]},  # the head
        {"9": [0, 1, 0]},  # past the last layer
        {"x": [0]},
        {"0": [0, 0, 1, 1, 1, 0]},  # one label short
        {"0": [0, 0, 1, 1, 1, 0, 1, 1]},  # one label too many
        {"0": [0, 0, 1, 1, 1, -1, 0]},
        {"0": [0, 0, 1, 1, 1, 0.5, 0]},
        {"0": [0, 0, 1, 1, 1, True, 0]},
        {"0": [0, 0, 1, 1, 1, "1", 0]},
        {"0": [0, 0, 1, 1, 1, 2**63, 0]},
        {"0": "0011100"},
    ])
    def test_malformed_origins_raise_corrupt_header(self, tmp_path, origins):
        path = tmp_path / "m.ntckpt"
        save_checkpoint(init_network([nw.linear(4, 7), nw.relu(), nw.linear(7, 5), nw.relu(),
                                      nw.linear(5, 3)], RngStream(1, "m")), path)
        blob = path.read_bytes()
        end = 12 + struct.unpack("<I", blob[8:12])[0]
        header = json.loads(blob[12:end])
        header["origins"] = origins
        new = json.dumps(header).encode()
        path.write_bytes(MAGIC + struct.pack("<I", len(new)) + new + blob[end:])
        with pytest.raises(CorruptHeader):
            load_checkpoint(path)


def fused_ckpt_bytes():
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.ntckpt"
        save_checkpoint(nt_fuse(EnsembleBundle(conv_members(2, 40))), path)
        return path.read_bytes()


FUSED_CKPT = fused_ckpt_bytes()
FUSED_HEADER_END = 12 + struct.unpack("<I", FUSED_CKPT[8:12])[0]


class TestOriginsFuzz:
    @given(st.integers(FUSED_CKPT.index(b'"origins"'), FUSED_HEADER_END - 1),
           st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_corrupt_origins_load_or_raise_nterror(self, index, value):
        blob = bytearray(FUSED_CKPT)
        blob[index] = value
        try:
            load_bytes(bytes(blob))
        except NTError:
            pass
