"""Fusion tests: concatenation equivalence, baselines, transplantation, and
reduction schemes.

The central check is the ensemble-average oracle: eval-mode forward of the
concatenated model must equal the uniform mean of member outputs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ntfusion import network as nw
from ntfusion.errors import ArchMismatch, InvalidArg
from ntfusion.experiments import build_arch
from ntfusion.fusion import (
    EnsembleBundle,
    FusionPlan,
    align_average,
    concat_fuse,
    fuse,
    fuse_iterative,
    fuse_recursive,
    nt_fuse,
    transplant_fraction,
    vanilla_average,
)
from ntfusion.network import LayerKind, forward, init_network
from ntfusion.pruning import KeepPolicy, magnitude_prune, permute_units, prune_to_architecture
from ntfusion.tensor import RngStream, row_l2_norms

from oracles import rel_error


def mlp_specs(dims):
    specs = []
    for a, b in zip(dims[:-2], dims[1:-1]):
        specs += [nw.linear(a, b), nw.relu()]
    specs.append(nw.linear(dims[-2], dims[-1]))
    return specs


def convnet_specs():
    return [
        nw.conv(1, 3, 3, stride=1, padding=1),
        nw.batchnorm(3),
        nw.relu(),
        nw.maxpool(2),
        nw.conv(3, 4, 3, stride=1, padding=0),
        nw.relu(),
        nw.flatten(),
        nw.linear(4 * 2 * 2, 5),
    ]


def make_members(specs, k, seed, randomize_bn=False, duplicates=False):
    """k seeded members; `duplicates` gives k copies of one net, which ties
    every unit norm across members."""
    members = []
    for j in range(k):
        tag = 0 if duplicates else j
        net = init_network(specs, RngStream(seed, f"member-{tag}"))
        if randomize_bn:
            rng = RngStream(seed, f"member-bn-{tag}")
            for i, spec in enumerate(net.specs):
                if spec.kind is LayerKind.BATCHNORM2D:
                    c = spec.dims[0]
                    net.params[i]["weight"] = rng.uniform((c,), 0.5, 1.5)
                    net.params[i]["bias"] = rng.normal((c,), 0.2)
                    net.params[i]["running_mean"] = rng.normal((c,), 0.3)
                    net.params[i]["running_var"] = rng.uniform((c,), 0.5, 2.0)
        members.append(net)
    return EnsembleBundle(members, list(range(k)))


def mean_member_outputs(members, x):
    outs = np.stack([forward(m, x, "eval").astype(np.float64) for m in members])
    return outs.mean(axis=0)


class TestConcatFuse:
    def test_two_mlp_shapes_and_equivalence(self):
        bundle = make_members(mlp_specs([4, 3, 2]), 2, seed=1)
        fused = concat_fuse(bundle)
        assert fused.params[0]["weight"].shape == (6, 4)
        assert fused.params[-1]["weight"].shape == (2, 6)
        x = RngStream(2).normal((50, 4))
        assert rel_error(forward(fused, x, "eval"),
                         mean_member_outputs(bundle.members, x)) <= 1e-5

    def test_identical_copies_average_to_same_function(self):
        net = init_network(mlp_specs([5, 6, 4, 3]), RngStream(3, "m"))
        bundle = EnsembleBundle([net.clone(), net.clone(), net.clone()])
        fused = concat_fuse(bundle)
        x = RngStream(4).normal((20, 5))
        # Mean of identical terms; only float32 summation order differs.
        assert rel_error(forward(fused, x, "eval"), forward(net, x, "eval")) <= 1e-6

    def test_conv_bn_pool_equivalence(self):
        bundle = make_members(convnet_specs(), 2, seed=5, randomize_bn=True)
        fused = concat_fuse(bundle)
        x = RngStream(6).normal((50, 1, 8, 8))
        assert rel_error(forward(fused, x, "eval"),
                         mean_member_outputs(bundle.members, x)) <= 1e-5

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_equivalence_over_k_mlp(self, k):
        bundle = make_members(mlp_specs([6, 8, 8, 4]), k, seed=7 + k)
        fused = concat_fuse(bundle)
        x = RngStream(8).normal((100, 6))
        assert rel_error(forward(fused, x, "eval"),
                         mean_member_outputs(bundle.members, x)) <= 1e-5

    def test_cross_weights_exactly_zero(self):
        k, fin, fout = 3, 5, 7
        bundle = make_members(mlp_specs([4, fin, fout, 2]), k, seed=9)
        fused = concat_fuse(bundle)
        w = fused.params[2]["weight"]  # interior linear
        assert w.shape == (k * fout, k * fin)
        for i in range(k):
            for j in range(k):
                block = w[i * fout : (i + 1) * fout, j * fin : (j + 1) * fin]
                if i == j:
                    np.testing.assert_array_equal(block, bundle.members[i].params[2]["weight"])
                else:
                    assert np.all(block == 0.0)

    def test_interior_parameter_growth(self):
        k = 4
        bundle = make_members(mlp_specs([4, 6, 6, 2]), k, seed=10)
        fused = concat_fuse(bundle)
        member_interior = bundle.members[0].params[2]["weight"].size
        assert fused.params[2]["weight"].size == k * k * member_interior
        assert fused.params[2]["bias"].size == k * 6

    def test_head_is_scaled_concat_and_mean_bias(self):
        bundle = make_members(mlp_specs([4, 3, 2]), 2, seed=11)
        fused = concat_fuse(bundle)
        w0 = bundle.members[0].params[-1]["weight"]
        w1 = bundle.members[1].params[-1]["weight"]
        np.testing.assert_allclose(fused.params[-1]["weight"],
                                   np.concatenate([w0, w1], axis=1) / 2.0, rtol=1e-7)
        np.testing.assert_allclose(
            fused.params[-1]["bias"],
            (bundle.members[0].params[-1]["bias"] + bundle.members[1].params[-1]["bias"]) / 2.0,
            rtol=1e-7)

    def test_bn_params_concatenated_verbatim(self):
        bundle = make_members(convnet_specs(), 2, seed=12, randomize_bn=True)
        fused = concat_fuse(bundle)
        for key in ("weight", "bias", "running_mean", "running_var"):
            np.testing.assert_array_equal(
                fused.params[1][key],
                np.concatenate([m.params[1][key] for m in bundle.members]))

    def test_origins_label_members(self):
        bundle = make_members(mlp_specs([4, 3, 3, 2]), 2, seed=13)
        fused = concat_fuse(bundle)
        np.testing.assert_array_equal(fused.origins[0], [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(fused.origins[2], [0, 0, 0, 1, 1, 1])

    def test_arch_mismatch_rejected(self):
        a = init_network(mlp_specs([4, 3, 2]), RngStream(14, "a"))
        b = init_network(mlp_specs([4, 5, 2]), RngStream(14, "b"))
        with pytest.raises(ArchMismatch):
            EnsembleBundle([a, b])

    def test_k1_rejected(self):
        net = init_network(mlp_specs([4, 3, 2]), RngStream(15, "a"))
        with pytest.raises(InvalidArg):
            concat_fuse(EnsembleBundle([net]))


class TestVanillaAverage:
    def test_self_average_identity(self):
        net = init_network(mlp_specs([4, 3, 2]), RngStream(16, "a"))
        out = vanilla_average(EnsembleBundle([net.clone(), net.clone()]))
        for a, b in zip(out.params, net.params):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])

    def test_opposite_weights_cancel(self):
        net = init_network(mlp_specs([4, 3, 2]), RngStream(17, "a"))
        neg = net.clone()
        for p in neg.params:
            for key in p:
                p[key] = -p[key]
        out = vanilla_average(EnsembleBundle([net, neg]))
        for p in out.params:
            for key in p:
                np.testing.assert_array_equal(p[key], np.zeros_like(p[key]))

    def test_matches_elementwise_loop_oracle(self):
        bundle = make_members(convnet_specs(), 3, seed=18, randomize_bn=True)
        out = vanilla_average(bundle)
        for li in range(len(out.params)):
            for key in out.params[li]:
                acc = bundle.members[0].params[li][key].copy()
                acc += bundle.members[1].params[li][key]
                acc += bundle.members[2].params[li][key]
                np.testing.assert_array_equal(out.params[li][key],
                                              acc * np.float32(1.0 / 3.0))


class TestAlignAverage:
    def test_permuted_copy_recovered_exactly(self):
        net = init_network(mlp_specs([5, 8, 6, 3]), RngStream(19, "a"))
        permuted = permute_units(net, {0: RngStream(20).permutation(8),
                                       2: RngStream(21).permutation(6)})
        out = align_average(net, permuted)
        for a, b in zip(out.params, net.params):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])

    def test_self_alignment_identity(self):
        net = init_network(mlp_specs([5, 8, 3]), RngStream(22, "a"))
        out = align_average(net, net.clone())
        for a, b in zip(out.params, net.params):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])

    def test_alignment_beats_identity_matching(self):
        a = init_network(mlp_specs([5, 10, 3]), RngStream(23, "a"))
        b = init_network(mlp_specs([5, 10, 3]), RngStream(24, "b"))
        out = align_average(a, b)
        # Recover the aligned rows: aligned = 2*avg - a.
        aligned_rows = 2.0 * out.params[0]["weight"].astype(np.float64) \
            - a.params[0]["weight"].astype(np.float64)
        rows_a = a.params[0]["weight"].astype(np.float64)
        rows_b = b.params[0]["weight"].astype(np.float64)
        matched = ((rows_a - aligned_rows) ** 2).sum()
        identity = ((rows_a - rows_b) ** 2).sum()
        assert matched <= identity + 1e-9

    def test_conv_alignment_recovers_permutation(self):
        net = make_members(convnet_specs(), 1, seed=25, randomize_bn=True).members[0]
        permuted = permute_units(net, {0: RngStream(26).permutation(3),
                                       4: RngStream(27).permutation(4)})
        out = align_average(net, permuted)
        x = RngStream(28).normal((10, 1, 8, 8))
        assert rel_error(forward(out, x, "eval"), forward(net, x, "eval")) <= 1e-6


class TestTransplantFraction:
    def test_p_zero_is_identity(self):
        a = init_network(mlp_specs([4, 6, 6, 3]), RngStream(29, "a"))
        b = init_network(mlp_specs([4, 6, 6, 3]), RngStream(30, "b"))
        out = transplant_fraction(a, b, 0.0)
        for pa, pb in zip(out.params, a.params):
            for key in pa:
                np.testing.assert_array_equal(pa[key], pb[key])

    def test_p_one_with_head_copies_donor(self):
        a = init_network(mlp_specs([4, 6, 6, 3]), RngStream(31, "a"))
        b = init_network(mlp_specs([4, 6, 6, 3]), RngStream(32, "b"))
        out = transplant_fraction(a, b, 1.0)
        for i, (pa, pb) in enumerate(zip(out.params, b.params)):
            for key in pa:
                if (i, key) == (len(out.params) - 1, "bias"):
                    np.testing.assert_array_equal(pa[key], a.params[i][key])
                else:
                    np.testing.assert_array_equal(pa[key], pb[key])

    def test_p_one_without_head_keeps_recipient_head(self):
        a = init_network(mlp_specs([4, 6, 3]), RngStream(33, "a"))
        b = init_network(mlp_specs([4, 6, 3]), RngStream(34, "b"))
        out = transplant_fraction(a, b, 1.0)
        np.testing.assert_array_equal(out.params[0]["weight"], b.params[0]["weight"])
        np.testing.assert_array_equal(out.params[-1]["bias"], a.params[-1]["bias"])

    def test_half_transplant_takes_strongest_donor_units(self):
        a = init_network(mlp_specs([4, 6, 3]), RngStream(35, "a"))
        b = init_network(mlp_specs([4, 6, 3]), RngStream(36, "b"))
        out = transplant_fraction(a, b, 0.5)
        norms_a = row_l2_norms(a.params[0]["weight"], a.params[0]["bias"])
        norms_b = row_l2_norms(b.params[0]["weight"], b.params[0]["bias"])
        slots = np.sort(np.argsort(norms_a)[:3])
        donors = np.sort(np.argsort(-norms_b)[:3])
        np.testing.assert_array_equal(out.params[0]["weight"][slots],
                                      b.params[0]["weight"][donors])
        keep = np.setdiff1d(np.arange(6), slots)
        np.testing.assert_array_equal(out.params[0]["weight"][keep],
                                      a.params[0]["weight"][keep])

    def test_invalid_fraction(self):
        a = init_network(mlp_specs([4, 6, 3]), RngStream(37, "a"))
        with pytest.raises(InvalidArg):
            transplant_fraction(a, a.clone(), 1.5)


def pairwise_nt_oracle(a, b, n_keep):
    """Independent simulation of concat + prune-to-width for one-hidden-layer
    nets given as (w1, b1, head_w, head_b) tuples.

    On a duplicate pair the norms tie, so the keep rule (norm desc, member
    asc, index asc) keeps BOTH copies of the strongest half rather than one
    copy of every unit.
    """
    w1 = np.concatenate([a[0], b[0]], axis=0)
    b1 = np.concatenate([a[1], b[1]])
    head_w = np.concatenate([a[2], b[2]], axis=1) / np.float32(2.0)
    head_b = (a[3] + b[3]) / np.float32(2.0)
    norms = np.sqrt((w1.astype(np.float64) ** 2).sum(axis=1) + b1.astype(np.float64) ** 2)
    member = np.repeat([0, 1], [len(a[1]), len(b[1])])
    order = np.lexsort((np.arange(len(norms)), member, -norms))
    keep = np.sort(order[:n_keep])
    return (w1[keep], b1[keep], np.ascontiguousarray(head_w[:, keep]), head_b)


class TestReductionSchemes:
    def setup_method(self):
        self.specs = mlp_specs([5, 8, 3])

    def bundle_of(self, k, seed):
        return make_members(self.specs, k, seed)

    def test_iterative_k2_equals_joint(self):
        bundle = self.bundle_of(2, 38)
        it = fuse_iterative(bundle)
        joint = nt_fuse(bundle)
        for a, b in zip(it.params, joint.params):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])

    def test_recursive_k2_equals_joint(self):
        bundle = self.bundle_of(2, 39)
        rec = fuse_recursive(bundle)
        joint = nt_fuse(bundle)
        for a, b in zip(rec.params, joint.params):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])

    def test_iterative_duplicates_match_simulation_oracle(self):
        net = init_network(self.specs, RngStream(40, "m"))
        m = (net.params[0]["weight"], net.params[0]["bias"],
             net.params[2]["weight"], net.params[2]["bias"])
        r = m
        for _ in range(3):  # fold M in three more times: k=4 identical copies
            r = pairwise_nt_oracle(r, m, n_keep=len(m[1]))
        bundle = EnsembleBundle([net.clone() for _ in range(4)])
        got = fuse_iterative(bundle)
        np.testing.assert_array_equal(got.params[0]["weight"], r[0])
        np.testing.assert_array_equal(got.params[0]["bias"], r[1])
        np.testing.assert_allclose(got.params[2]["weight"], r[2], rtol=1e-6)
        # Pruning a self-fusion is NOT the identity: the weak half is gone.
        x = RngStream(41).normal((20, 5))
        assert rel_error(forward(got, x), forward(net, x)) > 1e-4

    def test_recursive_duplicates_match_simulation_oracle(self):
        net = init_network(self.specs, RngStream(42, "m"))
        m = (net.params[0]["weight"], net.params[0]["bias"],
             net.params[2]["weight"], net.params[2]["bias"])
        # Balanced tree over 4 copies: both halves reduce to the same D1.
        d1 = pairwise_nt_oracle(m, m, n_keep=len(m[1]))
        r = pairwise_nt_oracle(d1, d1, n_keep=len(m[1]))
        bundle = EnsembleBundle([net.clone() for _ in range(4)])
        got = fuse_recursive(bundle)
        np.testing.assert_array_equal(got.params[0]["weight"], r[0])
        np.testing.assert_allclose(got.params[2]["weight"], r[2], rtol=1e-6)

    def test_recursive_odd_k_left_heavy(self):
        bundle = self.bundle_of(3, 43)
        out = fuse_recursive(bundle)
        assert out.arch_id == bundle.arch_id

    def test_iterative_weights_last_member_most(self):
        bundle = self.bundle_of(3, 44)
        out = fuse_iterative(bundle)
        assert out.arch_id == bundle.arch_id

    def test_fuse_dispatch(self):
        bundle = self.bundle_of(2, 45)
        for method in ("nt", "nt_iterative", "nt_recursive", "avg", "align"):
            out = fuse(bundle, FusionPlan(method=method))
            assert out.arch_id == bundle.arch_id


def conv57_specs():
    """Odd channel counts on 15x15 inputs, BN after each conv, and a flatten
    whose block is 3x3 columns per channel."""
    return [
        nw.conv(1, 5, 3, padding=1), nw.batchnorm(5), nw.relu(), nw.maxpool(2),
        nw.conv(5, 7, 3, padding=1), nw.batchnorm(7), nw.relu(), nw.maxpool(2),
        nw.flatten(), nw.linear(7 * 3 * 3, 9), nw.relu(), nw.linear(9, 4),
    ]


GATHER_ARCHS = {
    "mlp-odd": lambda: mlp_specs([33, 17, 9, 5]),
    "mlp-pow2": lambda: mlp_specs([16, 32, 16, 4]),
    "conv-bn-pool-block4": convnet_specs,
    "conv57": conv57_specs,
    "head-only": lambda: [nw.flatten(), nw.linear(6, 3)],
}


def conv_stride2_specs():
    """Two stride-2 convs without BN (12x12 -> 6x6 -> 3x3) and two hidden
    Linear layers after the flatten."""
    return [
        nw.conv(1, 4, 3, stride=2, padding=1), nw.relu(),
        nw.conv(4, 6, 3, stride=2, padding=1), nw.relu(),
        nw.flatten(), nw.linear(6 * 3 * 3, 10), nw.relu(), nw.linear(10, 7), nw.relu(),
        nw.linear(7, 3),
    ]


def bench_convnet_specs():
    """The benchmark's convnet: 16x16 inputs, conv channels [16, 32] with BN,
    one hidden Linear of 64."""
    return build_arch({"type": "convnet", "image_hw": [16, 16], "in_channels": 1,
                       "conv_channels": [16, 32], "batchnorm": True, "hidden": [64],
                       "classes": 10})


CONCAT_ARCHS = {**GATHER_ARCHS, "conv-stride2-no-bn": conv_stride2_specs,
                "bench-convnet": bench_convnet_specs}


class TestConcatFuseMatchesOracle:
    """`concat_fuse` is the gather that keeps every unit; it must be
    bit-identical to the hand-built per-layer-kind concatenation, origins
    included, and hold fresh C-contiguous arrays."""

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    @pytest.mark.parametrize("arch", sorted(CONCAT_ARCHS))
    def test_matches_oracle(self, arch, k):
        for duplicates in (False, True):
            bundle = make_members(CONCAT_ARCHS[arch](), k, 50 + k, randomize_bn=True,
                                  duplicates=duplicates)
            fused = concat_fuse(bundle)
            oracles.assert_same_network(fused, oracles.concat_fuse(bundle))
            for i, p in enumerate(fused.params):
                for key, a in p.items():
                    assert a.flags.c_contiguous, f"layer {i} {key}"
                    assert not any(np.shares_memory(a, m.params[i][key])
                                   for m in bundle.members), f"layer {i} {key}"


def concat_prune_oracle(bundle, sparsity):
    """Joint NT the way it was computed before the gather: build the
    concatenated network, then prune it with the pre-gather pruning code."""
    big = oracles.concat_fuse(bundle)
    if sparsity is None:
        return oracles.prune_to_architecture(big, bundle.members[0])
    return oracles.magnitude_prune(big, KeepPolicy.sparsity(sparsity))


class TestGatheredNtMatchesConcatOracle:
    """nt_fuse and the pairwise schemes gather straight from the members; the
    result must be bit-identical to concatenating and pruning."""

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    @pytest.mark.parametrize("arch", sorted(GATHER_ARCHS))
    def test_nt_fuse(self, arch, k):
        for duplicates in (False, True):
            bundle = make_members(GATHER_ARCHS[arch](), k, 60 + k, randomize_bn=True,
                                  duplicates=duplicates)
            for sparsity in (None, 0.5, 0.9):
                got = nt_fuse(bundle, sparsity)
                oracles.assert_same_network(got, concat_prune_oracle(bundle, sparsity))
            oracles.assert_same_network(
                nt_fuse(bundle), prune_to_architecture(concat_fuse(bundle), bundle.members[0]))

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    @pytest.mark.parametrize("arch", ["mlp-odd", "conv57", "conv-bn-pool-block4"])
    def test_iterative_and_recursive_match_concat_folds(self, arch, k):
        for duplicates in (False, True):
            bundle = make_members(GATHER_ARCHS[arch](), k, 70 + k, randomize_bn=True,
                                  duplicates=duplicates)
            oracles.assert_same_network(fuse_iterative(bundle),
                                        oracles.fuse_iterative(bundle.members))
            oracles.assert_same_network(fuse_recursive(bundle),
                                        oracles.fuse_recursive(bundle.members))

    @settings(max_examples=60, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 24), min_size=2, max_size=4),
        k=st.integers(2, 5),
        sparsity=st.sampled_from([None, 0.0, 0.3, 0.5, 0.9]),
        duplicates=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_random_mlp_widths(self, widths, k, sparsity, duplicates, seed):
        bundle = make_members(mlp_specs([*widths, 3]), k, seed, duplicates=duplicates)
        oracles.assert_same_network(nt_fuse(bundle, sparsity),
                                    concat_prune_oracle(bundle, sparsity))
        oracles.assert_same_network(fuse_iterative(bundle),
                                    oracles.fuse_iterative(bundle.members))

    @settings(max_examples=25, deadline=None)
    @given(
        channels=st.lists(st.integers(1, 7), min_size=1, max_size=2),
        image=st.integers(8, 13),
        k=st.integers(2, 4),
        sparsity=st.sampled_from([None, 0.5, 0.9]),
        seed=st.integers(0, 10_000),
    )
    def test_random_conv_widths(self, channels, image, k, sparsity, seed):
        specs, cin, hw = [], 1, image
        for c in channels:
            specs += [nw.conv(cin, c, 3, padding=1), nw.batchnorm(c), nw.relu(), nw.maxpool(2)]
            cin, hw = c, hw // 2
        specs += [nw.flatten(), nw.linear(cin * hw * hw, 3)]
        bundle = make_members(specs, k, seed, randomize_bn=True)
        oracles.assert_same_network(nt_fuse(bundle, sparsity),
                                    concat_prune_oracle(bundle, sparsity))

    def test_memory_stays_below_the_concatenation(self):
        bundle = make_members(mlp_specs([64, 128, 128, 10]), 8, 80)
        wide_bytes = concat_fuse(bundle).num_bytes()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            nt_fuse(bundle)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < wide_bytes / 4, f"nt_fuse peaked at {peak} B, concat is {wide_bytes} B"

    def test_output_shares_no_memory_with_members(self):
        bundle = make_members(convnet_specs(), 2, 81, randomize_bn=True)
        pruned = magnitude_prune(bundle.members[0], KeepPolicy.sparsity(0.0))
        for fused in (nt_fuse(bundle, 0.0), pruned):
            for m in bundle.members:
                for pf, pm in zip(fused.params, m.params):
                    for key in pf:
                        assert not np.shares_memory(pf[key], pm[key])


PERMUTE_ARCHS = {
    "mlp": lambda: mlp_specs([5, 8, 6, 3]),
    "conv-bn-pool-block4": convnet_specs,
    "conv57": conv57_specs,
}


def hidden_layers(net):
    return [c.layer for c in nw.hidden_couplings(net)]


class TestPermuteUnitsMatchesOracle:
    """`permute_units` is a one-source gather, and `align_average` permutes
    once through it; both must be bit-identical to the hand-written
    reindexing they replaced, origins included."""

    def orders(self, net, seed):
        return {layer: RngStream(seed, f"perm-{layer}").permutation(net.specs[layer].dims[1])
                for layer in hidden_layers(net)}

    def sequential_oracle(self, net, orders):
        for layer, order in orders.items():
            net = oracles.permute_units(net, layer, order)
        return net

    @pytest.mark.parametrize("arch", sorted(PERMUTE_ARCHS))
    def test_each_hidden_layer_and_all_at_once(self, arch):
        net = make_members(PERMUTE_ARCHS[arch](), 1, 90, randomize_bn=True).members[0]
        orders = self.orders(net, 91)
        for layer, order in orders.items():
            oracles.assert_same_network(permute_units(net, {layer: order}),
                                        oracles.permute_units(net, layer, order))
        oracles.assert_same_network(permute_units(net, orders),
                                    self.sequential_oracle(net, orders))

    @pytest.mark.parametrize("arch", sorted(PERMUTE_ARCHS))
    def test_origins_follow_the_permuted_layers(self, arch):
        fused = concat_fuse(make_members(PERMUTE_ARCHS[arch](), 2, 92, randomize_bn=True))
        orders = self.orders(fused, 93)
        for layer, order in orders.items():
            got = permute_units(fused, {layer: order})
            oracles.assert_same_network(got, oracles.permute_units(fused, layer, order))
            assert got.origins is not fused.origins
        oracles.assert_same_network(permute_units(fused, orders),
                                    self.sequential_oracle(fused, orders))

    @pytest.mark.parametrize("arch", sorted(PERMUTE_ARCHS))
    def test_align_average_matches_the_oracle(self, arch):
        a, b = make_members(PERMUTE_ARCHS[arch](), 2, 94, randomize_bn=True).members
        oracles.assert_same_network(align_average(a, b), oracles.align_average(a, b))
        permuted = permute_units(a, self.orders(a, 95))
        oracles.assert_same_network(align_average(a, permuted), oracles.align_average(a, permuted))

    def test_bad_orders_rejected(self):
        net = make_members(convnet_specs(), 1, 96).members[0]
        with pytest.raises(InvalidArg):
            permute_units(net, {0: [0, 0, 1]})
        with pytest.raises(InvalidArg):
            permute_units(net, {1: [0, 1, 2]})  # a BN layer owns no units

    @settings(max_examples=40, deadline=None)
    @given(arch=st.sampled_from(sorted(PERMUTE_ARCHS)), seed=st.integers(0, 10_000),
           data=st.data())
    def test_random_permutations(self, arch, seed, data):
        net = make_members(PERMUTE_ARCHS[arch](), 1, seed, randomize_bn=True).members[0]
        layers = data.draw(st.lists(st.sampled_from(hidden_layers(net)), min_size=1,
                                    unique=True))
        orders = {layer: data.draw(st.permutations(range(net.specs[layer].dims[1])))
                  for layer in layers}
        oracles.assert_same_network(permute_units(net, orders),
                                    self.sequential_oracle(net, orders))
