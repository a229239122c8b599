"""Structured pruning tests against the exhaustive sort oracle."""

import numpy as np
import pytest

import oracles
from ntfusion import network as nw
from ntfusion.errors import ArchIncompatible, EmptyLayer, InvalidArg
from ntfusion.fusion import EnsembleBundle, concat_fuse
from ntfusion.network import Network, forward, hidden_couplings, init_network
from ntfusion.pruning import (
    KeepPolicy,
    magnitude_prune,
    prune_concat,
    prune_to_architecture,
)
from ntfusion.tensor import RngStream, row_l2_norms


def mlp_specs(dims):
    specs = []
    for a, b in zip(dims[:-2], dims[1:-1]):
        specs += [nw.linear(a, b), nw.relu()]
    specs.append(nw.linear(dims[-2], dims[-1]))
    return specs


def single_hidden_net(rows, bias=None, classes=2):
    """Build a net whose first-layer rows are handed in explicitly."""
    rows = np.asarray(rows, dtype=np.float32)
    n, d = rows.shape
    bias = np.zeros(n, np.float32) if bias is None else np.asarray(bias, np.float32)
    head = RngStream(0, "head").normal((classes, n))
    return Network(
        [nw.linear(d, n), nw.relu(), nw.linear(n, classes)],
        [{"weight": rows, "bias": bias}, {},
         {"weight": head, "bias": np.zeros(classes, np.float32)}],
    )


def sort_oracle_keep(norms, origins, keep):
    """Exhaustive sort of (norm desc, member asc, index asc); first `keep`."""
    member = origins if origins is not None else [0] * len(norms)
    ranked = sorted(range(len(norms)), key=lambda u: (-norms[u], member[u], u))
    return sorted(ranked[:keep])


class TestUnitNorms:
    """The saliency NT ranks by: one L2 norm per hidden unit's incoming row
    (bias included), taken over the hidden layers only."""

    def test_hand_norms(self):
        net = single_hidden_net([[3, 4], [0, 0]])
        p = net.params[0]
        assert row_l2_norms(p["weight"], p["bias"]).tolist() == [5.0, 0.0]

    def test_conv_filter_of_ones(self):
        norms = row_l2_norms(np.ones((1, 1, 3, 3), np.float32), np.zeros(1, np.float32))
        assert norms[0] == pytest.approx(3.0)

    def test_norms_match_per_unit_recompute_oracle(self):
        net = init_network(mlp_specs([6, 9, 7, 3]), RngStream(2, "g"))
        for c in hidden_couplings(net):
            w = net.params[c.layer]["weight"]
            b = net.params[c.layer]["bias"]
            norms = row_l2_norms(w, b)
            for u in range(c.units):
                want = np.sqrt(sum(float(v) ** 2 for v in w[u]) + float(b[u]) ** 2)
                assert norms[u] == pytest.approx(want, rel=1e-6)

    def test_output_layer_excluded(self):
        net = init_network(mlp_specs([6, 9, 3]), RngStream(3, "g"))
        assert [c.layer for c in hidden_couplings(net)] == [0]
        out = prune_concat([net], KeepPolicy.sparsity(0.5))
        assert out.specs[-1].dims == (5, 3)
        np.testing.assert_array_equal(out.params[-1]["bias"], net.params[-1]["bias"])

    def test_origin_labels_after_fusion(self):
        bundle = EnsembleBundle([init_network(mlp_specs([4, 3, 2]), RngStream(s, "m"))
                                 for s in (4, 5)])
        big = concat_fuse(bundle)
        assert big.origins[0].tolist() == [0, 0, 0, 1, 1, 1]
        for j, member in enumerate(bundle.members):  # member rows keep their order
            np.testing.assert_array_equal(big.params[0]["weight"][j * 3 : (j + 1) * 3],
                                          member.params[0]["weight"])


class TestMagnitudePrune:
    def test_sparsity_zero_unchanged(self):
        net = init_network(mlp_specs([5, 8, 4]), RngStream(6, "p"))
        out = magnitude_prune(net, KeepPolicy.sparsity(0.0))
        for a, b in zip(out.params, net.params):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])

    def test_hand_sorted_keep(self):
        rows = np.zeros((4, 3), np.float32)
        for i, n in enumerate([1.0, 9.0, 3.0, 7.0]):
            rows[i, 0] = n
        net = single_hidden_net(rows)
        out = magnitude_prune(net, KeepPolicy.sparsity(0.5))
        np.testing.assert_array_equal(out.params[0]["weight"][:, 0], [9.0, 7.0])
        # order preserved: unit 1 (norm 9) stays ahead of unit 3 (norm 7)

    def test_keep_count_floor_rule(self):
        net = init_network(mlp_specs([5, 10, 4]), RngStream(7, "p"))
        for s, want in [(0.33, 7), (0.5, 5), (0.99, 1)]:
            out = magnitude_prune(net, KeepPolicy.sparsity(s))
            assert out.specs[0].dims[1] == want

    def test_random_nets_match_sort_oracle(self):
        for trial in range(100):
            rng = RngStream(trial, "oracle")
            n = int(rng.integers(3, 12))
            rows = rng.normal((n, 4))
            if trial % 5 == 0:  # tie fixture: duplicate some rows
                rows[1] = rows[0]
                if n > 4:
                    rows[4] = rows[0]
            net = single_hidden_net(rows)
            keep = max(1, n - int(np.floor(0.5 * n)))
            out = magnitude_prune(net, KeepPolicy.sparsity(0.5))
            norms = [float(v) for v in
                     np.sqrt((rows.astype(np.float64) ** 2).sum(axis=1))]
            want = sort_oracle_keep(norms, None, keep)
            np.testing.assert_array_equal(out.params[0]["weight"],
                                          rows[want])

    def test_fused_tie_break_prefers_lower_member(self):
        net = init_network(mlp_specs([4, 3, 2]), RngStream(8, "m"))
        bundle = EnsembleBundle([net.clone(), net.clone()])
        fused = concat_fuse(bundle)
        out = magnitude_prune(fused, KeepPolicy.sparsity(0.5))
        norms = np.sqrt((net.params[0]["weight"].astype(np.float64) ** 2).sum(axis=1)
                        + net.params[0]["bias"].astype(np.float64) ** 2)
        want = sort_oracle_keep(np.concatenate([norms, norms]).tolist(),
                                [0, 0, 0, 1, 1, 1], 3)
        got_rows = out.params[0]["weight"]
        np.testing.assert_array_equal(got_rows, fused.params[0]["weight"][want])

    def test_surviving_parameters_bit_identical(self):
        net = init_network(mlp_specs([6, 12, 8, 3]), RngStream(9, "p"))
        out = magnitude_prune(net, KeepPolicy.sparsity(0.25))
        kept = []
        for c in hidden_couplings(net):
            w = net.params[c.layer]["weight"].astype(np.float64)
            b = net.params[c.layer]["bias"].astype(np.float64)
            norms = np.sqrt((w ** 2).sum(axis=1) + b ** 2).tolist()
            keep = c.units - int(np.floor(0.25 * c.units))
            kept.append(sort_oracle_keep(norms, None, keep))
        # Survivors equal the original values at (kept rows) x (kept columns).
        np.testing.assert_array_equal(out.params[0]["weight"],
                                      net.params[0]["weight"][kept[0]])
        np.testing.assert_array_equal(
            out.params[2]["weight"],
            net.params[2]["weight"][kept[1]][:, kept[0]])
        np.testing.assert_array_equal(
            out.params[4]["weight"], net.params[4]["weight"][:, kept[1]])
        np.testing.assert_array_equal(out.params[2]["bias"],
                                      net.params[2]["bias"][kept[1]])

    def test_per_member_quota_equals_individual_prune_oracle(self):
        members = [init_network(mlp_specs([5, 8, 3]), RngStream(s, "m")) for s in (10, 11)]
        fused = concat_fuse(EnsembleBundle(members))
        out = magnitude_prune(fused, KeepPolicy.per_member([4, 4]))
        # Oracle: prune each member to its top 4 units, then concatenate.
        kept_rows = []
        for m in members:
            norms = np.sqrt((m.params[0]["weight"].astype(np.float64) ** 2).sum(axis=1)
                            + m.params[0]["bias"].astype(np.float64) ** 2)
            keep = sort_oracle_keep(norms.tolist(), None, 4)
            kept_rows.append(m.params[0]["weight"][keep])
        np.testing.assert_array_equal(out.params[0]["weight"], np.concatenate(kept_rows))

    def test_per_member_needs_origins(self):
        net = init_network(mlp_specs([5, 8, 3]), RngStream(12, "p"))
        with pytest.raises(InvalidArg):
            magnitude_prune(net, KeepPolicy.per_member([2, 2]))

    def test_empty_layer_rejected(self):
        net = init_network(mlp_specs([5, 8, 3]), RngStream(13, "p"))
        with pytest.raises(EmptyLayer):
            magnitude_prune(net, KeepPolicy.keep_counts([0]))

    def test_conv_pruning_through_flatten(self):
        specs = [nw.conv(1, 4, 3, padding=1), nw.batchnorm(4), nw.relu(), nw.maxpool(2),
                 nw.flatten(), nw.linear(4 * 4 * 4, 5)]
        net = init_network(specs, RngStream(14, "conv"))
        out = magnitude_prune(net, KeepPolicy.sparsity(0.5))
        assert out.specs[0].dims[1] == 2
        assert out.specs[1].dims == (2,)
        assert out.specs[-1].dims == (2 * 4 * 4, 5)
        x = RngStream(15).normal((3, 1, 8, 8))
        assert forward(out, x).shape == (3, 5)
        # flatten is channel-major: channel c feeds head columns c*16 .. c*16+15
        norms = row_l2_norms(net.params[0]["weight"], net.params[0]["bias"])
        kept = np.sort(np.argsort(-norms, kind="stable")[:2])
        for slot, ch in enumerate(kept):
            np.testing.assert_array_equal(out.params[-1]["weight"][:, slot * 16 : (slot + 1) * 16],
                                          net.params[-1]["weight"][:, ch * 16 : (ch + 1) * 16])


class TestPruneToArchitecture:
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_restores_member_architecture(self, k):
        members = [init_network(mlp_specs([6, 8, 8, 4]), RngStream(s, "m"))
                   for s in range(k)]
        bundle = EnsembleBundle(members)
        pruned = prune_to_architecture(concat_fuse(bundle), members[0])
        assert pruned.arch_id == members[0].arch_id

    def test_identity_when_same_arch(self):
        net = init_network(mlp_specs([5, 8, 3]), RngStream(20, "p"))
        out = prune_to_architecture(net, net.clone())
        for a, b in zip(out.params, net.params):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])

    def test_dominant_member_survives_with_zero_cross_weights(self):
        big_m = init_network(mlp_specs([4, 5, 5, 3]), RngStream(21, "dominant"))
        small_m = init_network(mlp_specs([4, 5, 5, 3]), RngStream(22, "weak"))
        for p in big_m.params:
            if "weight" in p:
                p["weight"] = p["weight"] + np.sign(p["weight"]) * np.float32(5.0)
        fused = concat_fuse(EnsembleBundle([big_m, small_m]))
        pruned = prune_to_architecture(fused, big_m)
        np.testing.assert_array_equal(pruned.params[0]["weight"], big_m.params[0]["weight"])
        np.testing.assert_array_equal(pruned.params[2]["weight"], big_m.params[2]["weight"])
        np.testing.assert_allclose(pruned.params[-1]["weight"],
                                   big_m.params[-1]["weight"] / 2.0, rtol=1e-7)

    def test_cannot_grow(self):
        small = init_network(mlp_specs([5, 4, 3]), RngStream(23, "s"))
        big = init_network(mlp_specs([5, 8, 3]), RngStream(24, "b"))
        with pytest.raises(ArchIncompatible):
            prune_to_architecture(small, big)

    def test_kind_mismatch(self):
        a = init_network(mlp_specs([5, 8, 3]), RngStream(25, "a"))
        conv_net = init_network([nw.conv(1, 2, 3), nw.relu(), nw.flatten(),
                                 nw.linear(2 * 36, 3)], RngStream(26, "c"))
        with pytest.raises(ArchIncompatible):
            prune_to_architecture(a, conv_net)


def conv_hidden_specs():
    """conv+BN+pool, a flatten block of 16 columns, and two hidden Linear
    layers; every hidden layer is 6 wide so per-member quotas apply."""
    return [nw.conv(1, 6, 3, padding=1), nw.batchnorm(6), nw.relu(), nw.maxpool(2),
            nw.flatten(), nw.linear(6 * 4 * 4, 6), nw.relu(), nw.linear(6, 6), nw.relu(),
            nw.linear(6, 3)]


class TestPruneConcat:
    """Every keep policy, through the gather, against the pre-gather pruning
    of the concatenated network (`oracles.magnitude_prune`)."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_policies_match_pruning_the_concatenation(self, k):
        members = [init_network(conv_hidden_specs(), RngStream(30 + j, "pc")) for j in range(k)]
        big = oracles.concat_fuse(EnsembleBundle(members))
        quotas = [6 // k + (1 if j < 6 % k else 0) for j in range(k)]
        policies = [
            KeepPolicy.per_member(quotas),
            KeepPolicy.per_member([1] * k),
            KeepPolicy.sparsity(0.5),
            KeepPolicy.keep_counts([5, 1, 6 * k]),
        ]
        for policy in policies:
            oracles.assert_same_network(prune_concat(members, policy),
                                        oracles.magnitude_prune(big, policy))

    def test_one_source_matches_pre_gather_prune(self):
        for seed in range(20):
            specs = conv_hidden_specs() if seed % 2 else mlp_specs([7, 11, 5, 3])
            net = init_network(specs, RngStream(seed, "one"))
            for s in (0.0, 0.3, 0.7):
                oracles.assert_same_network(magnitude_prune(net, KeepPolicy.sparsity(s)),
                                            oracles.magnitude_prune(net, KeepPolicy.sparsity(s)))
        fused = oracles.concat_fuse(EnsembleBundle(
            [init_network(conv_hidden_specs(), RngStream(s, "o")) for s in (1, 2)]))
        for policy in (KeepPolicy.sparsity(0.5), KeepPolicy.per_member([2, 4])):
            oracles.assert_same_network(magnitude_prune(fused, policy),
                                        oracles.magnitude_prune(fused, policy))

    def test_quota_count_mismatch_rejected(self):
        members = [init_network(mlp_specs([5, 8, 3]), RngStream(s, "m")) for s in (1, 2)]
        with pytest.raises(InvalidArg):
            prune_concat(members, KeepPolicy.per_member([4, 4, 4]))
        with pytest.raises(InvalidArg):
            prune_concat(members, KeepPolicy.keep_counts([4, 4]))
