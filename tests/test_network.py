"""Network structure, forward/backward, and unit-coupling tests.

Gradient correctness is checked against a central finite-difference oracle
(eps=1e-3, relative tolerance 1e-3 at float32 scale).
"""

import numpy as np
import pytest

from ntfusion import network as nw
from ntfusion.errors import ShapeMismatch, UnsupportedTopology
from ntfusion.losses import cross_entropy, softmax
from ntfusion.layers import flatten_forward
from ntfusion.network import (
    Network,
    check_specs,
    forward,
    hidden_couplings,
    init_network,
)
from ntfusion.pruning import permute_units
from ntfusion.tensor import RngStream

from oracles import check_gradients, rel_error


def mlp_specs(dims):
    specs = []
    for a, b in zip(dims[:-2], dims[1:-1]):
        specs += [nw.linear(a, b), nw.relu()]
    specs.append(nw.linear(dims[-2], dims[-1]))
    return specs


def small_convnet_specs():
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


def random_convnet(seed=0):
    net = init_network(small_convnet_specs(), RngStream(seed, "test/convnet"))
    rng = RngStream(seed, "test/convnet-bn")
    for i, spec in enumerate(net.specs):
        if spec.kind is nw.LayerKind.BATCHNORM2D:
            c = spec.dims[0]
            net.params[i]["weight"] = rng.uniform((c,), 0.5, 1.5)
            net.params[i]["bias"] = rng.normal((c,), 0.2)
            net.params[i]["running_mean"] = rng.normal((c,), 0.3)
            net.params[i]["running_var"] = rng.uniform((c,), 0.5, 2.0)
    return net


class TestForward:
    def test_identity_linear(self):
        net = Network([nw.linear(3, 3)],
                      [{"weight": np.eye(3, dtype=np.float32),
                        "bias": np.zeros(3, dtype=np.float32)}])
        x = RngStream(0).normal((4, 3))
        np.testing.assert_array_equal(forward(net, x), x)

    def test_relu(self):
        net = Network([nw.linear(2, 2), nw.relu(), nw.linear(2, 2)],
                      [{"weight": np.eye(2, dtype=np.float32),
                        "bias": np.zeros(2, dtype=np.float32)},
                       {},
                       {"weight": np.eye(2, dtype=np.float32),
                        "bias": np.zeros(2, dtype=np.float32)}])
        out = forward(net, np.array([[-1.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, np.array([[0.0, 2.0]], dtype=np.float32))

    def test_two_layer_composition_oracle(self):
        net = init_network(mlp_specs([4, 6, 3]), RngStream(3, "test/mlp"))
        x = RngStream(4, "test/x").normal((5, 4))
        w1, b1 = net.params[0]["weight"], net.params[0]["bias"]
        w2, b2 = net.params[2]["weight"], net.params[2]["bias"]
        hand = np.maximum(x @ w1.T + b1, 0) @ w2.T + b2
        assert rel_error(forward(net, x), hand) <= 1e-6

    def test_eval_forward_is_pure(self):
        net = random_convnet(5)
        x = RngStream(6, "test/x").normal((3, 1, 8, 8))
        a = forward(net, x, "eval")
        b = forward(net, x, "eval")
        np.testing.assert_array_equal(a, b)
        c = forward(net, x, "eval")
        np.testing.assert_array_equal(a, c)

    def test_shape_mismatch(self):
        net = init_network(mlp_specs([4, 6, 3]), RngStream(3, "test/mlp"))
        with pytest.raises(ShapeMismatch):
            forward(net, np.zeros((2, 5), dtype=np.float32))


class TestBackward:
    def test_zero_weight_bias_gradient_is_softmax_minus_onehot(self):
        net = Network([nw.linear(3, 3)],
                      [{"weight": np.zeros((3, 3), dtype=np.float32),
                        "bias": np.zeros(3, dtype=np.float32)}])
        x = RngStream(1).normal((1, 3))
        _, grads = nw.backward(net, x, np.array([1]))
        expect = softmax(np.zeros((1, 3), dtype=np.float32))[0]
        expect[1] -= 1.0
        np.testing.assert_allclose(grads[0]["bias"], expect, atol=1e-7)

    def test_mlp_finite_differences(self):
        net = init_network(mlp_specs([5, 8, 6, 4]), RngStream(7, "test/fd-mlp"))
        x = RngStream(8, "test/fd-x").normal((6, 5))
        y = np.array([0, 1, 2, 3, 0, 1])
        check_gradients(net, x, y)

    def test_convnet_finite_differences(self):
        net = random_convnet(9)
        x = RngStream(10, "test/fd-conv-x").normal((4, 1, 8, 8))
        y = np.array([0, 1, 2, 3])
        check_gradients(net, x, y)

    def test_training_mode_updates_running_stats(self):
        net = random_convnet(11)
        bn_idx = next(i for i, s in enumerate(net.specs)
                      if s.kind is nw.LayerKind.BATCHNORM2D)
        before = net.params[bn_idx]["running_mean"].copy()
        x = RngStream(12).normal((4, 1, 8, 8))
        nw.forward(net, x, "train")
        assert not np.array_equal(before, net.params[bn_idx]["running_mean"])


class TestTopology:
    def test_head_must_be_linear(self):
        with pytest.raises(UnsupportedTopology):
            check_specs([nw.conv(1, 2, 3)])

    def test_no_layers_after_head(self):
        with pytest.raises(UnsupportedTopology):
            check_specs([nw.linear(3, 2), nw.relu()])

    def test_linear_after_conv_needs_flatten(self):
        with pytest.raises(UnsupportedTopology):
            check_specs([nw.conv(1, 2, 3), nw.linear(8, 2)])

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            check_specs([nw.conv(1, 2, 3), nw.conv(3, 4, 3), nw.flatten(), nw.linear(4, 2)])

    def test_flatten_width_must_divide(self):
        with pytest.raises(ShapeMismatch):
            check_specs([nw.conv(1, 3, 3), nw.flatten(), nw.linear(10, 2)])


class TestHiddenCouplings:
    def test_mlp_unit_count(self):
        net = init_network(mlp_specs([784, 512, 512, 10]), RngStream(0, "views"))
        assert sum(c.units for c in hidden_couplings(net)) == 1024

    def test_lenet_like_unit_count(self):
        specs = [
            nw.conv(1, 6, 5, padding=2), nw.relu(), nw.maxpool(2),
            nw.conv(6, 16, 5), nw.relu(), nw.maxpool(2),
            nw.flatten(),
            nw.linear(16 * 5 * 5, 120), nw.relu(),
            nw.linear(120, 84), nw.relu(),
            nw.linear(84, 10),
        ]
        net = init_network(specs, RngStream(1, "views"))
        assert [c.units for c in hidden_couplings(net)] == [6, 16, 120, 84]

    def test_units_tile_the_next_layer_inputs(self):
        net = random_convnet(2)
        couplings = hidden_couplings(net)
        assert [c.layer for c in couplings] == [0, 4]
        for c in couplings:
            assert c.units == net.specs[c.layer].dims[1]
            # units * block columns (or one channel each) cover the next layer once
            assert c.units * c.block == net.specs[c.next_layer].dims[0]
        assert couplings[0].mode == "channel" and couplings[0].bn_layers == (1,)

    def test_flatten_block_is_channel_major(self):
        # flatten(x)[:, block columns of channel ch] equals x[:, ch] flattened
        x = RngStream(3).normal((2, 3, 4, 5))
        flat = flatten_forward(x)[0]
        for ch in range(3):
            np.testing.assert_array_equal(flat[:, ch * 20 : (ch + 1) * 20],
                                          x[:, ch].reshape(2, -1))

    def test_conv_outgoing_block_under_flatten(self):
        net = random_convnet(4)
        c = hidden_couplings(net)[1]  # second conv, flattened into the head
        hw = net.specs[-1].dims[0] // net.specs[4].dims[1]
        assert (c.layer, c.mode, c.block, c.next_layer) == (4, "columns", hw, len(net.specs) - 1)


class TestPermuteUnits:
    def test_function_preserved(self):
        net = random_convnet(13)
        x = RngStream(14).normal((3, 1, 8, 8))
        base = forward(net, x, "eval")
        order = RngStream(15).permutation(net.specs[0].dims[1])
        permuted = permute_units(net, {0: order})
        assert rel_error(forward(permuted, x, "eval"), base) <= 1e-6

    def test_mlp_permutation_exact(self):
        net = init_network(mlp_specs([4, 8, 3]), RngStream(16, "perm"))
        x = RngStream(17).normal((5, 4))
        order = RngStream(18).permutation(8)
        permuted = permute_units(net, {0: order})
        np.testing.assert_array_equal(
            permuted.params[0]["weight"], net.params[0]["weight"][order])
        assert rel_error(forward(permuted, x), forward(net, x)) <= 1e-6
