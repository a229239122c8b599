"""Network structure, forward/backward, and unit-coupling tests.

Gradient correctness is checked against a central finite-difference oracle
(eps=1e-3, relative tolerance 1e-3 at float32 scale).
"""

import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntfusion import network as nw
from ntfusion.errors import InvalidArg, ShapeMismatch, UnsupportedTopology
from ntfusion.experiments import build_arch
from ntfusion.losses import cross_entropy, log_softmax
from ntfusion.layers import flatten_forward
from ntfusion.network import (
    Network,
    check_specs,
    forward,
    hidden_couplings,
    init_network,
)
from ntfusion.tensor import RngStream
from ntfusion.training import KdConfig

from oracles import assert_same_network, check_gradients, loss_fn, rel_error, two_walk_couplings
from test_fusion import reorder


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


class TestForwardOwnership:
    """The cacheless `forward` overwrites only activations it allocated, and
    its logits and running buffers are bit-identical to `forward_cached`'s,
    which overwrites nothing and unfolds each conv's whole batch at once."""

    NETS = {
        "relu-first": ([nw.relu(), nw.linear(6, 4), nw.relu(), nw.linear(4, 3)], (5, 6)),
        "flatten-relu": ([nw.flatten(), nw.relu(), nw.linear(18, 4), nw.relu(), nw.linear(4, 3)],
                         (5, 2, 3, 3)),
        "mlp": (mlp_specs([6, 8, 7, 3]), (5, 6)),
        "convnet": (small_convnet_specs(), (70, 1, 8, 8)),  # 70 rows: two conv slices
    }

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("name", sorted(NETS))
    def test_batch_kept_and_outputs_bit_identical(self, name, mode):
        specs, shape = self.NETS[name]
        net = random_convnet(20) if name == "convnet" else init_network(specs, RngStream(20))
        x = RngStream(21, "test/x").normal(shape)  # mixed signs: an in-place ReLU would show
        kept = x.copy()
        cached = net.clone()
        want, _ = nw.forward_cached(cached, x, mode)
        got = forward(net, x, mode)
        assert x.tobytes() == kept.tobytes()
        assert got.tobytes() == want.tobytes()
        assert_same_network(net, cached)


class TestActivationMemory:
    """Peak bytes `tracemalloc` sees on the benchmark's convnet (16x16
    glyphs, conv [16, 32] with BatchNorm, hidden 64), against bounds written
    from its activation shapes. Numpy reports its array buffers to
    tracemalloc."""

    ARCH = {"type": "convnet", "image_hw": [16, 16], "in_channels": 1,
            "conv_channels": [16, 32], "batchnorm": True, "hidden": [64], "classes": 10}

    @staticmethod
    def sizes(specs, rows, hw):
        """Bytes of each layer's output, and of each conv's im2col columns,
        at `rows` rows of hw x hw input."""
        c, h, w = specs[0].dims[0], hw, hw
        outs, cols = [], []
        for s in specs:
            if s.kind is nw.LayerKind.CONV2D:
                cin, c, kh, kw, stride, pad = s.dims
                h, w = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
                cols.append(4 * rows * cin * kh * kw * h * w)
            elif s.kind is nw.LayerKind.MAXPOOL2D:
                h, w = h // s.dims[0], w // s.dims[0]
            elif s.kind is nw.LayerKind.FLATTEN:
                c, h, w = c * h * w, 1, 1
            elif s.kind is nw.LayerKind.LINEAR:
                c = s.dims[1]
            outs.append(4 * rows * c * h * w)
        return outs, cols

    @staticmethod
    def peak(fn):
        fn()  # one untraced call first: only the steady state is measured
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_eval_forward(self):
        """256 rows, as `evaluate` runs: at most 1.5 x the largest activation
        plus one 64-row column buffer. Only a layer's input and output live
        together, a 2x2 pool's output is a quarter of its input, and
        BatchNorm and ReLU allocate nothing."""
        net = init_network(build_arch(self.ARCH), RngStream(1, "test/mem"))
        x = RngStream(2, "test/mem-x").normal((256, 1, 16, 16))
        outs, _ = self.sizes(net.specs, 256, 16)
        _, cols = self.sizes(net.specs, 64, 16)
        assert self.peak(lambda: forward(net, x, "eval")) <= 1.5 * max(outs) + max(cols)

    def test_train_step(self):
        """A 64-row `backward`: at most every layer's output once and every
        conv's columns once, plus one more copy of the largest columns, the
        transposed copy dW's tensordot makes."""
        net = init_network(build_arch(self.ARCH), RngStream(1, "test/mem"))
        x = RngStream(3, "test/mem-x").normal((64, 1, 16, 16))
        y = np.arange(64) % 10
        outs, cols = self.sizes(net.specs, 64, 16)

        def step():
            nw.backward(net, x, lambda z: cross_entropy(z, y))

        assert self.peak(step) <= sum(outs) + sum(cols) + max(cols)


class TestBackward:
    def test_backprop_consumes_caches(self):
        """Each cache is popped as its layer's backward runs; those of layers
        below the first one with parameters are dropped at the end."""
        for specs, shape in [(small_convnet_specs(), (4, 1, 8, 8)),
                             TestForwardOwnership.NETS["flatten-relu"]]:
            net = init_network(specs, RngStream(22))
            logits, caches = nw.forward_cached(net, RngStream(23).normal(shape), "train")
            nw.backprop(net, caches, cross_entropy(logits, np.arange(shape[0]) % 3)[1])
            assert caches == []

    def test_zero_weight_bias_gradient_is_softmax_minus_onehot(self):
        net = Network([nw.linear(3, 3)],
                      [{"weight": np.zeros((3, 3), dtype=np.float32),
                        "bias": np.zeros(3, dtype=np.float32)}])
        x = RngStream(1).normal((1, 3))
        _, grads = nw.backward(net, x, lambda z: cross_entropy(z, np.array([1])))
        expect = np.exp(log_softmax(np.zeros((1, 3), dtype=np.float32)))[0]
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


class TestBackwardOwnership:
    """`backward` writes only buffers it allocated: the batch, the teacher
    logits and the parameters stay as they were, and the running stats move
    only by the train-mode forward's own update."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("loss", ["cross_entropy", "kd"])
    def test_inputs_untouched(self, mode, loss):
        net = random_convnet(13)
        x = RngStream(14, "test/x").normal((4, 1, 8, 8))
        y = np.array([0, 1, 2, 3])
        teacher = RngStream(15, "test/t").normal((4, 5)) if loss == "kd" else None
        kd_cfg = KdConfig(2.0, 0.5) if loss == "kd" else None
        kept = [a.copy() for a in (x, y, teacher) if a is not None]
        want = net.clone()
        forward(want, x, mode)  # the running-stat update alone
        nw.backward(net, x, loss_fn(y, loss, teacher, kd_cfg), mode=mode)
        for a, b in zip((x, y, teacher), kept):
            assert a.tobytes() == b.tobytes()
        assert_same_network(net, want)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("make", ["mlp", "convnet"])
    def test_repeated_calls_give_equal_gradients(self, mode, make):
        if make == "mlp":
            net = init_network(mlp_specs([5, 8, 6, 4]), RngStream(16, "test/mlp"))
            x = RngStream(17, "test/x").normal((6, 5))
        else:
            net = random_convnet(16)
            x = RngStream(17, "test/x").normal((6, 1, 8, 8))
        y = np.array([0, 1, 2, 3, 0, 1])
        loss_a, grads_a = nw.backward(net, x, lambda z: cross_entropy(z, y), mode=mode)
        loss_b, grads_b = nw.backward(net, x, lambda z: cross_entropy(z, y), mode=mode)
        assert loss_a == loss_b
        for ga, gb in zip(grads_a, grads_b):
            assert ga.keys() == gb.keys()
            for key in ga:
                assert ga[key].tobytes() == gb[key].tobytes()


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

    # Every other chain check_specs refuses, with the error class it raises.
    @pytest.mark.parametrize("specs,error", [
        ([], UnsupportedTopology),
        ([nw.linear(-1, 2)], InvalidArg),
        ([nw.flatten(), nw.relu()], UnsupportedTopology),
        ([nw.conv(1, 0, 3), nw.flatten(), nw.linear(4, 2)], InvalidArg),
        ([nw.conv(1, 2, 3), nw.flatten(), nw.conv(2, 2, 3), nw.flatten(), nw.linear(4, 2)],
         UnsupportedTopology),
        ([nw.batchnorm(2), nw.linear(2, 2)], UnsupportedTopology),
        ([nw.conv(1, 2, 3), nw.batchnorm(3), nw.flatten(), nw.linear(4, 2)], ShapeMismatch),
        ([nw.maxpool(2), nw.linear(2, 2)], UnsupportedTopology),
        ([nw.conv(1, 2, 3), nw.maxpool(0), nw.flatten(), nw.linear(4, 2)], InvalidArg),
        ([nw.linear(0, 2)], InvalidArg),
        ([nw.linear(4, 6), nw.relu(), nw.linear(5, 3)], ShapeMismatch),
        ([nw.flatten(), nw.linear(4, 6), nw.flatten(), nw.linear(5, 3)], ShapeMismatch),
        ([nw.conv(1, 3, 3), nw.flatten(), nw.linear(12, 5), nw.linear(6, 2)], ShapeMismatch),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_refused_chain_raises_its_error_class(self, specs, error):
        with pytest.raises(error):
            check_specs(specs)


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
        assert net.specs[couplings[0].next_layer].kind is nw.LayerKind.CONV2D
        assert couplings[0].bn_layers == (1,)

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
        assert (c.layer, net.specs[c.next_layer].kind, c.block, c.next_layer) == \
            (4, nw.LayerKind.LINEAR, hw, len(net.specs) - 1)


@st.composite
def valid_chains(draw):
    """A random chain check_specs accepts: a head-only chain; an MLP, with or
    without a leading Flatten and Flattens between its Linears; or a conv
    stack, each conv with or without BN and pool, flattened into zero or more
    hidden Linears and the head."""
    width = st.integers(1, 6)
    specs, shape = [], draw(st.sampled_from(["head", "mlp", "conv"]))
    if shape == "conv":
        channels = draw(width)
        for _ in range(draw(st.integers(1, 3))):
            cout = draw(width)
            specs.append(nw.conv(channels, cout, draw(st.integers(1, 3))))
            specs += [nw.batchnorm(cout)] * draw(st.booleans()) + [nw.relu()]
            specs += [nw.maxpool(draw(st.integers(1, 2)))] * draw(st.booleans())
            channels = cout
        specs.append(nw.flatten())
        features = channels * draw(st.integers(1, 9))  # channels x flattened h*w
    else:
        features = draw(width)
        specs += [nw.flatten()] * draw(st.booleans())
    for _ in range(draw(st.integers(0, 3)) if shape != "head" else 0):
        hidden = draw(width)
        specs += [nw.linear(features, hidden), nw.relu()]
        specs += [nw.flatten()] * (shape == "mlp" and draw(st.booleans()))
        features = hidden
    return specs + [nw.linear(features, draw(width))]


class TestSingleWalk:
    @given(specs=valid_chains())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_two_walk_oracle(self, specs):
        want = two_walk_couplings(Network(specs, []))  # reads only the specs
        assert [astuple(c) for c in check_specs(specs)] == [astuple(c) for c in want]


class TestReorderUnits:
    """A one-source `gather_units` of every unit, the first hidden layer's
    units permuted, computes the same function."""

    def test_function_preserved(self):
        net = random_convnet(13)
        x = RngStream(14).normal((3, 1, 8, 8))
        base = forward(net, x, "eval")
        order = RngStream(15).permutation(net.specs[0].dims[1])
        permuted = reorder(net, {0: order})
        assert rel_error(forward(permuted, x, "eval"), base) <= 1e-6

    def test_mlp_permutation_exact(self):
        net = init_network(mlp_specs([4, 8, 3]), RngStream(16, "perm"))
        x = RngStream(17).normal((5, 4))
        order = RngStream(18).permutation(8)
        permuted = reorder(net, {0: order})
        np.testing.assert_array_equal(
            permuted.params[0]["weight"], net.params[0]["weight"][order])
        assert rel_error(forward(permuted, x), forward(net, x)) <= 1e-6


class TestInit:
    def test_params_follow_param_shapes(self):
        net = init_network(small_convnet_specs(), RngStream(0, "t"))
        for spec, params in zip(net.specs, net.params):
            assert [(k, v.shape) for k, v in params.items()] == nw.param_shapes(spec)

    def test_fixed_seed_draws(self):
        """Each layer draws from its own stream, weight then bias, uniform in
        +-1/sqrt(fan-in); BatchNorm starts as the identity."""
        specs = small_convnet_specs()
        net = init_network(specs, RngStream(3, "t"))
        fan_in = {0: 1 * 3 * 3, 4: 3 * 3 * 3, 7: 4 * 2 * 2}
        for i, fan in fan_in.items():
            rng, bound = RngStream(3, "t").split(f"layer-{i}"), 1.0 / np.sqrt(fan)
            weight, bias = net.params[i]["weight"], net.params[i]["bias"]
            assert np.array_equal(weight, rng.uniform(weight.shape, -bound, bound))
            assert np.array_equal(bias, rng.uniform(bias.shape, -bound, bound))
        bn = net.params[1]
        assert [bn[k].tolist() for k in ("weight", "bias", "running_mean", "running_var")] \
            == [[1.0] * 3, [0.0] * 3, [0.0] * 3, [1.0] * 3]
