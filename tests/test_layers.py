"""Fast layer kernels against the slow paths they replaced (tests/oracles.py).

Every comparison is bit for bit: outputs, every gradient and the BatchNorm
running buffers must have the same shape, dtype and bytes, so a +0.0 / -0.0
difference fails too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ntfusion import layers
from ntfusion import network as nw
from ntfusion.data import BatchPlan, Dataset
from ntfusion.tensor import RngStream
from ntfusion.training import TrainConfig, train


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def tie_heavy(rng, shape):
    """Small integers with random signs: many ties, including +0.0 vs -0.0."""
    vals = rng.integers(-2, 3, size=shape).astype(np.float32)
    return vals * rng.choice(np.array([-1.0, 1.0], dtype=np.float32), size=shape)


def check_maxpool(x, window, rng):
    out, cache = layers.maxpool_forward(x, window)
    want, want_cache = oracles.maxpool_forward(x, window)
    assert_bits_equal(out, want)
    assert out.flags.c_contiguous
    dout = rng.standard_normal(out.shape).astype(np.float32)
    assert_bits_equal(layers.maxpool_backward(dout, cache),
                      oracles.maxpool_backward(dout, want_cache))


def check_conv(x, w, b, stride, padding, rng):
    out, cache = layers.conv_forward(x, w, b, stride, padding)
    want, want_cache = oracles.conv_forward(x, w, b, stride, padding)
    assert_bits_equal(out, want)
    dout = rng.standard_normal(out.shape).astype(np.float32)
    for got, exp in zip(layers.conv_backward(dout, cache),
                        oracles.conv_backward(dout, want_cache)):
        assert_bits_equal(got, exp)


def check_bn(x, mode, rng):
    c = x.shape[1]
    weight = rng.uniform(0.5, 1.5, c).astype(np.float32)
    bias = rng.standard_normal(c).astype(np.float32)
    mean0 = rng.standard_normal(c).astype(np.float32)
    var0 = rng.uniform(0.5, 2.0, c).astype(np.float32)
    rm, rv = mean0.copy(), var0.copy()
    want_rm, want_rv = mean0.copy(), var0.copy()
    out, cache = layers.bn_forward(x, weight, bias, rm, rv, mode)
    want, want_cache = oracles.bn_forward(x, weight, bias, want_rm, want_rv, mode)
    assert_bits_equal(out, want)
    assert_bits_equal(rm, want_rm)
    assert_bits_equal(rv, want_rv)
    if mode == "eval":
        assert_bits_equal(rm, mean0)
        assert_bits_equal(rv, var0)
    dout = rng.standard_normal(out.shape).astype(np.float32)
    for got, exp in zip(layers.bn_backward(dout, cache),
                        oracles.bn_backward(dout, want_cache)):
        assert_bits_equal(got, exp)


class TestMaxpool:
    @pytest.mark.parametrize("window", [2, 3])
    @pytest.mark.parametrize("hw", [(8, 8), (7, 9), (12, 6)])
    def test_random_input(self, window, hw):
        rng = np.random.default_rng(window * 100 + hw[0])
        x = rng.standard_normal((3, 4, *hw)).astype(np.float32)
        check_maxpool(x, window, rng)

    @pytest.mark.parametrize("window", [2, 3])
    def test_cropped_border_gets_zero_gradient(self, window):
        x = np.random.default_rng(1).standard_normal((2, 2, 7, 9)).astype(np.float32)
        out, cache = layers.maxpool_forward(x, window)
        dx = layers.maxpool_backward(np.ones_like(out), cache)
        assert not dx[:, :, (7 // window) * window :].any()
        assert not dx[:, :, :, (9 // window) * window :].any()

    @pytest.mark.parametrize("fill", [0.0, -0.0, 1.5, -3.0])
    @pytest.mark.parametrize("window", [2, 3])
    def test_constant_windows(self, fill, window):
        x = np.full((2, 3, 7, 9), fill, dtype=np.float32)
        check_maxpool(x, window, np.random.default_rng(2))
        _, cache = layers.maxpool_forward(x, window)
        dx = layers.maxpool_backward(np.ones((2, 3, 7 // window, 9 // window), np.float32), cache)
        # Only the first element of each window takes the gradient.
        assert dx.sum() == 2 * 3 * (7 // window) * (9 // window)
        assert dx[:, :, :: window, :: window][:, :, : 7 // window, : 9 // window].all()

    @pytest.mark.parametrize("window", [2, 3])
    def test_repeated_max_and_signed_zero_ties(self, window):
        rng = np.random.default_rng(3)
        for _ in range(5):
            check_maxpool(tie_heavy(rng, (3, 4, 7, 9)), window, rng)
        # A window that holds -0.0 before +0.0 and one the other way round.
        x = np.full((1, 1, window, 2 * window), -1.0, dtype=np.float32)
        x[0, 0, 0, 0], x[0, 0, window - 1, window - 1] = -0.0, 0.0
        x[0, 0, 0, window], x[0, 0, window - 1, 2 * window - 1] = 0.0, -0.0
        check_maxpool(x, window, rng)
        out, _ = layers.maxpool_forward(x, window)
        assert np.signbit(out).tolist() == [[[[True, False]]]]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 10), st.integers(1, 10), st.integers(1, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_shapes(self, seed, b, c, h, w, window, ties):
        rng = np.random.default_rng(seed)
        x = (tie_heavy(rng, (b, c, h, w)) if ties
             else rng.standard_normal((b, c, h, w)).astype(np.float32))
        check_maxpool(x, window, rng)


class TestConv:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_oracle(self, stride, padding):
        rng = np.random.default_rng(10 * stride + padding)
        x = rng.standard_normal((3, 2, 7, 9)).astype(np.float32)
        w = rng.standard_normal((5, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        check_conv(x, w, b, stride, padding, rng)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 2), st.integers(0, 2), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_random_shapes(self, seed, b, cin, cout, kh, kw, stride, padding, dh, dw):
        rng = np.random.default_rng(seed)
        h = max(1, kh - 2 * padding) + dh
        w_ = max(1, kw - 2 * padding) + dw
        x = rng.standard_normal((b, cin, h, w_)).astype(np.float32)
        w = rng.standard_normal((cout, cin, kh, kw)).astype(np.float32)
        bias = rng.standard_normal(cout).astype(np.float32)
        check_conv(x, w, bias, stride, padding, rng)


class TestBatchNorm:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("shape", [(16, 8, 8, 8), (3, 4, 7, 9), (1, 2, 1, 1)])
    def test_matches_oracle(self, mode, shape):
        rng = np.random.default_rng(sum(shape))
        x = (rng.standard_normal(shape) * 3 + 1).astype(np.float32)
        check_bn(x, mode, rng)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4),
           st.integers(1, 6), st.integers(1, 6), st.sampled_from(["train", "eval"]))
    @settings(max_examples=60, deadline=None)
    def test_random_shapes(self, seed, b, c, h, w, mode):
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.01, 100.0)
        x = (rng.standard_normal((b, c, h, w)) * scale).astype(np.float32)
        check_bn(x, mode, rng)


ORACLE_KERNELS = ("conv_forward", "conv_backward", "bn_forward", "bn_backward",
                  "maxpool_forward", "maxpool_backward")


def test_sgd_steps_match_oracle_kernels(monkeypatch):
    """A few epochs of SGD on a conv+BN+pool net give bit-identical
    parameters, running buffers and logits with the slow kernels patched in."""
    specs = [
        nw.conv(1, 4, 3, stride=1, padding=1), nw.batchnorm(4), nw.relu(), nw.maxpool(2),
        nw.conv(4, 6, 3, stride=2, padding=1), nw.batchnorm(6), nw.relu(), nw.maxpool(2),
        nw.flatten(), nw.linear(6, 8), nw.relu(), nw.linear(8, 3),
    ]
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 1, 7, 9)).astype(np.float32)
    ds = Dataset(x, rng.integers(0, 3, size=40), 3)
    net = nw.init_network(specs, RngStream(5, "init"))
    cfg = TrainConfig(epochs=3, lr=0.05, batch=BatchPlan(batch_size=8, shuffle_seed=1))

    fast, _ = train(net, ds, ds, cfg)
    for name in ORACLE_KERNELS:
        monkeypatch.setattr(layers, name, getattr(oracles, name))
    slow, _ = train(net, ds, ds, cfg)
    slow_logits = nw.forward(slow, x)
    monkeypatch.undo()

    for pf, ps in zip(fast.params, slow.params):
        assert pf.keys() == ps.keys()
        for key in pf:
            assert_bits_equal(pf[key], ps[key])
    assert_bits_equal(nw.forward(fast, x), slow_logits)
